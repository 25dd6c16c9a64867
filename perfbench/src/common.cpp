#include "common.hpp"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <string>

namespace perfbench {

namespace vn = voronet;

double steady_now() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point t0 = Clock::now();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

namespace {

constexpr double kSpeedSampleS = 0.005;  ///< CPU time between calibrations
constexpr std::size_t kSpeedWindow = 3;  ///< timings the median runs over
/// The kernel's time on the reference host (4-core Xeon VM, g++ 12, -O2).
constexpr double kKernelNominalS = 0.15e-3;
/// How much more strongly the engine's CPU time responds to the host's
/// contention than the kernel's: engine time ~ kernel time ^ 1.5.  Over
/// six 25-s runs of identical churn work on a 50,000-object overlay, in
/// three sessions, the spread of the scaled total (quartile distance
/// over median) was 0.05-0.11 with this exponent, against 0.08-0.15
/// with 1, 0.08-0.13 with 2 and 0.18-0.29 unscaled.  The engine's
/// working set is in the shared last-level cache, which the kernel's
/// table does not reach.
constexpr double kSensitivity = 1.5;

/// The calibration kernel: random read-modify-writes, with a
/// data-dependent branch, into a 16 KiB table.  The table is warmed
/// first and fits the core's first-level cache, so the timing does not
/// depend on how much of the caches the program's own data took.
double time_kernel() {
  static std::vector<std::uint32_t> table(1u << 12);
  static std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const std::uint32_t mask = static_cast<std::uint32_t>(table.size() - 1);
  for (std::uint32_t& v : table) v += 1;
  const double t0 = cpu_now();
  for (int k = 0; k < 60'000; ++k) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    table[(x >> 40) & mask] += static_cast<std::uint32_t>(x >> 13) ^ ((x & 7) != 0 ? 1u : 3u);
  }
  return cpu_now() - t0;
}

struct WorkClock {
  double last_raw = 0.0;    ///< cpu_now() at the previous reading
  double last_sample = -1.0;  ///< cpu_now() at the previous calibration
  double scaled = 0.0;      ///< scaled seconds so far
  double raw = 0.0;         ///< unscaled seconds so far
  double factor = 1.0;
  std::vector<double> timings;  ///< the last kSpeedWindow kernel timings
  std::size_t next = 0;

  double read() {
    const double now = cpu_now();
    if (last_sample >= 0.0) {
      scaled += (now - last_raw) * factor;
      raw += now - last_raw;
    }
    last_raw = now;
    if (last_sample < 0.0 || now - last_sample >= kSpeedSampleS) {
      // The first reading fills the whole window.
      do {
        const double t = time_kernel();
        if (timings.size() < kSpeedWindow) {
          timings.push_back(t);
        } else {
          timings[next] = t;
          next = (next + 1) % kSpeedWindow;
        }
      } while (timings.size() < kSpeedWindow);
      factor = std::pow(kKernelNominalS / median(timings), kSensitivity);
      last_raw = last_sample = cpu_now();
    }
    return scaled;
  }
};

WorkClock& work_clock() {
  static WorkClock clock;
  return clock;
}

}  // namespace

double work_now() { return work_clock().read(); }

double host_speed() {
  const WorkClock& c = work_clock();
  return c.raw > 0.0 ? c.scaled / c.raw : c.factor;
}

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  if (values.empty()) return 0.0;
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

// --- Report -----------------------------------------------------------------

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = Value{value, unit};
}

void Report::ops(std::uint64_t n, std::uint64_t failed) {
  attempted_ += n;
  failed_ += failed;
}

void Report::wrong(const std::string& what) { wrong_.push_back(what); }


Json Report::to_json() const {
  Json j = Json::object();
  j.set("correct", Json::boolean(correct()));
  j.set("attempted", Json::integer(attempted_));
  j.set("failed", Json::integer(failed_));
  Json wrong = Json::array();
  for (const auto& w : wrong_) wrong.push(Json::string(w));
  j.set("wrong", std::move(wrong));
  Json m = Json::object();
  for (const auto& [name, v] : metrics_) {
    m.set(name, Json::object()
                    .set("value", Json::number(v.value))
                    .set("unit", Json::string(v.unit)));
  }
  j.set("metrics", std::move(m));
  return j;
}

// --- SpanLog ----------------------------------------------------------------

vn::obs::SpanId SpanLog::begin(std::string_view name, vn::obs::SpanId parent) {
  return tracer_.begin_span(steady_now(), name, -1, parent);
}

void SpanLog::end(vn::obs::SpanId id) { tracer_.end_span(id, steady_now()); }

void SpanLog::count(vn::obs::SpanId id, std::string_view key,
                    std::uint64_t v) {
  tracer_.arg(id, key, v);
}

void SpanLog::write(const std::string& path) const {
  vn::write_json_file(path, tracer_.to_chrome_json());
}

// --- Snapshot ---------------------------------------------------------------

Snapshot snapshot(const vn::protocol::ProtocolHarness& h) {
  Snapshot s;
  const vn::protocol::Transport& t = h.network();
  const vn::sim::Metrics& m = t.metrics();
  for (std::size_t k = 0; k < kKinds; ++k) {
    const auto kind = static_cast<vn::sim::MessageKind>(k);
    s.msgs[k] = static_cast<double>(m.messages(kind));
    s.bytes[k] = static_cast<double>(m.wire_bytes(kind));
  }
  const vn::protocol::NetworkStats& st = t.stats();
  s.sends = static_cast<double>(st.sends);
  s.transmissions = static_cast<double>(st.transmissions);
  s.delivered = static_cast<double>(st.delivered);
  s.duplicates = static_cast<double>(st.duplicates);
  s.retransmits = static_cast<double>(st.retransmits);
  s.abandoned = static_cast<double>(st.abandoned);
  s.acks = static_cast<double>(st.acks);
  s.wire_bytes = static_cast<double>(st.wire_bytes);
  const vn::geo::PredicateStats p = vn::geo::predicate_stats();
  s.orient = static_cast<double>(p.orient_calls);
  s.orient_exact = static_cast<double>(p.orient_exact);
  s.incircle = static_cast<double>(p.incircle_calls);
  s.incircle_exact = static_cast<double>(p.incircle_exact);
  const auto& hops = m.hops(vn::sim::OperationKind::kQuery);
  s.query_ops = static_cast<double>(hops.count());
  s.query_hops_sum = hops.mean() * static_cast<double>(hops.count());
  return s;
}

Snapshot Snapshot::operator-(const Snapshot& b) const {
  Snapshot d;
  for (std::size_t k = 0; k < kKinds; ++k) {
    d.msgs[k] = msgs[k] - b.msgs[k];
    d.bytes[k] = bytes[k] - b.bytes[k];
  }
  d.sends = sends - b.sends;
  d.transmissions = transmissions - b.transmissions;
  d.delivered = delivered - b.delivered;
  d.duplicates = duplicates - b.duplicates;
  d.retransmits = retransmits - b.retransmits;
  d.abandoned = abandoned - b.abandoned;
  d.acks = acks - b.acks;
  d.wire_bytes = wire_bytes - b.wire_bytes;
  d.orient = orient - b.orient;
  d.orient_exact = orient_exact - b.orient_exact;
  d.incircle = incircle - b.incircle;
  d.incircle_exact = incircle_exact - b.incircle_exact;
  d.query_ops = query_ops - b.query_ops;
  d.query_hops_sum = query_hops_sum - b.query_hops_sum;
  return d;
}

double Snapshot::messages() const {
  double sum = 0.0;
  for (std::size_t k = 0; k < kKinds; ++k) {
    if (k != static_cast<std::size_t>(vn::sim::MessageKind::kAck)) {
      sum += msgs[k];
    }
  }
  return sum;
}

void crash_undrained(vn::protocol::ProtocolHarness& h, vn::Rng& rng) {
  h.crash(h.random_node(rng));
  h.run_until(h.network().now());  // the crash, not its detection
}

// --- Shared per-layer metrics -------------------------------------------------

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void protocol_metrics(Report& r, const Snapshot& join, double joins,
                      const Snapshot& churn, double churn_ops,
                      const Snapshot& query, double queries,
                      const Snapshot& all, double all_ops, double wall_s) {
  r.set("protocol.msgs_per_join", ratio(join.messages(), joins), "msgs");
  r.set("protocol.msgs_per_churn_op", ratio(churn.messages(), churn_ops),
        "msgs");
  r.set("protocol.msgs_per_query", ratio(query.messages(), queries), "msgs");
  r.set("protocol.acks_per_send", ratio(all.acks, all.sends), "ratio");
  for (std::size_t k = 0; k < kKinds; ++k) {
    const auto kind = static_cast<voronet::sim::MessageKind>(k);
    r.set("protocol.bytes." +
              std::string(voronet::sim::message_kind_name(kind)),
          ratio(all.bytes[k], all_ops), "B/op");
  }
  r.set("protocol.retransmit_frac", ratio(all.retransmits, all.sends),
        "ratio");
  r.set("protocol.duplicate_frac", ratio(all.duplicates, all.delivered),
        "ratio");
  r.set("protocol.abandoned", all.abandoned, "count");
  r.set("protocol.transmissions_per_s", ratio(all.transmissions, wall_s),
        "1/s");
  r.set("protocol.query_hops", ratio(query.query_hops_sum, query.query_ops),
        "hops");
}

void geometry_metrics(Report& r, const Snapshot& join, double joins) {
  r.set("geometry.orient_per_join", ratio(join.orient, joins), "calls");
  r.set("geometry.incircle_per_join", ratio(join.incircle, joins), "calls");
  r.set("geometry.exact_frac",
        ratio(join.orient_exact + join.incircle_exact,
              join.orient + join.incircle),
        "ratio");
}

void zero_metrics(
    Report& r, const std::vector<std::pair<std::string, std::string>>& names) {
  for (const auto& [name, unit] : names) r.set(name, 0.0, unit);
}

}  // namespace perfbench
