// Shared pieces of the VoroNet benchmark: the result report, the span
// log that brackets the benchmark's calls into each layer, and the
// counter snapshots the per-layer metrics are computed from.
//
// Everything here runs on the benchmark's one thread; counters are read
// at quiescence, between the engine's runs.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "geometry/predicates.hpp"
#include "obs/trace.hpp"
#include "protocol/harness.hpp"

namespace perfbench {

using voronet::Json;

/// Steady-clock seconds since the first call in this process.
double steady_now();
/// CPU seconds of the calling thread.  Single-threaded engines are timed
/// on it: a host that deschedules the thread does not bill the engine.
double cpu_now();

/// The clock every measured interval is read on: CPU seconds of the
/// calling thread, scaled to the reference host's speed.
///
/// A shared host runs the same code 20-50 % slower from one second to
/// the next, as its neighbours come and go.  So about every 5 ms of CPU
/// time a call first times a fixed calibration kernel (0.15 ms of
/// integer work on a table in the first-level cache; none
/// of the program's code), and CPU time since the previous call is
/// scaled by (nominal time / median of the kernel's last three timings)
/// ^ 1.5: the engine, whose data sits in the shared last-level cache,
/// slows more than the kernel.  The kernel's own time is not on the
/// clock, so a call may sit anywhere, also inside a timed interval.  A
/// change to the program moves the readings as before; a change in the
/// host's speed mostly does not.
double work_now();
/// Mean factor work_now() has applied so far: the host's speed relative
/// to the reference (1 = as fast; below 1 = slower, readings scaled down).
double host_speed();

/// Nearest-rank percentile of an ascending vector (0 when empty).
double percentile(const std::vector<double>& sorted, double p);
double median(std::vector<double> values);
/// VmHWM of this process in MiB; 0 when unreadable.
double peak_rss_mb();

/// Metrics, operation accounting and the correctness verdict of one run.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// `n` operations attempted, of which `failed` failed.
  void ops(std::uint64_t n, std::uint64_t failed = 0);
  /// A wrong answer: the run is incorrect, whatever else it measured.
  void wrong(const std::string& what);

  [[nodiscard]] bool correct() const { return wrong_.empty(); }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] Json to_json() const;

 private:
  struct Value {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  std::vector<std::string> wrong_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Spans around the benchmark's own calls into each layer, kept in an
/// obs::Tracer stamped with steady-clock seconds and written out at the
/// end.  Disabled (every call a no-op) on untraced runs.
class SpanLog {
 public:
  explicit SpanLog(bool on) { tracer_.enable(on); }

  [[nodiscard]] bool on() const { return tracer_.enabled(); }
  voronet::obs::SpanId begin(std::string_view name,
                             voronet::obs::SpanId parent = voronet::obs::kNoSpan);
  void end(voronet::obs::SpanId id);
  /// Attach a counter read at a span boundary.
  void count(voronet::obs::SpanId id, std::string_view key, std::uint64_t v);
  [[nodiscard]] std::size_t size() const { return tracer_.records().size(); }
  void write(const std::string& path) const;

 private:
  voronet::obs::Tracer tracer_;
};

/// RAII span: opened at construction, closed at scope exit.
class Span {
 public:
  Span(SpanLog& log, std::string_view name,
       voronet::obs::SpanId parent = voronet::obs::kNoSpan)
      : log_(log), id_(log.begin(name, parent)) {}
  ~Span() { log_.end(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] voronet::obs::SpanId id() const { return id_; }
  void count(std::string_view key, std::uint64_t v) { log_.count(id_, key, v); }

 private:
  SpanLog& log_;
  voronet::obs::SpanId id_;
};

inline constexpr std::size_t kKinds = voronet::sim::kMessageKindCount;

/// Layer counters at one quiescent instant.  Differences of two
/// snapshots are what the per-layer metrics divide.
struct Snapshot {
  std::array<double, kKinds> msgs{};
  std::array<double, kKinds> bytes{};
  double sends = 0, transmissions = 0, delivered = 0, duplicates = 0;
  double retransmits = 0, abandoned = 0, acks = 0, wire_bytes = 0;
  double orient = 0, orient_exact = 0, incircle = 0, incircle_exact = 0;
  double query_ops = 0, query_hops_sum = 0;

  [[nodiscard]] Snapshot operator-(const Snapshot& base) const;
  [[nodiscard]] double messages() const;  ///< all kinds except acks
};

Snapshot snapshot(const voronet::protocol::ProtocolHarness& h);

/// The protocol.* per-layer metrics shared by every workload: per-op
/// message counts and per-kind bytes, ack and retransmission ratios.
/// `join`, `churn` and `query` are the deltas of the intervals that
/// served only joins, churn and queries; `all` spans the measured phases
/// and `wall_s` their wall time.
void protocol_metrics(Report& r, const Snapshot& join, double joins,
                      const Snapshot& churn, double churn_ops,
                      const Snapshot& query, double queries,
                      const Snapshot& all, double all_ops, double wall_s);

/// The fault `--fault views` injects: one object crashes and the caller's
/// membership check runs before its neighbours learn of it.
void crash_undrained(voronet::protocol::ProtocolHarness& h, voronet::Rng& rng);

/// The geometry.* metrics over the joins of one interval.
void geometry_metrics(Report& r, const Snapshot& join, double joins);

/// The metric names of a layer that is not on a workload's path, set
/// to 0 so every run reports the full per-layer set.
void zero_metrics(Report& r,
                  const std::vector<std::pair<std::string, std::string>>& names);

}  // namespace perfbench
