// sim_grow_churn: the simulation-at-scale path on the deterministic sim
// backend, one thread.  Growth to N through message-level joins, churn
// rounds (crashes, voluntary leaves, rejoins back to N) drained to
// convergence, a burst of ~20-cell radius queries graded against the
// ground truth, then the same queries as modelled open-loop phases and a
// knee search (loadgen.hpp), served by the engine on this thread.  Everything is timed
// on the thread's CPU clock: the engine is single-threaded, and a host
// that deschedules it says nothing about the engine.
#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "layers.hpp"
#include "loadgen.hpp"
#include "protocol/query_harness.hpp"
#include "workloads.hpp"
#include "workload/distributions.hpp"

namespace perfbench {

namespace vn = voronet;
using vn::protocol::NodeId;
using vn::protocol::ProtocolHarness;
using vn::protocol::QueryHarness;

namespace {

/// Large enough for the growth leg; run_to_idle's default is sized for
/// tests.
constexpr std::size_t kEventBudget = 2'000'000'000ULL;
/// Churn rounds per verify_views() check (and the last round).
constexpr std::size_t kVerifyEvery = 10;

struct SimSizes {
  std::size_t objects = 50'000;
  /// Many short rounds, spanning seconds of the host's time: churn_rate
  /// is their median.
  std::size_t churn_rounds = 100;
  std::size_t churn_per_round = 25;  ///< departures; as many rejoins
  std::size_t burst = 4000;
  std::size_t burst_chunks = 20;     ///< drained one after another
  ServePlan plan;
};

SimSizes sim_sizes(const Options& opt) {
  SimSizes s;
  // About 1/3 and 1/2 of the knee (~1200 qps): at 2/3 the modelled queue
  // turns a 10 % drift in the host's speed into 40 % on hi.p50.
  s.plan.lo_rate = 340.0;
  s.plan.hi_rate = 640.0;
  // 5-8 s of engine time per phase: ten p99 windows, spanning more
  // than a passing stall of the host.
  s.plan.phase_queries = 10000;
  if (opt.small) {
    s.objects = 2000;
    s.churn_rounds = 2;
    s.churn_per_round = 20;
    s.burst = 100;
    s.burst_chunks = 2;
    s.plan.phase_queries = 100;
    s.plan.probe_min = 50;
    s.plan.knee_max_probes = 3;
  }
  return s;
}

/// Phase target: raw protocol queries, answered by the engine's floods
/// and graded through QueryHarness::collect.
class SimTarget final : public Target {
 public:
  SimTarget(QueryHarness& qh, vn::Rng& rng, SpanLog& log)
      : Target(log), qh_(qh), rng_(rng) {
    qh_.harness().set_query_completion_handler([this](std::uint64_t id) {
      const auto it = index_.find(id);
      if (it != index_.end()) outcomes_[it->second].answered = true;
    });
  }
  ~SimTarget() override { qh_.harness().set_query_completion_handler(nullptr); }

  void begin_phase(std::size_t n) override {
    outcomes_.assign(n, Outcome{});
    ids_.assign(n, 0);
    index_.clear();
    graded_ = inexact_ = 0;
  }
  void submit(std::size_t i, const Query& q) override {
    Span span(log_, "protocol.issue", parent_);
    const NodeId from = qh_.harness().random_node(rng_);
    const std::uint64_t id = q.range ? qh_.issue_range(from, q.a, q.b, q.tol)
                                     : qh_.issue_radius(from, q.a, q.tol);
    ids_[i] = id;
    index_[id] = i;
    pending_.push_back(i);
  }
  void run() override {
    Span span(log_, "protocol.run_to_idle", parent_);
    if (qh_.harness().run_to_idle(kEventBudget).budget_exhausted) drained_ = false;
  }
  void grade() override {
    for (const std::size_t i : pending_) {
      if (!outcomes_[i].answered) continue;
      ++graded_;
      if (!qh_.collect(ids_[i]).identical()) ++inexact_;
    }
    pending_.clear();
    qh_.harness().drop_completed_queries();
  }
  [[nodiscard]] const Outcome& outcome(std::size_t i) const override {
    return outcomes_[i];
  }
  [[nodiscard]] std::size_t graded() const override { return graded_; }
  [[nodiscard]] std::size_t inexact() const override { return inexact_; }
  [[nodiscard]] bool engine_drained() const { return drained_; }

 private:
  QueryHarness& qh_;
  vn::Rng& rng_;
  std::vector<Outcome> outcomes_;
  std::vector<std::uint64_t> ids_;
  std::vector<std::size_t> pending_;  ///< submitted, not yet graded
  std::unordered_map<std::uint64_t, std::size_t> index_;
  std::size_t graded_ = 0, inexact_ = 0;
  bool drained_ = true;
};

std::vector<Query> radius_queries(std::size_t n, double radius, vn::Rng& rng) {
  std::vector<Query> qs(n);
  for (Query& q : qs) {
    q.a = {rng.uniform(), rng.uniform()};
    q.b = q.a;
    q.tol = radius;
  }
  return qs;
}

}  // namespace

void run_sim_grow_churn(const Options& opt, Report& r, SpanLog& log) {
  const SimSizes sz = sim_sizes(opt);
  const std::size_t n = sz.objects;
  vn::protocol::HarnessConfig cfg;
  cfg.overlay.n_max = n * 4;
  cfg.overlay.seed = opt.seed;
  cfg.network.seed = opt.seed ^ 0xfeedULL;
  cfg.seed = opt.seed ^ 0x907aULL;

  // --- Set-up, nine times: harness construction and input generation
  // take ~15 ms, and setup_s is their median.
  std::unique_ptr<QueryHarness> qh;
  std::vector<vn::Vec2> positions;
  std::vector<double> setups;
  for (int i = 0; i < 9; ++i) {
    Span span(log, "setup");
    const double t0 = work_now();
    qh.reset();
    qh = std::make_unique<QueryHarness>(cfg);
    vn::Rng prng(opt.seed);
    vn::workload::PointGenerator gen(vn::workload::DistributionConfig::uniform());
    positions = gen.generate(n + sz.churn_rounds * sz.churn_per_round, prng);
    setups.push_back(work_now() - t0);
  }
  r.set("setup_s", median(setups), "s");
  ProtocolHarness& h = qh->harness();
  vn::Rng rng(opt.seed ^ 0x5151ULL);
  std::vector<MembershipOp> membership;
  membership.reserve(positions.size() + 2 * sz.churn_rounds * sz.churn_per_round);

  // --- Growth to N: message-level joins, drained in run_until slices.
  const Snapshot s0 = snapshot(h);
  const std::size_t ev0 = h.queue().processed();
  std::size_t peak_pending = 0;
  double grow_s = 0.0;
  {
    Span span(log, "grow");
    const double t0 = work_now();
    for (std::size_t i = 0; i < n; ++i) {
      h.join_after(0.01 * static_cast<double>(i), positions[i]);
      membership.push_back({MembershipOp::kJoin, positions[i]});
    }
    // Slices of 100 joins, about 20 ms each: the clock reads the
    // host's speed between them (work_now()), so it tracks the host over
    // the whole growth.
    const double slice = 0.01 * static_cast<double>(std::max<std::size_t>(n / 500, 1));
    while (!h.queue().idle()) {
      peak_pending = std::max(peak_pending, h.queue().pending());
      Span s(log, "grow.run_until", span.id());
      h.run_until(h.network().now() + slice);
      work_now();
      s.count("processed", h.queue().processed());
      s.count("nodes", h.node_count());
    }
    grow_s = work_now() - t0;
  }
  const std::size_t grow_events = h.queue().processed() - ev0;
  const Snapshot s1 = snapshot(h);
  r.ops(n, n - std::min(n, h.node_count()));
  if (h.node_count() != n) r.wrong("growth fell short of N");
  r.set("join_rate", static_cast<double>(n) / grow_s, "1/s");

  // --- Churn rounds: crashes + leaves, drained; rejoins back to N, drained.
  double churn_s = 0.0;
  std::vector<double> round_rates;
  std::size_t churn_ops = 0, next_pos = n;
  std::size_t unconverged = 0;
  {
    Span span(log, "churn");
    for (std::size_t round = 0; round < sz.churn_rounds; ++round) {
      const double t0 = work_now();
      std::unordered_set<NodeId> victims;
      while (victims.size() < sz.churn_per_round) {
        victims.insert(h.random_node(rng));
      }
      bool crash = true;
      for (const NodeId x : victims) {
        const vn::Vec2 p = h.node(x).position();
        if (crash) {
          h.crash(x);
        } else {
          h.leave(x);
        }
        membership.push_back(
            {crash ? MembershipOp::kCrash : MembershipOp::kLeave, p});
        crash = !crash;
      }
      {
        Span s(log, "churn.run_to_idle", span.id());
        h.run_to_idle(kEventBudget);
      }
      std::size_t joins = 0;
      while (h.node_count() + h.pending_joins() < n &&
             next_pos < positions.size()) {
        h.join_after(0.01 * static_cast<double>(joins++), positions[next_pos]);
        membership.push_back({MembershipOp::kJoin, positions[next_pos++]});
      }
      {
        Span s(log, "churn.run_to_idle", span.id());
        h.run_to_idle(kEventBudget);
        s.count("nodes", h.node_count());
      }
      const double round_s = work_now() - t0;
      churn_s += round_s;
      churn_ops += victims.size() + joins;
      round_rates.push_back(static_cast<double>(victims.size() + joins) / round_s);
      if (round == 0 && opt.fault == "views") crash_undrained(h, rng);
      // verify_views() walks the whole overlay and leaves the next round
      // to start on cold caches, which made the rounds' speed depend on
      // how much of the shared cache the host's neighbours took.  So N
      // is checked after every round, the views every kVerifyEvery
      // rounds and after the last.
      const bool check_views =
          (round + 1) % kVerifyEvery == 0 || round + 1 == sz.churn_rounds;
      const bool ok =
          h.node_count() == n && (!check_views || h.verify_views().converged());
      if (!ok) ++unconverged;
      r.ops(victims.size() + joins, ok ? 0 : victims.size() + joins);
    }
  }
  if (unconverged > 0) r.wrong("churn round did not restore N and converge");
  const Snapshot s2 = snapshot(h);
  r.set("churn_rate", median(round_rates), "1/s");

  // --- Query burst: ~20-cell radius queries, drained, graded.
  const double radius =
      std::sqrt(20.0 / (3.141592653589793 * static_cast<double>(n)));
  vn::Rng qrng(opt.seed ^ 0x9b1dULL);
  double hops = 0.0, cells = 0.0, burst_s = 0.0;
  {
    const std::vector<Query> qs = radius_queries(sz.burst, radius, qrng);
    std::vector<std::uint64_t> ids;
    const std::size_t per_chunk = sz.burst / sz.burst_chunks;
    for (std::size_t c = 0; c < sz.burst_chunks; ++c) {
      Span span(log, "query_burst");
      const double t0 = work_now();
      for (std::size_t i = 0; i < per_chunk; ++i) {
        const Query& q = qs[c * per_chunk + i];
        ids.push_back(qh->issue_radius(h.random_node(rng), q.a, q.tol,
                                       0.01 * static_cast<double>(i)));
      }
      h.run_to_idle(kEventBudget);
      burst_s += work_now() - t0;
    }
    std::size_t wrong = 0;
    for (const std::uint64_t id : ids) {
      const auto d = qh->collect(id);
      if (!d.identical()) ++wrong;
      hops += static_cast<double>(d.msg.route_hops);
      cells += static_cast<double>(d.msg.owners.size());
    }
    hops /= static_cast<double>(ids.size());
    cells /= static_cast<double>(ids.size());
    h.drop_completed_queries();
    r.ops(ids.size(), wrong);
    if (wrong > 0) r.wrong("query burst: answers differ from ground truth");
    r.set("sim_query_rate", static_cast<double>(ids.size()) / burst_s, "1/s");
  }

  // --- Modelled open loop and knee, served by the engine on this thread.
  const ServePlan& plan = sz.plan;
  PhaseResult lo, hi;
  KneeResult knee;
  Snapshot s3;
  {
  SimTarget target(*qh, rng, log);
  vn::Rng lrng(opt.seed ^ 0x10adULL);
  const auto phase = [&](double rate, std::size_t count, const char* name) {
    PhaseResult p = run_phase(target, radius_queries(count, radius, qrng), rate,
                              lrng, plan.drain_bound_s, log, name);
    r.ops(p.offered, p.failed());
    if (p.inexact > 0) r.wrong(std::string(name) + ": inexact answers");
    if (!p.drained) r.wrong(std::string(name) + ": did not drain");
    return p;
  };
  lo = phase(plan.lo_rate, phase_queries(plan, plan.lo_rate, opt), "lo");
  hi = phase(plan.hi_rate, phase_queries(plan, plan.hi_rate, opt), "hi");
  // Counters and the high-water mark are read before the knee search:
  // how many probes it runs depends on the host's speed, and its
  // overload probes pile up thousands of concurrent floods.
  s3 = snapshot(h);
  r.set("peak_rss_mb", peak_rss_mb(), "MB");
  knee = search_knee(
      plan.hi_rate, Probe{hi.passes(plan.p99_limit_ms), false, hi.offered_rate},
      plan.knee_step,
      plan.knee_refine, plan.knee_max_probes, plan.lo_rate / 2.0,
      [&](double rate) {
        PhaseResult p = run_phase(
            target, radius_queries(probe_queries(plan, rate, opt), radius, qrng),
            rate, lrng, plan.drain_bound_s, log, "knee.probe");
        // Overload probes queue by design; only a wrong answer or an
        // unanswered query is a failure.
        r.ops(p.offered, p.unanswered + p.inexact);
        if (p.inexact > 0) r.wrong("knee probe: inexact answers");
        return Probe{p.passes(plan.p99_limit_ms), !p.drained, p.offered_rate};
      });
  if (!target.engine_drained()) r.wrong("open loop: engine did not quiesce");
  }
  serve_phase_metrics(r, lo, hi, knee);

  const double queries = static_cast<double>(sz.burst + lo.offered + hi.offered);
  const double ops = static_cast<double>(n + churn_ops) + queries;
  const Snapshot all = s3 - s0;
  r.set("wire_bytes_per_op", all.wire_bytes / ops, "B/op");

  // --- Per-layer counters (cheap: read at the phase boundaries above).
  geometry_metrics(r, s1 - s0, static_cast<double>(n));
  r.set("sim.events_per_join",
        static_cast<double>(grow_events) / static_cast<double>(n), "events");
  r.set("sim.events_per_s", static_cast<double>(grow_events) / grow_s, "1/s");
  r.set("sim.peak_pending", static_cast<double>(peak_pending), "events");
  protocol_metrics(r, s1 - s0, static_cast<double>(n), s2 - s1,
                   static_cast<double>(churn_ops), s3 - s2, queries, all,
                   ops, grow_s + churn_s + burst_s + lo.service_s + hi.service_s);
  r.set("protocol.query_hops", hops, "hops");
  r.set("protocol.query_cells", cells, "cells");
  const auto mem = h.memory_breakdown();
  r.set("protocol.bytes_per_node",
        static_cast<double>(mem.total()) / static_cast<double>(h.node_count()),
        "B");
  r.set("protocol.view_bytes_per_node",
        static_cast<double>(mem.view_bytes) /
            static_cast<double>(h.node_count()),
        "B");
  r.set("net.bytes_per_frame", all.wire_bytes / all.transmissions, "B");
  zero_metrics(r, {{"serve.server_p50_ms", "ms"},
                   {"serve.server_p99_ms", "ms"},
                   {"serve.cache_hit_frac", "ratio"},
                   {"serve.mean_batch", "queries"},
                   {"serve.knee_mean_batch", "queries"},
                   {"serve.knee_reject_frac", "ratio"},
                   {"serve.reject_frac", "ratio"},
                   {"serve.in_service_peak", "queries"},
                   {"serve.submit_us", "us"}});
  r.set("serve.graded_frac",
        static_cast<double>(lo.graded + hi.graded) /
            static_cast<double>(std::max<std::size_t>(lo.answered + hi.answered, 1)),
        "ratio");

  if (!opt.traced) return;
  // --- Traced-run probes: codec, event queue, ground-truth replay.
  const CodecCost codec = time_codec(all, log);
  r.set("net.encode_ns", codec.encode_ns, "ns");
  r.set("net.decode_ns", codec.decode_ns, "ns");
  r.set("sim.queue_ns_per_event", time_event_queue(peak_pending, opt.seed, log),
        "ns");
  qh.reset();  // the replay should not share the heap with a live engine
  const ReplayCost replay = replay_overlay(cfg.overlay, membership, log);
  r.set("voronet.insert_us", replay.insert_us, "us");
  r.set("voronet.remove_us", replay.remove_us, "us");
  r.set("protocol.join_msg_us",
        grow_s / static_cast<double>(n) * 1e6 - replay.insert_us, "us");
}

}  // namespace perfbench
