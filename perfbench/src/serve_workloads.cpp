// sim_serve_zipf_writes: the serving layer (serve::QueryServer: admission,
// region batching, result cache) on the deterministic sim backend, N =
// 2000.  Queries are Zipf(1) over a fixed 512-spec catalogue whose
// centres come from a 4-cluster mixture, so repeats can hit the cache and
// near misses can share a covering flood, while joins and voluntary
// leaves at 10/s each keep N steady and bump the topology version.  The
// writes stop before each phase ends, so a graded tail exists.
//
// Seven set-ups: A serves the lo and hi phases, then runs a churn probe;
// B runs the knee search; C runs a second churn probe; four more are
// only timed.  join_rate and churn_rate are the medians over both
// probes' rounds, setup_s the median of the seven set-ups.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <unordered_set>

#include "layers.hpp"
#include "loadgen.hpp"
#include "protocol/harness.hpp"
#include "serve/query_server.hpp"
#include "voronet/queries.hpp"
#include "workload/alias_sampler.hpp"
#include "workload/distributions.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace vn = voronet;
using vn::protocol::NodeId;
using vn::protocol::ProtocolHarness;
using vn::serve::QueryServer;

void serve_phase_metrics(Report& r, const PhaseResult& lo,
                         const PhaseResult& hi, const KneeResult& knee) {
  for (const PhaseResult* p : {&lo, &hi}) {
    std::fprintf(stderr,
                 "phase %s @%g/s: %zu offered, %zu answered, %zu rejected, "
                 "%zu unanswered, %zu engine runs, p50 %.3f ms, p99 %.3f ms, "
                 "drained %s\n",
                 p == &lo ? "lo" : "hi", p->rate, p->offered, p->answered,
                 p->rejected, p->unanswered, p->runs, p->p50(), p->p99(),
                 p->drained ? "yes" : "no");
  }
  std::fprintf(stderr, "knee trail:");
  for (const auto& [rate, pass] : knee.trail) {
    std::fprintf(stderr, " %.1f:%s", rate, pass ? "pass" : "fail");
  }
  std::fprintf(stderr, " -> %.1f/s\n", knee.knee);
  r.set("lo.p50_ms", lo.p50(), "ms");
  r.set("lo.p99_ms", lo.p99(), "ms");
  r.set("hi.p50_ms", hi.p50(), "ms");
  r.set("hi.p99_ms", hi.p99(), "ms");
  r.set("knee_qps", knee.knee, "1/s");
  r.set("loadgen.samples",
        static_cast<double>(lo.latency_ms.size() + hi.latency_ms.size()),
        "count");
  r.set("protocol.drain_ms.lo", lo.drain_ms, "ms");
  r.set("protocol.drain_ms.hi", hi.drain_ms, "ms");
}

namespace {

constexpr double kRadius = 0.05;     ///< ~16 sites at N = 2000
constexpr double kRangeLength = 0.1;  ///< segment length, any direction
constexpr double kRangeTol = 0.02;
constexpr double kRangeShare = 0.25;
/// The catalogue is part of the workload, not of the seed: every seed
/// serves the same 512 specs with the same popularity.
constexpr std::uint64_t kCatalogueSeed = 0xca7a1095eULL;

struct ServeSizes {
  std::size_t objects = 2000;
  std::size_t catalogue = 512;
  double write_rate = 10.0;       ///< joins/s, and as many leaves/s
  double write_share = 0.75;      ///< writes stop after this share of a phase
  std::size_t probe_rounds = 120;  ///< churn probe rounds
  std::size_t probe_departures = 50;  ///< per round; as many rejoins
  /// The lo and hi phases run as this many alternating segments, spread
  /// between the knee probes (see run_sim_serve_zipf_writes).
  std::size_t segments = 6;
  ServePlan plan;
};

ServeSizes serve_sizes(const Options& opt) {
  ServeSizes s;
  // About 1/5 and 1/3 of the knee this workload reads on the reference
  // host (~2400 qps).
  s.plan.lo_rate = 500.0;
  s.plan.hi_rate = 870.0;
  // Queries cost ~0.3 ms here: long phases and probes are cheap, and
  // spread over seconds of the host's time they give a steady tail.  The
  // tail is the queries that wait behind a write, a few per window, so
  // it takes twenty windows to read steadily.
  s.plan.phase_queries = 20000;
  s.plan.probe_seconds = 5.0;
  if (opt.small) {
    s.objects = 300;
    s.catalogue = 64;
    s.probe_rounds = 1;
    s.probe_departures = 20;
    s.plan.phase_queries = 100;
    s.plan.probe_min = 50;
    s.plan.knee_max_probes = 3;
    s.segments = 2;
  }
  return s;
}

Query uniform_query(vn::Rng& rng) {
  Query q;
  q.a = {rng.uniform(), rng.uniform()};
  q.range = rng.chance(kRangeShare);
  if (q.range) {
    const double angle = rng.uniform(0.0, 6.283185307179586);
    q.b = {q.a.x + kRangeLength * std::cos(angle),
           q.a.y + kRangeLength * std::sin(angle)};
    q.tol = kRangeTol;
  } else {
    q.b = q.a;
    q.tol = kRadius;
  }
  return q;
}

/// A fixed catalogue with centres from a 4-cluster mixture, drawn with
/// Zipf(1) popularity: repeats hit the cache, near misses batch.
class Catalogue {
 public:
  explicit Catalogue(std::size_t size) {
    vn::Rng rng(kCatalogueSeed);
    const vn::Vec2 centres[4] = {{0.3, 0.3}, {0.7, 0.3}, {0.3, 0.7}, {0.7, 0.7}};
    std::vector<double> weights(size);
    for (std::size_t k = 0; k < size; ++k) {
      const vn::Vec2 c = centres[rng.index(4)];
      Query q = uniform_query(rng);
      const vn::Vec2 shift{std::clamp(c.x + 0.05 * gaussian(rng), 0.0, 1.0) - q.a.x,
                           std::clamp(c.y + 0.05 * gaussian(rng), 0.0, 1.0) - q.a.y};
      q.a = {q.a.x + shift.x, q.a.y + shift.y};
      q.b = {q.b.x + shift.x, q.b.y + shift.y};
      specs_.push_back(q);
      weights[k] = 1.0 / static_cast<double>(k + 1);
    }
    sampler_ = std::make_unique<vn::workload::AliasSampler>(weights);
  }
  std::vector<Query> draw(std::size_t n, vn::Rng& rng) const {
    std::vector<Query> qs(n);
    for (Query& q : qs) q = specs_[sampler_->sample(rng)];
    return qs;
  }

 private:
  static double gaussian(vn::Rng& rng) {
    const double u1 = rng.uniform(1e-12, 1.0), u2 = rng.uniform();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  }
  std::vector<Query> specs_;
  std::unique_ptr<vn::workload::AliasSampler> sampler_;
};

/// Geometry-only predicate counters (the process-global part of a
/// Snapshot), for intervals that start before a harness exists.
Snapshot predicates_only() {
  Snapshot s;
  const vn::geo::PredicateStats p = vn::geo::predicate_stats();
  s.orient = static_cast<double>(p.orient_calls);
  s.orient_exact = static_cast<double>(p.orient_exact);
  s.incircle = static_cast<double>(p.incircle_calls);
  s.incircle_exact = static_cast<double>(p.incircle_exact);
  return s;
}

/// Exactness of one answered query against a roster scan through the
/// one site predicate (the grading serve::run_open_loop does).
bool exact(const ProtocolHarness& h, const vn::protocol::QuerySpec& spec,
           const std::vector<NodeId>& matches) {
  std::vector<NodeId> truth;
  for (const NodeId n : h.roster()) {
    if (vn::site_within_tolerance(spec.a, spec.b, h.node(n).position(),
                                  spec.tol)) {
      truth.push_back(n);
    }
  }
  std::sort(truth.begin(), truth.end());
  return truth == matches;
}

/// Crash + leave departures drained, then rejoins back to N drained,
/// `rounds` times, each round timed on the thread's CPU clock; N must
/// come back and the views must converge after every round.
struct ChurnProbe {
  std::vector<double> join_rates;   ///< per round: rejoins per second
  std::vector<double> churn_rates;  ///< per round: departures + rejoins per second
  std::size_t ops = 0, failed = 0;
  Snapshot before, after;
};

ChurnProbe churn_probe(ProtocolHarness& h, std::size_t rounds,
                       std::size_t departures, std::uint64_t seed) {
  ChurnProbe p;
  vn::Rng rng(seed);
  vn::workload::PointGenerator gen(vn::workload::DistributionConfig::uniform());
  const std::size_t n = h.node_count();
  h.run_to_idle();
  p.before = snapshot(h);
  for (std::size_t round = 0; round < rounds; ++round) {
    const double t0 = work_now();
    std::unordered_set<NodeId> victims;
    while (victims.size() < departures) victims.insert(h.random_node(rng));
    bool crash = true;
    for (const NodeId x : victims) {
      if (crash) {
        h.crash(x);
      } else {
        h.leave(x);
      }
      crash = !crash;
    }
    h.run_to_idle();
    const double t1 = work_now();
    std::size_t joins = 0;
    while (h.node_count() + h.pending_joins() < n) {
      h.join(gen.next(rng));
      ++joins;
    }
    const auto run = h.run_to_idle();
    const double t2 = work_now();
    p.join_rates.push_back(static_cast<double>(joins) / (t2 - t1));
    p.churn_rates.push_back(static_cast<double>(victims.size() + joins) / (t2 - t0));
    p.ops += victims.size() + joins;
    if (run.budget_exhausted || h.node_count() != n ||
        !h.verify_views().converged()) {
      p.failed += victims.size() + joins;
    }
  }
  p.after = snapshot(h);
  return p;
}

/// join_rate and churn_rate: medians over the rounds of every probe.
void churn_metrics(Report& r, const std::vector<ChurnProbe>& probes) {
  std::vector<double> joins, churn;
  for (const ChurnProbe& p : probes) {
    joins.insert(joins.end(), p.join_rates.begin(), p.join_rates.end());
    churn.insert(churn.end(), p.churn_rates.begin(), p.churn_rates.end());
    r.ops(p.ops, p.failed);
    if (p.failed > 0) r.wrong("churn probe: N not restored or views diverged");
  }
  r.set("join_rate", median(joins), "1/s");
  r.set("churn_rate", median(churn), "1/s");
}

vn::protocol::HarnessConfig sim_serve_config(std::uint64_t seed) {
  vn::protocol::HarnessConfig cfg;
  cfg.seed = seed;
  cfg.network.latency = vn::protocol::LatencyModel::uniform(0.0005, 0.002);
  cfg.network.seed = seed ^ 0x77aabULL;
  cfg.failure_detect_delay = 0.05;
  return cfg;
}

/// One serving set-up: the harness populated to N plus the front-end
/// (declared after the harness, so it unhooks first on destruction).
struct Shard {
  std::unique_ptr<ProtocolHarness> harness;
  std::unique_ptr<QueryServer> server;
  Snapshot base, populated;  ///< around the population
  double setup_s = 0.0;
};

std::unique_ptr<Shard> setup_shard(std::uint64_t seed, const ServeSizes& sz,
                                   SpanLog& log) {
  const std::size_t objects = sz.objects;
  Span span(log, "setup");
  auto s = std::make_unique<Shard>();
  const double t0 = work_now();
  s->base = predicates_only();
  s->harness = std::make_unique<ProtocolHarness>(sim_serve_config(seed));
  vn::workload::PointGenerator gen(vn::workload::DistributionConfig::uniform());
  vn::Rng rng(seed ^ 0x9e37ULL);
  for (std::size_t i = 0; i < objects; ++i) {
    s->harness->join_after(0.0001 * static_cast<double>(i), gen.next(rng));
  }
  {
    Span drain(log, "setup.run_to_idle", span.id());
    const auto run = s->harness->run_to_idle();
    if (run.budget_exhausted || s->harness->node_count() != objects) {
      throw std::runtime_error("serving set-up: population did not quiesce");
    }
  }
  s->populated = snapshot(*s->harness);
  s->server = std::make_unique<QueryServer>(*s->harness, vn::serve::ServeConfig{});
  s->setup_s = work_now() - t0;
  return s;
}

/// Phase target: the front-end on the sim backend.  Answers are graded
/// after each engine run, on the topology they were served on; then the
/// shape of the run's floods is read and the answered tickets dropped, so
/// a long phase does not accumulate them.
class SimServeTarget final : public Target {
 public:
  SimServeTarget(ProtocolHarness& h, QueryServer& s, SpanLog& log)
      : Target(log), h_(h), s_(s) {}

  void begin_phase(std::size_t n) override {
    outcomes_.assign(n, Outcome{});
    ids_.assign(n, 0);
    graded_ = inexact_ = 0;
  }
  void submit(std::size_t i, const Query& q) override {
    Span span(log_, "serve.submit", parent_);
    const double t0 = work_now();
    ids_[i] = q.range ? s_.submit_range(q.a, q.b, q.tol) : s_.submit_radius(q.a, q.tol);
    submit_us_.push_back((work_now() - t0) * 1e6);
    in_service_peak_ = std::max(in_service_peak_, s_.in_service());
    pending_.push_back(i);
  }
  void run() override {
    Span span(log_, "protocol.run_to_idle", parent_);
    h_.run_to_idle();
  }
  void grade() override {
    for (const std::size_t i : pending_) {
      const QueryServer::Ticket& t = s_.ticket(ids_[i]);
      Outcome& o = outcomes_[i];
      o.rejected = t.rejected;
      o.answered = t.done && !t.rejected;
      o.server_s = o.answered ? t.latency() : -1.0;
      if (o.answered) {
        ++graded_;
        if (!exact(h_, t.spec, t.matches)) ++inexact_;
      }
    }
    pending_.clear();
    // Flood ids are dense from 1 and the floods of the run are done.
    for (;; ++next_flood_) {
      try {
        const auto& rec = h_.query_record(next_flood_);
        if (!rec.done) break;
        hops_ += static_cast<double>(rec.route_hops);
        cells_ += static_cast<double>(rec.owners.size());
        floods_ += 1.0;
      } catch (const std::out_of_range&) {
        break;
      }
    }
    s_.drop_completed_tickets();
  }
  [[nodiscard]] const Outcome& outcome(std::size_t i) const override {
    return outcomes_[i];
  }
  [[nodiscard]] std::size_t graded() const override { return graded_; }
  [[nodiscard]] std::size_t inexact() const override { return inexact_; }
  [[nodiscard]] std::size_t in_service_peak() const { return in_service_peak_; }
  /// Mean route hops and served cells over the floods of every phase.
  [[nodiscard]] double mean_hops() const { return floods_ > 0 ? hops_ / floods_ : 0.0; }
  [[nodiscard]] double mean_cells() const { return floods_ > 0 ? cells_ / floods_ : 0.0; }
  [[nodiscard]] std::vector<double> take_submit_us() {
    return std::exchange(submit_us_, {});
  }

 private:
  ProtocolHarness& h_;
  QueryServer& s_;
  std::vector<Outcome> outcomes_;
  std::vector<QueryServer::TicketId> ids_;
  std::vector<std::size_t> pending_;  ///< submitted, not yet graded
  std::size_t graded_ = 0, inexact_ = 0, in_service_peak_ = 0;
  std::vector<double> submit_us_;
  std::uint64_t next_flood_ = 1;
  double hops_ = 0.0, cells_ = 0.0, floods_ = 0.0;
};

/// A phase with joins and voluntary leaves at `write_rate` each over the
/// first `write_share` of it; N must come back to its start value plus
/// joins minus leaves, with converged views.  Lo and hi phases must also
/// drain and answer every query exactly; an overload probe may shed.
PhaseResult sim_serve_phase(ProtocolHarness& h, SimServeTarget& target,
                            const std::vector<Query>& qs, double rate,
                            const ServeSizes& sz, vn::Rng& rng,
                            std::uint64_t seed, Report& r, SpanLog& log,
                            const char* name, bool overload_probe,
                            bool inject_fault, std::size_t& writes) {
  const std::size_t n0 = h.node_count();
  vn::Rng wrng(seed);
  vn::workload::PointGenerator gen(vn::workload::DistributionConfig::uniform());
  const double span_s = sz.write_share * static_cast<double>(qs.size()) / rate;
  const auto count = static_cast<std::size_t>(std::lround(sz.write_rate * span_s));
  std::vector<ModelledWrite> ws;
  std::size_t joins = 0, leaves = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const vn::Vec2 p = gen.next(wrng);
    ws.push_back({wrng.uniform(0.0, span_s), [&h, &joins, p] {
                    h.join(p);
                    h.run_to_idle();
                    ++joins;
                  }});
    ws.push_back({wrng.uniform(0.0, span_s), [&h, &leaves, &wrng] {
                    h.leave(h.random_node(wrng));
                    h.run_to_idle();
                    ++leaves;
                  }});
  }
  std::sort(ws.begin(), ws.end(),
            [](const ModelledWrite& a, const ModelledWrite& b) { return a.at < b.at; });
  PhaseResult p = run_phase(target, qs, rate, rng, sz.plan.drain_bound_s, log, name, ws);
  h.run_to_idle();
  writes += joins + leaves;
  if (inject_fault) crash_undrained(h, wrng);
  const bool ok = h.node_count() == n0 + joins - leaves && h.verify_views().converged();
  r.ops(joins + leaves, ok ? 0 : joins + leaves);
  if (!ok) r.wrong(std::string(name) + ": writes did not restore N and converge");
  if (overload_probe) {
    r.ops(p.offered, p.unanswered + p.inexact);
  } else {
    r.ops(p.offered, p.failed());
    if (!p.drained) r.wrong(std::string(name) + ": did not drain");
  }
  if (p.inexact > 0) r.wrong(std::string(name) + ": inexact answers");
  return p;
}

void serve_layer_metrics(Report& r, const PhaseResult& lo,
                         const PhaseResult& hi, const vn::serve::ServeStats& st) {
  std::vector<double> server;
  server.insert(server.end(), lo.server_ms.begin(), lo.server_ms.end());
  server.insert(server.end(), hi.server_ms.begin(), hi.server_ms.end());
  std::sort(server.begin(), server.end());
  const auto frac = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const auto submitted = static_cast<double>(st.submitted);
  r.set("serve.server_p50_ms", percentile(server, 0.5), "ms");
  r.set("serve.server_p99_ms", percentile(server, 0.99), "ms");
  r.set("serve.cache_hit_frac", frac(static_cast<double>(st.cache_hits), submitted),
        "ratio");
  r.set("serve.mean_batch",
        frac(static_cast<double>(st.batch_members), static_cast<double>(st.batches)),
        "queries");
  r.set("serve.reject_frac", frac(static_cast<double>(st.rejected), submitted), "ratio");
  r.set("serve.graded_frac",
        frac(static_cast<double>(lo.graded + hi.graded),
             static_cast<double>(lo.answered + hi.answered)),
        "ratio");
}

vn::serve::ServeStats operator-(const vn::serve::ServeStats& a,
                                const vn::serve::ServeStats& b) {
  vn::serve::ServeStats d;
  d.submitted = a.submitted - b.submitted;
  d.admitted = a.admitted - b.admitted;
  d.rejected = a.rejected - b.rejected;
  d.cache_hits = a.cache_hits - b.cache_hits;
  d.completed = a.completed - b.completed;
  d.batches = a.batches - b.batches;
  d.batch_members = a.batch_members - b.batch_members;
  d.cache_entries_dropped = a.cache_entries_dropped - b.cache_entries_dropped;
  return d;
}

}  // namespace

void run_sim_serve_zipf_writes(const Options& opt, Report& r, SpanLog& log) {
  const ServeSizes sz = serve_sizes(opt);
  const ServePlan& plan = sz.plan;
  vn::Rng rng(opt.seed);
  const Catalogue catalogue(sz.catalogue);
  std::vector<double> setups;
  std::vector<ChurnProbe> probes;

  // --- Shards A (lo and hi phases, then a churn probe) and B (the knee
  // search, writes running as in every phase).  The lo and hi phases run
  // as sz.segments alternating pairs of segments: one pair before the
  // search and one before each of its probes while any remain.  Their
  // p99 windows then span most of the run, so a stretch of seconds in
  // which the host runs slow sets only a few of them.
  auto a = setup_shard(opt.seed, sz, log);
  setups.push_back(a->setup_s);
  auto b = setup_shard(opt.seed ^ 0xbULL, sz, log);
  setups.push_back(b->setup_s);
  ProtocolHarness& h = *a->harness;
  QueryServer& server = *a->server;
  const Snapshot s_start = snapshot(h);
  const vn::serve::ServeStats st0 = server.stats();
  const vn::serve::ServeStats sb0 = b->server->stats();
  PhaseResult lo, hi;
  KneeResult knee;
  std::size_t writes = 0, in_service_peak = 0;
  std::vector<double> submit_us;
  double hops = 0.0, cells = 0.0;
  {
    SimServeTarget target(h, server, log);
    std::size_t done = 0;
    const auto segment_pair = [&] {
      for (const bool high : {false, true}) {
        const double rate = high ? plan.hi_rate : plan.lo_rate;
        PhaseResult p = sim_serve_phase(
            h, target, catalogue.draw(phase_queries(plan, rate, opt) / sz.segments, rng),
            rate, sz, rng, opt.seed ^ (high ? 0x2022ULL : 0x1011ULL) ^ (done << 20), r,
            log, high ? "hi" : "lo", false,
            !high && done == 0 && opt.fault == "views", writes);
        PhaseResult& phase = high ? hi : lo;
        if (done == 0) {
          phase = std::move(p);
        } else {
          phase.merge(p);
        }
      }
      ++done;
    };
    segment_pair();
    SimServeTarget knee_target(*b->harness, *b->server, log);
    std::uint64_t probe_seed = opt.seed ^ 0x3033ULL;
    std::size_t probe_writes = 0;
    knee = search_knee(
        plan.hi_rate, Probe{hi.passes(plan.p99_limit_ms), false, hi.offered_rate},
        plan.knee_step, plan.knee_refine, plan.knee_max_probes, plan.lo_rate / 2.0,
        [&](double rate) {
          if (done < sz.segments) segment_pair();
          const PhaseResult p = sim_serve_phase(
              *b->harness, knee_target, catalogue.draw(probe_queries(plan, rate, opt), rng),
              rate, sz, rng, ++probe_seed, r, log, "knee.probe", true, false,
              probe_writes);
          return Probe{p.passes(plan.p99_limit_ms), !p.drained, p.offered_rate};
        });
    while (done < sz.segments) segment_pair();
    in_service_peak = target.in_service_peak();
    submit_us = target.take_submit_us();
    hops = target.mean_hops();
    cells = target.mean_cells();
  }
  serve_phase_metrics(r, lo, hi, knee);
  // The probes around the knee are where backlogs fill the region
  // buckets and reach the admission bound.
  const vn::serve::ServeStats sb = b->server->stats() - sb0;
  r.set("serve.knee_mean_batch",
        sb.batches > 0 ? static_cast<double>(sb.batch_members) /
                             static_cast<double>(sb.batches)
                       : 0.0,
        "queries");
  r.set("serve.knee_reject_frac",
        sb.submitted > 0 ? static_cast<double>(sb.rejected) /
                               static_cast<double>(sb.submitted)
                         : 0.0,
        "ratio");
  b.reset();
  const double phases_s = lo.service_s + hi.service_s;
  const Snapshot s_phases = snapshot(h);
  const vn::serve::ServeStats st = server.stats() - st0;
  // Queries per CPU-second of the engine, median over both phases' chunks.
  std::vector<double> chunk_rates = lo.chunk_rates;
  chunk_rates.insert(chunk_rates.end(), hi.chunk_rates.begin(), hi.chunk_rates.end());
  r.set("sim_query_rate", median(chunk_rates), "1/s");
  r.set("peak_rss_mb", peak_rss_mb(), "MB");

  const Snapshot all = s_phases - s_start;
  const double queries = static_cast<double>(lo.offered + hi.offered);
  const double ops = queries + static_cast<double>(writes);
  r.set("wire_bytes_per_op", all.wire_bytes / ops, "B/op");
  geometry_metrics(r, a->populated - a->base, static_cast<double>(sz.objects));
  {
    Span span(log, "churn_probe");
    probes.push_back(churn_probe(h, sz.probe_rounds, sz.probe_departures,
                                 opt.seed ^ 0xc4a5ULL));
  }
  const ChurnProbe& pa = probes.back();
  protocol_metrics(r, a->populated - a->base, static_cast<double>(sz.objects),
                   pa.after - pa.before, static_cast<double>(pa.ops), all,
                   queries, all, ops, phases_s);
  r.set("protocol.query_hops", hops, "hops");
  r.set("protocol.query_cells", cells, "cells");
  const auto mem = h.memory_breakdown();
  const double nodes = static_cast<double>(h.node_count());
  r.set("protocol.bytes_per_node", static_cast<double>(mem.total()) / nodes, "B");
  r.set("protocol.view_bytes_per_node", static_cast<double>(mem.view_bytes) / nodes,
        "B");
  r.set("net.bytes_per_frame", all.wire_bytes / all.transmissions, "B");
  serve_layer_metrics(r, lo, hi, st);
  r.set("serve.in_service_peak", static_cast<double>(in_service_peak), "queries");
  r.set("serve.submit_us", median(submit_us), "us");
  zero_metrics(r, {{"sim.events_per_join", "events"},
                   {"sim.events_per_s", "1/s"},
                   {"sim.peak_pending", "events"},
                   {"sim.queue_ns_per_event", "ns"},
                   {"voronet.insert_us", "us"},
                   {"voronet.remove_us", "us"},
                   {"protocol.join_msg_us", "us"}});
  if (opt.traced) {
    const CodecCost codec = time_codec(all, log);
    r.set("net.encode_ns", codec.encode_ns, "ns");
    r.set("net.decode_ns", codec.decode_ns, "ns");
  }
  a.reset();

  // --- Shard C: set-up and churn probe only.
  {
    const auto c = setup_shard(opt.seed ^ 0xcULL, sz, log);
    setups.push_back(c->setup_s);
    Span span(log, "churn_probe");
    probes.push_back(churn_probe(*c->harness, sz.probe_rounds, sz.probe_departures,
                                 opt.seed ^ 0xcc4aULL));
  }
  // --- Four more set-ups, only timed: setup_s is the median of seven.
  for (std::uint64_t i = 0; i < 4; ++i) {
    setups.push_back(setup_shard(opt.seed ^ (0xd0ULL + i), sz, log)->setup_s);
  }
  churn_metrics(r, probes);
  r.set("setup_s", median(setups), "s");
}

}  // namespace perfbench
