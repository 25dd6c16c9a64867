// Hot-path microbenchmarks: the three code paths everything else sits on.
//
//   1. bulk_insert  -- Delaunay construction throughput (points/sec) on
//      uniform-random points, plus the exact-predicate fallback rate the
//      adaptive filter stages are supposed to keep negligible;
//   2. locate       -- point-location walk lengths with and without a good
//      hint (the hint cache must make hinted walks O(1));
//   3. routing      -- greedy route throughput over a frozen overlay,
//      single-threaded and with parallel_for;
//   4. event_queue  -- sim::EventQueue events/s at 10^3..10^5 pending
//      events (10^6 under --full) in a retransmit-shaped mix: each send
//      is one event plus one timer, and the event cancels the timer.
//
// Emits a JSON document (--json PATH, conventionally BENCH_hotpath.json)
// so the perf trajectory is tracked from commit to commit.
//
// Usage: bench_hotpath [--points N] [--locates L] [--objects K] [--routes M]
//                      [--seed S] [--threads T] [--smoke] [--full]
//                      [--json PATH]
//
// --smoke shrinks every dimension ~10x for the CI smoke run (~seconds).
#include <algorithm>
#include <cmath>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "geometry/delaunay.hpp"
#include "geometry/predicates.hpp"
#include "sim/event_queue.hpp"

namespace {

using namespace voronet;

struct HotpathScale {
  std::size_t points;
  std::size_t locates;
  std::size_t objects;
  std::size_t routes;
  std::size_t queue_events;  ///< executed events per event_queue row
  std::vector<std::size_t> queue_pending;
  std::uint64_t seed;
};

bench::Json bench_bulk_insert(const HotpathScale& s,
                              geo::DelaunayTriangulation& dt) {
  Rng rng(s.seed);
  std::vector<Vec2> points;
  points.reserve(s.points);
  for (std::size_t i = 0; i < s.points; ++i) {
    points.push_back({rng.uniform(), rng.uniform()});
  }

  geo::reset_predicate_stats();
  Timer t;
  dt.bulk_insert(points);
  const double secs = t.seconds();
  const geo::PredicateStats ps = geo::predicate_stats();

  const auto calls = ps.orient_calls + ps.incircle_calls;
  const auto exact = ps.orient_exact + ps.incircle_exact;
  const double exact_rate =
      calls == 0 ? 0.0
                 : static_cast<double>(exact) / static_cast<double>(calls);
  std::cerr << "[hotpath] bulk_insert: " << s.points << " pts in " << secs
            << "s (" << static_cast<double>(s.points) / secs
            << " pts/s), exact fallback rate " << exact_rate << "\n";
  return bench::Json::object()
      .set("points", bench::Json::integer(s.points))
      .set("seconds", bench::Json::number(secs))
      .set("points_per_sec",
           bench::Json::number(static_cast<double>(s.points) / secs))
      .set("orient_calls", bench::Json::integer(ps.orient_calls))
      .set("orient_adapt", bench::Json::integer(ps.orient_adapt))
      .set("orient_exact", bench::Json::integer(ps.orient_exact))
      .set("incircle_calls", bench::Json::integer(ps.incircle_calls))
      .set("incircle_adapt", bench::Json::integer(ps.incircle_adapt))
      .set("incircle_exact", bench::Json::integer(ps.incircle_exact))
      .set("exact_rate", bench::Json::number(exact_rate));
}

bench::Json bench_locate(const HotpathScale& s,
                         const geo::DelaunayTriangulation& dt) {
  Rng rng(s.seed ^ 0x10ca7eULL);
  // The hinted walk starts at the owner of a point one expected
  // nearest-neighbour distance away -- the bulk-build / overlay-join usage
  // pattern the hint cache is built for.
  const double step =
      1.0 / std::sqrt(static_cast<double>(dt.size() > 0 ? dt.size() : 1));
  std::uint64_t cold_steps = 0;
  std::uint64_t hinted_steps = 0;
  Timer t;
  for (std::size_t i = 0; i < s.locates; ++i) {
    const Vec2 p{rng.uniform(), rng.uniform()};
    const auto owner = dt.nearest(p);
    cold_steps += dt.last_walk_steps();
    const Vec2 q{std::min(1.0, std::max(0.0, p.x + step * rng.uniform(-1, 1))),
                 std::min(1.0, std::max(0.0, p.y + step * rng.uniform(-1, 1)))};
    (void)dt.nearest(q, owner);
    hinted_steps += dt.last_walk_steps();
  }
  const double secs = t.seconds();
  const double cold =
      static_cast<double>(cold_steps) / static_cast<double>(s.locates);
  const double hinted =
      static_cast<double>(hinted_steps) / static_cast<double>(s.locates);
  std::cerr << "[hotpath] locate: mean walk steps cold=" << cold
            << " hinted=" << hinted << " (" << secs << "s)\n";
  return bench::Json::object()
      .set("queries", bench::Json::integer(s.locates))
      .set("seconds", bench::Json::number(secs))
      .set("mean_walk_steps_cold", bench::Json::number(cold))
      .set("mean_walk_steps_hinted", bench::Json::number(hinted));
}

bench::Json bench_routing(const HotpathScale& s) {
  OverlayConfig cfg;
  cfg.n_max = s.objects;
  cfg.seed = s.seed;
  Overlay overlay(cfg);
  Rng rng(s.seed ^ 0x9007e5ULL);
  Timer build;
  bench::grow_overlay(overlay, workload::DistributionConfig::uniform(),
                      s.objects, s.objects, rng, [](std::size_t) {});
  std::cerr << "[hotpath] overlay build: " << s.objects << " objects in "
            << build.seconds() << "s\n";

  std::vector<ProbeQuery> couples;
  couples.reserve(s.routes);
  for (std::size_t i = 0; i < s.routes; ++i) {
    const ObjectId from = overlay.random_object(rng);
    ObjectId to = overlay.random_object(rng);
    while (to == from && overlay.size() > 1) to = overlay.random_object(rng);
    couples.push_back({from, overlay.position(to)});
  }
  std::vector<RouteResult> results(couples.size());

  // Scalar probes: one route at a time (the per-route latency path).
  std::uint64_t hops = 0;
  Timer ts;
  for (const ProbeQuery& c : couples) {
    hops += overlay.probe(c.from, c.target).hops;
  }
  const double secs_scalar = ts.seconds();

  // The measurement sweep: software-pipelined batch, single-threaded.
  Timer t1;
  overlay.probe_batch(couples, results);
  const double secs_1t = t1.seconds();

  // And across the worker pool.
  Timer tmt;
  parallel_for(0, couples.size(),
               [&](std::size_t lo, std::size_t hi, std::size_t) {
                 overlay.probe_batch(
                     std::span(couples).subspan(lo, hi - lo),
                     std::span(results).subspan(lo, hi - lo));
               });
  const double secs_mt = tmt.seconds();

  const double rs = static_cast<double>(s.routes) / secs_scalar;
  const double r1 = static_cast<double>(s.routes) / secs_1t;
  const double rmt = static_cast<double>(s.routes) / secs_mt;
  std::cerr << "[hotpath] routing: " << r1 << " routes/s single-threaded ("
            << rs << " scalar), " << rmt << " routes/s with "
            << parallel_workers() << " workers\n";
  return bench::Json::object()
      .set("overlay_objects", bench::Json::integer(s.objects))
      .set("routes", bench::Json::integer(s.routes))
      .set("build_seconds", bench::Json::number(build.seconds()))
      .set("mean_hops",
           bench::Json::number(static_cast<double>(hops) /
                               static_cast<double>(s.routes)))
      .set("routes_per_sec_scalar", bench::Json::number(rs))
      .set("routes_per_sec_1t", bench::Json::number(r1))
      .set("routes_per_sec_mt", bench::Json::number(rmt))
      .set("workers", bench::Json::integer(parallel_workers()));
}

/// One event_queue row: `pending` events held steady while `events`
/// of them execute.  Each send schedules its ack event at 2L (L drawn in
/// [0.5, 2] ms) and a retransmit timer at 2 * 2 ms + 10 ms, so the ack
/// always comes first: it cancels the timer and sends again, the shape
/// of the sim transport's reliable traffic.  Both closures fit
/// std::function's inline buffer, so the row times the queue alone.
bench::Json bench_event_queue_row(std::size_t pending, std::size_t events,
                                  std::uint64_t seed) {
  struct Mix {
    sim::EventQueue q;
    Rng rng;
    void send() {
      const double latency = rng.uniform(0.5e-3, 2e-3);
      const sim::TimerId rto = q.schedule_timer(14e-3, [] {});
      q.schedule(2.0 * latency, [this, rto] {
        q.cancel(rto);
        send();
      });
    }
  };
  Mix mix{sim::EventQueue{}, Rng(seed)};
  for (std::size_t i = 0; i < pending / 2; ++i) mix.send();
  Timer t;
  const auto run = mix.q.run_to_idle(events);
  const double secs = t.seconds();
  const double rate = static_cast<double>(run.processed) / secs;
  std::cerr << "[hotpath] event_queue: " << rate << " events/s at "
            << mix.q.pending() << " pending\n";
  return bench::Json::object()
      .set("pending", bench::Json::integer(mix.q.pending()))
      .set("events", bench::Json::integer(run.processed))
      .set("seconds", bench::Json::number(secs))
      .set("events_per_sec", bench::Json::number(rate))
      .set("ns_per_event", bench::Json::number(1e9 / rate));
}

bench::Json bench_event_queue(const HotpathScale& s) {
  bench::Json rows = bench::Json::array();
  for (const std::size_t pending : s.queue_pending) {
    rows.push(bench_event_queue_row(pending, s.queue_events,
                                    s.seed ^ 0xe7e47ULL));
  }
  return bench::Json::object()
      .set("mix", bench::Json::string(
                      "send = ack event + retransmit timer; ack cancels "
                      "the timer and sends again"))
      .set("rows", std::move(rows));
}

}  // namespace

int main(int argc, char** argv) try {
  const bench::Args args(argc, argv);
  const bool smoke = args.smoke;
  HotpathScale s{};
  s.points = static_cast<std::size_t>(
      args.flags().get_int("points", smoke ? 100'000 : 1'000'000));
  s.locates = static_cast<std::size_t>(
      args.flags().get_int("locates", smoke ? 2'000 : 20'000));
  s.objects = static_cast<std::size_t>(
      args.flags().get_int("objects", smoke ? 5'000 : 50'000));
  s.routes = static_cast<std::size_t>(
      args.flags().get_int("routes", smoke ? 2'000 : 20'000));
  s.queue_events = smoke ? 200'000 : 2'000'000;
  s.queue_pending = {1'000, 10'000, 100'000};
  if (args.full) s.queue_pending.push_back(1'000'000);
  s.seed = args.seed;
  const auto threads =
      static_cast<std::size_t>(args.flags().get_int("threads", 0));
  const std::string json_path = args.json_path;
  args.finish();
  set_parallel_workers(threads);

  geo::DelaunayTriangulation dt;
  bench::Json doc = bench::Json::object();
  doc.set("bench", bench::Json::string("hotpath"))
      .set("seed", bench::Json::integer(s.seed))
      .set("smoke", bench::Json::boolean(smoke))
      .set("bulk_insert", bench_bulk_insert(s, dt))
      .set("locate", bench_locate(s, dt))
      .set("routing", bench_routing(s))
      .set("event_queue", bench_event_queue(s));
  bench::write_json_file(json_path, doc);
  if (json_path.empty()) {
    doc.write(std::cout);
    std::cout << "\n";
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "bench_hotpath: " << e.what() << "\n";
  return 1;
}
