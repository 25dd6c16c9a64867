// Serving-layer tests: admission, cache invalidation, and
// end-to-end exactness of the query front-end (src/serve).
//
// The deterministic cells run on SimTransport, where every count is
// exact and replayable.  The thread cells run the SAME serving code over
// ThreadTransport -- real shard threads, wall-clock latencies -- and
// assert the schedule-independent contract (everything completes,
// graded exactness holds) rather than any particular interleaving.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "protocol/query_harness.hpp"
#include "serve/open_loop.hpp"
#include "serve/query_server.hpp"
#include "voronet/queries.hpp"

namespace voronet::serve {
namespace {

using protocol::HarnessConfig;
using protocol::ProtocolHarness;
using protocol::QueryHarness;
using protocol::TransportKind;

HarnessConfig sim_config(std::uint64_t seed = 0x5eededULL) {
  HarnessConfig config;
  config.network.latency = protocol::LatencyModel::uniform(0.01, 0.05);
  config.network.seed = seed;
  config.seed = seed ^ 0xabcULL;
  return config;
}

/// Sequential ground truth for a server ticket's spec.
std::vector<NodeId> truth_matches(const ProtocolHarness& harness, Vec2 a,
                                  Vec2 b, double tol) {
  std::vector<NodeId> out;
  for (const NodeId n : harness.roster()) {
    if (site_within_tolerance(a, b, harness.node(n).position(), tol)) {
      out.push_back(n);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(QueryServer, EachAdmittedQueryFloodsItsOwnRegionExactly) {
  QueryHarness qh(sim_config());
  qh.populate(120, 41);
  ProtocolHarness& h = qh.harness();
  QueryServer server(h, ServeConfig{});

  // Eight clustered radius queries against one hot region, plus a radius
  // and a range query side by side.
  const Vec2 hot{0.45, 0.55};
  std::vector<QueryServer::TicketId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(server.submit_radius(
        Vec2{hot.x + 0.001 * i, hot.y - 0.001 * i}, 0.08));
  }
  ids.push_back(server.submit_radius(Vec2{0.3, 0.3}, 0.1));
  ids.push_back(
      server.submit_range(Vec2{0.31, 0.3}, Vec2{0.35, 0.34}, 0.05));
  const auto run = h.run_to_idle();
  ASSERT_FALSE(run.budget_exhausted);

  EXPECT_EQ(server.stats().admitted, ids.size());
  EXPECT_EQ(server.stats().batches, server.stats().admitted)
      << "one flood per admitted query";
  EXPECT_EQ(server.stats().completed, ids.size());
  EXPECT_EQ(server.in_service(), 0u);
  for (const auto id : ids) {
    const QueryServer::Ticket& t = server.ticket(id);
    ASSERT_TRUE(t.done);
    EXPECT_FALSE(t.rejected);
    EXPECT_GE(t.latency(), 0.0);
    EXPECT_EQ(t.matches, truth_matches(h, t.spec.a, t.spec.b, t.spec.tol))
        << "the region flood must reproduce the exact result";
  }
}

TEST(QueryServer, IdenticalSpecInFlightSharesItsFlood) {
  QueryHarness qh(sim_config());
  qh.populate(120, 42);
  ProtocolHarness& h = qh.harness();
  QueryServer server(h, ServeConfig{});

  // Two copies of one spec before its first answer exists (the cache is
  // still cold), plus a range query: two floods, three exact answers.
  const Vec2 c{0.5, 0.5};
  const auto first = server.submit_radius(c, 0.1);
  const auto copy = server.submit_radius(c, 0.1);
  const auto other =
      server.submit_range(Vec2{0.2, 0.2}, Vec2{0.3, 0.25}, 0.05);
  EXPECT_EQ(server.in_service(), 3u) << "each copy is admitted";
  ASSERT_FALSE(h.run_to_idle().budget_exhausted);

  EXPECT_EQ(server.stats().admitted, 3u);
  EXPECT_EQ(server.stats().batches, 2u) << "the copy waits on the first flood";
  EXPECT_EQ(server.stats().batch_members, 3u);
  EXPECT_EQ(server.stats().cache_hits, 0u);
  EXPECT_EQ(server.in_service(), 0u);
  for (const auto id : {first, copy, other}) {
    const QueryServer::Ticket& t = server.ticket(id);
    ASSERT_TRUE(t.done);
    EXPECT_FALSE(t.cache_hit);
    EXPECT_EQ(t.matches, truth_matches(h, t.spec.a, t.spec.b, t.spec.tol));
  }
  EXPECT_EQ(server.ticket(copy).completed, server.ticket(first).completed);

  // A topology change between two copies: the later one, submitted after
  // the crash and before the first copy's flood (10-50 ms hops) answers,
  // floods afresh.
  const Vec2 d{0.6, 0.4};
  server.submit_radius(d, 0.1);
  Rng pick(9);
  h.crash(h.random_node(pick));
  QueryServer::TicketId after = 0;
  h.network().schedule(0.001,
                       [&] { after = server.submit_radius(d, 0.1); });
  ASSERT_FALSE(h.run_to_idle().budget_exhausted);
  EXPECT_EQ(server.stats().batches, 4u)
      << "a copy issued over a changed topology needs its own flood";
  ASSERT_TRUE(server.ticket(after).done);
  EXPECT_EQ(server.ticket(after).matches, truth_matches(h, d, d, 0.1));
}

TEST(QueryServer, CacheHitsExactSpecAndChurnInvalidates) {
  QueryHarness qh(sim_config());
  qh.populate(100, 43);
  ProtocolHarness& h = qh.harness();

  QueryServer server(h, ServeConfig{});
  const Vec2 c{0.5, 0.5};

  const auto first = server.submit_radius(c, 0.1);
  ASSERT_FALSE(h.run_to_idle().budget_exhausted);
  ASSERT_TRUE(server.ticket(first).done);
  EXPECT_FALSE(server.ticket(first).cache_hit);
  const std::vector<NodeId> answer = server.ticket(first).matches;
  EXPECT_FALSE(answer.empty());

  // Identical spec, unchanged topology: answered from the cache, no new
  // flood, zero latency, same matches.
  const std::uint64_t floods_before = server.stats().batches;
  const auto hit = server.submit_radius(c, 0.1);
  EXPECT_TRUE(server.ticket(hit).done) << "cache hits complete synchronously";
  EXPECT_TRUE(server.ticket(hit).cache_hit);
  EXPECT_EQ(server.ticket(hit).matches, answer);
  EXPECT_EQ(server.ticket(hit).latency(), 0.0);
  EXPECT_EQ(server.stats().batches, floods_before);
  EXPECT_EQ(server.stats().cache_hits, 1u);

  // A nearby-but-different spec is NOT the same cache line.
  const auto miss = server.submit_radius(Vec2{c.x + 1e-9, c.y}, 0.1);
  EXPECT_FALSE(server.ticket(miss).done && server.ticket(miss).cache_hit);
  ASSERT_FALSE(h.run_to_idle().budget_exhausted);

  // Churn bumps the topology version: every cached answer is stale.
  Rng pick(7);
  h.crash(h.random_node(pick));
  ASSERT_FALSE(h.run_to_idle().budget_exhausted);
  const auto after = server.submit_radius(c, 0.1);
  EXPECT_FALSE(server.ticket(after).cache_hit)
      << "crash must invalidate the cached entry";
  ASSERT_FALSE(h.run_to_idle().budget_exhausted);
  ASSERT_TRUE(server.ticket(after).done);
  EXPECT_EQ(server.ticket(after).matches,
            truth_matches(h, c, c, 0.1))
      << "post-churn answer must match the post-churn topology";
  EXPECT_EQ(server.stats().cache_hits, 1u);
}

TEST(QueryServer, AdmissionBoundShedsAndRecovers) {
  QueryHarness qh(sim_config());
  qh.populate(60, 44);
  ProtocolHarness& h = qh.harness();

  ServeConfig sc;
  sc.queue_capacity = 2;
  QueryServer server(h, sc);

  std::vector<QueryServer::TicketId> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(server.submit_radius(Vec2{0.4, 0.4 + 0.001 * i}, 0.05));
  }
  EXPECT_EQ(server.in_service(), 2u);
  EXPECT_EQ(server.stats().admitted, 2u);
  EXPECT_EQ(server.stats().rejected, 3u);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const QueryServer::Ticket& t = server.ticket(ids[i]);
    EXPECT_EQ(t.rejected, i >= 2) << i;
    EXPECT_EQ(t.done, i >= 2) << "rejected tickets are answered (shed) now";
  }

  ASSERT_FALSE(h.run_to_idle().budget_exhausted);
  EXPECT_EQ(server.in_service(), 0u) << "admitted queries drain";
  for (std::size_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(server.ticket(ids[i]).done);
    EXPECT_FALSE(server.ticket(ids[i]).rejected);
  }
  // Capacity freed: the next submit is admitted again.
  const auto again = server.submit_radius(Vec2{0.4, 0.41}, 0.05);
  EXPECT_FALSE(server.ticket(again).rejected);
  ASSERT_FALSE(h.run_to_idle().budget_exhausted);
  EXPECT_TRUE(server.ticket(again).done);
}

TEST(QueryServer, DropCompletedTicketsKeepsLiveOnes) {
  QueryHarness qh(sim_config());
  qh.populate(60, 45);
  ProtocolHarness& h = qh.harness();
  QueryServer server(h, ServeConfig{});

  const auto done_id = server.submit_radius(Vec2{0.2, 0.2}, 0.05);
  ASSERT_FALSE(h.run_to_idle().budget_exhausted);
  ASSERT_TRUE(server.ticket(done_id).done);
  const auto live_id = server.submit_radius(Vec2{0.7, 0.7}, 0.05);
  server.drop_completed_tickets();
  EXPECT_THROW(server.ticket(done_id), std::out_of_range);
  EXPECT_FALSE(server.ticket(live_id).done) << "pending ticket survives";
  ASSERT_FALSE(h.run_to_idle().budget_exhausted);
  EXPECT_TRUE(server.ticket(live_id).done);
}

TEST(OpenLoop, SimStreamCompletesAndGradesExactly) {
  QueryHarness qh(sim_config());
  qh.populate(150, 46);
  ProtocolHarness& h = qh.harness();
  QueryServer server(h, ServeConfig{});

  LoadConfig load;
  load.rate = 300.0;
  load.duration = 0.5;
  load.seed = 0xbeefULL;
  const LoadReport r = run_open_loop(h, server, load);

  EXPECT_TRUE(r.drained);
  EXPECT_GT(r.offered, 50u) << "Poisson at 300/s over 0.5s";
  EXPECT_EQ(r.rejected, 0u);
  EXPECT_EQ(r.completed, r.offered);
  EXPECT_EQ(r.completion_rate, 1.0);
  EXPECT_EQ(r.graded, r.offered) << "no churn: every ticket grades";
  EXPECT_EQ(r.recall, 1.0);
  EXPECT_EQ(r.precision, 1.0);
  EXPECT_GE(r.p99, r.p50);
  EXPECT_GE(r.max_latency, r.p99);
  EXPECT_EQ(r.batches, r.admitted) << "one flood per admitted query";
}

TEST(OpenLoop, ThreadBackendHarnessConvergesAndServes) {
  // The same protocol + serving stack over real threads.  Wall-clock
  // scaled wires; assertions are schedule-independent.
  HarnessConfig config;
  config.transport = TransportKind::kThread;
  config.transport_shards = 2;
  config.network.latency = protocol::LatencyModel::uniform(0.0005, 0.002);
  config.failure_detect_delay = 0.05;
  QueryHarness qh(config);
  qh.populate(60, 47, /*spacing=*/0.002);
  ProtocolHarness& h = qh.harness();
  ASSERT_FALSE(h.network().deterministic());
  EXPECT_TRUE(h.verify_views().converged())
      << "thread-backend joins must converge to the exact views";

  QueryServer server(h, ServeConfig{});
  LoadConfig load;
  load.rate = 150.0;
  load.duration = 0.3;
  load.seed = 0xfeedULL;
  const LoadReport r = run_open_loop(h, server, load);

  EXPECT_TRUE(r.drained);
  EXPECT_GT(r.offered, 10u);
  EXPECT_EQ(r.completed, r.offered) << "under-loaded stream completes fully";
  EXPECT_EQ(r.graded, r.offered);
  EXPECT_EQ(r.recall, 1.0);
  EXPECT_EQ(r.precision, 1.0);
  EXPECT_GT(r.p99, 0.0) << "wall-clock latency is real on this backend";
}

}  // namespace
}  // namespace voronet::serve
