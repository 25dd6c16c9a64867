// Differential tests of the message-level query engine: range / radius
// queries executed as kQuery / kQueryForward / kQueryResult messages over
// per-node local views must reproduce the sequential ground truth exactly
// at quiescence -- across latency models and loss rates -- and the
// logical message counts must obey the counting model of queries.hpp.
#include "protocol/query_harness.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "protocol/message.hpp"
#include "scenario/runner.hpp"
#include "voronet/object_id.hpp"
#include "workload/distributions.hpp"

namespace voronet {
namespace {

using protocol::HarnessConfig;
using protocol::LatencyModel;
using protocol::QueryHarness;

HarnessConfig make_config(std::uint64_t seed) {
  HarnessConfig config;
  config.overlay.n_max = 4096;
  config.overlay.seed = seed;
  config.network.seed = seed ^ 0xfeedULL;
  config.seed = seed ^ 0x907aULL;
  return config;
}

TEST(QueryEngine, SentinelsAreOneDefinition) {
  // Pinned at compile time in protocol/message.hpp; re-checked here so a
  // refactor reintroducing a parallel literal fails loudly.
  static_assert(protocol::kNoNode == kNoObject);
  EXPECT_EQ(protocol::kNoNode, kNoObject);
  EXPECT_EQ(static_cast<ObjectId>(protocol::kNoNode),
            geo::DelaunayTriangulation::kNoVertex);
}

TEST(QueryEngine, ZeroLatencyDifferential) {
  QueryHarness qh(make_config(41));
  qh.populate(300, 41);
  ASSERT_TRUE(qh.harness().verify_views().converged());

  Rng rng(41);
  for (int q = 0; q < 12; ++q) {
    const protocol::NodeId from = qh.harness().random_node(rng);
    const auto range = qh.run_range(from, {rng.uniform(), rng.uniform()},
                                    {rng.uniform(), rng.uniform()},
                                    q % 3 == 0 ? 0.0 : rng.uniform(0.0, 0.08));
    EXPECT_TRUE(range.identical()) << "range query " << q;
    EXPECT_TRUE(range.counts_match)
        << "range query " << q << ": msg forwards " << range.msg.forward_sends
        << " vs truth " << range.truth.forward_messages << ", results "
        << range.msg.result_sends << " vs " << range.truth.result_messages;
    EXPECT_EQ(range.recall(), 1.0);

    const auto disk = qh.run_radius(from, {rng.uniform(), rng.uniform()},
                                    rng.uniform(0.0, 0.15));
    EXPECT_TRUE(disk.identical()) << "radius query " << q;
    EXPECT_TRUE(disk.counts_match) << "radius query " << q;
  }
}

TEST(QueryEngine, LatencyLossSweepStaysExactAtQuiescence) {
  const std::vector<LatencyModel> latencies = {
      LatencyModel::fixed(0.02),
      LatencyModel::uniform(0.005, 0.05),
      LatencyModel::lognormal(0.005, 0.03, 1.0),
  };
  const std::vector<double> losses = {0.0, 0.1, 0.25};
  for (const auto& latency : latencies) {
    for (const double loss : losses) {
      HarnessConfig config = make_config(43);
      config.network.latency = latency;
      config.network.drop_probability = loss;
      QueryHarness qh(config);
      qh.populate(200, 43);
      ASSERT_TRUE(qh.harness().verify_views().converged());

      Rng rng(43);
      for (int q = 0; q < 5; ++q) {
        const protocol::NodeId from = qh.harness().random_node(rng);
        const auto range = qh.run_range(
            from, {rng.uniform(), rng.uniform()},
            {rng.uniform(), rng.uniform()}, rng.uniform(0.0, 0.05));
        EXPECT_TRUE(range.identical())
            << latency.name() << " loss " << loss << " range " << q;
        const auto disk = qh.run_radius(
            from, {rng.uniform(), rng.uniform()}, rng.uniform(0.0, 0.12));
        EXPECT_TRUE(disk.identical())
            << latency.name() << " loss " << loss << " radius " << q;
        if (loss == 0.0 && latency.kind == LatencyModel::Kind::kFixed) {
          // Logical counts are deterministic only without retransmission
          // (a duplicate that slips the transport dedup draws an extra
          // rejection reply).
          EXPECT_TRUE(range.counts_match);
          EXPECT_TRUE(disk.counts_match);
        }
        EXPECT_GE(disk.msg.latency(), 0.0);
      }
    }
  }
}

TEST(QueryEngine, IssuerEqualsRootAnswersLocally) {
  QueryHarness qh(make_config(47));
  qh.populate(150, 47);
  const Vec2 center{0.5, 0.5};
  // Route once to find the owner, then issue FROM the owner: zero route
  // hops and no final aggregate message.
  const ObjectId owner = qh.overlay().tessellation().nearest(center);
  const auto d = qh.run_radius(owner, center, 0.1);
  EXPECT_TRUE(d.identical());
  EXPECT_EQ(d.msg.route_hops, 0u);
  EXPECT_EQ(d.msg.result_sends, d.msg.forward_sends);
}

TEST(QueryEngine, CompletionLatencyUnderFixedDelay) {
  HarnessConfig config = make_config(53);
  config.network.latency = LatencyModel::fixed(0.05);
  QueryHarness qh(config);
  qh.populate(200, 53);

  Rng rng(53);
  const protocol::NodeId from = qh.harness().random_node(rng);
  const auto d = qh.run_radius(from, {0.8, 0.2}, 0.1);
  ASSERT_TRUE(d.identical());
  // Every message leg costs 0.05; a query that flooded at least one cell
  // beyond the root needs >= injection + forward + echo.
  if (d.msg.forward_sends > 0) {
    EXPECT_GE(d.msg.latency(), 3 * 0.05 - 1e-12);
  }
  EXPECT_EQ(qh.harness().pending_queries(), 0u);
}

TEST(QueryEngine, QueriesDuringJoinBurstCompleteAndReportRecall) {
  HarnessConfig config = make_config(59);
  config.network.latency = LatencyModel::uniform(0.005, 0.05);
  config.network.drop_probability = 0.1;
  QueryHarness qh(config);
  qh.populate(200, 59);

  // A burst of joins with queries interleaved while the views churn:
  // the engine must still terminate and deliver every aggregate; result
  // quality is graded as recall, not asserted exact.
  Rng rng(59);
  workload::PointGenerator gen(workload::DistributionConfig::uniform());
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 30; ++i) {
    qh.harness().join_after(0.02 * i, gen.next(rng));
    if (i % 3 == 0) {
      ids.push_back(qh.issue_radius(qh.harness().random_node(rng),
                                    {rng.uniform(), rng.uniform()},
                                    rng.uniform(0.02, 0.15), 0.02 * i));
    }
  }
  const auto run = qh.harness().run_to_idle();
  ASSERT_FALSE(run.budget_exhausted);
  EXPECT_EQ(qh.harness().pending_queries(), 0u);
  for (const std::uint64_t id : ids) {
    const auto d = qh.collect(id);
    EXPECT_TRUE(d.completed);
    EXPECT_GE(d.recall(), 0.0);
    EXPECT_LE(d.recall(), 1.0);
  }
  // Quiet again: fresh queries are exact again.
  const auto after = qh.run_radius(qh.harness().random_node(rng),
                                   {0.4, 0.6}, 0.1);
  EXPECT_TRUE(after.identical());
}

// ---------------------------------------------------------------------------
// Crash-stop failures mid-query
// ---------------------------------------------------------------------------

/// Drive the harness in small time slices until the query's flood is
/// demonstrably in flight (the root served and forwarded), then crash
/// `victim`.  Returns false when the query completed before the flood
/// could be interrupted (does not happen with the latencies used here).
bool crash_mid_flood(QueryHarness& qh, std::uint64_t id,
                     protocol::NodeId victim) {
  auto& h = qh.harness();
  while (!h.query_record(id).done && h.query_record(id).forward_sends < 2) {
    const auto run = h.run_until(h.queue().now() + 0.003);
    if (run.budget_exhausted) return false;
  }
  if (h.query_record(id).done) return false;
  h.crash(victim);
  return true;
}

TEST(QueryEngine, CrashMidFloodFailoverSweep) {
  // The failover contract: a crash-stop failure mid-flood -- of a leaf
  // cell, an interior cell, the flood root or the issuer itself -- never
  // loses the query.  Per-branch aborts close dead branches, the issuer
  // re-issues tainted epochs, and once graded at quiescence the result
  // is EXACT against the post-crash ground truth (recall == precision
  // == 1), across latency models and loss up to 25%.
  const std::vector<LatencyModel> latencies = {
      LatencyModel::fixed(0.02),
      LatencyModel::uniform(0.005, 0.05),
      LatencyModel::lognormal(0.005, 0.03, 1.0),
  };
  const std::vector<double> losses = {0.0, 0.1, 0.25};
  const Vec2 center{0.5, 0.5};
  const double radius = 0.12;
  std::size_t reissued_total = 0;

  for (const auto& latency : latencies) {
    for (const double loss : losses) {
      HarnessConfig config = make_config(71);
      config.network.latency = latency;
      config.network.drop_probability = loss;
      config.failure_detect_delay = 0.2;
      QueryHarness qh(config);
      qh.populate(220, 71);
      ASSERT_TRUE(qh.harness().verify_views().converged());
      auto& h = qh.harness();

      for (const int role : {0, 1, 2, 3}) {  // leaf, interior, root, issuer
        // Victims come from the CURRENT sequential truth, so each role
        // names a cell that really serves this query.
        const ObjectId root = qh.overlay().tessellation().nearest(center);
        const auto truth =
            radius_query(qh.overlay(), root, center, radius);
        ASSERT_GT(truth.owners.size(), 3u);
        // Issuer: a node far from the region (its cell never serves).
        protocol::NodeId issuer = root;
        double worst = -1.0;
        for (const protocol::NodeId n : h.roster()) {
          const double d = dist2(qh.overlay().position(n), center);
          if (d > worst) {
            worst = d;
            issuer = n;
          }
        }
        protocol::NodeId victim = root;
        if (role == 0) {  // leaf: the served cell farthest from the centre
          double far = -1.0;
          for (const ObjectId o : truth.owners) {
            const double d = dist2(qh.overlay().position(o), center);
            if (d > far) {
              far = d;
              victim = o;
            }
          }
        } else if (role == 1) {  // interior: a served neighbour of the root
          for (const ObjectId o : qh.overlay().view(root).vn) {
            if (std::find(truth.owners.begin(), truth.owners.end(), o) !=
                truth.owners.end()) {
              victim = o;
              break;
            }
          }
        } else if (role == 3) {
          victim = issuer;
        }
        ASSERT_NE(issuer, root);

        const std::uint64_t id = qh.issue_radius(issuer, center, radius);
        ASSERT_TRUE(crash_mid_flood(qh, id, victim))
            << latency.name() << " loss " << loss << " role " << role;
        const auto run = h.run_to_idle();
        ASSERT_FALSE(run.budget_exhausted)
            << latency.name() << " loss " << loss << " role " << role;
        ASSERT_EQ(h.pending_queries(), 0u);

        const auto d = qh.collect(id);
        EXPECT_TRUE(d.completed)
            << latency.name() << " loss " << loss << " role " << role;
        EXPECT_TRUE(d.identical())
            << latency.name() << " loss " << loss << " role " << role
            << ": owners " << d.msg.owners.size() << " vs truth "
            << d.truth.owners.size() << ", epochs " << d.msg.epoch;
        EXPECT_EQ(d.recall(), 1.0);
        EXPECT_EQ(d.precision(), 1.0);
        if (role == 3) EXPECT_TRUE(d.msg.issuer_lost);
        if (d.msg.epoch > 1) ++reissued_total;

        // Repairs have quiesced: the strict view check (including the
        // dangling-holder audit) must hold again.
        EXPECT_FALSE(h.repair_in_flight());
        EXPECT_TRUE(h.verify_views().converged());
      }
      h.overlay().check_invariants();
    }
  }
  // The sweep must have exercised the failover path, not dodged it.
  EXPECT_GT(reissued_total, 0u);
}

TEST(QueryEngine, ChurnConcurrentScenario) {
  // Queries racing joins, voluntary leaves AND crash-stop failures on
  // one event queue -- the scenario class the failover machinery exists
  // for.  Every query must complete; quality is graded against the
  // post-quiescence ground truth (queries that finished before later
  // churn legitimately reflect an earlier topology, so recall /
  // precision are bounded, not asserted exact).
  using scenario::Event;
  scenario::Scenario s;
  s.population = 250;
  s.seed = 73;
  s.latency = LatencyModel::uniform(0.005, 0.05);
  s.loss = 0.1;
  s.failure_detect_delay = 0.25;
  const double horizon = 2.5;
  const std::size_t floor = 16;  // never tear the overlay down entirely
  s.timeline = {
      Event::join_burst(0.0, 25, horizon, scenario::Spread::kUniform),
      Event::leave(0.0, 20, horizon, floor),
      Event::crash(0.0, 12, horizon, floor),
      Event::query_stream(0.0, 40, horizon, scenario::QueryMix::kMixed,
                          scenario::Spread::kUniform),
  };
  scenario::Runner runner(s);
  const scenario::Report rep = runner.run();
  QueryHarness& qh = runner.harness();

  EXPECT_TRUE(rep.quiesced);
  EXPECT_EQ(rep.completed, rep.queries);
  EXPECT_EQ(qh.harness().pending_queries(), 0u);
  EXPECT_TRUE(rep.converged);  // strict: repairs quiesced, no dangling
  EXPECT_GE(rep.mean_recall, 0.8);
  EXPECT_GE(rep.mean_precision, 0.8);
  EXPECT_GT(rep.exact, rep.queries / 2);
  qh.overlay().check_invariants();

  // Quiet again: fresh queries are exact again.
  Rng rng(73);
  const auto after = qh.run_radius(qh.harness().random_node(rng),
                                   {0.45, 0.55}, 0.1);
  EXPECT_TRUE(after.identical());
  EXPECT_EQ(after.recall(), 1.0);
  EXPECT_EQ(after.precision(), 1.0);
}

TEST(QueryEngine, EmptyTruthRecallRequiresEmptyResult) {
  // Satellite regression: recall() used to return 1.0 whenever the truth
  // set was empty, hiding message-layer false positives entirely.
  QueryHarness::Differential d;
  EXPECT_EQ(d.recall(), 1.0);     // empty == empty
  EXPECT_EQ(d.precision(), 1.0);  // nothing found, nothing false
  d.msg.matches = {ObjectId{3}};
  EXPECT_EQ(d.recall(), 0.0);  // false positive against an empty truth
  EXPECT_EQ(d.precision(), 0.0);
  d.truth.matches = {ObjectId{3}, ObjectId{5}};
  EXPECT_EQ(d.recall(), 0.5);
  EXPECT_EQ(d.precision(), 1.0);
}

TEST(QueryEngine, RecordHousekeeping) {
  QueryHarness qh(make_config(61));
  qh.populate(100, 61);
  Rng rng(61);
  for (int i = 0; i < 5; ++i) {
    (void)qh.run_radius(qh.harness().random_node(rng),
                        {rng.uniform(), rng.uniform()}, 0.05);
  }
  qh.harness().drop_completed_queries();
  const auto id = qh.issue_radius(qh.harness().random_node(rng), {0.5, 0.5},
                                  0.05);
  (void)qh.harness().run_to_idle();
  EXPECT_TRUE(qh.harness().query_record(id).done);
}

}  // namespace
}  // namespace voronet
