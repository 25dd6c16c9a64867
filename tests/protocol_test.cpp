// Differential tests of the message-level protocol engine.
//
// The central claim (DESIGN.md, "Protocol engine"): run the computation on
// the shared ground truth and the dissemination as real messages, and at
// quiescence every node's local view equals the authoritative one --
// under zero latency, under random latency (reordering), under loss with
// retransmission, across voluntary departures, crash-stop failures and
// network partitions.
#include "protocol/harness.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "protocol/sim_transport.hpp"
#include "workload/distributions.hpp"

namespace voronet::protocol {
namespace {

HarnessConfig small_config() {
  HarnessConfig config;
  config.overlay.n_max = 4096;
  config.overlay.seed = 11;
  config.network.seed = 12;
  return config;
}

/// Schedule `n` joins at the given inter-arrival spacing and drain.
void grow(ProtocolHarness& h, workload::PointGenerator& gen, Rng& rng,
          std::size_t n, double spacing = 0.0) {
  for (std::size_t i = 0; i < n; ++i) {
    h.join_after(spacing * static_cast<double>(i), gen.next(rng));
  }
  const auto run = h.run_to_idle();
  ASSERT_FALSE(run.budget_exhausted);
}

TEST(ProtocolEngine, DifferentialQuiescenceZeroLatencyZeroLoss) {
  // The synchronous limit: dissemination is instantaneous, so after every
  // batch the local views must bit-match the tessellation adjacency.
  ProtocolHarness h(small_config());
  workload::PointGenerator gen(workload::DistributionConfig::uniform());
  Rng rng(21);
  for (int batch = 0; batch < 6; ++batch) {
    grow(h, gen, rng, 50);
    const auto report = h.verify_views();
    EXPECT_EQ(report.checked, h.node_count());
    EXPECT_EQ(report.stale, 0u) << "batch " << batch;
    EXPECT_EQ(report.missing, 0u);
  }
  EXPECT_EQ(h.node_count(), 300u);
  EXPECT_EQ(h.pending_joins(), 0u);
  EXPECT_EQ(h.network().stats().dropped, 0u);
  EXPECT_EQ(h.network().stats().retransmits, 0u);
  h.overlay().check_invariants();
}

TEST(ProtocolEngine, JoinsRouteThroughLocalViews) {
  ProtocolHarness h(small_config());
  workload::PointGenerator gen(workload::DistributionConfig::uniform());
  Rng rng(22);
  // Space the joins out in simulated time: updates apply between joins,
  // so route chains run over populated views (a single-instant burst
  // degenerates to hop-zero sponsorship at the bootstrap gateway).
  grow(h, gen, rng, 200, 0.01);
  const auto& m = h.network().metrics();
  // Routing really happened at the message level: forwards were sent, and
  // every join entered through a kJoin message (minus the bootstrap).
  EXPECT_EQ(m.messages(sim::MessageKind::kJoin), 199u);
  EXPECT_GT(m.messages(sim::MessageKind::kRouteForward), 0u);
  EXPECT_GT(m.messages(sim::MessageKind::kVoronoiUpdate), 0u);
  EXPECT_GT(m.messages(sim::MessageKind::kAck), 0u);
}

TEST(ProtocolEngine, ConcurrentJoinsUnderLatencyConverge) {
  // Many joins in flight at once: route chains observe stale views while
  // other joins' updates are still travelling.  At quiescence the system
  // must still converge exactly.
  HarnessConfig config = small_config();
  config.network.latency = LatencyModel::uniform(0.01, 0.2);
  ProtocolHarness h(config);
  workload::PointGenerator gen(workload::DistributionConfig::uniform());
  Rng rng(23);
  // Seed population, then a dense burst: 100 joins within one mean RTT.
  grow(h, gen, rng, 100);
  grow(h, gen, rng, 100, 0.001);
  const auto report = h.verify_views();
  EXPECT_EQ(report.stale, 0u);
  EXPECT_EQ(report.missing, 0u);
  EXPECT_EQ(h.node_count(), 200u);
  h.overlay().check_invariants();
}

TEST(ProtocolEngine, ReorderingUnderHeavyTailedLatencyIsSafe) {
  // Lognormal delays reorder aggressively; the versioned updates must
  // discard stale content instead of applying it.
  HarnessConfig config = small_config();
  config.network.latency = LatencyModel::lognormal(0.005, 0.05, 1.0);
  ProtocolHarness h(config);
  workload::PointGenerator gen(workload::DistributionConfig::uniform());
  Rng rng(24);
  grow(h, gen, rng, 150, 0.002);
  Rng pick(25);
  for (int i = 0; i < 30; ++i) {
    h.leave_after(0.01 * i, h.random_node(pick));
    h.join_after(0.01 * i + 0.005, gen.next(rng));
  }
  const auto run = h.run_to_idle();
  ASSERT_FALSE(run.budget_exhausted);
  EXPECT_TRUE(h.verify_views().converged());
  h.overlay().check_invariants();
}

TEST(ProtocolEngine, LossWithRetransmitsReconverges) {
  HarnessConfig config = small_config();
  config.network.latency = LatencyModel::fixed(0.02);
  config.network.drop_probability = 0.25;
  ProtocolHarness h(config);
  workload::PointGenerator gen(workload::DistributionConfig::uniform());
  Rng rng(26);
  grow(h, gen, rng, 120, 0.01);
  Rng pick(27);
  for (int i = 0; i < 20; ++i) h.leave_after(0.05 * i, h.random_node(pick));
  const auto run = h.run_to_idle();
  ASSERT_FALSE(run.budget_exhausted);

  const auto report = h.verify_views();
  EXPECT_TRUE(report.converged())
      << report.stale << " stale of " << report.checked;
  EXPECT_EQ(h.node_count(), 100u);
  // The 25% loss rate really bit: drops happened and retransmission
  // recovered them.
  const auto& stats = h.network().stats();
  EXPECT_GT(stats.dropped, 0u);
  EXPECT_GT(stats.retransmits, 0u);
  EXPECT_EQ(h.network().in_flight(), 0u);
  h.overlay().check_invariants();
}

TEST(ProtocolEngine, DuplicateDeliveriesAreSuppressed) {
  // With loss on, some acks are lost, so retransmissions produce
  // duplicate arrivals; the transport must deliver each logical message
  // at most once.
  HarnessConfig config = small_config();
  config.network.latency = LatencyModel::fixed(0.01);
  config.network.drop_probability = 0.3;
  ProtocolHarness h(config);
  workload::PointGenerator gen(workload::DistributionConfig::uniform());
  Rng rng(28);
  grow(h, gen, rng, 80, 0.01);
  EXPECT_GT(h.network().stats().duplicates, 0u);
  EXPECT_TRUE(h.verify_views().converged());
}

TEST(ProtocolEngine, VoluntaryLeavesDisseminate) {
  ProtocolHarness h(small_config());
  workload::PointGenerator gen(workload::DistributionConfig::uniform());
  Rng rng(29);
  grow(h, gen, rng, 150);
  Rng pick(30);
  for (int i = 0; i < 50; ++i) {
    h.leave(h.random_node(pick));
    const auto run = h.run_to_idle();
    ASSERT_FALSE(run.budget_exhausted);
  }
  EXPECT_EQ(h.node_count(), 100u);
  EXPECT_TRUE(h.verify_views().converged());
  EXPECT_GT(h.network().metrics().messages(sim::MessageKind::kLeaveNotify),
            0u);
  h.overlay().check_invariants();
}

TEST(ProtocolEngine, CrashStopRepairsAndReconverges) {
  HarnessConfig config = small_config();
  config.network.latency = LatencyModel::fixed(0.01);
  config.failure_detect_delay = 0.5;
  ProtocolHarness h(config);
  workload::PointGenerator gen(workload::DistributionConfig::uniform());
  Rng rng(31);
  grow(h, gen, rng, 120);
  Rng pick(32);
  for (int i = 0; i < 10; ++i) {
    const NodeId victim = h.random_node(pick);
    h.crash(victim);
    const auto run = h.run_to_idle();
    ASSERT_FALSE(run.budget_exhausted);
    EXPECT_FALSE(h.overlay().contains(victim));
  }
  EXPECT_EQ(h.node_count(), 110u);
  EXPECT_TRUE(h.verify_views().converged());
  h.overlay().check_invariants();
}

TEST(ProtocolEngine, CrashDuringInFlightJoinsLosesNoJoin) {
  // A node crashes while join chains are routing through it: the
  // transport abandons the stranded hops (on either side -- a crash-stop
  // sender stops retransmitting too), the harness reroutes the chains
  // and re-ships orphaned view updates from live witnesses, and recycled
  // vertex ids must not inherit the crashed mark.  Loss is on so
  // sender-crash abandonment actually triggers.
  HarnessConfig config = small_config();
  config.network.latency = LatencyModel::uniform(0.02, 0.1);
  config.network.drop_probability = 0.15;
  config.failure_detect_delay = 0.3;
  ProtocolHarness h(config);
  workload::PointGenerator gen(workload::DistributionConfig::uniform());
  Rng rng(36);
  grow(h, gen, rng, 100);
  Rng pick(37);
  // 40 joins spread over 2 time units, with 5 crashes landing mid-burst.
  for (int i = 0; i < 40; ++i) h.join_after(0.05 * i, gen.next(rng));
  for (int i = 0; i < 5; ++i) {
    h.queue().schedule(0.3 * (i + 1),
                       [&h, &pick] { h.crash(h.random_node(pick)); });
  }
  const auto run = h.run_to_idle();
  ASSERT_FALSE(run.budget_exhausted);
  EXPECT_EQ(h.pending_joins(), 0u);
  EXPECT_EQ(h.node_count(), 135u);  // 100 + 40 joins - 5 crashes
  // Keep joining after the crashes: recycled ids must be reachable.
  grow(h, gen, rng, 40, 0.01);
  EXPECT_EQ(h.node_count(), 175u);
  EXPECT_TRUE(h.verify_views().converged());
  h.overlay().check_invariants();
}

TEST(ProtocolEngine, ReviveAbandonsPredecessorEraTransfers) {
  // The surgical transport-level contract behind id recycling: reviving
  // an id must abandon every reliable transfer still armed from the dead
  // predecessor's era -- on BOTH sides.  Before the fix, revive() only
  // cleared the dedup table, so a predecessor-era retransmission was
  // delivered to the brand-new endpoint (receiver side), and a dead
  // sender's unacked transfers came back to life with the recycled id.
  NetworkConfig config;
  config.latency = LatencyModel::fixed(0.05);
  SimTransport net(config);
  sim::EventQueue& queue = net.queue();
  std::size_t delivered = 0;
  std::vector<Message> abandoned;
  net.set_sink([&](const Message&) { ++delivered; });
  net.set_abandon_handler([&](const Message& m) { abandoned.push_back(m); });

  // Receiver side: 1 -> 2 in flight when 2 crashes.
  Message to_victim;
  to_victim.type = sim::MessageKind::kVoronoiUpdate;
  to_victim.src = 1;
  to_victim.dst = 2;
  net.send(to_victim);
  // Sender side: 2 -> 3, dropped by a transient fault (simulated by
  // crashing the sender before the ack can settle the transfer).
  Message from_victim;
  from_victim.type = sim::MessageKind::kCloseNeighbor;
  from_victim.src = 2;
  from_victim.dst = 2;  // self-addressed: dies with the endpoint
  net.send(from_victim);
  net.crash(2);
  (void)queue.run_until(0.06);  // arrivals dropped at the dead endpoint
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(net.in_flight(), 2u);

  // The id is recycled for a brand-new node before the retransmit
  // timers fire: both predecessor-era transfers must be abandoned NOW
  // (with the crashed mark still visible to the abandon handler) ...
  net.revive(2);
  EXPECT_EQ(net.in_flight(), 0u);
  ASSERT_EQ(abandoned.size(), 2u);
  EXPECT_EQ(net.stats().abandoned, 2u);

  // ... and nothing stale may reach the new endpoint afterwards.
  const auto run = queue.run_to_idle();
  ASSERT_FALSE(run.budget_exhausted);
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(net.stats().retransmits, 0u);

  // The recycled endpoint is fully functional for fresh traffic.
  Message fresh;
  fresh.type = sim::MessageKind::kVoronoiUpdate;
  fresh.src = 1;
  fresh.dst = 2;
  net.send(fresh);
  (void)queue.run_to_idle();
  EXPECT_EQ(delivered, 1u);
}

TEST(ProtocolEngine, RecycledIdInheritsNoPredecessorTransfers) {
  // Regression: revive() cleared the recycled id's receiver-side
  // dedup but left predecessor-era reliable transfers armed, so a
  // retransmission addressed to (or sent by) the dead predecessor could
  // deliver stale view content to the brand-new endpoint -- content with
  // a version counter ahead of the fresh node's zero, hence applied.
  // Crash a node and immediately rejoin while its transfers are still in
  // their retransmission window: the recycled id must come up clean and
  // the system must converge exactly.
  HarnessConfig config = small_config();
  config.network.latency = LatencyModel::uniform(0.02, 0.1);
  config.network.drop_probability = 0.3;  // keep retransmissions armed
  config.failure_detect_delay = 0.3;
  ProtocolHarness h(config);
  workload::PointGenerator gen(workload::DistributionConfig::uniform());
  Rng rng(38);
  grow(h, gen, rng, 100, 0.005);
  Rng pick(39);
  for (int i = 0; i < 8; ++i) {
    // Crash mid-traffic (joins in flight address the victim too), then
    // join immediately: the freed vertex id is recycled while transfers
    // from the victim's era are still pending.
    h.join_after(0.0, gen.next(rng));
    h.crash(h.random_node(pick));
    h.join_after(0.01, gen.next(rng));
    const auto run = h.run_to_idle();
    ASSERT_FALSE(run.budget_exhausted);
  }
  EXPECT_EQ(h.pending_joins(), 0u);
  EXPECT_EQ(h.node_count(), 108u);  // 100 + 16 joins - 8 crashes
  EXPECT_FALSE(h.repair_in_flight());
  const auto report = h.verify_views();
  EXPECT_TRUE(report.converged())
      << report.stale << " stale, " << report.dangling << " dangling of "
      << report.checked;
  h.overlay().check_invariants();
}

TEST(ProtocolEngine, RepairWindowIsVisibleAndStrictVerifyResumes) {
  // verify_views() tolerates dangling long-link holders only while a
  // crash's failure-detection window is open; afterwards the strict
  // audit (report.dangling) is back in force.
  HarnessConfig config = small_config();
  config.network.latency = LatencyModel::fixed(0.01);
  config.failure_detect_delay = 0.5;
  ProtocolHarness h(config);
  workload::PointGenerator gen(workload::DistributionConfig::uniform());
  Rng rng(40);
  grow(h, gen, rng, 80);
  EXPECT_FALSE(h.repair_in_flight());

  Rng pick(41);
  h.crash(h.random_node(pick));
  const auto mid = h.run_until(h.queue().now() + 0.25);
  ASSERT_FALSE(mid.budget_exhausted);
  EXPECT_TRUE(h.repair_in_flight());  // detection delay not yet elapsed

  const auto run = h.run_to_idle();
  ASSERT_FALSE(run.budget_exhausted);
  EXPECT_FALSE(h.repair_in_flight());
  const auto report = h.verify_views();
  EXPECT_TRUE(report.converged());
  EXPECT_EQ(report.dangling, 0u);
  h.overlay().check_invariants();
}

TEST(ProtocolEngine, PartitionStallsThenHeals) {
  HarnessConfig config = small_config();
  config.network.latency = LatencyModel::fixed(0.02);
  ProtocolHarness h(config);
  workload::PointGenerator gen(workload::DistributionConfig::uniform());
  Rng rng(33);
  grow(h, gen, rng, 100);

  // Cut the network along x = 1/2 (node positions are immutable, so the
  // filter can consult the ground truth).
  const Overlay& overlay = h.overlay();
  const auto side = [&overlay](NodeId n) {
    return overlay.contains(n) ? overlay.position(n).x < 0.5 : true;
  };
  h.network().set_link_filter(
      [side](NodeId a, NodeId b) { return side(a) == side(b); });

  for (int i = 0; i < 30; ++i) h.join_after(0.01 * i, gen.next(rng));
  const double partition_end = h.queue().now() + 20.0;
  const auto during = h.run_until(partition_end);
  ASSERT_FALSE(during.budget_exhausted);
  // Cross-cut dissemination (and the occasional cross-cut route hop) is
  // stuck: either some views are stale or some joins cannot finish.
  const auto stalled = h.verify_views();
  EXPECT_TRUE(stalled.stale > 0 || h.pending_joins() > 0 ||
              h.network().in_flight() > 0);

  h.network().clear_link_filter();
  const auto after = h.run_to_idle();
  ASSERT_FALSE(after.budget_exhausted);
  EXPECT_EQ(h.pending_joins(), 0u);
  EXPECT_EQ(h.node_count(), 130u);
  EXPECT_TRUE(h.verify_views().converged());
  h.overlay().check_invariants();
}

TEST(ProtocolEngine, PowerLawWorkloadConverges) {
  // Clustered workloads exercise the close-neighbour machinery (dense
  // cn sets) through the message path.
  HarnessConfig config = small_config();
  config.overlay.n_max = 2048;  // larger dmin -> non-trivial cn sets
  config.network.latency = LatencyModel::uniform(0.0, 0.05);
  ProtocolHarness h(config);
  workload::PointGenerator gen(workload::DistributionConfig::power_law(2.0));
  Rng rng(34);
  grow(h, gen, rng, 250, 0.005);
  EXPECT_TRUE(h.verify_views().converged());
  EXPECT_GT(h.network().metrics().messages(sim::MessageKind::kCloseNeighbor),
            0u);
  h.overlay().check_invariants();
}

TEST(ProtocolEngine, DeterministicAcrossRuns) {
  const auto run_once = [] {
    HarnessConfig config = small_config();
    config.network.latency = LatencyModel::lognormal(0.001, 0.02, 0.8);
    config.network.drop_probability = 0.1;
    ProtocolHarness h(config);
    workload::PointGenerator gen(workload::DistributionConfig::uniform());
    Rng rng(35);
    for (std::size_t i = 0; i < 120; ++i) {
      h.join_after(0.003 * static_cast<double>(i), gen.next(rng));
    }
    h.run_to_idle();
    return std::tuple{h.network().stats().transmissions,
                      h.network().stats().dropped,
                      h.network().metrics().total_messages(),
                      h.queue().processed(), h.last_apply_time()};
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace voronet::protocol
