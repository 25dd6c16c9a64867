// Differential query harness: every query runs twice.
//
//   * once on the sequential ground truth (voronet::range_query /
//     radius_query over the shared Overlay -- cell geometry and view
//     reads with message *accounting*);
//   * once through the message-level engine (ProtocolHarness's kQuery /
//     kQueryForward / kQueryResult protocol over per-node local views,
//     with real latency, loss and retransmission).
//
// At quiescence with converged views the two executions must agree
// exactly -- same served-cell set, same match set -- which
// run_range()/run_radius() check per query and
// tests/query_engine_test.cpp asserts across a latency x loss sweep.
// The logical message counts additionally agree whenever no
// retransmission occurred (fixed latency, zero loss; a retransmission
// that slips the transport dedup draws one extra rejection reply), so
// counts_match is asserted only there.
// Under staleness (views still converging while the query runs) the
// message execution legitimately loses coverage; recall() quantifies it
// against the ground truth instead of asserting.
//
// Workload injection speaks the scenario event vocabulary
// (src/scenario/events.hpp): schedule_event() schedules one declarative
// timeline event -- join bursts, leaves, crashes, revives, partitions,
// queries -- on the harness's event queue, drawing every stochastic
// choice from a shared ScheduleContext so a timeline replays bit-for-bit
// from its seed.  scenario::Runner composes these into full scenario
// executions.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "protocol/harness.hpp"
#include "scenario/events.hpp"
#include "voronet/queries.hpp"
#include "workload/distributions.hpp"

namespace voronet::protocol {

class QueryHarness {
 public:
  explicit QueryHarness(const HarnessConfig& config) : harness_(config) {}

  /// Grow the population through message-level joins and quiesce.
  void populate(std::size_t objects, std::uint64_t seed,
                double spacing = 0.01);
  /// Same, with an explicit join-position workload.
  void populate(std::size_t objects, std::uint64_t seed,
                const workload::DistributionConfig& dist, double spacing);

  /// One differential execution: both layers, compared field by field.
  struct Differential {
    RegionQueryResult truth;           ///< sequential ground-truth result
    ProtocolHarness::QueryRecord msg;  ///< message-level outcome
    bool completed = false;   ///< the final aggregate reached the issuer
    bool owners_match = false;   ///< served-cell sets identical
    bool matches_match = false;  ///< predicate-match sets identical
    /// Forward/result counts identical.  Deterministic only without
    /// retransmission AND within a single flood epoch: the message side
    /// accumulates every epoch's cost, the sequential side always serves
    /// in one (see the epoch extension of the counting model in
    /// queries.hpp), so a re-issued query legitimately reports more.
    bool counts_match = false;

    /// The quiescence contract: identical result sets, delivered.
    [[nodiscard]] bool identical() const {
      return completed && owners_match && matches_match;
    }
    /// Fraction of ground-truth matches the message execution found (the
    /// staleness metric).  An empty truth set demands an empty message
    /// result: reporting 1.0 regardless would hide false positives.
    [[nodiscard]] double recall() const;
    /// Fraction of message-side matches that are ground-truth matches
    /// (1 when the message side found nothing: no false positives).
    [[nodiscard]] double precision() const;
  };

  /// Issue the query at both layers, run the network to quiescence, and
  /// compare.  The overlay must be quiet (no joins in flight) for the
  /// comparison to be meaningful as an assertion.
  Differential run_range(NodeId from, Vec2 a, Vec2 b, double tolerance);
  Differential run_radius(NodeId from, Vec2 center, double radius);

  /// Asynchronous issue for batched latency measurements: the query is
  /// NOT run to quiescence here; call harness().run_to_idle() (or
  /// run_until) and collect() afterwards.  `delay` spaces issues in
  /// simulated time.
  std::uint64_t issue_range(NodeId from, Vec2 a, Vec2 b, double tolerance,
                            double delay = 0.0) {
    return harness_.issue_range_query(from, a, b, tolerance, delay);
  }
  std::uint64_t issue_radius(NodeId from, Vec2 center, double radius,
                             double delay = 0.0) {
    return harness_.issue_radius_query(from, center, radius, delay);
  }
  /// Grade a previously issued query against the CURRENT ground truth.
  [[nodiscard]] Differential collect(std::uint64_t query_id) const;

  // --- Scenario event scheduling -------------------------------------------

  /// Shared mutable state of one scheduled timeline: the Rng every
  /// stochastic choice draws from, the join-position workload, and the
  /// counters / stacks the fire-time callbacks update.  Held by
  /// shared_ptr because Poisson streams re-arm themselves from inside
  /// scheduled closures.
  struct ScheduleContext {
    ScheduleContext(std::uint64_t seed,
                    const workload::DistributionConfig& dist)
        : rng(seed), points(dist) {}

    Rng rng;
    workload::PointGenerator points;
    std::vector<std::uint64_t> query_ids;  ///< every query issued
    std::size_t joins = 0;    ///< joins scheduled (bursts + revives)
    std::size_t leaves = 0;   ///< leaves executed (floor skips excluded)
    std::size_t crashes = 0;  ///< crashes executed
    std::size_t revives = 0;  ///< crash positions rejoined
    std::size_t stalls = 0;   ///< stall windows opened (gray failures)
    /// Positions of crashed nodes, most recent last (kRevive pops here).
    std::vector<Vec2> crashed_positions;
  };

  /// Schedule every operation of one timeline event at absolute times
  /// `t0 + event.at [+ spread]` on the harness's event queue.  Barrier
  /// kinds (kQuiesce / kVerifyBarrier) sequence the *run*, not the
  /// queue, and are rejected here -- scenario::Runner handles them.
  void schedule_event(const scenario::Event& event, double t0,
                      const std::shared_ptr<ScheduleContext>& ctx);

  [[nodiscard]] ProtocolHarness& harness() { return harness_; }
  [[nodiscard]] const ProtocolHarness& harness() const { return harness_; }
  [[nodiscard]] Overlay& overlay() { return harness_.overlay(); }

 private:
  [[nodiscard]] Differential grade(std::uint64_t query_id,
                                   const RegionQueryResult& truth) const;

  /// Issue one query with geometry from the event (or drawn scale-free
  /// from ctx->rng) at `delay` from now.
  void issue_scenario_query(const scenario::Event& event, bool range,
                            double delay,
                            const std::shared_ptr<ScheduleContext>& ctx);
  /// Fire-time bodies of the membership / gray-failure events.
  void fire_leave(const std::shared_ptr<ScheduleContext>& ctx,
                  std::size_t floor, scenario::Target target);
  void fire_crash(const std::shared_ptr<ScheduleContext>& ctx,
                  std::size_t floor, scenario::Target target);
  void fire_stall(const std::shared_ptr<ScheduleContext>& ctx,
                  std::size_t floor, scenario::Target target,
                  double duration);
  /// Resolve a victim selector against the population alive right now.
  /// kUniformTarget draws from ctx's Rng; the adversarial selectors scan
  /// the overlay ground truth (the simulator's stand-in for the
  /// adversary's global knowledge) and break ties towards the smallest
  /// id, so replays stay bit-identical.
  [[nodiscard]] NodeId select_target(scenario::Target target, Rng& rng) const;

  ProtocolHarness harness_;
};

}  // namespace voronet::protocol
