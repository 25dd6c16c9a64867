// Open-loop Poisson query stream + SLO grading for the serving layer.
//
// "Open loop" is the load-testing discipline: arrival instants are drawn
// ONCE from a Poisson process and never wait for responses, so a slow
// server faces a growing backlog instead of a conveniently self-throttled
// client (the coordinated-omission trap).  run_open_loop schedules every
// arrival on the transport clock up front, lets the transport drain, and
// measures each query's latency from its SCHEDULED arrival -- on
// ThreadTransport these are real wall-clock milliseconds, on SimTransport
// virtual seconds (same code, per the transport seam).
//
// The schedule, the latency summary and the grader below are the ONE
// copy of each: net::run_open_loop_remote and net::ServedShard reuse them
// for the socket-served path, so a remote cell offers the same arrival
// process and is graded the same way as an in-process one.
//
// Grading: after quiescence, every ticket whose completion was stamped
// with the FINAL topology version is compared against sequential ground
// truth (scan the live roster through voronet::site_within_tolerance).
// Tickets completed at an older version answered a topology that no
// longer exists -- exact then, ungradable now -- so churn runs grade the
// post-churn tail only.  On a churn-free run every completed ticket is
// graded and the acceptance gate is recall == precision == 1.0.
#pragma once

#include <cstdint>
#include <vector>

#include "serve/query_server.hpp"

namespace voronet::serve {

struct LoadConfig {
  double rate = 200.0;       ///< mean arrivals per transport-second
  double duration = 1.0;     ///< arrival window (transport clock)
  double radius = 0.05;      ///< radius-query radius
  double range_fraction = 0.25;  ///< fraction submitted as range queries
  double range_tol = 0.02;       ///< tolerance of range queries
  double hotspot_fraction = 0.5; ///< arrivals aimed at one hot cell
  std::uint64_t seed = 0x10adULL;
};

struct LoadReport {
  std::uint64_t offered = 0;    ///< arrivals scheduled
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;  ///< answered (cache or flood)
  std::uint64_t cache_hits = 0;
  std::uint64_t batches = 0;    ///< region floods issued
  double completion_rate = 0.0; ///< completed / offered
  bool drained = false;         ///< transport reached quiescence

  // Latency over answered queries (transport-clock seconds).
  double p50 = 0.0;
  double p99 = 0.0;
  double max_latency = 0.0;
  double mean_latency = 0.0;

  // Exactness over tickets completed at the final topology version.
  std::uint64_t graded = 0;
  double recall = 1.0;
  double precision = 1.0;
};

/// One arrival of the open-loop schedule.
struct Arrival {
  double t = 0.0;  ///< offset from the stream start
  bool range = false;
  Vec2 a, b;       ///< range segment; a radius query uses `a` only
  double tol = 0.0;  ///< range tolerance, or the radius
};

/// The whole Poisson arrival schedule of `config`, drawn up front from
/// its seed: open-loop arrivals never react to service times.
std::vector<Arrival> draw_arrivals(const LoadConfig& config);

/// Fill `report`'s latency fields from `latencies` (answered queries,
/// sorted in place) and its completion_rate from offered / completed.
void summarize(std::vector<double>& latencies, LoadReport& report);

/// Exactness of the tickets completed at the harness's CURRENT topology
/// version, against a roster scan through the one site predicate.
struct Grade {
  std::uint64_t graded = 0;
  double recall = 1.0;
  double precision = 1.0;
};
Grade grade_tickets(const protocol::ProtocolHarness& harness,
                    const QueryServer& server,
                    const std::vector<QueryServer::TicketId>& tickets);

/// Drive `server` with an open-loop Poisson stream, drain the transport,
/// grade, and report.  The harness must already hold a converged overlay.
LoadReport run_open_loop(protocol::ProtocolHarness& harness,
                         QueryServer& server, const LoadConfig& config);

}  // namespace voronet::serve
