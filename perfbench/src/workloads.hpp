// The benchmark's workloads.  Each fills a Report with every
// end-to-end metric and, on a traced run, every per-layer metric.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>

#include "common.hpp"
#include "loadgen.hpp"

namespace perfbench {

struct Options {
  std::uint64_t seed = 1;
  double seconds = 30.0;  ///< measurement budget the phase sizes target
  bool traced = false;
  bool small = false;     ///< tiny sizes, for the benchmark's own tests
  /// Fault injection for the benchmark's own tests: "views" crashes one
  /// object, undrained, right before the first membership check.
  std::string fault;
};

/// The serving phases' fixed parameters (BENCHMARK.json's workload notes
/// and README.md record the same numbers).
struct ServePlan {
  double lo_rate = 0.0;      ///< qps, fixed well below the knee
  double hi_rate = 0.0;      ///< qps, fixed below the knee
  /// Per lo / hi phase: at least three p99 windows of kP99Window answers.
  std::size_t phase_queries = 3000;
  double probe_seconds = 3.0;  ///< knee probe length at its rate ...
  std::size_t probe_min = 300;  ///< ... but at least this many queries
  /// Ladder ratio and log-space bisections after the bracket: two
  /// bisections of a 1.25 bracket resolve the knee to 6 %.  A short step
  /// keeps the first failing rung close above the knee; a rung 1.5 times
  /// above it often did not drain in bounded time, which ends the search
  /// before any bisection and left the reading 50 % coarse.
  double knee_step = 1.25;
  int knee_refine = 2;
  int knee_max_probes = 10;
  double p99_limit_ms = 100.0;
  double drain_bound_s = 5.0;  ///< a phase must drain this soon after its last arrival
};

/// Queries in a lo or hi phase at `rate`: the plan's floor, or an eighth
/// of the measurement budget when that is more.
inline std::size_t phase_queries(const ServePlan& plan, double rate,
                                 const Options& opt) {
  if (opt.small) return plan.phase_queries;
  return std::max(plan.phase_queries,
                  static_cast<std::size_t>(rate * opt.seconds / 8.0));
}

/// Queries in a knee probe at `rate`: long enough in time that a backlog
/// growing above capacity shows in p99.
inline std::size_t probe_queries(const ServePlan& plan, double rate,
                                 const Options& opt) {
  if (opt.small) return plan.probe_min;
  return std::max(plan.probe_min,
                  static_cast<std::size_t>(rate * plan.probe_seconds));
}

/// The lo / hi / knee metrics every workload reports; the phases and
/// the knee trail also go to stderr, for the human reading the run.
void serve_phase_metrics(Report& r, const PhaseResult& lo,
                         const PhaseResult& hi, const KneeResult& knee);

void run_sim_grow_churn(const Options& opt, Report& r, SpanLog& log);
void run_sim_serve_zipf_writes(const Options& opt, Report& r, SpanLog& log);

}  // namespace perfbench
