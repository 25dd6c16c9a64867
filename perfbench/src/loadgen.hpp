// The load generator: open-loop Poisson phases against a query target,
// and the saturation-knee search over them.
//
// A phase draws its whole arrival schedule up front, in modelled time,
// and the engine on this thread serves it as a single server would:
// whenever the engine goes idle it takes every query that has arrived by
// then, submits them together and runs the system until all of them are
// answered or shed.  That run's CPU time is the time the engine was busy,
// every query of the run is answered at its end, and queries arriving
// meanwhile wait for the next run.  So a backlog grows into larger runs
// (the serving layer's batches fill and its admission bound sheds), and
// latency, timed from the scheduled arrival, is queueing plus service.
// Nothing sleeps, and a host that deschedules the thread is not billed to
// the engine.  Grading runs after each run, outside the timed window, on
// the topology the queries were served on.
#pragma once

#include <cstddef>
#include <functional>
#include <string_view>
#include <vector>

#include "common.hpp"
#include "common/rng.hpp"
#include "geometry/vec2.hpp"

namespace perfbench {

/// One region query: a disk (centre a, radius tol) or a segment [a, b]
/// inflated by tol.
struct Query {
  bool range = false;
  voronet::Vec2 a, b;
  double tol = 0.0;
};

/// What became of one submitted query.
struct Outcome {
  bool answered = false;  ///< an answer (not a rejection) arrived
  bool rejected = false;  ///< shed at admission
  double server_s = -1.0;  ///< server-side latency, when the target knows it
};

/// A system the load generator drives on this thread.  Implementations
/// record a span around each call they make into the system, under the
/// span of the phase that drives them.
class Target {
 public:
  explicit Target(SpanLog& log) : log_(log) {}
  virtual ~Target() = default;
  Target(const Target&) = delete;
  Target& operator=(const Target&) = delete;

  void set_parent_span(voronet::obs::SpanId parent) { parent_ = parent; }

  /// Forget the previous phase; the next one submits `n` queries.
  virtual void begin_phase(std::size_t n) = 0;
  /// Submit query `i` of the phase now (timed).
  virtual void submit(std::size_t i, const Query& q) = 0;
  /// Run the system until it is idle (timed).
  virtual void run() = 0;
  /// Grade the queries submitted since the last grade() against ground
  /// truth on the current topology and fill in their outcomes (untimed).
  virtual void grade() = 0;
  [[nodiscard]] virtual const Outcome& outcome(std::size_t i) const = 0;
  /// Answers graded this phase, and how many of them were inexact.
  [[nodiscard]] virtual std::size_t graded() const = 0;
  [[nodiscard]] virtual std::size_t inexact() const = 0;

 protected:
  SpanLog& log_;
  voronet::obs::SpanId parent_ = voronet::obs::kNoSpan;
};

/// Answers per p99 window: ten samples beyond the 99th percentile.
inline constexpr std::size_t kP99Window = 1000;
/// Queries per throughput chunk (PhaseResult::chunk_rates).
inline constexpr std::size_t kRateChunk = 500;

/// The p99 of each run of `window` consecutive values (in arrival
/// order); a shorter tail joins the last window.
std::vector<double> window_p99s(const std::vector<double>& in_order,
                                std::size_t window);

struct PhaseResult {
  double rate = 0.0;     ///< nominal Poisson rate
  double offered_rate = 0.0;  ///< realised: arrivals per second of the schedule
  std::size_t offered = 0, answered = 0, rejected = 0, unanswered = 0;
  std::size_t graded = 0, inexact = 0;
  std::size_t runs = 0;   ///< engine runs (each serves every query then due)
  double service_s = 0.0;  ///< CPU time of the runs
  /// Queries per CPU-second of the runs that served each consecutive
  /// kRateChunk queries (the whole phase when it is shorter); their
  /// median shrugs off a stall in a few.
  std::vector<double> chunk_rates;
  bool drained = false;
  double drain_ms = 0.0;  ///< last arrival -> last answer
  std::vector<double> latency_ms;   ///< answered, from scheduled arrival
  std::vector<double> server_ms;    ///< server-side latency (when known)
  /// p99 of each window of kP99Window consecutive answers.  p99() is
  /// their median: one window's burst of stalls does not set it.
  std::vector<double> window_p99s;

  [[nodiscard]] double p50() const { return percentile(latency_ms, 0.50); }
  [[nodiscard]] double p99() const { return median(window_p99s); }
  /// Failed operations: rejected, unanswered or inexact.
  [[nodiscard]] std::size_t failed() const {
    return rejected + unanswered + inexact;
  }
  /// The knee criteria: every query answered exactly, the phase drained,
  /// and p99 within the limit.
  [[nodiscard]] bool passes(double p99_limit_ms) const {
    return drained && failed() == 0 && p99() <= p99_limit_ms;
  }
  /// Fold in a later segment of the same phase (same rate): counts and
  /// times add up, samples and windows join, and the phase drained when
  /// every segment did.
  void merge(const PhaseResult& later);
};

/// A write (join, leave) competing with a phase's queries for the
/// engine, at modelled time `at` from the phase start.  It runs alone,
/// to completion, before any query the engine has not yet taken up.
struct ModelledWrite {
  double at = 0.0;
  std::function<void()> apply;  ///< runs the write to completion
};

/// Run one open-loop phase of `queries` at Poisson `rate` (1/s).  The
/// phase drained when every query was answered or shed and the last
/// answer came within `drain_bound_s` of the last arrival.
PhaseResult run_phase(Target& target, const std::vector<Query>& queries,
                      double rate, voronet::Rng& rng, double drain_bound_s,
                      SpanLog& log, std::string_view span_name,
                      const std::vector<ModelledWrite>& writes = {});

/// Outcome of one knee probe.
struct Probe {
  bool pass = false;
  /// The probe did not drain in bounded time: no further probes.
  bool abort = false;
  /// The rate the probe really offered (its Poisson schedule's), read as
  /// the knee when it is the highest pass; 0 = the nominal rate.
  double offered = 0.0;
};

struct KneeResult {
  double knee = 0.0;  ///< offered rate of the highest passing probe
                      ///< (floor_rate if none passed)
  bool found = false; ///< some rate passed
  std::vector<std::pair<double, bool>> trail;  ///< (rate, passed) per probe
};

/// Saturation-knee search.  `start` is the already measured first rung
/// (its nominal rate, verdict and offered rate).  From there the search
/// climbs (passing) or descends (failing) a geometric ladder of ratio
/// `step` until the verdict flips, then bisects the last bracket in log
/// space `refine` times.  At most `max_probes` probes run; an aborted
/// probe ends the search.  The search never descends below `floor_rate`,
/// which is also the reading when nothing passed.
KneeResult search_knee(double start_rate, const Probe& start, double step,
                       int refine, int max_probes, double floor_rate,
                       const std::function<Probe(double)>& probe);

}  // namespace perfbench
