// Deterministic causal tracing for the protocol engine.
//
// A Tracer collects spans (begin/end intervals) and instants (point
// events) stamped with simulated time, the node they happened on and the
// span they are causally nested under.  The harness threads span ids
// through protocol::Message, so a query's whole lifetime -- greedy route
// hops, flood forwards, echoes, aborts, epoch re-issues -- and every
// reliable transfer's attempt timeline hang off one causal tree.
//
// Zero cost when off: every record_* call is guarded by enabled(), and
// the instrumentation sites in protocol::ReliableCore / ProtocolHarness guard
// themselves too, so a disabled tracer costs one predictable branch per
// site (asserted by bench_protocol staying flat).
//
// Determinism: span ids are assigned in event-execution order, times are
// simulated times, and export uses the repo's ordered Json writer -- the
// same (scenario, seed) emits byte-identical trace JSON on every replay
// (asserted by tests/obs_test.cpp).
//
// Export is Chrome trace_event JSON ("X" complete events for spans, "i"
// instants), loadable in Perfetto / chrome://tracing: one thread track
// per node, microsecond timestamps (sim seconds x 1e6).  The causal
// parent travels in args.parent (trace_event has no native parent field
// for complete events); tools/trace_inspect rebuilds the tree from it.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace voronet {
class Json;
}

namespace voronet::obs {

/// Identifier of one span (or instant) in a Tracer; 0 = none.  Carried in
/// protocol::Message so receivers can parent their events causally.
using SpanId = std::uint64_t;
inline constexpr SpanId kNoSpan = 0;

class Tracer {
 public:
  struct Arg {
    std::string key;
    std::string value;  ///< pre-rendered
    bool numeric = false;
  };

  struct Record {
    SpanId id = kNoSpan;
    SpanId parent = kNoSpan;
    bool is_span = false;  ///< span (interval) vs instant (point)
    std::string name;
    std::int64_t node = -1;  ///< thread track (protocol node id)
    double begin = 0.0;
    /// Span end; a span never end_span()ed keeps end < begin and exports
    /// with zero duration plus an "unfinished" arg.
    double end = -1.0;
    std::vector<Arg> args;
  };

  void enable(bool on = true) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Open a span at simulated time `at` on `node`, nested under `parent`.
  /// Returns kNoSpan (and records nothing) while disabled.
  SpanId begin_span(double at, std::string_view name, std::int64_t node,
                    SpanId parent = kNoSpan);
  /// Close a span; ignores kNoSpan (so call sites need no guards beyond
  /// holding the id).
  void end_span(SpanId id, double at);
  /// Record a point event; returns its id so instants can parent others.
  SpanId instant(double at, std::string_view name, std::int64_t node,
                 SpanId parent = kNoSpan);

  /// Attach an argument to an existing record (no-op for kNoSpan).
  void arg(SpanId id, std::string_view key, std::uint64_t value);
  void arg(SpanId id, std::string_view key, std::string_view value);

  [[nodiscard]] const std::vector<Record>& records() const {
    return records_;
  }
  void clear() { records_.clear(); }

  /// {"traceEvents": [...]} -- Chrome/Perfetto trace_event JSON.
  [[nodiscard]] Json to_chrome_json() const;

 private:
  bool enabled_ = false;
  std::vector<Record> records_;  ///< id == index + 1
};

}  // namespace voronet::obs
