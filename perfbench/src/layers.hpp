// Per-layer probes that run beside a workload in the traced run: the
// wire codec over the run's frame mix, the event queue at the run's
// depth, and a replay of the run's membership changes into a standalone
// ground-truth Overlay.
#pragma once

#include <vector>

#include "common.hpp"
#include "geometry/vec2.hpp"
#include "voronet/config.hpp"

namespace perfbench {

struct CodecCost {
  double encode_ns = 0.0;  ///< per frame
  double decode_ns = 0.0;  ///< per frame
};

/// encode_frame / decode_frame timed over a frame mix that reproduces
/// the per-kind message counts and mean frame sizes of `traffic`.
CodecCost time_codec(const Snapshot& traffic, SpanLog& log);

/// EventQueue::schedule + step with no-op handlers, `depth` events
/// pending throughout; ns per schedule+step pair.
double time_event_queue(std::size_t depth, std::uint64_t seed, SpanLog& log);

/// One membership change of a workload, in execution order.
struct MembershipOp {
  enum Kind : std::uint8_t { kJoin, kLeave, kCrash } kind = kJoin;
  voronet::Vec2 pos;
};

struct ReplayCost {
  double insert_us = 0.0;  ///< mean Overlay::insert
  double remove_us = 0.0;  ///< mean Overlay::remove (crash: crash + repair)
};

/// Replay `ops` into a standalone Overlay built with `config`, timing
/// each insert and departure call.
ReplayCost replay_overlay(const voronet::OverlayConfig& config,
                          const std::vector<MembershipOp>& ops, SpanLog& log);

}  // namespace perfbench
