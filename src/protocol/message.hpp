// Wire messages of the message-level protocol engine.
//
// The sequential overlay (src/voronet) substitutes message *accounting*
// for messages (DESIGN.md, Substitution 2).  The protocol engine removes
// that substitution: per-node state machines (protocol::ProtocolNode)
// exchange these typed messages through a protocol::Transport, whose
// reliable-delivery core applies latency, loss and failure injection on
// top of the backend's wire (sim::EventQueue in the simulator).  Message
// kinds reuse sim::MessageKind so the per-type counters of sim::Metrics
// cover both simulation styles with one taxonomy.
#pragma once

#include <cstdint>
#include <vector>

#include "geometry/vec2.hpp"
#include "obs/trace.hpp"
#include "sim/metrics.hpp"
#include "voronet/object_id.hpp"

namespace voronet::protocol {

/// Protocol-level node address.  IS the overlay's ObjectId (the ground
/// truth assigns ids; the protocol layer adopts them so differential
/// comparison is direct), and the invalid sentinel is the overlay's own
/// -- one definition in voronet/object_id.hpp instead of a parallel
/// literal that happened to coincide.
using NodeId = ObjectId;
inline constexpr NodeId kNoNode = kNoObject;
/// "No transport slot" sentinel for Message::transfer_slot.
inline constexpr std::uint32_t kNoTransferSlot = 0xffffffffu;
static_assert(kNoNode == kNoObject &&
                  kNoNode == geo::DelaunayTriangulation::kNoVertex,
              "the protocol sentinel must be the overlay's invalid id");

/// One remote-peer entry of a local view: the peer's id plus the position
/// the local node believes it has.  Positions are immutable per live
/// object, but ids are recycled across departures, so comparisons must
/// treat the pair as the identity.
struct ViewEntry {
  NodeId id = kNoNode;
  Vec2 pos;

  friend bool operator==(const ViewEntry&, const ViewEntry&) = default;
};

/// Which region-query style a kQuery / kQueryForward / kQueryResult
/// message serves (voronet::range_query / radius_query at message level).
enum class QueryKind : std::uint8_t {
  kRange,   ///< segment [a, b] inflated by `tol`
  kRadius,  ///< disk around `a` of radius `tol` (b unused)
};

/// Region-query payload carried by the three query message kinds.  The
/// spec travels with every hop so any node can evaluate the geometric
/// tests; `issuer` is where the final aggregate returns.
struct QuerySpec {
  QueryKind kind = QueryKind::kRadius;
  Vec2 a;            ///< segment start / disk centre
  Vec2 b;            ///< segment end (kRange only)
  double tol = 0.0;  ///< tolerance (kRange) / radius (kRadius)
  NodeId issuer = kNoNode;

  /// The greedy routing target: the point whose cell owner roots the
  /// flood (the paper routes a range query to one endpoint's owner).
  [[nodiscard]] Vec2 target() const { return a; }
};

/// A network message.  One struct covers every kind (this is a simulator:
/// clarity beats compactness); which fields are meaningful depends on
/// `type`:
///   * kJoin / kRouteForward -- point (the join position), hops, and
///     version carrying the join-chain id (completion is exactly-once
///     even when a chain is rerouted around a crashed hop);
///   * kVoronoiUpdate, kCloseNeighbor, kLongLinkBind -- one view
///     component each (protocol::ViewComponent): entries (the
///     authoritative component content) and version (monotone per target
///     component; receivers discard stale or duplicate updates, which
///     makes the updates idempotent under retransmission and reordering);
///   * kLeaveNotify -- src announces its departure;
///   * kQuery -- a region query greedy-routing towards query.target();
///     version carries the query id, hops the chain length so far;
///   * kQueryForward -- cell-to-cell flood forward of the query from a
///     served cell to a neighbouring cell whose region qualifies;
///   * kQueryResult -- with query_final false, the aggregation echo (or
///     duplicate rejection) from a flood child back to its parent,
///     entries carrying the served cells of the finished subtree; with
///     query_final true, the root's aggregate to query.issuer;
///   * kQueryAbort -- the echo of a subtree that lost a branch to a
///     crash-stop failure: entries carry the cells the subtree still
///     COVERED, and the abort mark propagates to the flood root so the
///     issuer re-issues the query under a fresh epoch;
///   * kAck -- transport-internal, never reaches a node.
///
/// Query messages additionally carry `epoch`: the issuer re-issues a
/// query whose flood observed a crash or an in-flight repair, and every
/// handler discards messages whose epoch is not the query's current one,
/// so a stale echo from a failed epoch can never corrupt the fresh
/// flood's aggregate.
struct Message {
  sim::MessageKind type = sim::MessageKind::kRouteForward;
  NodeId src = kNoNode;
  NodeId dst = kNoNode;
  std::uint64_t version = 0;
  Vec2 point;
  std::uint32_t hops = 0;
  std::vector<ViewEntry> entries;
  QuerySpec query;
  bool query_final = false;
  std::uint32_t epoch = 0;  ///< query flood epoch (query kinds only)

  // Transport bookkeeping (owned by protocol::ReliableCore).
  std::uint64_t transfer_id = 0;  ///< unique per logical send, 0 = unset
  /// Transfer-slot index in the transport's slot vector; pure routing
  /// shortcut for acks/timers (the monotone transfer_id stays the
  /// transfer's identity -- the retransmit jitter hash is keyed by it,
  /// so replays depend on its numbering, never on slot recycling).
  std::uint32_t transfer_slot = kNoTransferSlot;

  /// Trace context (obs::Tracer): the span this message is causally part
  /// of -- the sender's serve/epoch/join span.  Receivers parent their
  /// events under it, which is what turns per-node events into one causal
  /// tree per query.  kNoSpan while tracing is off; never read by any
  /// protocol decision, so replays are untouched by whether a run traced.
  obs::SpanId span = obs::kNoSpan;
};

}  // namespace voronet::protocol
