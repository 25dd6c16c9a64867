// Per-node protocol state machine.
//
// A ProtocolNode holds the *local* view the paper's autonomous object
// maintains -- Voronoi neighbours, close neighbours, long links -- fed
// exclusively by messages.  Nothing here reads the shared tessellation:
// between the moment the ground truth changes and the moment the update
// messages arrive, the local view is stale, and routing decisions made
// from it are exactly as wrong as a real deployment's would be.
//
// View components are versioned: an update is applied only when its
// version exceeds the component's last applied one, which makes updates
// idempotent under transport-level retransmission and safe under the
// reordering a random latency model produces.
//
// Storage: the three components are ViewSpan handles into the harness's
// shared ViewArena, not per-node heap vectors -- a node is a few dozen
// bytes of slot-table state plus its arena spans (DESIGN.md, "Memory
// layout & arenas").  Every accessor therefore takes the arena; the
// node is trivially movable and never owns heap memory directly.  The
// holder (the slot table) must call release() before discarding a node.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "protocol/message.hpp"
#include "protocol/view_arena.hpp"

namespace voronet::protocol {

/// The three components of one object's view, in the order greedy
/// routing scans them.  Each travels as its own update kind.
enum class ViewComponent : std::uint8_t {
  kVn,  ///< Voronoi neighbours (kVoronoiUpdate), sorted by id
  kCn,  ///< close neighbours (kCloseNeighbor), sorted by id
  kLr,  ///< long links (kLongLinkBind), in link-index order
};
inline constexpr std::array<ViewComponent, 3> kViewComponents = {
    ViewComponent::kVn, ViewComponent::kCn, ViewComponent::kLr};

/// The message kind that carries component `c`.
[[nodiscard]] constexpr sim::MessageKind update_kind(ViewComponent c) {
  constexpr std::array<sim::MessageKind, 3> kinds = {
      sim::MessageKind::kVoronoiUpdate, sim::MessageKind::kCloseNeighbor,
      sim::MessageKind::kLongLinkBind};
  return kinds[static_cast<std::size_t>(c)];
}
/// The component a view-update kind carries; fails the contract check on
/// any other kind.
[[nodiscard]] ViewComponent component_of(sim::MessageKind kind);

class ProtocolNode {
 public:
  ProtocolNode() = default;
  ProtocolNode(NodeId id, Vec2 position) : id_(id), position_(position) {}

  /// Outcome of one greedy routing decision over the local view.
  struct Route {
    bool terminal = false;  ///< no local entry is closer than this node
    NodeId next = kNoNode;  ///< valid when !terminal
  };

  /// The paper's Greedyneighbour on the local view: the entry of
  /// vn + cn + lr closest to the target, forwarded to only when strictly
  /// closer than this node (positions in view entries are exact and
  /// immutable, so the distance decreases strictly along a forwarding
  /// chain and protocol routing cannot cycle, however stale the views).
  [[nodiscard]] Route greedy_step(Vec2 target, const ViewArena& arena) const;

  /// Apply a view-update message (kVoronoiUpdate / kCloseNeighbor /
  /// kLongLinkBind) to its component.  Returns true when the update
  /// advanced the view, false when it was stale or a duplicate.
  bool apply_update(const Message& m, ViewArena& arena);

  /// Departure notification: drop entries matching the departed peer
  /// (id AND position -- ids are recycled, positions are not).
  void forget_peer(NodeId peer, Vec2 peer_position, ViewArena& arena);

  /// Return every span to the arena (the slot table calls this when the
  /// node deregisters; a recycled slot must inherit nothing).
  void release(ViewArena& arena);

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] Vec2 position() const { return position_; }
  [[nodiscard]] std::span<const ViewEntry> view(ViewComponent c,
                                                const ViewArena& a) const {
    return a.view(views_[static_cast<std::size_t>(c)]);
  }

 private:
  NodeId id_ = kNoNode;
  Vec2 position_{};
  /// Indexed by ViewComponent; each version is the last applied one.
  std::array<ViewSpan, 3> views_{};
  std::array<std::uint64_t, 3> versions_{};
};

}  // namespace voronet::protocol
