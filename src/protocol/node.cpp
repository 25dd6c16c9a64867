#include "protocol/node.hpp"

#include <algorithm>

#include "common/expect.hpp"

namespace voronet::protocol {

ViewComponent component_of(sim::MessageKind kind) {
  for (const ViewComponent c : kViewComponents) {
    if (update_kind(c) == kind) return c;
  }
  VORONET_EXPECT(false, "not a view-update message");
  return ViewComponent::kVn;
}

ProtocolNode::Route ProtocolNode::greedy_step(Vec2 target,
                                              const ViewArena& arena) const {
  double best = dist2(position_, target);
  NodeId next = kNoNode;
  for (const ViewSpan& component : views_) {
    for (const ViewEntry& e : arena.view(component)) {
      const double d = dist2(e.pos, target);
      // Strict improvement over the current best; ties break towards the
      // smaller id so routing is deterministic regardless of scan order.
      if (d < best || (d == best && next != kNoNode && e.id < next)) {
        best = d;
        next = e.id;
      }
    }
  }
  if (next == kNoNode) return {true, kNoNode};
  return {false, next};
}

bool ProtocolNode::apply_update(const Message& m, ViewArena& arena) {
  const auto c = static_cast<std::size_t>(component_of(m.type));
  if (m.version <= versions_[c]) return false;
  arena.assign(views_[c], m.entries);
  versions_[c] = m.version;
  return true;
}

void ProtocolNode::forget_peer(NodeId peer, Vec2 peer_position,
                               ViewArena& arena) {
  for (ViewSpan& component : views_) {
    const std::span<ViewEntry> view = arena.mutate(component);
    const auto end = std::remove_if(view.begin(), view.end(),
                                    [&](const ViewEntry& e) {
                                      return e.id == peer &&
                                             e.pos == peer_position;
                                    });
    arena.shrink(component,
                 static_cast<std::size_t>(end - view.begin()));
  }
}

void ProtocolNode::release(ViewArena& arena) {
  for (ViewSpan& component : views_) arena.release(component);
  versions_ = {};
}

}  // namespace voronet::protocol
