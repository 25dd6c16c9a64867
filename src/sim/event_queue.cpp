#include "sim/event_queue.hpp"

#include <utility>

#include "common/expect.hpp"

namespace voronet::sim {

namespace {
constexpr std::size_t kArity = 4;
}  // namespace

void EventQueue::schedule(double delay, Handler fn) {
  push(delay, std::move(fn), /*timer=*/false);
}

TimerId EventQueue::schedule_timer(double delay, Handler fn) {
  const std::uint32_t slot = push(delay, std::move(fn), /*timer=*/true);
  return static_cast<TimerId>(slots_[slot].gen) << 32 | slot;
}

std::uint32_t EventQueue::push(double delay, Handler fn, bool timer) {
  VORONET_EXPECT(delay >= 0.0, "cannot schedule into the past");
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  slots_[slot].fn = std::move(fn);
  const Node n{now_ + delay, next_seq_++, slot};
  if (timer) {
    timers_.emplace_back();
    sift_up(timers_, timers_.size() - 1, n, [this](std::size_t i, const Node& x) {
      timers_[i] = x;
      slots_[x.slot].pos = static_cast<std::uint32_t>(i);
    });
  } else {
    slots_[slot].pos = kEvent;
    events_.emplace_back();
    sift_up(events_, events_.size() - 1, n,
            [this](std::size_t i, const Node& x) { events_[i] = x; });
  }
  return slot;
}

bool EventQueue::cancel(TimerId id) {
  const auto slot = static_cast<std::uint32_t>(id);
  if (slot >= slots_.size()) return false;
  const Slot& s = slots_[slot];
  if (s.pos == kFree || s.pos == kEvent ||
      s.gen != static_cast<std::uint32_t>(id >> 32)) {
    return false;
  }
  erase_timer_at(s.pos);
  release(slot);  // the handler (and its captures) dies here
  return true;
}

bool EventQueue::step() {
  Node top;
  if (!timers_.empty() && (events_.empty() || before(timers_[0], events_[0]))) {
    top = timers_[0];
    erase_timer_at(0);
  } else if (!events_.empty()) {
    top = events_[0];
    pop_event();
  } else {
    return false;
  }
  const Handler fn = release(top.slot);
  now_ = top.at;
  ++processed_;
  fn();
  return true;
}

EventQueue::Handler EventQueue::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  Handler fn = std::move(s.fn);
  s.fn = nullptr;
  s.pos = kFree;
  if (++s.gen == 0) s.gen = 1;  // wrapped: 0 would let an id equal kNoTimer
  free_slots_.push_back(slot);
  return fn;
}

void EventQueue::pop_event() {
  const Node last = events_.back();
  events_.pop_back();
  const std::size_t size = events_.size();
  if (size == 0) return;
  // Bottom-up: walk the root's hole down to a leaf along the smaller
  // child, then sift the old last node up from there.  That node came
  // from the bottom and nearly always belongs there, so this spares the
  // comparison against it on every level of the way down.  Full groups
  // pick their smallest child without branches.
  Node* h = events_.data();
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = i * kArity + 1;
    std::size_t best;
    if (first + kArity <= size) {
      const Node* c = h + first;
      const std::size_t lo = before(c[1], c[0]) ? 1 : 0;
      const std::size_t hi = before(c[3], c[2]) ? 3 : 2;
      best = first + (before(c[hi], c[lo]) ? hi : lo);
    } else if (first < size) {
      best = first;
      for (std::size_t c = first + 1; c < size; ++c) {
        if (before(h[c], h[best])) best = c;
      }
    } else {
      break;
    }
    h[i] = h[best];
    i = best;
  }
  sift_up(events_, i, last,
          [h](std::size_t j, const Node& x) { h[j] = x; });
}

void EventQueue::erase_timer_at(std::size_t i) {
  const Node last = timers_.back();
  timers_.pop_back();
  if (i == timers_.size()) return;
  const auto place = [this](std::size_t j, const Node& x) {
    timers_[j] = x;
    slots_[x.slot].pos = static_cast<std::uint32_t>(j);
  };
  if (i > 0 && before(last, timers_[(i - 1) / kArity])) {
    sift_up(timers_, i, last, place);
  } else {
    sift_down(timers_, i, last, place);
  }
}

template <class Place>
void EventQueue::sift_up(std::vector<Node>& heap, std::size_t i, Node n,
                         Place place) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!before(n, heap[parent])) break;
    place(i, heap[parent]);
    i = parent;
  }
  place(i, n);
}

template <class Place>
void EventQueue::sift_down(std::vector<Node>& heap, std::size_t i, Node n,
                           Place place) {
  const std::size_t size = heap.size();
  for (;;) {
    const std::size_t first = i * kArity + 1;
    if (first >= size) break;
    const std::size_t end = first + kArity < size ? first + kArity : size;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (before(heap[c], heap[best])) best = c;
    }
    if (!before(heap[best], n)) break;
    place(i, heap[best]);
    i = best;
  }
  place(i, n);
}

EventQueue::RunResult EventQueue::run_to_idle(std::size_t max_events) {
  RunResult result;
  while (!idle()) {
    if (result.processed >= max_events) {
      result.budget_exhausted = true;
      break;
    }
    step();
    ++result.processed;
  }
  return result;
}

EventQueue::RunResult EventQueue::run_until(double horizon,
                                            std::size_t max_events) {
  VORONET_EXPECT(horizon >= now_, "cannot run backwards in time");
  RunResult result;
  const auto next_due = [this, horizon] {
    return (!events_.empty() && events_[0].at <= horizon) ||
           (!timers_.empty() && timers_[0].at <= horizon);
  };
  while (next_due()) {
    if (result.processed >= max_events) {
      result.budget_exhausted = true;
      return result;  // clock stays at the last executed event
    }
    step();
    ++result.processed;
  }
  now_ = horizon;
  return result;
}

}  // namespace voronet::sim
