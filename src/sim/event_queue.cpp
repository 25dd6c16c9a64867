#include "sim/event_queue.hpp"

#include <utility>

#include "common/expect.hpp"

namespace voronet::sim {

namespace {
constexpr std::size_t kArity = 4;
}  // namespace

void EventQueue::schedule(double delay, Handler fn) {
  push(delay, std::move(fn));
}

TimerId EventQueue::schedule_timer(double delay, Handler fn) {
  const std::uint32_t slot = push(delay, std::move(fn));
  return static_cast<TimerId>(slots_[slot].gen) << 32 | slot;
}

std::uint32_t EventQueue::push(double delay, Handler fn) {
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
  heap_.emplace_back();
  sift_up(heap_.size() - 1, Node{now_ + delay, next_seq_++, slot});
  return slot;
}

bool EventQueue::cancel(TimerId id) {
  const auto slot = static_cast<std::uint32_t>(id);
  if (slot >= slots_.size()) return false;
  const Slot& s = slots_[slot];
  if (s.pos == kFree || s.gen != static_cast<std::uint32_t>(id >> 32)) {
    return false;
  }
  erase_at(s.pos);
  release(slot);  // the handler (and its captures) dies here
  return true;
}

bool EventQueue::step() {
  if (heap_.empty()) return false;
  const Node top = heap_.front();
  erase_at(0);
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

void EventQueue::erase_at(std::size_t i) {
  const Node last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;
  if (i > 0 && before(last, heap_[(i - 1) / kArity])) {
    sift_up(i, last);
  } else {
    sift_down(i, last);
  }
}

void EventQueue::sift_up(std::size_t i, Node n) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!before(n, heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, n);
}

void EventQueue::sift_down(std::size_t i, Node n) {
  const std::size_t size = heap_.size();
  for (;;) {
    const std::size_t first = i * kArity + 1;
    if (first >= size) break;
    const std::size_t end = first + kArity < size ? first + kArity : size;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], n)) break;
    place(i, heap_[best]);
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
  while (!heap_.empty() && heap_.front().at <= horizon) {
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
