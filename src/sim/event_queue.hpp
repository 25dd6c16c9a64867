// Discrete-event engine for the message-passing overlay simulation.
//
// Events are closures ordered by (virtual time, insertion sequence); ties
// resolve in FIFO order so runs are fully deterministic.  The overlay
// protocol schedules one event per network message (the paper's Spawn),
// which makes message counting and latency modelling explicit.
//
// Two scheduling channels share the clock:
//   * schedule()        -- fire-and-forget events (the common case);
//   * schedule_timer()  -- cancellable events, used by the protocol engine
//                          for retransmit timeouts.  cancel() before the
//                          timer fires suppresses the handler; a cancelled
//                          event neither advances the clock nor counts as
//                          processed.
//
// Layout: handlers live in a slot table (free-list recycled); the heap is
// a 4-ary min-heap of POD nodes {at, seq, slot}, so sifting moves 24-byte
// keys, never a std::function.  Each slot records its node's heap
// position, which lets cancel() erase the node at once (O(log n)) and
// destroy the handler's captures on the spot: the heap never holds a
// dead entry, and it holds exactly pending() nodes.
//
// A TimerId is `generation << 32 | slot`.  A slot's generation starts at
// 1 and advances every time the slot is released (fired or cancelled), so
// a stale id whose slot has since been reused compares unequal and
// cancel() leaves the new occupant alone; no id ever equals kNoTimer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace voronet::sim {

/// Opaque handle for a cancellable timer (0 is never a valid handle).
using TimerId = std::uint64_t;
inline constexpr TimerId kNoTimer = 0;

class EventQueue {
 public:
  using Handler = std::function<void()>;

  /// Outcome of a bounded run: how many events executed and whether the
  /// run stopped because the event budget ran out rather than because the
  /// queue went quiet.  Callers that expect quiescence must check
  /// budget_exhausted -- a protocol livelock looks exactly like a long
  /// convergence otherwise.
  struct RunResult {
    std::size_t processed = 0;
    bool budget_exhausted = false;
  };

  /// Schedule fn at now() + delay (delay >= 0).
  void schedule(double delay, Handler fn);

  /// Schedule a cancellable event; the returned handle stays valid until
  /// the event fires or is cancelled.
  TimerId schedule_timer(double delay, Handler fn);

  /// Remove a pending timer and destroy its handler.  Returns true iff
  /// the timer was still pending (false after it fired, was already
  /// cancelled, or never existed).
  bool cancel(TimerId id);

  /// Execute the earliest pending event; returns false when idle.
  bool step();

  /// Drain the queue.  Stops after max_events executions and reports it
  /// in the result instead of throwing, so callers can tell budget
  /// exhaustion from quiescence.
  RunResult run_to_idle(std::size_t max_events = kDefaultEventBudget);

  /// Execute every event with timestamp <= horizon, then advance the clock
  /// to the horizon (events scheduled later stay pending).  Requires
  /// horizon >= now().
  RunResult run_until(double horizon,
                      std::size_t max_events = kDefaultEventBudget);

  [[nodiscard]] double now() const { return now_; }
  [[nodiscard]] bool idle() const { return pending() == 0; }
  /// Events still queued (the heap's size: cancelled timers are gone).
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }
  [[nodiscard]] std::size_t processed() const { return processed_; }

  static constexpr std::size_t kDefaultEventBudget = 100'000'000;

 private:
  /// One heap entry: the (at, seq) order key and its handler's slot.
  struct Node {
    double at;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  /// One handler-table entry.  pos is the node's heap index, kFree while
  /// the slot is on the free list.
  struct Slot {
    Handler fn;
    std::uint32_t gen = 1;
    std::uint32_t pos = kFree;
  };
  static constexpr std::uint32_t kFree = 0xffffffffu;

  [[nodiscard]] static bool before(const Node& a, const Node& b) {
    return a.at < b.at || (a.at == b.at && a.seq < b.seq);
  }

  /// Store fn in a free slot and push its node; returns the slot.
  std::uint32_t push(double delay, Handler fn);
  /// Remove the node at heap index i.
  void erase_at(std::size_t i);
  /// Fill the hole at heap index i with n, moving n towards the root /
  /// towards the leaves.
  void sift_up(std::size_t i, Node n);
  void sift_down(std::size_t i, Node n);
  void place(std::size_t i, const Node& n) {
    heap_[i] = n;
    slots_[n.slot].pos = static_cast<std::uint32_t>(i);
  }
  /// Free a slot (bumping its generation) and hand back its handler.
  Handler release(std::uint32_t slot);

  std::vector<Node> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::size_t processed_ = 0;
};

}  // namespace voronet::sim
