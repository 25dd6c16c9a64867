// The deterministic Transport backend: the reliable-delivery core
// (reliable_core.hpp) on a sim::EventQueue wire.
//
// Every wire attempt is one queue event at now() + its sampled latency
// (the message waits in a pooled slab slot; the event carries only the
// slot index), and every retransmit timer a cancellable queue timer that
// the settling ack erases from the queue.  So the sim semantics (event
// ordering, Rng streams, retransmit jitter) are a pure function of the
// scenario and seed.  The committed golden scenario replays pin that
// claim (tests/scale_test.cpp, CommittedScenariosReplayByteIdentical).
//
// The event queue is owned HERE: the harness's own protocol timers
// (failure detection, query deadlines, scheduled workload events) ride
// Transport::schedule(), which lands them in the same queue as the wire
// traffic -- one clock, one total order, full replayability.  Sim-only
// consumers (the scenario Runner's sampling grid, tests that need the
// raw queue) may reach through queue().
#pragma once

#include <cstdint>
#include <vector>

#include "protocol/reliable_core.hpp"
#include "sim/event_queue.hpp"

namespace voronet::protocol {

class SimTransport final : public ReliableCore {
 public:
  explicit SimTransport(const NetworkConfig& config)
      : ReliableCore(config, /*concurrent=*/false) {}

  [[nodiscard]] double now() const override { return queue_.now(); }
  void schedule(double delay, Task fn) override {
    queue_.schedule(delay, std::move(fn));
  }
  RunResult run_to_idle(std::size_t max_events) override {
    return queue_.run_to_idle(max_events);
  }
  RunResult run_until(double horizon) override {
    return queue_.run_until(horizon);
  }

  [[nodiscard]] bool deterministic() const override { return true; }
  [[nodiscard]] const char* backend_name() const override { return "sim"; }

  /// Sim-only escape hatch (the deterministic replay machinery).
  [[nodiscard]] sim::EventQueue& queue() { return queue_; }

 private:
  void carry(const Message& msg, double delay) override {
    // The slab slot is the attempt's one payload copy; the [this, index]
    // closure fits std::function's inline buffer, so the event itself
    // allocates nothing.
    std::uint32_t index;
    if (free_attempts_.empty()) {
      index = static_cast<std::uint32_t>(attempts_.size());
      attempts_.push_back(msg);
    } else {
      index = free_attempts_.back();
      free_attempts_.pop_back();
      attempts_[index] = msg;
    }
    queue_.schedule(delay, [this, index] { land(index); });
  }
  /// Move the attempt out of its slab slot (a reentrant carry may grow
  /// the slab) and hand it to arrive(), which consumes it by move and
  /// recycles the payload vector into the draft pool.
  void land(std::uint32_t index) {
    Message msg = std::move(attempts_[index]);
    free_attempts_.push_back(index);
    arrive(std::move(msg));
  }
  sim::TimerId arm_retransmit(const Message& msg, double delay) override {
    return queue_.schedule_timer(
        delay, [this, slot = msg.transfer_slot, id = msg.transfer_id] {
          on_timeout(slot, id);
        });
  }
  void cancel_retransmit(sim::TimerId timer) override { queue_.cancel(timer); }

  sim::EventQueue queue_;
  /// In-flight wire attempts, one slot per carried message (free-list
  /// recycled; a free slot's payload vector was moved out on landing).
  std::vector<Message> attempts_;
  std::vector<std::uint32_t> free_attempts_;
};

}  // namespace voronet::protocol
