// The deterministic Transport backend: the reliable-delivery core
// (reliable_core.hpp) on a sim::EventQueue wire.
//
// Every wire attempt is one queue event at now() + its sampled latency,
// and every retransmit timer a cancellable queue timer, so the sim
// semantics (event ordering, Rng streams, retransmit jitter) are a pure
// function of the scenario and seed.  The committed golden scenario
// replays pin that claim (tests/scale_test.cpp,
// CommittedScenariosReplayByteIdentical).
//
// The event queue is owned HERE: the harness's own protocol timers
// (failure detection, query deadlines, scheduled workload events) ride
// Transport::schedule(), which lands them in the same queue as the wire
// traffic -- one clock, one total order, full replayability.  Sim-only
// consumers (the scenario Runner's sampling grid, tests that need the
// raw queue) may reach through queue().
#pragma once

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
    // The closure capture is the attempt's one payload copy; arrive()
    // consumes it by move and recycles the vector into the draft pool.
    queue_.schedule(delay,
                    [this, m = msg]() mutable { arrive(std::move(m)); });
  }
  sim::TimerId arm_retransmit(const Message& msg, double delay) override {
    return queue_.schedule_timer(
        delay, [this, slot = msg.transfer_slot, id = msg.transfer_id] {
          on_timeout(slot, id);
        });
  }
  void cancel_retransmit(sim::TimerId timer) override { queue_.cancel(timer); }

  sim::EventQueue queue_;
};

}  // namespace voronet::protocol
