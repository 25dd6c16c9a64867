// The driving half shared by the wall-clock backends (ThreadTransport,
// SocketTransport): the reliable-delivery core behind its lock, plus the
// upcall queue, the driver timers and the pump / run loops.
//
// Threading contract:
//   * send(), draft(), schedule(), crash/stall/revive, run_* are called
//     from ONE driving thread (the thread that owns the harness);
//   * the sink and the abandon handler are invoked ONLY on that driving
//     thread, from inside run_to_idle()/run_until() -- wire threads
//     queue upcalls, the driver drains them.  The protocol layer above
//     therefore needs no locks, on any backend;
//   * the core's state (transfer slots, dedup, stats, failure marks)
//     sits behind the core's mutex; wire threads hold it only for the
//     microseconds an event takes to classify.
//
// A subclass supplies the wire: carry() and arm_retransmit() schedule a
// timed event on its own threads, which later call land() for an
// arrival and on_timeout() for a timer.  now() is monotonic wall time
// since construction.  NOT deterministic: arrival interleaving is real.
// obs::Tracer / obs::FlightRecorder hooks are accepted but inert here
// (both are documented single-threaded, deterministic-replay
// instruments).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "protocol/reliable_core.hpp"

namespace voronet::protocol {

class ConcurrentTransport : public ReliableCore {
 public:
  void set_tracer(obs::Tracer*) override {}  // inert (header comment)
  void set_recorder(obs::FlightRecorder*) override {}

  [[nodiscard]] double now() const override;
  void schedule(double delay, Task fn) override;
  /// Pumps deliveries and timers and *waits* for the wire to go quiet;
  /// budget_exhausted reports the patience cap, not an event count.
  RunResult run_to_idle(std::size_t max_events) override;
  RunResult run_until(double horizon) override;

  [[nodiscard]] bool deterministic() const override { return false; }

 protected:
  /// `patience`: run_to_idle's wall-clock cap before it reports
  /// budget_exhausted instead of quiescence.
  ConcurrentTransport(const NetworkConfig& config, double patience);

  /// Min-heap order on (deadline, seq), for std::push_heap / pop_heap
  /// over any timed event with `at` and `seq` members.
  struct Later {
    template <typename Event>
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  /// FIFO tie-break for the subclass's timed wire events.
  [[nodiscard]] std::uint64_t next_seq() {
    return event_seq_.fetch_add(1, std::memory_order_relaxed);
  }
  /// A carried message entered the wire; land() or lose() retires it.
  void launch() { wire_pending_.fetch_add(1); }
  /// A carried message reached its destination host.
  void land(Message msg);
  /// `frames` carried messages died on the wire (a dropped connection).
  void lose(std::size_t frames);

  /// Stale timers find their slot recycled, so nothing needs cancelling.
  void cancel_retransmit(sim::TimerId) override {}
  /// Queue the upcall for the driving thread.
  void hand_up(Upcall kind, Message&& msg) override;

 private:
  struct PendingUpcall {
    Upcall kind = Upcall::kDeliver;
    Message msg;
  };

  /// A schedule()d application task (driver-thread only).
  struct DriverTimer {
    double at = 0.0;
    std::uint64_t seq = 0;
    Task fn;
  };

  /// Drain queued upcalls + due driver timers; returns #processed.
  std::size_t pump();
  [[nodiscard]] bool quiescent() const;
  /// Sleep until an upcall lands, `horizon` passes, the next driver
  /// timer is due, or the quiescence re-probe nap elapses.
  void wait(double horizon);

  double patience_;
  std::chrono::steady_clock::time_point start_;
  /// Carried messages not yet landed -- the wire half of the quiescence
  /// probe.
  std::atomic<std::uint64_t> wire_pending_{0};
  std::atomic<std::uint64_t> event_seq_{0};

  mutable std::mutex up_m_;
  std::condition_variable up_cv_;
  std::deque<PendingUpcall> upcalls_;
  std::vector<DriverTimer> timers_;  ///< min-heap; driver thread only
  std::uint64_t timer_seq_ = 0;
};

}  // namespace voronet::protocol
