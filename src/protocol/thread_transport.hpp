// The wall-clock Transport backend: in-process actor threads, per-node
// MPSC mailboxes, monotonic-clock timers.
//
// Where SimTransport *simulates* the wire inside one deterministic event
// queue, ThreadTransport *is* a wire: a pool of shard threads plays the
// network.  Every node is an actor whose mailbox (an MPSC timing wheel
// entry keyed by arrival deadline) is owned by the shard thread for
// node % shards; senders -- the driving thread and other shards -- post
// into it, and only the owning shard consumes.  Latency is a real
// monotonic-clock deadline (a message "in flight" occupies no thread);
// loss, acks and retransmission are the reliable-delivery core's
// (reliable_core.hpp).  This class supplies the core's wire hooks plus
// the driving thread's side: the upcall queue, the driver timers and the
// pump / run loops.
//
// Threading contract:
//   * send(), draft(), schedule(), crash/stall/revive, run_* are called
//     from ONE driving thread (the thread that owns the harness);
//   * the sink and the abandon handler are invoked ONLY on that driving
//     thread, from inside run_to_idle()/run_until() -- shard threads
//     queue upcalls, the driver drains them.  The protocol layer above
//     therefore needs no locks;
//   * the core's state (transfer slots, dedup, stats, failure marks)
//     sits behind the core's mutex; shard threads hold it only for the
//     microseconds an event takes to classify.
//
// NOT deterministic: arrival interleaving is real.  The scenario replay
// machinery requires SimTransport; this backend exists for the serving
// layer (src/serve, net::ServedShard) and wall-clock benches, where
// p50/p99 latency under open-loop load is the point.  obs::Tracer /
// obs::FlightRecorder hooks are accepted but inert here (both are
// documented single-threaded, deterministic-replay instruments).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "protocol/reliable_core.hpp"

namespace voronet::protocol {

class ThreadTransport final : public ReliableCore {
 public:
  /// Upper bound on an explicit shard count: each shard is one OS
  /// thread, and a count past this is a caller bug, not a workload.
  static constexpr unsigned kMaxShards = 64;

  /// `shards`: actor threads (0 = derive from hardware_concurrency;
  /// at most kMaxShards, checked before any thread starts).
  /// `patience`: run_to_idle's wall-clock cap before it reports
  /// budget_exhausted instead of quiescence.
  explicit ThreadTransport(const NetworkConfig& config, unsigned shards = 0,
                           double patience = 60.0);
  ~ThreadTransport() override;

  ThreadTransport(const ThreadTransport&) = delete;
  ThreadTransport& operator=(const ThreadTransport&) = delete;

  void set_tracer(obs::Tracer*) override {}  // inert (header comment)
  void set_recorder(obs::FlightRecorder*) override {}

  [[nodiscard]] double now() const override;
  void schedule(double delay, Task fn) override;
  /// Pumps deliveries and timers and *waits* for the wire to go quiet;
  /// budget_exhausted reports the patience cap, not an event count.
  RunResult run_to_idle(std::size_t max_events) override;
  RunResult run_until(double horizon) override;

  [[nodiscard]] bool deterministic() const override { return false; }
  [[nodiscard]] const char* backend_name() const override { return "thread"; }

  [[nodiscard]] unsigned shard_count() const {
    return static_cast<unsigned>(shards_.size());
  }

 private:
  /// Min-heap order on (deadline, seq), for std::push_heap / pop_heap
  /// over any timed event with `at` and `seq` members.
  struct Later {
    template <typename Event>
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  /// A timed wire event owned by one shard: a message arrival (data or
  /// ack) at its destination's mailbox, or a retransmit timer.
  struct WireEvent {
    double at = 0.0;        ///< monotonic deadline (seconds since start)
    std::uint64_t seq = 0;  ///< FIFO tie-break within a shard
    enum Kind : std::uint8_t { kArrive, kRetransmit } kind = kArrive;
    Message msg;                 ///< kArrive payload
    std::uint32_t slot = 0;      ///< kRetransmit: transfer slot
    std::uint64_t transfer = 0;  ///< kRetransmit: generation check
  };

  struct Shard {
    std::mutex m;
    std::condition_variable cv;
    std::vector<WireEvent> inbox;  ///< MPSC injection side
    std::vector<WireEvent> heap;   ///< (at, seq) min-heap, owner-only
    bool stop = false;
  };

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

  [[nodiscard]] Shard& shard_of(NodeId node) {
    const auto n = static_cast<std::uint64_t>(node < 0 ? 0 : node);
    return *shards_[static_cast<std::size_t>(n % shards_.size())];
  }

  // --- Wire hooks (called under the core's lock) ---------------------------
  void carry(const Message& msg, double delay) override;
  sim::TimerId arm_retransmit(const Message& msg, double delay) override;
  /// Stale timers find their slot recycled, so nothing needs cancelling.
  void cancel_retransmit(sim::TimerId) override {}
  /// Queue the upcall for the driving thread.
  void hand_up(Upcall kind, Message&& msg) override;

  // --- Shard threads -------------------------------------------------------
  void shard_loop(Shard& shard);
  void post(Shard& shard, WireEvent ev);
  void process_event(WireEvent& ev);
  /// A carried message reached its destination host.
  void land(Message msg);

  // --- Driving thread ------------------------------------------------------
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
  /// FIFO tie-break for the shards' timed wire events.
  std::atomic<std::uint64_t> event_seq_{0};

  mutable std::mutex up_m_;
  std::condition_variable up_cv_;
  std::deque<PendingUpcall> upcalls_;
  std::vector<DriverTimer> timers_;  ///< min-heap; driver thread only
  std::uint64_t timer_seq_ = 0;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> threads_;
};

}  // namespace voronet::protocol
