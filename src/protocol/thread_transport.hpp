// The real-time Transport backend: in-process actor threads, per-node
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
// (reliable_core.hpp), and the driving thread's side -- upcalls, timers,
// run loops -- is ConcurrentTransport's.
//
// NOT deterministic: arrival interleaving is real.  The scenario replay
// machinery requires SimTransport; this backend exists for the serving
// layer (src/serve) and wall-clock benches, where p50/p99 latency under
// open-loop load is the point.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "protocol/concurrent_transport.hpp"

namespace voronet::protocol {

class ThreadTransport final : public ConcurrentTransport {
 public:
  /// `shards`: actor threads (0 = derive from hardware_concurrency).
  /// `patience`: run_to_idle's wall-clock cap before it reports
  /// budget_exhausted instead of quiescence.
  explicit ThreadTransport(const NetworkConfig& config, unsigned shards = 0,
                           double patience = 60.0);
  ~ThreadTransport() override;

  ThreadTransport(const ThreadTransport&) = delete;
  ThreadTransport& operator=(const ThreadTransport&) = delete;

  [[nodiscard]] const char* backend_name() const override { return "thread"; }

  [[nodiscard]] unsigned shard_count() const {
    return static_cast<unsigned>(shards_.size());
  }

 private:
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

  [[nodiscard]] Shard& shard_of(NodeId node) {
    const auto n = static_cast<std::uint64_t>(node < 0 ? 0 : node);
    return *shards_[static_cast<std::size_t>(n % shards_.size())];
  }

  void carry(const Message& msg, double delay) override;
  sim::TimerId arm_retransmit(const Message& msg, double delay) override;

  void shard_loop(Shard& shard);
  void post(Shard& shard, WireEvent ev);
  void process_event(WireEvent& ev);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> threads_;
};

}  // namespace voronet::protocol
