// The reliable-delivery core of the protocol engine: one state machine,
// two wires.
//
// Every Transport backend carries protocol messages through this class.
// A non-ack send() occupies a transfer slot until the receiver's ack
// settles it; a retransmit timer resends with capped exponential backoff
// and hashed jitter until then, or until an endpoint is observed crashed
// or the retry cap is hit (abandon).  The receiver acks every arrival,
// duplicates included, and suppresses duplicates with a delivered bit on
// the live transfer slot plus a bounded orphan window for arrivals that
// outlive their slot.  Fault injection -- loss, latency spikes,
// duplication, link filters, crash and stall marks -- is drawn here at
// transmission, so every backend injects the same faults the same way.
// Counters record the real wire traffic (NetworkStats, sim::Metrics).
//
// Delivery contract: exactly-once under loss alone with the derived RTO.
// At-least-once when a retransmission is still in flight at settle: the
// settle prunes the orphan record, so that copy can deliver a second
// time, which the idempotent node layer absorbs.  That happens under
// injected duplication, with an explicit RTO below the round trip, and
// when the jittered derived RTO falls below it: (2L + 10 ms) * (1 -
// jitter/2) < 2L for a fixed one-way latency L beyond ~35 ms at the
// default jitter.
//
// A backend supplies only the wire, through the protected hooks below:
// carry a message so it arrives after a delay, arm or cancel a
// retransmit timer, and hand a delivered or abandoned message up (plus
// Transport's clock and driving calls).  SimTransport implements them on
// sim::EventQueue, ThreadTransport on shard threads.
//
// Locking: a core built `concurrent` serialises every public entry
// point, and the wire entry points arrive() / on_timeout(), on one mutex
// (guard()); the sim core takes no lock.  Core internals never call a
// guarded entry point, and the hooks run with the lock held -- so a
// concurrent backend's hand_up() must queue the message for the driving
// thread rather than run application code.
//
// Storage (DESIGN.md, "Memory layout & arenas"): reliable transfers live
// in a slot table with free-list recycling -- the slot index travels in
// Message::transfer_slot so acks and timers resolve their transfer
// without a hash lookup, while the monotone transfer_id stays the
// identity (slot occupancy is generation-checked against it).  Settled
// payload vectors are recycled through an explicit pool (draft()), and
// the crashed/stalled marks are dense per-node bitmaps.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace.hpp"
#include "protocol/message.hpp"
#include "protocol/transport.hpp"
#include "sim/event_queue.hpp"
#include "sim/metrics.hpp"

namespace voronet::protocol {

class ReliableCore : public Transport {
 public:
  void set_sink(Sink sink) override { sink_ = std::move(sink); }
  void set_abandon_handler(AbandonHandler handler) override {
    abandon_ = std::move(handler);
  }

  /// A blank message whose payload vector comes from the retired-payload
  /// pool (capacity recycled from settled transfers), with capacity for
  /// at least `reserve_entries`.
  [[nodiscard]] Message draft(std::size_t reserve_entries = 0) override;
  void send(Message msg) override;

  /// Crash-stop: the node stops receiving AND stops resending -- reliable
  /// transfers touching it on either side are abandoned when their
  /// timeout next fires (receiver side: the sender's failure detector;
  /// sender side: a dead node cannot drive its retransmit timer).
  /// Packets already in flight still arrive, as they would on a real
  /// network.
  void crash(NodeId node) override;
  /// Clear the crashed mark -- required when a vertex id is recycled for
  /// a brand-new node (the ground truth reuses Delaunay vertex ids).
  /// Reliable transfers still armed from the dead predecessor's era are
  /// abandoned first, in ascending transfer-id order, through the abandon
  /// handler with the crashed mark still set (outside the lock on a
  /// concurrent core: the handler may send).  The predecessor's dedup
  /// records, stall backlog and flight-recorder ring are dropped too --
  /// a recycled id inherits nothing.
  void revive(NodeId node) override;
  [[nodiscard]] bool crashed(NodeId node) const override;

  /// Stall: the node's process stops running but the node is NOT dead.
  /// Inbound non-ack messages are parked unacknowledged (so senders
  /// retransmit -- the failure detector's false-positive path); they are
  /// delivered in arrival order when the node resumes.  Transport acks
  /// for the node's own earlier sends still settle (NIC-level state), and
  /// its retransmit timers keep driving -- the process is wedged, not the
  /// host.  Idempotent; crash() discards the parked backlog.
  void stall(NodeId node) override;
  void resume(NodeId node) override;
  /// Resume every stalled node, in ascending node id.
  void resume_all() override;
  [[nodiscard]] bool stalled(NodeId node) const override;

  /// Degradation windows (scenario kLossBurst / kLatencySpike /
  /// kDuplicate).  Windows nest: drop probabilities add (clamped below
  /// 1), latency factors multiply, duplication picks the strongest
  /// window.  end_* removes one matching begin_* (balanced by the
  /// scheduling layer).
  void begin_loss_burst(double extra_drop) override;
  void end_loss_burst(double extra_drop) override;
  void begin_latency_spike(double factor) override;
  void end_latency_spike(double factor) override;
  void begin_duplication(double probability) override;
  void end_duplication(double probability) override;

  /// Install / remove a link filter (messages on down links are lost on
  /// transmission; retransmit timers keep reliable traffic alive until
  /// the partition heals).
  void set_link_filter(LinkFilter up) override;
  void clear_link_filter() override;

  [[nodiscard]] std::size_t in_flight() const override;
  [[nodiscard]] std::size_t stalled_backlog() const override;
  /// Delivered bits on live transfer slots plus the orphan window.
  [[nodiscard]] std::size_t dedup_entries() const override;
  [[nodiscard]] std::size_t dedup_window_size() const override;
  /// Transfer slots (including pooled payload capacity), the payload
  /// pool, per-node bitmaps, backlogs and the dedup window.
  [[nodiscard]] std::size_t memory_bytes() const override;

  [[nodiscard]] sim::Metrics metrics() const override;
  [[nodiscard]] NetworkStats stats() const override;
  void record_operation(sim::OperationKind kind, std::size_t hops,
                        std::size_t op_messages) override;
  [[nodiscard]] const NetworkConfig& config() const override {
    return config_;
  }
  [[nodiscard]] double retransmit_timeout() const override { return rto_; }

  // Non-owning; every use is guarded by enabled(), so the cost with
  // tracing off is one branch per site.  Reliable transfers get one span
  // each (parented to the message's carried span) whose instants record
  // the retransmission timeline; the recorder logs send / deliver / drop
  // / park / dedup / retransmit / abandon plus crash / stall / resume.
  void set_tracer(obs::Tracer* tracer) override { tracer_ = tracer; }
  void set_recorder(obs::FlightRecorder* recorder) override {
    recorder_ = recorder;
  }

 protected:
  enum class Upcall : std::uint8_t { kDeliver, kAbandon };

  /// `concurrent`: serialise the entry points on the core's mutex.
  ReliableCore(const NetworkConfig& config, bool concurrent);

  // --- Wire hooks (called with the lock held) ------------------------------

  /// Carry one wire attempt so that arrive(msg) runs after `delay`.  The
  /// backend takes one payload copy per call.
  virtual void carry(const Message& msg, double delay) = 0;
  /// Arm the retransmit timer of the reliable transfer `msg` (its
  /// transfer_slot / transfer_id): on_timeout() after `delay`.  Returns
  /// a handle for cancel_retransmit(), or kNoTimer when the backend's
  /// timers are not cancellable (a stale timer then finds its slot
  /// recycled and does nothing).
  virtual sim::TimerId arm_retransmit(const Message& msg, double delay) = 0;
  virtual void cancel_retransmit(sim::TimerId timer) = 0;
  /// Hand a delivered or abandoned message to the application layer.
  /// Default: run the handler now, then recycle the payload.
  virtual void hand_up(Upcall kind, Message&& msg);

  // --- Wire entry points (guarded) -----------------------------------------

  /// A carried message reached its destination host.
  void arrive(Message&& msg);
  /// A retransmit timer fired.
  void on_timeout(std::uint32_t slot, std::uint64_t transfer_id);
  /// Return a payload vector's capacity to the draft pool.
  void recycle_payload(std::vector<ViewEntry>&& entries);

  /// Run the sink or the abandon handler (never under the lock).
  void invoke(Upcall kind, const Message& msg) const;
  /// The core's lock on a concurrent core; an empty lock on the sim.
  [[nodiscard]] std::unique_lock<std::mutex> guard() const {
    return concurrent_ ? std::unique_lock<std::mutex>(mu_)
                       : std::unique_lock<std::mutex>();
  }

 private:
  /// One reliable-transfer slot.  id == 0 marks a free slot (real
  /// transfer ids start at 1); the slot's Message keeps its payload
  /// vector across occupancies, so steady-state traffic allocates
  /// nothing here.
  struct Transfer {
    Message msg;
    std::uint64_t id = 0;  ///< occupancy check: matches msg.transfer_id
    std::size_t attempts = 1;
    sim::TimerId timer = sim::kNoTimer;
    obs::SpanId span = obs::kNoSpan;  ///< transfer span while tracing
    bool delivered = false;           ///< receiver-side dedup bit
  };

  /// Bounded FIFO of dedup records for transfers whose slot is gone
  /// (late duplicates after settle/abandon).  Almost always empty, so
  /// the linear scans below are on a cold path.
  struct OrphanWindow {
    struct Rec {
      std::uint64_t transfer_id = 0;  ///< 0 = vacant
      NodeId dst = kNoNode;
    };
    std::vector<Rec> ring;
    std::size_t next = 0;   ///< FIFO overwrite cursor
    std::size_t count = 0;  ///< live records

    [[nodiscard]] bool empty() const { return count == 0; }
    [[nodiscard]] std::size_t size() const { return count; }
    /// False when the transfer is already recorded (duplicate arrival).
    bool insert(std::uint64_t transfer_id, NodeId dst);
    void erase(std::uint64_t transfer_id);
    void erase_dst(NodeId dst);
  };

  [[nodiscard]] bool tracing() const {
    return tracer_ != nullptr && tracer_->enabled();
  }
  [[nodiscard]] bool recording() const {
    return recorder_ != nullptr && recorder_->enabled();
  }

  [[nodiscard]] static bool flag(const std::vector<std::uint8_t>& flags,
                                 NodeId node) {
    return node >= 0 && static_cast<std::size_t>(node) < flags.size() &&
           flags[static_cast<std::size_t>(node)] != 0;
  }
  static void set_flag(std::vector<std::uint8_t>& flags, NodeId node,
                       bool on);

  // Everything below runs with the lock held (or on the sim).

  /// The transfer slot for (slot, transfer_id), or nullptr when the slot
  /// has been recycled since (generation check).
  [[nodiscard]] Transfer* live_transfer(std::uint32_t slot,
                                        std::uint64_t transfer_id);
  std::uint32_t alloc_slot();
  /// Release the slot: retire its payload to the pool, push it on the
  /// free list.  The timer must already be settled or cancelled.
  void free_slot(std::uint32_t slot);
  void pool_payload(std::vector<ViewEntry>&& entries);

  /// One wire attempt: count it, lose it or carry it.
  void transmit(const Message& msg);
  /// One latency draw, scaled by the open latency spikes.
  [[nodiscard]] double sample_delay();
  /// Deliver a message that reached its live, running destination: ack,
  /// dedup, hand up.
  void receive(Message&& msg);
  /// An ack arrived: free the transfer and its orphan record.
  void settle(const Message& ack);
  /// Armed timeout for the transfer's next attempt: capped exponential
  /// backoff plus deterministic per-(transfer, attempt) jitter.
  [[nodiscard]] double backoff_timeout(std::uint64_t transfer_id,
                                       std::size_t attempts) const;
  [[nodiscard]] double effective_drop() const;
  void arm_timer(std::uint32_t slot);
  /// Give up on a reliable transfer: bill it, free its slot and return
  /// its message for the abandon handler.
  [[nodiscard]] Message take_abandoned(std::uint32_t slot);
  void resume_node(NodeId node);
  /// Discard a node's parked backlog (crash, revive).
  void drop_backlog(NodeId node);

  NetworkConfig config_;
  const bool concurrent_;
  mutable std::mutex mu_;
  obs::Tracer* tracer_ = nullptr;
  obs::FlightRecorder* recorder_ = nullptr;
  double rto_;
  double rto_cap_;
  Sink sink_;
  AbandonHandler abandon_;
  Rng rng_;
  sim::Metrics metrics_;
  NetworkStats stats_;
  std::uint64_t next_transfer_ = 1;

  /// Transfer slot table (deque: stable addresses across growth, so a
  /// slot reference survives allocations made by reentrant sends).
  std::deque<Transfer> transfers_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t in_flight_ = 0;
  OrphanWindow orphans_;
  /// Retired payload vectors for draft() (bounded; capacity recycled).
  std::vector<std::vector<ViewEntry>> payload_pool_;

  /// Dense per-node transport marks, indexed by NodeId.
  std::vector<std::uint8_t> crashed_;
  std::vector<std::uint8_t> stalled_;
  LinkFilter link_up_;

  /// Arrival-ordered backlog of each stalled node (drained on resume,
  /// discarded on crash), indexed by NodeId.
  std::vector<std::vector<Message>> stall_backlog_;
  std::size_t backlog_count_ = 0;
  /// Open degradation windows (tiny: scenarios open a handful at most).
  std::vector<double> loss_bursts_;
  std::vector<double> latency_spikes_;
  std::vector<double> duplications_;
};

}  // namespace voronet::protocol
