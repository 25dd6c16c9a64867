// The transport seam of the protocol engine.
//
// Everything above the wire -- ProtocolHarness, the query engine, the
// serving front-end, the obs hooks -- talks to this interface and never
// to a concrete backend.  Every backend runs the one reliable-delivery
// core (reliable_core.hpp) over its own wire:
//
//   * SimTransport (sim_transport.hpp): the deterministic discrete-event
//     wire -- sim::EventQueue.  Same scenario + seed => bit-identical
//     runs; every committed golden replay pins the sim semantics.
//   * ThreadTransport (thread_transport.hpp): in-process actor threads
//     with per-node MPSC mailboxes and real monotonic-clock timers.
//     Wall-clock time, genuinely concurrent, NOT deterministic.  The
//     serving path runs the overlay on it; a served process's socket is
//     the client boundary (net/serve_wire.hpp), not the overlay wire.
//
// The contract every backend satisfies (tests/transport_conformance_test
// runs the suite against each):
//
//   * reliable delivery: every non-ack send() reaches the sink, or is
//     handed to the abandon handler (crashed endpoint / retry cap).  It
//     reaches the sink exactly once under loss alone with the derived
//     RTO, and at least once when a retransmission is still in flight
//     at settle: the settle prunes the orphan dedup record, so that
//     copy can deliver again, and every protocol message is idempotent
//     above.  That happens under injected duplication, with an
//     explicit RTO below the round trip, and when the jittered derived
//     RTO falls below it (one-way latency beyond ~35 ms at the default
//     jitter).  Stall windows aside (a parked copy may deliver after an
//     abandon once the node resumes), never both, never neither;
//   * dedup: retransmission duplicates are suppressed by the live
//     transfer's delivered bit plus a bounded orphan window, so dedup
//     state is bounded by in_flight() + kOrphanDedupCapacity;
//   * retransmit backoff: attempt k waits min(rto*f^(k-1), cap) with
//     deterministic per-(transfer, attempt) jitter; max_retries bounds
//     the attempts of an abandoned transfer to max_retries + 1;
//   * crash/revive residue: revive(id) abandons every predecessor-era
//     transfer touching the id (through the abandon handler, with the
//     crashed mark still set) and drops its dedup, stall-backlog and
//     flight-recorder residue -- a recycled id inherits nothing.
//
// What is NOT universal: determinism (SimTransport only), and the
// degradation windows / link filters, which the wall-clock backend
// honours on a best-effort basis (a window "ends" when the driver says
// so, not at a virtual instant).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "protocol/latency.hpp"
#include "protocol/message.hpp"
#include "sim/event_queue.hpp"
#include "sim/metrics.hpp"

namespace voronet::obs {
class Tracer;
class FlightRecorder;
}  // namespace voronet::obs

namespace voronet::protocol {

struct NetworkConfig {
  LatencyModel latency = LatencyModel::fixed(0.0);
  /// Probability that any single transmission (data or ack) is lost.
  double drop_probability = 0.0;
  /// Base retransmission timeout; 0 derives one from the latency model
  /// (two high-quantile one-way delays plus slack).
  double retransmit_timeout = 0.0;
  /// Retransmission backoff: attempt k waits
  /// min(rto * backoff_factor^(k-1), rto_cap) plus deterministic jitter.
  /// A fixed timeout under correlated loss (a loss burst, a latency
  /// spike) synchronises every retransmitter into a storm; the capped
  /// exponential spreads them out while staying responsive to single
  /// losses.  1.0 restores the fixed-RTO behaviour.
  double backoff_factor = 2.0;
  /// Backoff ceiling; 0 derives 16x the base timeout.
  double rto_cap = 0.0;
  /// Deterministic jitter as a fraction of the armed timeout: the actual
  /// wait is scaled by a factor in [1 - jitter/2, 1 + jitter/2] hashed
  /// from (transfer id, attempt) -- no Rng stream is consumed, so the
  /// delivery randomness is unperturbed and replays stay bit-identical.
  double jitter = 0.25;
  /// Give up on a reliable transfer after this many retransmissions;
  /// 0 = keep retrying (transfers to crashed destinations are abandoned
  /// at the first timeout regardless).
  std::size_t max_retries = 0;
  std::uint64_t seed = 0x5eedULL;
};

/// Wire-level accounting, beyond the per-type counters in sim::Metrics.
struct NetworkStats {
  std::uint64_t sends = 0;          ///< logical send() calls
  std::uint64_t transmissions = 0;  ///< wire attempts incl. retransmits+acks
  std::uint64_t delivered = 0;      ///< messages handed to the sink
  std::uint64_t duplicates = 0;     ///< arrivals suppressed by dedup
  std::uint64_t dropped = 0;        ///< lost to loss, partition or crash
  std::uint64_t retransmits = 0;
  std::uint64_t abandoned = 0;      ///< reliable transfers given up
  std::uint64_t acks = 0;
  std::uint64_t injected_duplicates = 0;  ///< duplication-window copies
  std::uint64_t stalled_deferred = 0;     ///< arrivals parked at a stalled node
  /// Serialized bytes across all wire attempts (codec frame sizes, incl.
  /// the length prefix): the bytes a frame-writing wire would write --
  /// both backends bill through net::wire_frame_size so the number is
  /// backend-comparable.  Per-kind decomposition lives in
  /// sim::Metrics::wire_bytes().
  std::uint64_t wire_bytes = 0;
};

class Transport {
 public:
  /// Receives each delivered (non-ack, de-duplicated) message.  Always
  /// invoked on the driving thread (the one inside run_to_idle /
  /// run_until), on every backend -- the layer above stays single-
  /// threaded regardless of how the wire is implemented.
  using Sink = std::function<void(const Message&)>;
  /// Receives each reliable message the transport gave up on (crashed
  /// destination or retry cap), so the application layer can reroute or
  /// invalidate caches.  Driving-thread invocation, like Sink.
  using AbandonHandler = std::function<void(const Message&)>;
  /// Returns true when the src -> dst link is up (partition injection).
  using LinkFilter = std::function<bool(NodeId, NodeId)>;
  /// A deferred application-layer task (protocol timers: failure
  /// detection, query deadlines, scheduled workload events).
  using Task = std::function<void()>;
  using RunResult = sim::EventQueue::RunResult;

  /// Dedup-window capacity: arrivals whose transfer slot is already
  /// recycled (late duplicates past settle/abandon) are remembered in a
  /// FIFO window of this many (transfer, dst) pairs, so the dedup state
  /// is bounded by in_flight() + this constant instead of growing with
  /// node lifetime.
  static constexpr std::size_t kOrphanDedupCapacity = 512;

  virtual ~Transport() = default;

  virtual void set_sink(Sink sink) = 0;
  virtual void set_abandon_handler(AbandonHandler handler) = 0;

  /// A blank message whose payload vector comes from the retired-payload
  /// pool, with capacity for at least `reserve_entries` -- the reserve
  /// path that keeps batched front-end senders allocation-free.  Purely
  /// an allocation shortcut: send() accepts any Message.
  [[nodiscard]] virtual Message draft(std::size_t reserve_entries = 0) = 0;

  /// Send msg.src -> msg.dst.  Reliable (ack + retransmit) for every kind
  /// except kAck.  The transfer id is assigned here.
  virtual void send(Message msg) = 0;

  // --- Failure injection ---------------------------------------------------

  virtual void crash(NodeId node) = 0;
  /// Clear the crashed mark for a recycled id; abandons predecessor-era
  /// transfers and drops every other residue first (see contract above).
  virtual void revive(NodeId node) = 0;
  [[nodiscard]] virtual bool crashed(NodeId node) const = 0;

  virtual void stall(NodeId node) = 0;
  virtual void resume(NodeId node) = 0;
  virtual void resume_all() = 0;
  [[nodiscard]] virtual bool stalled(NodeId node) const = 0;

  virtual void begin_loss_burst(double extra_drop) = 0;
  virtual void end_loss_burst(double extra_drop) = 0;
  virtual void begin_latency_spike(double factor) = 0;
  virtual void end_latency_spike(double factor) = 0;
  virtual void begin_duplication(double probability) = 0;
  virtual void end_duplication(double probability) = 0;

  virtual void set_link_filter(LinkFilter up) = 0;
  virtual void clear_link_filter() = 0;

  // --- Clock & driving -----------------------------------------------------
  //
  // now() is the backend's native clock: virtual seconds (SimTransport)
  // or monotonic wall seconds since construction (ThreadTransport).
  // schedule() runs `fn` on the driving thread at now() + delay; the
  // protocol layer's own timers ride this one channel on every backend.

  [[nodiscard]] virtual double now() const = 0;
  virtual void schedule(double delay, Task fn) = 0;

  /// Drive until quiescent: no undelivered messages, no in-flight
  /// reliable transfers, no pending scheduled tasks (parked stall
  /// backlogs excepted).  Sim: drains the event queue.  Thread: pumps
  /// deliveries/timers and *waits* for the actor threads to go quiet --
  /// budget_exhausted reports a wall-clock patience cap, not an event
  /// count.
  virtual RunResult run_to_idle(
      std::size_t max_events = sim::EventQueue::kDefaultEventBudget) = 0;
  /// Drive until now() reaches `horizon` (absolute, native clock).
  virtual RunResult run_until(double horizon) = 0;

  // --- Accounting ----------------------------------------------------------

  /// Reliable transfers still awaiting acknowledgement.
  [[nodiscard]] virtual std::size_t in_flight() const = 0;
  /// Messages parked at stalled nodes (the sampler's backlog gauge).
  [[nodiscard]] virtual std::size_t stalled_backlog() const = 0;
  /// Dedup records currently held; bounded by in_flight() +
  /// kOrphanDedupCapacity by construction on every backend.
  [[nodiscard]] virtual std::size_t dedup_entries() const = 0;
  /// Orphan-window occupancy alone (late-duplicate records).
  [[nodiscard]] virtual std::size_t dedup_window_size() const = 0;
  /// Transport-owned bytes, for the bytes-per-node decomposition.
  [[nodiscard]] virtual std::size_t memory_bytes() const = 0;

  /// Snapshots, taken under the core's lock on a concurrent backend:
  /// hold the copy, never a reference into the temporary.
  [[nodiscard]] virtual sim::Metrics metrics() const = 0;
  [[nodiscard]] virtual NetworkStats stats() const = 0;
  /// Record one finished operation in the metrics (see
  /// sim::Metrics::record_operation).
  virtual void record_operation(sim::OperationKind kind, std::size_t hops,
                                std::size_t op_messages) = 0;
  [[nodiscard]] virtual const NetworkConfig& config() const = 0;
  [[nodiscard]] virtual double retransmit_timeout() const = 0;

  // --- Observability -------------------------------------------------------

  virtual void set_tracer(obs::Tracer* tracer) = 0;
  virtual void set_recorder(obs::FlightRecorder* recorder) = 0;

  // --- Identity ------------------------------------------------------------

  /// True when same inputs => bit-identical runs (SimTransport).  The
  /// scenario replay/golden machinery requires this; the serving layer
  /// does not.
  [[nodiscard]] virtual bool deterministic() const = 0;
  [[nodiscard]] virtual const char* backend_name() const = 0;
};

/// Which Transport backend a harness should build.
enum class TransportKind : std::uint8_t {
  kSim,     ///< deterministic event-queue simulation (the default)
  kThread,  ///< in-process actor threads, wall-clock timers
};

}  // namespace voronet::protocol
