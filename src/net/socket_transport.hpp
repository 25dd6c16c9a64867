// The socket Transport backend: real frames over real file descriptors.
//
// Where ThreadTransport plays the wire with in-process shard threads,
// SocketTransport puts every message THROUGH THE KERNEL: each wire
// attempt is one codec frame (net/wire_codec.hpp) written to a
// nonblocking stream socket -- Unix-domain or TCP -- and read back,
// reassembled and decoded by a poll() event loop.  Reliable delivery
// above the wire (transfer slots, acks, capped-exponential
// retransmission, the bounded orphan dedup window, crash/stall marks) is
// the shared core's (protocol/reliable_core.hpp), and the driving
// thread's side is ConcurrentTransport's: tests/transport_conformance_test
// runs the same contract suite against all three backends.
//
// Topology: the transport binds one listen address and maintains one
// outbound connection per configured peer, routing a frame for node
// `dst` to peer `dst % peers`.  The default -- no peers configured -- is
// the *loopback* arrangement: the transport connects to its own listen
// socket, so every frame and every ack genuinely crosses the kernel
// while all nodes stay in this process.  That is the conformance-suite
// configuration and the arrangement tools/voronet_served runs (the
// VoroNet differential harness needs the shared ground-truth overlay in
// one process; what multi-process buys is the serving boundary, see
// net/serve_loop.hpp).  Outbound connections reconnect with
// capped-exponential backoff; frames scheduled while a peer is down wait
// in its queue (the reliable layer's retransmit timers, not the
// connection layer, decide abandonment).
//
// Failure injection (loss, link filters, duplication, latency spikes)
// is drawn at transmit time, BEFORE any bytes exist: a "lost" frame is
// simply never written, which keeps the conformance suite's schedule-
// independent attempt counts exact on sockets.  The latency model is
// honoured by delaying each frame's enqueue-to-socket instant; kernel
// transit adds its real microseconds on top.
//
// Threading: ConcurrentTransport's contract; the I/O thread plays the
// wire.  NOT deterministic.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.hpp"
#include "protocol/concurrent_transport.hpp"

namespace voronet::net {

struct SocketTransportConfig {
  /// Listen address spec ("uds:/path" / "tcp:host:port"); empty picks a
  /// fresh Unix-domain path under $TMPDIR.
  std::string listen;
  /// Peer address specs; empty means loopback (one peer: ourselves).
  std::vector<std::string> peers;
  /// run_to_idle's wall-clock cap before budget_exhausted.
  double patience = 60.0;
  /// Reconnect backoff: attempt k waits min(base * 2^(k-1), cap).
  double reconnect_base = 0.01;
  double reconnect_cap = 2.0;
};

class SocketTransport final : public protocol::ConcurrentTransport {
 public:
  using NetworkConfig = protocol::NetworkConfig;
  using Message = protocol::Message;

  /// Binds, spawns the I/O thread, and starts connecting.  Throws
  /// std::runtime_error when the listen address cannot be bound (that is
  /// a configuration error, unlike peer connects, which retry forever).
  explicit SocketTransport(const NetworkConfig& config,
                           SocketTransportConfig socket_config = {});
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  /// The core's bytes plus the pooled frame buffers.
  [[nodiscard]] std::size_t memory_bytes() const override;

  [[nodiscard]] const char* backend_name() const override { return "socket"; }

  /// The bound listen address (resolved: TCP port 0 becomes the kernel's
  /// pick), for handing to a peer process.
  [[nodiscard]] const Address& listen_address() const { return listen_addr_; }

 private:
  /// A timed event for the I/O thread: an encoded frame to enqueue on a
  /// peer connection at its latency deadline, a retransmit timer, or a
  /// (re)connect attempt.
  struct NetEvent {
    double at = 0.0;
    std::uint64_t seq = 0;
    enum Kind : std::uint8_t { kWrite, kRetransmit, kConnect } kind = kWrite;
    std::size_t peer = 0;             ///< kWrite / kConnect
    std::vector<std::uint8_t> frame;  ///< kWrite payload
    std::uint32_t slot = 0;           ///< kRetransmit
    std::uint64_t transfer = 0;       ///< kRetransmit generation check
  };

  /// One outbound peer connection (I/O thread only, except `addr`).
  struct Peer {
    Address addr;
    int fd = -1;
    bool connecting = false;
    std::deque<std::vector<std::uint8_t>> outq;  ///< frames awaiting write
    std::size_t out_off = 0;  ///< bytes of outq.front() already written
    std::size_t attempts = 0;  ///< connects since last success
  };

  /// One accepted inbound connection (I/O thread only).
  struct Inbound {
    int fd = -1;
    std::vector<std::uint8_t> buf;  ///< reassembly buffer
    std::size_t off = 0;            ///< consumed prefix of buf
  };

  // --- Wire hooks (called under the core's lock) ---------------------------
  /// Encode the frame now (loss was already drawn) and schedule its
  /// enqueue on the destination's peer connection at the latency deadline.
  void carry(const Message& msg, double delay) override;
  sim::TimerId arm_retransmit(const Message& msg, double delay) override;

  // --- I/O thread ----------------------------------------------------------
  void io_loop();
  void post(NetEvent ev);
  void wake_io();
  void process_due(NetEvent& ev);
  void try_connect(std::size_t peer_index);
  /// Queue the peer's next connect attempt after its capped backoff.
  void schedule_reconnect(Peer& peer, std::size_t peer_index);
  void peer_down(Peer& peer, std::size_t peer_index);
  void flush_peer(Peer& peer, std::size_t peer_index);
  void read_inbound(Inbound& conn);
  void recycle_frame(std::vector<std::uint8_t>&& frame);

  SocketTransportConfig socket_config_;
  /// Encoded-frame buffers for reuse; behind the core's lock (guard()).
  std::vector<std::vector<std::uint8_t>> frame_pool_;

  // --- I/O side ------------------------------------------------------------
  Address listen_addr_;
  int listen_fd_ = -1;
  int wake_rd_ = -1;  ///< self-pipe: poll() wakeup from post()/dtor
  int wake_wr_ = -1;
  std::vector<Peer> peers_;
  std::vector<Inbound> inbound_;
  /// Guards inbox_/stop_; never held while taking the core's lock.
  std::mutex io_m_;
  std::vector<NetEvent> inbox_;
  bool stop_ = false;
  std::vector<NetEvent> heap_;  ///< (at, seq) min-heap, I/O thread only
  std::thread io_thread_;
};

}  // namespace voronet::net
