// ServedShard: one process hosting an overlay shard behind a socket.
//
// This is the multi-process face of the serving layer: the shard owns a
// populated ProtocolHarness (thread or sim backend for the overlay's
// OWN wire traffic) plus the src/serve front-end (admission, result
// cache), and listens on a Unix or TCP socket speaking serve_wire
// frames.  That socket is the client boundary, not the overlay wire.
// External clients submit radius / range queries and receive kAnswer
// frames with the exact match sets; kGetReport drains the transport,
// grades every ticket against the sequential ground truth
// (serve::grade_tickets, the grader of serve::run_open_loop), and ships
// the stats back.
//
// Concurrency model: run() IS the transport's driving thread.  The loop
// alternates short poll() passes over the client sockets with short
// run_until() slices of the harness, so every QueryServer entry point
// and every protocol upcall executes on this one thread -- the
// single-threaded serving contract of src/serve holds unchanged across
// the process boundary.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/serve_wire.hpp"
#include "net/socket.hpp"
#include "protocol/query_harness.hpp"
#include "serve/query_server.hpp"

namespace voronet::net {

struct ServedConfig {
  /// Client-facing listen spec ("uds:/path" / "tcp:host:port"; empty
  /// picks a fresh Unix-domain path -- read it back via address()).
  std::string listen;
  std::size_t objects = 150;
  std::uint64_t seed = 0x5e12dULL;
  /// Transport backend for the overlay's internal wire traffic.
  protocol::TransportKind backend = protocol::TransportKind::kThread;
  unsigned shards = 0;             ///< thread-backend actor threads
  serve::ServeConfig serve;
};

class ServedShard {
 public:
  /// Builds the overlay (message-level joins to quiescence) and binds
  /// the listen socket; throws std::runtime_error when the bind fails.
  explicit ServedShard(const ServedConfig& config);
  ~ServedShard();

  ServedShard(const ServedShard&) = delete;
  ServedShard& operator=(const ServedShard&) = delete;

  /// The bound client-facing address (resolved TCP port / UDS path).
  [[nodiscard]] const Address& address() const { return addr_; }
  [[nodiscard]] protocol::ProtocolHarness& harness() {
    return query_harness_->harness();
  }

  /// Serve until a client sends kShutdown (or stop() is called from
  /// another thread).  Returns the number of queries answered.
  std::uint64_t serve();
  void stop() { stop_.store(true, std::memory_order_relaxed); }

 private:
  struct Client {
    int fd = -1;
    std::vector<std::uint8_t> in;   ///< reassembly buffer
    std::size_t in_off = 0;         ///< consumed prefix of `in`
    std::vector<std::uint8_t> out;  ///< pending writes
    std::size_t out_off = 0;
    std::uint64_t serial = 0;       ///< stable id across the clients_ vector
  };
  /// One submitted ticket awaiting its answer frame.
  struct PendingAnswer {
    serve::QueryServer::TicketId ticket = 0;
    std::uint64_t client_serial = 0;
    std::uint64_t request_id = 0;
  };

  void accept_clients();
  /// Drain readable bytes and execute every complete frame; returns
  /// false when the connection must close (EOF, corrupt or malformed
  /// frame).
  bool read_client(Client& client);
  /// Execute one frame; returns false (after a stderr line) when the
  /// frame is malformed -- a non-finite coordinate, or a negative or NaN
  /// radius / tolerance -- or is a server-to-client kind.
  bool handle_frame(Client& client, const ServeFrame& frame);
  /// Move answered tickets from pending_ to their clients' out buffers.
  void sweep_answers();
  /// Write as much of client.out as the socket accepts.
  bool flush_client(Client& client);
  [[nodiscard]] Client* find_client(std::uint64_t serial);
  [[nodiscard]] ServeFrame build_report(std::uint64_t request_id);

  std::unique_ptr<protocol::QueryHarness> query_harness_;
  std::unique_ptr<serve::QueryServer> server_;
  Address addr_;
  int listen_fd_ = -1;
  std::vector<Client> clients_;
  std::uint64_t next_serial_ = 1;
  std::vector<PendingAnswer> pending_;
  std::vector<serve::QueryServer::TicketId> all_tickets_;  ///< for grading
  std::uint64_t answered_ = 0;
  bool drained_ = true;  ///< last run_to_idle reached quiescence
  std::atomic<bool> stop_{false};
};

}  // namespace voronet::net
