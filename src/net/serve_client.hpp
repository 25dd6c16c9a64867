// Client side of the serving boundary: a blocking-convenience wrapper
// over one serve_wire connection, plus the workload driver that makes a
// remote shard a drop-in measurement target -- run_open_loop_remote
// mirrors serve::run_open_loop (identical Poisson schedule, identical
// LoadReport shape, wall-clock latencies measured at THIS process).
//
// Threading: a ServeClient is single-threaded -- every method runs on
// the caller's thread, reads drain inline.  The fd is nonblocking; the
// "blocking" methods -- writes included -- poll with deadlines so a dead
// or wedged server surfaces as a timeout error, not a hang.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/serve_wire.hpp"

namespace voronet::serve {
struct LoadConfig;
struct LoadReport;
}  // namespace voronet::serve

namespace voronet::net {

class ServeClient {
 public:
  /// Invoked (on the polling thread) for every kAnswer frame.
  using AnswerHandler = std::function<void(const ServeFrame&)>;

  /// Connect to "uds:..." / "tcp:...", retrying until `connect_timeout`
  /// wall seconds elapse (the server process may still be populating its
  /// overlay), then complete the kHello round trip.  `connect_timeout`
  /// is also the handshake deadline and the deadline of every later
  /// frame write: a server that stops reading for that long makes the
  /// write throw.  Throws std::runtime_error on timeout or a malformed
  /// spec.
  explicit ServeClient(const std::string& spec, double connect_timeout = 30.0);
  ~ServeClient();

  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  void set_answer_handler(AnswerHandler handler) {
    on_answer_ = std::move(handler);
  }

  /// Submit a query; returns the request id the kAnswer will echo.
  std::uint64_t submit_radius(Vec2 centre, double radius);
  std::uint64_t submit_range(Vec2 a, Vec2 b, double tol);

  /// Drain arrived answers, waiting up to `timeout_s` for the first
  /// byte; returns the number of answers handled.
  std::size_t poll_answers(double timeout_s);

  /// Drain + grade round trip (answers arriving before the report are
  /// handled normally).  Throws on timeout or connection loss.
  ServeFrame get_report(double timeout_s = 120.0);

  /// Ask the server process to exit its serve loop.
  void shutdown_server();

  /// Shard population reported by the kHello banner.
  [[nodiscard]] std::uint64_t objects() const { return objects_; }
  /// Submitted queries whose answers have not arrived yet.
  [[nodiscard]] std::uint64_t outstanding() const { return outstanding_; }

 private:
  /// Stamp `frame` with the next request id and write it whole; returns
  /// the id.  Throws std::runtime_error when the write takes longer than
  /// write_timeout_ seconds, or the connection breaks.
  std::uint64_t send_frame(ServeFrame frame);
  /// Read + dispatch frames until one of kind `wait_for` arrives (into
  /// `reply`) or `timeout_s` elapses; pass kAnswer to just drain.
  /// Returns false on timeout; throws on EOF / corrupt stream.
  bool pump(double timeout_s, ServeKind wait_for, ServeFrame* reply,
            std::size_t* answers);

  int fd_ = -1;
  double write_timeout_ = 0.0;  ///< the constructor's connect_timeout
  std::uint64_t next_id_ = 1;
  std::uint64_t outstanding_ = 0;
  std::uint64_t objects_ = 0;
  std::vector<std::uint8_t> in_;
  std::size_t in_off_ = 0;
  std::vector<std::uint8_t> out_;
  AnswerHandler on_answer_;
};

/// serve::run_open_loop over a socket: the identical Poisson arrival
/// schedule (same seed, same Rng draw sequence), paced on THIS process's
/// wall clock, with per-query latency measured submit -> answer.  The
/// returned LoadReport merges client-side fields (offered, latency
/// distribution, completion) with the server's post-drain report
/// (admission / flood stats, grading, drained); `server_report`
/// (when non-null) additionally receives the raw kReport frame -- the
/// overlay-internal wire_bytes live there.
serve::LoadReport run_open_loop_remote(ServeClient& client,
                                       const serve::LoadConfig& config,
                                       ServeFrame* server_report = nullptr);

}  // namespace voronet::net
