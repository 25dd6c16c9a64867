// Client side of the serving boundary: a blocking-convenience wrapper
// over one serve_wire connection, plus the two workload drivers that
// make a remote shard a drop-in measurement target --
// run_open_loop_remote mirrors serve::run_open_loop (identical Poisson
// schedule, identical LoadReport shape, wall-clock latencies measured
// at THIS process), and drive_query_stream interprets the scenario
// vocabulary's query events (kQueryStream / kRangeQuery /
// kRadiusQuery) against the socket instead of an in-process harness.
//
// Threading: a ServeClient is single-threaded -- every method runs on
// the caller's thread, reads drain inline.  The fd is nonblocking; the
// "blocking" methods poll with deadlines so a dead server surfaces as
// a timeout error, not a hang.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/serve_wire.hpp"
#include "scenario/events.hpp"

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
  /// overlay), then complete the kHello round trip.  Throws
  /// std::runtime_error on timeout or a malformed spec.
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
  std::uint64_t next_request_id();
  void send_frame(const ServeFrame& frame);
  /// Read + dispatch frames until one of kind `wait_for` arrives (into
  /// `reply`) or `timeout_s` elapses; pass kAnswer to just drain.
  /// Returns false on timeout; throws on EOF / corrupt stream.
  bool pump(double timeout_s, ServeKind wait_for, ServeFrame* reply,
            std::size_t* answers);

  int fd_ = -1;
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

/// Interpret one scenario query event against a remote shard: explicit
/// kRangeQuery / kRadiusQuery geometry is submitted as-is, kQueryStream
/// draws its mix and per-operation times (kEven / kUniform / kPoisson
/// over [at, at+duration], taken as wall seconds from the call) and its
/// scale-free geometry from `seed` exactly like the in-process
/// scheduler.  Returns the number of queries submitted; answers arrive
/// through the client's answer handler.
std::size_t drive_query_stream(ServeClient& client,
                               const scenario::Event& event,
                               std::uint64_t seed);

}  // namespace voronet::net
