#include "net/serve_client.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "net/socket.hpp"
#include "serve/open_loop.hpp"

namespace voronet::net {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

ServeClient::ServeClient(const std::string& spec, double connect_timeout)
    : write_timeout_(connect_timeout) {
  Address addr;
  std::string err;
  if (!parse_address(spec, addr, err)) {
    throw std::runtime_error("serve client: bad address: " + err);
  }
  const auto t0 = Clock::now();
  // The server process may still be growing its overlay: retry the
  // connect until the deadline, then give up loudly.
  for (;;) {
    bool in_progress = false;
    fd_ = start_connect(addr, in_progress, err);
    if (fd_ >= 0 && in_progress) {
      pollfd pfd{fd_, POLLOUT, 0};
      while (seconds_since(t0) < connect_timeout && ::poll(&pfd, 1, 50) <= 0) {
      }
      if (finish_connect(fd_) != 0) {
        ::close(fd_);
        fd_ = -1;
      }
    }
    if (fd_ >= 0) break;
    if (seconds_since(t0) >= connect_timeout) {
      throw std::runtime_error("serve client: connect to " + addr.spec() +
                               " timed out");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  ServeFrame hello;
  hello.kind = ServeKind::kHello;
  send_frame(hello);
  ServeFrame ack;
  if (!pump(connect_timeout, ServeKind::kHelloAck, &ack, nullptr)) {
    throw std::runtime_error("serve client: hello handshake timed out");
  }
  objects_ = ack.objects;
}

ServeClient::~ServeClient() {
  if (fd_ >= 0) ::close(fd_);
}

std::uint64_t ServeClient::submit_radius(Vec2 centre, double radius) {
  ServeFrame f;
  f.kind = ServeKind::kSubmitRadius;
  f.a = centre;
  f.tol = radius;
  const std::uint64_t id = send_frame(f);
  ++outstanding_;
  return id;
}

std::uint64_t ServeClient::submit_range(Vec2 a, Vec2 b, double tol) {
  ServeFrame f;
  f.kind = ServeKind::kSubmitRange;
  f.a = a;
  f.b = b;
  f.tol = tol;
  const std::uint64_t id = send_frame(f);
  ++outstanding_;
  return id;
}

std::size_t ServeClient::poll_answers(double timeout_s) {
  std::size_t answers = 0;
  // Waiting "for" kAnswer: pump returns true on the first one; keep the
  // count from the dispatch path instead and swallow the timeout.
  pump(timeout_s, ServeKind::kAnswer, nullptr, &answers);
  return answers;
}

ServeFrame ServeClient::get_report(double timeout_s) {
  ServeFrame req;
  req.kind = ServeKind::kGetReport;
  send_frame(req);
  ServeFrame reply;
  if (!pump(timeout_s, ServeKind::kReport, &reply, nullptr)) {
    throw std::runtime_error("serve client: report request timed out");
  }
  return reply;
}

void ServeClient::shutdown_server() {
  ServeFrame f;
  f.kind = ServeKind::kShutdown;
  send_frame(f);
}

std::uint64_t ServeClient::send_frame(ServeFrame frame) {
  frame.id = next_id_++;
  out_.clear();
  encode_serve_frame(frame, out_);
  std::size_t off = 0;
  const auto t0 = Clock::now();
  while (off < out_.size()) {
    const ssize_t put =
        ::send(fd_, out_.data() + off, out_.size() - off, MSG_NOSIGNAL);
    if (put > 0) {
      off += static_cast<std::size_t>(put);
      continue;
    }
    if (put < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // The server is not reading; wait for room, but not for ever.
      const double remaining = write_timeout_ - seconds_since(t0);
      if (remaining <= 0.0) {
        throw std::runtime_error("serve client: write timed out");
      }
      pollfd pfd{fd_, POLLOUT, 0};
      (void)::poll(&pfd, 1, static_cast<int>(std::min(remaining, 1.0) * 1e3));
      continue;
    }
    throw std::runtime_error("serve client: connection lost on write");
  }
  return frame.id;
}

bool ServeClient::pump(double timeout_s, ServeKind wait_for, ServeFrame* reply,
                       std::size_t* answers) {
  const auto t0 = Clock::now();
  for (;;) {
    // Dispatch everything already buffered before touching the socket.
    for (;;) {
      ServeFrame frame;
      std::size_t consumed = 0;
      std::string diag;
      const DecodeStatus st = decode_serve_frame(
          in_.data() + in_off_, in_.size() - in_off_, consumed, frame, &diag);
      if (st == DecodeStatus::kNeedMore) break;
      if (st != DecodeStatus::kOk) {
        throw std::runtime_error(std::string("serve client: corrupt stream: ") +
                                 decode_status_name(st) + " (" + diag + ")");
      }
      in_off_ += consumed;
      compact_consumed(in_, in_off_);
      if (frame.kind == ServeKind::kAnswer) {
        if (outstanding_ > 0) --outstanding_;
        if (answers != nullptr) ++*answers;
        if (on_answer_) on_answer_(frame);
        if (wait_for == ServeKind::kAnswer) return true;
        continue;
      }
      if (frame.kind == wait_for) {
        if (reply != nullptr) *reply = frame;
        return true;
      }
      throw std::runtime_error(std::string("serve client: unexpected ") +
                               serve_kind_name(frame.kind) + " frame");
    }

    const double remaining = timeout_s - seconds_since(t0);
    if (remaining <= 0.0) return false;
    pollfd pfd{fd_, POLLIN, 0};
    const int timeout_ms =
        std::max(1, static_cast<int>(std::min(remaining, 0.1) * 1000.0));
    const int n = ::poll(&pfd, 1, timeout_ms);
    if (n <= 0) continue;
    if (!read_available(fd_, in_)) {
      throw std::runtime_error("serve client: server closed the connection");
    }
  }
}

// ---------------------------------------------------------------------------
// Workload drivers
// ---------------------------------------------------------------------------

serve::LoadReport run_open_loop_remote(ServeClient& client,
                                       const serve::LoadConfig& config,
                                       ServeFrame* server_report) {
  // serve::run_open_loop's schedule, so a remote cell offers the same
  // arrival process as an in-process one.
  const std::vector<serve::Arrival> arrivals = serve::draw_arrivals(config);

  std::unordered_map<std::uint64_t, double> sent_at;
  std::vector<double> latencies;
  const auto start = Clock::now();
  client.set_answer_handler([&](const ServeFrame& answer) {
    const auto it = sent_at.find(answer.id);
    if (it == sent_at.end() || answer.rejected) return;
    latencies.push_back(seconds_since(start) - it->second);
  });

  for (const serve::Arrival& a : arrivals) {
    // Pace on the wall clock, draining answers while we wait -- arrivals
    // never block on responses (the open-loop discipline).
    for (;;) {
      const double wait = a.t - seconds_since(start);
      if (wait <= 0.0) break;
      client.poll_answers(std::min(wait, 0.05));
    }
    const std::uint64_t id =
        a.range ? client.submit_range(a.a, a.b, a.tol)
                : client.submit_radius(a.a, a.tol);
    sent_at[id] = seconds_since(start);
  }

  // Drain: every submitted query is owed exactly one answer.
  const double patience = 60.0;
  const auto drain0 = Clock::now();
  while (client.outstanding() > 0 && seconds_since(drain0) < patience) {
    client.poll_answers(0.1);
  }
  client.set_answer_handler(nullptr);

  const ServeFrame rf = client.get_report();
  if (server_report != nullptr) *server_report = rf;

  serve::LoadReport report;
  report.offered = arrivals.size();
  report.admitted = rf.admitted;
  report.rejected = rf.rejected_total;
  report.completed = rf.completed;
  report.cache_hits = rf.cache_hits;
  report.batches = rf.batches;
  report.drained = rf.drained && client.outstanding() == 0;
  serve::summarize(latencies, report);
  report.graded = rf.graded;
  report.recall = rf.recall;
  report.precision = rf.precision;
  return report;
}

}  // namespace voronet::net
