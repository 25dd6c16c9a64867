#include "net/serve_loop.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "serve/open_loop.hpp"

namespace voronet::net {

namespace {

/// Harness drive quantum per loop pass (wall seconds on the thread
/// backend, virtual seconds on sim).
constexpr double kSlice = 0.002;
/// Short-wire latency model + failure detector, scaled like
/// bench_serve's cells so shard numbers are comparable.
constexpr double kLatencyLow = 0.0005;
constexpr double kLatencyHigh = 0.002;
constexpr double kFailureDetectDelay = 0.05;

/// A submission the QueryServer contract checks would throw on: a
/// non-finite coordinate (a radius frame decodes with b = a), or a
/// negative or NaN radius / tolerance.  Refused here, a client's bad
/// input ends that client's connection instead of the serve loop.
bool malformed_submit(const ServeFrame& f) {
  const auto finite = [](Vec2 p) {
    return std::isfinite(p.x) && std::isfinite(p.y);
  };
  return !finite(f.a) || !finite(f.b) || !(f.tol >= 0.0);
}

}  // namespace

ServedShard::ServedShard(const ServedConfig& config) {
  protocol::HarnessConfig hc;
  hc.transport = config.backend;
  hc.transport_shards = config.shards;
  hc.seed = config.seed;
  // Short wires, like bench_serve's cells: on the thread backend these
  // are wall-clock seconds, and a shard should answer in milliseconds,
  // not simulated-WAN seconds.
  hc.network.latency =
      protocol::LatencyModel::uniform(kLatencyLow, kLatencyHigh);
  hc.network.seed = config.seed ^ 0x77aabULL;
  hc.failure_detect_delay = kFailureDetectDelay;

  query_harness_ = std::make_unique<protocol::QueryHarness>(hc);
  query_harness_->populate(config.objects, config.seed ^ 0x9e37ULL, 0.002);
  server_ = std::make_unique<serve::QueryServer>(query_harness_->harness(),
                                                 config.serve);

  Address want;
  std::string err;
  const std::string spec =
      config.listen.empty() ? "uds:" + unique_uds_path() : config.listen;
  if (!parse_address(spec, want, err)) {
    throw std::runtime_error("served: bad listen spec: " + err);
  }
  listen_fd_ = open_listener(want, addr_, err);
  if (listen_fd_ < 0) {
    throw std::runtime_error("served: listen failed: " + err);
  }
}

ServedShard::~ServedShard() {
  for (Client& c : clients_) {
    if (c.fd >= 0) ::close(c.fd);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (addr_.family == Address::Family::kUnix) {
    ::unlink(addr_.path.c_str());
  }
}

std::uint64_t ServedShard::serve() {
  protocol::ProtocolHarness& harness = query_harness_->harness();
  while (!stop_.load(std::memory_order_relaxed)) {
    // One short poll pass over the client-facing sockets...
    std::vector<pollfd> pfds;
    pfds.push_back(pollfd{listen_fd_, POLLIN, 0});
    for (const Client& c : clients_) {
      short events = POLLIN;
      if (c.out.size() > c.out_off) events |= POLLOUT;
      pfds.push_back(pollfd{c.fd, events, 0});
    }
    const int n = ::poll(pfds.data(), pfds.size(), /*timeout_ms=*/1);
    if (n > 0) {
      // Only the clients polled above have a pfds slot; accept after.
      for (std::size_t i = 0; i + 1 < pfds.size(); ++i) {
        Client& c = clients_[i];
        const short re = pfds[i + 1].revents;
        bool alive = true;
        if ((re & (POLLERR | POLLHUP | POLLNVAL)) != 0 && (re & POLLIN) == 0) {
          alive = false;
        }
        if (alive && (re & POLLIN) != 0) alive = read_client(c);
        if (alive && (re & POLLOUT) != 0) alive = flush_client(c);
        if (!alive) {
          ::close(c.fd);
          c.fd = -1;
        }
      }
      std::erase_if(clients_, [](const Client& c) { return c.fd < 0; });
      if ((pfds[0].revents & POLLIN) != 0) accept_clients();
    }
    // ... then one drive slice of the harness (protocol upcalls and
    // flood completions all run here, on this thread) ...
    harness.run_until(harness.network().now() + kSlice);
    // ... then ship every answer that slice produced.
    sweep_answers();
    for (Client& c : clients_) {
      if (!flush_client(c)) {
        ::close(c.fd);
        c.fd = -1;
      }
    }
    std::erase_if(clients_, [](const Client& c) { return c.fd < 0; });
  }
  return answered_;
}

void ServedShard::accept_clients() {
  for (;;) {
    const int fd = accept_conn(listen_fd_);
    if (fd < 0) break;
    Client c;
    c.fd = fd;
    c.serial = next_serial_++;
    clients_.push_back(std::move(c));
  }
}

bool ServedShard::read_client(Client& client) {
  const bool closed = !read_available(client.fd, client.in);
  for (;;) {
    ServeFrame frame;
    std::size_t consumed = 0;
    std::string diag;
    const DecodeStatus st =
        decode_serve_frame(client.in.data() + client.in_off,
                           client.in.size() - client.in_off, consumed, frame,
                           &diag);
    if (st == DecodeStatus::kNeedMore) break;
    if (st != DecodeStatus::kOk) {
      std::fprintf(stderr, "served: dropping client %llu: %s (%s)\n",
                   static_cast<unsigned long long>(client.serial),
                   decode_status_name(st), diag.c_str());
      return false;
    }
    client.in_off += consumed;
    if (!handle_frame(client, frame)) return false;
  }
  compact_consumed(client.in, client.in_off);
  // EOF means the client is gone: answers still pending for it are
  // swept to a dead serial and silently dropped (find_client misses).
  return !closed;
}

bool ServedShard::handle_frame(Client& client, const ServeFrame& frame) {
  switch (frame.kind) {
    case ServeKind::kHello: {
      ServeFrame ack;
      ack.kind = ServeKind::kHelloAck;
      ack.id = frame.id;
      ack.objects = query_harness_->harness().node_count();
      ack.topology_version = query_harness_->harness().topology_version();
      encode_serve_frame(ack, client.out);
      return true;
    }
    case ServeKind::kSubmitRadius:
    case ServeKind::kSubmitRange: {
      if (malformed_submit(frame)) {
        std::fprintf(stderr,
                     "served: dropping client %llu: malformed %s frame "
                     "(non-finite coordinate, or negative or NaN "
                     "radius / tolerance)\n",
                     static_cast<unsigned long long>(client.serial),
                     serve_kind_name(frame.kind));
        return false;
      }
      const serve::QueryServer::TicketId ticket =
          frame.kind == ServeKind::kSubmitRadius
              ? server_->submit_radius(frame.a, frame.tol)
              : server_->submit_range(frame.a, frame.b, frame.tol);
      all_tickets_.push_back(ticket);
      pending_.push_back(PendingAnswer{ticket, client.serial, frame.id});
      return true;
    }
    case ServeKind::kGetReport:
      encode_serve_frame(build_report(frame.id), client.out);
      return true;
    case ServeKind::kShutdown:
      stop();
      return true;
    case ServeKind::kHelloAck:
    case ServeKind::kAnswer:
    case ServeKind::kReport:
      std::fprintf(stderr,
                   "served: dropping client %llu: unexpected %s frame\n",
                   static_cast<unsigned long long>(client.serial),
                   serve_kind_name(frame.kind));
      return false;
  }
  return false;
}

void ServedShard::sweep_answers() {
  for (std::size_t i = 0; i < pending_.size();) {
    const PendingAnswer& p = pending_[i];
    const serve::QueryServer::Ticket& t = server_->ticket(p.ticket);
    if (!t.done) {
      ++i;
      continue;
    }
    if (Client* client = find_client(p.client_serial); client != nullptr) {
      ServeFrame a;
      a.kind = ServeKind::kAnswer;
      a.id = p.request_id;
      a.rejected = t.rejected;
      a.cache_hit = t.cache_hit;
      a.topology_version = t.completed_version;
      a.server_latency = t.rejected ? 0.0 : t.latency();
      a.matches.assign(t.matches.begin(), t.matches.end());
      encode_serve_frame(a, client->out);
    }
    ++answered_;
    pending_[i] = pending_.back();
    pending_.pop_back();
  }
}

bool ServedShard::flush_client(Client& client) {
  while (client.out_off < client.out.size()) {
    // MSG_NOSIGNAL: a client that hung up with answers pending must cost
    // its connection (EPIPE), not the process (SIGPIPE).
    const ssize_t put =
        ::send(client.fd, client.out.data() + client.out_off,
               client.out.size() - client.out_off, MSG_NOSIGNAL);
    if (put > 0) {
      client.out_off += static_cast<std::size_t>(put);
      continue;
    }
    if (put < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    return false;
  }
  client.out.clear();
  client.out_off = 0;
  return true;
}

ServedShard::Client* ServedShard::find_client(std::uint64_t serial) {
  for (Client& c : clients_) {
    if (c.serial == serial) return &c;
  }
  return nullptr;
}

ServeFrame ServedShard::build_report(std::uint64_t request_id) {
  protocol::ProtocolHarness& harness = query_harness_->harness();
  const auto run = harness.run_to_idle();
  drained_ = !run.budget_exhausted;
  sweep_answers();  // the drain may have completed outstanding tickets

  ServeFrame r;
  r.kind = ServeKind::kReport;
  r.id = request_id;
  const serve::ServeStats& stats = server_->stats();
  r.submitted = stats.submitted;
  r.admitted = stats.admitted;
  r.rejected_total = stats.rejected;
  r.completed = stats.completed;
  r.cache_hits = stats.cache_hits;
  r.batches = stats.batches;
  r.batch_members = stats.batch_members;
  r.objects = harness.node_count();
  r.topology_version = harness.topology_version();
  r.drained = drained_;
  r.wire_bytes = harness.network().stats().wire_bytes;

  // Graded by the one grader serve::run_open_loop uses.
  const serve::Grade g = serve::grade_tickets(harness, *server_, all_tickets_);
  r.graded = g.graded;
  r.recall = g.recall;
  r.precision = g.precision;
  return r;
}

}  // namespace voronet::net
