#include "net/socket_transport.hpp"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "net/wire_codec.hpp"

namespace voronet::net {

namespace {

constexpr std::size_t kMaxPooledFrame = 1u << 16;
constexpr std::size_t kMaxFramePool = 256;

}  // namespace

SocketTransport::SocketTransport(const NetworkConfig& config,
                                 SocketTransportConfig socket_config)
    : ConcurrentTransport(config, socket_config.patience),
      socket_config_(std::move(socket_config)) {
  std::string err;
  Address listen_spec;
  if (socket_config_.listen.empty()) {
    listen_spec.family = Address::Family::kUnix;
    listen_spec.path = unique_uds_path();
  } else if (!parse_address(socket_config_.listen, listen_spec, err)) {
    throw std::runtime_error("SocketTransport: " + err);
  }
  listen_fd_ = open_listener(listen_spec, listen_addr_, err);
  if (listen_fd_ < 0) {
    throw std::runtime_error("SocketTransport: cannot listen on " +
                             listen_spec.spec() + ": " + err);
  }

  if (socket_config_.peers.empty()) {
    // Loopback: one peer, ourselves -- every frame round-trips through
    // the kernel and comes back in on an accepted connection.
    Peer self;
    self.addr = listen_addr_;
    peers_.push_back(std::move(self));
  } else {
    for (const std::string& spec : socket_config_.peers) {
      Peer peer;
      if (!parse_address(spec, peer.addr, err)) {
        ::close(listen_fd_);
        throw std::runtime_error("SocketTransport: " + err);
      }
      peers_.push_back(std::move(peer));
    }
  }

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    ::close(listen_fd_);
    throw std::runtime_error("SocketTransport: pipe() failed");
  }
  wake_rd_ = pipe_fds[0];
  wake_wr_ = pipe_fds[1];
  (void)set_nonblocking(wake_rd_);
  (void)set_nonblocking(wake_wr_);

  for (std::size_t i = 0; i < peers_.size(); ++i) {
    NetEvent ev;
    ev.kind = NetEvent::kConnect;
    ev.peer = i;
    ev.seq = next_seq();
    inbox_.push_back(std::move(ev));  // no thread yet: direct, unlocked
  }
  io_thread_ = std::thread([this] { io_loop(); });
}

SocketTransport::~SocketTransport() {
  {
    std::lock_guard<std::mutex> lk(io_m_);
    stop_ = true;
  }
  wake_io();
  io_thread_.join();
  for (Peer& p : peers_) {
    if (p.fd >= 0) ::close(p.fd);
  }
  for (Inbound& c : inbound_) {
    if (c.fd >= 0) ::close(c.fd);
  }
  ::close(listen_fd_);
  ::close(wake_rd_);
  ::close(wake_wr_);
  if (listen_addr_.family == Address::Family::kUnix) {
    ::unlink(listen_addr_.path.c_str());
  }
}

std::size_t SocketTransport::memory_bytes() const {
  std::size_t b = ConcurrentTransport::memory_bytes();
  const auto lk = guard();
  for (const auto& f : frame_pool_) b += f.capacity();
  return b;
}

void SocketTransport::recycle_frame(std::vector<std::uint8_t>&& frame) {
  const auto lk = guard();
  if (frame.capacity() == 0 || frame.capacity() > kMaxPooledFrame ||
      frame_pool_.size() >= kMaxFramePool) {
    return;
  }
  frame.clear();
  frame_pool_.push_back(std::move(frame));
}

// ---------------------------------------------------------------------------
// Wire hooks (called under the core's lock)
// ---------------------------------------------------------------------------

void SocketTransport::carry(const Message& msg, double delay) {
  std::vector<std::uint8_t> frame;
  if (!frame_pool_.empty()) {
    frame = std::move(frame_pool_.back());
    frame_pool_.pop_back();
    frame.clear();
  }
  encode_frame(msg, frame);
  NetEvent ev;
  ev.at = now() + delay;
  ev.seq = next_seq();
  ev.kind = NetEvent::kWrite;
  ev.peer = msg.dst < 0 ? 0
                        : static_cast<std::size_t>(msg.dst) % peers_.size();
  ev.frame = std::move(frame);
  launch();
  post(std::move(ev));
}

sim::TimerId SocketTransport::arm_retransmit(const Message& msg,
                                             double delay) {
  NetEvent timer;
  timer.at = now() + delay;
  timer.seq = next_seq();
  timer.kind = NetEvent::kRetransmit;
  timer.slot = msg.transfer_slot;
  timer.transfer = msg.transfer_id;
  post(std::move(timer));
  return sim::kNoTimer;
}

// ---------------------------------------------------------------------------
// I/O thread: poll loop, timed events, connect/reconnect, frame I/O
// ---------------------------------------------------------------------------

void SocketTransport::post(NetEvent ev) {
  {
    std::lock_guard<std::mutex> lk(io_m_);
    inbox_.push_back(std::move(ev));
  }
  wake_io();
}

void SocketTransport::wake_io() {
  const char byte = 1;
  // EAGAIN means the pipe already holds a wakeup; that is enough.
  (void)!::write(wake_wr_, &byte, 1);
}

void SocketTransport::process_due(NetEvent& ev) {
  switch (ev.kind) {
    case NetEvent::kWrite:
      peers_[ev.peer].outq.push_back(std::move(ev.frame));
      break;
    case NetEvent::kRetransmit:
      on_timeout(ev.slot, ev.transfer);
      break;
    case NetEvent::kConnect:
      try_connect(ev.peer);
      break;
  }
}

void SocketTransport::try_connect(std::size_t peer_index) {
  Peer& peer = peers_[peer_index];
  if (peer.fd >= 0) return;
  bool in_progress = false;
  std::string err;
  const int fd = start_connect(peer.addr, in_progress, err);
  if (fd < 0) {
    schedule_reconnect(peer, peer_index);
    return;
  }
  peer.fd = fd;
  peer.connecting = in_progress;
  if (!in_progress) peer.attempts = 0;
}

void SocketTransport::peer_down(Peer& peer, std::size_t peer_index) {
  if (peer.fd >= 0) ::close(peer.fd);
  peer.fd = -1;
  peer.connecting = false;
  // Frames queued for a dead connection are wire losses: the reliable
  // layer's retransmit timers, which survive the connection, re-send.
  const std::size_t lost = peer.outq.size();
  for (auto& frame : peer.outq) recycle_frame(std::move(frame));
  peer.outq.clear();
  peer.out_off = 0;
  lose(lost);
  schedule_reconnect(peer, peer_index);
}

void SocketTransport::schedule_reconnect(Peer& peer, std::size_t peer_index) {
  ++peer.attempts;
  const double exponent =
      std::min<double>(static_cast<double>(peer.attempts - 1), 20.0);
  const double wait =
      std::min(socket_config_.reconnect_base * std::pow(2.0, exponent),
               socket_config_.reconnect_cap);
  NetEvent retry;
  retry.at = now() + wait;
  retry.seq = next_seq();
  retry.kind = NetEvent::kConnect;
  retry.peer = peer_index;
  heap_.push_back(std::move(retry));
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void SocketTransport::flush_peer(Peer& peer, std::size_t peer_index) {
  if (peer.fd < 0 || peer.connecting) return;
  while (!peer.outq.empty()) {
    std::vector<std::uint8_t>& frame = peer.outq.front();
    const ssize_t n =
        ::write(peer.fd, frame.data() + peer.out_off,
                frame.size() - peer.out_off);
    if (n > 0) {
      peer.out_off += static_cast<std::size_t>(n);
      if (peer.out_off == frame.size()) {
        recycle_frame(std::move(frame));
        peer.outq.pop_front();
        peer.out_off = 0;
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    peer_down(peer, peer_index);
    return;
  }
}

void SocketTransport::read_inbound(Inbound& conn) {
  // On EOF or a hard error, finish decoding what we have, then drop the fd.
  const bool closed = !read_available(conn.fd, conn.buf);
  for (;;) {
    Message msg = draft();
    std::size_t consumed = 0;
    std::string diag;
    const DecodeStatus st =
        decode_frame(conn.buf.data() + conn.off, conn.buf.size() - conn.off,
                     consumed, msg, &diag);
    if (st == DecodeStatus::kNeedMore) {
      recycle_payload(std::move(msg.entries));
      break;
    }
    if (st != DecodeStatus::kOk) {
      // No resync point in a corrupt stream: drop the connection.  The
      // reliable layer retransmits anything that was lost with it.
      std::fprintf(stderr, "voronet socket: dropping connection: %s (%s)\n",
                   diag.c_str(), decode_status_name(st));
      ::close(conn.fd);
      conn.fd = -1;
      recycle_payload(std::move(msg.entries));
      return;
    }
    conn.off += consumed;
    land(std::move(msg));
  }
  if (closed && conn.fd >= 0) {
    ::close(conn.fd);
    conn.fd = -1;
  }
  compact_consumed(conn.buf, conn.off);
}

void SocketTransport::io_loop() {
  struct PollRef {
    enum Kind : std::uint8_t { kWake, kListen, kPeer, kInbound } kind;
    std::size_t index = 0;
  };
  std::vector<pollfd> pfds;
  std::vector<PollRef> refs;
  for (;;) {
    {
      std::lock_guard<std::mutex> lk(io_m_);
      for (NetEvent& ev : inbox_) {
        heap_.push_back(std::move(ev));
        std::push_heap(heap_.begin(), heap_.end(), Later{});
      }
      inbox_.clear();
      if (stop_) break;
    }
    bool progressed = false;
    const double t = now();
    while (!heap_.empty() && heap_.front().at <= t) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      NetEvent ev = std::move(heap_.back());
      heap_.pop_back();
      process_due(ev);
      progressed = true;
    }
    for (std::size_t i = 0; i < peers_.size(); ++i) {
      flush_peer(peers_[i], i);
    }
    if (progressed) continue;  // new events may have landed in the inbox

    pfds.clear();
    refs.clear();
    pfds.push_back({wake_rd_, POLLIN, 0});
    refs.push_back({PollRef::kWake});
    pfds.push_back({listen_fd_, POLLIN, 0});
    refs.push_back({PollRef::kListen});
    for (std::size_t i = 0; i < peers_.size(); ++i) {
      const Peer& p = peers_[i];
      if (p.fd < 0) continue;
      short events = POLLIN;
      if (p.connecting || !p.outq.empty()) events |= POLLOUT;
      pfds.push_back({p.fd, events, 0});
      refs.push_back({PollRef::kPeer, i});
    }
    for (std::size_t i = 0; i < inbound_.size(); ++i) {
      pfds.push_back({inbound_[i].fd, POLLIN, 0});
      refs.push_back({PollRef::kInbound, i});
    }
    int timeout_ms = -1;
    if (!heap_.empty()) {
      const double dt = heap_.front().at - now();
      timeout_ms = dt <= 0.0
                       ? 0
                       : static_cast<int>(std::min(dt * 1000.0 + 1.0, 1000.0));
    }
    const int ready = ::poll(pfds.data(),
                             static_cast<nfds_t>(pfds.size()), timeout_ms);
    if (ready <= 0) continue;

    for (std::size_t i = 0; i < pfds.size(); ++i) {
      const short revents = pfds[i].revents;
      if (revents == 0) continue;
      switch (refs[i].kind) {
        case PollRef::kWake: {
          char buf[64];
          while (::read(wake_rd_, buf, sizeof(buf)) > 0) {
          }
          break;
        }
        case PollRef::kListen: {
          for (;;) {
            const int fd = accept_conn(listen_fd_);
            if (fd < 0) break;
            Inbound conn;
            conn.fd = fd;
            inbound_.push_back(std::move(conn));
          }
          break;
        }
        case PollRef::kPeer: {
          Peer& p = peers_[refs[i].index];
          if (p.fd != pfds[i].fd) break;  // closed earlier this pass
          if (p.connecting) {
            if ((revents & (POLLOUT | POLLERR | POLLHUP)) != 0) {
              const int soerr = finish_connect(p.fd);
              if (soerr == 0) {
                p.connecting = false;
                p.attempts = 0;
              } else {
                peer_down(p, refs[i].index);
                break;
              }
            }
          }
          if ((revents & (POLLERR | POLLHUP)) != 0) {
            peer_down(p, refs[i].index);
            break;
          }
          if ((revents & POLLIN) != 0) {
            // Peers never send data back on our outbound connection in
            // this topology; readable here means EOF or junk.
            char buf[256];
            const ssize_t n = ::read(p.fd, buf, sizeof(buf));
            if (n == 0 ||
                (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
              peer_down(p, refs[i].index);
              break;
            }
          }
          flush_peer(p, refs[i].index);
          break;
        }
        case PollRef::kInbound: {
          Inbound& conn = inbound_[refs[i].index];
          if (conn.fd != pfds[i].fd) break;
          read_inbound(conn);
          break;
        }
      }
    }
    // Reap inbound connections closed during dispatch (EOF, decode error).
    std::erase_if(inbound_, [](const Inbound& conn) { return conn.fd < 0; });
  }
}

}  // namespace voronet::net
