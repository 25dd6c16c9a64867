#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace voronet::net {

namespace {

/// Read granularity of read_available, and compact_consumed's threshold.
constexpr std::size_t kReadChunk = std::size_t{1} << 16;

[[nodiscard]] std::string errno_message(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

/// Fill a sockaddr for `addr`; returns the length, 0 on bad input.
socklen_t fill_sockaddr(const Address& addr, sockaddr_storage& storage,
                        std::string& err) {
  std::memset(&storage, 0, sizeof(storage));
  if (addr.family == Address::Family::kUnix) {
    auto& sun = reinterpret_cast<sockaddr_un&>(storage);
    sun.sun_family = AF_UNIX;
    if (addr.path.size() + 1 > sizeof(sun.sun_path)) {
      err = "unix socket path too long: " + addr.path;
      return 0;
    }
    std::memcpy(sun.sun_path, addr.path.c_str(), addr.path.size() + 1);
    return static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) +
                                  addr.path.size() + 1);
  }
  auto& sin = reinterpret_cast<sockaddr_in&>(storage);
  sin.sin_family = AF_INET;
  sin.sin_port = htons(addr.port);
  const std::string host =
      addr.host == "localhost" ? std::string("127.0.0.1") : addr.host;
  if (inet_pton(AF_INET, host.c_str(), &sin.sin_addr) != 1) {
    err = "tcp host must be numeric IPv4 (or localhost): " + addr.host;
    return 0;
  }
  return sizeof(sockaddr_in);
}

void set_nodelay(int fd) {
  const int one = 1;
  (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// O_NONBLOCK on a fresh fd; returns false on fcntl failure.
bool set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

std::string Address::spec() const {
  if (family == Family::kUnix) return "uds:" + path;
  return "tcp:" + host + ":" + std::to_string(port);
}

bool parse_address(const std::string& spec, Address& out, std::string& err) {
  if (spec.rfind("uds:", 0) == 0) {
    out.family = Address::Family::kUnix;
    out.path = spec.substr(4);
    if (out.path.empty()) {
      err = "empty unix socket path in '" + spec + "'";
      return false;
    }
    return true;
  }
  if (spec.rfind("tcp:", 0) == 0) {
    const std::string rest = spec.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == rest.size()) {
      err = "expected tcp:host:port, got '" + spec + "'";
      return false;
    }
    out.family = Address::Family::kTcp;
    out.host = rest.substr(0, colon);
    char* end = nullptr;
    const long port = std::strtol(rest.c_str() + colon + 1, &end, 10);
    if (end == nullptr || *end != '\0' || port < 0 || port > 65535) {
      err = "bad tcp port in '" + spec + "'";
      return false;
    }
    out.port = static_cast<std::uint16_t>(port);
    return true;
  }
  err = "address must start with uds: or tcp:, got '" + spec + "'";
  return false;
}

std::string unique_uds_path() {
  static std::atomic<std::uint64_t> counter{0};
  const char* tmp = std::getenv("TMPDIR");
  std::string dir = (tmp != nullptr && *tmp != '\0') ? tmp : "/tmp";
  if (dir.back() == '/') dir.pop_back();
  return dir + "/voronet-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

int open_listener(const Address& addr, Address& resolved, std::string& err) {
  const int domain =
      addr.family == Address::Family::kUnix ? AF_UNIX : AF_INET;
  const int fd = ::socket(domain, SOCK_STREAM, 0);
  if (fd < 0) {
    err = errno_message("socket");
    return -1;
  }
  if (addr.family == Address::Family::kUnix) {
    ::unlink(addr.path.c_str());  // stale path from a dead predecessor
  } else {
    const int one = 1;
    (void)setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  }
  sockaddr_storage storage;
  const socklen_t len = fill_sockaddr(addr, storage, err);
  if (len == 0 || ::bind(fd, reinterpret_cast<sockaddr*>(&storage), len) < 0 ||
      ::listen(fd, 64) < 0 || !set_nonblocking(fd)) {
    if (err.empty()) err = errno_message("bind/listen");
    ::close(fd);
    return -1;
  }
  resolved = addr;
  if (addr.family == Address::Family::kTcp && addr.port == 0) {
    sockaddr_in sin;
    socklen_t sin_len = sizeof(sin);
    if (getsockname(fd, reinterpret_cast<sockaddr*>(&sin), &sin_len) == 0) {
      resolved.port = ntohs(sin.sin_port);
    }
  }
  return fd;
}

int start_connect(const Address& addr, bool& in_progress, std::string& err) {
  in_progress = false;
  const int domain =
      addr.family == Address::Family::kUnix ? AF_UNIX : AF_INET;
  const int fd = ::socket(domain, SOCK_STREAM, 0);
  if (fd < 0) {
    err = errno_message("socket");
    return -1;
  }
  if (!set_nonblocking(fd)) {
    err = errno_message("fcntl");
    ::close(fd);
    return -1;
  }
  sockaddr_storage storage;
  const socklen_t len = fill_sockaddr(addr, storage, err);
  if (len == 0) {
    ::close(fd);
    return -1;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&storage), len) == 0) {
    if (addr.family == Address::Family::kTcp) set_nodelay(fd);
    return fd;
  }
  if (errno == EINPROGRESS || errno == EAGAIN) {
    in_progress = true;
    return fd;
  }
  err = errno_message("connect");
  ::close(fd);
  return -1;
}

int finish_connect(int fd) {
  int soerr = 0;
  socklen_t len = sizeof(soerr);
  if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &len) < 0) return errno;
  if (soerr == 0) set_nodelay(fd);
  return soerr;
}

int accept_conn(int listen_fd) {
  const int fd = ::accept(listen_fd, nullptr, nullptr);
  if (fd < 0) return -1;
  if (!set_nonblocking(fd)) {
    ::close(fd);
    return -1;
  }
  set_nodelay(fd);
  return fd;
}

bool read_available(int fd, std::vector<std::uint8_t>& buf) {
  for (;;) {
    const std::size_t old = buf.size();
    buf.resize(old + kReadChunk);
    const ssize_t got = ::read(fd, buf.data() + old, kReadChunk);
    buf.resize(old + (got > 0 ? static_cast<std::size_t>(got) : 0));
    if (got > 0) {
      if (static_cast<std::size_t>(got) < kReadChunk) return true;
      continue;
    }
    return got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }
}

void compact_consumed(std::vector<std::uint8_t>& buf, std::size_t& off) {
  if (off == buf.size()) {
    buf.clear();
    off = 0;
  } else if (off >= kReadChunk) {
    buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(off));
    off = 0;
  }
}

}  // namespace voronet::net
