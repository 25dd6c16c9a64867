// Thin POSIX socket helpers for the net subsystem: address parsing and
// nonblocking listen/connect/accept.
//
// Two address families, one textual spec format:
//
//   "uds:/path/to.sock"    Unix-domain stream socket
//   "tcp:127.0.0.1:7447"   TCP (numeric IPv4 host, or "localhost")
//
// Everything here is nonblocking from birth: the event loop in
// SocketTransport and the serving layer never wants a blocking fd, and
// handing one out by accident is the classic way a transport wedges.
// Failures are reported by return value + errno-derived message, not
// exceptions -- connect failures are routine (the peer process is still
// starting) and handled by backoff, not stack unwinding.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace voronet::net {

struct Address {
  enum class Family : std::uint8_t { kUnix, kTcp };
  Family family = Family::kUnix;
  std::string path;  ///< kUnix: filesystem path of the socket
  std::string host;  ///< kTcp: numeric IPv4 (or "localhost")
  std::uint16_t port = 0;

  [[nodiscard]] std::string spec() const;
};

/// Parse "uds:..." / "tcp:host:port".  Returns false (with a message in
/// `err`) on malformed specs; never throws.
[[nodiscard]] bool parse_address(const std::string& spec, Address& out,
                                 std::string& err);

/// A fresh Unix-domain path under $TMPDIR, unique within this host
/// (pid + process-wide counter) -- the default listen address when the
/// caller does not care where the socket lives.
[[nodiscard]] std::string unique_uds_path();

/// Bind + listen, nonblocking.  On success returns the fd and writes the
/// *resolved* address to `resolved` (TCP port 0 becomes the kernel's
/// ephemeral choice; UDS paths are unlinked first so rebinding a stale
/// path works).  Returns -1 with `err` set on failure.
[[nodiscard]] int open_listener(const Address& addr, Address& resolved,
                                std::string& err);

/// Begin a nonblocking connect.  Returns the fd (with `in_progress` true
/// when the kernel reported EINPROGRESS -- poll for POLLOUT and call
/// finish_connect), or -1 with `err` set on immediate failure.
[[nodiscard]] int start_connect(const Address& addr, bool& in_progress,
                                std::string& err);

/// Resolve a poll-signalled nonblocking connect: 0 on success, else the
/// (positive) errno of the failure.
[[nodiscard]] int finish_connect(int fd);

/// Accept one pending connection, nonblocking + TCP_NODELAY where it
/// applies.  Returns -1 when none is pending (EAGAIN) or on error.
[[nodiscard]] int accept_conn(int listen_fd);

/// O_NONBLOCK on an inherited fd; returns false on fcntl failure.
bool set_nonblocking(int fd);

// --- Framed-connection reassembly -------------------------------------------
// Every framed connection in src/net (transport inbound, served client,
// serve client) keeps a reassembly buffer plus the offset of its consumed
// prefix; these two helpers are its read and reclaim halves.  Decoding
// and the error policy stay with each caller.

/// Append everything the nonblocking `fd` has ready to `buf`, reading
/// until EAGAIN.  Returns false on EOF or a hard error; bytes read before
/// it stay in `buf` (a complete frame followed by EOF is still a frame).
[[nodiscard]] bool read_available(int fd, std::vector<std::uint8_t>& buf);

/// Reclaim the consumed prefix [0, off) of `buf` once it is the whole
/// buffer or has grown past one read chunk; resets `off` when it does.
void compact_consumed(std::vector<std::uint8_t>& buf, std::size_t& off);

}  // namespace voronet::net
