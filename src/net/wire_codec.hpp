// Binary codec for protocol::Message frames (wire format v1).
//
// encode_frame appends one complete frame -- length prefix + body -- to a
// byte buffer; decode_frame extracts one frame from the front of a
// reassembly buffer, tolerating partial reads (kNeedMore) and rejecting
// corrupt input with a diagnostic instead of interpreting it.  The codec
// is the ONLY code that touches the byte layout; wire_format.hpp holds
// the layout arithmetic so accounting-only consumers need not link the
// codec.
//
// Allocation discipline: encode writes into a caller-owned buffer the
// caller may reuse, and decode fills a caller-provided Message whose
// `entries` vector the caller may draft from a transport's retired-
// payload pool -- a steady stream of frames allocates nothing on either
// side once buffers have grown to the working set.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/wire_format.hpp"
#include "protocol/message.hpp"

namespace voronet::net {

enum class DecodeStatus : std::uint8_t {
  kOk,          ///< one frame consumed, `out` is valid
  kNeedMore,    ///< buffer holds a prefix of a frame; read more bytes
  kBadMagic,    ///< body does not start with kWireMagic
  kBadVersion,  ///< wire_version != kWireVersion
  kBadKind,     ///< type byte / query-kind byte out of enum range
  kBadLength,   ///< declared length corrupt (overlong or inconsistent)
};

[[nodiscard]] const char* decode_status_name(DecodeStatus s);

/// Append one frame for `msg` to `out` (existing contents preserved).
void encode_frame(const protocol::Message& msg, std::vector<std::uint8_t>& out);

/// Try to decode one frame from data[0, size).
///
/// On kOk, `consumed` is the total frame size and `out` holds the message
/// (out.entries is cleared then filled -- pass a pooled vector to avoid
/// churn).  On kNeedMore nothing is consumed.  On any error, `consumed`
/// is 0 and `diag` (when non-null) receives a one-line diagnostic naming
/// the offending field and value; the caller must drop the connection --
/// a stream with a corrupt frame has no resynchronization point.
DecodeStatus decode_frame(const std::uint8_t* data, std::size_t size,
                          std::size_t& consumed, protocol::Message& out,
                          std::string* diag = nullptr);

}  // namespace voronet::net
