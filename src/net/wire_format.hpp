// The VoroNet wire format, version 1: frame layout constants and the
// size function.
//
// One length-prefixed little-endian frame per protocol::Message.  No
// overlay message crosses a process boundary today: both backends run
// the overlay inside one process, and a served shard's socket speaks
// serve_wire.hpp instead.  The format is kept because it is the wire
// bill -- the reliable core charges wire_frame_size() per transmission
// and per message kind through sim::Metrics -- and because a
// cross-process overlay wire will frame with it once dedup is owned by
// the receiver (ROADMAP).  This header holds only the layout arithmetic
// (offsets, sizes, magic/version constants), so the billing layers
// depend on the numbers without pulling in the codec or any socket code.
// The codec itself (wire_codec.hpp) is the only writer/reader of the
// layout.
//
// Frame layout (all integers little-endian, doubles as little-endian
// IEEE-754 bit patterns):
//
//   u32  body_len            length of everything after this prefix
//   u16  magic               0x564e ("NV")
//   u8   wire_version        1
//   u8   type                sim::MessageKind, < kMessageKindCount
//   i32  src                 protocol::NodeId
//   i32  dst
//   u64  version             component / join-chain / query id
//   f64  point.x, point.y
//   u32  hops
//   u8   query.kind          QueryKind, < 2
//   f64  query.a.x, a.y, b.x, b.y, tol
//   i32  query.issuer
//   u8   query_final         0 / 1
//   u32  epoch
//   u64  transfer_id
//   u32  transfer_slot
//   u64  span                trace context (obs::SpanId)
//   u32  entry_count
//   entry_count x { i32 id, f64 pos.x, f64 pos.y }
//
// Versioning rule: the frame is rejected (never partially interpreted)
// unless magic and wire_version match exactly.  Any layout change --
// field added, field widened, enumerator semantics changed -- bumps
// kWireVersion; there is no in-place forward compatibility, because both
// endpoints of a VoroNet deployment ship from the same tree.
#pragma once

#include <cstddef>
#include <cstdint>

#include "protocol/message.hpp"
#include "sim/metrics.hpp"

namespace voronet::net {

inline constexpr std::uint16_t kWireMagic = 0x564e;  // "NV"
inline constexpr std::uint8_t kWireVersion = 1;

/// Length prefix (not part of body_len itself).
inline constexpr std::size_t kFramePrefixBytes = 4;
/// Fixed body bytes before the entries array.
inline constexpr std::size_t kFixedBodyBytes =
    2 + 1 + 1 +      // magic, version, type
    4 + 4 +          // src, dst
    8 +              // version
    8 + 8 +          // point
    4 +              // hops
    1 +              // query.kind
    8 * 5 +          // query.a, query.b, query.tol
    4 +              // query.issuer
    1 +              // query_final
    4 +              // epoch
    8 +              // transfer_id
    4 +              // transfer_slot
    8 +              // span
    4;               // entry_count
/// One ViewEntry on the wire: i32 id + two f64 coordinates.
inline constexpr std::size_t kEntryBytes = 4 + 8 + 8;

/// Reject frames whose declared body length exceeds this before trusting
/// it with an allocation (a corrupt length must fail loudly, not OOM).
inline constexpr std::size_t kMaxFrameBody = 1u << 26;

// The codec serializes every message kind by one shared layout; a new
// kind therefore serializes automatically BUT must be a conscious wire
// decision (receivers of the previous version reject it as an unknown
// type byte only if the version was bumped).  This pin makes adding a
// kind fail compile here until the codec -- and kWireVersion -- have
// been revisited.
static_assert(sim::kMessageKindCount == 13,
              "MessageKind changed: audit the wire codec (decode validates "
              "type < kMessageKindCount), bump net::kWireVersion, and "
              "update this count");

/// Serialized bytes of one message, length prefix included -- the number
/// encode_frame() writes, and the number both backends bill per
/// transmission, so they report identical bytes-on-wire for identical
/// traffic.
[[nodiscard]] inline std::size_t wire_frame_size(
    const protocol::Message& msg) {
  return kFramePrefixBytes + kFixedBodyBytes +
         msg.entries.size() * kEntryBytes;
}

}  // namespace voronet::net
