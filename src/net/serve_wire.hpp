// RPC framing for the serving boundary (serve wire v1).
//
// This is the OTHER byte layout in src/net: wire_codec.hpp carries
// protocol::Message between overlay nodes; this codec carries client
// queries and answers between an external client process and a
// voronet_served shard.  The two are deliberately separate formats --
// the serving boundary speaks tickets and match sets, not transfers and
// view deltas -- but share the framing discipline (u32 length prefix,
// magic, version byte, kNeedMore reassembly, drop-on-corruption) and the
// little-endian primitives of wire_io.hpp.
//
// One frame:
//   u32 body_len | u16 magic "SV" | u8 version | u8 kind | u64 id | payload
//
// `id` correlates requests with replies: a kSubmit* frame's id is chosen
// by the client and echoed on its kAnswer; kHello/kGetReport round trips
// echo the request id on kHelloAck/kReport.  Payloads per kind are fixed
// except kAnswer's match list (u32 count + i32 ids).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "geometry/vec2.hpp"
#include "net/wire_codec.hpp"

namespace voronet::net {

inline constexpr std::uint16_t kServeMagic = 0x5653;  // "SV" little-endian
inline constexpr std::uint8_t kServeVersion = 1;
/// body bytes before any payload: magic + version + kind + id.
inline constexpr std::size_t kServeHeaderBytes = 2 + 1 + 1 + 8;
/// Sanity cap on a declared serve-frame body (an answer's match list is
/// bounded by the population; 1 << 24 ids is far beyond any shard).
inline constexpr std::size_t kMaxServeBody = std::size_t{1} << 26;

enum class ServeKind : std::uint8_t {
  kHello,         ///< client -> server: open the session
  kHelloAck,      ///< server -> client: shard banner (objects, version)
  kSubmitRadius,  ///< client -> server: disk query (a = centre, tol = r)
  kSubmitRange,   ///< client -> server: segment query
  kAnswer,        ///< server -> client: ticket outcome + match set
  kGetReport,     ///< client -> server: drain, grade, report
  kReport,        ///< server -> client: serving stats + exactness
  kShutdown,      ///< client -> server: stop serving after this session
};
inline constexpr std::size_t kServeKindCount = 8;

[[nodiscard]] const char* serve_kind_name(ServeKind k);

/// One serve-boundary frame; which fields are meaningful depends on
/// `kind` (unused fields keep their defaults and are not encoded).
struct ServeFrame {
  ServeKind kind = ServeKind::kHello;
  std::uint64_t id = 0;  ///< request/ticket correlation

  // kSubmitRadius / kSubmitRange geometry (radius: a = centre, tol = r).
  Vec2 a, b;
  double tol = 0.0;

  // kAnswer outcome.
  bool rejected = false;
  bool cache_hit = false;
  double server_latency = 0.0;  ///< arrival -> answer, transport clock
  std::vector<std::int32_t> matches;

  // kHelloAck / kReport shard state.
  std::uint64_t objects = 0;
  std::uint64_t topology_version = 0;

  // kReport serving stats + post-drain grading.
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected_total = 0;
  std::uint64_t completed = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t batches = 0;        ///< region floods issued
  std::uint64_t batch_members = 0;  ///< queries they served (one each)
  std::uint64_t graded = 0;
  double recall = 1.0;
  double precision = 1.0;
  bool drained = false;
  std::uint64_t wire_bytes = 0;  ///< overlay-internal bytes (codec-billed)
};

/// Append one frame for `f` to `out` (existing contents preserved).
void encode_serve_frame(const ServeFrame& f, std::vector<std::uint8_t>& out);

/// Try to decode one frame from data[0, size); same contract as
/// decode_frame (kNeedMore consumes nothing, errors are terminal for the
/// connection, `consumed` is set only on kOk).
DecodeStatus decode_serve_frame(const std::uint8_t* data, std::size_t size,
                                std::size_t& consumed, ServeFrame& out,
                                std::string* diag = nullptr);

}  // namespace voronet::net
