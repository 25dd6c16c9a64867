// Message and operation accounting for the overlay simulation.
//
// Message kinds mirror the paper's protocol messages (section 4), so the
// maintenance-cost tables can be reported per algorithm:
//   * routing forwards (the Spawn chain of Algorithm 5),
//   * AddVoronoiRegion / RemoveVoronoiRegion local updates,
//   * close-neighbour declarations (Lemma 1 gathering),
//   * back-long-range transfers and long-link (re)bindings.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "stats/summary.hpp"

namespace voronet::sim {

enum class MessageKind : std::uint8_t {
  kRouteForward,      ///< greedy Spawn hop (AddObject/SearchLongLink/Query)
  kVoronoiUpdate,     ///< region/link updates after a tessellation change
  kCloseNeighbor,     ///< cn() gathering and declarations
  kBlrTransfer,       ///< back-long-range responsibility hand-over
  kLongLinkBind,      ///< LRn(x) establishment / re-delegation notice
  kLeaveNotify,       ///< departure notifications to cn/vn
  kQueryAnswer,       ///< AnswerQuery back to the requester
  // Wire-level kinds used by the protocol engine (src/protocol): the
  // sequential overlay never emits these, the message-level simulation
  // emits all of them.
  kJoin,              ///< AddObject request entering the network
  kAck,               ///< transport acknowledgement (reliable delivery)
  kQuery,             ///< region query greedy-routing to the flood root
  kQueryForward,      ///< cell-to-cell flood forward of a region query
  kQueryResult,       ///< flood echo / final aggregate back to the issuer
  kQueryAbort,        ///< failed-branch partial echo (covered cells so far)
  kCount
};

inline constexpr std::size_t kMessageKindCount =
    static_cast<std::size_t>(MessageKind::kCount);

// Metrics stores one counter per kind in a fixed std::array indexed by
// the enum (count_message is a single array add: no hashing, no
// allocation, hot at bench_scale's message rates).  That layout is only
// sound while the enum stays closed and 0-based with kCount last; the
// assert makes adding a kind a conscious two-line change (enumerator +
// name) instead of a silent out-of-bounds index.  The metrics JSON keys
// are the enum names in declaration order, so reordering enumerators is
// a report-format change -- append instead.
static_assert(kMessageKindCount == 13,
              "MessageKind changed: update message_kind_name() and this "
              "count, and append (never reorder) to keep report keys "
              "stable");

[[nodiscard]] constexpr std::string_view message_kind_name(MessageKind k) {
  switch (k) {
    case MessageKind::kRouteForward:
      return "route_forward";
    case MessageKind::kVoronoiUpdate:
      return "voronoi_update";
    case MessageKind::kCloseNeighbor:
      return "close_neighbor";
    case MessageKind::kBlrTransfer:
      return "blr_transfer";
    case MessageKind::kLongLinkBind:
      return "long_link_bind";
    case MessageKind::kLeaveNotify:
      return "leave_notify";
    case MessageKind::kQueryAnswer:
      return "query_answer";
    case MessageKind::kJoin:
      return "join";
    case MessageKind::kAck:
      return "ack";
    case MessageKind::kQuery:
      return "query";
    case MessageKind::kQueryForward:
      return "query_forward";
    case MessageKind::kQueryResult:
      return "query_result";
    case MessageKind::kQueryAbort:
      return "query_abort";
    case MessageKind::kCount:
      break;
  }
  return "unknown";
}

enum class OperationKind : std::uint8_t {
  kJoin,
  kLeave,
  kQuery,
  kCount
};

[[nodiscard]] constexpr std::string_view operation_kind_name(
    OperationKind k) {
  switch (k) {
    case OperationKind::kJoin:
      return "join";
    case OperationKind::kLeave:
      return "leave";
    case OperationKind::kQuery:
      return "query";
    case OperationKind::kCount:
      break;
  }
  return "unknown";
}

class Metrics {
 public:
  void count_message(MessageKind kind, std::size_t n = 1) {
    messages_[static_cast<std::size_t>(kind)] += n;
  }

  [[nodiscard]] std::uint64_t messages(MessageKind kind) const {
    return messages_[static_cast<std::size_t>(kind)];
  }
  [[nodiscard]] std::uint64_t total_messages() const {
    std::uint64_t sum = 0;
    for (const auto m : messages_) sum += m;
    return sum;
  }

  /// Serialized bytes-on-wire for one transmission of `kind` (the codec
  /// frame size, net/wire_format.hpp).  Every transport backend bills
  /// through this one channel -- the bytes a frame-writing wire would
  /// write -- so bytes-per-kind is comparable across backends for
  /// identical traffic.
  void count_wire_bytes(MessageKind kind, std::size_t bytes) {
    wire_bytes_[static_cast<std::size_t>(kind)] += bytes;
  }
  [[nodiscard]] std::uint64_t wire_bytes(MessageKind kind) const {
    return wire_bytes_[static_cast<std::size_t>(kind)];
  }
  [[nodiscard]] std::uint64_t total_wire_bytes() const {
    std::uint64_t sum = 0;
    for (const auto b : wire_bytes_) sum += b;
    return sum;
  }

  /// Record one finished operation with its greedy hop count and the total
  /// messages it generated.
  void record_operation(OperationKind kind, std::size_t hops,
                        std::size_t op_messages) {
    const auto i = static_cast<std::size_t>(kind);
    hops_[i].add(static_cast<double>(hops));
    op_messages_[i].add(static_cast<double>(op_messages));
  }

  [[nodiscard]] const stats::StreamingSummary& hops(OperationKind kind) const {
    return hops_[static_cast<std::size_t>(kind)];
  }
  [[nodiscard]] const stats::StreamingSummary& operation_messages(
      OperationKind kind) const {
    return op_messages_[static_cast<std::size_t>(kind)];
  }

  /// Record the wire attempts (1 + retransmissions) a reliable transfer
  /// took to settle or be abandoned.  The max of this distribution is the
  /// retransmit-storm detector: under independent loss p with backoff it
  /// stays O(log(1/p)-ish), while a fixed RTO under correlated loss lets
  /// it blow up linearly with the burst length.
  void record_transfer_attempts(std::size_t attempts) {
    transfer_attempts_.add(static_cast<double>(attempts));
  }
  [[nodiscard]] const stats::StreamingSummary& transfer_attempts() const {
    return transfer_attempts_;
  }

  void reset() { *this = Metrics{}; }

 private:
  std::array<std::uint64_t, static_cast<std::size_t>(MessageKind::kCount)>
      messages_{};
  std::array<std::uint64_t, static_cast<std::size_t>(MessageKind::kCount)>
      wire_bytes_{};
  std::array<stats::StreamingSummary,
             static_cast<std::size_t>(OperationKind::kCount)>
      hops_{};
  std::array<stats::StreamingSummary,
             static_cast<std::size_t>(OperationKind::kCount)>
      op_messages_{};
  stats::StreamingSummary transfer_attempts_{};
};

}  // namespace voronet::sim
