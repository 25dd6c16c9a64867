// The query front-end of the serving layer: admission and a
// churn-invalidated result cache in front of the protocol engine's
// region-query floods.
//
// Unchecked, open-loop overload would start floods faster than the
// overlay drains them and the tail would explode.  This server interposes
// two classic serving-layer mechanisms, both transport-agnostic (they run
// identically on SimTransport and ThreadTransport):
//
//   * RESULT CACHE: completed match sets keyed by the exact QuerySpec,
//     stamped with the harness's topology_version at completion.
//     Positions are immutable per live object, so an unchanged version
//     means an identical live (id, position) set and the cached answer
//     is exact; any join/leave/crash bumps the version and silently
//     invalidates every older entry.  No TTLs, no heuristics.
//
//   * ADMISSION: a bounded service queue.  A cache miss is rejected
//     outright when `queue_capacity` admitted queries are still
//     unfinished -- load shedding at the front door instead of collapse
//     in the overlay.  Rejections are visible in the stats and the
//     bench's completion rate.
//
// Every admitted query then floods exactly its own region: a range spec
// through issue_range_query (the capsule around its segment), a radius
// spec through issue_radius_query (its disk), from a random gateway.  The
// flood's record already filters the served cells through the one site
// predicate (voronet::site_within_tolerance), so its `matches` are the
// ticket's answer verbatim; tests/serve_test.cpp pins them against the
// sequential ground truth.
//
// The one exception is an admitted query whose exact spec already has a
// flood in flight, issued at the current topology version: it waits for
// that flood's answer instead of starting a second, identical flood.  The
// answer is the one a fresh flood would give (same region, same
// topology), and it completes at the same instant as the flood's first
// ticket.  Without it, a backlog of a popular spec would miss the cache
// (entries appear only on completion) and flood once per copy, so the
// server would get slower per query exactly when it falls behind.
//
// Single-threaded by construction: every entry point runs on the
// transport's driving thread (Transport::Sink contract), so the server
// needs no locks even over ThreadTransport.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "protocol/harness.hpp"

namespace voronet::serve {

// The serving layer speaks the protocol layer's vocabulary.
using protocol::NodeId;
using protocol::QueryKind;
using protocol::QuerySpec;

struct ServeConfig {
  /// Admission bound: queries in service (admitted, not yet completed)
  /// beyond this are rejected.
  std::size_t queue_capacity = 256;
};

struct ServeStats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;    ///< admission-bound sheds
  std::uint64_t cache_hits = 0;  ///< answered without any flood
  std::uint64_t completed = 0;
  std::uint64_t batches = 0;        ///< region floods issued
  std::uint64_t batch_members = 0;  ///< admitted queries those floods answer
  std::uint64_t cache_entries_dropped = 0;
};

class QueryServer {
 public:
  using TicketId = std::uint64_t;

  /// The client-visible record of one submitted query.
  struct Ticket {
    QuerySpec spec;
    double arrival = 0.0;    ///< client arrival (transport clock)
    double completed = 0.0;  ///< answer instant (valid when done)
    bool done = false;
    bool rejected = false;   ///< shed at admission; no answer
    bool cache_hit = false;
    std::uint64_t completed_version = 0;  ///< topology version at answer
    std::vector<NodeId> matches;          ///< sorted site matches

    [[nodiscard]] double latency() const { return completed - arrival; }
  };

  QueryServer(protocol::ProtocolHarness& harness, const ServeConfig& config);
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Submit a radius / range query arriving NOW (transport clock).
  /// Returns a ticket id; inspect ticket() after the transport drains
  /// (or poll done).  Rejected tickets are marked, never queued.
  TicketId submit_radius(Vec2 center, double radius);
  TicketId submit_range(Vec2 a, Vec2 b, double tol);

  [[nodiscard]] const Ticket& ticket(TicketId id) const {
    return tickets_.at(id);
  }
  /// Admitted queries not yet answered.
  [[nodiscard]] std::size_t in_service() const { return in_service_; }
  [[nodiscard]] const ServeStats& stats() const { return stats_; }
  /// Forget answered tickets (long open-loop runs would otherwise hold
  /// every match set); callers keep the ids they still care about.
  void drop_completed_tickets();

 private:
  struct CacheEntry {
    std::uint64_t version = 0;
    std::vector<NodeId> matches;
  };

  TicketId submit(QuerySpec spec);
  void on_flood_complete(std::uint64_t flood_id);
  void complete(TicketId id, std::vector<NodeId> matches);
  [[nodiscard]] static std::uint64_t spec_hash(const QuerySpec& spec);

  protocol::ProtocolHarness& harness_;
  ServeConfig config_;
  Rng rng_;
  ServeStats stats_;
  TicketId next_ticket_ = 0;
  std::size_t in_service_ = 0;
  std::unordered_map<TicketId, Ticket> tickets_;
  struct Flight {
    std::uint64_t version = 0;      ///< topology version at issue
    std::vector<TicketId> tickets;  ///< answered by it, issuer first
  };
  std::unordered_map<std::uint64_t, Flight> flights_;  ///< flood id -> flight
  /// spec-hash -> the newest flood in flight over that spec.
  std::unordered_map<std::uint64_t, std::uint64_t> in_flight_;
  /// spec-hash -> entry; the hash covers every spec field bit-exactly
  /// and a false hit is ruled out by comparing the stored spec.
  struct KeyedEntry {
    QuerySpec spec;
    CacheEntry entry;
  };
  std::unordered_map<std::uint64_t, KeyedEntry> cache_;
};

}  // namespace voronet::serve
