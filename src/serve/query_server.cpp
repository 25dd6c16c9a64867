#include "serve/query_server.hpp"

#include <cstring>
#include <utility>

#include "common/expect.hpp"

namespace voronet::serve {

namespace {

/// Gateway sampling for the region floods.
constexpr std::uint64_t kGatewaySeed = 0x5e11eULL;
/// Result-cache entry bound: the whole cache is dropped when full --
/// entries are invalidated wholesale by churn anyway, so eviction finesse
/// buys nothing.
constexpr std::size_t kCacheCapacity = 4096;

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

/// The cache key must treat two specs as equal iff they denote the same
/// region -- issuer is routing detail, not semantics.
bool same_region(const QuerySpec& a, const QuerySpec& b) {
  return a.kind == b.kind && a.a == b.a && a.b == b.b && a.tol == b.tol;
}

}  // namespace

QueryServer::QueryServer(protocol::ProtocolHarness& harness,
                         const ServeConfig& config)
    : harness_(harness), config_(config), rng_(kGatewaySeed) {
  VORONET_EXPECT(config_.queue_capacity > 0, "serve: zero admission capacity");
  harness_.set_query_completion_handler(
      [this](std::uint64_t flood_id) { on_flood_complete(flood_id); });
}

QueryServer::~QueryServer() {
  harness_.set_query_completion_handler(nullptr);
}

QueryServer::TicketId QueryServer::submit_radius(Vec2 center, double radius) {
  VORONET_EXPECT(radius >= 0.0, "serve: negative query radius");
  QuerySpec spec;
  spec.kind = QueryKind::kRadius;
  spec.a = center;
  spec.b = center;  // zero-length segment: one site predicate for both kinds
  spec.tol = radius;
  return submit(spec);
}

QueryServer::TicketId QueryServer::submit_range(Vec2 a, Vec2 b, double tol) {
  VORONET_EXPECT(tol >= 0.0, "serve: negative range tolerance");
  QuerySpec spec;
  spec.kind = QueryKind::kRange;
  spec.a = a;
  spec.b = b;
  spec.tol = tol;
  return submit(spec);
}

QueryServer::TicketId QueryServer::submit(QuerySpec spec) {
  ++stats_.submitted;
  const TicketId id = next_ticket_++;
  Ticket& t = tickets_[id];
  t.spec = spec;
  t.arrival = harness_.network().now();

  // Cache: an exact-spec entry stamped with the CURRENT topology version
  // is the answer -- positions are immutable per live object.
  const std::uint64_t key = spec_hash(spec);
  const std::uint64_t version = harness_.topology_version();
  auto it = cache_.find(key);
  if (it != cache_.end() && same_region(it->second.spec, spec) &&
      it->second.entry.version == version) {
    ++stats_.cache_hits;
    t.done = true;
    t.cache_hit = true;
    t.completed = t.arrival;
    t.completed_version = version;
    t.matches = it->second.entry.matches;
    ++stats_.completed;
    return id;
  }

  // Admission: shed at the front door once the service queue is full.
  if (in_service_ >= config_.queue_capacity) {
    ++stats_.rejected;
    t.rejected = true;
    t.done = true;
    t.completed = t.arrival;
    return id;
  }
  ++stats_.admitted;
  ++in_service_;

  // Nobody to serve: the true result set is empty.
  if (harness_.roster().empty()) {
    complete(id, {});
    return id;
  }

  // An identical flood in flight over the current topology answers this
  // query too.
  ++stats_.batch_members;
  auto f = in_flight_.find(key);
  if (f != in_flight_.end()) {
    Flight& flight = flights_.at(f->second);
    if (flight.version == version &&
        same_region(tickets_.at(flight.tickets.front()).spec, spec)) {
      flight.tickets.push_back(id);
      return id;
    }
  }

  // One flood over exactly this query's region.
  ++stats_.batches;
  const NodeId gateway = harness_.random_node(rng_);
  const std::uint64_t flood_id =
      spec.kind == QueryKind::kRange
          ? harness_.issue_range_query(gateway, spec.a, spec.b, spec.tol)
          : harness_.issue_radius_query(gateway, spec.a, spec.tol);
  flights_[flood_id] = Flight{version, {id}};
  in_flight_[key] = flood_id;
  return id;
}

void QueryServer::on_flood_complete(std::uint64_t flood_id) {
  auto it = flights_.find(flood_id);
  if (it == flights_.end()) return;  // not one of ours (direct test query)
  const Flight flight = std::move(it->second);
  flights_.erase(it);

  const QuerySpec spec = tickets_.at(flight.tickets.front()).spec;
  const std::uint64_t key = spec_hash(spec);
  auto f = in_flight_.find(key);
  if (f != in_flight_.end() && f->second == flood_id) in_flight_.erase(f);

  // Copy: the record stays the harness's (drop_completed_queries frees it).
  const std::vector<NodeId>& matches = harness_.query_record(flood_id).matches;
  if (cache_.size() >= kCacheCapacity) {
    stats_.cache_entries_dropped += cache_.size();
    cache_.clear();
  }
  KeyedEntry& slot = cache_[key];
  slot.spec = spec;
  slot.entry.version = harness_.topology_version();
  slot.entry.matches = matches;
  for (const TicketId id : flight.tickets) complete(id, matches);
}

void QueryServer::complete(TicketId id, std::vector<NodeId> matches) {
  Ticket& t = tickets_.at(id);
  VORONET_EXPECT(!t.done, "serve: double completion of a ticket");
  t.done = true;
  t.completed = harness_.network().now();
  t.completed_version = harness_.topology_version();
  t.matches = std::move(matches);
  VORONET_EXPECT(in_service_ > 0, "serve: completion without admission");
  --in_service_;
  ++stats_.completed;
}

void QueryServer::drop_completed_tickets() {
  for (auto it = tickets_.begin(); it != tickets_.end();) {
    it = it->second.done ? tickets_.erase(it) : std::next(it);
  }
  harness_.drop_completed_queries();
}

std::uint64_t QueryServer::spec_hash(const QuerySpec& spec) {
  std::uint64_t h = mix64(static_cast<std::uint64_t>(spec.kind));
  h = mix64(h ^ bits(spec.a.x));
  h = mix64(h ^ bits(spec.a.y));
  h = mix64(h ^ bits(spec.b.x));
  h = mix64(h ^ bits(spec.b.y));
  h = mix64(h ^ bits(spec.tol));
  return h;
}

}  // namespace voronet::serve
