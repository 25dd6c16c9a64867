#include "protocol/harness.hpp"

#include <algorithm>
#include <utility>

#include "common/expect.hpp"
#include "geometry/voronoi.hpp"
#include "protocol/sim_transport.hpp"
#include "protocol/thread_transport.hpp"
#include "voronet/queries.hpp"

namespace voronet::protocol {

namespace {

/// Span-vs-vector content equality (ViewEntry has operator==).
bool same_entries(std::span<const ViewEntry> a,
                  const std::vector<ViewEntry>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

std::unique_ptr<Transport> make_transport(const HarnessConfig& config) {
  if (config.transport == TransportKind::kThread) {
    return std::make_unique<ThreadTransport>(config.network,
                                             config.transport_shards);
  }
  return std::make_unique<SimTransport>(config.network);
}

}  // namespace

ProtocolHarness::ProtocolHarness(const HarnessConfig& config)
    : config_(config),
      overlay_(config.overlay),
      net_(make_transport(config)),
      rng_(config.seed) {
  overlay_.track_view_changes(true);
  net_->set_tracer(&tracer_);
  net_->set_recorder(&recorder_);
  net_->set_sink([this](const Message& m) { deliver(m); });
  net_->set_abandon_handler([this](const Message& m) { on_abandon(m); });
  // Echo-deadline period: long enough that a healthy (merely slow) flood
  // is never declared dead -- several RTOs / tail latencies -- and at
  // least the failure-detection delay, so the sweep observes repairs the
  // fault model has already admitted to the survivors.
  query_deadline_ =
      config.query_deadline > 0.0
          ? config.query_deadline
          : std::max({4.0 * net_->retransmit_timeout(),
                      8.0 * config.network.latency.high_quantile(),
                      config.failure_detect_delay}) +
                0.05;
}

sim::EventQueue& ProtocolHarness::queue() {
  auto* sim = dynamic_cast<SimTransport*>(net_.get());
  VORONET_EXPECT(sim != nullptr,
                 "queue() is sim-only: this harness runs the thread backend");
  return sim->queue();
}

// ---------------------------------------------------------------------------
// Workload injection
// ---------------------------------------------------------------------------

void ProtocolHarness::join_after(double delay, Vec2 p) {
  ++pending_joins_;
  net_->schedule(delay, [this, p] { start_join(p); });
}

void ProtocolHarness::start_join(Vec2 p) {
  const std::uint64_t join_id = ++join_seq_;
  obs::SpanId span = obs::kNoSpan;
  if (tracer_.enabled()) {
    span = tracer_.begin_span(net_->now(), "join", -1);
    tracer_.arg(span, "join", join_id);
  }
  active_joins_.emplace(join_id, span);
  if (roster_.empty()) {
    // Nobody to route through: the bootstrap object sponsors itself.
    sponsor_join(kNoNode, p, join_id);
    return;
  }
  // The joining client contacts a random live node out of band; the join
  // request materialises at that gateway and routes from there.  Route
  // messages carry the chain id in `version` so completion is
  // exactly-once even when a chain is rerouted around a crash.
  const NodeId gateway = random_node(rng_);
  Message m;
  m.type = sim::MessageKind::kJoin;
  m.src = gateway;
  m.dst = gateway;
  m.point = p;
  m.version = join_id;
  m.span = span;
  net_->send(std::move(m));
}

void ProtocolHarness::leave_after(double delay, NodeId x) {
  net_->schedule(delay, [this, x] { execute_leave(x); });
}

void ProtocolHarness::crash(NodeId x) {
  net_->schedule(0.0, [this, x] {
    if (!alive(x)) return;
    // Remember who should notice: the ground-truth Voronoi neighbours are
    // the nodes whose cells border the hole the crash leaves.
    const std::vector<NodeId> witnesses = overlay_.view(x).vn;
    net_->crash(x);
    deregister_node(x);
    // Ground-truth repair happens NOW (the overlay supports further
    // operations only with its invariants restored -- the usual
    // simulator substitution); what the failure-detection delay governs
    // is when the survivors *learn* about it: the touched views stay
    // undisseminated until the detection event fires (or an interleaved
    // operation ships them earlier, which only means a neighbour noticed
    // sooner).
    overlay_.crash(x);
    overlay_.repair_dangling();
    invalidate_region_caches();
    ++repairs_pending_;
    net_->schedule(config_.failure_detect_delay, [this, witnesses] {
      VORONET_DCHECK(repairs_pending_ > 0);
      --repairs_pending_;
      if (roster_.empty()) {
        (void)overlay_.take_touched_views();
        return;
      }
      NodeId detector = kNoNode;
      for (const NodeId w : witnesses) {
        if (alive(w)) {
          detector = w;
          break;
        }
      }
      if (detector == kNoNode) detector = roster_.front();
      disseminate(detector);
    });
  });
}

// ---------------------------------------------------------------------------
// Message handling
// ---------------------------------------------------------------------------

void ProtocolHarness::deliver(const Message& m) {
  switch (m.type) {
    case sim::MessageKind::kJoin:
    case sim::MessageKind::kRouteForward:
    case sim::MessageKind::kQuery:
      handle_route(m);
      return;
    case sim::MessageKind::kQueryForward:
      handle_query_forward(m);
      return;
    case sim::MessageKind::kQueryResult:
    case sim::MessageKind::kQueryAbort:
      handle_query_result(m);
      return;
    case sim::MessageKind::kVoronoiUpdate:
    case sim::MessageKind::kCloseNeighbor:
    case sim::MessageKind::kLongLinkBind: {
      if (!alive(m.dst)) return;  // addressee departed in flight
      if (slot(m.dst).node.apply_update(m, arena_)) {
        last_apply_time_ = net_->now();
      }
      return;
    }
    case sim::MessageKind::kLeaveNotify: {
      if (alive(m.dst)) slot(m.dst).node.forget_peer(m.src, m.point, arena_);
      return;
    }
    default:
      return;  // kAck never reaches the sink; others are not sent
  }
}

void ProtocolHarness::on_abandon(const Message& m) {
  switch (m.type) {
    case sim::MessageKind::kJoin:
    case sim::MessageKind::kRouteForward:
    case sim::MessageKind::kQuery:
      // The route chain died with its addressee (crash, or retry cap):
      // re-enter through a live gateway so the operation is never lost.
      reroute(m);
      return;
    case sim::MessageKind::kQueryForward:
      // The addressed cell is unreachable (crashed before it could serve,
      // or the retry cap fired): per-branch failover.
      fail_branch(m);
      return;
    case sim::MessageKind::kQueryResult:
    case sim::MessageKind::kQueryAbort:
      if (!epoch_current(m)) return;
      if (m.query_final) {
        // The issuer crashed with the aggregate in flight: the client
        // stub completes from the root's copy (or re-issues, if the
        // epoch was tainted -- complete_query gates).
        complete_query(m.version, m.entries);
        return;
      }
      // An echo died with the ancestor waiting for it: that ancestor
      // crashed holding pending subtree state (or its link is beyond the
      // retry cap), so everything it aggregated is lost.  Re-issue.
      reissue_query(m.version);
      return;
    case sim::MessageKind::kVoronoiUpdate:
    case sim::MessageKind::kCloseNeighbor:
    case sim::MessageKind::kLongLinkBind: {
      // The addressee never got this content: forget that it was sent so
      // the next touch of the component ships unconditionally.
      const ViewComponent c = component_of(m.type);
      if (alive(m.dst)) {
        SentState& sent = slot(m.dst).sent;
        arena_.release(sent.content[static_cast<std::size_t>(c)]);
        sent.known[static_cast<std::size_t>(c)] = false;
      }
      // When the transfer died because its *sender* crashed (crash-stop:
      // a dead node cannot drive retransmission), a live witness re-ships
      // the current authoritative content now -- the crash-repair path
      // only covers the crashed node's neighbourhood, not its unfinished
      // sends.  Retry-cap abandonments with a live sender stay
      // best-effort (re-shipping there would loop under a permanent
      // partition).
      if (!net_->crashed(m.src) || roster_.empty() || !alive(m.dst)) {
        return;
      }
      ++op_seq_;
      ship(random_node(rng_), m.dst, c);
      return;
    }
    default:
      return;  // leave notifications are best-effort
  }
}

void ProtocolHarness::handle_route(const Message& m) {
  const bool query = m.type == sim::MessageKind::kQuery;
  // A query chain of a superseded epoch dies here; a join chain runs on
  // to its terminal hop, where sponsor_join drops a twin that lost.
  if (query && !epoch_current(m)) return;
  if (!alive(m.dst)) {
    // The addressee departed while the operation was in flight; fall back
    // to another bootstrap contact.
    reroute(m);
    return;
  }
  const ProtocolNode::Route route =
      slot(m.dst).node.greedy_step(m.point, arena_);
  if (tracer_.enabled()) {
    const obs::SpanId hop =
        tracer_.instant(net_->now(), "route_hop", m.dst, m.span);
    tracer_.arg(hop, "hops", m.hops);
  }
  // TTL guard: a legitimate greedy chain visits distinct nodes (strictly
  // decreasing distance), so it can never exceed the population.  Longer
  // chains mean a permanently stale entry is bouncing the request between
  // believed and actual positions of a recycled id (possible once a
  // correcting update was abandoned under max_retries > 0); ending the
  // chain here is always safe -- the ground-truth insert resolves the
  // true owner geometrically from any starting object, and a flood still
  // covers whatever is reachable (the differential harness grades it).
  const bool expired = m.hops > roster_.size() + 16;
  if (!route.terminal && !expired) {
    forward_route(m, m.dst, route.next);
    return;
  }
  if (!query) {
    sponsor_join(m.dst, m.point, m.version);
    return;
  }
  // One root per query: a twin chain (duplicate kQuery slip, or a
  // reroute racing its original) that terminates after a flood already
  // started must not root a second, partial flood -- its smaller final
  // aggregate could win the completion race and shadow the full one.
  if (!query_runtime_.at(m.version).flood.empty()) return;
  query_records_.at(m.version).route_hops = m.hops;
  serve_query(m.version, m.dst, kNoNode, m.span);
}

void ProtocolHarness::reroute(const Message& m) {
  const bool query = m.type == sim::MessageKind::kQuery;
  if (query ? !epoch_current(m) : !active_joins_.contains(m.version)) {
    return;  // chain already done, or its epoch superseded
  }
  // A join traces its reroute even into an empty roster; a query, whose
  // chain then completes empty, does not.
  if (tracer_.enabled() && (!query || !roster_.empty())) {
    tracer_.instant(net_->now(), query ? "query_reroute" : "join_reroute",
                    -1, m.span);
  }
  if (roster_.empty()) {
    // Nobody left to route through: a join self-sponsors into the empty
    // net, and a query's true result set is empty.
    if (query) {
      complete_query(m.version, {});
    } else {
      sponsor_join(kNoNode, m.point, m.version);
    }
    return;
  }
  const NodeId entry = random_node(rng_);
  forward_route(m, entry, entry);
}

void ProtocolHarness::forward_route(const Message& m, NodeId from,
                                    NodeId to) {
  Message fwd;
  // A join enters as kJoin and travels on as kRouteForward; a query
  // chain stays kQuery.
  fwd.type = m.type == sim::MessageKind::kQuery
                 ? sim::MessageKind::kQuery
                 : sim::MessageKind::kRouteForward;
  fwd.src = from;
  fwd.dst = to;
  fwd.point = m.point;
  fwd.hops = m.hops + 1;
  fwd.version = m.version;
  fwd.epoch = m.epoch;
  fwd.query = m.query;
  fwd.span = m.span;
  net_->send(std::move(fwd));
}

void ProtocolHarness::sponsor_join(NodeId sponsor, Vec2 p,
                                   std::uint64_t join_id) {
  const auto j = active_joins_.find(join_id);
  if (j == active_joins_.end()) return;  // a twin chain finished
  const obs::SpanId span = j->second;
  active_joins_.erase(j);
  VORONET_DCHECK(pending_joins_ > 0);
  --pending_joins_;
  const NodeId x = (sponsor == kNoNode || overlay_.size() == 0)
                       ? overlay_.insert(p)
                       : overlay_.insert(p, sponsor);
  invalidate_region_caches();
  if (tracer_.enabled() && span != obs::kNoSpan) {
    tracer_.arg(span, "node", static_cast<std::uint64_t>(x));
    tracer_.end_span(span, net_->now());
  }
  if (alive(x)) {
    // Position already taken (positions identify objects): no new node,
    // but the fictive churn may still have touched views.
    disseminate(sponsor == kNoNode ? x : sponsor);
    return;
  }
  register_node(x);
  disseminate(sponsor == kNoNode ? x : sponsor, /*ensure=*/x);
}

// ---------------------------------------------------------------------------
// Region queries (message level)
// ---------------------------------------------------------------------------

namespace {

/// Issuer-side match extraction: positions travel in the result entries,
/// so the issuer evaluates voronet::site_within_tolerance -- the ONE
/// site predicate the sequential layer also applies (a radius query is
/// the zero-length segment).
bool query_site_matches(const QuerySpec& spec, Vec2 pos) {
  const Vec2 b = spec.kind == QueryKind::kRange ? spec.b : spec.a;
  return site_within_tolerance(spec.a, b, pos, spec.tol);
}

}  // namespace

std::uint64_t ProtocolHarness::issue_range_query(NodeId from, Vec2 a, Vec2 b,
                                                 double tol, double delay) {
  VORONET_EXPECT(tol >= 0.0, "negative range tolerance");
  QuerySpec spec;
  spec.kind = QueryKind::kRange;
  spec.a = a;
  spec.b = b;
  spec.tol = tol;
  return issue_query(from, spec, delay);
}

std::uint64_t ProtocolHarness::issue_radius_query(NodeId from, Vec2 center,
                                                  double radius,
                                                  double delay) {
  VORONET_EXPECT(radius >= 0.0, "negative query radius");
  QuerySpec spec;
  spec.kind = QueryKind::kRadius;
  spec.a = center;
  spec.tol = radius;
  return issue_query(from, spec, delay);
}

std::uint64_t ProtocolHarness::issue_query(NodeId from, QuerySpec spec,
                                           double delay) {
  const std::uint64_t query_id = ++query_seq_;
  spec.issuer = from;
  QueryRecord& rec = query_records_[query_id];
  rec.spec = spec;
  query_runtime_[query_id];
  ++pending_queries_;
  net_->schedule(delay, [this, query_id] { start_query(query_id); });
  return query_id;
}

void ProtocolHarness::start_query(std::uint64_t query_id) {
  QueryRecord& rec = query_records_.at(query_id);
  rec.issued = net_->now();
  rec.epoch = 1;
  // Pin the issuer's identity: ids are recycled, so "the issuer is still
  // alive" must mean the same (id, position) pair, not just the id.
  QueryRuntime& rt = query_runtime_.at(query_id);
  if (alive(rec.spec.issuer)) {
    rt.issuer_known = true;
    rt.issuer_pos = slot(rec.spec.issuer).node.position();
  }
  if (tracer_.enabled()) {
    rt.root_span = tracer_.begin_span(net_->now(), "query", rec.spec.issuer);
    tracer_.arg(rt.root_span, "query", query_id);
    tracer_.arg(rt.root_span, "kind",
                rec.spec.kind == QueryKind::kRange ? "range" : "radius");
  }
  begin_epoch(query_id);
  arm_query_deadline(query_id);
}

void ProtocolHarness::begin_epoch(std::uint64_t query_id) {
  QueryRecord& rec = query_records_.at(query_id);
  if (roster_.empty()) {
    complete_query(query_id, {});  // nobody can serve anything
    return;
  }
  // The issuer injects the query at itself (or, if it departed between
  // issue and start -- or crashed between epochs -- at a random live
  // gateway: the out-of-band bootstrap contact of the join path).
  const NodeId entry =
      issuer_live(query_id) ? rec.spec.issuer : random_node(rng_);
  QueryRuntime& rt = query_runtime_.at(query_id);
  if (tracer_.enabled()) {
    rt.epoch_span =
        tracer_.begin_span(net_->now(), "epoch", entry, rt.root_span);
    tracer_.arg(rt.epoch_span, "epoch", rec.epoch);
    tracer_.arg(rt.epoch_span, "entry", static_cast<std::uint64_t>(entry));
  }
  Message m;
  m.type = sim::MessageKind::kQuery;
  m.src = entry;
  m.dst = entry;
  m.point = rec.spec.target();
  m.version = query_id;
  m.epoch = rec.epoch;
  m.query = rec.spec;
  m.span = rt.epoch_span;
  net_->send(std::move(m));
}

bool ProtocolHarness::epoch_current(const Message& m) const {
  const auto it = query_records_.find(m.version);
  return it != query_records_.end() && !it->second.done &&
         m.epoch == it->second.epoch;
}

bool ProtocolHarness::entry_live(const ViewEntry& e) const {
  return alive(e.id) && slot(e.id).node.position() == e.pos;
}

bool ProtocolHarness::issuer_live(std::uint64_t query_id) const {
  const QueryRecord& rec = query_records_.at(query_id);
  const auto rt = query_runtime_.find(query_id);
  if (rt == query_runtime_.end() || !rt->second.issuer_known) return false;
  return entry_live({rec.spec.issuer, rt->second.issuer_pos});
}

void ProtocolHarness::reissue_query(std::uint64_t query_id) {
  const auto it = query_records_.find(query_id);
  if (it == query_records_.end() || it->second.done) return;
  QueryRuntime& rt = query_runtime_.at(query_id);
  if (rt.reissue_pending) return;  // several taints, one fresh epoch
  rt.reissue_pending = true;
  if (tracer_.enabled()) {
    const obs::SpanId t =
        tracer_.instant(net_->now(), "reissue_scheduled", -1, rt.root_span);
    tracer_.arg(t, "epoch", it->second.epoch);
  }
  // Give the repair a chance to land first: re-entering immediately would
  // mostly re-observe the same staleness and burn an epoch for nothing.
  const double delay =
      std::max(config_.failure_detect_delay, net_->retransmit_timeout());
  net_->schedule(delay, [this, query_id] {
    const auto rec = query_records_.find(query_id);
    if (rec == query_records_.end() || rec->second.done) return;
    QueryRuntime& runtime = query_runtime_.at(query_id);
    runtime.reissue_pending = false;
    runtime.stale_observed = false;
    ++rec->second.epoch;
    if (tracer_.enabled() && runtime.epoch_span != obs::kNoSpan) {
      tracer_.arg(runtime.epoch_span, "superseded", 1);
      tracer_.end_span(runtime.epoch_span, net_->now());
      runtime.epoch_span = obs::kNoSpan;
    }
    if (recorder_.enabled()) {
      recorder_.record(rec->second.spec.issuer, net_->now(),
                       obs::FlightEvent::kReissue, sim::MessageKind::kQuery,
                       kNoNode, query_id, rec->second.epoch);
    }
    // The old epoch's flood state dies here; its messages are filtered
    // out by the epoch checks, so they cannot resurrect it.
    runtime.flood = {};
    runtime.region_cache = {};
    begin_epoch(query_id);
  });
}

void ProtocolHarness::arm_query_deadline(std::uint64_t query_id) {
  {
    const auto rt = query_runtime_.find(query_id);
    if (rt == query_runtime_.end() || rt->second.deadline_armed) return;
    rt->second.deadline_armed = true;
  }
  net_->schedule(query_deadline_, [this, query_id] {
    const auto rec = query_records_.find(query_id);
    if (rec == query_records_.end() || rec->second.done) return;
    QueryRuntime& rt = query_runtime_.at(query_id);
    rt.deadline_armed = false;
    // Sweep the current flood for dead participants: a node that crashed
    // while holding subtree state usually betrays itself through its
    // children's abandoned transfers, but a subtree can die whole (every
    // member crashed) without leaving one -- this timer is the backstop
    // failure detector that keeps such a query live.
    if (std::any_of(rt.flood.entries.begin(), rt.flood.entries.end(),
                    [this](const FloodEntry& e) { return !alive(e.node); })) {
      reissue_query(query_id);
    }
    arm_query_deadline(query_id);
  });
}

void ProtocolHarness::invalidate_region_caches() {
  // Assign, not clear(): FlatNodeMap::clear() keeps the table's storage.
  for (auto& [id, rt] : query_runtime_) rt.region_cache = {};
}

bool ProtocolHarness::query_region_qualifies(const QuerySpec& spec,
                                             NodeId o) const {
  // Substitution 1: the clipped-cell geometry a deployed object would
  // hold locally is read off the ground-truth tessellation.
  if (!overlay_.contains(o)) return false;
  const Vec2 b = spec.kind == QueryKind::kRange ? spec.b : spec.a;
  return geo::region_within(overlay_.tessellation(), o, spec.a, b,
                            spec.tol * spec.tol);
}

void ProtocolHarness::serve_query(std::uint64_t query_id, NodeId node,
                                  NodeId parent, obs::SpanId parent_span) {
  QueryRuntime& rt = query_runtime_.at(query_id);
  QueryFlood& flood = rt.flood;
  QueryRecord& rec = query_records_.at(query_id);
  if (FloodEntry* existing = flood.find(node); existing != nullptr) {
    // Already served.  A forward from another branch is rejected (the
    // branch must not wait forever); a re-delivery from the node's own
    // flood parent -- a retransmission that slipped the transport dedup
    // -- is ignored, because the pending echo answers it and a rejection
    // racing ahead of that echo would book the whole subtree as empty.
    if (parent != kNoNode && parent != existing->parent) {
      if (tracer_.enabled()) {
        const obs::SpanId t =
            tracer_.instant(net_->now(), "duplicate_reject", node,
                            parent_span);
        tracer_.arg(t, "rejected_parent", static_cast<std::uint64_t>(parent));
      }
      Message reject;
      reject.type = sim::MessageKind::kQueryResult;
      reject.src = node;
      reject.dst = parent;
      reject.version = query_id;
      reject.epoch = rec.epoch;
      reject.query = rec.spec;
      reject.span = existing->span;
      net_->send(std::move(reject));
      ++rec.result_sends;
    }
    return;
  }
  FloodEntry& state = flood.emplace(node);
  state.parent = parent;
  if (tracer_.enabled()) {
    state.span = tracer_.begin_span(net_->now(), "serve", node, parent_span);
    tracer_.arg(state.span, "query", query_id);
    tracer_.arg(state.span, "epoch", rec.epoch);
  }
  if (recorder_.enabled()) {
    recorder_.record(node, net_->now(), obs::FlightEvent::kServe,
                     sim::MessageKind::kQueryForward, parent, query_id,
                     rec.epoch);
  }
  const ProtocolNode& self = slot(node).node;
  state.acc.push_back({node, self.position()});
  // Forward across every qualifying Voronoi adjacency of the LOCAL view,
  // except back to the parent.  Entries whose believed position no longer
  // matches the ground truth (departed peer, recycled id) cannot be
  // served through and are skipped -- exactly the coverage staleness
  // costs a deployment -- but a DEAD entry also means this view predates
  // a repair that is racing the flood, so the epoch is tainted and the
  // issuer will re-run the query over repaired views.
  for (const ViewEntry& e : self.view(ViewComponent::kVn, arena_)) {
    if (e.id == parent) continue;
    if (!overlay_.contains(e.id) || overlay_.position(e.id) != e.pos) {
      rt.stale_observed = true;
      if (tracer_.enabled()) {
        const obs::SpanId t =
            tracer_.instant(net_->now(), "stale_entry", node, state.span);
        tracer_.arg(t, "entry", static_cast<std::uint64_t>(e.id));
      }
      continue;
    }
    const bool* cached = rt.region_cache.find(e.id);
    const bool qualifies =
        cached != nullptr
            ? *cached
            : rt.region_cache.insert(e.id,
                                     query_region_qualifies(rec.spec, e.id));
    if (!qualifies) continue;
    Message fwd;
    fwd.type = sim::MessageKind::kQueryForward;
    fwd.src = node;
    fwd.dst = e.id;
    fwd.version = query_id;
    fwd.epoch = rec.epoch;
    fwd.query = rec.spec;
    fwd.span = state.span;
    net_->send(std::move(fwd));
    ++rec.forward_sends;
    ++state.pending;
  }
  if (state.pending == 0) finish_query_node(query_id, node);
}

void ProtocolHarness::fail_branch(const Message& m) {
  // The branch's target cell is gone: its region has been -- or is being
  // -- redistributed.  When the sender still lives and holds flood
  // state, close the branch with an explicit abort so its subtree
  // terminates (tainting the epoch); when the sender itself is gone too,
  // its whole subtree died with it -- only a fresh epoch can recover.
  if (!epoch_current(m)) return;
  if (alive(m.src)) {
    apply_query_reply(m.version, m.src, m.dst, {}, /*aborted=*/true);
  } else {
    reissue_query(m.version);
  }
}

void ProtocolHarness::handle_query_forward(const Message& m) {
  if (!epoch_current(m)) {
    return;  // superseded epoch, or a late dedup slip after completion
  }
  if (!alive(m.dst)) {
    fail_branch(m);  // the addressed cell departed with the forward in flight
    return;
  }
  serve_query(m.version, m.dst, m.src, m.span);
}

void ProtocolHarness::finish_query_node(std::uint64_t query_id,
                                        NodeId node) {
  QueryRecord& rec = query_records_.at(query_id);
  QueryRuntime& rt = query_runtime_.at(query_id);
  FloodEntry& state = *rt.flood.find(node);
  if (tracer_.enabled() && state.span != obs::kNoSpan) {
    tracer_.arg(state.span, "covered", state.acc.size());
    if (state.aborted) tracer_.arg(state.span, "aborted", 1);
    tracer_.end_span(state.span, net_->now());
  }
  if (state.parent != kNoNode) {
    // Subtree done: echo the covered cells -- as an abort echo when a
    // branch below failed over, so the mark reaches the root.
    Message echo = net_->draft();
    echo.type = state.aborted ? sim::MessageKind::kQueryAbort
                              : sim::MessageKind::kQueryResult;
    echo.src = node;
    echo.dst = state.parent;
    echo.version = query_id;
    echo.epoch = rec.epoch;
    echo.query = rec.spec;
    echo.entries = state.acc;
    echo.span = state.span;
    net_->send(std::move(echo));
    ++rec.result_sends;
    return;
  }
  // Flood root.  An aborted or tainted epoch is not worth shipping: its
  // aggregate straddles a repair.  Re-issue instead.
  if (state.aborted || rt.stale_observed) {
    reissue_query(query_id);
    return;
  }
  // Ship (or locally deliver) the final aggregate.  A crashed issuer is
  // the out-of-band client reconnecting elsewhere: the record completes
  // straight from the root's copy.
  if (node == rec.spec.issuer || !issuer_live(query_id)) {
    complete_query(query_id, std::move(state.acc));
    return;
  }
  Message fin = net_->draft();
  fin.type = sim::MessageKind::kQueryResult;
  fin.src = node;
  fin.dst = rec.spec.issuer;
  fin.version = query_id;
  fin.epoch = rec.epoch;
  fin.query = rec.spec;
  fin.query_final = true;
  fin.entries = state.acc;
  fin.span = state.span;
  net_->send(std::move(fin));
  ++rec.result_sends;
}

void ProtocolHarness::apply_query_reply(std::uint64_t query_id, NodeId node,
                                        NodeId child,
                                        const std::vector<ViewEntry>& subtree,
                                        bool aborted) {
  const auto rec = query_records_.find(query_id);
  if (rec == query_records_.end() || rec->second.done) return;
  QueryRuntime& rt = query_runtime_.at(query_id);
  FloodEntry* state = rt.flood.find(node);
  if (state == nullptr) return;  // node departed mid-query
  if (!alive(node)) {
    // The waiting node itself is dead: nobody can echo its subtree any
    // more, whatever this reply says.  Re-issue.
    reissue_query(query_id);
    return;
  }
  if (std::find(state->replied.begin(), state->replied.end(), child) !=
      state->replied.end()) {
    return;  // duplicate reply slip
  }
  state->replied.push_back(child);
  if (aborted) {
    state->aborted = true;
    rt.stale_observed = true;
    ++rec->second.branch_failovers;
    if (tracer_.enabled()) {
      const obs::SpanId t =
          tracer_.instant(net_->now(), "branch_abort", node, state->span);
      tracer_.arg(t, "child", static_cast<std::uint64_t>(child));
    }
    if (recorder_.enabled()) {
      recorder_.record(node, net_->now(), obs::FlightEvent::kBranchAbort,
                       sim::MessageKind::kQueryAbort, child, query_id,
                       rec->second.epoch);
    }
  }
  state->acc.insert(state->acc.end(), subtree.begin(), subtree.end());
  VORONET_DCHECK(state->pending > 0);
  --state->pending;
  if (state->pending == 0) finish_query_node(query_id, node);
}

void ProtocolHarness::handle_query_result(const Message& m) {
  if (!epoch_current(m)) return;
  if (m.query_final) {
    complete_query(m.version, m.entries);
    return;
  }
  apply_query_reply(m.version, m.dst, m.src, m.entries,
                    m.type == sim::MessageKind::kQueryAbort);
}

void ProtocolHarness::complete_query(std::uint64_t query_id,
                                     std::vector<ViewEntry> owners) {
  const auto it = query_records_.find(query_id);
  if (it == query_records_.end()) return;  // record already dropped
  QueryRecord& rec = it->second;
  if (rec.done) return;  // exactly-once (a twin root can race)
  // Completion gate: if the epoch observed a repair, or the aggregate
  // names a cell that is no longer live (it crashed or left after
  // echoing), the result straddles a repair -- re-run it over repaired
  // views instead of handing the client a set no topology ever served.
  if (roster_.empty()) {
    owners.clear();  // everyone is gone; the true result set is empty
  } else {
    const QueryRuntime& rt = query_runtime_.at(query_id);
    const bool stale =
        rt.stale_observed ||
        std::any_of(owners.begin(), owners.end(),
                    [this](const ViewEntry& e) { return !entry_live(e); });
    if (stale) {
      reissue_query(query_id);
      return;
    }
  }
  rec.issuer_lost = !issuer_live(query_id);
  rec.done = true;
  rec.completed = net_->now();
  // One operation record per QUERY, not per epoch: re-issues are internal
  // retries of the same client operation, so the per-operation message
  // mean must absorb them rather than dilute itself with extra records
  // (pinned by obs_test.CountingModelBillsReissuedQueryOnce).
  net_->record_operation(sim::OperationKind::kQuery, rec.route_hops,
                         rec.total_messages());
  {
    const QueryRuntime& rt = query_runtime_.at(query_id);
    if (tracer_.enabled()) {
      if (rt.epoch_span != obs::kNoSpan) {
        tracer_.end_span(rt.epoch_span, net_->now());
      }
      if (rt.root_span != obs::kNoSpan) {
        tracer_.arg(rt.root_span, "epochs", rec.epoch);
        tracer_.arg(rt.root_span, "route_hops", rec.route_hops);
        tracer_.arg(rt.root_span, "failovers", rec.branch_failovers);
        tracer_.arg(rt.root_span, "owners", owners.size());
        tracer_.end_span(rt.root_span, net_->now());
      }
    }
    if (recorder_.enabled()) {
      recorder_.record(rec.spec.issuer, net_->now(),
                       obs::FlightEvent::kComplete,
                       sim::MessageKind::kQueryResult, kNoNode, query_id,
                       rec.epoch);
    }
  }
  std::sort(owners.begin(), owners.end(),
            [](const ViewEntry& x, const ViewEntry& y) { return x.id < y.id; });
  for (const ViewEntry& e : owners) {
    if (query_site_matches(rec.spec, e.pos)) rec.matches.push_back(e.id);
  }
  rec.owners = std::move(owners);
  query_runtime_.erase(query_id);
  VORONET_DCHECK(pending_queries_ > 0);
  --pending_queries_;
  // Last, with all per-query state settled: the handler may issue fresh
  // queries or drop completed records.
  if (on_query_complete_) on_query_complete_(query_id);
}

void ProtocolHarness::drop_completed_queries() {
  for (auto it = query_records_.begin(); it != query_records_.end();) {
    it = it->second.done ? query_records_.erase(it) : std::next(it);
  }
}

void ProtocolHarness::execute_leave(NodeId x) {
  if (!alive(x) || !overlay_.contains(x)) return;
  const Vec2 pos = overlay_.position(x);

  // Departure notifications go to the node's LOCAL contacts (what the
  // paper's object actually knows), not the ground truth.
  const ProtocolNode& self = slot(x).node;
  std::vector<NodeId> notified;
  for (const std::span<const ViewEntry> component :
       {self.view(ViewComponent::kVn, arena_),
        self.view(ViewComponent::kCn, arena_)}) {
    for (const ViewEntry& e : component) notified.push_back(e.id);
  }
  std::sort(notified.begin(), notified.end());
  notified.erase(std::unique(notified.begin(), notified.end()),
                 notified.end());
  for (const NodeId peer : notified) {
    if (peer == x || !alive(peer)) continue;
    Message m;
    m.type = sim::MessageKind::kLeaveNotify;
    m.src = x;
    m.dst = peer;
    m.point = pos;
    net_->send(std::move(m));
  }

  // The closest live former Voronoi neighbour leads the repair (the
  // paper's RemoveVoronoiRegion heir).
  NodeId sponsor = kNoNode;
  for (const NodeId y : overlay_.view(x).vn) {
    if (alive(y)) {
      sponsor = y;
      break;
    }
  }
  deregister_node(x);
  overlay_.remove(x);
  invalidate_region_caches();
  if (sponsor == kNoNode) {
    // x was the last node (or its whole neighbourhood is gone): nobody
    // left to update.
    (void)overlay_.take_touched_views();
    return;
  }
  disseminate(sponsor);
}

// ---------------------------------------------------------------------------
// Dissemination
// ---------------------------------------------------------------------------

void ProtocolHarness::authoritative(ViewComponent c, NodeId o,
                                    std::vector<ViewEntry>& out) const {
  out.clear();
  const NodeView& view = overlay_.view(o);
  if (c != ViewComponent::kLr) {
    const std::vector<ObjectId>& ids =
        c == ViewComponent::kVn ? view.vn : view.cn;
    out.reserve(ids.size());
    for (const ObjectId id : ids) out.push_back({id, overlay_.position(id)});
    return;
  }
  out.reserve(view.lr.size());
  for (const LongLink& link : view.lr) {
    // Dangling holders (possible while a crash's failure-detection
    // window is open) are not usable view content and are not shipped;
    // once every repair has quiesced, verify_views() reports any that
    // remain as divergence instead of silently tolerating them here.
    if (link.neighbor == kNoObject || !overlay_.contains(link.neighbor)) {
      continue;
    }
    out.push_back({link.neighbor, overlay_.position(link.neighbor)});
  }
}

void ProtocolHarness::disseminate(NodeId src, NodeId ensure) {
  Overlay::TouchedViews touched = overlay_.take_touched_views();
  ++op_seq_;
  for (const ViewComponent c : kViewComponents) {
    std::vector<ObjectId>& ids = c == ViewComponent::kVn   ? touched.vn
                                 : c == ViewComponent::kCn ? touched.cn
                                                           : touched.lr;
    if (ensure != kNoNode) ids.push_back(ensure);
    for (const ObjectId id : ids) ship(src, id, c);
  }
}

void ProtocolHarness::ship(NodeId src, NodeId id, ViewComponent c) {
  if (!alive(id)) return;
  authoritative(c, id, scratch_entries_);
  const auto i = static_cast<std::size_t>(c);
  SentState& sent = slot(id).sent;
  if (sent.known[i] &&
      same_entries(arena_.view(sent.content[i]), scratch_entries_)) {
    return;  // touch restored the value
  }
  Message m = net_->draft();
  m.type = update_kind(c);
  m.src = src;
  m.dst = id;
  m.version = op_seq_;
  m.entries.assign(scratch_entries_.begin(), scratch_entries_.end());
  arena_.assign(sent.content[i], scratch_entries_);
  sent.known[i] = true;
  net_->send(std::move(m));
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

void ProtocolHarness::register_node(NodeId x) {
  const auto idx = static_cast<std::size_t>(x);
  if (idx >= slots_.size()) slots_.resize(idx + 1);
  NodeSlot& s = slots_[idx];
  VORONET_DCHECK(!s.live);
  // Vertex ids are recycled by the ground truth: a new node may reuse
  // the id of a previously departed one, so clear the transport's dead
  // mark and abandon predecessor-era transfers.  Fresh ids skip the
  // revive (nothing to clean, and revive scans the in-flight table).
  if (s.dead_mark) {
    s.dead_mark = false;
    net_->revive(x);
  }
  ++s.generation;
  ++topology_version_;
  s.node = ProtocolNode(x, overlay_.position(x));
  s.roster_pos = static_cast<std::uint32_t>(roster_.size());
  s.live = true;
  ++live_nodes_;
  roster_.push_back(x);
}

void ProtocolHarness::deregister_node(NodeId x) {
  NodeSlot& s = slot(x);
  VORONET_DCHECK(s.live);
  // Every span the slot holds goes back to the arena; the recycled slot
  // must inherit nothing (pinned by the slot-recycling test).
  s.node.release(arena_);
  for (ViewSpan& content : s.sent.content) arena_.release(content);
  s.sent.known = {};
  s.live = false;
  s.dead_mark = true;
  ++topology_version_;
  --live_nodes_;
  const std::uint32_t idx = s.roster_pos;
  slot(roster_.back()).roster_pos = idx;
  roster_[idx] = roster_.back();
  roster_.pop_back();
}

// ---------------------------------------------------------------------------
// Differential verification
// ---------------------------------------------------------------------------

ProtocolHarness::VerifyReport ProtocolHarness::verify_views() const {
  VerifyReport report;
  const bool strict = !repair_in_flight();
  std::vector<ViewEntry> truth;
  for (const NodeId id : roster_) {
    const ProtocolNode& node = slot(id).node;
    ++report.checked;
    const bool ok =
        overlay_.contains(id) && node.position() == overlay_.position(id) &&
        std::all_of(kViewComponents.begin(), kViewComponents.end(),
                    [&](ViewComponent c) {
                      authoritative(c, id, truth);
                      return same_entries(node.view(c, arena_), truth);
                    });
    if (!ok) {
      ++report.stale;
      if (report.stale_ids.size() < 8) report.stale_ids.push_back(id);
    }
    if (strict && overlay_.contains(id)) {
      // With no repair in flight, a dead long-link holder in the ground
      // truth is real divergence (authoritative() would mask it).
      for (const LongLink& link : overlay_.view(id).lr) {
        if (link.neighbor == kNoObject || !overlay_.contains(link.neighbor)) {
          ++report.dangling;
        }
      }
    }
  }
  report.missing = overlay_.size() - live_nodes_;
  return report;
}

// ---------------------------------------------------------------------------
// Memory accounting
// ---------------------------------------------------------------------------

ProtocolHarness::MemoryBreakdown ProtocolHarness::memory_breakdown() const {
  MemoryBreakdown b;
  b.view_bytes = arena_.bytes();
  b.slot_bytes = slots_.capacity() * sizeof(NodeSlot) +
                 roster_.capacity() * sizeof(NodeId);
  b.transport_bytes = net_->memory_bytes();
  for (const auto& [id, rt] : query_runtime_) {
    b.query_bytes += rt.flood.index.bytes() +
                     rt.flood.entries.capacity() * sizeof(FloodEntry) +
                     rt.region_cache.bytes();
    for (const FloodEntry& e : rt.flood.entries) {
      b.query_bytes += e.acc.capacity() * sizeof(ViewEntry) +
                       e.replied.capacity() * sizeof(NodeId);
    }
  }
  for (const auto& [id, rec] : query_records_) {
    b.query_bytes += rec.owners.capacity() * sizeof(ViewEntry) +
                     rec.matches.capacity() * sizeof(NodeId);
  }
  return b;
}

}  // namespace voronet::protocol
