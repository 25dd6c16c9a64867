// Differential protocol harness: message-level execution against the
// sequential ground truth.
//
// The harness runs every workload operation twice, in lock-step:
//   * the *computation* runs on the shared Overlay (DESIGN.md,
//     Substitution 1: the tessellation is the one true geometry);
//   * the *dissemination* runs as real messages: the resulting view
//     deltas travel to each affected ProtocolNode through the Transport,
//     subject to latency, loss, partitions and crash-stop failures.
//
// Joins and region queries route at the message level, on one greedy
// chain: the request hops from node to node using only each node's LOCAL
// view, so concurrent operations observe exactly the staleness a
// deployment would.
//
// verify_views() compares every node's local view against the overlay's
// authoritative one.  At quiescence with no partition this must match
// bit-for-bit -- the property DESIGN.md's Substitution 1 *assumes* and
// tests/protocol_test.cpp now proves per run.
//
// Storage (DESIGN.md, "Memory layout & arenas"): per-node protocol
// state lives in a dense slot table indexed by NodeId (the overlay's
// vertex ids are dense and recycled, so the id IS the slot index), with
// a generation counter per slot so tests can pin that a recycled id
// inherits nothing.  All view content -- node views and the sent-state
// dissemination cache -- is spans into one shared ViewArena.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace.hpp"
#include "protocol/flat_map.hpp"
#include "protocol/node.hpp"
#include "protocol/transport.hpp"
#include "protocol/view_arena.hpp"
#include "sim/event_queue.hpp"
#include "voronet/overlay.hpp"

namespace voronet::protocol {

struct HarnessConfig {
  OverlayConfig overlay;
  NetworkConfig network;
  /// Which Transport backend carries the wire traffic.  kSim is the
  /// deterministic event-queue simulation (replayable; the default);
  /// kThread is the in-process actor-thread backend with wall-clock
  /// timers (the serving layer's backend -- NOT deterministic).
  TransportKind transport = TransportKind::kSim;
  /// Actor threads for the thread backend (0 = derive from the host);
  /// ignored by the sim backend.
  unsigned transport_shards = 0;
  /// Delay between a crash and the survivors' repair dissemination (the
  /// failure-detection latency of the paper's fault model).
  double failure_detect_delay = 1.0;
  /// Backstop failure detector for query floods: a per-query timer that
  /// periodically checks the flood for participants that died without
  /// leaving a transport-observable trace and re-issues the query when it
  /// finds one.  0 derives a period from the transport RTO, the latency
  /// model's high quantile and failure_detect_delay.
  double query_deadline = 0.0;
  /// Seed for harness-level choices (gateway sampling).
  std::uint64_t seed = 0x907aULL;
};

class ProtocolHarness {
 public:
  explicit ProtocolHarness(const HarnessConfig& config);

  ProtocolHarness(const ProtocolHarness&) = delete;
  ProtocolHarness& operator=(const ProtocolHarness&) = delete;

  // --- Workload injection (all asynchronous: they schedule events) --------

  /// Join an object at p, entering through a uniformly random live node.
  void join(Vec2 p) { join_after(0.0, p); }
  void join_after(double delay, Vec2 p);

  /// Voluntary departure (runs the leave protocol).
  void leave(NodeId x) { leave_after(0.0, x); }
  void leave_after(double delay, NodeId x);

  /// Crash-stop failure: the node vanishes without protocol; survivors
  /// repair and re-disseminate after failure_detect_delay.
  void crash(NodeId x);

  // --- Region queries (message level) -------------------------------------
  //
  // The queries of src/voronet/queries.hpp executed as real messages: a
  // kQuery chain greedy-routes the spec to the flood root using only each
  // hop's LOCAL view, the root floods kQueryForward cell-to-cell across
  // the qualifying Voronoi adjacencies, every forward draws exactly one
  // kQueryResult reply (the aggregation echo of a finished subtree, or
  // the rejection of a duplicate arrival), and the root ships the final
  // aggregate to the issuer.  The geometric region tests run against the
  // ground-truth tessellation (DESIGN.md Substitution 1 -- the stand-in
  // for each cell knowing its own clipped geometry), but which
  // adjacencies exist, and therefore which cells get served, is read from
  // the per-node local views: a stale view loses or misdirects real
  // coverage, which the differential QueryHarness measures as recall.
  // Counting model: identical to queries.hpp (route_hops /
  // forward_messages / result_messages).  Result SETS are asserted equal
  // at quiescence across arbitrary latency and loss; the logical COUNTS
  // are deterministic only without retransmission (fixed latency, zero
  // loss) -- a retransmission that slips the transport dedup draws one
  // extra rejection reply -- and without re-issued epochs (below), which
  // multiply the flood cost (see the epoch extension in queries.hpp).
  //
  // Crash-stop failures mid-flood ARE survived, in two layers:
  //
  //  * Per-branch failover.  A branch whose addressee is unreachable
  //    (crashed before serving, or the transport's retry cap fired) is
  //    closed by the transport's abandonment hook with an explicit
  //    kQueryAbort reply, so the parent's subtree still terminates; the
  //    abort echo carries the cells the subtree DID cover and propagates
  //    its mark to the flood root.  A node that crashes while HOLDING
  //    pending subtree state cannot echo; its death is observed through
  //    the abandoned echoes / forwards of its own children (a crash-stop
  //    endpoint abandons reliable transfers on both sides) and, as a
  //    backstop, by the per-query echo-deadline timer that sweeps the
  //    flood for dead participants every `query_deadline`.
  //
  //  * Query epochs.  Any observation of a repair racing the flood --
  //    a served view entry that is provably dead, an aborted branch, a
  //    dead cell in the final aggregate, a crashed flood-state holder or
  //    root -- taints the epoch, and the issuer transparently re-issues
  //    the query with an incremented epoch once the failure-detection
  //    delay has passed.  Handlers discard messages from superseded
  //    epochs (per-epoch dedup), so a stale echo cannot corrupt the
  //    fresh aggregate.  The final epoch runs over repaired views and
  //    therefore matches the post-repair ground truth exactly; an epoch
  //    that observed nothing ran entirely on one side of the repair and
  //    is exact for the topology at its completion instant.  An issuer
  //    that crashes mid-query is modelled as the out-of-band client
  //    reconnecting elsewhere: the flood root completes the record
  //    directly (QueryRecord::issuer_lost).

  /// Progress / outcome of one message-level query (see issue_*_query).
  struct QueryRecord {
    QuerySpec spec;
    double issued = 0.0;     ///< simulated issue instant (first epoch)
    double completed = 0.0;  ///< final-aggregate arrival (valid when done)
    bool done = false;
    std::size_t route_hops = 0;       ///< kQuery greedy forwards (last epoch)
    std::uint64_t forward_sends = 0;  ///< logical kQueryForward sends (all)
    std::uint64_t result_sends = 0;   ///< kQueryResult + kQueryAbort sends
    std::vector<ViewEntry> owners;    ///< served cells, sorted by id
    std::vector<NodeId> matches;      ///< sites passing the predicate, sorted
    std::uint32_t epoch = 0;           ///< flood epochs used (1 = no failover)
    std::uint32_t branch_failovers = 0;///< branches closed by kQueryAbort
    bool issuer_lost = false;          ///< issuer crashed; completed at root

    /// Completion latency, measured from the FIRST issue: failover and
    /// re-issued epochs are part of the latency a client observes.
    [[nodiscard]] double latency() const { return completed - issued; }
    [[nodiscard]] std::uint64_t total_messages() const {
      return route_hops + forward_sends + result_sends;
    }
  };

  /// Issue a range / radius query from `from` (scheduled `delay` from
  /// now); returns the query id to pass to query_record().
  std::uint64_t issue_range_query(NodeId from, Vec2 a, Vec2 b, double tol,
                                  double delay = 0.0);
  std::uint64_t issue_radius_query(NodeId from, Vec2 center, double radius,
                                   double delay = 0.0);

  [[nodiscard]] const QueryRecord& query_record(std::uint64_t id) const {
    return query_records_.at(id);
  }
  /// Invoked (on the driving thread) the moment a query's record
  /// completes -- the serving layer's front-end keys off this.
  /// The record reference obtained via query_record(id) inside the
  /// handler is invalidated by issuing further queries: copy first.
  using QueryCompletionHandler = std::function<void(std::uint64_t)>;
  void set_query_completion_handler(QueryCompletionHandler handler) {
    on_query_complete_ = std::move(handler);
  }
  /// Queries issued but not yet completed at the issuer.
  [[nodiscard]] std::size_t pending_queries() const {
    return pending_queries_;
  }
  /// Forget completed query records (bulk sweeps would otherwise hold
  /// every result set in memory).
  void drop_completed_queries();

  // --- Execution ----------------------------------------------------------

  sim::EventQueue::RunResult run_to_idle(
      std::size_t max_events = sim::EventQueue::kDefaultEventBudget) {
    return net_->run_to_idle(max_events);
  }
  sim::EventQueue::RunResult run_until(double horizon) {
    return net_->run_until(horizon);
  }

  // --- Differential verification ------------------------------------------

  struct VerifyReport {
    std::size_t checked = 0;      ///< live nodes compared
    std::size_t stale = 0;        ///< nodes whose local view mismatches
    std::size_t missing = 0;      ///< ground-truth objects without a node
    std::size_t dangling = 0;     ///< dead long-link holders after repair
    std::vector<NodeId> stale_ids;  ///< first few offenders, for messages
    [[nodiscard]] bool converged() const {
      return stale == 0 && missing == 0 && dangling == 0;
    }
  };

  /// Compare every node's local vn / cn / lr (ids AND positions) against
  /// the overlay's authoritative view.  While a crash's failure-detection
  /// window is open (repair_in_flight()), dangling long-link holders are
  /// tolerated; once every repair has disseminated, a dangling holder is
  /// real divergence and is reported in `dangling`.
  [[nodiscard]] VerifyReport verify_views() const;

  /// Crash repairs whose failure-detection delay has not yet elapsed.
  [[nodiscard]] bool repair_in_flight() const { return repairs_pending_ > 0; }

  // --- Introspection ------------------------------------------------------

  /// The transport seam this harness drives (sim or thread backend).
  [[nodiscard]] Transport& network() { return *net_; }
  [[nodiscard]] const Transport& network() const { return *net_; }
  /// Sim-only escape hatch: the deterministic event queue behind
  /// SimTransport (scenario sampling grids, replay tests).  Fails the
  /// contract check on any other backend.
  [[nodiscard]] sim::EventQueue& queue();
  [[nodiscard]] Overlay& overlay() { return overlay_; }
  [[nodiscard]] const Overlay& overlay() const { return overlay_; }
  [[nodiscard]] std::size_t node_count() const { return live_nodes_; }
  [[nodiscard]] const std::vector<NodeId>& roster() const { return roster_; }
  [[nodiscard]] NodeId random_node(Rng& rng) const {
    return roster_[rng.index(roster_.size())];
  }
  [[nodiscard]] const ProtocolNode& node(NodeId id) const {
    VORONET_EXPECT(alive(id), "node(): id is not a live protocol node");
    return slots_[static_cast<std::size_t>(id)].node;
  }
  /// The shared view arena (resolve ProtocolNode view spans through it).
  [[nodiscard]] const ViewArena& view_arena() const { return arena_; }
  /// Occupancy generation of a node slot: bumped every time the id is
  /// (re-)registered, so tests can pin that a recycled slot is a fresh
  /// occupancy, not the predecessor's state.
  [[nodiscard]] std::uint32_t slot_generation(NodeId id) const {
    return id >= 0 && static_cast<std::size_t>(id) < slots_.size()
               ? slots_[static_cast<std::size_t>(id)].generation
               : 0;
  }
  /// Monotonic topology version: bumped on every node (de)registration.
  /// Positions are immutable per live object, so an unchanged version
  /// means an identical live (id, position) set -- the validity stamp of
  /// the serving layer's result cache (src/serve/query_server.hpp).
  [[nodiscard]] std::uint64_t topology_version() const {
    return topology_version_;
  }
  /// Joins scheduled but not yet sponsored (in-flight route chains).
  [[nodiscard]] std::size_t pending_joins() const { return pending_joins_; }
  /// Simulated time of the last view-advancing update -- the convergence
  /// instant of the most recent workload batch.
  [[nodiscard]] double last_apply_time() const { return last_apply_time_; }

  /// Bytes-per-node decomposition for bench_scale: where the memory of a
  /// million-object run actually sits.
  struct MemoryBreakdown {
    std::size_t view_bytes = 0;       ///< shared ViewArena (all spans)
    std::size_t slot_bytes = 0;       ///< node slot table + roster
    std::size_t transport_bytes = 0;  ///< Transport-owned state
    std::size_t query_bytes = 0;      ///< flood/echo state + records
    [[nodiscard]] std::size_t total() const {
      return view_bytes + slot_bytes + transport_bytes + query_bytes;
    }
  };
  [[nodiscard]] MemoryBreakdown memory_breakdown() const;

  // --- Observability ------------------------------------------------------
  //
  // The harness owns one Tracer and one FlightRecorder (both off by
  // default -- zero cost beyond a branch per instrumentation site) and
  // installs them into the Transport.  With the tracer enabled, every query
  // grows a causal span tree: a "query" root span at the issuer, one
  // "epoch" span per flood epoch, "route_hop" instants along the greedy
  // chain, a "serve" span per flood participant (parented to the serve
  // span that forwarded to it), "stale_entry" / "branch_abort" instants
  // explaining taints, and "reissue" instants when an epoch is
  // superseded; joins grow a "join" span with their route hops, and the
  // Transport adds one "xfer:<kind>" span per reliable transfer.
  [[nodiscard]] obs::Tracer& tracer() { return tracer_; }
  [[nodiscard]] const obs::Tracer& tracer() const { return tracer_; }
  [[nodiscard]] obs::FlightRecorder& recorder() { return recorder_; }
  [[nodiscard]] const obs::FlightRecorder& recorder() const {
    return recorder_;
  }

 private:
  /// Last content disseminated per node component: suppresses the
  /// redundant updates the over-approximate touch tracking would produce
  /// (fictive-object churn restores views it transiently rewrites).
  /// !known = never sent, or the last transfer was abandoned by the
  /// transport -- the next touch ships unconditionally.  Content lives
  /// in the shared arena.  Both arrays are indexed by ViewComponent.
  struct SentState {
    std::array<ViewSpan, 3> content{};
    std::array<bool, 3> known{};
  };

  /// One entry of the dense node slot table, indexed by NodeId.
  struct NodeSlot {
    ProtocolNode node;
    SentState sent;
    std::uint32_t generation = 0;  ///< bumped per (re-)registration
    std::uint32_t roster_pos = 0;  ///< index into roster_ while live
    bool live = false;
    /// Previous holder departed: the next registration of this id must
    /// Transport::revive() it (recycled-id hygiene); fresh ids skip the
    /// in-flight scan.
    bool dead_mark = false;
  };

  /// Per-node flood bookkeeping of one in-flight query (kept until the
  /// query completes so late duplicate forwards are rejected, not
  /// re-served).
  struct FloodEntry {
    NodeId node = kNoNode;  ///< the participant this entry belongs to
    NodeId parent = kNoNode;
    std::uint32_t pending = 0;        ///< forwards awaiting a reply
    bool aborted = false;             ///< a branch below failed over
    std::vector<ViewEntry> acc;       ///< this subtree's served cells
    std::vector<NodeId> replied;      ///< children already heard from
    obs::SpanId span = obs::kNoSpan;  ///< "serve" span while tracing
  };
  /// One epoch's flood state: flat entries plus a NodeId index.  The
  /// whole structure dies when the query completes or its epoch is
  /// superseded -- there is no per-node erase, which is what keeps the
  /// flat map tombstone-free.
  struct QueryFlood {
    FlatNodeMap<std::uint32_t> index;  ///< NodeId -> entries position
    std::vector<FloodEntry> entries;

    [[nodiscard]] FloodEntry* find(NodeId node) {
      const std::uint32_t* pos = index.find(node);
      return pos != nullptr ? &entries[*pos] : nullptr;
    }
    FloodEntry& emplace(NodeId node) {
      index.insert(node, static_cast<std::uint32_t>(entries.size()));
      FloodEntry& e = entries.emplace_back();
      e.node = node;
      return e;
    }
    [[nodiscard]] bool empty() const { return entries.empty(); }
  };

  /// Everything the harness (not the record consumer) holds for one
  /// query while it is in flight: created at issue, erased whole at
  /// completion.
  struct QueryRuntime {
    /// The current epoch observed a repair racing it (a provably dead
    /// view entry at serve time, or an aborted branch): the result may
    /// straddle the repair, so completion re-issues instead.
    bool stale_observed = false;
    bool reissue_pending = false;  ///< a re-issue is already scheduled
    bool deadline_armed = false;   ///< echo-deadline sweep event pending
    bool issuer_known = false;     ///< issuer_pos below is meaningful
    Vec2 issuer_pos;  ///< guards against the issuer id being recycled
    obs::SpanId root_span = obs::kNoSpan;   ///< "query" span (tracing)
    obs::SpanId epoch_span = obs::kNoSpan;  ///< current "epoch" span
    QueryFlood flood;  ///< the current epoch's flood; reset on re-issue
    /// Memoised region-test verdicts: a cell is probed once per
    /// neighbouring served cell, but its geometry only needs clipping
    /// once (mirrors the sequential flood's cache).  Reset on re-issue
    /// and on every topology change.
    FlatNodeMap<bool> region_cache;
  };

  [[nodiscard]] bool alive(NodeId x) const {
    return x >= 0 && static_cast<std::size_t>(x) < slots_.size() &&
           slots_[static_cast<std::size_t>(x)].live;
  }
  [[nodiscard]] NodeSlot& slot(NodeId x) {
    return slots_[static_cast<std::size_t>(x)];
  }
  [[nodiscard]] const NodeSlot& slot(NodeId x) const {
    return slots_[static_cast<std::size_t>(x)];
  }

  void start_join(Vec2 p);
  /// One greedy hop of a route chain -- a join (kJoin / kRouteForward)
  /// or a query (kQuery) -- at m.dst: forward it, or end the chain here.
  void handle_route(const Message& m);
  /// Re-enter a route chain through a fresh random gateway (the
  /// addressee departed or the transport abandoned the hop).
  void reroute(const Message& m);
  /// Send the next hop of route chain `m` from `from` to `to`.
  void forward_route(const Message& m, NodeId from, NodeId to);
  std::uint64_t issue_query(NodeId from, QuerySpec spec, double delay);
  void start_query(std::uint64_t query_id);
  /// (Re-)enter the route phase of the record's current epoch: inject a
  /// kQuery at the issuer, or at a random live gateway when the issuer
  /// is gone (the client's out-of-band bootstrap contact).
  void begin_epoch(std::uint64_t query_id);
  /// The current epoch is compromised (crashed subtree holder, aborted
  /// branch, repair observed): schedule a fresh epoch after the
  /// failure-detection delay.  Idempotent per epoch.
  void reissue_query(std::uint64_t query_id);
  /// Backstop failure detector: periodically sweep the flood for
  /// participants that died without a transport-observable trace.
  void arm_query_deadline(std::uint64_t query_id);
  void handle_query_forward(const Message& m);
  void handle_query_result(const Message& m);
  /// Is m a current-epoch message of a live query?  Superseded epochs'
  /// messages are discarded wholesale (their flood state is gone).
  [[nodiscard]] bool epoch_current(const Message& m) const;
  /// Does this (id, position) pair denote a live protocol node?
  [[nodiscard]] bool entry_live(const ViewEntry& e) const;
  [[nodiscard]] bool issuer_live(std::uint64_t query_id) const;
  /// Per-branch failover for a kQueryForward whose addressee is gone
  /// (departed in flight, crashed, or beyond the retry cap): close the
  /// branch with an abort at the sender if it still holds flood state,
  /// or re-issue outright when the sender's subtree died with it.
  void fail_branch(const Message& m);
  /// Serve the query at `node`: record it, forward to every qualifying
  /// neighbouring cell except `parent`, echo when the subtree finishes.
  /// `parent_span` is the trace span of whatever caused the serve (the
  /// epoch span at the flood root, the forwarding sender's serve span
  /// otherwise); kNoSpan while tracing is off.
  void serve_query(std::uint64_t query_id, NodeId node, NodeId parent,
                   obs::SpanId parent_span);
  /// The subtree under `node` is complete: echo to the flood parent, or
  /// ship/complete the final aggregate when `node` is the root.
  void finish_query_node(std::uint64_t query_id, NodeId node);
  /// Apply one child reply at `node` (idempotent per child: transport
  /// dedup can rarely let a retransmission slip through).  `aborted`
  /// closes the branch AND taints the epoch (kQueryAbort, or the local
  /// failure detector standing in for a reply that cannot come).
  void apply_query_reply(std::uint64_t query_id, NodeId node, NodeId child,
                         const std::vector<ViewEntry>& subtree, bool aborted);
  /// Deliver the final aggregate to the client: completes the record,
  /// unless the epoch is tainted or the aggregate names dead cells -- a
  /// repair raced the flood -- in which case the query re-issues.
  void complete_query(std::uint64_t query_id, std::vector<ViewEntry> owners);
  /// Topology changed: memoised region verdicts are stale (a surviving
  /// cell's clipped geometry may have grown into the query region).
  void invalidate_region_caches();
  /// Ground-truth geometric test: does o's region meet the query region?
  [[nodiscard]] bool query_region_qualifies(const QuerySpec& spec,
                                            NodeId o) const;
  /// Terminate join chain `join_id` at `sponsor`.  Exactly-once per
  /// chain: a rerouted chain can race its original (abandonment after a
  /// delivered-but-unacked hop), so completion is keyed by the id.
  void sponsor_join(NodeId sponsor, Vec2 p, std::uint64_t join_id);
  void execute_leave(NodeId x);
  void deliver(const Message& m);
  void on_abandon(const Message& m);

  /// Drain the overlay's touched-view sets and ship each changed
  /// component to its node as a versioned update from `src`.  `ensure`
  /// (when valid) is unioned in so a freshly joined node always receives
  /// its initial view.
  void disseminate(NodeId src, NodeId ensure = kNoNode);
  /// Ship component `c` of live node `id`'s authoritative view from
  /// `src` as version op_seq_, unless it is the content last sent.
  void ship(NodeId src, NodeId id, ViewComponent c);

  /// Overwrite `out` with component `c` of o's view in the overlay.
  void authoritative(ViewComponent c, NodeId o,
                     std::vector<ViewEntry>& out) const;

  void register_node(NodeId x);
  void deregister_node(NodeId x);

  HarnessConfig config_;
  Overlay overlay_;
  std::unique_ptr<Transport> net_;
  /// Dense node slot table, indexed by NodeId; all view content lives in
  /// arena_.
  std::vector<NodeSlot> slots_;
  std::size_t live_nodes_ = 0;
  ViewArena arena_;
  std::vector<NodeId> roster_;  ///< live node ids, dense (random sampling)
  std::unordered_map<std::uint64_t, QueryRecord> query_records_;
  std::unordered_map<std::uint64_t, QueryRuntime> query_runtime_;
  /// Reused buffer for authoritative-view extraction in ship()
  /// (one content build per ship, zero steady-state allocation).
  std::vector<ViewEntry> scratch_entries_;
  std::uint64_t query_seq_ = 0;
  std::size_t pending_queries_ = 0;
  std::size_t repairs_pending_ = 0;
  double query_deadline_ = 0.0;  ///< derived echo-deadline period
  std::uint64_t op_seq_ = 0;
  std::uint64_t join_seq_ = 0;
  std::uint64_t topology_version_ = 0;
  /// In-flight join chains, keyed by chain id; the value is the chain's
  /// "join" trace span (kNoSpan while tracing is off).
  std::unordered_map<std::uint64_t, obs::SpanId> active_joins_;
  QueryCompletionHandler on_query_complete_;
  std::size_t pending_joins_ = 0;
  double last_apply_time_ = 0.0;
  obs::Tracer tracer_;
  obs::FlightRecorder recorder_;
  Rng rng_;
};

}  // namespace voronet::protocol
