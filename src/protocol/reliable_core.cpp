#include "protocol/reliable_core.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/expect.hpp"
#include "net/wire_format.hpp"

namespace voronet::protocol {

namespace {

/// SplitMix64 finaliser: the deterministic hash behind the retransmission
/// jitter.  Keyed by (transfer id, attempt) so concurrent transfers --
/// and successive attempts of one transfer -- desynchronise without
/// consuming the delivery Rng stream.
[[nodiscard]] std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Payloads above this capacity are not worth hoarding in the pool.
constexpr std::size_t kMaxPooledPayload = 4096;
constexpr std::size_t kMaxPoolSize = 1024;

/// Remove one window opened with `value` (end_* balances begin_*).
void close_window(std::vector<double>& windows, double value) {
  const auto it = std::find(windows.begin(), windows.end(), value);
  if (it != windows.end()) windows.erase(it);
}

}  // namespace

ReliableCore::ReliableCore(const NetworkConfig& config, bool concurrent)
    : config_(config), concurrent_(concurrent), rng_(config.seed) {
  VORONET_EXPECT(config.drop_probability >= 0.0 &&
                     config.drop_probability < 1.0,
                 "drop probability must lie in [0, 1)");
  VORONET_EXPECT(config.backoff_factor >= 1.0,
                 "retransmit backoff factor must be >= 1");
  VORONET_EXPECT(config.jitter >= 0.0 && config.jitter < 1.0,
                 "retransmit jitter must lie in [0, 1)");
  // Auto-RTO: a round trip of pessimistic one-way delays plus slack, so
  // that under fixed/uniform latency a timeout implies a genuine loss.
  rto_ = config.retransmit_timeout > 0.0
             ? config.retransmit_timeout
             : 2.0 * config.latency.high_quantile() + 0.01;
  rto_cap_ = config.rto_cap > 0.0 ? config.rto_cap : 16.0 * rto_;
}

double ReliableCore::backoff_timeout(std::uint64_t transfer_id,
                                     std::size_t attempts) const {
  // Attempt k waits min(rto * f^(k-1), cap): responsive to a single loss,
  // but a transfer stuck behind a loss burst / latency spike / stalled
  // receiver stops hammering the window.  pow() stays finite: the
  // exponent is capped by where the ceiling bites anyway.
  const double exponent = std::min<double>(static_cast<double>(attempts - 1),
                                           40.0);
  double timeout =
      std::min(rto_ * std::pow(config_.backoff_factor, exponent), rto_cap_);
  if (config_.jitter > 0.0) {
    // Deterministic jitter in [1 - j/2, 1 + j/2): hashed, not drawn, so
    // the Rng delivery stream (and with it every committed replay) is
    // untouched by how often a transfer retried.
    const double u = static_cast<double>(
                         mix64(transfer_id * 0x2545f4914f6cdd1dULL +
                               attempts) >>
                         11) *
                     0x1.0p-53;
    timeout *= 1.0 + config_.jitter * (u - 0.5);
  }
  return timeout;
}

double ReliableCore::effective_drop() const {
  double drop = config_.drop_probability;
  for (const double extra : loss_bursts_) drop += extra;
  // Windows are finite (validated by the scenario layer), so a saturated
  // probability cannot retransmit forever -- but keep it a probability.
  return std::min(drop, 1.0);
}

// ---------------------------------------------------------------------------
// Slot table / payload pool / orphan window
// ---------------------------------------------------------------------------

void ReliableCore::set_flag(std::vector<std::uint8_t>& flags, NodeId node,
                            bool on) {
  if (node < 0) return;
  const auto idx = static_cast<std::size_t>(node);
  if (idx >= flags.size()) {
    if (!on) return;
    flags.resize(idx + 1, 0);
  }
  flags[idx] = on ? 1 : 0;
}

ReliableCore::Transfer* ReliableCore::live_transfer(
    std::uint32_t slot, std::uint64_t transfer_id) {
  if (slot == kNoTransferSlot || slot >= transfers_.size()) return nullptr;
  Transfer& t = transfers_[slot];
  return t.id == transfer_id ? &t : nullptr;
}

std::uint32_t ReliableCore::alloc_slot() {
  ++in_flight_;
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  transfers_.emplace_back();
  return static_cast<std::uint32_t>(transfers_.size() - 1);
}

void ReliableCore::free_slot(std::uint32_t slot) {
  Transfer& t = transfers_[slot];
  pool_payload(std::move(t.msg.entries));
  t.msg.entries.clear();
  t.id = 0;
  t.attempts = 1;
  t.timer = sim::kNoTimer;
  t.span = obs::kNoSpan;
  t.delivered = false;
  free_slots_.push_back(slot);
  VORONET_DCHECK(in_flight_ > 0);
  --in_flight_;
}

void ReliableCore::pool_payload(std::vector<ViewEntry>&& entries) {
  if (entries.capacity() == 0 || entries.capacity() > kMaxPooledPayload ||
      payload_pool_.size() >= kMaxPoolSize) {
    return;
  }
  entries.clear();
  payload_pool_.push_back(std::move(entries));
}

void ReliableCore::recycle_payload(std::vector<ViewEntry>&& entries) {
  const auto lk = guard();
  pool_payload(std::move(entries));
}

Message ReliableCore::draft(std::size_t reserve_entries) {
  const auto lk = guard();
  Message m;
  if (!payload_pool_.empty()) {
    m.entries = std::move(payload_pool_.back());
    payload_pool_.pop_back();
  }
  if (reserve_entries > 0) m.entries.reserve(reserve_entries);
  return m;
}

bool ReliableCore::OrphanWindow::insert(std::uint64_t transfer_id,
                                        NodeId dst) {
  if (ring.empty()) ring.resize(kOrphanDedupCapacity);
  for (const Rec& r : ring) {
    if (r.transfer_id == transfer_id) return false;  // already recorded
  }
  Rec& r = ring[next];
  if (r.transfer_id != 0) --count;  // FIFO eviction of the oldest record
  r.transfer_id = transfer_id;
  r.dst = dst;
  ++count;
  next = (next + 1) % ring.size();
  return true;
}

void ReliableCore::OrphanWindow::erase(std::uint64_t transfer_id) {
  for (Rec& r : ring) {
    if (r.transfer_id == transfer_id) {
      r = Rec{};
      --count;
      return;
    }
  }
}

void ReliableCore::OrphanWindow::erase_dst(NodeId dst) {
  for (Rec& r : ring) {
    if (r.transfer_id != 0 && r.dst == dst) {
      r = Rec{};
      --count;
    }
  }
}

// ---------------------------------------------------------------------------
// Accounting
// ---------------------------------------------------------------------------

std::size_t ReliableCore::in_flight() const {
  const auto lk = guard();
  return in_flight_;
}

std::size_t ReliableCore::stalled_backlog() const {
  const auto lk = guard();
  return backlog_count_;
}

std::size_t ReliableCore::dedup_entries() const {
  const auto lk = guard();
  std::size_t n = orphans_.size();
  for (const Transfer& t : transfers_) {
    if (t.id != 0 && t.delivered) ++n;
  }
  return n;
}

std::size_t ReliableCore::dedup_window_size() const {
  const auto lk = guard();
  return orphans_.size();
}

std::size_t ReliableCore::memory_bytes() const {
  const auto lk = guard();
  std::size_t b = transfers_.size() * sizeof(Transfer);
  for (const Transfer& t : transfers_) {
    b += t.msg.entries.capacity() * sizeof(ViewEntry);
  }
  for (const auto& p : payload_pool_) b += p.capacity() * sizeof(ViewEntry);
  b += free_slots_.capacity() * sizeof(std::uint32_t);
  b += orphans_.ring.capacity() * sizeof(OrphanWindow::Rec);
  b += crashed_.capacity() + stalled_.capacity();
  b += stall_backlog_.capacity() * sizeof(std::vector<Message>);
  for (const auto& backlog : stall_backlog_) {
    b += backlog.capacity() * sizeof(Message);
    for (const Message& m : backlog) {
      b += m.entries.capacity() * sizeof(ViewEntry);
    }
  }
  return b;
}

sim::Metrics ReliableCore::metrics() const {
  const auto lk = guard();
  return metrics_;
}

NetworkStats ReliableCore::stats() const {
  const auto lk = guard();
  return stats_;
}

void ReliableCore::record_operation(sim::OperationKind kind, std::size_t hops,
                                    std::size_t op_messages) {
  const auto lk = guard();
  metrics_.record_operation(kind, hops, op_messages);
}

// ---------------------------------------------------------------------------
// Send / failure injection
// ---------------------------------------------------------------------------

void ReliableCore::send(Message msg) {
  const auto lk = guard();
  msg.transfer_id = next_transfer_++;
  ++stats_.sends;
  const bool reliable = msg.type != sim::MessageKind::kAck;
  obs::SpanId span = obs::kNoSpan;
  std::uint32_t slot = kNoTransferSlot;
  if (reliable) {
    slot = alloc_slot();
    msg.transfer_slot = slot;
  }
  if (reliable && tracing()) {
    // One span per reliable transfer, parented to the message's carried
    // (application-level) span; its instants record the retransmission
    // timeline, its end the settle or abandonment.
    std::string name = "xfer:";
    name += sim::message_kind_name(msg.type);
    span = tracer_->begin_span(now(), name, msg.src, msg.span);
    tracer_->arg(span, "dst",
                 static_cast<std::uint64_t>(static_cast<std::int64_t>(msg.dst)));
    tracer_->arg(span, "transfer", msg.transfer_id);
  }
  if (reliable && recording()) {
    recorder_->record(msg.src, now(), obs::FlightEvent::kSend, msg.type,
                      msg.dst, msg.version, msg.epoch);
  }
  transmit(msg);
  if (reliable) {
    Transfer& t = transfers_[slot];
    t.id = msg.transfer_id;
    pool_payload(std::move(t.msg.entries));  // retire previous payload
    t.msg = std::move(msg);
    t.attempts = 1;
    t.span = span;
    t.delivered = false;
    arm_timer(slot);
  }
}

void ReliableCore::drop_backlog(NodeId node) {
  if (node >= 0 && static_cast<std::size_t>(node) < stall_backlog_.size()) {
    backlog_count_ -= stall_backlog_[static_cast<std::size_t>(node)].size();
    stall_backlog_[static_cast<std::size_t>(node)].clear();
  }
}

void ReliableCore::crash(NodeId node) {
  const auto lk = guard();
  if (recording()) {
    recorder_->record(node, now(), obs::FlightEvent::kCrash,
                      sim::MessageKind::kCount, -1);
  }
  set_flag(crashed_, node, true);
  // A crashed node's wedged process dies with the host: discard the
  // parked backlog instead of delivering it to a corpse on resume.
  set_flag(stalled_, node, false);
  drop_backlog(node);
}

bool ReliableCore::crashed(NodeId node) const {
  const auto lk = guard();
  return flag(crashed_, node);
}

bool ReliableCore::stalled(NodeId node) const {
  const auto lk = guard();
  return flag(stalled_, node);
}

void ReliableCore::stall(NodeId node) {
  const auto lk = guard();
  if (flag(crashed_, node)) return;  // dead beats wedged
  if (recording()) {
    recorder_->record(node, now(), obs::FlightEvent::kStall,
                      sim::MessageKind::kCount, -1);
  }
  set_flag(stalled_, node, true);
}

void ReliableCore::resume(NodeId node) {
  const auto lk = guard();
  resume_node(node);
}

void ReliableCore::resume_node(NodeId node) {
  if (!flag(stalled_, node)) return;
  if (recording()) {
    recorder_->record(node, now(), obs::FlightEvent::kResume,
                      sim::MessageKind::kCount, -1);
  }
  set_flag(stalled_, node, false);
  if (node < 0 || static_cast<std::size_t>(node) >= stall_backlog_.size()) {
    return;
  }
  // Drain in arrival order.  Move the backlog out first: delivering a
  // message can trigger sends whose acks / retransmissions must not
  // append to the vector mid-iteration.
  std::vector<Message> backlog =
      std::move(stall_backlog_[static_cast<std::size_t>(node)]);
  stall_backlog_[static_cast<std::size_t>(node)].clear();
  backlog_count_ -= backlog.size();
  for (Message& msg : backlog) receive(std::move(msg));
}

void ReliableCore::resume_all() {
  const auto lk = guard();
  // Deterministic drain order: ascending node id (the dense bitmap's
  // natural scan order).
  for (std::size_t n = 0; n < stalled_.size(); ++n) {
    if (stalled_[n] != 0) resume_node(static_cast<NodeId>(n));
  }
}

void ReliableCore::begin_loss_burst(double extra_drop) {
  const auto lk = guard();
  loss_bursts_.push_back(extra_drop);
}

void ReliableCore::end_loss_burst(double extra_drop) {
  const auto lk = guard();
  close_window(loss_bursts_, extra_drop);
}

void ReliableCore::begin_latency_spike(double factor) {
  const auto lk = guard();
  latency_spikes_.push_back(factor);
}

void ReliableCore::end_latency_spike(double factor) {
  const auto lk = guard();
  close_window(latency_spikes_, factor);
}

void ReliableCore::begin_duplication(double probability) {
  const auto lk = guard();
  duplications_.push_back(probability);
}

void ReliableCore::end_duplication(double probability) {
  const auto lk = guard();
  close_window(duplications_, probability);
}

void ReliableCore::set_link_filter(LinkFilter up) {
  const auto lk = guard();
  link_up_ = std::move(up);
}

void ReliableCore::clear_link_filter() {
  const auto lk = guard();
  link_up_ = nullptr;
}

void ReliableCore::revive(NodeId node) {
  // A recycled id is a brand-new endpoint: it must not inherit its
  // predecessor's unsettled transfers either.  A reliable transfer still
  // armed from the dead predecessor's era would otherwise retransmit into
  // the new endpoint (stale content, fresh dedup table) or resend on the
  // dead sender's behalf.  Abandon them through the regular give-up path
  // -- BEFORE clearing the crashed mark, so the application layer's
  // abandon handler still observes which side died and can re-ship
  // authoritative content from a live witness.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> stale;
  {
    const auto lk = guard();
    for (std::uint32_t slot = 0; slot < transfers_.size(); ++slot) {
      const Transfer& t = transfers_[slot];
      if (t.id != 0 && (t.msg.src == node || t.msg.dst == node)) {
        stale.emplace_back(t.id, slot);
      }
    }
  }
  // Abandon in ascending transfer-id order: the abandon handler may send
  // fresh messages, so the order is semantic -- it must be a property of
  // the run, not of the slot table's recycling history.
  std::sort(stale.begin(), stale.end());
  for (const auto& [id, slot] : stale) {
    Message msg;
    {
      const auto lk = guard();
      Transfer* t = live_transfer(slot, id);
      if (t == nullptr) continue;  // settled by an ack or a handler's send
      cancel_retransmit(t->timer);
      msg = take_abandoned(slot);
    }
    invoke(Upcall::kAbandon, msg);  // outside the lock: it may send
    recycle_payload(std::move(msg.entries));
  }
  const auto lk = guard();
  set_flag(crashed_, node, false);
  // ... nor its predecessor's dedup history, stall window, or flight-
  // recorder ring (the ring is per-endpoint history; a recycled id is a
  // different endpoint).
  if (!orphans_.empty()) orphans_.erase_dst(node);
  set_flag(stalled_, node, false);
  drop_backlog(node);
  if (recorder_ != nullptr) recorder_->reset_node(node);
}

Message ReliableCore::take_abandoned(std::uint32_t slot) {
  Transfer& t = transfers_[slot];
  ++stats_.abandoned;
  metrics_.record_transfer_attempts(t.attempts);
  if (tracing() && t.span != obs::kNoSpan) {
    tracer_->arg(t.span, "attempts", t.attempts);
    tracer_->arg(t.span, "abandoned", std::uint64_t{1});
    tracer_->end_span(t.span, now());
  }
  if (recording()) {
    recorder_->record(t.msg.src, now(), obs::FlightEvent::kAbandon,
                      t.msg.type, t.msg.dst, t.msg.version, t.msg.epoch);
  }
  // The settling ack will never come; the delivered bit dies with the
  // slot, which keeps the dedup state bounded by the in-flight count.
  Message msg = std::move(t.msg);
  free_slot(slot);
  return msg;
}

// ---------------------------------------------------------------------------
// Wire
// ---------------------------------------------------------------------------

double ReliableCore::sample_delay() {
  double delay = config_.latency.sample(rng_);
  for (const double factor : latency_spikes_) delay *= factor;
  return delay;
}

void ReliableCore::transmit(const Message& msg) {
  ++stats_.transmissions;
  metrics_.count_message(msg.type);
  const std::size_t bytes = net::wire_frame_size(msg);
  metrics_.count_wire_bytes(msg.type, bytes);
  stats_.wire_bytes += bytes;
  if (msg.type == sim::MessageKind::kAck) ++stats_.acks;
  const bool link_down = link_up_ && !link_up_(msg.src, msg.dst);
  const double drop = effective_drop();
  if (link_down || (drop > 0.0 && rng_.chance(drop))) {
    // Lost before any bytes exist: the wire never sees it.
    ++stats_.dropped;
    if (recording() && msg.type != sim::MessageKind::kAck) {
      recorder_->record(msg.src, now(), obs::FlightEvent::kDrop, msg.type,
                        msg.dst, msg.version, msg.epoch);
    }
    return;
  }
  carry(msg, sample_delay());
  if (!duplications_.empty()) {
    // Duplication window: the strongest open window's probability wins
    // (overlapping windows model one flaky path, not independent copies).
    const double dup =
        *std::max_element(duplications_.begin(), duplications_.end());
    if (dup > 0.0 && rng_.chance(dup)) {
      ++stats_.injected_duplicates;
      carry(msg, sample_delay());
    }
  }
}

void ReliableCore::arrive(Message&& msg) {
  const auto lk = guard();
  if (msg.type == sim::MessageKind::kAck) {
    settle(msg);
    pool_payload(std::move(msg.entries));
    return;
  }
  if (flag(crashed_, msg.dst)) {
    ++stats_.dropped;
    if (recording()) {
      recorder_->record(msg.dst, now(), obs::FlightEvent::kDrop, msg.type,
                        msg.src, msg.version, msg.epoch);
    }
    pool_payload(std::move(msg.entries));
    return;
  }
  if (flag(stalled_, msg.dst)) {
    // Gray failure: the packet reached the host, but the wedged process
    // cannot run its receive handler -- so no ack either.  The sender's
    // failure detector sees exactly what a crash looks like; only time
    // (resume before its patience runs out) tells the two apart.
    ++stats_.stalled_deferred;
    if (recording()) {
      recorder_->record(msg.dst, now(), obs::FlightEvent::kParked, msg.type,
                        msg.src, msg.version, msg.epoch);
    }
    const auto idx = static_cast<std::size_t>(msg.dst);
    if (idx >= stall_backlog_.size()) stall_backlog_.resize(idx + 1);
    stall_backlog_[idx].push_back(std::move(msg));
    ++backlog_count_;
    return;
  }
  receive(std::move(msg));
}

void ReliableCore::settle(const Message& ack) {
  // This runs even when the original sender has crashed since -- the
  // pending entry is sender-side transport state that must not
  // retransmit forever on behalf of a dead node.  Acks also settle for a
  // stalled sender: the transport state machine lives below the wedged
  // process.
  if (Transfer* t = live_transfer(ack.transfer_slot, ack.transfer_id)) {
    metrics_.record_transfer_attempts(t->attempts);
    if (tracing() && t->span != obs::kNoSpan) {
      tracer_->arg(t->span, "attempts", t->attempts);
      tracer_->end_span(t->span, now());
    }
    cancel_retransmit(t->timer);
    free_slot(ack.transfer_slot);
  }
  // Prune any orphan dedup record (the transfer can have been re-
  // delivered after an earlier settle -- see receive()).  A
  // retransmission still in flight when the ack settles can then be
  // delivered a second time: the at-least-once case of the contract.
  if (!orphans_.empty()) orphans_.erase(ack.transfer_id);
}

void ReliableCore::receive(Message&& msg) {
  // Acknowledge every reliable arrival, duplicates included (the previous
  // ack may be the thing that got lost).
  Message ack;
  ack.type = sim::MessageKind::kAck;
  ack.src = msg.dst;
  ack.dst = msg.src;
  ack.transfer_id = msg.transfer_id;
  ack.transfer_slot = msg.transfer_slot;
  transmit(ack);

  // Dedup: the delivered bit on the live transfer slot, or -- when the
  // slot is already recycled (settled/abandoned with a copy still in
  // flight) -- the bounded orphan window.
  bool fresh;
  if (Transfer* t = live_transfer(msg.transfer_slot, msg.transfer_id)) {
    fresh = !t->delivered;
    t->delivered = true;
  } else {
    fresh = orphans_.insert(msg.transfer_id, msg.dst);
  }
  if (!fresh) {
    ++stats_.duplicates;
    if (recording()) {
      recorder_->record(msg.dst, now(), obs::FlightEvent::kDuplicate,
                        msg.type, msg.src, msg.version, msg.epoch);
    }
    pool_payload(std::move(msg.entries));
    return;
  }
  ++stats_.delivered;
  if (recording()) {
    recorder_->record(msg.dst, now(), obs::FlightEvent::kDeliver, msg.type,
                      msg.src, msg.version, msg.epoch);
  }
  hand_up(Upcall::kDeliver, std::move(msg));
}

void ReliableCore::hand_up(Upcall kind, Message&& msg) {
  invoke(kind, msg);
  pool_payload(std::move(msg.entries));
}

void ReliableCore::invoke(Upcall kind, const Message& msg) const {
  const auto& handler = kind == Upcall::kDeliver ? sink_ : abandon_;
  if (handler) handler(msg);
}

void ReliableCore::arm_timer(std::uint32_t slot) {
  Transfer& t = transfers_[slot];
  VORONET_DCHECK(t.id != 0);
  t.timer = arm_retransmit(t.msg, backoff_timeout(t.id, t.attempts));
}

void ReliableCore::on_timeout(std::uint32_t slot, std::uint64_t transfer_id) {
  const auto lk = guard();
  Transfer* t = live_transfer(slot, transfer_id);
  if (t == nullptr) return;  // acknowledged in the meantime
  // Give up when either endpoint crashed -- a crash-stop sender can never
  // resend, so its unacked transfers die with it -- or the retry cap hit.
  const bool give_up =
      flag(crashed_, t->msg.dst) || flag(crashed_, t->msg.src) ||
      (config_.max_retries > 0 && t->attempts > config_.max_retries);
  if (give_up) {
    // Tell the application layer last: the handler may send afresh (and
    // may reoccupy this very slot).
    hand_up(Upcall::kAbandon, take_abandoned(slot));
    return;
  }
  ++t->attempts;
  ++stats_.retransmits;
  if (tracing() && t->span != obs::kNoSpan) {
    const obs::SpanId i =
        tracer_->instant(now(), "retransmit", t->msg.src, t->span);
    tracer_->arg(i, "attempt", t->attempts);
  }
  if (recording()) {
    recorder_->record(t->msg.src, now(), obs::FlightEvent::kRetransmit,
                      t->msg.type, t->msg.dst, t->msg.version, t->msg.epoch);
  }
  transmit(t->msg);
  arm_timer(slot);
}

}  // namespace voronet::protocol
