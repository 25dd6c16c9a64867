#include "protocol/thread_transport.hpp"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "common/expect.hpp"

namespace voronet::protocol {

namespace {

/// How long the driver sleeps between quiescence probes when no wakeup
/// deadline is nearer, in seconds.  Progress signals (upcalls, landed
/// messages) notify the driver cv, so this only bounds staleness after
/// silent transitions (e.g. an ack settling the last in-flight transfer).
constexpr double kDriverNap = 500e-6;

}  // namespace

ThreadTransport::ThreadTransport(const NetworkConfig& config, unsigned shards,
                                 double patience)
    : ReliableCore(config, /*concurrent=*/true),
      patience_(patience),
      start_(std::chrono::steady_clock::now()) {
  VORONET_EXPECT(patience > 0.0, "patience must be positive");
  VORONET_EXPECT(shards <= kMaxShards,
                 "shard count " + std::to_string(shards) + " exceeds " +
                     std::to_string(kMaxShards));
  if (shards == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    shards = std::clamp(hw == 0 ? 2u : hw, 1u, 8u);
  }
  shards_.reserve(shards);
  for (unsigned i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  threads_.reserve(shards);
  for (unsigned i = 0; i < shards; ++i) {
    threads_.emplace_back([this, i] { shard_loop(*shards_[i]); });
  }
}

ThreadTransport::~ThreadTransport() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lk(shard->m);
    shard->stop = true;
    shard->cv.notify_all();
  }
  for (auto& t : threads_) t.join();
}

// ---------------------------------------------------------------------------
// Clock & driving (the driving thread)
// ---------------------------------------------------------------------------

double ThreadTransport::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

void ThreadTransport::schedule(double delay, Task fn) {
  DriverTimer timer;
  timer.at = now() + std::max(delay, 0.0);
  timer.seq = timer_seq_++;
  timer.fn = std::move(fn);
  timers_.push_back(std::move(timer));
  std::push_heap(timers_.begin(), timers_.end(), Later{});
}

std::size_t ThreadTransport::pump() {
  std::size_t processed = 0;
  for (;;) {
    // Due application timers interleave with deliveries in deadline
    // order -- close enough to the sim's total order for protocol logic.
    if (!timers_.empty() && timers_.front().at <= now()) {
      std::pop_heap(timers_.begin(), timers_.end(), Later{});
      DriverTimer timer = std::move(timers_.back());
      timers_.pop_back();
      ++processed;
      timer.fn();
      continue;
    }
    PendingUpcall up;
    {
      std::lock_guard<std::mutex> lk(up_m_);
      if (upcalls_.empty()) break;
      up = std::move(upcalls_.front());
      upcalls_.pop_front();
    }
    ++processed;
    invoke(up.kind, up.msg);
    recycle_payload(std::move(up.msg.entries));
  }
  return processed;
}

bool ThreadTransport::quiescent() const {
  if (wire_pending_.load() != 0) return false;
  if (in_flight() != 0) return false;
  {
    std::lock_guard<std::mutex> lk(up_m_);
    if (!upcalls_.empty()) return false;
  }
  return timers_.empty();
}

void ThreadTransport::wait(double horizon) {
  std::unique_lock<std::mutex> lk(up_m_);
  if (!upcalls_.empty()) return;
  const double t = now();
  double nap = std::min(kDriverNap, horizon - t);
  if (!timers_.empty()) {
    nap = std::min(nap, std::max(timers_.front().at - t, 0.0));
  }
  up_cv_.wait_for(lk, std::chrono::duration<double>(nap));
}

Transport::RunResult ThreadTransport::run_to_idle(std::size_t max_events) {
  const double deadline = now() + patience_;
  RunResult result;
  for (;;) {
    result.processed += pump();
    if (result.processed >= max_events) {
      result.budget_exhausted = true;
      return result;
    }
    if (quiescent()) return result;
    if (now() >= deadline) {
      result.budget_exhausted = true;
      return result;
    }
    wait(std::numeric_limits<double>::infinity());
  }
}

Transport::RunResult ThreadTransport::run_until(double horizon) {
  RunResult result;
  for (;;) {
    result.processed += pump();
    if (now() >= horizon) return result;
    wait(horizon);
  }
}

// ---------------------------------------------------------------------------
// Wire hooks (called under the core's lock)
// ---------------------------------------------------------------------------

void ThreadTransport::carry(const Message& msg, double delay) {
  WireEvent ev;
  ev.at = now() + delay;
  ev.seq = event_seq_.fetch_add(1, std::memory_order_relaxed);
  ev.kind = WireEvent::kArrive;
  ev.msg = msg;  // one payload copy per wire attempt, as in the sim
  wire_pending_.fetch_add(1);  // land() retires it
  post(shard_of(msg.dst), std::move(ev));
}

sim::TimerId ThreadTransport::arm_retransmit(const Message& msg,
                                             double delay) {
  WireEvent timer;
  timer.at = now() + delay;
  timer.seq = event_seq_.fetch_add(1, std::memory_order_relaxed);
  timer.kind = WireEvent::kRetransmit;
  timer.slot = msg.transfer_slot;
  timer.transfer = msg.transfer_id;
  post(shard_of(msg.src), std::move(timer));
  return sim::kNoTimer;
}

void ThreadTransport::hand_up(Upcall kind, Message&& msg) {
  std::lock_guard<std::mutex> lk(up_m_);
  upcalls_.push_back(PendingUpcall{kind, std::move(msg)});
  up_cv_.notify_all();
}

// ---------------------------------------------------------------------------
// Shards
// ---------------------------------------------------------------------------

void ThreadTransport::land(Message msg) {
  arrive(std::move(msg));
  // Decrement AFTER the consequences (acks, upcalls, follow-on wire
  // events) are published: the driver's quiescence probe reads this
  // counter first, so 0 means every consequence is already visible to it.
  wire_pending_.fetch_sub(1);
  // Every landing can complete quiescence (an ack settling the last
  // transfer is silent otherwise) -- nudge the driver.
  up_cv_.notify_all();
}

void ThreadTransport::process_event(WireEvent& ev) {
  if (ev.kind == WireEvent::kArrive) {
    land(std::move(ev.msg));
  } else {
    on_timeout(ev.slot, ev.transfer);
  }
}

void ThreadTransport::post(Shard& shard, WireEvent ev) {
  std::lock_guard<std::mutex> lk(shard.m);
  shard.inbox.push_back(std::move(ev));
  shard.cv.notify_all();
}

void ThreadTransport::shard_loop(Shard& shard) {
  std::vector<WireEvent> due;
  std::unique_lock<std::mutex> lk(shard.m);
  for (;;) {
    for (WireEvent& ev : shard.inbox) {
      shard.heap.push_back(std::move(ev));
      std::push_heap(shard.heap.begin(), shard.heap.end(), Later{});
    }
    shard.inbox.clear();
    if (shard.stop) break;
    const double t = now();
    while (!shard.heap.empty() && shard.heap.front().at <= t) {
      std::pop_heap(shard.heap.begin(), shard.heap.end(), Later{});
      due.push_back(std::move(shard.heap.back()));
      shard.heap.pop_back();
    }
    if (!due.empty()) {
      lk.unlock();
      for (WireEvent& ev : due) process_event(ev);
      due.clear();
      lk.lock();
      continue;
    }
    if (shard.heap.empty()) {
      shard.cv.wait(lk,
                    [&shard] { return shard.stop || !shard.inbox.empty(); });
    } else {
      shard.cv.wait_for(lk,
                        std::chrono::duration<double>(shard.heap.front().at -
                                                      t));
    }
  }
}

}  // namespace voronet::protocol
