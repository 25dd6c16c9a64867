#include "protocol/concurrent_transport.hpp"

#include <algorithm>
#include <limits>
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

ConcurrentTransport::ConcurrentTransport(const NetworkConfig& config,
                                         double patience)
    : ReliableCore(config, /*concurrent=*/true),
      patience_(patience),
      start_(std::chrono::steady_clock::now()) {
  VORONET_EXPECT(patience > 0.0, "patience must be positive");
}

double ConcurrentTransport::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

void ConcurrentTransport::land(Message msg) {
  arrive(std::move(msg));
  // Decrement AFTER the consequences (acks, upcalls, follow-on wire
  // events) are published: the driver's quiescence probe reads this
  // counter first, so 0 means every consequence is already visible to it.
  wire_pending_.fetch_sub(1);
  // Every landing can complete quiescence (an ack settling the last
  // transfer is silent otherwise) -- nudge the driver.
  up_cv_.notify_all();
}

void ConcurrentTransport::lose(std::size_t frames) {
  count_wire_losses(frames);
  wire_pending_.fetch_sub(frames);
  up_cv_.notify_all();
}

void ConcurrentTransport::hand_up(Upcall kind, Message&& msg) {
  std::lock_guard<std::mutex> lk(up_m_);
  upcalls_.push_back(PendingUpcall{kind, std::move(msg)});
  up_cv_.notify_all();
}

void ConcurrentTransport::schedule(double delay, Task fn) {
  DriverTimer timer;
  timer.at = now() + std::max(delay, 0.0);
  timer.seq = timer_seq_++;
  timer.fn = std::move(fn);
  timers_.push_back(std::move(timer));
  std::push_heap(timers_.begin(), timers_.end(), Later{});
}

std::size_t ConcurrentTransport::pump() {
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

bool ConcurrentTransport::quiescent() const {
  if (wire_pending_.load() != 0) return false;
  if (in_flight() != 0) return false;
  {
    std::lock_guard<std::mutex> lk(up_m_);
    if (!upcalls_.empty()) return false;
  }
  return timers_.empty();
}

void ConcurrentTransport::wait(double horizon) {
  std::unique_lock<std::mutex> lk(up_m_);
  if (!upcalls_.empty()) return;
  const double t = now();
  double nap = std::min(kDriverNap, horizon - t);
  if (!timers_.empty()) {
    nap = std::min(nap, std::max(timers_.front().at - t, 0.0));
  }
  up_cv_.wait_for(lk, std::chrono::duration<double>(nap));
}

Transport::RunResult ConcurrentTransport::run_to_idle(std::size_t max_events) {
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

Transport::RunResult ConcurrentTransport::run_until(double horizon) {
  RunResult result;
  for (;;) {
    result.processed += pump();
    if (now() >= horizon) return result;
    wait(horizon);
  }
}

}  // namespace voronet::protocol
