#include "protocol/thread_transport.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

namespace voronet::protocol {

ThreadTransport::ThreadTransport(const NetworkConfig& config, unsigned shards,
                                 double patience)
    : ConcurrentTransport(config, patience) {
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
// Wire hooks (called under the core's lock)
// ---------------------------------------------------------------------------

void ThreadTransport::carry(const Message& msg, double delay) {
  WireEvent ev;
  ev.at = now() + delay;
  ev.seq = next_seq();
  ev.kind = WireEvent::kArrive;
  ev.msg = msg;  // one payload copy per wire attempt, as in the sim
  launch();
  post(shard_of(msg.dst), std::move(ev));
}

sim::TimerId ThreadTransport::arm_retransmit(const Message& msg,
                                             double delay) {
  WireEvent timer;
  timer.at = now() + delay;
  timer.seq = next_seq();
  timer.kind = WireEvent::kRetransmit;
  timer.slot = msg.transfer_slot;
  timer.transfer = msg.transfer_id;
  post(shard_of(msg.src), std::move(timer));
  return sim::kNoTimer;
}

// ---------------------------------------------------------------------------
// Shards
// ---------------------------------------------------------------------------

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
