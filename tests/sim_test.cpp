// Tests for the discrete-event engine and the metrics registry.
#include "sim/event_queue.hpp"
#include "sim/metrics.hpp"

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/expect.hpp"
#include "common/rng.hpp"

namespace voronet::sim {
namespace {

TEST(EventQueue, ExecutesInTimestampOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  q.run_to_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 3.0);
}

TEST(EventQueue, TiesResolveFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  q.run_to_idle();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, HandlersMayScheduleMoreEvents) {
  EventQueue q;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) q.schedule(1.0, chain);
  };
  q.schedule(0.0, chain);
  const auto run = q.run_to_idle();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(run.processed, 5u);
  EXPECT_FALSE(run.budget_exhausted);
  EXPECT_EQ(q.now(), 4.0);
}

TEST(EventQueue, ScheduleDuringStepKeepsFifoOrder) {
  // An event scheduled from inside a handler at the *current* timestamp
  // must run after every already-queued event with that timestamp (FIFO by
  // insertion sequence), so re-entrant scheduling stays deterministic.
  EventQueue q;
  std::vector<int> order;
  q.schedule(1.0, [&] {
    order.push_back(0);
    q.schedule(0.0, [&] { order.push_back(3); });
  });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(1.0, [&] { order.push_back(2); });
  q.run_to_idle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(q.now(), 1.0);
}

TEST(EventQueue, RelativeDelaysAccumulate) {
  EventQueue q;
  double seen = -1.0;
  q.schedule(2.0, [&] {
    q.schedule(3.0, [&] { seen = q.now(); });
  });
  q.run_to_idle();
  EXPECT_EQ(seen, 5.0);
}

TEST(EventQueue, NegativeDelayRejected) {
  EventQueue q;
  EXPECT_THROW(q.schedule(-1.0, [] {}), ContractError);
}

TEST(EventQueue, EventBudgetExhaustionIsReportedNotThrown) {
  EventQueue q;
  std::function<void()> forever = [&] { q.schedule(1.0, forever); };
  q.schedule(0.0, forever);
  const auto run = q.run_to_idle(1000);
  EXPECT_TRUE(run.budget_exhausted);
  EXPECT_EQ(run.processed, 1000u);
  EXPECT_FALSE(q.idle());  // the runaway chain is still pending
}

TEST(EventQueue, StepReturnsFalseWhenIdle) {
  EventQueue q;
  EXPECT_FALSE(q.step());
  q.schedule(1.0, [] {});
  EXPECT_TRUE(q.step());
  EXPECT_FALSE(q.step());
}

TEST(EventQueue, RunUntilStopsAtHorizonAndAdvancesClock) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  q.schedule(5.0, [&] { order.push_back(5); });
  const auto run = q.run_until(3.0);
  EXPECT_EQ(run.processed, 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(q.now(), 3.0);  // clock reaches the horizon, not the last event
  EXPECT_EQ(q.pending(), 1u);
  q.run_to_idle();
  EXPECT_EQ(q.now(), 5.0);
}

TEST(EventQueue, TimerFiresLikeAnOrdinaryEvent) {
  EventQueue q;
  int fired = 0;
  const TimerId t = q.schedule_timer(2.0, [&] { ++fired; });
  EXPECT_NE(t, kNoTimer);
  q.run_to_idle();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), 2.0);
  EXPECT_FALSE(q.cancel(t));  // already fired
}

TEST(EventQueue, CancelledTimerNeverRunsNorAdvancesTheClock) {
  EventQueue q;
  int fired = 0;
  q.schedule(1.0, [&] { fired += 10; });
  const TimerId t = q.schedule_timer(5.0, [&] { fired += 100; });
  EXPECT_EQ(q.pending(), 2u);
  EXPECT_TRUE(q.cancel(t));
  EXPECT_FALSE(q.cancel(t));  // double cancel is a no-op
  EXPECT_EQ(q.pending(), 1u);
  const auto run = q.run_to_idle();
  EXPECT_EQ(fired, 10);
  EXPECT_EQ(run.processed, 1u);
  EXPECT_EQ(q.now(), 1.0);  // the cancelled 5.0 event left no trace
  EXPECT_TRUE(q.idle());
}

TEST(EventQueue, CancelFromInsideAHandlerSuppressesALaterTimer) {
  // The ack-cancels-retransmit pattern of the protocol engine: the timer
  // is already in the heap when an earlier event cancels it.
  EventQueue q;
  int retransmits = 0;
  const TimerId rto = q.schedule_timer(3.0, [&] { ++retransmits; });
  q.schedule(1.0, [&] { EXPECT_TRUE(q.cancel(rto)); });
  q.run_to_idle();
  EXPECT_EQ(retransmits, 0);
  EXPECT_EQ(q.now(), 1.0);
}

TEST(EventQueue, TimersAndEventsShareDeterministicFifoTies) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(1.0, [&] { order.push_back(0); });
  q.schedule_timer(1.0, [&] { order.push_back(1); });
  q.schedule(1.0, [&] { order.push_back(2); });
  q.schedule_timer(1.0, [&] { order.push_back(3); });
  q.run_to_idle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, CancelDropsPendingAndDestroysCapturesAtOnce) {
  EventQueue q;
  auto token = std::make_shared<int>(0);
  q.schedule(1.0, [] {});
  const TimerId t = q.schedule_timer(5.0, [token] { ++*token; });
  EXPECT_EQ(token.use_count(), 2);
  EXPECT_EQ(q.pending(), 2u);
  EXPECT_TRUE(q.cancel(t));
  EXPECT_EQ(q.pending(), 1u);         // gone from the heap, not skipped later
  EXPECT_EQ(token.use_count(), 1);    // the handler's captures died with it
  q.run_to_idle();
  EXPECT_EQ(*token, 0);
}

TEST(EventQueue, StaleTimerIdLeavesTheSlotsNewOccupantAlone) {
  EventQueue q;
  int fired = 0;
  const TimerId stale = q.schedule_timer(1.0, [] {});
  EXPECT_TRUE(q.cancel(stale));
  // The freed slot is reused by the next timer, under a new generation.
  const TimerId fresh = q.schedule_timer(2.0, [&] { fired += 1; });
  EXPECT_NE(fresh, stale);
  EXPECT_FALSE(q.cancel(stale));
  EXPECT_EQ(q.pending(), 1u);
  q.run_to_idle();
  EXPECT_EQ(fired, 1);

  // Same after the stale timer fired, with a plain event in its slot.
  const TimerId fired_id = q.schedule_timer(1.0, [] {});
  q.run_to_idle();
  q.schedule(1.0, [&] { fired += 10; });
  EXPECT_FALSE(q.cancel(fired_id));
  EXPECT_EQ(q.pending(), 1u);
  q.run_to_idle();
  EXPECT_EQ(fired, 11);
}

TEST(EventQueue, CancelOfNoTimerIsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(kNoTimer));
  q.schedule(1.0, [] {});
  const TimerId t = q.schedule_timer(1.0, [] {});
  EXPECT_NE(t, kNoTimer);
  EXPECT_FALSE(q.cancel(kNoTimer));
  EXPECT_EQ(q.pending(), 2u);
}

// Differential test: the queue against a reference model, an ordered map
// keyed on (at, seq), over a seeded mix of schedule / schedule_timer /
// cancel / step / run_until with equal-time ties and cancels (and
// schedules) issued from inside handlers.  Every handler checks, as it
// runs, that it is the model's earliest event at the model's time; after
// every operation pending() and the number of live handlers (a shared
// token's use count) must equal the model's size, so the heap holds
// exactly the pending events.
TEST(EventQueue, MatchesAnOrderedReferenceModel) {
  struct Model {
    struct Event {
      int label;
      TimerId id;  ///< kNoTimer for a plain event
    };
    std::map<std::pair<double, std::uint64_t>, Event> events;
    std::map<TimerId, std::pair<double, std::uint64_t>> timers;
    std::uint64_t seq = 0;
  };
  EventQueue q;
  Model model;
  Rng rng(20240611);
  auto token = std::make_shared<int>(0);
  std::vector<TimerId> issued;  // every id ever handed out, live or not
  int next_label = 0;
  std::size_t ran = 0;
  std::size_t mismatches = 0;

  // Delays from a small grid (0 included), so equal-time ties are common.
  const auto draw_delay = [&] {
    return 0.25 * static_cast<double>(rng.below(5));
  };
  const auto pick_id = [&]() -> TimerId {
    if (issued.empty() || rng.below(8) == 0) return kNoTimer;
    return issued[rng.below(issued.size())];
  };

  std::function<void(bool)> add;
  const auto cancel_both = [&](TimerId id) {
    const auto it = model.timers.find(id);
    const bool live = it != model.timers.end();
    if (live) {
      model.events.erase(it->second);
      model.timers.erase(it);
    }
    if (q.cancel(id) != live) ++mismatches;
  };
  const auto handler = [&](int label) {
    return [&, label, token] {
      ++ran;
      const auto first = model.events.begin();
      if (first == model.events.end() || first->second.label != label ||
          first->first.first != q.now()) {
        ++mismatches;
        return;
      }
      model.timers.erase(first->second.id);  // a fired timer's id is dead
      model.events.erase(first);
      if (q.pending() != model.events.size()) ++mismatches;
      switch (rng.below(4)) {
        case 0: cancel_both(pick_id()); break;
        case 1: add(rng.below(2) == 0); break;
        default: break;
      }
    };
  };
  add = [&](bool timer) {
    const double delay = draw_delay();
    const auto key = std::make_pair(q.now() + delay, model.seq++);
    const int label = next_label++;
    TimerId id = kNoTimer;
    if (timer) {
      id = q.schedule_timer(delay, handler(label));
      model.timers.emplace(id, key);
      issued.push_back(id);
    } else {
      q.schedule(delay, handler(label));
    }
    model.events.emplace(key, Model::Event{label, id});
  };

  for (int op = 0; op < 100'000; ++op) {
    const auto roll = rng.below(10);
    if (roll < 3) {
      add(false);
    } else if (roll < 6) {
      add(true);
    } else if (roll < 7) {
      cancel_both(pick_id());
    } else if (roll < 9) {
      const bool busy = !model.events.empty();
      if (q.step() != busy) ++mismatches;
    } else {
      const double horizon = q.now() + draw_delay();
      q.run_until(horizon);
      if (q.now() != horizon) ++mismatches;
      if (!model.events.empty() &&
          model.events.begin()->first.first <= horizon) {
        ++mismatches;
      }
    }
    ASSERT_EQ(mismatches, 0u) << "operation " << op;
    ASSERT_EQ(q.pending(), model.events.size()) << "operation " << op;
    ASSERT_EQ(static_cast<std::size_t>(token.use_count() - 1),
              model.events.size())
        << "operation " << op;
  }
  q.run_to_idle();
  EXPECT_EQ(mismatches, 0u);
  EXPECT_TRUE(model.events.empty());
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_GT(ran, 30'000u);
  EXPECT_EQ(q.processed(), ran);
}

TEST(Metrics, MessageCounting) {
  Metrics m;
  m.count_message(MessageKind::kRouteForward);
  m.count_message(MessageKind::kRouteForward, 4);
  m.count_message(MessageKind::kVoronoiUpdate, 2);
  EXPECT_EQ(m.messages(MessageKind::kRouteForward), 5u);
  EXPECT_EQ(m.messages(MessageKind::kVoronoiUpdate), 2u);
  EXPECT_EQ(m.total_messages(), 7u);
}

TEST(Metrics, OperationRecords) {
  Metrics m;
  m.record_operation(OperationKind::kJoin, 10, 40);
  m.record_operation(OperationKind::kJoin, 20, 60);
  EXPECT_EQ(m.hops(OperationKind::kJoin).count(), 2u);
  EXPECT_DOUBLE_EQ(m.hops(OperationKind::kJoin).mean(), 15.0);
  EXPECT_DOUBLE_EQ(m.operation_messages(OperationKind::kJoin).mean(), 50.0);
  m.reset();
  EXPECT_EQ(m.total_messages(), 0u);
  EXPECT_EQ(m.hops(OperationKind::kJoin).count(), 0u);
}

TEST(Metrics, KindNames) {
  EXPECT_EQ(message_kind_name(MessageKind::kRouteForward), "route_forward");
  EXPECT_EQ(message_kind_name(MessageKind::kQueryAnswer), "query_answer");
  EXPECT_EQ(message_kind_name(MessageKind::kJoin), "join");
  EXPECT_EQ(message_kind_name(MessageKind::kAck), "ack");
  EXPECT_EQ(operation_kind_name(OperationKind::kLeave), "leave");
}

}  // namespace
}  // namespace voronet::sim
