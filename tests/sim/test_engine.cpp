#include "sim/engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace tapo::sim {
namespace {

TEST(Engine, RunsEventsInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(3.0, [&] { order.push_back(3); });
  engine.schedule_at(1.0, [&] { order.push_back(1); });
  engine.schedule_at(2.0, [&] { order.push_back(2); });
  EXPECT_EQ(engine.run_until(10.0), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, TieBreaksByInsertionOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(1.0, [&] { order.push_back(0); });
  engine.schedule_at(1.0, [&] { order.push_back(1); });
  engine.schedule_at(1.0, [&] { order.push_back(2); });
  engine.run_until(2.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// Regression: the scheduler's determinism contract. Many events across two
// tied timestamps — the later one exactly at the horizon — must run in
// insertion order within each timestamp, even when interleaved at schedule
// time and when the heap grows large enough to reorder internally.
TEST(Engine, InterleavedTiesIncludingAtHorizonRunInInsertionOrder) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    engine.schedule_at(5.0, [&order, i] { order.push_back(100 + i); });
    engine.schedule_at(2.0, [&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(engine.run_until(5.0), 16u);
  std::vector<int> expected;
  for (int i = 0; i < 8; ++i) expected.push_back(i);
  for (int i = 0; i < 8; ++i) expected.push_back(100 + i);
  EXPECT_EQ(order, expected);
}

// Regression: an event that schedules another event at its *own* timestamp
// gets a later sequence number, so the newcomer runs after every already
// queued event at that time — insertion order, not recursion order.
TEST(Engine, EventSchedulingAtOwnTimeRunsAfterQueuedTies) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(1.0, [&] {
    order.push_back(0);
    engine.schedule_at(1.0, [&] { order.push_back(2); });
  });
  engine.schedule_at(1.0, [&] { order.push_back(1); });
  EXPECT_EQ(engine.run_until(1.0), 3u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Engine, HorizonStopsExecution) {
  Engine engine;
  int count = 0;
  engine.schedule_at(1.0, [&] { ++count; });
  engine.schedule_at(5.0, [&] { ++count; });
  EXPECT_EQ(engine.run_until(2.0), 1u);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(engine.pending(), 1u);
  // Resuming executes the remainder.
  EXPECT_EQ(engine.run_until(10.0), 1u);
  EXPECT_EQ(count, 2);
}

TEST(Engine, EventExactlyAtHorizonRuns) {
  Engine engine;
  bool ran = false;
  engine.schedule_at(2.0, [&] { ran = true; });
  engine.run_until(2.0);
  EXPECT_TRUE(ran);
}

TEST(Engine, NowAdvancesWithEvents) {
  Engine engine;
  double seen = -1.0;
  engine.schedule_at(4.5, [&] { seen = engine.now(); });
  engine.run_until(10.0);
  EXPECT_DOUBLE_EQ(seen, 4.5);
  EXPECT_DOUBLE_EQ(engine.now(), 10.0);  // clamped to horizon afterwards
}

TEST(Engine, EventsCanScheduleEvents) {
  Engine engine;
  int chain = 0;
  std::function<void()> step = [&] {
    ++chain;
    if (chain < 5) engine.schedule_in(1.0, step);
  };
  engine.schedule_at(0.0, step);
  engine.run_until(100.0);
  EXPECT_EQ(chain, 5);
}

TEST(Engine, ScheduleInUsesCurrentTime) {
  Engine engine;
  double when = -1.0;
  engine.schedule_at(3.0, [&] {
    engine.schedule_in(2.0, [&] { when = engine.now(); });
  });
  engine.run_until(10.0);
  EXPECT_DOUBLE_EQ(when, 5.0);
}

TEST(Engine, RejectsPastScheduling) {
  Engine engine;
  engine.schedule_at(5.0, [] {});
  engine.run_until(6.0);
  EXPECT_DEATH(engine.schedule_at(1.0, [] {}), "past");
}

TEST(Engine, ChainBeyondHorizonIsCut) {
  Engine engine;
  int count = 0;
  std::function<void()> step = [&] {
    ++count;
    engine.schedule_in(1.0, step);
  };
  engine.schedule_at(0.0, step);
  engine.run_until(3.5);
  EXPECT_EQ(count, 4);  // t = 0, 1, 2, 3
}

// Held events (kept by the caller, fired or cancelled by it) draw their
// sequence numbers from the calendar's counter and count in pending(), its
// high-water mark and executed() exactly as scheduled events do.
TEST(Engine, HeldEventsShareSequenceNumbersAndCounters) {
  Engine engine;
  engine.schedule_at(2.0, [] {});
  const std::uint64_t held = engine.hold();
  engine.schedule_at(2.0, [] {});
  EXPECT_EQ(engine.next_seq() + 1, held);  // the first scheduled event
  EXPECT_EQ(engine.pending(), 3u);
  EXPECT_EQ(engine.max_pending(), 3u);
  const std::uint64_t cancelled = engine.hold();
  EXPECT_EQ(cancelled, held + 2);
  EXPECT_EQ(engine.max_pending(), 4u);

  engine.cancel_held();
  EXPECT_EQ(engine.pending(), 3u);
  EXPECT_EQ(engine.executed(), 1u);
  EXPECT_DOUBLE_EQ(engine.now(), 0.0);  // cancelling does not move the clock

  EXPECT_TRUE(engine.run_one(10.0));
  engine.fire_held(2.0);
  EXPECT_DOUBLE_EQ(engine.now(), 2.0);
  EXPECT_EQ(engine.run_until(10.0), 1u);
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_EQ(engine.executed(), 4u);
  EXPECT_EQ(engine.max_pending(), 4u);
}

}  // namespace
}  // namespace tapo::sim
