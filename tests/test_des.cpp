// DES kernel: event ordering, cancellation, determinism, clock semantics.
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "des/simulator.hpp"

namespace dg::des {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0.0);
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(sim.executed_events(), 0u);
}

TEST(Simulator, ExecutesEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30.0, [&] { order.push_back(3); });
  sim.schedule_at(10.0, [&] { order.push_back(1); });
  sim.schedule_at(20.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30.0);
}

TEST(Simulator, EqualTimesRunInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ClockAdvancesToEventTime) {
  Simulator sim;
  double seen = -1.0;
  sim.schedule_after(42.5, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, 42.5);
}

TEST(Simulator, EventsCanScheduleFurtherEvents) {
  Simulator sim;
  std::vector<double> times;
  std::function<void()> chain = [&] {
    times.push_back(sim.now());
    if (times.size() < 5) sim.schedule_after(10.0, [&chain] { chain(); });
  };
  sim.schedule_after(10.0, [&chain] { chain(); });
  sim.run();
  EXPECT_EQ(times, (std::vector<double>{10, 20, 30, 40, 50}));
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  EventHandle handle = sim.schedule_at(1.0, [&] { ran = true; });
  EXPECT_TRUE(handle.pending());
  EXPECT_TRUE(handle.cancel());
  EXPECT_FALSE(handle.pending());
  sim.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.executed_events(), 0u);
}

TEST(Simulator, CancelTwiceReturnsFalse) {
  Simulator sim;
  EventHandle handle = sim.schedule_at(1.0, [] {});
  EXPECT_TRUE(handle.cancel());
  EXPECT_FALSE(handle.cancel());
}

TEST(Simulator, CancelAfterExecutionReturnsFalse) {
  Simulator sim;
  EventHandle handle = sim.schedule_at(1.0, [] {});
  sim.run();
  EXPECT_FALSE(handle.pending());
  EXPECT_FALSE(handle.cancel());
}

TEST(Simulator, HandleNotPendingDuringOwnExecution) {
  Simulator sim;
  EventHandle handle;
  bool pending_inside = true;
  handle = sim.schedule_at(1.0, [&] { pending_inside = handle.pending(); });
  sim.run();
  EXPECT_FALSE(pending_inside);
}

TEST(Simulator, CancelledEventBetweenOthersPreservesOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  EventHandle middle = sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  middle.cancel();
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(Simulator, StopHaltsExecution) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule_at(i, [&] {
      ++count;
      if (count == 3) sim.stop();
    });
  }
  sim.run();
  EXPECT_EQ(count, 3);
  EXPECT_TRUE(sim.stopped());
  sim.clear_stop();
  sim.run();
  EXPECT_EQ(count, 10);
}

TEST(Simulator, RunUntilExecutesOnlyUpToHorizon) {
  Simulator sim;
  std::vector<double> times;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    sim.schedule_at(t, [&times, &sim] { times.push_back(sim.now()); });
  }
  sim.run_until(2.5);
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(sim.now(), 2.5);
  sim.run_until(10.0);
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0, 3.0, 4.0}));
  EXPECT_EQ(sim.now(), 10.0);
}

TEST(Simulator, RunUntilIncludesEventsExactlyAtHorizon) {
  Simulator sim;
  bool ran = false;
  sim.schedule_at(5.0, [&] { ran = true; });
  sim.run_until(5.0);
  EXPECT_TRUE(ran);
}

TEST(Simulator, RunUntilAdvancesClockOnEmptyQueue) {
  Simulator sim;
  sim.run_until(123.0);
  EXPECT_EQ(sim.now(), 123.0);
}

TEST(Simulator, PendingEventCountTracksQueue) {
  Simulator sim;
  EventHandle a = sim.schedule_at(1.0, [] {});
  sim.schedule_at(2.0, [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  a.cancel();
  sim.run();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.executed_events(), 1u);
}

TEST(Simulator, ScheduleAtCurrentTimeRunsAfterCurrentEvent) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1.0, [&] {
    order.push_back(1);
    sim.schedule_at(sim.now(), [&] { order.push_back(2); });
  });
  sim.schedule_at(1.0, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(Simulator, ZeroDelayScheduleAfter) {
  Simulator sim;
  int value = 0;
  sim.schedule_after(0.0, [&] { value = 7; });
  sim.run();
  EXPECT_EQ(value, 7);
  EXPECT_EQ(sim.now(), 0.0);
}

TEST(Simulator, SchedulesAStoredAction) {
  Simulator sim;
  int runs = 0;
  const Action action = [&runs] { ++runs; };
  sim.schedule_at(1.0, action);
  sim.schedule_after(2.0, action);
  sim.run();
  EXPECT_EQ(runs, 2);
}

TEST(EventHandle, DefaultConstructedIsInert) {
  EventHandle handle;
  EXPECT_FALSE(handle.pending());
  EXPECT_FALSE(handle.cancel());
  EXPECT_EQ(handle.time(), 0.0);
}

TEST(EventHandle, HandleOutlivesSimulator) {
  EventHandle handle;
  {
    Simulator sim;
    handle = sim.schedule_at(5.0, [] {});
    EXPECT_TRUE(handle.pending());
  }
  // The record died with the simulator; the weak handle reports not-pending.
  EXPECT_FALSE(handle.pending());
  EXPECT_FALSE(handle.cancel());
}

TEST(EventHandle, CopiesShareTheEvent) {
  Simulator sim;
  bool ran = false;
  EventHandle original = sim.schedule_at(3.0, [&ran] { ran = true; });
  EventHandle copy(original);
  EventHandle assigned;
  assigned = original;
  EXPECT_TRUE(copy.pending());
  EXPECT_TRUE(assigned.pending());
  EXPECT_EQ(assigned.time(), 3.0);
  // Cancelling through one copy is seen by all of them, and only once.
  EXPECT_TRUE(copy.cancel());
  EXPECT_FALSE(original.pending());
  EXPECT_FALSE(assigned.pending());
  EXPECT_FALSE(original.cancel());
  EXPECT_FALSE(assigned.cancel());
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(EventHandle, MoveLeavesTheSourceInert) {
  Simulator sim;
  EventHandle source = sim.schedule_at(2.0, [] {});
  EventHandle moved(std::move(source));
  EXPECT_TRUE(moved.pending());
  EXPECT_FALSE(source.pending());  // NOLINT(bugprone-use-after-move): inert by contract
  EXPECT_FALSE(source.cancel());
  EventHandle target = sim.schedule_at(4.0, [] {});
  target = std::move(moved);  // drops target's reference to the 4.0 event
  EXPECT_FALSE(moved.pending());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(target.time(), 2.0);
  EXPECT_TRUE(target.cancel());
  EXPECT_EQ(sim.pending_events(), 1u);  // the 4.0 event is still scheduled
}

TEST(EventHandle, SelfAssignmentKeepsTheHandle) {
  Simulator sim;
  EventHandle handle = sim.schedule_at(1.0, [] {});
  EventHandle& alias = handle;
  handle = alias;
  EXPECT_TRUE(handle.pending());
  handle = std::move(alias);
  EXPECT_TRUE(handle.pending());
  EXPECT_TRUE(handle.cancel());
  EventHandle inert;
  EventHandle& inert_alias = inert;
  inert = inert_alias;
  inert = std::move(inert_alias);
  EXPECT_FALSE(inert.pending());
}

TEST(EventHandle, CopiesOutliveTheSimulator) {
  EventHandle first;
  EventHandle second;
  std::vector<EventHandle> copies;
  {
    Simulator sim;
    first = sim.schedule_at(5.0, [] {});
    second = first;
    copies.assign(3, first);
    copies.push_back(sim.schedule_at(6.0, [] {}));
  }
  // Every copy reads the dead simulator as gone, whichever copy goes first.
  for (EventHandle& copy : copies) {
    EXPECT_FALSE(copy.pending());
    EXPECT_FALSE(copy.cancel());
    EXPECT_EQ(copy.time(), 0.0);
  }
  copies.erase(copies.begin());
  first = EventHandle{};
  EventHandle third(second);
  EXPECT_FALSE(third.pending());
  // A handle of a live simulator can replace one of a dead simulator.
  Simulator other;
  second = other.schedule_at(1.0, [] {});
  EXPECT_TRUE(second.pending());
  copies.clear();
  EXPECT_FALSE(third.cancel());
}

TEST(SimulatorDeath, SchedulingInThePastAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Simulator sim;
        sim.schedule_at(10.0, [] {});
        sim.run();
        sim.schedule_at(5.0, [] {});
      },
      "past");
}

TEST(SimulatorDeath, NegativeDelayAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Simulator sim;
        sim.schedule_after(-1.0, [] {});
      },
      "past");
}

TEST(SimulatorDeath, NonFiniteTimeAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Simulator sim;
        sim.schedule_at(std::numeric_limits<double>::infinity(), [] {});
      },
      "finite");
}

TEST(Simulator, RescheduleAfterStopAndClear) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(1.0, [&] {
    ++count;
    sim.stop();
  });
  sim.run();
  EXPECT_EQ(count, 1);
  sim.clear_stop();
  sim.schedule_after(1.0, [&] { ++count; });
  sim.run();
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.now(), 2.0);
}

TEST(Simulator, ManyEventsStressOrdering) {
  Simulator sim;
  double last = -1.0;
  bool monotone = true;
  for (int i = 0; i < 10000; ++i) {
    const double t = static_cast<double>((i * 7919) % 1000);
    sim.schedule_at(t, [&, t] {
      if (t < last) monotone = false;
      last = t;
    });
  }
  sim.run();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(sim.executed_events(), 10000u);
}

}  // namespace
}  // namespace dg::des
