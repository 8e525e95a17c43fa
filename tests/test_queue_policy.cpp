// Queue-policy backends: cross-backend pop-order equivalence, FIFO
// tie-breaks, spill/ladder internals of the calendar queue, and the
// DGSCHED_QUEUE selection knob. The full-simulation equivalence matrix lives
// in test_kernel_equivalence.cpp; these tests hit the queues directly.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <queue>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

#include "des/queue_policy.hpp"
#include "des/simulator.hpp"

namespace dg::des {
namespace {

QueueEntry entry_at(double time, std::uint64_t sequence) {
  return QueueEntry::make(time, sequence, static_cast<std::uint32_t>(sequence & QueueEntry::kMaxSlot));
}

/// Drains `queue` and returns the popped (time, sequence) order.
template <EventQueuePolicy Q>
std::vector<std::pair<double, std::uint64_t>> drain(Q& queue) {
  std::vector<std::pair<double, std::uint64_t>> popped;
  while (!queue.empty()) {
    const QueueEntry& top = queue.top();
    popped.emplace_back(top.time(), top.sequence());
    queue.pop();
  }
  return popped;
}

template <typename Q>
class QueueBackendTest : public ::testing::Test {};
using Backends = ::testing::Types<FourAryHeapQueue, CalendarQueue>;
TYPED_TEST_SUITE(QueueBackendTest, Backends);

TYPED_TEST(QueueBackendTest, PopsInTimeOrder) {
  TypeParam queue;
  std::uint64_t seq = 0;
  for (double t : {30.0, 10.0, 20.0, 5.0, 25.0}) queue.push(entry_at(t, seq++));
  const auto popped = drain(queue);
  ASSERT_EQ(popped.size(), 5u);
  for (std::size_t i = 1; i < popped.size(); ++i) {
    EXPECT_LE(popped[i - 1].first, popped[i].first);
  }
  EXPECT_EQ(popped.front().first, 5.0);
  EXPECT_EQ(popped.back().first, 30.0);
}

TYPED_TEST(QueueBackendTest, EqualTimesPopInSchedulingOrder) {
  TypeParam queue;
  for (std::uint64_t s = 0; s < 100; ++s) queue.push(entry_at(42.0, s));
  const auto popped = drain(queue);
  ASSERT_EQ(popped.size(), 100u);
  for (std::uint64_t s = 0; s < 100; ++s) EXPECT_EQ(popped[s].second, s);
}

TYPED_TEST(QueueBackendTest, SizeCountsAllEntriesAndClearRetainsNothing) {
  TypeParam queue;
  for (std::uint64_t s = 0; s < 10; ++s) queue.push(entry_at(double(s), s));
  EXPECT_EQ(queue.size(), 10u);
  queue.pop();
  EXPECT_EQ(queue.size(), 9u);
  queue.clear();
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);
  // Reusable after clear().
  queue.push(entry_at(1.0, 100));
  EXPECT_EQ(queue.top().sequence(), 100u);
}

/// Interleaved pushes and pops through both backends with the same input
/// must pop the exact same (time, sequence) order — the bitwise-determinism
/// contract checked at the data-structure level. The hold pattern (pop one,
/// push one near the popped time) is the kernel's steady state and walks the
/// calendar queue through spill, ladder build, rung advance, and rebuild.
TEST(QueueBackendEquivalence, RandomizedHoldPatternPopsIdentically) {
  FourAryHeapQueue heap;
  CalendarQueue calendar;
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;  // splitmix-style mixer
  auto next_u64 = [&state] {
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };

  std::uint64_t seq = 0;
  double now = 0.0;
  auto push_both = [&](double time) {
    const QueueEntry entry = entry_at(time, seq++);
    heap.push(entry);
    calendar.push(entry);
  };
  auto pop_both = [&] {
    ASSERT_FALSE(heap.empty());
    ASSERT_FALSE(calendar.empty());
    const QueueEntry& a = heap.top();
    const QueueEntry& b = calendar.top();
    ASSERT_EQ(a.time(), b.time());
    ASSERT_EQ(a.sequence(), b.sequence());
    now = a.time();
    heap.pop();
    calendar.pop();
  };

  // Fill deep enough to force a near-spill and several ladder generations:
  // mixed near-future and far-future times, including exact duplicates.
  for (int i = 0; i < 6000; ++i) {
    const double offset = static_cast<double>(next_u64() % 100000) / 10.0;
    push_both(now + offset);
  }
  // Steady-state hold: pop one, usually push a successor near the popped
  // time, occasionally a far outlier, occasionally nothing (drain).
  for (int i = 0; i < 30000; ++i) {
    if (heap.empty()) break;
    pop_both();
    const std::uint64_t roll = next_u64() % 10;
    if (roll < 7) {
      push_both(now + static_cast<double>(next_u64() % 1000) / 10.0);
    } else if (roll == 7) {
      push_both(now + 1e6 + static_cast<double>(next_u64() % 100000));
    }
  }
  // Drain the rest in lockstep.
  while (!heap.empty()) pop_both();
  EXPECT_TRUE(calendar.empty());
}

TEST(QueueBackendEquivalence, AllEqualTimesThroughSpillAndLadder) {
  // Span-zero ladder: thousands of entries at one timestamp exercise the
  // single-bucket ladder path and the boundary-tie routing.
  FourAryHeapQueue heap;
  CalendarQueue calendar;
  for (std::uint64_t s = 0; s < 5000; ++s) {
    const QueueEntry entry = entry_at(7.0, s);
    heap.push(entry);
    calendar.push(entry);
  }
  const auto want = drain(heap);
  const auto got = drain(calendar);
  EXPECT_EQ(got, want);
}

/// Both backends against std::priority_queue on (time, sequence) with a
/// simulator-shaped push/pop mix: many exact time ties, pushes at 0.0 and
/// -0.0 while the clock is at zero (they compare equal, so sequence decides),
/// and pushes never earlier than the last pop.
TEST(QueueBackendEquivalence, MatchesPriorityQueueReference) {
  using Ref = std::pair<double, std::uint64_t>;
  std::priority_queue<Ref, std::vector<Ref>, std::greater<>> reference;
  FourAryHeapQueue heap;
  CalendarQueue calendar;
  std::mt19937_64 rng(8675309);
  std::uint64_t seq = 0;
  double now = 0.0;
  auto push_all = [&](double time) {
    const QueueEntry entry = entry_at(time, seq);
    heap.push(entry);
    calendar.push(entry);
    reference.emplace(time, seq);
    ++seq;
  };
  auto pop_all = [&] {
    ASSERT_FALSE(reference.empty());
    const Ref want = reference.top();
    reference.pop();
    ASSERT_EQ(heap.top().sequence(), want.second);
    ASSERT_EQ(calendar.top().sequence(), want.second);
    ASSERT_EQ(heap.top().time(), want.first);
    EXPECT_FALSE(std::signbit(heap.top().time()));  // -0.0 is keyed as +0.0
    now = want.first;
    heap.pop();
    calendar.pop();
    ASSERT_EQ(heap.size(), reference.size());
    ASSERT_EQ(calendar.size(), reference.size());
  };
  for (int i = 0; i < 300; ++i) push_all(rng() % 2 == 0 ? 0.0 : -0.0);
  for (int i = 0; i < 300; ++i) push_all(static_cast<double>(rng() % 5));
  for (int i = 0; i < 40000; ++i) {
    const std::uint64_t roll = rng() % 16;
    if (roll < 7 && !reference.empty()) {
      pop_all();
    } else if (roll < 11) {
      push_all(now);  // ties with the front
    } else if (roll < 15) {
      push_all(now + static_cast<double>(rng() % 8));  // coarse grid: more ties
    } else {
      push_all(now + 1e5 + static_cast<double>(rng() % 1000) / 4.0);
    }
  }
  while (!reference.empty()) pop_all();
  EXPECT_TRUE(heap.empty());
  EXPECT_TRUE(calendar.empty());
}

TEST(QueueEntry, PacksTimeSequenceAndSlot) {
  const QueueEntry entry = QueueEntry::make(12.5, QueueEntry::kMaxSequence, QueueEntry::kMaxSlot);
  EXPECT_EQ(entry.time(), 12.5);
  EXPECT_EQ(entry.sequence(), QueueEntry::kMaxSequence);
  EXPECT_EQ(entry.slot(), QueueEntry::kMaxSlot);
  // Time dominates, then sequence; the slot never decides an order.
  EXPECT_TRUE(queue_earlier(QueueEntry::make(1.0, 9, 0), QueueEntry::make(2.0, 1, 0)));
  EXPECT_TRUE(queue_earlier(QueueEntry::make(1.0, 1, 7), QueueEntry::make(1.0, 2, 0)));
  EXPECT_FALSE(queue_earlier(QueueEntry::make(-0.0, 2, 0), QueueEntry::make(0.0, 1, 0)));
  EXPECT_TRUE(queue_earlier(QueueEntry::make(-0.0, 1, 0), QueueEntry::make(0.0, 2, 0)));
}

TEST(QueueBackendName, RoundTrips) {
  EXPECT_EQ(to_string(QueueBackend::kHeap4), "heap4");
  EXPECT_EQ(to_string(QueueBackend::kCalendar), "calendar");
  EXPECT_EQ(parse_queue_backend("heap4"), QueueBackend::kHeap4);
  EXPECT_EQ(parse_queue_backend("calendar"), QueueBackend::kCalendar);
  EXPECT_FALSE(parse_queue_backend("ladder").has_value());
  EXPECT_FALSE(parse_queue_backend("").has_value());
}

TEST(QueueBackendDefault, EnvOverridesAndRejectsGarbage) {
  ::setenv("DGSCHED_QUEUE", "calendar", 1);
  EXPECT_EQ(default_queue_backend(), QueueBackend::kCalendar);
  EXPECT_EQ(Simulator().queue_backend(), QueueBackend::kCalendar);
  ::setenv("DGSCHED_QUEUE", "heap4", 1);
  EXPECT_EQ(default_queue_backend(), QueueBackend::kHeap4);
  ::setenv("DGSCHED_QUEUE", "bogus", 1);
  try {
    (void)default_queue_backend();
    ADD_FAILURE() << "DGSCHED_QUEUE=bogus was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("DGSCHED_QUEUE"), std::string::npos) << error.what();
    EXPECT_NE(std::string(error.what()).find("bogus"), std::string::npos) << error.what();
  }
  ::unsetenv("DGSCHED_QUEUE");
}

TEST(SimulatorQueueBackend, SwitchAfterResetRunsIdentically) {
  // One simulator, both backends across a reset() boundary: the event
  // sequence and kernel counters must match a fresh heap4 run exactly.
  auto drive = [](Simulator& sim, std::vector<double>& fired) {
    for (int i = 0; i < 500; ++i) {
      const double t = static_cast<double>((i * 7919) % 997);
      sim.schedule_at(t, [&fired, t] { fired.push_back(t); });
    }
    sim.run();
  };

  Simulator sim(QueueBackend::kHeap4);
  std::vector<double> heap_fired;
  drive(sim, heap_fired);
  const std::uint64_t heap_scheduled = sim.scheduled_events();

  sim.reset();
  sim.set_queue_backend(QueueBackend::kCalendar);
  EXPECT_EQ(sim.queue_backend(), QueueBackend::kCalendar);
  std::vector<double> calendar_fired;
  drive(sim, calendar_fired);

  EXPECT_EQ(calendar_fired, heap_fired);
  EXPECT_EQ(sim.scheduled_events(), heap_scheduled);
}

TEST(SimulatorQueueBackend, CancellationLeavesStaleEntriesOnBothBackends) {
  for (const QueueBackend backend : {QueueBackend::kHeap4, QueueBackend::kCalendar}) {
    Simulator sim(backend);
    int fired = 0;
    std::vector<EventHandle> handles;
    for (int i = 0; i < 200; ++i) {
      handles.push_back(sim.schedule_at(static_cast<double>(i), [&fired] { ++fired; }));
    }
    for (std::size_t i = 0; i < handles.size(); i += 2) EXPECT_TRUE(handles[i].cancel());
    sim.run();
    EXPECT_EQ(fired, 100) << to_string(backend);
    EXPECT_EQ(sim.executed_events(), 100u) << to_string(backend);
    EXPECT_TRUE(sim.empty());
  }
}

}  // namespace
}  // namespace dg::des
