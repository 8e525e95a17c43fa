// Scheduler runtime state: TaskState accounting and BotState dispatch
// structures (queues, cursors, replica buckets).
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <deque>
#include <numeric>
#include <random>
#include <set>
#include <tuple>
#include <vector>

#include "sched/bot_state.hpp"
#include "sched/task_state.hpp"
#include "workload/bot.hpp"

namespace dg::sched {
namespace {

workload::BotSpec make_spec(std::vector<double> works, double arrival = 0.0,
                            workload::BotId id = 0) {
  workload::BotSpec spec;
  spec.id = id;
  spec.arrival_time = arrival;
  for (double w : works) spec.tasks.push_back(workload::TaskSpec{w});
  return spec;
}

// --- TaskState ---

TEST(TaskState, InitialState) {
  BotState bot(make_spec({100.0}));
  TaskState& task = bot.task(0);
  EXPECT_EQ(task.running_replicas(), 0);
  EXPECT_FALSE(task.ever_started());
  EXPECT_FALSE(task.completed());
  EXPECT_FALSE(task.needs_resubmission());
  EXPECT_EQ(task.checkpointed_work(), 0.0);
  EXPECT_DOUBLE_EQ(task.work(), 100.0);
}

TEST(TaskState, ReplicaCounting) {
  BotState bot(make_spec({100.0}));
  TaskState& task = bot.task(0);
  task.on_replica_started(10.0);
  task.on_replica_started(20.0);
  EXPECT_EQ(task.running_replicas(), 2);
  task.on_replica_stopped(30.0);
  EXPECT_EQ(task.running_replicas(), 1);
  EXPECT_TRUE(task.ever_started());
}

TEST(TaskState, IdleAccumulationAcrossPeriods) {
  BotState bot(make_spec({100.0}, /*arrival=*/5.0));
  TaskState& task = bot.task(0);
  // Idle from arrival (5) to first start (15): 10s.
  EXPECT_DOUBLE_EQ(task.accumulated_idle(15.0), 10.0);
  task.on_replica_started(15.0);
  EXPECT_DOUBLE_EQ(task.accumulated_idle(100.0), 10.0);  // frozen while running
  task.on_replica_stopped(40.0);                          // idle again at 40
  EXPECT_DOUBLE_EQ(task.accumulated_idle(50.0), 10.0 + 10.0);
  task.on_replica_started(60.0);
  EXPECT_DOUBLE_EQ(task.frozen_idle(), 30.0);
}

TEST(TaskState, IdleStopsAtCompletion) {
  BotState bot(make_spec({100.0}));
  TaskState& task = bot.task(0);
  task.on_replica_started(10.0);
  task.mark_completed(50.0);
  task.on_replica_stopped(50.0);
  EXPECT_DOUBLE_EQ(task.accumulated_idle(1000.0), 10.0);
  EXPECT_TRUE(task.completed());
  EXPECT_DOUBLE_EQ(task.completion_time(), 50.0);
}

TEST(TaskState, OverlappingReplicasDoNotDoubleCountIdle) {
  BotState bot(make_spec({100.0}));
  TaskState& task = bot.task(0);
  task.on_replica_started(10.0);
  task.on_replica_started(20.0);
  task.on_replica_stopped(30.0);  // one still running: not idle
  EXPECT_DOUBLE_EQ(task.accumulated_idle(40.0), 10.0);
  task.on_replica_stopped(50.0);  // now idle
  EXPECT_DOUBLE_EQ(task.accumulated_idle(60.0), 20.0);
}

TEST(TaskState, CheckpointMonotone) {
  BotState bot(make_spec({100.0}));
  TaskState& task = bot.task(0);
  task.commit_checkpoint(30.0);
  EXPECT_DOUBLE_EQ(task.checkpointed_work(), 30.0);
  task.commit_checkpoint(20.0);  // regression ignored
  EXPECT_DOUBLE_EQ(task.checkpointed_work(), 30.0);
  task.commit_checkpoint(80.0);
  EXPECT_DOUBLE_EQ(task.checkpointed_work(), 80.0);
}

TEST(TaskState, ResubmissionFlagClearsOnStart) {
  BotState bot(make_spec({100.0}));
  TaskState& task = bot.task(0);
  task.set_needs_resubmission(true);
  EXPECT_TRUE(task.needs_resubmission());
  task.on_replica_started(1.0);
  EXPECT_FALSE(task.needs_resubmission());
}

// --- BotState ---

TEST(BotState, ConstructionCopiesSpec) {
  BotState bot(make_spec({10.0, 20.0, 30.0}, 42.0, 9));
  EXPECT_EQ(bot.id(), 9u);
  EXPECT_DOUBLE_EQ(bot.arrival_time(), 42.0);
  EXPECT_EQ(bot.num_tasks(), 3u);
  EXPECT_DOUBLE_EQ(bot.total_work(), 60.0);
  EXPECT_FALSE(bot.completed());
  EXPECT_EQ(bot.total_running(), 0);
}

TEST(BotState, UnstartedCursorWalksArrivalOrder) {
  BotState bot(make_spec({10.0, 20.0, 30.0}));
  EXPECT_EQ(bot.peek_unstarted()->index(), 0u);
  bot.task(0).on_replica_started(1.0);
  bot.after_replica_started(bot.task(0));
  EXPECT_EQ(bot.peek_unstarted()->index(), 1u);
}

TEST(BotState, DescendingWorkOrderServesLongestFirst) {
  BotState bot(make_spec({10.0, 99.0, 50.0}), TaskOrder::kDescendingWork);
  EXPECT_EQ(bot.peek_unstarted()->index(), 1u);  // work 99
  bot.task(1).on_replica_started(1.0);
  bot.after_replica_started(bot.task(1));
  EXPECT_EQ(bot.peek_unstarted()->index(), 2u);  // work 50
}

TEST(BotState, ResubmissionQueueIsFifoAndValidated) {
  BotState bot(make_spec({10.0, 20.0, 30.0}));
  bot.push_resubmission(bot.task(2));
  bot.push_resubmission(bot.task(1));
  EXPECT_EQ(bot.peek_resubmission()->index(), 2u);
  // Task 2 starts a replica: no longer a resubmission candidate.
  bot.task(2).on_replica_started(1.0);
  bot.after_replica_started(bot.task(2));
  EXPECT_EQ(bot.peek_resubmission()->index(), 1u);
}

TEST(BotState, HasPendingCoversAllPools) {
  BotState bot(make_spec({10.0}));
  EXPECT_TRUE(bot.has_pending());  // unstarted
  bot.task(0).on_replica_started(1.0);
  bot.after_replica_started(bot.task(0));
  EXPECT_FALSE(bot.has_pending());
  bot.task(0).on_replica_stopped(2.0);
  bot.after_replica_stopped(bot.task(0));
  bot.push_resubmission(bot.task(0));
  EXPECT_TRUE(bot.has_pending());
}

TEST(BotState, LeastReplicatedPrefersFewestReplicas) {
  BotState bot(make_spec({10.0, 20.0, 30.0}));
  for (std::size_t i = 0; i < 3; ++i) {
    bot.task(i).on_replica_started(1.0);
    bot.after_replica_started(bot.task(i));
  }
  // Task 1 gets a second replica.
  bot.task(1).on_replica_started(2.0);
  bot.after_replica_started(bot.task(1));
  TaskState* pick = bot.least_replicated_below(3);
  ASSERT_NE(pick, nullptr);
  EXPECT_EQ(pick->index(), 0u);  // fewest replicas, lowest index
}

TEST(BotState, LeastReplicatedHonorsThreshold) {
  BotState bot(make_spec({10.0}));
  bot.task(0).on_replica_started(1.0);
  bot.after_replica_started(bot.task(0));
  EXPECT_EQ(bot.least_replicated_below(1), nullptr);   // at threshold 1
  EXPECT_NE(bot.least_replicated_below(2), nullptr);   // room under 2
  bot.task(0).on_replica_started(2.0);
  bot.after_replica_started(bot.task(0));
  EXPECT_EQ(bot.least_replicated_below(2), nullptr);
}

TEST(BotState, CompletionRemovesFromBucketsBeforeSiblingStops) {
  BotState bot(make_spec({10.0, 20.0}));
  TaskState& task = bot.task(0);
  task.on_replica_started(1.0);
  bot.after_replica_started(task);
  task.on_replica_started(2.0);
  bot.after_replica_started(task);
  // Completion order mirrors the engine: mark, notify bag, then stops.
  task.mark_completed(5.0);
  bot.on_task_completed(task);
  EXPECT_EQ(bot.completed_tasks(), 1u);
  task.on_replica_stopped(5.0);
  bot.after_replica_stopped(task);
  task.on_replica_stopped(5.0);
  bot.after_replica_stopped(task);
  EXPECT_EQ(bot.total_running(), 0);
  EXPECT_EQ(bot.least_replicated_below(10), nullptr);
  EXPECT_FALSE(bot.completed());  // task 1 still open
}

TEST(BotState, CompletedWhenAllTasksDone) {
  BotState bot(make_spec({10.0, 20.0}));
  for (std::size_t i = 0; i < 2; ++i) {
    TaskState& task = bot.task(i);
    task.on_replica_started(1.0);
    bot.after_replica_started(task);
    task.mark_completed(2.0 + static_cast<double>(i));
    bot.on_task_completed(task);
    task.on_replica_stopped(2.0 + static_cast<double>(i));
    bot.after_replica_stopped(task);
  }
  EXPECT_TRUE(bot.completed());
}

TEST(BotState, TurnaroundDecomposition) {
  BotState bot(make_spec({10.0}, /*arrival=*/100.0));
  bot.note_dispatch(150.0);
  bot.note_dispatch(200.0);  // only the first dispatch counts
  bot.note_completion(400.0);
  EXPECT_DOUBLE_EQ(bot.waiting_time(), 50.0);
  EXPECT_DOUBLE_EQ(bot.makespan(), 250.0);
  EXPECT_DOUBLE_EQ(bot.turnaround(), 300.0);
  EXPECT_DOUBLE_EQ(bot.turnaround(), bot.waiting_time() + bot.makespan());
}

TEST(BotState, RequeueServedAfterValidation) {
  BotState bot(make_spec({10.0, 20.0}));
  bot.push_requeue(bot.task(1));
  EXPECT_EQ(bot.peek_requeued()->index(), 1u);
  bot.task(1).on_replica_started(1.0);
  bot.after_replica_started(bot.task(1));
  EXPECT_EQ(bot.peek_requeued(), nullptr);
}

/// Runs every task of `bot` through one replica, in the engine's call order:
/// start at `start`, complete at `end`, then stop the winner (unless
/// `stop_winners` is false).
void run_to_completion(BotState& bot, double start, double end, bool stop_winners = true) {
  for (std::size_t i = 0; i < bot.num_tasks(); ++i) {
    TaskState& task = bot.task(i);
    task.on_replica_started(start);
    bot.after_replica_started(task);
    task.mark_completed(end);
    bot.on_task_completed(task);
    if (!stop_winners) continue;
    task.on_replica_stopped(end);
    bot.after_replica_stopped(task);
  }
}

TEST(BotState, ReleasedBagKeepsItsScalars) {
  BotState bot(make_spec({10.0, 20.0}, /*arrival=*/5.0, /*id=*/7));
  bot.note_dispatch(6.0);
  run_to_completion(bot, 6.0, 9.0);
  bot.note_completion(9.0);
  bot.release_task_storage();
  EXPECT_EQ(bot.id(), 7u);
  EXPECT_EQ(bot.num_tasks(), 2u);
  EXPECT_EQ(bot.completed_tasks(), 2u);
  EXPECT_TRUE(bot.completed());
  EXPECT_DOUBLE_EQ(bot.total_work(), 30.0);
  EXPECT_DOUBLE_EQ(bot.turnaround(), 4.0);
  EXPECT_DOUBLE_EQ(bot.waiting_time(), 1.0);
  EXPECT_FALSE(bot.has_pending());
  EXPECT_FALSE(bot.has_stale_queue_entries());
}

TEST(BotStateDeath, ReleasedBagRejectsTaskAccess) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        BotState bot(make_spec({10.0}));
        run_to_completion(bot, 1.0, 2.0);
        bot.release_task_storage();
        (void)bot.task(0);
      },
      "bag storage released");
}

TEST(BotStateDeath, ReleaseWhileReplicasRunAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        BotState bot(make_spec({10.0}));
        run_to_completion(bot, 1.0, 2.0, /*stop_winners=*/false);
        bot.release_task_storage();  // the winning replica has not stopped
      },
      "before its last replica stopped");
}

/// A task the resubmission pools may hand out right now.
bool dispatchable(const TaskState* task) {
  return task->needs_resubmission() && !task->completed() && task->running_replicas() == 0;
}

bool any_valid_entry(const std::deque<TaskState*>& pool) {
  return std::any_of(pool.begin(), pool.end(), dispatchable);
}

/// The peeks' lazy pop, applied to a mirror of a bag's pool.
TaskState* peek_mirror(std::deque<TaskState*>& pool) {
  while (!pool.empty() && !dispatchable(pool.front())) pool.pop_front();
  return pool.empty() ? nullptr : pool.front();
}

// Randomized model check of the O(1) pool predicates: random start /
// failure / completion / push / probe sequences (in the engine's call
// order) against the queue-scan definitions of has_pending() and
// has_stale_queue_entries(), evaluated on a mirror of the bag's pool that
// is pushed with it and popped by the peeks' own rule.
class PoolCountModel : public ::testing::TestWithParam<TaskOrder> {};

TEST_P(PoolCountModel, PredicatesMatchQueueScans) {
  const TaskOrder order = GetParam();
  std::mt19937_64 rng(20080416);
  int stale_steps = 0;
  int pool_only_steps = 0;
  for (int round = 0; round < 80; ++round) {
    std::vector<double> works;
    const std::size_t n = 1 + rng() % 12;
    for (std::size_t i = 0; i < n; ++i) works.push_back(10.0 * static_cast<double>(1 + rng() % 3));
    BotState bot(make_spec(works), order);
    // A scheduler feeds one pool: priority resubmission (WQR-FT) or the
    // plain re-queue (WQR / WorkQueue).
    const bool priority = round % 2 == 0;
    const auto push = [&](TaskState& task) {
      if (priority) {
        bot.push_resubmission(task);
      } else {
        bot.push_requeue(task);
      }
    };
    std::deque<TaskState*> pool;
    double now = 0.0;
    for (int step = 0; step < 300 && !bot.completed(); ++step) {
      now += 1.0;
      TaskState& task = bot.task(rng() % n);
      const int count = task.running_replicas();
      const unsigned dice = static_cast<unsigned>(rng() % 100);
      if (dice < 15) {  // a probe pops the pool's stale front entries
        TaskState* expected = peek_mirror(pool);
        ASSERT_EQ(priority ? bot.peek_resubmission() : bot.peek_requeued(), expected)
            << "round " << round << " step " << step;
      } else if (task.completed()) {
        continue;
      } else if (dice < 55) {  // start a replica
        task.on_replica_started(now);
        bot.after_replica_started(task);
      } else if (dice < 85) {
        if (count > 0) {  // one replica fails
          task.on_replica_stopped(now);
          bot.after_replica_stopped(task);
        }
        if (task.running_replicas() == 0) {  // the idle task is queued
          push(task);
          pool.push_back(&task);
        }
      } else if (count > 0) {  // a replica wins: completion, then every replica stops
        task.mark_completed(now);
        bot.on_task_completed(task);
        for (int r = 0; r < count; ++r) {
          task.on_replica_stopped(now);
          bot.after_replica_stopped(task);
        }
      }
      const bool unstarted = bot.peek_unstarted() != nullptr;
      const bool pending = any_valid_entry(pool) || unstarted;
      const bool stale = !pool.empty() && !any_valid_entry(pool);
      ASSERT_EQ(bot.has_pending(), pending) << "round " << round << " step " << step;
      ASSERT_EQ(bot.has_stale_queue_entries(), stale) << "round " << round << " step " << step;
      if (stale) ++stale_steps;
      if (pending && !unstarted) ++pool_only_steps;
    }
  }
  // Both predicates were exercised away from their trivial answers.
  EXPECT_GT(stale_steps, 100);
  EXPECT_GT(pool_only_steps, 100);
}

INSTANTIATE_TEST_SUITE_P(TaskOrders, PoolCountModel,
                         ::testing::Values(TaskOrder::kArrival, TaskOrder::kDescendingWork),
                         [](const ::testing::TestParamInfo<TaskOrder>& param) {
                           return param.param == TaskOrder::kArrival ? "Arrival"
                                                                     : "DescendingWork";
                         });

// Randomized model check of the replica buckets: random start / failure /
// completion sequences (in the engine's call order) against a std::set
// reference ordered by (count, bag order). least_replicated_below(t) is the
// reference's first entry when its count is below t.
class BucketModel : public ::testing::TestWithParam<TaskOrder> {};

TEST_P(BucketModel, LeastReplicatedMatchesOrderedSetReference) {
  const TaskOrder order = GetParam();
  // (count, work key, index): the key is -work under kDescendingWork, so
  // tied works fall back to index order as in the bag's own ordering.
  using Key = std::tuple<int, double, workload::TaskIndex>;
  const auto key_of = [order](const TaskState& task, int count) {
    const double work = order == TaskOrder::kDescendingWork ? -task.work() : 0.0;
    return Key{count, work, task.index()};
  };
  std::mt19937_64 rng(20080414);
  int max_count = 0;
  for (int round = 0; round < 40; ++round) {
    // Few distinct works, so the work order has ties to break.
    std::vector<double> works;
    const std::size_t n = 3 + rng() % 10;
    for (std::size_t i = 0; i < n; ++i) works.push_back(10.0 * static_cast<double>(1 + rng() % 3));
    BotState bot(make_spec(works), order);
    std::set<Key> reference;
    double now = 0.0;
    for (int step = 0; step < 400 && !bot.completed(); ++step) {
      now += 1.0;
      TaskState& task = bot.task(rng() % n);
      if (task.completed()) continue;
      const int count = task.running_replicas();
      const unsigned dice = static_cast<unsigned>(rng() % 100);
      if (dice < 60 || count == 0) {  // start a replica
        if (count > 0) reference.erase(key_of(task, count));
        task.on_replica_started(now);
        bot.after_replica_started(task);
        reference.insert(key_of(task, count + 1));
        max_count = std::max(max_count, count + 1);
      } else if (dice < 88) {  // one replica fails
        reference.erase(key_of(task, count));
        task.on_replica_stopped(now);
        bot.after_replica_stopped(task);
        if (count > 1) reference.insert(key_of(task, count - 1));
      } else {  // a replica wins: completion, then every replica stops
        reference.erase(key_of(task, count));
        task.mark_completed(now);
        bot.on_task_completed(task);
        for (int r = 0; r < count; ++r) {
          task.on_replica_stopped(now);
          bot.after_replica_stopped(task);
        }
      }
      const int min_count = reference.empty() ? INT_MAX : std::get<0>(*reference.begin());
      ASSERT_EQ(bot.min_replicated_count(), min_count) << "round " << round << " step " << step;
      for (int threshold = 1; threshold <= max_count + 2; ++threshold) {
        const TaskState* expected = nullptr;
        if (min_count < threshold) expected = &bot.task(std::get<2>(*reference.begin()));
        ASSERT_EQ(bot.least_replicated_below(threshold), expected)
            << "round " << round << " step " << step << " threshold " << threshold;
      }
    }
  }
  // Counts went past 2, as FCFS-Excl's unbounded threshold allows.
  EXPECT_GT(max_count, 2);
}

INSTANTIATE_TEST_SUITE_P(TaskOrders, BucketModel,
                         ::testing::Values(TaskOrder::kArrival, TaskOrder::kDescendingWork),
                         [](const ::testing::TestParamInfo<TaskOrder>& param) {
                           return param.param == TaskOrder::kArrival ? "Arrival"
                                                                     : "DescendingWork";
                         });

/// The same model check on bags large enough that each replica count's
/// bitset spans several 64-bit words: the cached front word must follow
/// inserts below it and erases that empty it.
class MultiWordBucketModel : public ::testing::TestWithParam<TaskOrder> {};

TEST_P(MultiWordBucketModel, LeastReplicatedMatchesOrderedSetReference) {
  const TaskOrder order = GetParam();
  using Key = std::tuple<int, double, workload::TaskIndex>;
  const auto key_of = [order](const TaskState& task, int count) {
    const double work = order == TaskOrder::kDescendingWork ? -task.work() : 0.0;
    return Key{count, work, task.index()};
  };
  std::mt19937_64 rng(20081014);
  int max_count = 0;
  int starts_below_front = 0;
  for (int round = 0; round < 24; ++round) {
    std::vector<double> works;
    const std::size_t n = 65 + rng() % 236;  // 65..300 tasks: 2..5 words
    for (std::size_t i = 0; i < n; ++i) works.push_back(10.0 * static_cast<double>(1 + rng() % 4));
    BotState bot(make_spec(works), order);
    // Each task's position in the bag's order, and so its bit in a bucket.
    std::vector<std::size_t> by_order(n);
    std::iota(by_order.begin(), by_order.end(), std::size_t{0});
    if (order == TaskOrder::kDescendingWork) {
      std::stable_sort(by_order.begin(), by_order.end(),
                       [&works](std::size_t a, std::size_t b) { return works[a] > works[b]; });
    }
    std::vector<std::size_t> rank(n);
    for (std::size_t r = 0; r < n; ++r) rank[by_order[r]] = r;
    std::set<Key> reference;
    double now = 0.0;
    for (int step = 0; step < 3000 && !bot.completed(); ++step) {
      now += 1.0;
      // The first steps start replicas on the bag's last tasks only, so the
      // buckets fill from their top words before the uniform picks land
      // below them.
      const std::size_t pick = step < 40 ? n - 1 - rng() % 40 : rng() % n;
      TaskState& task = bot.task(pick);
      if (task.completed()) continue;
      const int count = task.running_replicas();
      const unsigned dice = static_cast<unsigned>(rng() % 100);
      if (dice < 62 || count == 0) {  // start a replica
        const auto front = reference.lower_bound(Key{count + 1, -1e300, 0});
        if (front != reference.end() && std::get<0>(*front) == count + 1 &&
            rank[pick] / 64 < rank[std::get<2>(*front)] / 64) {
          ++starts_below_front;
        }
        if (count > 0) reference.erase(key_of(task, count));
        task.on_replica_started(now);
        bot.after_replica_started(task);
        reference.insert(key_of(task, count + 1));
        max_count = std::max(max_count, count + 1);
      } else if (dice < 92) {  // one replica fails
        reference.erase(key_of(task, count));
        task.on_replica_stopped(now);
        bot.after_replica_stopped(task);
        if (count > 1) reference.insert(key_of(task, count - 1));
      } else {  // a replica wins: completion, then every replica stops
        reference.erase(key_of(task, count));
        task.mark_completed(now);
        bot.on_task_completed(task);
        for (int r = 0; r < count; ++r) {
          task.on_replica_stopped(now);
          bot.after_replica_stopped(task);
        }
      }
      const int min_count = reference.empty() ? INT_MAX : std::get<0>(*reference.begin());
      ASSERT_EQ(bot.min_replicated_count(), min_count) << "round " << round << " step " << step;
      for (int threshold = 1; threshold <= max_count + 2; ++threshold) {
        const TaskState* expected = nullptr;
        if (min_count < threshold) expected = &bot.task(std::get<2>(*reference.begin()));
        ASSERT_EQ(bot.least_replicated_below(threshold), expected)
            << "round " << round << " step " << step << " threshold " << threshold;
      }
    }
  }
  EXPECT_GT(max_count, 2);
  // Inserts landed in a word below a bucket's cached front word.
  EXPECT_GT(starts_below_front, 100);
}

INSTANTIATE_TEST_SUITE_P(TaskOrders, MultiWordBucketModel,
                         ::testing::Values(TaskOrder::kArrival, TaskOrder::kDescendingWork),
                         [](const ::testing::TestParamInfo<TaskOrder>& param) {
                           return param.param == TaskOrder::kArrival ? "Arrival"
                                                                     : "DescendingWork";
                         });

}  // namespace
}  // namespace dg::sched
