// ActiveBotList and DispatchIndex unit behaviour: the intrusive active-bag
// list preserves arrival order across O(1) erases, and the incremental
// eligibility index tracks the memberships the policies query — including
// the stale-pool bookkeeping that replays the positional scans' lazy
// queue pruning (see sched/dispatch_index.hpp).
#include <gtest/gtest.h>

#include <climits>
#include <iterator>
#include <memory>
#include <random>
#include <vector>

#include "sched/bot_state.hpp"
#include "sched/dispatch_index.hpp"
#include "sched/individual.hpp"
#include "workload/bot.hpp"

namespace dg::sched {
namespace {

workload::BotSpec make_spec(std::vector<double> works, workload::BotId id,
                            double arrival = 0.0) {
  workload::BotSpec spec;
  spec.id = id;
  spec.arrival_time = arrival;
  for (double w : works) spec.tasks.push_back(workload::TaskSpec{w});
  return spec;
}

std::vector<workload::BotId> ids_of(const ActiveBotList& list) {
  std::vector<workload::BotId> ids;
  for (BotState* bot : list) ids.push_back(bot->id());
  return ids;
}

// --- ActiveBotList ---

TEST(ActiveBotList, PreservesArrivalOrderAcrossErase) {
  std::vector<std::unique_ptr<BotState>> bots;
  ActiveBotList list;
  for (workload::BotId id = 0; id < 5; ++id) {
    bots.push_back(std::make_unique<BotState>(make_spec({10.0}, id)));
    list.push_back(*bots.back());
  }
  EXPECT_EQ(list.size(), 5u);
  EXPECT_EQ(ids_of(list), (std::vector<workload::BotId>{0, 1, 2, 3, 4}));

  list.erase(*bots[2]);  // middle
  EXPECT_EQ(ids_of(list), (std::vector<workload::BotId>{0, 1, 3, 4}));
  list.erase(*bots[0]);  // front
  EXPECT_EQ(ids_of(list), (std::vector<workload::BotId>{1, 3, 4}));
  list.erase(*bots[4]);  // back
  EXPECT_EQ(ids_of(list), (std::vector<workload::BotId>{1, 3}));

  EXPECT_EQ(list.front(), bots[1].get());
  EXPECT_EQ(list.back(), bots[3].get());
  EXPECT_TRUE(ActiveBotList::contains(*bots[1]));
  EXPECT_FALSE(ActiveBotList::contains(*bots[2]));

  // A previously erased bag can rejoin — at the back, like a fresh arrival.
  list.push_back(*bots[2]);
  EXPECT_EQ(ids_of(list), (std::vector<workload::BotId>{1, 3, 2}));

  list.erase(*bots[1]);
  list.erase(*bots[3]);
  list.erase(*bots[2]);
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.front(), nullptr);
}

// --- DispatchIndex ---

class DispatchIndexTest : public ::testing::Test {
 protected:
  BotState& add_bot(std::vector<double> works) {
    const auto id = static_cast<workload::BotId>(bots_.size());
    bots_.push_back(std::make_unique<BotState>(make_spec(std::move(works), id)));
    BotState& bot = *bots_.back();
    bot.set_dispatch_index(&index_);
    index_.register_bot(bot);
    return bot;
  }

  void start_replica(TaskState& task, double now) {
    task.on_replica_started(now);
    task.bot().after_replica_started(task);
  }

  void fail_replica(TaskState& task, double now) {
    task.on_replica_stopped(now);
    task.bot().after_replica_stopped(task);
    if (task.running_replicas() == 0) task.bot().push_resubmission(task);
  }

  std::vector<std::unique_ptr<BotState>> bots_;
  DispatchIndex index_;
};

TEST_F(DispatchIndexTest, MembershipsFollowTaskTransitions) {
  index_.set_threshold(1);
  BotState& a = add_bot({10.0});
  BotState& b = add_bot({10.0});
  EXPECT_EQ(index_.first_dispatchable(), &a);
  EXPECT_EQ(index_.first_no_running(), &a);

  // a's only task starts: under threshold 1 the bag is exhausted.
  start_replica(a.task(0), 1.0);
  EXPECT_EQ(index_.first_dispatchable(), &b);
  EXPECT_EQ(index_.first_no_running(), &b);

  // The replica fails: the resubmission entry restores eligibility.
  fail_replica(a.task(0), 2.0);
  EXPECT_EQ(index_.first_dispatchable(), &a);
}

TEST_F(DispatchIndexTest, ThresholdChangeRebuildsDispatchable) {
  index_.set_threshold(1);
  BotState& a = add_bot({10.0});
  add_bot({10.0});
  start_replica(a.task(0), 1.0);
  EXPECT_NE(index_.first_dispatchable(), &a);
  // Raising the threshold makes the single-replica task replicable again.
  index_.set_threshold(2);
  EXPECT_EQ(index_.first_dispatchable(), &a);
  index_.set_threshold(1);
  EXPECT_NE(index_.first_dispatchable(), &a);
}

TEST_F(DispatchIndexTest, NextDispatchableWrapsAroundLikeARing) {
  index_.set_threshold(1);
  BotState& a = add_bot({10.0});
  BotState& b = add_bot({10.0});
  BotState& c = add_bot({10.0});
  EXPECT_EQ(index_.next_dispatchable_after(~0ULL), &a);  // virgin cursor
  EXPECT_EQ(index_.next_dispatchable_after(a.id()), &b);
  EXPECT_EQ(index_.next_dispatchable_after(c.id()), &a);  // wrap
  start_replica(b.task(0), 1.0);
  EXPECT_EQ(index_.next_dispatchable_after(a.id()), &c);  // skips ineligible
}

TEST_F(DispatchIndexTest, UnregisterRemovesFromAllSets) {
  index_.set_threshold(1);
  BotState& a = add_bot({10.0});
  BotState& b = add_bot({10.0});
  index_.unregister_bot(a);
  a.set_dispatch_index(nullptr);
  EXPECT_EQ(index_.first_dispatchable(), &b);
  EXPECT_EQ(index_.first_no_running(), &b);
  // Late mutations of an unregistered bag are ignored, not resurrected.
  start_replica(a.task(0), 1.0);
  EXPECT_EQ(index_.first_dispatchable(), &b);
}

TEST_F(DispatchIndexTest, DrainReplaysThePositionalScansQueuePruning) {
  // Two identical bags exercise both sides of the lazy-queue contract: a
  // stale resubmission entry revalidates in place unless a (replayed) probe
  // pruned it first. `drained` models a bag an arrival-order scan passed
  // over while its entries were stale; `kept` models one it never probed.
  index_.set_threshold(1);
  const auto individual = IndividualScheduler::make(IndividualSchedulerKind::kWqrFt);
  BotState& drained = add_bot({10.0, 20.0});
  BotState& kept = add_bot({10.0, 20.0});

  for (BotState* bot : {&drained, &kept}) {
    // Both tasks fail (enqueuing 0 then 1), then both restart: the queue now
    // holds only stale entries and the bag drops out of dispatchable.
    for (std::size_t t : {0u, 1u}) {
      start_replica(bot->task(t), 1.0);
      fail_replica(bot->task(t), 2.0);
      start_replica(bot->task(t), 3.0);
    }
  }
  EXPECT_EQ(index_.first_dispatchable(), nullptr);

  // The scan probes `drained` (id 0) on its way to a younger bag; `kept`
  // (id 1) sits beyond the winner and keeps its entries.
  index_.drain_stale_below(*individual, kept.id());

  for (BotState* bot : {&drained, &kept}) {
    fail_replica(bot->task(1), 4.0);  // task 1 first this time...
    fail_replica(bot->task(0), 5.0);  // ...then task 0
  }
  // Pruned queue: only the fresh pushes remain, in re-failure order.
  EXPECT_EQ(drained.peek_resubmission(), &drained.task(1));
  // Unpruned queue: the original entries revalidated, preserving the
  // first-failure order — task 0 is still at the front.
  EXPECT_EQ(kept.peek_resubmission(), &kept.task(0));
}

TEST_F(DispatchIndexTest, RandomizedMembershipsMatchRecomputation) {
  // Random task transitions, threshold changes, stale drains (called the way
  // the policies call them) and completion teardowns. After each, every
  // bag's cached bits and its presence in the ordered sets must equal the
  // memberships recomputed from the bag's state.
  const auto individual = IndividualScheduler::make(IndividualSchedulerKind::kWqrFt);
  std::mt19937_64 rng(7);
  const int thresholds[] = {1, 2, 3, INT_MAX / 2};
  index_.set_threshold(2);
  // Completed bags are replaced by fresh arrivals, keeping six active.
  std::vector<BotState*> active;
  const auto arrive = [&] {
    active.push_back(&add_bot(std::vector<double>(1 + rng() % 5, 10.0)));
  };
  for (int b = 0; b < 6; ++b) arrive();
  const auto check = [&](int step) {
    for (const auto& bot : bots_) {
      IndexMembership expected;
      expected.registered = !bot->completed();  // only completed bags leave
      if (expected.registered) {
        const int threshold = index_.threshold();
        expected.dispatchable = bot->has_pending() ||
                                (threshold > 1 && bot->min_replicated_count() < threshold);
        expected.no_running = bot->total_running() == 0;
        expected.stale = bot->has_stale_queue_entries();
      }
      EXPECT_EQ(bot->index_membership(), expected) << "bag " << bot->id() << " step " << step;
      EXPECT_EQ(index_.indexed(*bot), expected) << "bag " << bot->id() << " step " << step;
    }
  };
  double now = 0.0;
  std::uint64_t cursor = ~0ULL;
  int stale_steps = 0;
  for (int step = 0; step < 3000; ++step) {
    now += 1.0;
    const unsigned dice = static_cast<unsigned>(rng() % 100);
    BotState& bot = *active[rng() % active.size()];
    TaskState& task = bot.task(rng() % bot.num_tasks());
    if (dice < 5) {
      index_.set_threshold(thresholds[rng() % std::size(thresholds)]);
    } else if (dice < 15) {
      // FCFS-Share: drain the stale bags ahead of the first dispatchable one.
      if (BotState* first = index_.first_dispatchable()) {
        index_.drain_stale_below(*individual, first->id());
      } else {
        index_.drain_stale_all(*individual);
      }
    } else if (dice < 25) {
      // RR: drain the stale bags the ring scan passes from the cursor.
      if (BotState* next = index_.next_dispatchable_after(cursor)) {
        index_.drain_stale_ring(*individual, cursor, next->id());
        cursor = next->id();
      } else {
        index_.drain_stale_all(*individual);
      }
    } else if (task.completed()) {
      continue;
    } else if (dice < 60 || task.running_replicas() == 0) {
      start_replica(task, now);
    } else if (dice < 85) {
      fail_replica(task, now);
    } else {
      // Completion in the scheduler's order: the bag leaves the index before
      // the sibling stops, which must not re-enter it. Half the time the bag
      // keeps its index pointer through the stops (refresh must ignore it).
      const int count = task.running_replicas();
      task.mark_completed(now);
      bot.on_task_completed(task);
      const bool detach_first = rng() % 2 == 0;
      if (bot.completed()) {
        index_.unregister_bot(bot);
        if (detach_first) bot.set_dispatch_index(nullptr);
      }
      for (int r = 0; r < count; ++r) {
        task.on_replica_stopped(now);
        bot.after_replica_stopped(task);
      }
      if (bot.completed()) {
        bot.set_dispatch_index(nullptr);
        std::erase(active, &bot);
        arrive();
      }
    }
    check(step);
    if (::testing::Test::HasFailure()) return;
    for (const BotState* live : active) stale_steps += live->index_membership().stale ? 1 : 0;
  }
  // The sequence reached the paths under test.
  EXPECT_GT(stale_steps, 100);
  EXPECT_GT(bots_.size(), 50u);
}

}  // namespace
}  // namespace dg::sched
