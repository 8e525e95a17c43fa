// Execution engine: replica lifecycle, checkpointing, failure handling,
// sibling cancellation — on a tiny deterministic grid.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim_test_util.hpp"

namespace dg::test {
namespace {

TEST(Engine, SingleTaskRunsForWorkOverPower) {
  WorldOptions options;
  options.num_machines = 1;
  options.machine_power = 10.0;
  World world(options);
  sched::BotState& bot = world.add_bot({100.0});
  world.sim.run();
  EXPECT_TRUE(bot.completed());
  EXPECT_DOUBLE_EQ(bot.completion_time(), 10.0);  // 100 work / power 10
  EXPECT_DOUBLE_EQ(bot.turnaround(), 10.0);
  EXPECT_DOUBLE_EQ(bot.waiting_time(), 0.0);
}

TEST(Engine, TasksRunConcurrentlyAcrossMachines) {
  WorldOptions options;
  options.num_machines = 3;
  World world(options);
  sched::BotState& bot = world.add_bot({100.0, 100.0, 100.0});
  world.sim.schedule_at(5.0, [&] { EXPECT_EQ(world.busy_machines(), 3); });
  world.sim.run();
  EXPECT_DOUBLE_EQ(bot.completion_time(), 10.0);
}

TEST(Engine, ReplicationKicksInAfterLastPendingTask) {
  WorldOptions options;
  options.num_machines = 3;
  options.threshold = 2;
  World world(options);
  // One task, three machines: WQR-FT runs 2 replicas (threshold), not 3.
  sched::BotState& bot = world.add_bot({100.0});
  world.sim.schedule_at(1.0, [&] {
    EXPECT_EQ(bot.task(0).running_replicas(), 2);
    EXPECT_EQ(world.busy_machines(), 2);
  });
  world.sim.run();
  EXPECT_TRUE(bot.completed());
}

TEST(Engine, WinnerCancelsSiblingsAndFreesMachines) {
  WorldOptions options;
  options.num_machines = 2;
  World world(options);
  sched::BotState& bot = world.add_bot({100.0});
  world.sim.run();
  EXPECT_TRUE(bot.completed());
  EXPECT_EQ(world.busy_machines(), 0);
  EXPECT_EQ(world.engine->replicas_cancelled(), 1u);
  EXPECT_EQ(bot.task(0).running_replicas(), 0);
}

TEST(Engine, CompletionStopsSiblingsInAscendingMachineOrder) {
  // FCFS-Excl replicates the bag's only task onto all six machines. Failures
  // and repairs then re-link replicas 3 and 0 out of start order; the
  // completion must still stop every replica, and tell the observers, in
  // ascending machine-id order.
  struct StopRecorder final : sim::SimulationObserver {
    void on_replica_stopped(const sched::TaskState& /*task*/, const grid::Machine& machine,
                            sim::ReplicaStopKind kind, double /*now*/) override {
      if (kind != sim::ReplicaStopKind::kFailed) stops.emplace_back(machine.id(), kind);
    }
    std::vector<std::pair<grid::MachineId, sim::ReplicaStopKind>> stops;
  };
  WorldOptions options;
  options.num_machines = 6;
  options.policy = sched::PolicyKind::kFcfsExcl;
  World world(options);
  StopRecorder recorder;
  world.engine->add_observer(recorder);
  sched::BotState& bot = world.add_bot({100.0});
  world.fail_machine_at(0, 2.0);
  world.fail_machine_at(3, 2.0);
  world.repair_machine_at(3, 3.0);
  world.repair_machine_at(0, 4.0);
  world.sim.run();
  ASSERT_TRUE(bot.completed());
  EXPECT_DOUBLE_EQ(bot.completion_time(), 10.0);
  using Kind = sim::ReplicaStopKind;
  // Machine 1 holds the oldest surviving replica, so its completion fires
  // first among the replicas started at t = 0.
  const std::vector<std::pair<grid::MachineId, Kind>> expected = {
      {0, Kind::kCancelled}, {1, Kind::kCompleted}, {2, Kind::kCancelled},
      {3, Kind::kCancelled}, {4, Kind::kCancelled}, {5, Kind::kCancelled}};
  EXPECT_EQ(recorder.stops, expected);
  EXPECT_EQ(world.busy_machines(), 0);
}

TEST(Engine, TaskCompletesExactlyOnce) {
  WorldOptions options;
  options.num_machines = 4;
  World world(options);
  world.add_bot({50.0, 50.0});
  world.sim.run();
  EXPECT_EQ(world.scheduler->tasks_completed(), 2u);
  EXPECT_EQ(world.scheduler->bots_completed(), 1u);
}

TEST(Engine, FailureWithoutCheckpointLosesAllProgress) {
  WorldOptions options;
  options.num_machines = 1;
  options.threshold = 1;
  World world(options);
  sched::BotState& bot = world.add_bot({100.0});  // needs 10 s
  world.fail_machine_at(0, 6.0);                  // 60% done, lost
  world.repair_machine_at(0, 20.0);
  world.sim.run();
  EXPECT_TRUE(bot.completed());
  // Restarted from scratch at t=20, finishes at 30.
  EXPECT_DOUBLE_EQ(bot.completion_time(), 30.0);
  EXPECT_NEAR(world.engine->lost_work(), 60.0, 1e-9);
  EXPECT_EQ(world.engine->replicas_killed_by_failure(), 1u);
}

TEST(Engine, FailedTaskResubmittedOnOtherMachineImmediately) {
  WorldOptions options;
  options.num_machines = 2;
  options.threshold = 1;  // no replication: second machine idle
  World world(options);
  sched::BotState& bot = world.add_bot({100.0});
  world.fail_machine_at(0, 4.0);
  world.sim.run();
  EXPECT_TRUE(bot.completed());
  // Restarts at t=4 on machine 1, runs 10 s.
  EXPECT_DOUBLE_EQ(bot.completion_time(), 14.0);
}

TEST(Engine, CheckpointPreservesProgressAcrossFailure) {
  WorldOptions options;
  options.num_machines = 2;
  options.threshold = 1;
  options.checkpointing = true;
  options.checkpoint_interval = 2.0;  // checkpoint every 2 s of compute
  World world(options);
  sched::BotState& bot = world.add_bot({1000.0});  // 100 s of compute
  // First checkpoint commits by t <= 2 + 720; by t=1000 at least one commit
  // (20 work) exists and the replica is at most one leg past it.
  world.fail_machine_at(0, 1000.0);
  world.sim.run();
  EXPECT_TRUE(bot.completed());
  EXPECT_GT(world.engine->checkpoints_saved(), 0u);
  // The restart (on the idle second machine) retrieved the checkpoint.
  EXPECT_EQ(world.engine->checkpoint_retrievals(), 1u);
  // Lost work bounded by one uncommitted compute leg (2 s * power 10).
  EXPECT_LE(world.engine->lost_work(), 20.0 + 1e-9);
  EXPECT_GT(bot.task(0).checkpointed_work(), 0.0);
}

TEST(Engine, CheckpointTransferTimesComeFromServerDistribution) {
  WorldOptions options;
  options.num_machines = 1;
  options.checkpointing = true;
  options.checkpoint_interval = 3.0;
  World world(options);
  sched::BotState& bot = world.add_bot({100.0});  // 10 s compute, 3 checkpoints
  world.sim.run();
  EXPECT_TRUE(bot.completed());
  const auto saves = world.engine->checkpoints_saved();
  EXPECT_EQ(saves, 3u);
  // Completion = 10 s compute + 3 transfers of U[240,720]:
  EXPECT_GE(bot.completion_time(), 10.0 + 3 * 240.0);
  EXPECT_LE(bot.completion_time(), 10.0 + 3 * 720.0);
}

TEST(Engine, FailureDuringCheckpointTransferLosesUncommittedLeg) {
  WorldOptions options;
  options.num_machines = 1;
  options.threshold = 1;
  options.checkpointing = true;
  options.checkpoint_interval = 4.0;
  World world(options);
  sched::BotState& bot = world.add_bot({100.0});
  // First checkpoint begins at t=4 (40 work done, uncommitted); transfer
  // takes >= 240 s. Kill the machine mid-transfer.
  world.fail_machine_at(0, 10.0);
  world.repair_machine_at(0, 500.0);
  world.sim.run();
  EXPECT_TRUE(bot.completed());
  // The first (interrupted) transfer committed nothing: all 40 work lost.
  EXPECT_NEAR(world.engine->lost_work(), 40.0, 1e-9);
  // The rerun checkpoints normally: legs of 4+4+2 s commit 40 then 80.
  EXPECT_EQ(world.engine->checkpoints_saved(), 2u);
  EXPECT_DOUBLE_EQ(bot.task(0).checkpointed_work(), 80.0);
}

TEST(Engine, IdleMachineFailureIsHarmless) {
  WorldOptions options;
  options.num_machines = 2;
  options.threshold = 1;
  World world(options);
  sched::BotState& bot = world.add_bot({100.0});
  world.fail_machine_at(1, 2.0);  // idle machine
  world.sim.run();
  EXPECT_TRUE(bot.completed());
  EXPECT_DOUBLE_EQ(bot.completion_time(), 10.0);
  EXPECT_EQ(world.engine->replicas_killed_by_failure(), 0u);
}

TEST(Engine, RepairTriggersDispatchOfWaitingWork) {
  WorldOptions options;
  options.num_machines = 1;
  options.threshold = 1;
  World world(options);
  world.fail_machine_at(0, 0.0);
  sched::BotState& bot = world.add_bot({100.0}, 1.0);  // arrives, no machine
  world.repair_machine_at(0, 25.0);
  world.sim.run();
  EXPECT_TRUE(bot.completed());
  EXPECT_DOUBLE_EQ(bot.first_dispatch_time(), 25.0);
  EXPECT_DOUBLE_EQ(bot.waiting_time(), 24.0);
  EXPECT_DOUBLE_EQ(bot.completion_time(), 35.0);
}

TEST(Engine, UtilizationAccountsBusyPower) {
  WorldOptions options;
  options.num_machines = 2;
  options.threshold = 1;
  World world(options);
  world.add_bot({100.0});  // one machine busy 10 s, the other idle
  world.sim.run();
  // At t=10: busy integral = 10 s * 10 power over total 20 power.
  EXPECT_NEAR(world.engine->utilization(10.0), 0.5, 1e-9);
}

TEST(Engine, WastedComputeTracksCancelledReplicas) {
  WorldOptions options;
  options.num_machines = 2;
  options.threshold = 2;
  World world(options);
  world.add_bot({100.0});
  world.sim.run();
  // Two replicas ran 10 s each; one wins (useful), one wasted.
  EXPECT_NEAR(world.engine->useful_compute_time(), 10.0, 1e-9);
  EXPECT_NEAR(world.engine->wasted_compute_time(), 10.0, 1e-9);
}

TEST(Engine, ResubmissionHasPriorityOverYoungerBags) {
  WorldOptions options;
  options.num_machines = 1;
  options.threshold = 1;
  options.policy = sched::PolicyKind::kFcfsShare;
  World world(options);
  sched::BotState& first = world.add_bot({100.0});
  world.add_bot({100.0}, 0.5);
  world.fail_machine_at(0, 4.0);
  world.repair_machine_at(0, 8.0);
  world.sim.run();
  // On repair the failed task of bag 0 is chosen before bag 1's fresh task.
  EXPECT_DOUBLE_EQ(first.completion_time(), 18.0);
}

TEST(Engine, MultipleFailuresOnSameTaskEventuallyComplete) {
  WorldOptions options;
  options.num_machines = 1;
  options.threshold = 1;
  World world(options);
  sched::BotState& bot = world.add_bot({100.0});
  for (int i = 0; i < 5; ++i) {
    world.fail_machine_at(0, 5.0 + 10.0 * i);
    world.repair_machine_at(0, 6.0 + 10.0 * i);
  }
  world.sim.run();
  EXPECT_TRUE(bot.completed());
  EXPECT_EQ(world.engine->replicas_killed_by_failure(), 5u);
}

TEST(Engine, HeterogeneousSpeedWinnerIsFasterMachine) {
  // Build a custom 2-machine grid with different powers.
  des::Simulator sim;
  grid::GridConfig config;
  config.heterogeneity = grid::Heterogeneity::kHet;
  config.total_power = 25.0;
  config.het_power_lo = 10.0;
  config.het_power_hi = 20.0;
  config.availability = grid::AvailabilityModel::for_level(grid::AvailabilityLevel::kAlways);
  grid::DesktopGrid grid(config, sim, 11);
  ASSERT_EQ(grid.size(), 2u);
  sched::MultiBotScheduler scheduler(
      sim, grid, sched::make_policy(sched::PolicyKind::kFcfsShare),
      sched::IndividualScheduler::make(sched::IndividualSchedulerKind::kWqrFt),
      std::make_unique<sched::StaticReplication>(2));
  sim::EngineConfig engine_config;
  engine_config.checkpointing = false;
  sim::ExecutionEngine engine(sim, grid, scheduler, engine_config, 11);
  grid.start(nullptr, nullptr);

  workload::BotSpec spec;
  spec.tasks = {workload::TaskSpec{100.0}};
  sched::BotState bot(spec);
  scheduler.submit(bot);
  sim.run();
  const double fastest = std::max(grid.machine(0).power(), grid.machine(1).power());
  EXPECT_TRUE(bot.completed());
  EXPECT_DOUBLE_EQ(bot.completion_time(), 100.0 / fastest);
}

}  // namespace
}  // namespace dg::test
