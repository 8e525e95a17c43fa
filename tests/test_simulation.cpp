// End-to-end Simulation runs: invariants, determinism, metric identities.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "sched/policy.hpp"
#include "sim/observer.hpp"
#include "sim/simulation.hpp"
#include "sim/workspace.hpp"

namespace dg::sim {
namespace {

SimulationConfig small_config(sched::PolicyKind policy, grid::AvailabilityLevel level,
                              double granularity = 25000.0,
                              workload::Intensity intensity = workload::Intensity::kLow,
                              std::size_t num_bots = 15) {
  SimulationConfig config;
  config.grid = grid::GridConfig::preset(grid::Heterogeneity::kHom, level);
  config.workload = make_paper_workload(config.grid, granularity, intensity, num_bots);
  config.policy = policy;
  config.seed = 77;
  return config;
}

/// Every availability edge a run sees: machine (time, id) failures and
/// repairs, and checkpoint-server down/up times.
struct WorldRecorder final : SimulationObserver {
  std::vector<std::pair<double, grid::MachineId>> failed;
  std::vector<std::pair<double, grid::MachineId>> repaired;
  std::vector<double> server_down;
  std::vector<double> server_up;

  void on_machine_failed(const grid::Machine& machine, double now) override {
    failed.emplace_back(now, machine.id());
  }
  void on_machine_repaired(const grid::Machine& machine, double now) override {
    repaired.emplace_back(now, machine.id());
  }
  void on_server_down(double now) override { server_down.push_back(now); }
  void on_server_up(double now) override { server_up.push_back(now); }
};

/// The shorter of `a` and `b` is a bit-exact prefix of the longer one.
template <class T>
void expect_common_prefix(const std::vector<T>& a, const std::vector<T>& b, const char* what) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(a[i], b[i]) << what << " diverge at index " << i;  // doubles compared bitwise
  }
}

TEST(Simulation, PaperPoliciesShareOneWorldUnderCommonRandomNumbers) {
  // Common random numbers come from seeding alone: machine availability,
  // correlated outages and checkpoint-server faults draw from streams
  // derived from the seed, never from the policy. Every paper policy must
  // therefore see the same world — the same failure/repair and server
  // edges at the same times — until its own run ends.
  SimulationConfig config = small_config(sched::PolicyKind::kFcfsShare,
                                         grid::AvailabilityLevel::kLow, 25000.0,
                                         workload::Intensity::kLow, 12);
  config.grid.checkpoint_server_faults.enabled = true;
  config.grid.checkpoint_server_faults.mtbf = 20000.0;
  config.grid.checkpoint_server_faults.mttr = 3000.0;
  config.grid.outages.enabled = true;
  config.grid.outages.mean_interarrival = 20000.0;
  config.seed = 4242;

  std::vector<WorldRecorder> worlds;
  for (const sched::PolicyKind policy : sched::paper_policies()) {
    config.policy = policy;
    WorldRecorder recorder;
    (void)Simulation(config).run(&recorder);
    // The world is non-trivial in every run: machines fail and come back,
    // and the server goes down.
    EXPECT_FALSE(recorder.failed.empty()) << sched::to_string(policy);
    EXPECT_FALSE(recorder.repaired.empty()) << sched::to_string(policy);
    EXPECT_FALSE(recorder.server_down.empty()) << sched::to_string(policy);
    worlds.push_back(std::move(recorder));
  }
  ASSERT_EQ(worlds.size(), 5u);

  for (std::size_t a = 0; a < worlds.size(); ++a) {
    for (std::size_t b = a + 1; b < worlds.size(); ++b) {
      SCOPED_TRACE(testing::Message() << sched::to_string(sched::paper_policies()[a]) << " vs "
                                      << sched::to_string(sched::paper_policies()[b]));
      expect_common_prefix(worlds[a].failed, worlds[b].failed, "machine failures");
      expect_common_prefix(worlds[a].repaired, worlds[b].repaired, "machine repairs");
      expect_common_prefix(worlds[a].server_down, worlds[b].server_down, "server downs");
      expect_common_prefix(worlds[a].server_up, worlds[b].server_up, "server ups");
    }
  }
}

TEST(Simulation, AllBotsCompleteInStableSystem) {
  const SimulationResult result =
      Simulation(small_config(sched::PolicyKind::kFcfsShare, grid::AvailabilityLevel::kHigh))
          .run();
  EXPECT_FALSE(result.saturated);
  EXPECT_EQ(result.bots_completed, result.bots.size());
  for (const BotRecord& bot : result.bots) EXPECT_TRUE(bot.completed);
}

TEST(Simulation, TurnaroundDecompositionIdentity) {
  const SimulationResult result =
      Simulation(small_config(sched::PolicyKind::kRoundRobin, grid::AvailabilityLevel::kHigh))
          .run();
  for (const BotRecord& bot : result.bots) {
    EXPECT_NEAR(bot.turnaround, bot.waiting_time + bot.makespan, 1e-6);
    EXPECT_GE(bot.waiting_time, 0.0);
    EXPECT_GE(bot.makespan, 0.0);
    EXPECT_GE(bot.completion_time, bot.arrival_time);
    EXPECT_GE(bot.first_dispatch_time, bot.arrival_time);
  }
}

TEST(Simulation, RecordsAreInArrivalOrder) {
  const SimulationResult result =
      Simulation(small_config(sched::PolicyKind::kLongIdle, grid::AvailabilityLevel::kHigh))
          .run();
  for (std::size_t i = 1; i < result.bots.size(); ++i) {
    EXPECT_GE(result.bots[i].arrival_time, result.bots[i - 1].arrival_time);
    EXPECT_EQ(result.bots[i].id, static_cast<workload::BotId>(i));
  }
}

TEST(Simulation, DeterministicForSameSeed) {
  SimulationConfig config = small_config(sched::PolicyKind::kRoundRobinNrf,
                                         grid::AvailabilityLevel::kLow);
  const SimulationResult a = Simulation(config).run();
  const SimulationResult b = Simulation(config).run();
  ASSERT_EQ(a.bots.size(), b.bots.size());
  EXPECT_EQ(a.events_executed, b.events_executed);
  for (std::size_t i = 0; i < a.bots.size(); ++i) {
    EXPECT_EQ(a.bots[i].turnaround, b.bots[i].turnaround);
    EXPECT_EQ(a.bots[i].completion_time, b.bots[i].completion_time);
  }
}

TEST(Simulation, DifferentSeedsGiveDifferentRuns) {
  SimulationConfig config = small_config(sched::PolicyKind::kFcfsShare,
                                         grid::AvailabilityLevel::kLow);
  const SimulationResult a = Simulation(config).run();
  config.seed = 78;
  const SimulationResult b = Simulation(config).run();
  EXPECT_NE(a.turnaround.mean(), b.turnaround.mean());
}

TEST(Simulation, WarmupBotsExcludedFromAggregates) {
  SimulationConfig config = small_config(sched::PolicyKind::kFcfsShare,
                                         grid::AvailabilityLevel::kHigh);
  config.warmup_bots = 5;
  const SimulationResult result = Simulation(config).run();
  EXPECT_EQ(result.turnaround.count(), result.bots.size() - 5);
}

TEST(Simulation, TinyHorizonMarksSaturation) {
  SimulationConfig config = small_config(sched::PolicyKind::kFcfsShare,
                                         grid::AvailabilityLevel::kHigh);
  config.max_sim_time = 10.0;  // nothing can finish
  const SimulationResult result = Simulation(config).run();
  EXPECT_TRUE(result.saturated);
  EXPECT_LT(result.bots_completed, result.bots.size());
  for (const BotRecord& bot : result.bots) {
    if (!bot.completed) {
      EXPECT_DOUBLE_EQ(bot.completion_time, result.end_time);
    }
  }
}

/// Where each arriving bag's task slab lives, and whether any bag arrived
/// while an earlier one was still running.
struct SlabRecorder final : SimulationObserver {
  std::set<const sched::TaskState*> slabs;
  std::size_t submitted = 0;
  std::size_t completed = 0;
  bool overlapped = false;

  void on_bot_submitted(const sched::BotState& bot, double /*now*/) override {
    if (completed != submitted) overlapped = true;
    ++submitted;
    slabs.insert(&bot.task(0));
  }
  void on_bot_completed(const sched::BotState& /*bot*/, double /*now*/) override {
    ++completed;
  }
};

TEST(Simulation, CompletedBagsHandTheirTaskStorageBack) {
  // Bags far apart in time: each completes long before the next arrives.
  auto bags = std::make_shared<std::vector<workload::BotSpec>>(30);
  for (std::size_t k = 0; k < bags->size(); ++k) {
    workload::BotSpec& bag = (*bags)[k];
    bag.id = static_cast<workload::BotId>(k);
    bag.arrival_time = 1.0e7 * static_cast<double>(k);
    bag.granularity = 1000.0;
    bag.tasks.assign(400, workload::TaskSpec{1000.0});
  }
  SimulationConfig config =
      small_config(sched::PolicyKind::kFcfsShare, grid::AvailabilityLevel::kAlways);
  config.trace_bots = bags;
  SlabRecorder recorder;
  SimulationWorkspace workspace;
  const SimulationResult& result = Simulation(config).run(workspace, &recorder);
  ASSERT_EQ(result.bots_completed, bags->size());
  EXPECT_FALSE(recorder.overlapped);
  // Each arrival draws the slab its predecessor handed back to the pool:
  // one address for the whole run, not one per bag.
  EXPECT_LE(recorder.slabs.size(), 2u);
}

TEST(Simulation, UtilizationNearTargetInStableSystem) {
  // Long homogeneous run at low intensity: measured utilization should be in
  // the vicinity of the configured 50% target (replication overhead pushes
  // it up; availability losses push effective capacity down).
  SimulationConfig config = small_config(sched::PolicyKind::kRoundRobin,
                                         grid::AvailabilityLevel::kHigh, 5000.0,
                                         workload::Intensity::kLow, 60);
  const SimulationResult result = Simulation(config).run();
  EXPECT_GT(result.utilization, 0.25);
  EXPECT_LT(result.utilization, 0.85);
}

TEST(Simulation, MeasuredAvailabilityMatchesConfig) {
  SimulationConfig config = small_config(sched::PolicyKind::kFcfsShare,
                                         grid::AvailabilityLevel::kLow, 5000.0,
                                         workload::Intensity::kLow, 30);
  const SimulationResult result = Simulation(config).run();
  EXPECT_NEAR(result.measured_availability, 0.50, 0.10);
  EXPECT_GT(result.machine_failures, 0u);
}

TEST(Simulation, NoFailuresMeansNoCheckpointsOrReplicaFailures) {
  SimulationConfig config = small_config(sched::PolicyKind::kFcfsShare,
                                         grid::AvailabilityLevel::kAlways);
  const SimulationResult result = Simulation(config).run();
  EXPECT_EQ(result.machine_failures, 0u);
  EXPECT_EQ(result.replica_failures, 0u);
  EXPECT_EQ(result.checkpoints_saved, 0u);
  EXPECT_EQ(result.checkpoint_retrievals, 0u);
  EXPECT_EQ(result.measured_availability, 1.0);
}

TEST(Simulation, FcfsExclNeverOverlapsBags) {
  // Exclusive allocation: bag k starts only after bag k-1 completed.
  SimulationConfig config = small_config(sched::PolicyKind::kFcfsExcl,
                                         grid::AvailabilityLevel::kAlways);
  const SimulationResult result = Simulation(config).run();
  ASSERT_FALSE(result.saturated);
  for (std::size_t i = 1; i < result.bots.size(); ++i) {
    EXPECT_GE(result.bots[i].first_dispatch_time, result.bots[i - 1].completion_time - 1e-6)
        << "bag " << i << " started before bag " << i - 1 << " completed";
  }
}

TEST(Simulation, TasksCompletedMatchesWorkload) {
  SimulationConfig config = small_config(sched::PolicyKind::kRoundRobin,
                                         grid::AvailabilityLevel::kHigh);
  const SimulationResult result = Simulation(config).run();
  std::size_t expected = 0;
  for (const BotRecord& bot : result.bots) expected += bot.num_tasks;
  EXPECT_EQ(result.tasks_completed, expected);
}

TEST(Simulation, ReplicationThresholdOverrideReducesReplicas) {
  SimulationConfig config = small_config(sched::PolicyKind::kRoundRobin,
                                         grid::AvailabilityLevel::kAlways);
  config.replication_threshold = 1;
  const SimulationResult r1 = Simulation(config).run();
  config.replication_threshold = 3;
  const SimulationResult r3 = Simulation(config).run();
  EXPECT_LT(r1.replicas_started, r3.replicas_started);
  EXPECT_EQ(r1.wasted_compute_time, 0.0);  // no replication, no failures
  EXPECT_GT(r3.wasted_compute_time, 0.0);
}

TEST(Simulation, DynamicReplicationRuns) {
  SimulationConfig config = small_config(sched::PolicyKind::kRoundRobin,
                                         grid::AvailabilityLevel::kLow);
  config.dynamic_replication = true;
  const SimulationResult result = Simulation(config).run();
  EXPECT_EQ(result.bots_completed, result.bots.size());
}

TEST(Simulation, WorkQueueCompletesWithoutReplication) {
  SimulationConfig config = small_config(sched::PolicyKind::kFcfsShare,
                                         grid::AvailabilityLevel::kAlways);
  config.individual = sched::IndividualSchedulerKind::kWorkQueue;
  const SimulationResult result = Simulation(config).run();
  EXPECT_EQ(result.bots_completed, result.bots.size());
  // threshold 1 and no failures: one replica per task.
  EXPECT_EQ(result.replicas_started, result.tasks_completed);
}

TEST(Simulation, KnowledgeBasedSchedulerCompletes) {
  SimulationConfig config = small_config(sched::PolicyKind::kFcfsShare,
                                         grid::AvailabilityLevel::kMed);
  config.individual = sched::IndividualSchedulerKind::kKnowledgeBased;
  const SimulationResult result = Simulation(config).run();
  EXPECT_EQ(result.bots_completed, result.bots.size());
}

TEST(Simulation, WqrLosesMoreWorkThanWqrFtUnderChurn) {
  // Without checkpointing every failure loses the replica's full progress;
  // with WQR-FT losses are bounded by the checkpoint interval.
  SimulationConfig config = small_config(sched::PolicyKind::kRoundRobin,
                                         grid::AvailabilityLevel::kLow, 25000.0,
                                         workload::Intensity::kLow, 12);
  config.individual = sched::IndividualSchedulerKind::kWqr;
  const SimulationResult wqr = Simulation(config).run();
  config.individual = sched::IndividualSchedulerKind::kWqrFt;
  const SimulationResult wqrft = Simulation(config).run();
  ASSERT_GT(wqr.replica_failures, 0u);
  EXPECT_GT(wqr.lost_work / static_cast<double>(wqr.replica_failures),
            wqrft.lost_work / static_cast<double>(wqrft.replica_failures));
}

TEST(Simulation, EventsExecutedIsPositiveAndBounded) {
  const SimulationResult result =
      Simulation(small_config(sched::PolicyKind::kFcfsShare, grid::AvailabilityLevel::kHigh))
          .run();
  EXPECT_GT(result.events_executed, result.bots.size());
}

TEST(MakePaperWorkload, RatesScaleWithIntensity) {
  const grid::GridConfig grid_config =
      grid::GridConfig::preset(grid::Heterogeneity::kHom, grid::AvailabilityLevel::kHigh);
  const auto low = make_paper_workload(grid_config, 5000.0, workload::Intensity::kLow, 10);
  const auto high = make_paper_workload(grid_config, 5000.0, workload::Intensity::kHigh, 10);
  EXPECT_NEAR(high.arrival_rate / low.arrival_rate, 0.9 / 0.5, 1e-9);
}

TEST(MakePaperWorkload, LowerAvailabilityMeansLowerRate) {
  const auto high_avail = make_paper_workload(
      grid::GridConfig::preset(grid::Heterogeneity::kHom, grid::AvailabilityLevel::kHigh),
      5000.0, workload::Intensity::kLow, 10);
  const auto low_avail = make_paper_workload(
      grid::GridConfig::preset(grid::Heterogeneity::kHom, grid::AvailabilityLevel::kLow),
      5000.0, workload::Intensity::kLow, 10);
  EXPECT_LT(low_avail.arrival_rate, high_avail.arrival_rate);
}

}  // namespace
}  // namespace dg::sim
