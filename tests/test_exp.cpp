// Experiment harness: replication control, CI stopping, figure matrices,
// table rendering.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

#include "exp/paper.hpp"
#include "exp/runner.hpp"

namespace dg::exp {
namespace {

sim::SimulationConfig tiny_config(sched::PolicyKind policy, std::size_t num_bots = 8) {
  sim::SimulationConfig config;
  config.grid = grid::GridConfig::preset(grid::Heterogeneity::kHom,
                                         grid::AvailabilityLevel::kAlways);
  config.workload =
      sim::make_paper_workload(config.grid, 25000.0, workload::Intensity::kLow, num_bots);
  config.policy = policy;
  return config;
}

TEST(ExperimentRunner, RunsMinimumReplications) {
  RunOptions options;
  options.min_replications = 3;
  options.max_replications = 3;
  options.threads = 2;
  ExperimentRunner runner(options);
  const auto results = runner.run({{"cell", tiny_config(sched::PolicyKind::kFcfsShare)}});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].replications, 3u);
  EXPECT_EQ(results[0].label, "cell");
  EXPECT_GT(results[0].turnaround.stats().mean(), 0.0);
}

TEST(ExperimentRunner, AddsReplicationsUntilPrecise) {
  RunOptions options;
  options.min_replications = 3;
  options.max_replications = 20;
  options.target_relative_error = 0.15;
  options.threads = 2;
  ExperimentRunner runner(options);
  const auto results = runner.run({{"cell", tiny_config(sched::PolicyKind::kRoundRobin)}});
  const CellResult& cell = results[0];
  EXPECT_GE(cell.replications, 3u);
  if (cell.replications < 20u) {
    EXPECT_LE(cell.turnaround_ci().relative_error(), 0.15);
  }
}

TEST(ExperimentRunner, PreservesCellOrder) {
  RunOptions options;
  options.min_replications = 2;
  options.max_replications = 2;
  options.threads = 4;
  ExperimentRunner runner(options);
  const auto results = runner.run({{"a", tiny_config(sched::PolicyKind::kFcfsShare)},
                                   {"b", tiny_config(sched::PolicyKind::kRoundRobin)},
                                   {"c", tiny_config(sched::PolicyKind::kLongIdle)}});
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].label, "a");
  EXPECT_EQ(results[1].label, "b");
  EXPECT_EQ(results[2].label, "c");
}

TEST(ExperimentRunner, CommonRandomNumbersAcrossCells) {
  // Two cells with identical configs see identical replication seeds, hence
  // identical results.
  RunOptions options;
  options.min_replications = 2;
  options.max_replications = 2;
  options.threads = 2;
  ExperimentRunner runner(options);
  const auto results = runner.run({{"x", tiny_config(sched::PolicyKind::kFcfsShare)},
                                   {"y", tiny_config(sched::PolicyKind::kFcfsShare)}});
  EXPECT_EQ(results[0].turnaround.stats().mean(), results[1].turnaround.stats().mean());
}

TEST(ExperimentRunner, ReplicationCapHonored) {
  // An unreachable precision target must stop exactly at the cap.
  RunOptions options;
  options.min_replications = 2;
  options.max_replications = 5;
  options.target_relative_error = 1e-9;
  options.threads = 2;
  ExperimentRunner runner(options);
  const auto results = runner.run({{"cell", tiny_config(sched::PolicyKind::kFcfsShare)}});
  EXPECT_EQ(results[0].replications, 5u);
  EXPECT_FALSE(results[0].saturated());
}

TEST(ExperimentRunner, SaturatedCellStopsAtMinimumAndIsCounted) {
  sim::SimulationConfig config = tiny_config(sched::PolicyKind::kFcfsShare);
  config.max_sim_time = 1.0;  // horizon hit with every bag incomplete
  RunOptions options;
  options.min_replications = 3;
  options.max_replications = 12;
  options.target_relative_error = 1e-9;  // would keep going if not saturated
  options.threads = 2;
  ExperimentRunner runner(options);
  const auto results = runner.run({{"sat", config}});
  EXPECT_EQ(results[0].replications, 3u);
  EXPECT_EQ(results[0].saturated_replications, 3u);
  EXPECT_TRUE(results[0].saturated());
}

TEST(ExperimentRunner, WorkspacePathMatchesFreshPath) {
  const std::vector<NamedConfig> cells = {{"a", tiny_config(sched::PolicyKind::kFcfsShare)},
                                          {"b", tiny_config(sched::PolicyKind::kLongIdle, 6)}};
  RunOptions options;
  options.min_replications = 3;
  options.max_replications = 6;
  options.target_relative_error = 0.2;
  options.threads = 2;

  options.reuse_workspaces = true;
  const auto reused = ExperimentRunner(options).run(cells);
  options.reuse_workspaces = false;
  const auto fresh = ExperimentRunner(options).run(cells);

  ASSERT_EQ(reused.size(), fresh.size());
  for (std::size_t i = 0; i < reused.size(); ++i) {
    EXPECT_EQ(reused[i].replications, fresh[i].replications);
    EXPECT_EQ(reused[i].turnaround.stats().mean(), fresh[i].turnaround.stats().mean());
    EXPECT_EQ(reused[i].turnaround.stats().variance(), fresh[i].turnaround.stats().variance());
    EXPECT_EQ(reused[i].waiting.mean(), fresh[i].waiting.mean());
    EXPECT_EQ(reused[i].makespan.mean(), fresh[i].makespan.mean());
    EXPECT_EQ(reused[i].utilization.mean(), fresh[i].utilization.mean());
    EXPECT_EQ(reused[i].decayed_utilization.mean(), fresh[i].decayed_utilization.mean());
    EXPECT_EQ(reused[i].wasted_fraction.mean(), fresh[i].wasted_fraction.mean());
    EXPECT_EQ(reused[i].saturated_replications, fresh[i].saturated_replications);
    EXPECT_EQ(reused[i].turnaround_tail.quantile(0.99), fresh[i].turnaround_tail.quantile(0.99));
    EXPECT_EQ(reused[i].slowdown_tail.quantile(0.99), fresh[i].slowdown_tail.quantile(0.99));
  }
}

TEST(ExperimentRunner, BatchShapeDoesNotChangeResults) {
  const std::vector<NamedConfig> cells = {{"a", tiny_config(sched::PolicyKind::kFcfsShare)},
                                          {"b", tiny_config(sched::PolicyKind::kRoundRobin)}};
  RunOptions options;
  options.min_replications = 4;
  options.max_replications = 4;
  options.threads = 3;

  options.batch_size = 1;
  const auto fine = ExperimentRunner(options).run(cells);
  options.batch_size = 7;  // bigger than a whole round
  const auto coarse = ExperimentRunner(options).run(cells);

  ASSERT_EQ(fine.size(), coarse.size());
  for (std::size_t i = 0; i < fine.size(); ++i) {
    EXPECT_EQ(fine[i].turnaround.stats().mean(), coarse[i].turnaround.stats().mean());
    EXPECT_EQ(fine[i].replications, coarse[i].replications);
  }
}

TEST(ExperimentRunner, CellTailSketchesPoolEveryMeasuredBag) {
  RunOptions options;
  options.min_replications = 3;
  options.max_replications = 3;
  options.threads = 2;
  ExperimentRunner runner(options);
  const auto results = runner.run({{"cell", tiny_config(sched::PolicyKind::kFcfsShare)}});
  const CellResult& cell = results[0];
  // 8 bags per replication, no warmup filter: 24 pooled observations.
  EXPECT_EQ(cell.turnaround_tail.count(), 24u);
  EXPECT_EQ(cell.slowdown_tail.count(), 24u);
  // Gaps start at each replication's second completion: 7 per replication.
  EXPECT_EQ(cell.completion_gap_tail.count(), 21u);
  EXPECT_GE(cell.turnaround_tail.quantile(0.99), cell.turnaround_tail.quantile(0.50));
  EXPECT_GE(cell.slowdown_tail.quantile(0.95), 1.0);  // slowdown >= 1 by construction
  EXPECT_EQ(cell.decayed_utilization.count(), 3u);
  EXPECT_GT(cell.decayed_utilization.mean(), 0.0);
  EXPECT_LE(cell.decayed_utilization.mean(), 1.0);
}

TEST(ExperimentRunner, MergedTailsBitIdenticalAcrossThreadsAndBatch) {
  // The fold-in-build-order contract extended to the tail sketches: exact
  // integer bucket merges make the cell-level p50/p95/p99 identical across
  // thread counts and batch shapes — on a volatile grid, so machine failures
  // shape every replication.
  sim::SimulationConfig volatile_config = tiny_config(sched::PolicyKind::kRoundRobin);
  volatile_config.grid =
      grid::GridConfig::preset(grid::Heterogeneity::kHom, grid::AvailabilityLevel::kLow);
  volatile_config.workload = sim::make_paper_workload(volatile_config.grid, 25000.0,
                                                      workload::Intensity::kLow, 6);
  const std::vector<NamedConfig> cells = {{"v", volatile_config},
                                          {"s", tiny_config(sched::PolicyKind::kFcfsShare, 6)}};

  struct Variant {
    std::size_t threads;
    std::size_t batch;
  };
  const Variant variants[] = {{1, 1}, {3, 1}, {3, 5}, {4, 2}};

  std::vector<std::vector<CellResult>> runs;
  for (const Variant& variant : variants) {
    RunOptions options;
    options.min_replications = 3;
    options.max_replications = 3;
    options.threads = variant.threads;
    options.batch_size = variant.batch;
    runs.push_back(ExperimentRunner(options).run(cells));
  }

  const std::vector<CellResult>& reference = runs.front();
  for (std::size_t v = 1; v < runs.size(); ++v) {
    ASSERT_EQ(runs[v].size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      const CellResult& got = runs[v][i];
      const CellResult& want = reference[i];
      EXPECT_EQ(got.turnaround_tail.count(), want.turnaround_tail.count());
      for (double q : {0.5, 0.95, 0.99}) {
        EXPECT_EQ(got.turnaround_tail.quantile(q), want.turnaround_tail.quantile(q))
            << "variant " << v << " cell " << i << " q " << q;
        EXPECT_EQ(got.slowdown_tail.quantile(q), want.slowdown_tail.quantile(q))
            << "variant " << v << " cell " << i << " q " << q;
        EXPECT_EQ(got.completion_gap_tail.quantile(q), want.completion_gap_tail.quantile(q))
            << "variant " << v << " cell " << i << " q " << q;
      }
      EXPECT_EQ(got.turnaround_tail.sum(), want.turnaround_tail.sum());
      EXPECT_EQ(got.decayed_utilization.mean(), want.decayed_utilization.mean());
    }
  }
}

TEST(ExperimentRunner, CellEventCountsArePopulated) {
  NamedConfig cell;
  cell.label = "events";
  cell.config.grid =
      grid::GridConfig::preset(grid::Heterogeneity::kHet, grid::AvailabilityLevel::kHigh);
  cell.config.workload =
      sim::make_paper_workload(cell.config.grid, 25000.0, workload::Intensity::kLow, 10);
  cell.config.policy = sched::PolicyKind::kFcfsShare;
  cell.config.warmup_bots = 2;
  RunOptions options;
  options.min_replications = 2;
  options.max_replications = 2;
  options.threads = 1;
  const std::vector<CellResult> results = ExperimentRunner(options).run({cell});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_GT(results[0].events_executed, 0u);
  EXPECT_EQ(results[0].replications, 2u);
}

TEST(RunOptions, EnvOverridesApply) {
  ::setenv("DGSCHED_MIN_REPS", "4", 1);
  ::setenv("DGSCHED_MAX_REPS", "9", 1);
  ::setenv("DGSCHED_TRE", "0.1", 1);
  ::setenv("DGSCHED_SEED", "123", 1);
  ::setenv("DGSCHED_JOURNAL", "runs/campaign.journal", 1);
  const RunOptions options = RunOptions::from_env();
  EXPECT_EQ(options.min_replications, 4u);
  EXPECT_EQ(options.max_replications, 9u);
  EXPECT_DOUBLE_EQ(options.target_relative_error, 0.1);
  EXPECT_EQ(options.base_seed, 123u);
  EXPECT_EQ(options.journal_path, "runs/campaign.journal");
  ::unsetenv("DGSCHED_MIN_REPS");
  ::unsetenv("DGSCHED_MAX_REPS");
  ::unsetenv("DGSCHED_TRE");
  ::unsetenv("DGSCHED_SEED");
  ::unsetenv("DGSCHED_JOURNAL");
  EXPECT_TRUE(RunOptions::from_env().journal_path.empty());  // default: no journal
}

TEST(RunOptions, MaxClampedToMin) {
  ::setenv("DGSCHED_MIN_REPS", "10", 1);
  ::setenv("DGSCHED_MAX_REPS", "2", 1);
  const RunOptions options = RunOptions::from_env();
  EXPECT_EQ(options.max_replications, 10u);
  ::unsetenv("DGSCHED_MIN_REPS");
  ::unsetenv("DGSCHED_MAX_REPS");
}

TEST(RunOptions, WorkspaceAndBatchEnvOverrides) {
  ::setenv("DGSCHED_WORKSPACES", "0", 1);
  ::setenv("DGSCHED_BATCH", "16", 1);
  const RunOptions options = RunOptions::from_env();
  EXPECT_FALSE(options.reuse_workspaces);
  EXPECT_EQ(options.batch_size, 16u);
  ::unsetenv("DGSCHED_WORKSPACES");
  ::unsetenv("DGSCHED_BATCH");
  EXPECT_TRUE(RunOptions::from_env().reuse_workspaces);
}

void expect_env_rejected(const char* name, const char* value) {
  ::setenv(name, value, 1);
  try {
    (void)RunOptions::from_env();
    ADD_FAILURE() << name << "=" << value << " was accepted";
  } catch (const std::invalid_argument& error) {
    // The message must name the offending variable and echo the bad value.
    EXPECT_NE(std::string(error.what()).find(name), std::string::npos) << error.what();
    EXPECT_NE(std::string(error.what()).find(value), std::string::npos) << error.what();
  }
  ::unsetenv(name);
}

TEST(RunOptions, MalformedEnvFailsWithClearMessage) {
  expect_env_rejected("DGSCHED_TRE", "abc");
  expect_env_rejected("DGSCHED_TRE", "1.5x");
  expect_env_rejected("DGSCHED_MAX_REPS", "-3");
  expect_env_rejected("DGSCHED_MAX_REPS", "twelve");
  expect_env_rejected("DGSCHED_MIN_REPS", "3.5");
  expect_env_rejected("DGSCHED_BATCH", "12x");
  expect_env_rejected("DGSCHED_SEED", "0xzz");
  expect_env_rejected("DGSCHED_QUEUE", "ladder");
  expect_env_rejected("DGSCHED_QUEUE", "Heap4");
  // Integers are plain digit runs: std::stoull alone would skip the blank
  // and wrap " -1" to 2^64 - 1 threads. Only parsed here — never used to
  // build a runner or a thread pool.
  expect_env_rejected("DGSCHED_THREADS", " -1");
  expect_env_rejected("DGSCHED_THREADS", "-1");
  expect_env_rejected("DGSCHED_BATCH", "+7");
  expect_env_rejected("DGSCHED_MIN_REPS", " 3");
  expect_env_rejected("DGSCHED_MAX_REPS", "3 ");
  // A relative-error target must be a finite positive number: nan, inf and
  // non-positive values would run every cell to the replication cap.
  expect_env_rejected("DGSCHED_TRE", "nan");
  expect_env_rejected("DGSCHED_TRE", "inf");
  expect_env_rejected("DGSCHED_TRE", "-inf");
  expect_env_rejected("DGSCHED_TRE", "-0.5");
  expect_env_rejected("DGSCHED_TRE", "0");
  expect_env_rejected("DGSCHED_TRE", "-0.0");
}

TEST(RunOptions, QueueBackendEnvOverride) {
  EXPECT_FALSE(RunOptions::from_env().queue_backend.has_value());
  ::setenv("DGSCHED_QUEUE", "calendar", 1);
  EXPECT_EQ(RunOptions::from_env().queue_backend, des::QueueBackend::kCalendar);
  ::setenv("DGSCHED_QUEUE", "heap4", 1);
  EXPECT_EQ(RunOptions::from_env().queue_backend, des::QueueBackend::kHeap4);
  ::unsetenv("DGSCHED_QUEUE");
}

TEST(ExperimentRunner, AdaptiveRoundsBitIdenticalAcrossThreadsAndBatch) {
  // Cells that stop at different replication counts (max > min with a
  // reachable precision target) must fold cell-for-cell identically across
  // thread counts and batch shapes — each summary folds in per-cell
  // replication order whatever worker delivers it. Volatile grid so machine
  // failures shape every replication.
  sim::SimulationConfig volatile_config = tiny_config(sched::PolicyKind::kRoundRobin, 6);
  volatile_config.grid =
      grid::GridConfig::preset(grid::Heterogeneity::kHet, grid::AvailabilityLevel::kLow);
  volatile_config.workload = sim::make_paper_workload(volatile_config.grid, 25000.0,
                                                      workload::Intensity::kLow, 6);
  sim::SimulationConfig stable_config = volatile_config;
  stable_config.policy = sched::PolicyKind::kFcfsShare;
  sim::SimulationConfig third_config = volatile_config;
  third_config.policy = sched::PolicyKind::kLongIdle;
  const std::vector<NamedConfig> cells = {
      {"rr", volatile_config}, {"fcfs", stable_config}, {"li", third_config}};

  struct Variant {
    std::size_t threads;
    std::size_t batch;
  };
  const Variant variants[] = {{1, 1}, {3, 1}, {3, 5}, {2, 0}, {4, 2}};

  std::vector<std::vector<CellResult>> runs;
  for (const Variant& variant : variants) {
    RunOptions options;
    options.min_replications = 2;
    options.max_replications = 4;
    options.target_relative_error = 0.08;
    options.threads = variant.threads;
    options.batch_size = variant.batch;
    runs.push_back(ExperimentRunner(options).run(cells));
  }

  const std::vector<CellResult>& reference = runs.front();
  for (std::size_t v = 1; v < runs.size(); ++v) {
    ASSERT_EQ(runs[v].size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      const CellResult& got = runs[v][i];
      const CellResult& want = reference[i];
      EXPECT_EQ(got.replications, want.replications) << "variant " << v << " cell " << i;
      EXPECT_EQ(got.turnaround.stats().mean(), want.turnaround.stats().mean())
          << "variant " << v << " cell " << i;
      EXPECT_EQ(got.waiting.mean(), want.waiting.mean()) << "variant " << v << " cell " << i;
      EXPECT_EQ(got.events_executed, want.events_executed) << "variant " << v << " cell " << i;
      for (double q : {0.5, 0.95, 0.99}) {
        EXPECT_EQ(got.turnaround_tail.quantile(q), want.turnaround_tail.quantile(q))
            << "variant " << v << " cell " << i << " q " << q;
        EXPECT_EQ(got.slowdown_tail.quantile(q), want.slowdown_tail.quantile(q))
            << "variant " << v << " cell " << i << " q " << q;
        EXPECT_EQ(got.completion_gap_tail.quantile(q), want.completion_gap_tail.quantile(q))
            << "variant " << v << " cell " << i << " q " << q;
      }
      EXPECT_EQ(got.turnaround_tail.sum(), want.turnaround_tail.sum())
          << "variant " << v << " cell " << i;
    }
  }
}

TEST(ExperimentRunner, PipelinedAndBarrierShapesAreBitIdentical) {
  // The barrier-free scheduler's core contract (PR 10): pipelined hand-out
  // with any speculation window must be cell-for-cell bit-identical to the
  // historical barrier rounds — including the adaptive round structure
  // (max > min with a reachable precision target, so cells stop at
  // different replication counts and speculative summaries get discarded).
  sim::SimulationConfig volatile_config = tiny_config(sched::PolicyKind::kRoundRobin, 6);
  volatile_config.grid =
      grid::GridConfig::preset(grid::Heterogeneity::kHet, grid::AvailabilityLevel::kLow);
  volatile_config.workload = sim::make_paper_workload(volatile_config.grid, 25000.0,
                                                      workload::Intensity::kLow, 6);
  sim::SimulationConfig stable_config = volatile_config;
  stable_config.policy = sched::PolicyKind::kFcfsShare;
  sim::SimulationConfig third_config = volatile_config;
  third_config.policy = sched::PolicyKind::kLongIdle;
  const std::vector<NamedConfig> cells = {
      {"rr", volatile_config}, {"fcfs", stable_config}, {"li", third_config}};

  struct Variant {
    bool pipeline;
    std::size_t speculate;
    std::size_t threads;
    std::size_t batch;
  };
  const Variant variants[] = {
      {false, 0, 1, 0},  // barrier reference, single worker
      {false, 0, 4, 0},  // barrier, parallel
      {true, 0, 3, 0},   // pipelined, no speculation
      {true, 1, 3, 0},   // default shape
      {true, 4, 3, 0},   // deep speculation: discards must be silent
      {true, 4, 1, 1},   // speculation + singleton chunks
      {true, 4, 4, 3},   // speculation + batching + parallelism
  };

  std::vector<std::vector<CellResult>> runs;
  for (const Variant& variant : variants) {
    RunOptions options;
    options.min_replications = 2;
    options.max_replications = 4;
    options.target_relative_error = 0.08;
    options.pipeline = variant.pipeline;
    options.speculate = variant.speculate;
    options.threads = variant.threads;
    options.batch_size = variant.batch;
    runs.push_back(ExperimentRunner(options).run(cells));
  }

  const std::vector<CellResult>& reference = runs.front();
  for (std::size_t v = 1; v < runs.size(); ++v) {
    ASSERT_EQ(runs[v].size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      const CellResult& got = runs[v][i];
      const CellResult& want = reference[i];
      EXPECT_EQ(got.replications, want.replications) << "variant " << v << " cell " << i;
      EXPECT_EQ(got.turnaround.stats().mean(), want.turnaround.stats().mean())
          << "variant " << v << " cell " << i;
      EXPECT_EQ(got.turnaround.stats().variance(), want.turnaround.stats().variance())
          << "variant " << v << " cell " << i;
      EXPECT_EQ(got.waiting.mean(), want.waiting.mean()) << "variant " << v << " cell " << i;
      EXPECT_EQ(got.events_executed, want.events_executed) << "variant " << v << " cell " << i;
      for (double q : {0.5, 0.95, 0.99}) {
        EXPECT_EQ(got.turnaround_tail.quantile(q), want.turnaround_tail.quantile(q))
            << "variant " << v << " cell " << i << " q " << q;
        EXPECT_EQ(got.slowdown_tail.quantile(q), want.slowdown_tail.quantile(q))
            << "variant " << v << " cell " << i << " q " << q;
      }
      EXPECT_EQ(got.turnaround_tail.sum(), want.turnaround_tail.sum())
          << "variant " << v << " cell " << i;
    }
  }
}

TEST(ExperimentRunner, ExecStatsAccountForEveryReplication) {
  RunOptions options;
  options.min_replications = 3;
  options.max_replications = 3;
  options.threads = 2;
  ExperimentRunner runner(options);
  const auto results = runner.run({{"a", tiny_config(sched::PolicyKind::kFcfsShare)},
                                   {"b", tiny_config(sched::PolicyKind::kRoundRobin)}});
  const ExecutionStats& exec = runner.exec_stats();
  ASSERT_EQ(exec.lanes.size(), 2u);
  EXPECT_EQ(exec.committed, 6u);  // 2 cells x 3 replications, all folded
  EXPECT_GE(exec.launched, exec.committed);
  EXPECT_EQ(exec.launched, exec.committed + exec.discarded);
  EXPECT_EQ(exec.recovered, 0u);
  std::uint64_t lane_jobs = 0;
  for (const WorkerLaneStats& lane : exec.lanes) lane_jobs += lane.jobs;
  EXPECT_EQ(lane_jobs, exec.launched);  // every launched job ran on some lane
  EXPECT_GT(exec.wall_s, 0.0);
  EXPECT_GT(exec.busy_s(), 0.0);
  (void)results;
}

TEST(RunOptions, PipelineAndSpeculateEnvOverrides) {
  EXPECT_TRUE(RunOptions::from_env().pipeline);     // default on
  EXPECT_EQ(RunOptions::from_env().speculate, 1u);  // default window
  ::setenv("DGSCHED_PIPELINE", "0", 1);
  ::setenv("DGSCHED_SPECULATE", "4", 1);
  const RunOptions options = RunOptions::from_env();
  EXPECT_FALSE(options.pipeline);
  EXPECT_EQ(options.speculate, 4u);
  ::setenv("DGSCHED_PIPELINE", "1", 1);
  ::setenv("DGSCHED_SPECULATE", "0", 1);
  EXPECT_TRUE(RunOptions::from_env().pipeline);
  EXPECT_EQ(RunOptions::from_env().speculate, 0u);
  ::unsetenv("DGSCHED_PIPELINE");
  ::unsetenv("DGSCHED_SPECULATE");
}

TEST(RunOptions, MalformedPipelineEnvFailsWithClearMessage) {
  expect_env_rejected("DGSCHED_PIPELINE", "yes");
  expect_env_rejected("DGSCHED_PIPELINE", "on");
  expect_env_rejected("DGSCHED_SPECULATE", "-1");
  expect_env_rejected("DGSCHED_SPECULATE", "2.5");
  expect_env_rejected("DGSCHED_SPECULATE", "deep");
}

TEST(ExperimentRunner, RunnerQueueBackendOverrideMatchesDefault) {
  // Forcing the calendar backend through RunOptions must leave every cell
  // metric bit-identical — the backend only changes queue-maintenance cost.
  const std::vector<NamedConfig> cells = {{"cell", tiny_config(sched::PolicyKind::kRoundRobin)}};
  RunOptions options;
  options.min_replications = 2;
  options.max_replications = 2;
  options.threads = 2;
  const auto baseline = ExperimentRunner(options).run(cells);
  options.queue_backend = des::QueueBackend::kCalendar;
  const auto calendar = ExperimentRunner(options).run(cells);
  EXPECT_EQ(calendar[0].turnaround.stats().mean(), baseline[0].turnaround.stats().mean());
  EXPECT_EQ(calendar[0].events_executed, baseline[0].events_executed);
  EXPECT_EQ(calendar[0].turnaround_tail.sum(), baseline[0].turnaround_tail.sum());
}

TEST(EnvNumBots, ReadsOverride) {
  ::setenv("DGSCHED_BOTS", "42", 1);
  EXPECT_EQ(env_num_bots().value(), 42u);
  ::unsetenv("DGSCHED_BOTS");
  EXPECT_FALSE(env_num_bots().has_value());
}

// --- figure specs ---

TEST(FigureSpecs, Figure1HasFourPanelsAtHighAvail) {
  const FigureSpec spec = figure1_spec();
  EXPECT_EQ(spec.availability, grid::AvailabilityLevel::kHigh);
  EXPECT_EQ(spec.panels.size(), 4u);
  EXPECT_EQ(spec.granularities.size(), 4u);
  EXPECT_EQ(spec.policies.size(), 5u);
}

TEST(FigureSpecs, Figure2IsLowAvail) {
  EXPECT_EQ(figure2_spec().availability, grid::AvailabilityLevel::kLow);
}

TEST(FigureSpecs, UnreportedIsMedAvailMedIntensity) {
  const FigureSpec spec = unreported_spec();
  EXPECT_EQ(spec.availability, grid::AvailabilityLevel::kMed);
  for (const PanelSpec& panel : spec.panels) {
    EXPECT_EQ(panel.intensity, workload::Intensity::kMed);
  }
}

TEST(FigureCells, MatrixSizeAndLabels) {
  const FigureSpec spec = figure1_spec();
  const auto cells = figure_cells(spec);
  EXPECT_EQ(cells.size(), 4u * 4u * 5u);
  EXPECT_NE(cells[0].label.find("Hom-HighAvail"), std::string::npos);
  EXPECT_NE(cells[0].label.find("FCFS-Excl"), std::string::npos);
  EXPECT_NE(cells[0].label.find("g=1000"), std::string::npos);
}

TEST(FigureCells, ConfigsCarryPanelSettings) {
  FigureSpec spec = figure2_spec();
  spec.num_bots = 17;
  const auto cells = figure_cells(spec);
  for (const NamedConfig& cell : cells) {
    EXPECT_EQ(cell.config.workload.num_bots, 17u);
    EXPECT_NEAR(cell.config.grid.availability.availability(), 0.5, 1e-9);
  }
  // Intensity is reflected in the arrival rate: last panel (High) has a
  // higher rate than the first (Low) at equal granularity.
  EXPECT_GT(cells.back().config.workload.arrival_rate, cells.front().config.workload.arrival_rate);
}

TEST(RenderFigure, ProducesTablesAndCsv) {
  FigureSpec spec;
  spec.title = "Test figure";
  spec.availability = grid::AvailabilityLevel::kHigh;
  spec.panels = {{grid::Heterogeneity::kHom, workload::Intensity::kLow}};
  spec.granularities = {1000.0};
  spec.policies = {sched::PolicyKind::kFcfsShare, sched::PolicyKind::kRoundRobin};

  std::vector<CellResult> results(2);
  results[0].label = "a";
  results[0].turnaround.add(100.0);
  results[0].turnaround.add(102.0);
  results[1].label = "b";
  results[1].turnaround.add(500.0);
  results[1].turnaround.add(501.0);
  results[1].saturated_replications = 1;

  std::ostringstream os, csv;
  render_figure(spec, results, os, &csv);
  const std::string text = os.str();
  EXPECT_NE(text.find("Test figure"), std::string::npos);
  EXPECT_NE(text.find("FCFS-Share"), std::string::npos);
  EXPECT_NE(text.find("101"), std::string::npos);   // mean of cell a
  EXPECT_NE(text.find("SAT"), std::string::npos);   // saturation marker
  const std::string csv_text = csv.str();
  EXPECT_NE(csv_text.find("mean_turnaround"), std::string::npos);
  EXPECT_NE(csv_text.find("RR"), std::string::npos);
}

}  // namespace
}  // namespace dg::exp
