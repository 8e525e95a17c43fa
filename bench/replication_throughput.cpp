// Replication-throughput suite: emits BENCH_replications.json.
//
// Measures the experiment runner end to end: completed replications per
// wall-clock second over the Figure 1 cell matrix (scaled down via
// DGSCHED_BOTS), swept across pool thread counts from 1 to hardware
// concurrency (record replication/throughput/workspace; each worker runs
// its replications through its own reusable SimulationWorkspace).
//
// It also meters global operator-new calls per replication (this binary
// installs the allocation interposer), both across each full sweep and for
// steady-state single-workspace replications after warmup — the latter is
// the "allocations/replication ~= 0" contract asserted by
// tests/test_alloc_free.cpp. Results use the bench/perf_json.hpp schema
// (replications_per_sec / threads / allocs_per_replication fields).
//
// Usage: ./replication_throughput [output_dir]   # default: cwd
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "exp/paper.hpp"
#include "exp/runner.hpp"
#include "sim/simulation.hpp"
#include "sim/workspace.hpp"
#include "util/alloc_interposer.hpp"

#include "perf_json.hpp"

DG_DEFINE_ALLOC_INTERPOSER();

namespace {

using dg::bench::PerfRecord;
using dg::bench::Stopwatch;

std::uint64_t allocs_now() {
  return dg::util::alloc_count().load(std::memory_order_relaxed);
}

/// Scaled-down Figure 1 cell matrix: the real policy x granularity x panel
/// grid, fewer bags per cell so a sweep finishes in seconds.
std::vector<dg::exp::NamedConfig> bench_cells() {
  dg::exp::FigureSpec spec = dg::exp::figure1_spec();
  spec.num_bots = dg::exp::env_num_bots().value_or(8);
  spec.warmup_bots = std::min<std::size_t>(spec.warmup_bots, spec.num_bots / 4);
  return dg::exp::figure_cells(spec);
}

void fill_exec_stats(PerfRecord& record, const dg::exp::ExecutionStats& stats) {
  record.worker_busy_s = stats.busy_s();
  record.worker_stall_s = stats.stall_s();
  record.spec_launched = stats.launched;
  record.spec_committed = stats.committed;
  record.spec_discarded = stats.discarded;
}

/// One timed runner sweep: fixed replication count per cell (no CI loop, so
/// every thread count does identical work), returns (replications/s,
/// allocs/rep).
PerfRecord timed_sweep(const std::vector<dg::exp::NamedConfig>& cells, std::size_t threads,
                       std::size_t reps) {
  dg::exp::RunOptions options;
  options.min_replications = reps;
  options.max_replications = reps;
  options.threads = threads;

  const std::uint64_t allocs_before = allocs_now();
  Stopwatch timer;
  dg::exp::ExperimentRunner runner(options);
  const auto results = runner.run(cells);
  const double wall = timer.seconds();
  const std::uint64_t allocs = allocs_now() - allocs_before;

  std::size_t replications = 0;
  std::uint64_t events = 0;
  for (const dg::exp::CellResult& cell : results) {
    replications += cell.replications;
    events += cell.events_executed;
  }

  PerfRecord record;
  record.benchmark = "replication/throughput/workspace";
  record.config = "fig1 cells x" + std::to_string(cells.size()) + ", bots=" +
                  std::to_string(cells.front().config.workload.num_bots) + ", reps=" +
                  std::to_string(reps);
  record.threads = threads;
  record.wall_s = wall;
  record.replications_per_sec =
      wall > 0.0 ? static_cast<double>(replications) / wall : 0.0;
  record.events_per_sec = wall > 0.0 ? static_cast<double>(events) / wall : 0.0;
  record.allocs_per_replication =
      replications > 0 ? static_cast<double>(allocs) / static_cast<double>(replications) : 0.0;
  record.peak_rss_kb = dg::bench::peak_rss_kb();
  fill_exec_stats(record, runner.exec_stats());
  std::printf("  %-34s %2zu thr  %8.1f reps/s  %10.1f allocs/rep  (%.2f s)\n",
              record.benchmark.c_str(), threads, record.replications_per_sec,
              record.allocs_per_replication, wall);
  return record;
}

/// Steady-state allocations per replication through one warmed workspace
/// (and, for contrast, fresh construction) on a single mid-size cell.
std::vector<PerfRecord> steady_state_allocs() {
  dg::sim::SimulationConfig config;
  config.grid = dg::grid::GridConfig::preset(dg::grid::Heterogeneity::kHom,
                                             dg::grid::AvailabilityLevel::kHigh);
  config.workload = dg::sim::make_paper_workload(config.grid, 25000.0,
                                                 dg::workload::Intensity::kLow, 10);
  config.policy = dg::sched::PolicyKind::kFcfsShare;
  config.seed = 7;
  constexpr int kMeasured = 5;

  std::vector<PerfRecord> records;
  {
    dg::sim::SimulationWorkspace workspace;
    (void)dg::sim::Simulation(config).run(workspace);  // warm
    const std::uint64_t before = allocs_now();
    Stopwatch timer;
    for (int i = 0; i < kMeasured; ++i) (void)dg::sim::Simulation(config).run(workspace);
    PerfRecord record;
    record.benchmark = "replication/steady_allocs/workspace";
    record.config = "HomHigh g=25000 bots=10, warmed, 5 reps";
    record.seed = config.seed;
    record.threads = 1;
    record.wall_s = timer.seconds();
    record.replications_per_sec = kMeasured / record.wall_s;
    record.allocs_per_replication = static_cast<double>(allocs_now() - before) / kMeasured;
    record.peak_rss_kb = dg::bench::peak_rss_kb();
    records.push_back(record);
  }
  {
    const std::uint64_t before = allocs_now();
    Stopwatch timer;
    for (int i = 0; i < kMeasured; ++i) (void)dg::sim::Simulation(config).run();
    PerfRecord record;
    record.benchmark = "replication/steady_allocs/baseline";
    record.config = "HomHigh g=25000 bots=10, fresh construction, 5 reps";
    record.seed = config.seed;
    record.threads = 1;
    record.wall_s = timer.seconds();
    record.replications_per_sec = kMeasured / record.wall_s;
    record.allocs_per_replication = static_cast<double>(allocs_now() - before) / kMeasured;
    record.peak_rss_kb = dg::bench::peak_rss_kb();
    records.push_back(record);
  }
  for (const PerfRecord& record : records) {
    std::printf("  %-34s %10.1f allocs/rep  (%.2f s)\n", record.benchmark.c_str(),
                record.allocs_per_replication, record.wall_s);
  }
  return records;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_dir = argc > 1 ? argv[1] : ".";
  const std::vector<dg::exp::NamedConfig> cells = bench_cells();
  const std::size_t reps = 3;

  // 1, 2, 4, ... hardware_concurrency (deduplicated, always includes both
  // endpoints). DGSCHED_THREADS overrides the top of the sweep — e.g. the
  // TSan CI job oversubscribes a small runner to force worker interleaving.
  std::vector<std::size_t> thread_counts;
  const std::size_t hw = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t env_threads = dg::exp::RunOptions::from_env().threads;
  const std::size_t top = env_threads != 0 ? env_threads : hw;
  for (std::size_t t = 1; t < top; t *= 2) thread_counts.push_back(t);
  thread_counts.push_back(top);

  std::cout << "replication throughput: " << cells.size() << " fig1 cells, " << reps
            << " reps each, threads 1.." << top << "\n";

  std::vector<PerfRecord> records;
  for (const std::size_t threads : thread_counts) {
    records.push_back(timed_sweep(cells, threads, reps));
  }

  for (PerfRecord& record : steady_state_allocs()) records.push_back(record);

  const std::string path = out_dir + "/BENCH_replications.json";
  std::ofstream os(path);
  dg::bench::write_perf_json(os, records);
  std::cout << "wrote " << path << "\n";
  return 0;
}
