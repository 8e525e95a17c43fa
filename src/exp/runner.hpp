// Experiment runner: scenario matrices with parallel replications.
//
// Each cell (one simulation configuration) is replicated with independent
// seeds until its 95% CI on mean turnaround reaches the target relative error
// (the paper's 2.5%) or the replication cap. Replications of all cells run
// concurrently on a thread pool; every simulation is fully independent, and
// summaries fold through the PipelineState ordered commit (pipeline.hpp), so
// results are bit-identical for any thread count or completion order. With
// RunOptions::journal_path set, every committed replication is journaled
// (exp/journal.hpp) and a killed campaign resumes where it stopped.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "des/queue_policy.hpp"
#include "sim/simulation.hpp"
#include "stats/confidence.hpp"

namespace dg::exp {

struct RunOptions {
  std::size_t min_replications = 3;
  std::size_t max_replications = 12;
  double ci_level = 0.95;
  /// Paper target: 0.025. Benches default looser for wall-clock reasons; set
  /// DGSCHED_TRE=0.025 to match the paper.
  double target_relative_error = 0.05;
  std::uint64_t base_seed = 0x5eedULL;
  /// 0 = hardware concurrency.
  std::size_t threads = 0;
  /// Run replications through one reusable sim::SimulationWorkspace per pool
  /// worker (the zero-allocation path; see sim/workspace.hpp). Off =
  /// historical fresh-construction per replication. Either way the results
  /// are bit-identical.
  bool reuse_workspaces = true;
  /// Replications per submitted pool job; 0 = auto (about four jobs per
  /// worker per round). Batching amortizes queue/future overhead without
  /// hurting balance — jobs are handed out largest-expected-cost first.
  std::size_t batch_size = 0;
  /// DES event-queue backend forced on every cell; nullopt keeps each cell's
  /// own setting (usually the DGSCHED_QUEUE CMake/env default). Backends are
  /// bit-identical (see des/queue_policy.hpp).
  std::optional<des::QueueBackend> queue_backend;
  /// Barrier-free execution (see exp/pipeline.hpp): jobs are handed out
  /// continuously and each summary folds the moment its per-cell
  /// predecessors have committed, so workers never drain-and-wait at a
  /// round boundary. Off = the historical barrier-synchronized rounds.
  /// Results, artifacts, and journal bytes are bit-identical either way.
  bool pipeline = true;
  /// Replications launched beyond each cell's justified precision frontier
  /// (pipelined mode only; 0 disables). Common-random-numbers seeding makes
  /// replication (cell, k) deterministic regardless of execution shape, so
  /// summaries for cells that prove precise first are simply discarded —
  /// speculation trades wasted work for never idling at a precision check.
  std::size_t speculate = 1;
  /// Completion journal (exp/journal.hpp); empty = no journal. When set,
  /// run() resumes from the file's valid record prefix and appends every
  /// further replication in canonical order, fsync'd as it lands. A
  /// deployment setting like `threads`: it is not part of the campaign
  /// signature, so a journal can move between paths.
  std::string journal_path;

  /// Reads DGSCHED_{MIN_REPS,MAX_REPS,TRE,THREADS,SEED,WORKSPACES,BATCH,
  /// QUEUE,PIPELINE,SPECULATE,JOURNAL} overrides. Malformed values
  /// (including a non-positive DGSCHED_TRE) raise std::invalid_argument
  /// naming the offending variable.
  [[nodiscard]] static RunOptions from_env(RunOptions defaults);
  [[nodiscard]] static RunOptions from_env() { return from_env(RunOptions{}); }
};

/// Env override for workload sizes used by the figure benches (DGSCHED_BOTS).
[[nodiscard]] std::optional<std::size_t> env_num_bots();

// Environment-knob helpers shared by the figure and campaign drivers: read a
// DGSCHED_* variable, returning nullopt when unset/empty. Malformed values
// raise std::invalid_argument naming the variable and the offending text —
// the same convention RunOptions::from_env follows. env_size accepts only a
// plain run of decimal digits (no sign, no blanks); env_double accepts only
// finite numbers.
[[nodiscard]] std::optional<std::string> env_string(const char* name);
[[nodiscard]] std::optional<double> env_double(const char* name);
[[nodiscard]] std::optional<std::size_t> env_size(const char* name);
/// Throws the convention's std::invalid_argument for `name` set to `text`.
[[noreturn]] void bad_env(const char* name, const std::string& text, const char* expected);

struct NamedConfig {
  std::string label;
  sim::SimulationConfig config;  // seed is overwritten per replication
};

/// Wall-clock accounting for one execution lane (a pool worker thread).
/// busy_s is time spent executing replications; stall_s is time spent
/// waiting for launchable work (the straggler/barrier penalty the pipelined
/// scheduler removes).
struct WorkerLaneStats {
  double busy_s = 0.0;
  double stall_s = 0.0;
  std::uint64_t jobs = 0;
};

/// Execution-shape observability for one run(): how the campaign actually
/// executed (lane utilization, speculation economics), as opposed to what it
/// computed. Threaded into perf_json and the robustness-campaign banner.
struct ExecutionStats {
  std::vector<WorkerLaneStats> lanes;
  double wall_s = 0.0;
  std::uint64_t launched = 0;   ///< replications handed to the ready queue
  std::uint64_t committed = 0;  ///< summaries folded into cell accumulators
  std::uint64_t discarded = 0;  ///< speculative summaries dropped unfolded
  std::uint64_t recovered = 0;  ///< replications replayed from the journal

  [[nodiscard]] double busy_s() const noexcept {
    double total = 0.0;
    for (const WorkerLaneStats& lane : lanes) total += lane.busy_s;
    return total;
  }
  [[nodiscard]] double stall_s() const noexcept {
    double total = 0.0;
    for (const WorkerLaneStats& lane : lanes) total += lane.stall_s;
    return total;
  }
};

struct CellResult {
  std::string label;
  sim::SimulationConfig config;
  stats::ReplicationAnalyzer turnaround{0.95, 0.025, 3};
  stats::OnlineStats waiting;
  stats::OnlineStats makespan;
  stats::OnlineStats utilization;
  stats::OnlineStats wasted_fraction;
  stats::OnlineStats lost_work;
  /// Merged tail sketches across the cell's replications (exact bucket-count
  /// addition, so the merged p50/p95/p99 are bit-identical regardless of
  /// thread count or batch shape — see docs/METRICS.md). The turnaround /
  /// slowdown sketches pool every measured bag of every replication; the gap
  /// sketch pools every completion gap.
  stats::QuantileSketch turnaround_tail;
  stats::QuantileSketch slowdown_tail;
  stats::QuantileSketch completion_gap_tail;
  /// Per-replication end-of-run decayed busy fraction
  /// (SimulationResult::decayed_utilization).
  stats::OnlineStats decayed_utilization;
  // Checkpoint-server fault/recovery counters (all zero for a reliable
  // server); per-replication means of the SimulationResult::faults fields.
  stats::OnlineStats transfer_retries;
  stats::OnlineStats replicas_degraded;
  stats::OnlineStats server_downtime;
  /// Total DES events executed across the cell's replications (raw count, not
  /// a mean) — the numerator of events-per-second throughput reporting.
  std::uint64_t events_executed = 0;
  std::size_t replications = 0;
  std::size_t saturated_replications = 0;

  [[nodiscard]] bool saturated() const noexcept { return saturated_replications > 0; }
  [[nodiscard]] stats::ConfidenceInterval turnaround_ci() const {
    return turnaround.interval();
  }
};

/// Thread-safety: run() is internally parallel (replications fan out over a
/// util::ThreadPool of options().threads workers, each running jobs through
/// its private SimulationWorkspace) but the runner itself is not re-entrant
/// — one run() at a time per instance. Scheduling is barrier-free (see
/// exp/pipeline.hpp): workers pull jobs from a shared PipelineState and
/// deliver summaries into its per-cell reorder buffers under one mutex; each
/// summary folds the moment its per-cell predecessors have committed, in
/// cell order / ascending replication order — the exact accumulator
/// sequences of a sequential run, regardless of worker completion order,
/// speculation window, batch shape, or thread count. Journal appends happen
/// under that mutex; the fsync that makes them durable never does.
class ExperimentRunner {
 public:
  explicit ExperimentRunner(RunOptions options) : options_(options) {}

  /// Runs every cell to its precision target; cell order is preserved.
  /// Replication `i` of every cell uses seed mix_seed(base_seed, i) —
  /// deliberately independent of the cell, so cells are compared under
  /// common random numbers: every policy cell samples the same world.
  [[nodiscard]] std::vector<CellResult> run(const std::vector<NamedConfig>& cells);

  [[nodiscard]] const RunOptions& options() const noexcept { return options_; }

  /// Execution-shape accounting for the most recent run().
  [[nodiscard]] const ExecutionStats& exec_stats() const noexcept { return exec_stats_; }

 private:
  RunOptions options_;
  ExecutionStats exec_stats_;
};

}  // namespace dg::exp
