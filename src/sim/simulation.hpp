// One complete simulation run: grid + workload + scheduler + engine.
//
// Simulation owns every component, wires the notification paths, schedules
// bag submissions as arrival events, runs to completion (or to the saturation
// horizon) and returns a SimulationResult with per-bag records and aggregate
// metrics. Runs are bitwise deterministic for a given (config, seed), and the
// workload / machine processes depend only on the seed — not on the policy —
// so policies can be compared under common random numbers.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "des/event.hpp"
#include "des/queue_policy.hpp"
#include "grid/desktop_grid.hpp"
#include "grid/trace.hpp"
#include "sched/individual.hpp"
#include "sched/policy.hpp"
#include "sched/sched_stats.hpp"
#include "sim/adversary.hpp"
#include "sim/fault_tolerance.hpp"
#include "stats/online_stats.hpp"
#include "stats/quantile_sketch.hpp"
#include "workload/generator.hpp"

namespace dg::sim {

struct SimulationConfig {
  grid::GridConfig grid;
  workload::WorkloadConfig workload;
  sched::PolicyKind policy = sched::PolicyKind::kFcfsShare;
  sched::IndividualSchedulerKind individual = sched::IndividualSchedulerKind::kWqrFt;
  /// Replication threshold override; 0 keeps the individual scheduler's
  /// default (2 for WQR/WQR-FT). Ignored by FCFS-Excl (unlimited).
  int replication_threshold = 0;
  /// Use the adaptive threshold controller (future-work extension 2a).
  bool dynamic_replication = false;
  std::uint64_t seed = 1;
  /// Retry/backoff policy for checkpoint transfers; only consulted when
  /// `grid.checkpoint_server_faults` is enabled (or the adversary forces
  /// server downtime).
  TransferRetryPolicy checkpoint_retry{};
  /// Adversarial scenario director (see sim/adversary.hpp): deterministic
  /// stress windows where arrival bursts, correlated machine outages, and
  /// checkpoint-server downtime coincide. Disabled (the default) leaves the
  /// run bit-identical to a config without the field — its RNG stream is
  /// derived only when enabled. Requires Poisson arrivals and no trace_bots.
  AdversarialScenario adversary{};
  /// Hard stop; 0 = auto (comfortably past the last arrival plus drain time).
  /// Hitting it with incomplete bags marks the run saturated.
  double max_sim_time = 0.0;
  /// Bags (in arrival order) excluded from the aggregate statistics to damp
  /// the empty-system transient.
  std::size_t warmup_bots = 0;

  /// Replay this submission stream instead of sampling from `workload`
  /// (which then only matters for reporting). See workload/trace.hpp.
  std::shared_ptr<const std::vector<workload::BotSpec>> trace_bots;
  /// Replay machine availability from this trace instead of the stochastic
  /// Weibull/normal processes. `grid.availability` should still describe the
  /// trace's statistics — it sizes the checkpoint interval and arrival-rate
  /// math. See grid/trace.hpp.
  std::shared_ptr<const grid::AvailabilityTrace> availability_trace;

  /// Sampling period of the queue monitor (active bags / busy machines time
  /// series); 0 = auto (~512 samples across the horizon).
  double monitor_interval = 0.0;

  /// DES event-queue backend for this run; nullopt keeps whatever the
  /// simulator (or workspace) was constructed with — the DGSCHED_QUEUE
  /// CMake/env default. Backends are bit-identical (see
  /// des/queue_policy.hpp); this only trades queue-maintenance cost.
  std::optional<des::QueueBackend> queue_backend;

  /// Test hook: wraps the freshly constructed bag-selection policy before
  /// the scheduler takes ownership — e.g. in a decorator asserting select()
  /// postconditions on every dispatch. Must return a policy with identical
  /// decisions; leave empty outside tests.
  std::function<std::unique_ptr<sched::BagSelectionPolicy>(
      std::unique_ptr<sched::BagSelectionPolicy>)>
      wrap_policy;

  /// Test hooks bracketing the event-loop drive (the call to run_until):
  /// before_run_loop fires after setup (grid/scheduler/workload built,
  /// arrivals scheduled), after_run_loop before result assembly. Used by the
  /// allocation-interposer tests to meter the run loop; leave empty
  /// otherwise.
  std::function<void()> before_run_loop;
  std::function<void()> after_run_loop;
};

struct BotRecord {
  workload::BotId id = 0;
  double arrival_time = 0.0;
  double first_dispatch_time = 0.0;
  double completion_time = 0.0;
  double turnaround = 0.0;  // censored at the horizon when !completed
  double waiting_time = 0.0;
  double makespan = 0.0;
  double granularity = 0.0;
  std::size_t num_tasks = 0;
  double total_work = 0.0;
  /// turnaround / ideal service time (bag work / effective grid power) —
  /// a slowdown of 1 means the bag ran as if it owned the whole grid.
  double slowdown = 0.0;
  bool completed = false;
};

/// One sample of the queue monitor time series.
struct MonitorSample {
  double time = 0.0;
  std::size_t active_bots = 0;    // submitted, not yet completed
  std::size_t busy_machines = 0;
  std::size_t up_machines = 0;
};

struct SimulationResult {
  /// All generated bags in arrival order.
  std::vector<BotRecord> bots;
  /// Aggregates over measured bags (arrival index >= warmup). Censored
  /// turnarounds of unfinished bags are included, so under saturation the
  /// means are lower bounds.
  stats::OnlineStats turnaround;
  stats::OnlineStats waiting;
  stats::OnlineStats makespan;
  stats::OnlineStats slowdown;
  /// Tail sketches over the same measured-bag population as the OnlineStats
  /// aggregates above (warmup filter applied, censored records included).
  /// Mergeable across replications with exact, order-independent counts —
  /// exp::ExperimentRunner folds them per cell. See docs/METRICS.md.
  stats::QuantileSketch turnaround_tail;
  stats::QuantileSketch slowdown_tail;
  /// Gaps between consecutive bag completions, streamed in event order over
  /// the whole run (no warmup filter; the column starts at the second
  /// completion). Long p99 gaps flag completion droughts — stalls the mean
  /// throughput hides.
  stats::QuantileSketch completion_gap_tail;
  /// True when the horizon was reached with incomplete bags — the paper's
  /// "turnaround grew beyond any reasonable limit".
  bool saturated = false;
  /// Mean active-bag count in the last quarter of the run over the first
  /// quarter (values >> 1 indicate an unstable, growing queue even when the
  /// run nominally finished). 1 when the monitor has too few samples.
  double queue_growth_ratio = 1.0;
  /// Periodic samples of system state (bounded; ~512 across the run).
  std::vector<MonitorSample> monitor;
  std::size_t bots_completed = 0;
  double end_time = 0.0;
  double utilization = 0.0;
  /// Exponentially time-decayed busy-machine fraction at the end of the run
  /// (decay time constant = horizon / 4) — the recency-weighted sibling of
  /// `utilization`, emphasizing the run's final stretch.
  double decayed_utilization = 0.0;
  double measured_availability = 0.0;
  std::size_t num_machines = 0;
  std::uint64_t machine_failures = 0;
  std::uint64_t replica_failures = 0;
  std::uint64_t replicas_started = 0;
  std::uint64_t tasks_completed = 0;
  std::uint64_t checkpoints_saved = 0;
  std::uint64_t checkpoint_retrievals = 0;
  double wasted_compute_time = 0.0;
  double useful_compute_time = 0.0;
  double lost_work = 0.0;
  std::uint64_t events_executed = 0;
  /// DES kernel counters for this run (events scheduled/fired/cancelled,
  /// heap peak, arena slab allocations) — the raw material of the perf
  /// trajectory; see docs/BENCHMARKING.md.
  des::KernelStats kernel;
  /// Dispatch-path cost counters (triggers, machines examined, policy
  /// selects, index updates) — the scheduler-layer sibling of `kernel`.
  sched::SchedStats sched;
  /// Checkpoint-server fault-injection and recovery counters (all zero when
  /// the server fault model is disabled — the default).
  FaultStats faults;

  /// Wasted / (wasted + useful) replica compute time.
  [[nodiscard]] double wasted_fraction() const noexcept {
    const double total = wasted_compute_time + useful_compute_time;
    return total > 0.0 ? wasted_compute_time / total : 0.0;
  }

  /// Jain's fairness index over the measured bags' slowdowns:
  /// (sum x)^2 / (n * sum x^2), in (0, 1]; 1 = perfectly equal slowdowns.
  [[nodiscard]] double slowdown_fairness() const noexcept;
};

class SimulationObserver;
class SimulationWorkspace;

class Simulation {
 public:
  explicit Simulation(SimulationConfig config) : config_(std::move(config)) {}

  /// Runs the simulation to completion (or saturation horizon). When an
  /// observer is passed it receives every bag/replica/checkpoint/machine
  /// event (see sim/observer.hpp); its lifetime must cover the call.
  /// Delegates to the workspace overload below with a run-local workspace.
  [[nodiscard]] SimulationResult run(SimulationObserver* observer = nullptr);

  /// Runs inside `workspace`, reusing its simulator, memory pool, and
  /// buffers (see sim/workspace.hpp). Bit-identical to run() for the same
  /// (config, seed) apart from the arena allocation counters. The returned
  /// reference lives in the workspace and is overwritten by the next run
  /// through it; one workspace serves one run at a time, on one thread.
  [[nodiscard]] const SimulationResult& run(SimulationWorkspace& workspace,
                                            SimulationObserver* observer = nullptr);

  [[nodiscard]] const SimulationConfig& config() const noexcept { return config_; }

 private:
  SimulationConfig config_;
};

/// Convenience: builds the paper's workload for (granularity, intensity) on
/// `grid_config` — arrival rate from the target utilization via Eq. (1).
[[nodiscard]] workload::WorkloadConfig make_paper_workload(const grid::GridConfig& grid_config,
                                                           double granularity,
                                                           workload::Intensity intensity,
                                                           std::size_t num_bots,
                                                           double bag_size = 2.5e6);

}  // namespace dg::sim
