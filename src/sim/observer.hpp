// Simulation observation hooks.
//
// Observers receive every externally-meaningful event of a run: bag
// submissions/completions, replica starts/stops, checkpoint traffic, machine
// failures/repairs. They power the timeline exporter (visualization /
// debugging), the invariant checker (used heavily by the stress tests), and
// any user-side instrumentation, without the engine knowing about any of
// them. All hooks are no-ops by default.
//
// Lifetimes: a BotState reference stays valid for the rest of the run, but
// its TaskStates only until the next bag arrival after the bag completes,
// when Simulation::run recycles the bag's task storage for the arriving bag.
// Key state kept across events by (bag id, task index), not by address.
#pragma once

#include <cstdint>

#include "des/event.hpp"
#include "grid/machine.hpp"
#include "sched/bot_state.hpp"
#include "sched/sched_stats.hpp"
#include "sched/task_state.hpp"
#include "sim/fault_tolerance.hpp"
#include "stats/quantile_sketch.hpp"

namespace dg::sim {

enum class ReplicaStopKind : std::uint8_t {
  kCompleted,  // this replica finished the task
  kCancelled,  // a sibling finished first
  kFailed,     // host machine went down
};

class SimulationObserver {
 public:
  virtual ~SimulationObserver() = default;

  virtual void on_bot_submitted(const sched::BotState& /*bot*/, double /*now*/) {}
  virtual void on_bot_completed(const sched::BotState& /*bot*/, double /*now*/) {}

  virtual void on_replica_started(const sched::TaskState& /*task*/,
                                  const grid::Machine& /*machine*/, double /*now*/) {}
  virtual void on_replica_stopped(const sched::TaskState& /*task*/,
                                  const grid::Machine& /*machine*/, ReplicaStopKind /*kind*/,
                                  double /*now*/) {}
  virtual void on_task_completed(const sched::TaskState& /*task*/, double /*now*/) {}

  virtual void on_checkpoint_saved(const sched::TaskState& /*task*/,
                                   const grid::Machine& /*machine*/, double /*progress*/,
                                   double /*now*/) {}
  virtual void on_checkpoint_retrieved(const sched::TaskState& /*task*/,
                                       const grid::Machine& /*machine*/, double /*now*/) {}

  virtual void on_machine_failed(const grid::Machine& /*machine*/, double /*now*/) {}
  virtual void on_machine_repaired(const grid::Machine& /*machine*/, double /*now*/) {}

  // --- checkpoint-server fault injection (all no-ops unless the
  // --- grid::CheckpointServerFaultModel is enabled) ---

  /// The checkpoint server crashed / was repaired.
  virtual void on_server_down(double /*now*/) {}
  virtual void on_server_up(double /*now*/) {}
  /// One transfer attempt failed (refused while down, aborted by a crash, or
  /// timed out); the engine will retry or degrade.
  virtual void on_checkpoint_failed(const sched::TaskState& /*task*/,
                                    const grid::Machine& /*machine*/, bool /*is_save*/,
                                    double /*now*/) {}
  /// A server crash wiped the task's stored checkpoint (lose_data faults).
  virtual void on_checkpoint_lost(const sched::TaskState& /*task*/, double /*now*/) {}
  /// A retrieve exhausted its retry budget; the replica restarts from
  /// `restart_progress` (always 0 under the from-scratch degradation rule).
  virtual void on_replica_degraded(const sched::TaskState& /*task*/,
                                   const grid::Machine& /*machine*/,
                                   double /*restart_progress*/, double /*now*/) {}

  /// Fired once when the event loop has drained (or hit the horizon), with
  /// the kernel's, the scheduler's, and the fault-injection cumulative
  /// counters for the run. Instrumentation that tracks simulator throughput
  /// or dispatch-path cost (e.g. the perf harness) hooks this.
  virtual void on_run_finished(const des::KernelStats& /*kernel*/,
                               const sched::SchedStats& /*sched*/, const FaultStats& /*faults*/,
                               double /*now*/) {}
};

/// Streams the tail-metrics columns of a run (docs/METRICS.md) into
/// caller-owned accumulators. In the workspace path the sketch sinks live
/// inside the SimulationResult retained by sim::SimulationWorkspace, so every
/// hook below is O(1) and allocation-free — the warmed run loop stays
/// zero-alloc with the columns enabled (tests/test_alloc_free.cpp).
///
/// Two columns stream during the run (completion gaps in event order, the
/// exponentially decayed busy-machine fraction); the per-bag
/// turnaround/slowdown columns are written by the result-assembly loop via
/// write_bag() so their population matches the OnlineStats aggregates
/// exactly (warmup filter applied, censored records included).
class ColumnWriter final : public SimulationObserver {
 public:
  /// Sketch sinks for the streamed columns; null entries disable a column.
  struct Sinks {
    stats::QuantileSketch* turnaround = nullptr;      ///< fed by write_bag()
    stats::QuantileSketch* slowdown = nullptr;        ///< fed by write_bag()
    stats::QuantileSketch* completion_gap = nullptr;  ///< fed on completions
  };

  /// `utilization_tau` is the decay time constant (seconds) of the
  /// busy-fraction average; Simulation::run passes horizon / 4 so the value
  /// reflects the load level of the run's final stretch.
  ColumnWriter(const Sinks& sinks, std::size_t num_machines, double utilization_tau)
      : sinks_(sinks),
        inv_machines_(num_machines > 0 ? 1.0 / static_cast<double>(num_machines) : 0.0),
        utilization_(utilization_tau) {}

  /// Writes one measured bag's turnaround/slowdown columns (called by the
  /// result-assembly loop for every bag past the warmup window).
  void write_bag(double turnaround, double slowdown) noexcept {
    if (sinks_.turnaround != nullptr) sinks_.turnaround->add(turnaround);
    if (sinks_.slowdown != nullptr) sinks_.slowdown->add(slowdown);
  }

  void on_bot_completed(const sched::BotState& /*bot*/, double now) override {
    if (has_completion_ && sinks_.completion_gap != nullptr) {
      sinks_.completion_gap->add(now - last_completion_);
    }
    has_completion_ = true;
    last_completion_ = now;
  }

  void on_replica_started(const sched::TaskState& /*task*/, const grid::Machine& /*machine*/,
                          double now) override {
    ++busy_;
    utilization_.update(now, static_cast<double>(busy_) * inv_machines_);
  }

  void on_replica_stopped(const sched::TaskState& /*task*/, const grid::Machine& /*machine*/,
                          ReplicaStopKind /*kind*/, double now) override {
    if (busy_ > 0) --busy_;
    utilization_.update(now, static_cast<double>(busy_) * inv_machines_);
  }

  /// The exponentially time-decayed busy-machine fraction at `now`.
  [[nodiscard]] double decayed_utilization(double now) const noexcept {
    return utilization_.average(now);
  }

 private:
  Sinks sinks_;
  double inv_machines_;
  std::size_t busy_ = 0;
  stats::TimeDecayedAverage utilization_;
  double last_completion_ = 0.0;
  bool has_completion_ = false;
};

}  // namespace dg::sim
