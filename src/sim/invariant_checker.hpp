// Online invariant checking.
//
// Mirrors the engine's state from observer events alone and cross-checks
// every transition against the model's contracts (DESIGN.md "Key
// invariants"). Violations are collected as human-readable strings rather
// than aborting, so tests can assert emptiness and print everything that
// went wrong. Used by the property/stress test matrix over all
// policy x availability x scheduler combinations.
#pragma once

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sim/observer.hpp"

namespace dg::sim {

class InvariantChecker final : public SimulationObserver {
 public:
  void on_bot_submitted(const sched::BotState& bot, double now) override;
  void on_bot_completed(const sched::BotState& bot, double now) override;
  void on_replica_started(const sched::TaskState& task, const grid::Machine& machine,
                          double now) override;
  void on_replica_stopped(const sched::TaskState& task, const grid::Machine& machine,
                          ReplicaStopKind kind, double now) override;
  void on_task_completed(const sched::TaskState& task, double now) override;
  void on_checkpoint_saved(const sched::TaskState& task, const grid::Machine& machine,
                           double progress, double now) override;
  void on_checkpoint_retrieved(const sched::TaskState& task, const grid::Machine& machine,
                               double now) override;
  void on_machine_failed(const grid::Machine& machine, double now) override;
  void on_machine_repaired(const grid::Machine& machine, double now) override;

  // Checkpoint-server fault contracts (see fault_tolerance.hpp).
  void on_server_down(double now) override;
  void on_server_up(double now) override;
  void on_checkpoint_failed(const sched::TaskState& task, const grid::Machine& machine,
                            bool is_save, double now) override;
  void on_checkpoint_lost(const sched::TaskState& task, double now) override;
  void on_replica_degraded(const sched::TaskState& task, const grid::Machine& machine,
                           double restart_progress, double now) override;

  /// When transfers abort on a server crash (the default fault model), no
  /// transfer may complete while the server is down. Set false when checking
  /// a run with `abort_transfers = false` (resumable transfers legitimately
  /// finish during outages).
  void set_expect_transfer_aborts(bool value) noexcept { expect_transfer_aborts_ = value; }

  [[nodiscard]] const std::vector<std::string>& violations() const noexcept {
    return violations_;
  }
  [[nodiscard]] bool ok() const noexcept { return violations_.empty(); }
  /// All violations joined, for gtest failure messages.
  [[nodiscard]] std::string report() const;

  /// Maximum replica count ever observed for any task (threshold audits).
  [[nodiscard]] int max_observed_replicas() const noexcept { return max_replicas_; }

 private:
  void violation(std::string message);
  [[nodiscard]] static std::string task_name(const sched::TaskState& task);

  /// Shadows are keyed by (bag id, task index), not by address: a completed
  /// bag's task slab goes back to the pool and a later bag's tasks reuse it.
  using TaskKey = std::pair<workload::BotId, workload::TaskIndex>;

  struct TaskShadow {
    int running = 0;
    bool completed = false;
    double checkpointed = 0.0;
    double work = 0.0;
  };

  [[nodiscard]] TaskShadow& shadow_of(const sched::TaskState& task);

  std::map<TaskKey, TaskShadow> tasks_;
  std::map<grid::MachineId, const sched::TaskState*> machine_occupancy_;
  /// Failed transfer attempts per machine since its current replica started
  /// (a degradation must be preceded by at least one failed attempt).
  std::map<grid::MachineId, int> failed_attempts_;
  std::set<grid::MachineId> down_machines_;
  std::set<const sched::BotState*> submitted_bots_;
  std::set<const sched::BotState*> completed_bots_;
  std::vector<std::string> violations_;
  double last_time_ = 0.0;
  int max_replicas_ = 0;
  bool server_down_ = false;
  bool expect_transfer_aborts_ = true;
  static constexpr std::size_t kMaxViolations = 50;
};

}  // namespace dg::sim
