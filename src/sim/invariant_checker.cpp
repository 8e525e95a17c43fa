#include "sim/invariant_checker.hpp"

#include <sstream>

namespace dg::sim {

std::string InvariantChecker::task_name(const sched::TaskState& task) {
  std::ostringstream oss;
  oss << "bot " << task.bot().id() << " task " << task.index();
  return oss.str();
}

InvariantChecker::TaskShadow& InvariantChecker::shadow_of(const sched::TaskState& task) {
  return tasks_[TaskKey{task.bot().id(), task.index()}];
}

void InvariantChecker::violation(std::string message) {
  if (violations_.size() < kMaxViolations) violations_.push_back(std::move(message));
}

std::string InvariantChecker::report() const {
  std::ostringstream oss;
  for (const std::string& v : violations_) oss << v << "\n";
  return oss.str();
}

void InvariantChecker::on_bot_submitted(const sched::BotState& bot, double now) {
  if (now < last_time_) violation("time went backwards at bot submission");
  last_time_ = now;
  if (!submitted_bots_.insert(&bot).second) {
    violation("bot " + std::to_string(bot.id()) + " submitted twice");
  }
}

void InvariantChecker::on_bot_completed(const sched::BotState& bot, double now) {
  last_time_ = now;
  if (!submitted_bots_.contains(&bot)) {
    violation("bot " + std::to_string(bot.id()) + " completed without submission");
  }
  if (!completed_bots_.insert(&bot).second) {
    violation("bot " + std::to_string(bot.id()) + " completed twice");
  }
  if (!bot.completed()) {
    violation("bot " + std::to_string(bot.id()) + " reported complete while tasks remain");
  }
  if (bot.turnaround() < 0.0 || bot.waiting_time() < -1e-9 || bot.makespan() < 0.0) {
    violation("bot " + std::to_string(bot.id()) + " has negative timing components");
  }
}

void InvariantChecker::on_replica_started(const sched::TaskState& task,
                                          const grid::Machine& machine, double now) {
  if (now < last_time_) violation("time went backwards at replica start");
  last_time_ = now;
  TaskShadow& shadow = shadow_of(task);
  shadow.work = task.work();
  if (shadow.completed) violation(task_name(task) + ": replica started after completion");
  ++shadow.running;
  if (shadow.running > max_replicas_) max_replicas_ = shadow.running;
  if (shadow.running != task.running_replicas()) {
    violation(task_name(task) + ": replica count mismatch (shadow " +
              std::to_string(shadow.running) + " vs " +
              std::to_string(task.running_replicas()) + ")");
  }
  if (down_machines_.contains(machine.id())) {
    violation(task_name(task) + ": dispatched to DOWN machine " + std::to_string(machine.id()));
  }
  auto [it, inserted] = machine_occupancy_.emplace(machine.id(), &task);
  if (!inserted) {
    violation("machine " + std::to_string(machine.id()) + " hosts two replicas at once");
  }
  failed_attempts_[machine.id()] = 0;
}

void InvariantChecker::on_replica_stopped(const sched::TaskState& task,
                                          const grid::Machine& machine, ReplicaStopKind kind,
                                          double now) {
  last_time_ = now;
  TaskShadow& shadow = shadow_of(task);
  --shadow.running;
  if (shadow.running < 0) violation(task_name(task) + ": more stops than starts");
  auto it = machine_occupancy_.find(machine.id());
  if (it == machine_occupancy_.end() || it->second != &task) {
    violation(task_name(task) + ": stopped on machine " + std::to_string(machine.id()) +
              " it was not running on");
  } else {
    machine_occupancy_.erase(it);
  }
  if (kind == ReplicaStopKind::kCompleted && !task.completed()) {
    violation(task_name(task) + ": winner stopped but task not marked complete");
  }
  if (kind == ReplicaStopKind::kFailed && !down_machines_.contains(machine.id())) {
    violation(task_name(task) + ": failure stop on a machine that is UP");
  }
}

void InvariantChecker::on_task_completed(const sched::TaskState& task, double now) {
  last_time_ = now;
  TaskShadow& shadow = shadow_of(task);
  if (shadow.completed) violation(task_name(task) + ": completed twice");
  shadow.completed = true;
  if (!task.completed()) violation(task_name(task) + ": completion event but flag not set");
}

void InvariantChecker::on_checkpoint_saved(const sched::TaskState& task,
                                           const grid::Machine& /*machine*/, double progress,
                                           double now) {
  last_time_ = now;
  if (server_down_ && expect_transfer_aborts_) {
    violation(task_name(task) + ": checkpoint save completed while the server is DOWN");
  }
  TaskShadow& shadow = shadow_of(task);
  shadow.work = task.work();
  // Individual saves may carry less progress than the task's committed
  // maximum (a slower sibling replica checkpointing behind the leader); the
  // monotone quantity is the task-level committed checkpoint.
  if (task.checkpointed_work() < shadow.checkpointed - 1e-9) {
    violation(task_name(task) + ": committed checkpoint regressed");
  }
  if (task.checkpointed_work() < progress - 1e-9) {
    violation(task_name(task) + ": commit below this save's progress");
  }
  if (progress > shadow.work + 1e-9) {
    violation(task_name(task) + ": checkpoint beyond task work");
  }
  shadow.checkpointed = std::max(shadow.checkpointed, task.checkpointed_work());
}

void InvariantChecker::on_checkpoint_retrieved(const sched::TaskState& task,
                                               const grid::Machine& /*machine*/, double now) {
  last_time_ = now;
  if (server_down_ && expect_transfer_aborts_) {
    violation(task_name(task) + ": checkpoint retrieve completed while the server is DOWN");
  }
}

void InvariantChecker::on_server_down(double now) {
  last_time_ = now;
  if (server_down_) {
    violation("checkpoint server failed while already down");
  }
  server_down_ = true;
}

void InvariantChecker::on_server_up(double now) {
  last_time_ = now;
  if (!server_down_) {
    violation("checkpoint server repaired while up");
  }
  server_down_ = false;
}

void InvariantChecker::on_checkpoint_failed(const sched::TaskState& /*task*/,
                                            const grid::Machine& machine, bool /*is_save*/,
                                            double now) {
  last_time_ = now;
  if (!machine_occupancy_.contains(machine.id())) {
    violation("transfer failure on machine " + std::to_string(machine.id()) +
              " with no replica on it");
  }
  ++failed_attempts_[machine.id()];
}

void InvariantChecker::on_checkpoint_lost(const sched::TaskState& task, double now) {
  last_time_ = now;
  if (!server_down_) {
    violation(task_name(task) + ": stored checkpoint lost while the server is UP");
  }
  TaskShadow& shadow = shadow_of(task);
  if (shadow.completed) {
    violation(task_name(task) + ": checkpoint lost after task completion");
  }
  // The one sanctioned regression: the committed baseline resets with the
  // wiped store, so later (smaller) commits are not flagged.
  shadow.checkpointed = 0.0;
  if (task.checkpointed_work() != 0.0) {
    violation(task_name(task) + ": checkpoint-loss event but committed work not wiped");
  }
}

void InvariantChecker::on_replica_degraded(const sched::TaskState& task,
                                           const grid::Machine& machine, double restart_progress,
                                           double now) {
  last_time_ = now;
  if (restart_progress != 0.0) {
    violation(task_name(task) + ": degraded replica restarts at progress " +
              std::to_string(restart_progress) + " (must be 0)");
  }
  auto it = failed_attempts_.find(machine.id());
  if (it == failed_attempts_.end() || it->second <= 0) {
    violation(task_name(task) + ": replica degraded without a preceding failed attempt");
  }
}

void InvariantChecker::on_machine_failed(const grid::Machine& machine, double now) {
  last_time_ = now;
  if (!down_machines_.insert(machine.id()).second) {
    violation("machine " + std::to_string(machine.id()) + " failed while already down");
  }
}

void InvariantChecker::on_machine_repaired(const grid::Machine& machine, double now) {
  last_time_ = now;
  if (down_machines_.erase(machine.id()) == 0) {
    violation("machine " + std::to_string(machine.id()) + " repaired while up");
  }
  if (machine_occupancy_.contains(machine.id())) {
    violation("machine " + std::to_string(machine.id()) + " repaired with a stale replica");
  }
}

}  // namespace dg::sim
