#include "sim/execution_engine.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace dg::sim {

ExecutionEngine::ExecutionEngine(des::Simulator& sim, grid::DesktopGrid& grid,
                                 sched::MultiBotScheduler& scheduler, EngineConfig config,
                                 std::uint64_t seed, std::pmr::memory_resource* mem)
    : sim_(sim), grid_(grid), scheduler_(scheduler), config_(config),
      transfer_stream_(rng::RandomStream::derive(seed, "engine.transfer")),
      replicas_(grid.size(), Replica{}, mem) {
  if (config_.checkpointing) {
    DG_ASSERT_MSG(config_.checkpoint_interval > 0.0,
                  "checkpointing requires a positive checkpoint interval");
  }
  if (config_.server_faults.enabled) {
    DG_ASSERT_MSG(config_.failable_server,
                  "a stochastic server fault model requires the failable-server path");
    fault_process_ = std::make_unique<grid::CheckpointServerFaultProcess>(
        sim_, grid_.checkpoint_server(), config_.server_faults,
        rng::RandomStream::derive(seed, "ckpt_server.faults"));
    fault_process_->start([this] { on_server_down(); }, [this] { on_server_up(); });
  }
  if (!config_.server_down_windows.empty()) {
    DG_ASSERT_MSG(config_.failable_server,
                  "server stress windows require the failable-server path");
    // One forced down/up pair per window, scheduled in window order (after
    // the fault process's first crash, matching the adversary's position in
    // the setup sequence). Edges compose with the stochastic fault process
    // via the server's down-cause counting: the engine callbacks fire only
    // on real up/down transitions.
    for (const grid::StressWindow& window : config_.server_down_windows) {
      DG_ASSERT_MSG(window.end > window.start,
                    "server stress window end must exceed its start");
      sim_.schedule_at(window.start, [this] {
        if (grid_.checkpoint_server().force_down(sim_.now())) on_server_down();
      });
      sim_.schedule_at(window.end, [this] {
        if (grid_.checkpoint_server().release_down(sim_.now())) on_server_up();
      });
    }
  }
  scheduler_.set_sink(*this);
}

ExecutionEngine::~ExecutionEngine() = default;

void ExecutionEngine::set_machine_busy(grid::Machine& machine, bool busy) {
  if (machine.busy() == busy) return;
  machine.set_busy(busy);
  busy_power_now_ += busy ? machine.power() : -machine.power();
  busy_power_.update(sim_.now(), busy_power_now_);
}

void ExecutionEngine::start_replica(sched::TaskState& task, grid::Machine& machine) {
  DG_ASSERT_MSG(machine.available(), "dispatch to a busy or down machine");
  DG_ASSERT(!task.completed());
  set_machine_busy(machine, true);
  task.on_replica_started(sim_.now());
  scheduler_.notify_replica_started(task);
  for (SimulationObserver* observer : observers_) {
    observer->on_replica_started(task, machine, sim_.now());
  }

  Replica& ref = replicas_[machine.id()];
  DG_ASSERT_MSG(ref.task == nullptr, "machine already hosts a replica");
  ref = Replica{};
  ref.task = &task;
  ref.machine = &machine;
  ref.progress_base = config_.checkpointing ? task.checkpointed_work() : 0.0;
  grid::MachineId* link = replica_link(task, machine.id());
  ref.next = *link;
  *link = machine.id();

  if (config_.checkpointing && ref.progress_base > 0.0) {
    // Restart: fetch the latest checkpoint from the server first.
    ref.phase = Phase::kRetrieving;
    begin_transfer(ref);
  } else {
    begin_compute(ref);
  }
}

void ExecutionEngine::begin_transfer(Replica& replica) {
  DG_ASSERT(replica.phase == Phase::kRetrieving || replica.phase == Phase::kCheckpointing);
  DG_ASSERT(!replica.transfer_inflight);
  const bool is_save = replica.phase == Phase::kCheckpointing;
  grid::CheckpointServer& server = grid_.checkpoint_server();
  const grid::MachineId id = replica.machine->id();

  if (config_.failable_server) {
    ++replica.transfer_attempts;
    if (!server.up()) {
      // Refused outright — no transfer-time draw, so the recovery machinery
      // touches the transfer stream only when bytes actually move.
      transfer_attempt_failed(replica);
      return;
    }
  }

  replica.transfer = is_save ? server.begin_save(sim_.now(), transfer_stream_)
                             : server.begin_retrieve(sim_.now(), transfer_stream_);
  replica.transfer_inflight = true;

  const double timeout = config_.retry.attempt_timeout;
  if (config_.failable_server && timeout > 0.0 &&
      replica.transfer.completion > sim_.now() + timeout) {
    // The transfer (incl. slot queueing) would blow the per-attempt budget;
    // abandon it at the deadline instead of occupying the slot to the end.
    replica.next_event = sim_.schedule_after(timeout, [this, id] { on_transfer_timeout(id); });
    return;
  }
  if (is_save) {
    replica.next_event =
        sim_.schedule_at(replica.transfer.completion, [this, id] { on_checkpoint_end(id); });
  } else {
    replica.next_event =
        sim_.schedule_at(replica.transfer.completion, [this, id] { on_retrieve_done(id); });
  }
}

void ExecutionEngine::on_transfer_timeout(grid::MachineId machine_id) {
  Replica* replica = replica_at(machine_id);
  DG_ASSERT(replica != nullptr && replica->transfer_inflight);
  ++faults_.transfer_timeouts;
  drop_inflight_transfer(*replica);
  transfer_attempt_failed(*replica);
}

void ExecutionEngine::drop_inflight_transfer(Replica& replica) {
  if (!replica.transfer_inflight) return;
  grid_.checkpoint_server().cancel_transfer(replica.transfer, sim_.now());
  replica.transfer_inflight = false;
}

void ExecutionEngine::transfer_attempt_failed(Replica& replica) {
  DG_ASSERT(config_.failable_server);
  DG_ASSERT(!replica.transfer_inflight);
  const bool is_save = replica.phase == Phase::kCheckpointing;
  if (is_save) {
    ++faults_.save_attempts_failed;
  } else {
    ++faults_.retrieve_attempts_failed;
  }
  for (SimulationObserver* observer : observers_) {
    observer->on_checkpoint_failed(*replica.task, *replica.machine, is_save, sim_.now());
  }

  if (replica.transfer_attempts < config_.retry.max_attempts) {
    ++faults_.transfer_retries;
    const double delay = config_.retry.backoff_after(replica.transfer_attempts);
    const grid::MachineId id = replica.machine->id();
    replica.next_event = sim_.schedule_after(delay, [this, id] {
      Replica* retrying = replica_at(id);
      DG_ASSERT(retrying != nullptr);
      begin_transfer(*retrying);
    });
    return;
  }

  // Retry budget exhausted: degrade gracefully rather than wedge.
  replica.transfer_attempts = 0;
  if (is_save) {
    // Skip the save. The uncommitted leg stays in progress_base — it is
    // simply at risk until the next successful save commits it.
    ++faults_.saves_skipped;
    begin_compute(replica);
  } else {
    // Restart from scratch: the committed checkpoint is unreachable.
    ++faults_.replicas_degraded;
    replica.progress_base = 0.0;
    for (SimulationObserver* observer : observers_) {
      observer->on_replica_degraded(*replica.task, *replica.machine, 0.0, sim_.now());
    }
    begin_compute(replica);
  }
}

void ExecutionEngine::on_server_down() {
  DG_ASSERT_MSG(config_.failable_server, "server outage without the failable-server path");
  DG_ASSERT_MSG(!grid_.checkpoint_server().up(), "on_server_down with the server still up");
  for (SimulationObserver* observer : observers_) {
    observer->on_server_down(sim_.now());
  }
  // lose_data implies aborts: the wiped bytes cannot complete a transfer.
  if (config_.server_faults.abort_transfers || config_.server_faults.lose_data) {
    for (Replica& slot : replicas_) {
      Replica* replica = slot.task != nullptr ? &slot : nullptr;
      if (replica == nullptr || !replica->transfer_inflight) continue;
      replica->next_event.cancel();
      drop_inflight_transfer(*replica);
      transfer_attempt_failed(*replica);
    }
  }
  if (config_.server_faults.lose_data) {
    for (sched::BotState* bot : scheduler_.active_bots()) {
      for (std::size_t i = 0; i < bot->num_tasks(); ++i) {
        sched::TaskState& task = bot->task(i);
        if (task.completed() || task.checkpointed_work() <= 0.0) continue;
        task.invalidate_checkpoint();
        ++faults_.checkpoints_lost;
        for (SimulationObserver* observer : observers_) {
          observer->on_checkpoint_lost(task, sim_.now());
        }
      }
    }
  }
}

void ExecutionEngine::on_server_up() {
  DG_ASSERT_MSG(grid_.checkpoint_server().up(), "on_server_up with the server still down");
  // Pending retries are already sitting on backoff timers; nothing to kick.
  for (SimulationObserver* observer : observers_) {
    observer->on_server_up(sim_.now());
  }
}

FaultStats ExecutionEngine::fault_stats(des::SimTime now) const noexcept {
  FaultStats stats = faults_;
  stats.server_outages = grid_.checkpoint_server().outage_count();
  stats.server_downtime = grid_.checkpoint_server().total_downtime(now);
  return stats;
}

void ExecutionEngine::begin_compute(Replica& replica) {
  replica.phase = Phase::kComputing;
  replica.leg_start = sim_.now();
  const double power = replica.machine->power();
  const double remaining = replica.task->work() - replica.progress_base;
  DG_ASSERT_MSG(remaining > 0.0, "compute leg with no remaining work");
  const double time_to_complete = remaining / power;
  const grid::MachineId id = replica.machine->id();
  if (config_.checkpointing && time_to_complete > config_.checkpoint_interval) {
    replica.next_event = sim_.schedule_after(config_.checkpoint_interval,
                                             [this, id] { on_checkpoint_begin(id); });
  } else {
    replica.next_event = sim_.schedule_after(time_to_complete, [this, id] { on_complete(id); });
  }
}

void ExecutionEngine::on_retrieve_done(grid::MachineId machine_id) {
  Replica* replica = replica_at(machine_id);
  DG_ASSERT(replica != nullptr && replica->phase == Phase::kRetrieving);
  replica->transfer_inflight = false;
  replica->transfer_attempts = 0;
  // If a server crash wiped the stored checkpoint while this retrieve was
  // pending, what came back is the post-loss state: never resume ahead of
  // the committed value. No-op under a reliable server (progress_base was
  // captured from checkpointed_work, which is otherwise monotone).
  replica->progress_base = std::min(replica->progress_base, replica->task->checkpointed_work());
  ++retrievals_;  // counted on completion; a failure mid-transfer doesn't count
  for (SimulationObserver* observer : observers_) {
    observer->on_checkpoint_retrieved(*replica->task, *replica->machine, sim_.now());
  }
  begin_compute(*replica);
}

void ExecutionEngine::on_checkpoint_begin(grid::MachineId machine_id) {
  Replica* replica = replica_at(machine_id);
  DG_ASSERT(replica != nullptr && replica->phase == Phase::kComputing);
  const double leg = sim_.now() - replica->leg_start;
  replica->compute_invested += leg;
  replica->progress_base += leg * replica->machine->power();
  replica->phase = Phase::kCheckpointing;
  begin_transfer(*replica);
}

void ExecutionEngine::on_checkpoint_end(grid::MachineId machine_id) {
  Replica* replica = replica_at(machine_id);
  DG_ASSERT(replica != nullptr && replica->phase == Phase::kCheckpointing);
  replica->transfer_inflight = false;
  replica->transfer_attempts = 0;
  replica->task->commit_checkpoint(replica->progress_base);
  ++checkpoints_saved_;
  for (SimulationObserver* observer : observers_) {
    observer->on_checkpoint_saved(*replica->task, *replica->machine, replica->progress_base,
                                  sim_.now());
  }
  begin_compute(*replica);
}

grid::MachineId* ExecutionEngine::replica_link(sched::TaskState& task,
                                               grid::MachineId machine_id) {
  grid::MachineId* link = &task.replica_list_head();
  while (*link != sched::TaskState::kNoReplica && *link < machine_id) {
    link = &replicas_[*link].next;
  }
  return link;
}

grid::Machine* ExecutionEngine::detach_replica(grid::MachineId machine_id) {
  Replica& replica = replicas_[machine_id];
  DG_ASSERT(replica.task != nullptr);
  grid::MachineId* link = replica_link(*replica.task, machine_id);
  DG_ASSERT_MSG(*link == machine_id, "replica missing from its task's replica list");
  *link = replica.next;
  grid::Machine* machine = replica.machine;
  replica = Replica{};
  set_machine_busy(*machine, false);
  return machine;
}

void ExecutionEngine::on_complete(grid::MachineId machine_id) {
  Replica* winner = replica_at(machine_id);
  DG_ASSERT(winner != nullptr && winner->phase == Phase::kComputing);
  winner->compute_invested += sim_.now() - winner->leg_start;
  winner->progress_base = winner->task->work();
  sched::TaskState& task = *winner->task;

  task.mark_completed(sim_.now());
  scheduler_.notify_task_completed(task);
  for (SimulationObserver* observer : observers_) {
    observer->on_task_completed(task, sim_.now());
  }

  // Stop the winner and every sibling replica (freeing their machines) in
  // the task's replica-list order, ascending machine id: each stop detaches
  // the list head.
  const int running = task.running_replicas();
  int listed = 0;
  for (grid::MachineId id = task.first_replica(); id != sched::TaskState::kNoReplica;
       id = task.first_replica()) {
    Replica* candidate = &replicas_[id];
    ++listed;
    const bool is_winner = candidate == winner;
    if (!is_winner) {
      candidate->next_event.cancel();
      drop_inflight_transfer(*candidate);
      if (candidate->phase == Phase::kComputing) {
        candidate->compute_invested += sim_.now() - candidate->leg_start;
      }
      ++cancelled_replicas_;
      wasted_compute_time_ += candidate->compute_invested;
    } else {
      useful_compute_time_ += candidate->compute_invested;
    }
    grid::Machine& machine = *detach_replica(id);
    task.on_replica_stopped(sim_.now());
    scheduler_.notify_replica_stopped(task, is_winner
                                                ? sched::MultiBotScheduler::StopReason::kWinner
                                                : sched::MultiBotScheduler::StopReason::kCancelled);
    for (SimulationObserver* observer : observers_) {
      observer->on_replica_stopped(
          task, machine,
          is_winner ? ReplicaStopKind::kCompleted : ReplicaStopKind::kCancelled, sim_.now());
    }
  }
  DG_ASSERT_MSG(listed == running, "replica list length differs from the running count");
  DG_ASSERT(task.running_replicas() == 0);
  scheduler_.trigger();
}

void ExecutionEngine::on_machine_failure(grid::Machine& machine) {
  for (SimulationObserver* observer : observers_) {
    observer->on_machine_failed(machine, sim_.now());
  }
  Replica* replica = replica_on(machine);
  if (replica == nullptr) return;  // idle machine went down
  replica->next_event.cancel();
  // A transfer cut short by the death hands its unused slot time back to the
  // server (the historical leak kept it reserved; see CheckpointServer).
  drop_inflight_transfer(*replica);
  sched::TaskState& task = *replica->task;
  double progress = replica->progress_base;
  if (replica->phase == Phase::kComputing) {
    const double leg = sim_.now() - replica->leg_start;
    replica->compute_invested += leg;
    progress += leg * machine.power();
  }
  // Everything past the task's last committed checkpoint is lost.
  lost_work_ += std::max(0.0, progress - task.checkpointed_work());
  wasted_compute_time_ += replica->compute_invested;
  ++failed_replicas_;
  detach_replica(machine.id());
  task.on_replica_stopped(sim_.now());
  scheduler_.notify_replica_stopped(task, sched::MultiBotScheduler::StopReason::kFailed);
  for (SimulationObserver* observer : observers_) {
    observer->on_replica_stopped(task, machine, ReplicaStopKind::kFailed, sim_.now());
  }
  // A resubmission candidate may now be dispatchable on other idle machines.
  scheduler_.trigger();
}

void ExecutionEngine::on_machine_repair(grid::Machine& machine) {
  DG_ASSERT(machine.up());
  DG_ASSERT(replica_on(machine) == nullptr);
  for (SimulationObserver* observer : observers_) {
    observer->on_machine_repaired(machine, sim_.now());
  }
  scheduler_.notify_capacity_change(machine);
}

}  // namespace dg::sim
