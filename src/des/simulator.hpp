// Sequential discrete-event simulation kernel.
//
// The pending-event set lives behind the EventQueuePolicy seam
// (des/queue_policy.hpp): a cache-friendly 4-ary implicit heap by default,
// or a calendar/ladder queue tuned for near-future-heavy event mixes —
// selected per Simulator at construction (DGSCHED_QUEUE CMake/env knob) or
// via set_queue_backend(). Entries are 16-byte keys ordered by
// (time, sequence) — ties break in scheduling order so runs are bitwise
// deterministic on every backend — referencing recycled slots in a slab
// arena (des/event.hpp) that hold each event's inline des::Action, so the
// steady-state hot path — schedule, fire, cancel — performs no heap
// allocation, no type-erased destruction and no atomic operation. The
// kernel is deliberately single-threaded; parallelism in dgsched lives one
// level up, across independent replications (see exp::ExperimentRunner).
#pragma once

#include <cmath>
#include <concepts>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "des/event.hpp"
#include "des/queue_policy.hpp"

namespace dg::des {

/// Deterministic single-threaded event loop.
///
/// Invariants: events fire in ascending (time, sequence) order; now() never
/// goes backwards; an action may schedule/cancel freely, including at the
/// current time (it runs after all already-queued same-time events). These
/// hold identically on every queue backend — switching backends never
/// changes a run's event sequence, only the cost of maintaining it.
/// Thread-safety: none — one Simulator per thread (replications each own a
/// private Simulator; see util::ThreadPool).
class Simulator {
 public:
  explicit Simulator(QueueBackend backend = default_queue_backend())
      : anchor_(new detail::HandleAnchor{&arena_, 1}), backend_(backend) {}
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  /// Outstanding EventHandles survive the simulator and read not-pending.
  ~Simulator() {
    anchor_->arena = nullptr;
    detail::anchor_release(anchor_);
  }

  /// Current simulation time. Starts at 0; advances only inside step(),
  /// run(), and run_until().
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedules `action` — anything that converts to des::Action, such as a
  /// lambda capturing pointers and ids — at absolute time `time`. Returns a
  /// handle that can cancel the event while pending. Inline, and templated
  /// on the callable, so the closure is stored straight into its arena slot.
  /// Preconditions: `time` is finite and >= now(); `action` is non-empty.
  template <typename F>
    requires std::convertible_to<F, Action>
  EventHandle schedule_at(SimTime time, F&& action) {
    DG_ASSERT_MSG(std::isfinite(time), "event time must be finite");
    DG_ASSERT_MSG(time >= now_, "cannot schedule an event in the past");
    if constexpr (std::same_as<std::remove_cvref_t<F>, Action>) DG_ASSERT(action);
    const std::uint64_t sequence = next_sequence_++;
    const std::uint32_t slot = arena_.acquire(time, sequence, std::forward<F>(action));
    enqueue(time, sequence, slot);
    return EventHandle{anchor_, slot, arena_.generation(slot)};
  }

  /// Schedules `action` after `delay` (>= 0) from now.
  template <typename F>
    requires std::convertible_to<F, Action>
  EventHandle schedule_after(SimTime delay, F&& action) {
    return schedule_at(now_ + delay, std::forward<F>(action));
  }

  /// Executes the next pending event. Returns false when no live event
  /// remains or the simulation was stopped.
  bool step();

  /// Runs until the event queue drains or stop() is called.
  void run();

  /// Runs all events with time <= horizon (>= now()), then advances the
  /// clock to horizon (if it is past the last executed event).
  void run_until(SimTime horizon);

  /// Stops the run/run_until loop after the current event returns.
  void stop() noexcept { stopped_ = true; }
  [[nodiscard]] bool stopped() const noexcept { return stopped_; }
  /// Re-arms a stopped simulator so run()/run_until() can continue.
  void clear_stop() noexcept { stopped_ = false; }

  /// The queue backend this simulator drives.
  [[nodiscard]] QueueBackend queue_backend() const noexcept { return backend_; }
  /// Switches the queue backend. Only valid while the queue is empty — on a
  /// fresh simulator or right after reset() (sim::Simulation applies a
  /// per-config backend override there).
  void set_queue_backend(QueueBackend backend);

  /// Number of events executed so far (cancelled events are not counted).
  [[nodiscard]] std::uint64_t executed_events() const noexcept {
    return arena_.stats().events_fired;
  }
  /// Number of events ever scheduled.
  [[nodiscard]] std::uint64_t scheduled_events() const noexcept { return next_sequence_; }
  /// Exact number of live pending events (cancelled events leave a stale
  /// queue entry but are excluded from this count).
  [[nodiscard]] std::size_t pending_events() const noexcept { return arena_.live(); }
  [[nodiscard]] bool empty() const noexcept { return arena_.live() == 0; }

  /// Kernel counters for this simulator (see KernelStats). Values are
  /// cumulative since construction or the last reset().
  [[nodiscard]] const KernelStats& stats() const noexcept { return arena_.stats(); }

  /// Returns the simulator to t = 0 with an empty queue while retaining the
  /// arena slabs and queue capacity — the reuse hook sim::SimulationWorkspace
  /// is built on. Every outstanding EventHandle turns stale (pending() ==
  /// false, cancel() == false); the next run schedules into recycled slots
  /// and sequence numbers restart at 0, so a (config, seed)-identical run
  /// after reset() is bit-identical to one on a fresh Simulator.
  void reset() noexcept {
    arena_.reset();
    heap4_.clear();
    calendar_.clear();
    now_ = 0.0;
    next_sequence_ = 0;
    stopped_ = false;
  }

 private:
  // Backend dispatch: a predictable two-way branch per queue operation, kept
  // inline so the run loop pays no indirect call. Both backends are members
  // (the inactive one stays empty) so the equivalence suite can flip between
  // them on one simulator across reset() boundaries.
  void queue_push(const QueueEntry& entry) {
    if (backend_ == QueueBackend::kCalendar) {
      calendar_.push(entry);
    } else {
      heap4_.push(entry);
    }
  }
  [[nodiscard]] const QueueEntry& queue_top() {
    if (backend_ == QueueBackend::kCalendar) return calendar_.top();
    return heap4_.top();
  }
  void queue_pop() {
    if (backend_ == QueueBackend::kCalendar) {
      calendar_.pop();
    } else {
      heap4_.pop();
    }
  }
  /// Physical entry count (stale entries included — heap_peak is defined
  /// over this).
  [[nodiscard]] std::size_t queue_size() const noexcept {
    return backend_ == QueueBackend::kCalendar ? calendar_.size() : heap4_.size();
  }

  /// Drops stale entries from the front; returns false when the queue empties.
  bool queue_skip_stale();
  /// Pushes the queue entry of a just-armed slot and updates the counters.
  void enqueue(SimTime time, std::uint64_t sequence, std::uint32_t slot);
  /// Pops and runs the front entry. Precondition: queue_skip_stale() held.
  void fire_front();

  detail::EventArena arena_;
  /// Liveness record every issued EventHandle points at (owned jointly).
  detail::HandleAnchor* anchor_;
  FourAryHeapQueue heap4_;
  CalendarQueue calendar_;
  QueueBackend backend_;
  SimTime now_ = 0.0;
  std::uint64_t next_sequence_ = 0;
  bool stopped_ = false;
};

}  // namespace dg::des
