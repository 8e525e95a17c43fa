// Event storage, actions and cancellable handles for the DES kernel.
//
// Events live in a slab arena (detail::EventArena): a grow-only pool of
// recycled EventSlot records addressed by dense 32-bit index. Scheduling an
// event acquires a slot from the free list (no heap allocation once the
// arena has warmed up to the run's peak); firing or cancelling retires the
// slot back to the free list, which stales its queue entry and every
// outstanding EventHandle in O(1) — no tombstone scans, no per-event
// control blocks.
//
// An event's action is a des::Action: a function pointer plus a small inline
// buffer holding a trivially copyable callable (typically a lambda capturing
// `this` and an id). Arming, firing and cancelling an event therefore copy
// a few words and never allocate, destroy or reference-count anything.
//
// Handles are (slot, generation) pairs plus a pointer to a liveness record
// shared with the issuing Simulator, so they stay safe (and report
// not-pending) after that simulator is destroyed. The record's reference
// count is a plain integer: the kernel is single-threaded by contract.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace dg::des {

/// Simulation time in seconds since simulation start.
using SimTime = double;

/// Kernel counters for one Simulator instance. Cheap enough to maintain
/// unconditionally; exposed via Simulator::stats() and threaded into
/// sim::SimulationResult so perf harnesses and observers can read them.
struct KernelStats {
  std::uint64_t events_scheduled = 0;  ///< schedule_at/schedule_after calls.
  std::uint64_t events_fired = 0;      ///< Events whose action was executed.
  std::uint64_t events_cancelled = 0;  ///< Successful EventHandle::cancel calls.
  std::uint64_t heap_peak = 0;         ///< Max simultaneous entries in the event heap.
  std::uint64_t arena_slabs = 0;       ///< Slab allocations (the only heap traffic).
  std::uint64_t arena_capacity = 0;    ///< Total event slots across all slabs.
};

/// The callable an event runs: a trivially copyable inline closure.
///
/// Any callable invocable as `f()` converts implicitly, provided it fits in
/// kCapacity bytes, needs no more than pointer alignment and is trivially
/// copyable — a lambda capturing pointers, references and scalars, which is
/// every action the simulator schedules. Larger or owning state (a
/// std::function, a container) does not compile: capture a reference to it
/// instead. Copying an Action copies its bytes; there is nothing to destroy.
class Action {
 public:
  static constexpr std::size_t kCapacity = 24;

  /// An empty action; invoking it is undefined (Simulator rejects it).
  Action() = default;

  template <typename F>
    requires(!std::same_as<std::remove_cvref_t<F>, Action> &&
             std::invocable<std::remove_cvref_t<F>&>)
  Action(F&& fn) noexcept {  // NOLINT(google-explicit-constructor): lambdas convert
    emplace(std::forward<F>(fn));
  }

  /// Stores `fn` in place of the current callable. The arena arms its slots
  /// through this, so a closure is written straight into the slot rather
  /// than built in a temporary and copied.
  template <typename F>
    requires std::invocable<std::remove_cvref_t<F>&>
  void emplace(F&& fn) noexcept {
    using Fn = std::remove_cvref_t<F>;
    if constexpr (std::same_as<Fn, Action>) {
      *this = fn;
    } else {
      static_assert(sizeof(Fn) <= kCapacity,
                    "des::Action: the callable is too large; capture a pointer or reference");
      static_assert(alignof(Fn) <= alignof(void*), "des::Action: the callable is over-aligned");
      static_assert(std::is_trivially_copyable_v<Fn> && std::is_trivially_destructible_v<Fn>,
                    "des::Action: the callable must be trivially copyable; capture owning "
                    "state (std::function, containers) by reference");
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      invoke_ = [](void* storage) { (*std::launder(static_cast<Fn*>(storage)))(); };
    }
  }

  void operator()() { invoke_(storage_); }
  [[nodiscard]] explicit operator bool() const noexcept { return invoke_ != nullptr; }

 private:
  void (*invoke_)(void*) = nullptr;
  alignas(void*) unsigned char storage_[kCapacity]{};
};

static_assert(sizeof(Action) == sizeof(void*) + Action::kCapacity);
static_assert(std::is_trivially_copyable_v<Action>);

namespace detail {

inline constexpr std::uint32_t kInvalidSlot = 0xffffffffu;
/// EventSlot::sequence of a slot with no armed event; larger than any
/// sequence a queue entry can carry, so it never matches one.
inline constexpr std::uint64_t kNoSequence = ~std::uint64_t{0};

/// One recyclable event record. While armed, `sequence` is the scheduling
/// sequence number of the event it holds — the queue entry carrying the
/// same (slot, sequence) is the live one, any other is stale. `generation`
/// is bumped every time the slot is retired (fired, cancelled or reset); a
/// handle holding an older generation is stale. Per-slot wrap-around needs
/// 2^32 retirements of the *same* slot — unreachable in practice.
struct EventSlot {
  Action action;
  SimTime time = 0.0;
  std::uint64_t sequence = kNoSequence;
  std::uint32_t generation = 0;
  std::uint32_t next_free = kInvalidSlot;
};

/// Slab arena of EventSlots with an intrusive free list. Slots are recycled
/// in LIFO order (hot in cache); slabs are never released before the arena
/// dies, so a run's allocation count is bounded by its peak pending events.
/// Not thread-safe — the DES kernel is single-threaded by design.
class EventArena {
 public:
  static constexpr std::uint32_t kSlabShift = 10;  // 1024 slots / slab
  static constexpr std::uint32_t kSlabSize = 1u << kSlabShift;

  EventArena() = default;
  EventArena(const EventArena&) = delete;
  EventArena& operator=(const EventArena&) = delete;

  /// Takes a free slot (growing by one slab when exhausted) and arms it with
  /// `(time, sequence, action)`. Returns the slot index; read the matching
  /// handle generation via generation().
  template <typename F>
  std::uint32_t acquire(SimTime time, std::uint64_t sequence, F&& action) {
    if (free_head_ == kInvalidSlot) grow();
    const std::uint32_t index = free_head_;
    EventSlot& slot = (*this)[index];
    free_head_ = slot.next_free;
    slot.action.emplace(std::forward<F>(action));
    slot.time = time;
    slot.sequence = sequence;
    ++live_;
    return index;
  }

  /// True while the slot holds the event scheduled as `sequence` (the queue
  /// entry's staleness test).
  [[nodiscard]] bool is_armed(std::uint32_t index, std::uint64_t sequence) const noexcept {
    return (*this)[index].sequence == sequence;
  }

  /// True while `generation` is the slot's current (armed) generation (the
  /// handle's staleness test).
  [[nodiscard]] bool is_current(std::uint32_t index, std::uint32_t generation) const noexcept {
    return (*this)[index].generation == generation;
  }

  [[nodiscard]] std::uint32_t generation(std::uint32_t index) const noexcept {
    return (*this)[index].generation;
  }

  [[nodiscard]] SimTime time(std::uint32_t index) const noexcept { return (*this)[index].time; }

  /// Retires the slot (stale-ing its handles) and returns its action for
  /// execution. Precondition: the slot is armed.
  [[nodiscard]] Action retire_and_take(std::uint32_t index) noexcept {
    EventSlot& slot = (*this)[index];
    const Action action = slot.action;
    release(index, slot);
    return action;
  }

  /// Cancels the event in `index` iff `generation` is still current.
  /// Returns true when this call performed the cancellation.
  bool cancel(std::uint32_t index, std::uint32_t generation) noexcept {
    EventSlot& slot = (*this)[index];
    if (slot.generation != generation) return false;
    release(index, slot);
    ++stats_.events_cancelled;
    return true;
  }

  /// Events currently armed (scheduled, not yet fired or cancelled).
  [[nodiscard]] std::size_t live() const noexcept { return live_; }

  /// Returns the arena to its just-constructed state while keeping every
  /// slab allocated: all slots are disarmed (generations bumped so
  /// outstanding handles read stale) and the free list is rebuilt in
  /// ascending index order — the same hand-out order a fresh arena produces
  /// as it grows. Stats restart from zero except arena_capacity, which keeps
  /// reporting the retained slots; arena_slabs therefore counts slab
  /// allocations *since the reset* (zero for a warmed arena).
  void reset() noexcept {
    free_head_ = kInvalidSlot;
    for (std::uint32_t index = capacity_; index-- > 0;) {
      EventSlot& slot = (*this)[index];
      slot.sequence = kNoSequence;
      ++slot.generation;
      slot.next_free = free_head_;
      free_head_ = index;
    }
    live_ = 0;
    stats_ = KernelStats{};
    stats_.arena_capacity = capacity_;
  }

  [[nodiscard]] const KernelStats& stats() const noexcept { return stats_; }
  [[nodiscard]] KernelStats& stats_mut() noexcept { return stats_; }

 private:
  EventSlot& operator[](std::uint32_t index) noexcept {
    return slabs_[index >> kSlabShift][index & (kSlabSize - 1)];
  }
  const EventSlot& operator[](std::uint32_t index) const noexcept {
    return slabs_[index >> kSlabShift][index & (kSlabSize - 1)];
  }

  void release(std::uint32_t index, EventSlot& slot) noexcept {
    slot.sequence = kNoSequence;
    ++slot.generation;
    slot.next_free = free_head_;
    free_head_ = index;
    DG_ASSERT(live_ > 0);
    --live_;
  }

  /// Slot indices must fit a queue entry's slot field (des/queue_policy.hpp).
  static constexpr std::uint32_t kMaxSlots = 1u << 24;

  /// Adds one slab to the free list (out of line: rare, and kept out of the
  /// inlined acquire()).
  void grow();

  std::vector<std::unique_ptr<EventSlot[]>> slabs_;
  std::uint32_t capacity_ = 0;
  std::uint32_t free_head_ = kInvalidSlot;
  std::size_t live_ = 0;
  KernelStats stats_;
};

/// Liveness record shared by a Simulator and the EventHandles it issued.
/// `arena` goes null when the simulator dies; whichever of the simulator
/// and its handles lets go last deletes the record. Plain-integer count:
/// simulators and their handles stay on one thread.
struct HandleAnchor {
  EventArena* arena;
  std::size_t refs;
};

inline void anchor_release(HandleAnchor* anchor) noexcept {
  if (anchor != nullptr && --anchor->refs == 0) delete anchor;
}

}  // namespace detail

/// Cancellable reference to a scheduled event.
///
/// Handles are cheap value types (a liveness-record pointer plus slot and
/// generation) and may freely outlive the event *and* the Simulator: a
/// handle whose event fired, was cancelled, or whose simulator died reports
/// pending() == false and cancel() == false. Copies share the record; none
/// of the operations allocate once the handle exists. Not thread-safe (like
/// the kernel itself).
class EventHandle {
 public:
  /// An inert handle: never pending, cancel() returns false.
  EventHandle() = default;

  EventHandle(const EventHandle& other) noexcept
      : anchor_(other.anchor_), slot_(other.slot_), generation_(other.generation_) {
    if (anchor_ != nullptr) ++anchor_->refs;
  }
  EventHandle(EventHandle&& other) noexcept
      : anchor_(std::exchange(other.anchor_, nullptr)), slot_(other.slot_),
        generation_(other.generation_) {}
  EventHandle& operator=(const EventHandle& other) noexcept {
    if (other.anchor_ != nullptr) ++other.anchor_->refs;  // before release: self-assignment
    detail::anchor_release(anchor_);
    anchor_ = other.anchor_;
    slot_ = other.slot_;
    generation_ = other.generation_;
    return *this;
  }
  EventHandle& operator=(EventHandle&& other) noexcept {
    if (this != &other) {
      detail::anchor_release(anchor_);
      anchor_ = std::exchange(other.anchor_, nullptr);
      slot_ = other.slot_;
      generation_ = other.generation_;
    }
    return *this;
  }
  ~EventHandle() { detail::anchor_release(anchor_); }

  /// Cancels the event if it is still pending, in O(1) (the slot is
  /// retired; the stale queue entry is skipped lazily when popped).
  /// Returns true if this call performed the cancellation (false if the
  /// event already ran, was already cancelled, or the handle is empty).
  bool cancel() noexcept {
    detail::EventArena* arena = this->arena();
    return arena != nullptr && arena->cancel(slot_, generation_);
  }

  /// True while the event is scheduled and not cancelled or executed.
  /// An event's own handle reads false during the action's execution.
  [[nodiscard]] bool pending() const noexcept {
    const detail::EventArena* arena = this->arena();
    return arena != nullptr && arena->is_current(slot_, generation_);
  }

  /// Scheduled firing time; only meaningful while pending() (0.0 otherwise).
  [[nodiscard]] SimTime time() const noexcept {
    return pending() ? arena()->time(slot_) : 0.0;
  }

 private:
  friend class Simulator;
  EventHandle(detail::HandleAnchor* anchor, std::uint32_t slot, std::uint32_t generation) noexcept
      : anchor_(anchor), slot_(slot), generation_(generation) {
    ++anchor_->refs;
  }

  [[nodiscard]] detail::EventArena* arena() const noexcept {
    return anchor_ != nullptr ? anchor_->arena : nullptr;
  }

  detail::HandleAnchor* anchor_ = nullptr;
  std::uint32_t slot_ = detail::kInvalidSlot;
  std::uint32_t generation_ = 0;
};

}  // namespace dg::des
