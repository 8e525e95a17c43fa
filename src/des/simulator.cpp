#include "des/simulator.hpp"

#include <cmath>

#include "util/assert.hpp"

namespace dg::des {

namespace detail {

void EventArena::grow() {
  DG_ASSERT_MSG(capacity_ + kSlabSize <= kMaxSlots, "event arena exhausted");
  slabs_.push_back(std::make_unique<EventSlot[]>(kSlabSize));
  const std::uint32_t base = capacity_;
  capacity_ += kSlabSize;
  // Chain the new slab back-to-front so slots are first handed out in
  // ascending index order (purely cosmetic; determinism never depends on
  // slot numbering).
  for (std::uint32_t i = kSlabSize; i-- > 0;) {
    EventSlot& slot = (*this)[base + i];
    slot.next_free = free_head_;
    free_head_ = base + i;
  }
  ++stats_.arena_slabs;
  stats_.arena_capacity = capacity_;
}

}  // namespace detail

void Simulator::enqueue(SimTime time, std::uint64_t sequence, std::uint32_t slot) {
  queue_push(QueueEntry::make(time, sequence, slot));
  KernelStats& stats = arena_.stats_mut();
  ++stats.events_scheduled;
  if (queue_size() > stats.heap_peak) stats.heap_peak = queue_size();
}

void Simulator::set_queue_backend(QueueBackend backend) {
  DG_ASSERT_MSG(queue_size() == 0, "queue backend can only change while the queue is empty");
  backend_ = backend;
}

bool Simulator::queue_skip_stale() {
  while (queue_size() != 0) {
    const QueueEntry& entry = queue_top();
    if (arena_.is_armed(entry.slot(), entry.sequence())) return true;
    queue_pop();
  }
  return false;
}

void Simulator::fire_front() {
  const std::uint32_t slot = queue_top().slot();
  queue_pop();
  // The slot keeps the exact scheduled time (the key holds it with -0.0
  // folded into +0.0).
  const SimTime time = arena_.time(slot);
  DG_ASSERT(time >= now_);
  now_ = time;
  ++arena_.stats_mut().events_fired;
  // Retiring before invoking makes the action's own handle read !pending();
  // the copy keeps the action intact when it reuses its own slot.
  Action action = arena_.retire_and_take(slot);
  action();
}

bool Simulator::step() {
  if (stopped_ || !queue_skip_stale()) return false;
  fire_front();
  return true;
}

void Simulator::run() {
  while (step()) {
  }
}

void Simulator::run_until(SimTime horizon) {
  DG_ASSERT(horizon >= now_);
  while (!stopped_ && queue_skip_stale()) {
    if (queue_top().time() > horizon) break;
    fire_front();
  }
  if (!stopped_ && now_ < horizon) now_ = horizon;
}

}  // namespace dg::des
