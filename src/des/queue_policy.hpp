// Pluggable event-queue backends for the DES kernel.
//
// The simulator's pending-event set is a priority queue of 16-byte entries,
// each a single 128-bit key: the bit pattern of the event time in the high
// word, the scheduling sequence number and the arena slot in the low word.
// For the non-negative, finite times the kernel accepts, one unsigned integer
// compare of two keys is the (time, sequence) order; the sequence tie-break
// makes runs bitwise deterministic regardless of backend. This header
// defines the EventQueuePolicy concept — the seam between the Simulator run
// loop and the queue data structure — and two conforming backends:
//
//  * FourAryHeapQueue — a cache-friendly 4-ary implicit heap. O(log4 n)
//    push/pop; pop walks the hole to a leaf along the earliest children
//    (branch-free min-of-4) and sifts the last entry back up. The default.
//  * CalendarQueue — a two-tier ladder queue tuned for the near-future-heavy
//    event mix of desktop-grid runs (most schedules land close to now, a thin
//    tail of failure/repair events lands far out). Near-future entries live
//    in a small sorted vector (O(1) pop, short memmove on insert); far-future
//    entries accumulate in an unsorted overflow list (O(1) push) that is
//    bucketed into a ladder rung-by-rung as the clock reaches it, so each
//    entry is sorted once inside a small bucket instead of sifted through a
//    deep heap.
//
// Every backend must pop in ascending (time, sequence) order — the bitwise-
// determinism contract. tests/test_kernel_equivalence.cpp runs the full
// policy x availability matrix on each backend and asserts identical event
// sequences and kernel counters; tests/test_des.cpp and
// tests/test_queue_policy.cpp cross-check the backends directly on
// randomized push/pop traces.
//
// Backend selection: the DGSCHED_QUEUE CMake cache variable picks the
// compile-time default; the DGSCHED_QUEUE environment variable ("heap4" |
// "calendar") overrides it at runtime (see default_queue_backend()).
#pragma once

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>
#include <vector>

#include "des/event.hpp"
#include "util/assert.hpp"

namespace dg::des {

/// One priority-queue entry: a 128-bit key ordering by (time, sequence).
///
///  * bits 127..64: the IEEE-754 bit pattern of `time + 0.0` (the addition
///    turns -0.0 into +0.0); for non-negative times the pattern is monotone
///    in the value;
///  * bits 63..24: the event's scheduling sequence number (unique per run);
///  * bits 23..0:  the arena slot holding the event.
///
/// Keys are unique (sequences are), so any correct priority queue pops them
/// in one order. Stale entries — whose slot no longer holds that sequence —
/// are skipped when they surface at the front; cancellation never touches
/// the queue structure.
struct QueueEntry {
  __extension__ using Key = unsigned __int128;

  static constexpr int kSlotBits = 24;
  static constexpr int kSequenceBits = 64 - kSlotBits;
  static constexpr std::uint64_t kMaxSequence = (std::uint64_t{1} << kSequenceBits) - 1;
  static constexpr std::uint32_t kMaxSlot = (std::uint32_t{1} << kSlotBits) - 1;

  Key key;

  /// Packs an entry. Preconditions: `time` is finite and >= 0 (or -0.0),
  /// `sequence` <= kMaxSequence, `slot` <= kMaxSlot.
  [[nodiscard]] static QueueEntry make(SimTime time, std::uint64_t sequence,
                                       std::uint32_t slot) noexcept {
    DG_ASSERT_MSG(time >= 0.0, "queue keys need a non-negative time");
    DG_ASSERT_MSG(sequence <= kMaxSequence, "event sequence space exhausted");
    DG_ASSERT_MSG(slot <= kMaxSlot, "event slot outside the queue key");
    const std::uint64_t low = (sequence << kSlotBits) | slot;
    return QueueEntry{(Key{std::bit_cast<std::uint64_t>(time + 0.0)} << 64) | low};
  }

  [[nodiscard]] SimTime time() const noexcept {
    return std::bit_cast<SimTime>(static_cast<std::uint64_t>(key >> 64));
  }
  [[nodiscard]] std::uint64_t sequence() const noexcept {
    return static_cast<std::uint64_t>(key) >> kSlotBits;
  }
  [[nodiscard]] std::uint32_t slot() const noexcept {
    return static_cast<std::uint32_t>(key) & kMaxSlot;
  }
};

static_assert(sizeof(QueueEntry) == 16);

/// Strict weak order the kernel fires events in: ascending time, scheduling
/// order within a timestamp.
[[nodiscard]] constexpr bool queue_earlier(const QueueEntry& a, const QueueEntry& b) noexcept {
  return a.key < b.key;
}

/// The seam between Simulator and its pending-event store. Semantics every
/// backend must honour:
///  * top()/pop() yield entries in ascending (time, sequence) order;
///  * size() counts every pushed-not-yet-popped entry, stale ones included
///    (the kernel's heap_peak counter is defined over this physical size);
///  * clear() empties the queue but retains capacity (workspace reuse);
///  * top() may mutate internal state (the calendar queue sorts its next
///    rung lazily) but never the pop order.
template <typename Q>
concept EventQueuePolicy = requires(Q q, const Q cq, const QueueEntry& e) {
  { q.push(e) } -> std::same_as<void>;
  { q.top() } -> std::convertible_to<const QueueEntry&>;
  { q.pop() } -> std::same_as<void>;
  { cq.empty() } -> std::convertible_to<bool>;
  { cq.size() } -> std::convertible_to<std::size_t>;
  { q.clear() } -> std::same_as<void>;
};

/// The default kernel queue: a 4-ary implicit heap of 16-byte keys.
class FourAryHeapQueue {
 public:
  void push(const QueueEntry& entry) {
    std::size_t hole = heap_.size();
    heap_.push_back(entry);
    sift_up(hole, entry);
  }

  [[nodiscard]] const QueueEntry& top() noexcept { return heap_.front(); }

  void pop() {
    const QueueEntry last = heap_.back();
    heap_.pop_back();
    const std::size_t size = heap_.size();
    if (size == 0) return;
    // Bottom-up pop: walk the root's hole down to a leaf, always promoting
    // the earliest child, then sift the former last entry up from there. The
    // last entry almost always belongs near the bottom, so this skips the
    // per-level "does `last` fit here" compare of a classic sift-down.
    std::size_t hole = 0;
    const QueueEntry* heap = heap_.data();
    for (;;) {
      const std::size_t first = hole * kArity + 1;
      std::size_t best;
      if (first + kArity <= size) {
        // Full node: branch-free tournament over the four children (the
        // winner is data-dependent, so branches here mispredict often).
        const QueueEntry* c = heap + first;
        const std::size_t a = key_less(c[1], c[0]);
        const std::size_t b = 2 + key_less(c[3], c[2]);
        best = first + a + ((b - a) & (std::size_t{0} - key_less(c[b], c[a])));
      } else if (first < size) {
        best = first;
        for (std::size_t child = first + 1; child < size; ++child) {
          if (heap[child].key < heap[best].key) best = child;
        }
      } else {
        break;
      }
      heap_[hole] = heap_[best];
      hole = best;
    }
    sift_up(hole, last);
  }

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }
  void clear() noexcept { heap_.clear(); }

 private:
  static constexpr std::size_t kArity = 4;

  /// 1 if `a` sorts before `b`, else 0, computed without a branch: keys stay
  /// below 2^127 (a non-negative time has its sign bit clear), so `a - b`
  /// wraps to 2^127 or above exactly when a < b.
  [[nodiscard]] static std::size_t key_less(const QueueEntry& a, const QueueEntry& b) noexcept {
    return static_cast<std::size_t>((a.key - b.key) >> 127);
  }

  /// Moves `entry` from `hole` towards the root until its parent is earlier.
  void sift_up(std::size_t hole, const QueueEntry& entry) noexcept {
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / kArity;
      if (!(entry.key < heap_[parent].key)) break;
      heap_[hole] = heap_[parent];
      hole = parent;
    }
    heap_[hole] = entry;
  }

  std::vector<QueueEntry> heap_;
};

/// A two-tier calendar/ladder queue.
///
/// State machine:
///  * Without a ladder, entries with time below `near_limit_` are insertion-
///    sorted into `near_` (drained in place through `cursor_`); later entries
///    append to the unsorted `overflow_` in O(1). When the live part of
///    `near_` outgrows a threshold, its tail spills to `overflow_` and
///    `near_limit_` drops to the first spilled time, keeping inserts short.
///  * When `near_` drains and `overflow_` is non-empty, the overflow is
///    bucketed into a ladder of equal-width rungs spanning
///    [min overflow time, max overflow time]. Rungs are swapped into `near_`
///    and sorted one at a time as the clock reaches them, so each entry is
///    sorted once within a small bucket. Pushes while a ladder is active
///    route by the same bucket-index arithmetic used to build it, which
///    makes same-timestamp entries land in the same container regardless of
///    floating-point rounding at rung boundaries; the sequence tie-break
///    then restores FIFO order locally. Entries past the last rung fall back
///    to `overflow_` and seed the next ladder.
///
/// Pop order is provably ascending (time, sequence): every overflow entry is
/// no earlier than `near_limit_` (boundary timestamp ties always carry
/// larger sequence numbers than the near-side entries they tie with), and a
/// pushed entry always carries the largest pending sequence, so routing it
/// to the same-or-later container than its timestamp peers preserves order.
class CalendarQueue {
 public:
  void push(const QueueEntry& entry) {
    ++size_;
    if (ladder_active_) {
      const double d = (entry.time() - base_) / width_;
      if (!(d >= static_cast<double>(current_bucket_) + 1.0)) {
        near_insert(entry);
      } else if (d >= static_cast<double>(bucket_count_)) {
        overflow_.push_back(entry);
      } else {
        buckets_[static_cast<std::size_t>(d)].push_back(entry);
      }
      return;
    }
    if (entry.time() < near_limit_) {
      near_insert(entry);
      if (near_.size() - cursor_ > kSpillThreshold) spill_near();
    } else {
      overflow_.push_back(entry);
    }
  }

  [[nodiscard]] const QueueEntry& top() {
    DG_ASSERT(size_ > 0);
    if (cursor_ == near_.size()) refill();
    return near_[cursor_];
  }

  void pop() {
    DG_ASSERT(size_ > 0);
    if (cursor_ == near_.size()) refill();
    ++cursor_;
    --size_;
  }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  void clear() noexcept;

 private:
  /// Spill when the live (unpopped) part of near_ exceeds this many entries;
  /// bounds the memmove cost of a sorted insert.
  static constexpr std::size_t kSpillThreshold = 2048;
  /// Entries retained in near_ by a spill — enough to keep popping without an
  /// immediate refill.
  static constexpr std::size_t kNearKeep = 64;
  /// Target entries per ladder rung; rung count is the power of two nearest
  /// overflow_size / kBucketChunk.
  static constexpr std::size_t kBucketChunk = 32;
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 16;

  void near_insert(const QueueEntry& entry) {
    // The live region starts at cursor_: a new entry is never earlier than
    // the last popped one (time >= now and its sequence is the largest yet),
    // so the insertion point is always at or after cursor_.
    auto it = std::upper_bound(near_.begin() + static_cast<std::ptrdiff_t>(cursor_), near_.end(),
                               entry, queue_earlier);
    near_.insert(it, entry);
  }

  void spill_near();
  void refill();
  void build_ladder();

  std::vector<QueueEntry> near_;   ///< Sorted; [0, cursor_) already popped.
  std::size_t cursor_ = 0;
  std::vector<QueueEntry> overflow_;  ///< Unsorted; times >= near_limit_.
  std::vector<std::vector<QueueEntry>> buckets_;
  std::size_t bucket_count_ = 0;
  std::size_t current_bucket_ = 0;  ///< Rung currently merged into near_.
  bool ladder_active_ = false;
  double near_limit_ = std::numeric_limits<double>::infinity();
  double base_ = 0.0;   ///< Ladder origin (min overflow time at build).
  double width_ = 1.0;  ///< Rung width in simulated seconds.
  std::size_t size_ = 0;
};

static_assert(EventQueuePolicy<FourAryHeapQueue>);
static_assert(EventQueuePolicy<CalendarQueue>);

/// Runtime-selectable backend identifier. Both backends are always compiled
/// in (the equivalence suite runs them side by side in one binary); the enum
/// picks which one a Simulator instance drives.
enum class QueueBackend : std::uint8_t {
  kHeap4 = 0,
  kCalendar = 1,
};

[[nodiscard]] std::string_view to_string(QueueBackend backend) noexcept;

/// Parses "heap4" / "calendar"; nullopt on anything else.
[[nodiscard]] std::optional<QueueBackend> parse_queue_backend(std::string_view text) noexcept;

/// The backend a default-constructed Simulator uses: the DGSCHED_QUEUE
/// environment variable when set ("heap4" | "calendar"; anything else throws
/// std::invalid_argument naming the variable and value), otherwise the
/// compile-time default chosen by the DGSCHED_QUEUE CMake cache variable.
[[nodiscard]] QueueBackend default_queue_backend();

}  // namespace dg::des
