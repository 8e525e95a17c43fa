// Fixed-slot shared-memory transfer ring for parent/child result transport.
//
// The sharded campaign coordinator forks its workers, so a MAP_SHARED |
// MAP_ANONYMOUS region created *before* fork() is visible to every child —
// including replacements forked later, since all forks happen after ring
// creation. Each worker gets its own ring of fixed-size payload slots; the
// coordinator hands a free slot index out with every assigned job, the worker
// writes the serialized `exp::ReplicationSummary` into that slot, and the
// completion message on the control socket carries only the slot index — the
// tens-of-KB sketch payload never crosses the pipe.
//
// Synchronization is by ownership hand-off, not atomics: a slot belongs to
// exactly one side at a time, and the visibility edge is the socket itself
// (the worker's write() of the completion message happens-after its stores
// into the slot; the coordinator's read() of that message happens-before its
// loads). A worker that dies mid-chunk simply leaves slots unread — the
// coordinator reclaims the indices and the next writer overwrites them.
//
// Reads are validate-then-copy: the slot header carries the payload size
// and an FNV-1a checksum, and the consumer verifies both before trusting a
// byte. A garbled slot (a worker killed
// mid-memcpy by fault injection) throws instead of folding corrupt stats.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dg::util {

class ShmRing {
 public:
  /// Sentinel slot index meaning "no slot — payload travels inline on the
  /// control socket instead". Kept here so producer and consumer agree.
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  /// Maps `slots` slots of `payload_capacity` bytes each. Must be called
  /// before forking any process that should share the ring.
  ShmRing(std::size_t slots, std::size_t payload_capacity);
  ~ShmRing();
  ShmRing(const ShmRing&) = delete;
  ShmRing& operator=(const ShmRing&) = delete;

  [[nodiscard]] std::size_t slots() const noexcept { return slots_; }
  [[nodiscard]] std::size_t payload_capacity() const noexcept { return capacity_; }

  /// Producer side: stores `size` bytes plus the size/checksum header into
  /// `slot`. Throws std::length_error if the payload exceeds the slot
  /// capacity (callers check first and fall back to inline transport).
  void write(std::size_t slot, const std::uint8_t* data, std::size_t size);

  /// Consumer side: validates the header (size bound + checksum) and copies
  /// the payload into `out` (replacing its contents). Throws
  /// std::runtime_error on any mismatch — a torn or stale slot is an error,
  /// never silently folded.
  void read(std::size_t slot, std::vector<std::uint8_t>& out) const;

  /// Zeroes the slot header so a stale re-read fails validation loudly.
  void release(std::size_t slot) noexcept;

 private:
  struct SlotHeader {
    std::uint64_t size;
    std::uint64_t checksum;
  };

  [[nodiscard]] std::uint8_t* slot_base(std::size_t slot) const noexcept;

  std::size_t slots_;
  std::size_t capacity_;
  std::size_t stride_;
  std::uint8_t* base_ = nullptr;
};

}  // namespace dg::util
