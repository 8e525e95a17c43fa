// Minimal byte-buffer writer/reader for same-machine binary artifacts.
//
// Campaign journal records (exp/journal.hpp) carry serialized replication
// summaries on disk. They are written and read by runs of one build on one
// machine, so the encoding is deliberately plain: fixed-width host-endian
// PODs, memcpy'd — a double round-trips bitwise, which is what the
// byte-identity contract of a resumed campaign rests on. Nothing here is a
// wire format for foreign machines; the journal header carries magic +
// version fields so a mismatched reader fails loudly instead of misparsing.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <type_traits>
#include <vector>

namespace dg::util {

/// FNV-1a 64-bit over a raw byte range — the checksum used by shared-memory
/// ring slots and journal records. Chainable via the `h` parameter.
[[nodiscard]] inline std::uint64_t fnv1a64_bytes(const void* data, std::size_t size,
                                                 std::uint64_t h = 0xcbf29ce484222325ULL) noexcept {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Appends `count` trivially-copyable elements (no length prefix — callers
/// write their own counts so formats stay self-describing at the right
/// granularity).
template <typename T>
void put_array(std::vector<std::uint8_t>& out, const T* data, std::size_t count) {
  static_assert(std::is_trivially_copyable_v<T>, "put_array needs a trivially copyable type");
  // resize + memcpy rather than a range insert: GCC 12 flags the insert into
  // a just-cleared vector with a false -Wstringop-overflow.
  const std::size_t offset = out.size();
  out.resize(offset + count * sizeof(T));
  if (count > 0) std::memcpy(out.data() + offset, data, count * sizeof(T));
}

/// Appends the raw bytes of a trivially-copyable value to `out`.
template <typename T>
void put_pod(std::vector<std::uint8_t>& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>, "put_pod needs a trivially copyable type");
  put_array(out, &value, 1);
}

/// Bounds-checked reader over a byte range. Every underrun throws
/// std::runtime_error — truncated payloads / journal tails surface as
/// exceptions the caller turns into "treat as absent".
class ByteReader {
 public:
  ByteReader(const std::uint8_t* begin, const std::uint8_t* end) : cur_(begin), end_(end) {}
  ByteReader(const void* data, std::size_t size)
      : ByteReader(static_cast<const std::uint8_t*>(data),
                   static_cast<const std::uint8_t*>(data) + size) {}

  template <typename T>
  [[nodiscard]] T pod() {
    static_assert(std::is_trivially_copyable_v<T>, "pod() needs a trivially copyable type");
    T value;
    copy(&value, sizeof(T));
    return value;
  }

  /// Copies `count` elements into `dest` (which must have room).
  template <typename T>
  void array(T* dest, std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>, "array() needs a trivially copyable type");
    copy(dest, count * sizeof(T));
  }

  /// The current read position (e.g. to alias into an mmap'd region) —
  /// advanced past `bytes` without copying. Throws on underrun like pod().
  [[nodiscard]] const std::uint8_t* skip(std::size_t bytes) {
    if (remaining() < bytes) throw std::runtime_error("ByteReader: truncated input");
    const std::uint8_t* at = cur_;
    cur_ += bytes;
    return at;
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return static_cast<std::size_t>(end_ - cur_);
  }
  [[nodiscard]] bool exhausted() const noexcept { return cur_ == end_; }

 private:
  void copy(void* dest, std::size_t bytes) {
    if (remaining() < bytes) throw std::runtime_error("ByteReader: truncated input");
    // An empty array may come with a null `dest` (an empty vector's data()),
    // which memcpy must not see even for zero bytes.
    if (bytes == 0) return;
    std::memcpy(dest, cur_, bytes);
    cur_ += bytes;
  }

  const std::uint8_t* cur_;
  const std::uint8_t* end_;
};

}  // namespace dg::util
