#include "des/queue_policy.hpp"

#include <cstdlib>
#include <stdexcept>
#include <string>

namespace dg::des {

void CalendarQueue::clear() noexcept {
  near_.clear();
  overflow_.clear();
  for (std::vector<QueueEntry>& bucket : buckets_) bucket.clear();
  cursor_ = 0;
  bucket_count_ = 0;
  current_bucket_ = 0;
  ladder_active_ = false;
  near_limit_ = std::numeric_limits<double>::infinity();
  base_ = 0.0;
  width_ = 1.0;
  size_ = 0;
}

void CalendarQueue::spill_near() {
  // Compact the popped prefix first so the split below is a plain suffix move.
  near_.erase(near_.begin(), near_.begin() + static_cast<std::ptrdiff_t>(cursor_));
  cursor_ = 0;
  DG_ASSERT(near_.size() > kNearKeep);
  // Every spilled entry is >= the new limit (near_ is sorted), every
  // pre-existing overflow entry is >= the old, larger limit, and near-side
  // entries tying the new limit carry smaller sequence numbers than the
  // spilled ones — so overflow remains uniformly "no earlier than near_".
  near_limit_ = near_[kNearKeep].time();
  overflow_.insert(overflow_.end(), near_.begin() + static_cast<std::ptrdiff_t>(kNearKeep),
                   near_.end());
  near_.resize(kNearKeep);
}

void CalendarQueue::refill() {
  near_.clear();
  cursor_ = 0;
  for (;;) {
    while (ladder_active_) {
      if (current_bucket_ >= bucket_count_) {
        ladder_active_ = false;
        near_limit_ = std::numeric_limits<double>::infinity();
        break;
      }
      if (!buckets_[current_bucket_].empty()) {
        // Adopt the rung wholesale; pushes targeting this rung from now on
        // merge into near_ directly (see push()), so the swapped-out bucket
        // stays empty and the next refill advances past it.
        near_.swap(buckets_[current_bucket_]);
        std::sort(near_.begin(), near_.end(), queue_earlier);
        return;
      }
      ++current_bucket_;
    }
    if (overflow_.empty()) {
      DG_ASSERT_MSG(size_ == 0, "calendar queue lost entries");
      return;
    }
    build_ladder();
  }
}

void CalendarQueue::build_ladder() {
  double lo = overflow_.front().time();
  double hi = lo;
  for (const QueueEntry& entry : overflow_) {
    lo = std::min(lo, entry.time());
    hi = std::max(hi, entry.time());
  }
  const std::size_t want = overflow_.size() / kBucketChunk;
  std::size_t count = 1;
  while (count < want && count < kMaxBuckets) count <<= 1;
  bucket_count_ = count;
  if (buckets_.size() < bucket_count_) buckets_.resize(bucket_count_);
  base_ = lo;
  const double span = hi - lo;
  width_ = span > 0.0 ? span / static_cast<double>(bucket_count_) : 1.0;
  for (const QueueEntry& entry : overflow_) {
    const double d = (entry.time() - base_) / width_;
    const std::size_t idx = d >= static_cast<double>(bucket_count_)
                                ? bucket_count_ - 1
                                : static_cast<std::size_t>(d);
    buckets_[idx].push_back(entry);
  }
  overflow_.clear();
  current_bucket_ = 0;
  ladder_active_ = true;
}

std::string_view to_string(QueueBackend backend) noexcept {
  switch (backend) {
    case QueueBackend::kHeap4:
      return "heap4";
    case QueueBackend::kCalendar:
      return "calendar";
  }
  return "heap4";
}

std::optional<QueueBackend> parse_queue_backend(std::string_view text) noexcept {
  if (text == "heap4") return QueueBackend::kHeap4;
  if (text == "calendar") return QueueBackend::kCalendar;
  return std::nullopt;
}

QueueBackend default_queue_backend() {
  if (const char* text = std::getenv("DGSCHED_QUEUE"); text != nullptr && *text != '\0') {
    const std::optional<QueueBackend> parsed = parse_queue_backend(text);
    if (!parsed.has_value()) {
      throw std::invalid_argument(std::string("DGSCHED_QUEUE: expected \"heap4\" or \"calendar\", got \"") +
                                  text + "\"");
    }
    return *parsed;
  }
#if defined(DGSCHED_DEFAULT_QUEUE_CALENDAR)
  return QueueBackend::kCalendar;
#else
  return QueueBackend::kHeap4;
#endif
}

}  // namespace dg::des
