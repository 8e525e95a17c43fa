// Measurement helpers of the benchmark program: in-memory spans with self
// time, the reported tail percentile, short-cell classification, and paired
// comparison of policies under common random numbers. Header-only so the
// self-test exercises exactly the code the benchmark runs.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "exp/runner.hpp"
#include "sched/policy.hpp"
#include "stats/confidence.hpp"
#include "stats/online_stats.hpp"

namespace perfbench {

// ---------------------------------------------------------------------------
// Spans

inline constexpr std::uint32_t kNoParent = ~std::uint32_t{0};

/// One timed call into a layer. Spans of one replication share `rep`.
struct Span {
  const char* name = "";
  std::uint32_t parent = kNoParent;
  std::uint64_t rep = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Records spans in memory (reserve up front; nothing is written until the
/// run ends). Single-threaded.
class Tracer {
 public:
  explicit Tracer(std::size_t reserve) : origin_(std::chrono::steady_clock::now()) {
    spans_.reserve(reserve);
  }

  std::uint32_t begin(const char* name, std::uint32_t parent, std::uint64_t rep) {
    spans_.push_back(Span{name, parent, rep, now_ns(), 0});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }
  void end(std::uint32_t id) { spans_[id].end_ns = now_ns(); }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of its interval that
/// its children cover (overlapping children are counted once).
[[nodiscard]] inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> covered(spans.size());
  for (const Span& span : spans) {
    if (span.parent == kNoParent) continue;
    const Span& parent = spans[span.parent];
    const std::int64_t lo = std::max(span.start_ns, parent.start_ns);
    const std::int64_t hi = std::min(span.end_ns, parent.end_ns);
    if (hi > lo) covered[span.parent].emplace_back(lo, hi);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<std::int64_t, std::int64_t>>& parts = covered[i];
    std::sort(parts.begin(), parts.end());
    std::int64_t children = 0;
    std::int64_t reach = spans[i].start_ns;
    for (const auto& [lo, hi] : parts) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) children += hi - from;
      reach = std::max(reach, hi);
    }
    self[i] = spans[i].end_ns - spans[i].start_ns - children;
  }
  return self;
}

/// Count, total and self time of all spans with one name.
struct SpanTotal {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

[[nodiscard]] inline std::map<std::string, SpanTotal> totals_by_name(
    const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times(spans);
  std::map<std::string, SpanTotal> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanTotal& total = totals[spans[i].name];
    ++total.count;
    total.total_ns += spans[i].end_ns - spans[i].start_ns;
    total.self_ns += self[i];
  }
  return totals;
}

// ---------------------------------------------------------------------------
// Timing summaries

/// Median of `values` (mean of the middle two for an even count); 0 if empty.
[[nodiscard]] inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

/// A timing distribution reported as its median and the highest percentile
/// that still has at least ten samples beyond it.
struct Tail {
  double median = 0.0;
  double value = 0.0;     ///< the tail percentile's value
  int percentile = 50;    ///< which percentile `value` is (50 when none qualifies)
  std::size_t samples = 0;
};

/// Nearest-rank percentiles from {99, 95, 90, 75}; the first whose rank
/// leaves >= 10 samples above it is reported. With fewer samples the tail is
/// the median.
[[nodiscard]] inline Tail tail_of(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  tail.median = median(values);
  tail.value = tail.median;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  for (const int p : {99, 95, 90, 75}) {
    const std::size_t rank = (static_cast<std::size_t>(p) * n + 99) / 100;  // ceil(p n / 100)
    if (rank >= 1 && n - rank >= 10) {
      tail.value = values[rank - 1];
      tail.percentile = p;
      break;
    }
  }
  return tail;
}

// ---------------------------------------------------------------------------
// Cell statistics

/// A cell that stopped short: it used every replication the stop rule allows,
/// its CI half-width is still above the target, and it is not saturated (a
/// saturated cell's mean is only a lower bound, so its width means nothing).
[[nodiscard]] inline bool cell_short(const dg::exp::CellResult& cell,
                                     const dg::exp::RunOptions& options) {
  return cell.replications >= options.max_replications && !cell.saturated() &&
         cell.turnaround_ci().relative_error() > options.target_relative_error;
}

/// `label` with the policy name removed where it stands as a whole token
/// (bounded by the string ends, '/' or ' '): equal for cells that differ only
/// in policy.
[[nodiscard]] inline std::string policy_free_key(const std::string& label,
                                                 const std::string& policy) {
  const auto delimiter = [&](std::size_t pos) { return label[pos] == '/' || label[pos] == ' '; };
  for (std::size_t pos = label.find(policy); pos != std::string::npos;
       pos = label.find(policy, pos + 1)) {
    const std::size_t end = pos + policy.size();
    if ((pos == 0 || delimiter(pos - 1)) && (end == label.size() || delimiter(end))) {
      return label.substr(0, pos) + label.substr(end);
    }
  }
  return label;
}

/// Paired-difference test of two policies: the turnaround samples of the two
/// cells are paired by replication index (valid because replication k of
/// every cell uses the same seed), and the pair is resolved when the CI of
/// the mean difference at `level` excludes 0. Needs two pairs.
[[nodiscard]] inline bool pair_resolved(const std::vector<double>& a,
                                        const std::vector<double>& b, double level) {
  const std::size_t n = std::min(a.size(), b.size());
  if (n < 2) return false;
  dg::stats::OnlineStats diff;
  for (std::size_t k = 0; k < n; ++k) diff.add(a[k] - b[k]);
  return !dg::stats::mean_confidence_interval(diff, level).contains(0.0);
}

struct PairCount {
  std::size_t pairs = 0;
  std::size_t resolved = 0;
};

/// Every policy pair within groups of cells that differ only in policy.
[[nodiscard]] inline PairCount resolve_pairs(const std::vector<dg::exp::CellResult>& cells,
                                             double level) {
  std::map<std::string, std::vector<const dg::exp::CellResult*>> groups;
  for (const dg::exp::CellResult& cell : cells) {
    groups[policy_free_key(cell.label, dg::sched::to_string(cell.config.policy))].push_back(
        &cell);
  }
  PairCount count;
  for (const auto& [key, members] : groups) {
    for (std::size_t i = 0; i < members.size(); ++i) {
      for (std::size_t j = i + 1; j < members.size(); ++j) {
        ++count.pairs;
        if (pair_resolved(members[i]->turnaround.samples(), members[j]->turnaround.samples(),
                          level)) {
          ++count.resolved;
        }
      }
    }
  }
  return count;
}

}  // namespace perfbench
