// Self-tests of the benchmark's own measurement code (metrics.hpp): the
// reported tail percentile, short-cell classification, policy pairing, and
// span self time. Exits non-zero on the first failure; run.py runs it before
// every measurement.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "metrics.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> values;
  for (std::size_t i = 1; i <= n; ++i) values.push_back(static_cast<double>(i));
  return values;
}

void test_tail() {
  // 1000 samples: rank(p99) = 990 leaves exactly 10 above it.
  perfbench::Tail tail = perfbench::tail_of(ramp(1000));
  expect(tail.percentile == 99 && tail.value == 990.0, "p99 reported at n=1000");
  // 999 samples: p99 leaves 9, so p95 (rank 950, 49 above) is reported.
  tail = perfbench::tail_of(ramp(999));
  expect(tail.percentile == 95 && tail.value == 950.0, "p95 reported at n=999");
  // 310 samples (a figure workload): p95 rank 295 leaves 15.
  tail = perfbench::tail_of(ramp(310));
  expect(tail.percentile == 95 && tail.value == 295.0 && tail.samples == 310, "p95 at n=310");
  // 40 samples: p75 rank 30 leaves 10.
  tail = perfbench::tail_of(ramp(40));
  expect(tail.percentile == 75 && tail.value == 30.0, "p75 at n=40");
  // 12 samples: nothing qualifies, the tail is the median.
  tail = perfbench::tail_of(ramp(12));
  expect(tail.percentile == 50 && tail.value == 6.5 && tail.median == 6.5, "median at n=12");
  expect(perfbench::median({}) == 0.0, "median of nothing");
  expect(perfbench::median({3.0, 1.0, 2.0}) == 2.0, "odd median");
}

dg::exp::CellResult cell_with(const std::vector<double>& samples, const std::string& label,
                              dg::sched::PolicyKind policy) {
  dg::exp::CellResult cell;
  cell.label = label;
  cell.config.policy = policy;
  cell.turnaround = dg::stats::ReplicationAnalyzer(0.95, 0.05, 3);
  for (double x : samples) cell.turnaround.add(x);
  cell.replications = samples.size();
  return cell;
}

void test_short_cells() {
  dg::exp::RunOptions options;
  options.min_replications = 3;
  options.max_replications = 4;
  options.target_relative_error = 0.05;
  using dg::sched::PolicyKind;
  // Wide CI at the cap: short.
  dg::exp::CellResult wide = cell_with({100.0, 200.0, 150.0, 120.0}, "a", PolicyKind::kFcfsShare);
  expect(perfbench::cell_short(wide, options), "wide capped cell is short");
  // Narrow CI at the cap: met its target.
  dg::exp::CellResult narrow =
      cell_with({100.0, 100.5, 100.2, 100.1}, "a", PolicyKind::kFcfsShare);
  expect(!perfbench::cell_short(narrow, options), "narrow capped cell is not short");
  // Wide CI below the cap cannot happen under the stop rule; not short.
  dg::exp::CellResult early = cell_with({100.0, 200.0, 150.0}, "a", PolicyKind::kFcfsShare);
  expect(!perfbench::cell_short(early, options), "cell below the cap is not short");
  // Saturated cells are counted apart, never as short.
  wide.saturated_replications = 1;
  expect(!perfbench::cell_short(wide, options), "saturated cell is not short");
}

void test_pairing() {
  using dg::sched::PolicyKind;
  expect(perfbench::policy_free_key("Het-HighAvail/high/g=1000/RR", "RR") ==
             perfbench::policy_free_key("Het-HighAvail/high/g=1000/RR-NRF", "RR-NRF"),
         "figure labels group by panel and granularity");
  expect(perfbench::policy_free_key("RR a=0.98 s=1 U=0.5 r=2", "RR") ==
             perfbench::policy_free_key("LongIdle a=0.98 s=1 U=0.5 r=2", "LongIdle"),
         "campaign labels group by axes");
  expect(perfbench::policy_free_key("RR-NRF/x", "RR") == "RR-NRF/x",
         "a policy name inside another token is not removed");

  // Common random numbers: a shared per-replication offset cancels in the
  // paired difference, so a 1% gap is resolved although the means' own CIs
  // overlap widely.
  const std::vector<double> a = {100.0, 300.0, 200.0, 150.0};
  const std::vector<double> b = {101.0, 303.0, 202.0, 151.5};
  expect(perfbench::pair_resolved(a, b, 0.95), "consistent paired gap is resolved");
  expect(!perfbench::pair_resolved(a, a, 0.95), "identical samples are not resolved");
  expect(!perfbench::pair_resolved({1.0}, {2.0}, 0.95), "one pair is not enough");
  const std::vector<double> c = {110.0, 290.0, 205.0, 145.0};
  expect(!perfbench::pair_resolved(a, c, 0.95), "mixed-sign differences are not resolved");
  // Pairing is by replication index and truncates to the shorter cell.
  expect(perfbench::pair_resolved({1.0, 2.0, 3.0, 999.0}, {2.0, 3.0, 4.0}, 0.95),
         "pairs truncate to the shorter cell");

  std::vector<dg::exp::CellResult> cells = {
      cell_with(a, "P/g=1/FCFS-Share", PolicyKind::kFcfsShare),
      cell_with(b, "P/g=1/RR", PolicyKind::kRoundRobin),
      cell_with(c, "P/g=1/LongIdle", PolicyKind::kLongIdle),
      cell_with(a, "P/g=2/FCFS-Share", PolicyKind::kFcfsShare),
  };
  const perfbench::PairCount count = perfbench::resolve_pairs(cells, 0.95);
  expect(count.pairs == 3, "three pairs within the g=1 group, none across groups");
  expect(count.resolved == 1, "only FCFS-Share vs RR is resolved");
}

void test_self_time() {
  using perfbench::kNoParent;
  using perfbench::Span;
  // root [0,100) with children [10,30) and [20,50) (overlapping) and a
  // grandchild [12,18) inside the first child.
  const std::vector<Span> spans = {
      {"root", kNoParent, 0, 0, 100},
      {"child", 0, 0, 10, 30},
      {"child", 0, 0, 20, 50},
      {"leaf", 1, 0, 12, 18},
  };
  const std::vector<std::int64_t> self = perfbench::self_times(spans);
  expect(self[0] == 60, "root self time counts overlapping children once");
  expect(self[1] == 14, "child self time excludes its grandchild");
  expect(self[2] == 30 && self[3] == 6, "leaf self time is its duration");
  const auto totals = perfbench::totals_by_name(spans);
  expect(totals.at("child").count == 2 && totals.at("child").total_ns == 50 &&
             totals.at("child").self_ns == 44,
         "totals by name");

  perfbench::Tracer tracer(4);
  const std::uint32_t outer = tracer.begin("outer", kNoParent, 7);
  const std::uint32_t inner = tracer.begin("inner", outer, 7);
  tracer.end(inner);
  tracer.end(outer);
  const std::vector<Span>& recorded = tracer.spans();
  expect(recorded.size() == 2 && recorded[1].parent == outer && recorded[1].rep == 7,
         "tracer records parent and replication id");
  expect(recorded[0].start_ns <= recorded[1].start_ns && recorded[1].end_ns <= recorded[0].end_ns,
         "child span nests in its parent");
}

}  // namespace

int main() {
  test_tail();
  test_short_cells();
  test_pairing();
  test_self_time();
  if (failures > 0) return 1;
  std::printf("perfbench selftest: ok\n");
  return 0;
}
