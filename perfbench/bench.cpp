// Benchmark program: runs one named workload through exp::ExperimentRunner and
// prints its metrics, ending with one JSON line (see README.md).
//
//   perfbench_e2e    --workload W --seed N --seconds S [--commit C]
//       Repeats the workload (set-up + run()) until S seconds are used, with
//       no tracing, and reports the medians of wall_s / cpu_s / setup_s plus
//       peak_rss_mb. A pass that repeats an earlier pass's seed must
//       reproduce it bit for bit.
//   perfbench_traced --workload W --seed N --seconds S --trace-dir D
//       One full-lane run() with allocation counting off, for the runner's
//       own accounts; a 1-lane run() of the workload's first slice with
//       counting on, for allocation attribution; then a single-threaded
//       traced replay of every committed replication that calls each layer's
//       public functions itself and records spans. The replay's folds must
//       reproduce the untraced CellResults bit for bit.
//   perfbench_e2e --check-figures --root R
//       Runs the shipped Fig. 1 / Fig. 2 configuration at the default seed
//       and compares the rendered CSVs with the committed ones byte for byte.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <limits>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "des/simulator.hpp"
#include "exp/campaign.hpp"
#include "exp/paper.hpp"
#include "exp/replication_summary.hpp"
#include "exp/runner.hpp"
#include "grid/desktop_grid.hpp"
#include "metrics.hpp"
#include "rng/random_stream.hpp"
#include "rng/splitmix64.hpp"
#include "sim/adversary.hpp"
#include "sim/simulation.hpp"
#include "sim/workspace.hpp"
#include "workload/generator.hpp"

extern char** environ;

// Allocation counter. perfbench_traced replaces global operator new with one
// that counts while counting is on; perfbench_e2e keeps the plain allocator
// and its count stays 0. Counting is on only in single-threaded stretches, so
// the full-lane run() of the traced binary pays one uncontended load per
// allocation and never writes the shared counter. (util/alloc_interposer.hpp
// always counts, which puts one shared atomic in every lane's allocations.)
namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

#ifdef PERFBENCH_TRACED
namespace {
void* counted_alloc(std::size_t size, std::size_t alignment) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (alignment <= alignof(std::max_align_t)) {
    if (void* ptr = std::malloc(size == 0 ? 1 : size)) return ptr;
  } else {
    size = (size + alignment - 1) / alignment * alignment;  // aligned_alloc's rule
    if (void* ptr = std::aligned_alloc(alignment, size == 0 ? alignment : size)) return ptr;
  }
  throw std::bad_alloc();
}
}  // namespace

// NOLINTBEGIN — replacement allocation functions, signatures fixed by the standard.
void* operator new(std::size_t size) { return counted_alloc(size, 0); }
void* operator new[](std::size_t size) { return counted_alloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept { std::free(ptr); }
// NOLINTEND
#endif

namespace {

using namespace dg;
using perfbench::kNoParent;
using Clock = std::chrono::steady_clock;

/// Lanes: all CPUs this process may use, at most four (see README.md).
constexpr std::size_t kMaxLanes = 4;
/// Bags per cell; the shipped figures use 100 and the campaign 24. Each
/// workload is cut to a pass of about 6-10 s on 4 lanes (see README.md).
constexpr std::size_t kFigure1Bots = 32;
constexpr std::size_t kFigure2Bots = 20;
constexpr std::size_t kCampaignBots = 12;
/// End-to-end passes cycle through this many seeds derived from --seed, so
/// a run's median covers several inputs and every later pass repeats an
/// earlier one's inputs (and must reproduce its results bit for bit).
constexpr std::size_t kPassSeeds = 2;

/// RunOptions::base_seed of end-to-end pass `pass` (the traced run uses
/// pass 0's).
std::uint64_t pass_seed(std::uint64_t seed, std::size_t pass) {
  return rng::mix_seed(seed, pass % kPassSeeds);
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

std::string num(double value) {
  if (!std::isfinite(value)) throw std::runtime_error("non-finite metric value");
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

// ---------------------------------------------------------------------------
// Workloads

/// The cells of one workload, built from the seed-free definitions; `slice`
/// is the first panel (figures) or the first policy (campaign).
struct Plan {
  std::vector<exp::NamedConfig> cells;
  std::size_t slice = 0;
  /// Seed-sensitivity pass (robustness campaign only): one run per seed of
  /// each policy's harshest cell, as bench/robustness_campaign runs it.
  std::vector<exp::NamedConfig> seed_cells;
  std::size_t seeds = 0;
};

bool is_workload(const std::string& name) {
  return name == "fig1-high-avail" || name == "fig2-low-avail" || name == "robustness-campaign";
}

/// The statistical options each workload pins (the shipped stop rule);
/// execution shape stays at the library defaults.
exp::RunOptions workload_options(std::uint64_t seed, std::size_t lanes) {
  exp::RunOptions options;
  options.target_relative_error = 0.05;
  options.min_replications = 3;
  options.max_replications = 12;
  options.ci_level = 0.95;
  options.base_seed = seed;
  options.threads = lanes;
  return options;
}

Plan figure_plan(exp::FigureSpec spec, std::size_t bots) {
  spec.num_bots = bots;
  Plan plan;
  plan.cells = exp::figure_cells(spec);
  plan.slice = plan.cells.size() / spec.panels.size();
  return plan;
}

/// The full risk-cliff grid with the adversary on, built as
/// bench/robustness_campaign builds it at DGSCHED_BOTS=kCampaignBots
/// (including its warm-up cap and stress-window fit).
Plan campaign_plan() {
  exp::CampaignAxes axes;
  axes.num_bots = kCampaignBots;
  axes.warmup_bots = std::min(axes.warmup_bots, axes.num_bots / 4);
  axes.adversary.enabled = true;
  double min_span = std::numeric_limits<double>::infinity();
  for (const exp::CampaignCell& cell : exp::expand_campaign(axes)) {
    min_span = std::min(min_span, static_cast<double>(cell.config.workload.num_bots) /
                                      cell.config.workload.arrival_rate);
  }
  const double fit = 0.8 * (1.0 - axes.adversary.lead_fraction) * min_span /
                     static_cast<double>(axes.adversary.num_windows);
  axes.adversary.window_duration = std::min(axes.adversary.window_duration, fit);

  const std::vector<exp::CampaignCell> cells = exp::expand_campaign(axes);
  const double harsh_machine =
      *std::min_element(axes.machine_availabilities.begin(), axes.machine_availabilities.end());
  const double harsh_server =
      *std::min_element(axes.server_availabilities.begin(), axes.server_availabilities.end());
  const double harsh_util = *std::max_element(axes.utilizations.begin(), axes.utilizations.end());
  const int harsh_threshold =
      *std::max_element(axes.replication_thresholds.begin(), axes.replication_thresholds.end());

  Plan plan;
  plan.seeds = exp::CampaignOptions{}.seeds;
  for (const exp::CampaignCell& cell : cells) {
    plan.cells.push_back(exp::NamedConfig{cell.label, cell.config});
    if (cell.policy == axes.policies.front()) ++plan.slice;
    if (cell.machine_availability == harsh_machine && cell.server_availability == harsh_server &&
        cell.utilization == harsh_util && cell.replication_threshold == harsh_threshold) {
      plan.seed_cells.push_back(exp::NamedConfig{cell.label, cell.config});
    }
  }
  return plan;
}

Plan build_plan(const std::string& workload) {
  if (workload == "fig1-high-avail") return figure_plan(exp::figure1_spec(), kFigure1Bots);
  if (workload == "fig2-low-avail") return figure_plan(exp::figure2_spec(), kFigure2Bots);
  return campaign_plan();
}

// ---------------------------------------------------------------------------
// Untraced passes

struct Pass {
  std::vector<exp::CellResult> cells;
  std::vector<exp::SeedSpreadReport> seeds;
  exp::ExecutionStats exec;
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// Peak RSS of the process so far, in MB.
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB
}

/// Set-up (cells + runner) and the workload's run() calls, tracing off.
Pass run_pass(const std::string& workload, const exp::RunOptions& options) {
  Pass pass;
  const Clock::time_point setup_start = Clock::now();
  const Plan plan = build_plan(workload);
  exp::ExperimentRunner runner(options);
  pass.setup_s = seconds_since(setup_start);

  const double cpu_start = process_cpu_s();
  const Clock::time_point start = Clock::now();
  pass.cells = runner.run(plan.cells);
  pass.exec = runner.exec_stats();
  for (const exp::NamedConfig& cell : plan.seed_cells) {
    pass.seeds.push_back(exp::seed_sensitivity(cell.config, options, plan.seeds));
  }
  pass.wall_s = seconds_since(start);
  pass.cpu_s = process_cpu_s() - cpu_start;
  return pass;
}

// ---------------------------------------------------------------------------
// Output checks

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_stats(const stats::OnlineStats& a, const stats::OnlineStats& b) {
  return a.count() == b.count() && same_bits(a.mean(), b.mean()) && same_bits(a.sum(), b.sum()) &&
         same_bits(a.variance(), b.variance()) && same_bits(a.min(), b.min()) &&
         same_bits(a.max(), b.max());
}

bool same_sketch(const stats::QuantileSketch& a, const stats::QuantileSketch& b) {
  std::vector<std::uint8_t> bytes_a;
  std::vector<std::uint8_t> bytes_b;
  a.serialize(bytes_a);
  b.serialize(bytes_b);
  return bytes_a == bytes_b;
}

/// Empty when `a` and `b` are the same bit for bit, else the first field
/// that differs.
std::string cell_mismatch(const exp::CellResult& a, const exp::CellResult& b) {
  if (a.label != b.label) return "label";
  if (a.replications != b.replications) return "replications";
  if (a.saturated_replications != b.saturated_replications) return "saturated_replications";
  if (a.events_executed != b.events_executed) return "events_executed";
  const std::vector<double>& sa = a.turnaround.samples();
  const std::vector<double>& sb = b.turnaround.samples();
  if (sa.size() != sb.size() || !std::equal(sa.begin(), sa.end(), sb.begin(), same_bits)) {
    return "turnaround samples";
  }
  const std::pair<const char*, std::pair<const stats::OnlineStats*, const stats::OnlineStats*>>
      moments[] = {{"turnaround", {&a.turnaround.stats(), &b.turnaround.stats()}},
                   {"waiting", {&a.waiting, &b.waiting}},
                   {"makespan", {&a.makespan, &b.makespan}},
                   {"utilization", {&a.utilization, &b.utilization}},
                   {"wasted_fraction", {&a.wasted_fraction, &b.wasted_fraction}},
                   {"lost_work", {&a.lost_work, &b.lost_work}},
                   {"decayed_utilization", {&a.decayed_utilization, &b.decayed_utilization}},
                   {"transfer_retries", {&a.transfer_retries, &b.transfer_retries}},
                   {"replicas_degraded", {&a.replicas_degraded, &b.replicas_degraded}},
                   {"server_downtime", {&a.server_downtime, &b.server_downtime}}};
  for (const auto& [name, pair] : moments) {
    if (!same_stats(*pair.first, *pair.second)) return name;
  }
  if (!same_sketch(a.turnaround_tail, b.turnaround_tail)) return "turnaround_tail";
  if (!same_sketch(a.slowdown_tail, b.slowdown_tail)) return "slowdown_tail";
  if (!same_sketch(a.completion_gap_tail, b.completion_gap_tail)) return "completion_gap_tail";
  return {};
}

/// Checks one pass against the reference pass (bit-identical results) and
/// the stop rule's bounds; returns the number of cells that fail, printing
/// each failure.
std::size_t check_pass(const Pass& pass, const Pass& reference, const exp::RunOptions& options) {
  std::size_t failed = 0;
  if (pass.cells.size() != reference.cells.size() || pass.seeds.size() != reference.seeds.size()) {
    std::cout << "CHECK FAILED: pass shape differs from the first pass\n";
    return std::max<std::size_t>(1, reference.cells.size());
  }
  for (std::size_t i = 0; i < pass.cells.size(); ++i) {
    const exp::CellResult& cell = pass.cells[i];
    std::string problem = cell_mismatch(cell, reference.cells[i]);
    if (problem.empty() && (cell.replications < options.min_replications ||
                            cell.replications > options.max_replications)) {
      problem = "replications outside the stop rule";
    }
    if (problem.empty() &&
        !(std::isfinite(cell.turnaround.stats().mean()) && cell.turnaround.stats().mean() > 0.0 &&
          cell.events_executed > 0)) {
      problem = "empty or non-finite turnaround";
    }
    if (!problem.empty()) {
      std::cout << "CHECK FAILED: cell '" << cell.label << "': " << problem << "\n";
      ++failed;
    }
  }
  for (std::size_t j = 0; j < pass.seeds.size(); ++j) {
    const std::vector<double>& a = pass.seeds[j].p95;
    const std::vector<double>& b = reference.seeds[j].p95;
    if (a.size() != b.size() || !std::equal(a.begin(), a.end(), b.begin(), same_bits)) {
      std::cout << "CHECK FAILED: seed-sensitivity report " << j << " differs\n";
      ++failed;
    }
  }
  return failed;
}

// ---------------------------------------------------------------------------
// Cell statistics shared by both modes

struct CellStats {
  std::size_t cells = 0;
  std::size_t shorts = 0;
  std::size_t saturated = 0;
  std::size_t pairs = 0;
  double pairs_resolved_frac = 0.0;
  double rel_hw_p50 = 0.0;
  double rel_hw_max = 0.0;
  std::uint64_t events = 0;
};

CellStats cell_stats(const std::vector<exp::CellResult>& cells, const exp::RunOptions& options) {
  CellStats out;
  out.cells = cells.size();
  std::vector<double> widths;
  for (const exp::CellResult& cell : cells) {
    if (perfbench::cell_short(cell, options)) ++out.shorts;
    out.events += cell.events_executed;
    if (cell.saturated()) {
      ++out.saturated;
    } else {
      widths.push_back(cell.turnaround_ci().relative_error());
    }
  }
  out.rel_hw_p50 = perfbench::median(widths);
  out.rel_hw_max = widths.empty() ? 0.0 : *std::max_element(widths.begin(), widths.end());
  const perfbench::PairCount pairs = perfbench::resolve_pairs(cells, options.ci_level);
  out.pairs = pairs.pairs;
  out.pairs_resolved_frac =
      pairs.pairs > 0 ? static_cast<double>(pairs.resolved) / static_cast<double>(pairs.pairs)
                      : 0.0;
  return out;
}

// ---------------------------------------------------------------------------
// Result line

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i > 0 ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
       << num(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  // Human-readable copy first, so the JSON object stays the last line.
  for (const Metric& metric : metrics) {
    std::printf("metric %-36s %24s %s\n", metric.name.c_str(), num(metric.value).c_str(),
                metric.unit.c_str());
  }
  std::cout << os.str() << std::endl;
}

// ---------------------------------------------------------------------------
// End-to-end mode

int run_e2e(const std::string& workload, const exp::RunOptions& options, double seconds) {
  std::vector<Pass> passes;
  // Peak RSS after the first pass: what a process that runs the workload once
  // holds at most. Each runner owns its world cache, but later passes start
  // from the heap the earlier ones left behind, and the process peak grows by
  // several MB per pass even after malloc_trim(0).
  double first_pass_rss_mb = 0.0;
  const Clock::time_point start = Clock::now();
  do {
    exp::RunOptions pass_options = options;
    pass_options.base_seed = pass_seed(options.base_seed, passes.size());
    passes.push_back(run_pass(workload, pass_options));
    if (passes.size() == 1) first_pass_rss_mb = peak_rss_mb();
  } while (passes.size() <= kPassSeeds || seconds_since(start) + passes.back().wall_s <= seconds);

  // Pass i repeats the inputs of pass i mod kPassSeeds and must reproduce it.
  std::size_t failed = 0;
  std::vector<double> walls;
  std::vector<double> cpus;
  std::vector<double> setups;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const Pass& pass = passes[i];
    failed += check_pass(pass, passes[i % kPassSeeds], options);
    walls.push_back(pass.wall_s);
    cpus.push_back(pass.cpu_s);
    setups.push_back(pass.setup_s);
    std::printf("pass %zu seed %llu: wall %.3fs cpu %.3fs setup %.6fs reps %llu discarded %llu "
                "des.events %llu\n",
                i, static_cast<unsigned long long>(pass_seed(options.base_seed, i)), pass.wall_s,
                pass.cpu_s, pass.setup_s, static_cast<unsigned long long>(pass.exec.committed),
                static_cast<unsigned long long>(pass.exec.discarded),
                static_cast<unsigned long long>(cell_stats(pass.cells, options).events));
  }
  const CellStats stats = cell_stats(passes.front().cells, options);
  std::printf("pass 0 cells %zu short %zu saturated %zu pairs %zu resolved %.3f\n", stats.cells,
              stats.shorts, stats.saturated, stats.pairs, stats.pairs_resolved_frac);

  const std::vector<Metric> metrics = {
      {"wall_s", perfbench::median(walls), "s"},
      {"cpu_s", perfbench::median(cpus), "s"},
      {"setup_s", perfbench::median(setups), "s"},
      {"peak_rss_mb", first_pass_rss_mb, "MB"},
  };
  const std::size_t attempted = passes.size() * passes.front().cells.size();
  print_result(failed == 0, attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Traced mode

/// Counters summed over the traced replay's replications.
struct LayerCounts {
  std::uint64_t reps = 0;
  std::uint64_t events = 0;
  std::uint64_t scheduled = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t heap_peak = 0;
  std::uint64_t replicas_started = 0;
  std::uint64_t tasks_completed = 0;
  std::uint64_t replica_failures = 0;
  std::uint64_t transfer_retries = 0;
  std::uint64_t index_updates = 0;
  std::uint64_t selects = 0;
  std::uint64_t machines_examined = 0;
  std::uint64_t transitions = 0;
  double wasted = 0.0;
  double useful = 0.0;
  /// Allocations inside sim.run over the first slice's replications, after
  /// the workspace's first run.
  std::uint64_t slice_warm_reps = 0;
  std::uint64_t slice_warm_allocs = 0;
};

/// The single-threaded traced replay.
class TracedReplay {
 public:
  explicit TracedReplay(std::size_t reserve) : tracer_(reserve) {}

  /// Runs one replication of `base` under `seed`, one span per layer call.
  /// Folds it into `cell` when given; returns the run's p95 turnaround (what
  /// the seed-sensitivity pass records). `in_slice` marks the replications
  /// the 1-lane runner also ran, whose allocations are counted.
  double replicate(const sim::SimulationConfig& base, std::uint64_t seed, std::uint32_t parent,
                   exp::CellResult* cell, bool in_slice) {
    const std::uint64_t rep = counts_.reps++;
    const std::uint32_t rep_span = tracer_.begin("rep", parent, rep);
    sim::SimulationConfig config = base;
    config.seed = seed;
    sim::Simulation simulation(std::move(config));

    const std::uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
    std::uint32_t span = tracer_.begin("sim.run", rep_span, rep);
    const sim::SimulationResult& result = simulation.run(workspace_);
    tracer_.end(span);
    if (in_slice && workspace_.replications() >= 2) {
      ++counts_.slice_warm_reps;
      counts_.slice_warm_allocs +=
          g_allocs.load(std::memory_order_relaxed) - allocs_before;
    }
    add_counts(result);
    const double p95 = result.turnaround_tail.quantile(0.95);

    if (cell != nullptr) {
      span = tracer_.begin("exp.summarize", rep_span, rep);
      exp::ReplicationSummary summary = exp::summarize(result);
      tracer_.end(span);
      span = tracer_.begin("exp.fold", rep_span, rep);
      exp::fold(*cell, summary);
      tracer_.end(span);
    }

    // The bare grid: the same machines and availability processes with no
    // tasks, driven to the replication's end time.
    span = tracer_.begin("grid.live", rep_span, rep);
    bare_sim_.reset();
    {
      grid::DesktopGrid grid(simulation.config().grid, bare_sim_, seed);
      std::uint64_t transitions = 0;
      auto count = [&transitions](grid::Machine&) { ++transitions; };
      grid.start(grid::TransitionDelegate::bind(count), grid::TransitionDelegate::bind(count));
      bare_sim_.run_until(result.end_time);
      counts_.transitions += transitions;
    }
    tracer_.end(span);

    // The workload as Simulation generates it: this branch mirrors the
    // workload set-up in Simulation::run (sim/simulation.cpp), same stream
    // and same stress modulation. Its output must equal the specs the run
    // used, so the copy cannot drift from the original unnoticed.
    span = tracer_.begin("workload.generate", rep_span, rep);
    workload::WorkloadConfig workload_config = simulation.config().workload;
    const sim::AdversarialScenario& adversary = simulation.config().adversary;
    if (adversary.enabled && adversary.burst_intensity > 1.0) {
      workload_config.stress_windows = sim::adversary_windows(adversary, workload_config);
      workload_config.stress_multiplier = adversary.burst_intensity;
    }
    workload::WorkloadGenerator generator(std::move(workload_config),
                                          rng::RandomStream::derive(seed, "workload"));
    generator.generate_into(specs_);
    tracer_.end(span);
    const std::vector<workload::BotSpec>& used = workspace_.specs();
    if (specs_.size() != used.size() ||
        !std::equal(specs_.begin(), specs_.end(), used.begin(),
                    [](const workload::BotSpec& a, const workload::BotSpec& b) {
                      return same_bits(a.arrival_time, b.arrival_time) &&
                             same_bits(a.total_work(), b.total_work());
                    })) {
      ++workload_mismatches_;
    }
    tracer_.end(rep_span);
    return p95;
  }

  [[nodiscard]] perfbench::Tracer& tracer() noexcept { return tracer_; }
  [[nodiscard]] const LayerCounts& counts() const noexcept { return counts_; }
  [[nodiscard]] std::size_t workload_mismatches() const noexcept { return workload_mismatches_; }

 private:
  void add_counts(const sim::SimulationResult& result) {
    counts_.events += result.events_executed;
    counts_.scheduled += result.kernel.events_scheduled;
    counts_.cancelled += result.kernel.events_cancelled;
    counts_.heap_peak = std::max(counts_.heap_peak, result.kernel.heap_peak);
    counts_.replicas_started += result.replicas_started;
    counts_.tasks_completed += result.tasks_completed;
    counts_.replica_failures += result.replica_failures;
    counts_.transfer_retries += result.faults.transfer_retries;
    counts_.index_updates += result.sched.index_updates;
    counts_.selects += result.sched.selects;
    counts_.machines_examined += result.sched.machines_examined;
    counts_.wasted += result.wasted_compute_time;
    counts_.useful += result.useful_compute_time;
  }

  perfbench::Tracer tracer_;
  sim::SimulationWorkspace workspace_;
  des::Simulator bare_sim_;
  std::vector<workload::BotSpec> specs_;
  LayerCounts counts_;
  std::size_t workload_mismatches_ = 0;
};

/// Chrome trace-event JSON (chrome://tracing, Perfetto) of the replay.
void write_trace(const std::string& path, const std::vector<perfbench::Span>& spans) {
  const std::vector<std::int64_t> self = perfbench::self_times(spans);
  std::ofstream os(path);
  os << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const perfbench::Span& span = spans[i];
    os << "{\"name\": \"" << span.name << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
       << num(1e-3 * static_cast<double>(span.start_ns))
       << ", \"dur\": " << num(1e-3 * static_cast<double>(span.end_ns - span.start_ns))
       << ", \"args\": {\"id\": " << i << ", \"rep\": " << span.rep << ", \"parent\": "
       << (span.parent == kNoParent ? std::string("null") : std::to_string(span.parent))
       << ", \"self_us\": " << num(1e-3 * static_cast<double>(self[i])) << "}}"
       << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  os << "]}\n";
  if (!os) throw std::runtime_error("cannot write trace " + path);
}

double ratio(double num_value, double den) { return den > 0.0 ? num_value / den : 0.0; }

/// Cost of recording one span, measured on a separate tracer.
double span_cost_s() {
  constexpr std::uint32_t kSpans = 100000;
  perfbench::Tracer probe(kSpans);
  const Clock::time_point start = Clock::now();
  for (std::uint32_t i = 0; i < kSpans; ++i) probe.end(probe.begin("calibrate", kNoParent, i));
  return seconds_since(start) / kSpans;
}

int run_traced(const std::string& workload, exp::RunOptions options,
               const std::string& trace_dir) {
  options.base_seed = pass_seed(options.base_seed, 0);
  std::size_t failed = 0;

  // 1. Untraced full-lane run, allocation counting off: the runner's own
  //    accounts.
  const Pass pass = run_pass(workload, options);
  const Plan plan = build_plan(workload);

  // 2. One lane over the workload's first slice: runner allocations per
  //    replication, and the untraced single-threaded time of that slice.
  //    Counting stays on through the single-threaded replay below.
  g_counting.store(true, std::memory_order_relaxed);
  exp::RunOptions one_lane = options;
  one_lane.threads = 1;
  exp::ExperimentRunner serial_runner(one_lane);
  const std::vector<exp::NamedConfig> slice(plan.cells.begin(),
                                            plan.cells.begin() + static_cast<long>(plan.slice));
  const std::uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  const Clock::time_point serial_start = Clock::now();
  const std::vector<exp::CellResult> serial = serial_runner.run(slice);
  const double serial_wall = seconds_since(serial_start);
  const std::uint64_t runner_allocs =
      g_allocs.load(std::memory_order_relaxed) - allocs_before;
  const std::uint64_t serial_reps = serial_runner.exec_stats().launched;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const std::string problem = cell_mismatch(serial[i], pass.cells[i]);
    if (!problem.empty()) {
      std::cout << "CHECK FAILED: 1-lane cell '" << serial[i].label << "': " << problem << "\n";
      ++failed;
    }
  }

  // 3. Traced single-threaded replay of every committed replication.
  std::size_t reserve = plan.cells.size() + plan.seed_cells.size();
  for (const exp::CellResult& cell : pass.cells) reserve += 6 * cell.replications;
  reserve += 6 * plan.seed_cells.size() * plan.seeds;
  TracedReplay replay(reserve);
  perfbench::Tracer& tracer = replay.tracer();
  const Clock::time_point traced_start = Clock::now();
  std::vector<exp::CellResult> folded;
  folded.reserve(plan.cells.size());
  for (std::size_t i = 0; i < plan.cells.size(); ++i) {
    exp::CellResult cell;
    cell.label = plan.cells[i].label;
    cell.config = plan.cells[i].config;
    cell.turnaround = stats::ReplicationAnalyzer(options.ci_level, options.target_relative_error,
                                                 options.min_replications);
    const std::uint32_t span = tracer.begin("cell", kNoParent, 0);
    for (std::size_t k = 0; k < pass.cells[i].replications; ++k) {
      (void)replay.replicate(cell.config, rng::mix_seed(options.base_seed, k), span, &cell,
                             i < plan.slice);
    }
    tracer.end(span);
    folded.push_back(std::move(cell));
  }
  for (std::size_t j = 0; j < plan.seed_cells.size(); ++j) {
    const std::uint32_t span = tracer.begin("cell", kNoParent, 0);
    for (std::size_t s = 0; s < plan.seeds; ++s) {
      const double p95 = replay.replicate(plan.seed_cells[j].config,
                                          rng::mix_seed(options.base_seed, s), span, nullptr,
                                          false);
      if (!same_bits(p95, pass.seeds[j].p95[s])) {
        std::cout << "CHECK FAILED: seed-sensitivity '" << plan.seed_cells[j].label << "' seed "
                  << s << " p95 differs\n";
        ++failed;
      }
    }
    tracer.end(span);
  }
  const double traced_wall = seconds_since(traced_start);
  g_counting.store(false, std::memory_order_relaxed);
  for (std::size_t i = 0; i < folded.size(); ++i) {
    const std::string problem = cell_mismatch(folded[i], pass.cells[i]);
    if (!problem.empty()) {
      std::cout << "CHECK FAILED: traced fold of '" << folded[i].label << "': " << problem << "\n";
      ++failed;
    }
  }
  if (replay.workload_mismatches() > 0) {
    std::cout << "CHECK FAILED: " << replay.workload_mismatches()
              << " generated workloads differ from the ones the runs used\n";
    ++failed;
  }

  // Span totals, and the replay's cost over the first slice (the cells the
  // 1-lane runner ran) without the extra bare-grid / workload work.
  const std::vector<perfbench::Span>& spans = tracer.spans();
  const std::map<std::string, perfbench::SpanTotal> totals = perfbench::totals_by_name(spans);
  std::vector<double> rep_ms;
  std::int64_t slice_ns = 0;
  {
    std::size_t cell_index = 0;
    std::vector<std::uint8_t> in_slice(spans.size(), 0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const perfbench::Span& span = spans[i];
      const std::int64_t length = span.end_ns - span.start_ns;
      if (std::strcmp(span.name, "cell") == 0) {
        in_slice[i] = cell_index++ < plan.slice ? 1 : 0;
        if (in_slice[i] != 0) slice_ns += length;
        continue;
      }
      in_slice[i] = in_slice[span.parent];
      if (std::strcmp(span.name, "sim.run") == 0) {
        rep_ms.push_back(1e-6 * static_cast<double>(length));
      }
      if (in_slice[i] != 0 && (std::strcmp(span.name, "grid.live") == 0 ||
                               std::strcmp(span.name, "workload.generate") == 0)) {
        slice_ns -= length;
      }
    }
  }
  std::printf("%-18s %8s %12s %12s\n", "span", "count", "total_s", "self_s");
  for (const auto& [name, total] : totals) {
    std::printf("%-18s %8llu %12.6f %12.6f\n", name.c_str(),
                static_cast<unsigned long long>(total.count),
                1e-9 * static_cast<double>(total.total_ns),
                1e-9 * static_cast<double>(total.self_ns));
  }
  const auto total_s = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : 1e-9 * static_cast<double>(it->second.total_ns);
  };
  const auto self_s = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : 1e-9 * static_cast<double>(it->second.self_ns);
  };
  const std::string trace_path =
      trace_dir + "/trace-" + workload + "-" + std::to_string(options.base_seed) + ".json";
  write_trace(trace_path, spans);
  std::cout << "trace written to " << trace_path << " (" << spans.size() << " spans)\n";

  const LayerCounts& counts = replay.counts();
  const double busy = total_s("sim.run");
  const double folds =
      static_cast<double>(totals.count("exp.fold") != 0 ? totals.at("exp.fold").count : 0);
  const perfbench::Tail rep_tail = perfbench::tail_of(rep_ms);
  const CellStats stats = cell_stats(pass.cells, options);
  const double lanes = static_cast<double>(pass.exec.lanes.size());
  const double reps = static_cast<double>(counts.reps);
  const double dispatches = static_cast<double>(counts.replicas_started);
  std::printf("counts workload=%s seed=%llu des.events=%llu sim.replicas_per_task=%.17g "
              "sim.transfer_retries=%llu\n",
              workload.c_str(), static_cast<unsigned long long>(options.base_seed),
              static_cast<unsigned long long>(counts.events),
              ratio(dispatches, static_cast<double>(counts.tasks_completed)),
              static_cast<unsigned long long>(counts.transfer_retries));
  std::printf("replay %.3fs, 1-lane runner on %zu-cell slice %.3fs\n", traced_wall, plan.slice,
              serial_wall);

  const std::vector<Metric> metrics = {
      {"cells", static_cast<double>(stats.cells), "count"},
      {"stats.cells_short", static_cast<double>(stats.shorts), "count"},
      {"stats.cells_saturated", static_cast<double>(stats.saturated), "count"},
      {"stats.rel_hw_p50", stats.rel_hw_p50, "ratio"},
      {"stats.rel_hw_max", stats.rel_hw_max, "ratio"},
      {"stats.pairs", static_cast<double>(stats.pairs), "count"},
      {"stats.pairs_resolved_frac", stats.pairs_resolved_frac, "ratio"},
      {"sim.busy_s", busy, "s"},
      {"sim.rep_samples", static_cast<double>(rep_tail.samples), "count"},
      {"sim.rep_ms_p50", rep_tail.median, "ms"},
      {"sim.rep_ms_tail", rep_tail.value, "ms"},
      {"sim.rep_tail_pct", static_cast<double>(rep_tail.percentile), "percentile"},
      {"sim.ns_per_event", 1e9 * ratio(busy, static_cast<double>(counts.events)), "ns"},
      {"sim.replicas_per_task", ratio(dispatches, static_cast<double>(counts.tasks_completed)),
       "ratio"},
      {"sim.replica_failures", static_cast<double>(counts.replica_failures), "count"},
      {"sim.wasted_frac", ratio(counts.wasted, counts.wasted + counts.useful), "ratio"},
      {"sim.transfer_retries", static_cast<double>(counts.transfer_retries), "count"},
      {"sim.allocs_per_rep",
       ratio(static_cast<double>(counts.slice_warm_allocs),
             static_cast<double>(counts.slice_warm_reps)),
       "count"},
      {"sched.index_updates_per_dispatch",
       ratio(static_cast<double>(counts.index_updates), dispatches), "ratio"},
      {"sched.selects_per_dispatch", ratio(static_cast<double>(counts.selects), dispatches),
       "ratio"},
      {"sched.machines_per_dispatch",
       ratio(static_cast<double>(counts.machines_examined), dispatches), "ratio"},
      {"des.events", static_cast<double>(counts.events), "count"},
      {"des.cancel_frac",
       ratio(static_cast<double>(counts.cancelled), static_cast<double>(counts.scheduled)),
       "ratio"},
      {"des.heap_peak", static_cast<double>(counts.heap_peak), "count"},
      {"grid.live_share", ratio(total_s("grid.live"), busy), "ratio"},
      {"grid.transitions_per_rep", ratio(static_cast<double>(counts.transitions), reps), "count"},
      {"workload.share", ratio(total_s("workload.generate"), busy), "ratio"},
      {"exp.reps", static_cast<double>(pass.exec.committed), "count"},
      {"exp.discarded", static_cast<double>(pass.exec.discarded), "count"},
      {"exp.lane_busy_frac", ratio(pass.exec.busy_s(), lanes * pass.exec.wall_s), "ratio"},
      {"exp.stall_s", pass.exec.stall_s(), "s"},
      {"exp.scaling_eff", ratio(busy, lanes * pass.wall_s), "ratio"},
      {"exp.fold_us_per_rep",
       1e6 * ratio(total_s("exp.summarize") + total_s("exp.fold"), folds), "us"},
      {"exp.runner_allocs_per_rep",
       ratio(static_cast<double>(runner_allocs), static_cast<double>(serial_reps)), "count"},
      {"trace.spans", static_cast<double>(spans.size()), "count"},
      {"trace.rep_self_us", 1e6 * ratio(self_s("rep"), reps), "us"},
      {"trace.replay_s", traced_wall, "s"},
      {"trace.overhead_frac",
       ratio(static_cast<double>(spans.size()) * span_cost_s(), traced_wall), "ratio"},
      {"trace.replay_vs_runner", ratio(1e-9 * static_cast<double>(slice_ns), serial_wall),
       "ratio"},
  };
  print_result(failed == 0, plan.cells.size(), failed, metrics);
  return failed == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Figure check

int check_figures(const std::string& root, std::size_t lanes) {
  std::size_t failed = 0;
  const std::pair<exp::FigureSpec, const char*> figures[] = {
      {exp::figure1_spec(), "fig1_high_avail.csv"}, {exp::figure2_spec(), "fig2_low_avail.csv"}};
  for (const auto& [spec, file] : figures) {
    exp::RunOptions options;  // the shipped figure configuration
    options.threads = lanes;
    exp::ExperimentRunner runner(options);
    const Clock::time_point start = Clock::now();
    const std::vector<exp::CellResult> results = runner.run(exp::figure_cells(spec));
    const double wall = seconds_since(start);
    std::ostringstream table;
    std::ostringstream csv;
    exp::render_figure(spec, results, table, &csv);
    std::ifstream in(root + "/" + file, std::ios::binary);
    std::ostringstream committed;
    committed << in.rdbuf();
    const bool same = in && csv.str() == committed.str();
    const CellStats stats = cell_stats(results, options);
    std::printf("%s: %s (%.1fs, %zu cells, %zu short, %zu saturated)\n", file,
                same ? "matches" : "DIFFERS", wall, stats.cells, stats.shorts, stats.saturated);
    if (!same) ++failed;
  }
  return failed == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  std::string trace_dir = ".";
  std::string root = ".";
  std::string commit = "unknown";
  bool check_figures = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--check-figures") {
      args.check_figures = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;
    } else if (flag == "--root") {
      args.root = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!args.check_figures && (!is_workload(args.workload) || !have_seed)) {
    throw std::invalid_argument(
        "usage: --workload fig1-high-avail|fig2-low-avail|robustness-campaign --seed N "
        "[--seconds S] [--trace-dir D] [--commit C] | --check-figures [--root R]");
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    // A stray DGSCHED_* override (DGSCHED_WORLD_CACHE=0, DGSCHED_THREADS=...)
    // would change the measured program; refuse to measure it.
    for (char** env = environ; *env != nullptr; ++env) {
      if (std::strncmp(*env, "DGSCHED_", 8) == 0) {
        std::cerr << "perfbench: refusing to run with " << *env << " set\n";
        return 2;
      }
    }
    const Args args = parse_args(argc, argv);
    const std::size_t cpus = nproc();
    const std::size_t lanes = std::min(cpus, kMaxLanes);
    double load[3] = {0.0, 0.0, 0.0};
    if (getloadavg(load, 3) != 3) load[0] = load[1] = load[2] = -1.0;
#ifdef PERFBENCH_TRACED
    const bool traced = true;
#else
    const bool traced = false;
#endif
    std::printf(
        "env {\"workload\": \"%s\", \"seed\": %llu, \"traced\": %s, \"commit\": \"%s\", "
        "\"compiler\": \"%s\", \"build_type\": \"%s\", \"nproc\": %zu, \"lanes\": %zu, "
        "\"loadavg\": [%.2f, %.2f, %.2f]}\n",
        args.workload.c_str(), static_cast<unsigned long long>(args.seed),
        traced ? "true" : "false", args.commit.c_str(), PERFBENCH_COMPILER,
        PERFBENCH_BUILD_TYPE, cpus, lanes, load[0], load[1], load[2]);
    std::fflush(stdout);

    if (args.check_figures) return check_figures(args.root, lanes);
    const exp::RunOptions options = workload_options(args.seed, lanes);
    return traced ? run_traced(args.workload, options, args.trace_dir)
                  : run_e2e(args.workload, options, args.seconds);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
