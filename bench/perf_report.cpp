// Reproducible perf harness: emits BENCH_kernel.json and BENCH_policies.json.
//
// Unlike the google-benchmark micro suites (micro_des, micro_policies), this
// driver exists to feed the repo's tracked perf trajectory: fixed workloads,
// fixed seeds, machine-readable output (bench/perf_json.hpp schema), so every
// PR can diff events/sec against the previous baseline. Usage:
//
//   ./perf_report [output_dir]        # default: current directory
//
// Wall-clock noise is damped by running each benchmark several times and
// reporting the best run (the one least disturbed by the OS scheduler).
#include <cstdio>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "des/simulator.hpp"
#include "grid/desktop_grid.hpp"
#include "sim/invariant_checker.hpp"
#include "sim/simulation.hpp"

#include "perf_json.hpp"

namespace {

using dg::bench::PerfRecord;
using dg::bench::Stopwatch;

constexpr int kKernelReps = 3;
constexpr int kPolicyReps = 2;
constexpr int kScaleReps = 2;

/// Runs `body` (which returns the number of events processed) `reps` times
/// and records the best events/sec.
PerfRecord best_of(const std::string& name, const std::string& config, std::uint64_t seed,
                   int reps, const std::function<std::uint64_t()>& body) {
  PerfRecord record;
  record.benchmark = name;
  record.config = config;
  record.seed = seed;
  for (int rep = 0; rep < reps; ++rep) {
    Stopwatch timer;
    const std::uint64_t events = body();
    const double wall = timer.seconds();
    const double rate = wall > 0.0 ? static_cast<double>(events) / wall : 0.0;
    if (rate > record.events_per_sec) {
      record.events_per_sec = rate;
      record.wall_s = wall;
    }
  }
  record.peak_rss_kb = dg::bench::peak_rss_kb();
  std::printf("  %-28s %12.0f events/s  (%.3f s)\n", record.benchmark.c_str(),
              record.events_per_sec, record.wall_s);
  return record;
}

// --- kernel microbenchmarks -------------------------------------------------

std::uint64_t kernel_schedule_run(std::size_t n) {
  dg::des::Simulator sim;
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sim.schedule_at(static_cast<double>((i * 7919) % 100000), [&sum] { ++sum; });
  }
  sim.run();
  return sum;
}

std::uint64_t kernel_event_chain(std::uint64_t n) {
  dg::des::Simulator sim;
  std::uint64_t count = 0;
  std::function<void()> chain = [&] {
    if (++count < n) sim.schedule_after(1.0, [&chain] { chain(); });
  };
  sim.schedule_after(1.0, [&chain] { chain(); });
  sim.run();
  return count;
}

std::uint64_t kernel_cancel_heavy(std::size_t n) {
  dg::des::Simulator sim;
  std::vector<dg::des::EventHandle> handles;
  handles.reserve(n / 2);
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    auto handle = sim.schedule_at(static_cast<double>(i), [&sum] { ++sum; });
    if (i % 2 == 0) handles.push_back(handle);
  }
  for (auto& handle : handles) handle.cancel();
  sim.run();
  return n;  // schedule+cancel work dominates; count all scheduled events
}

std::uint64_t kernel_handle_churn(std::size_t n) {
  // Schedule-then-cancel in a tight loop with a small live window: stresses
  // record recycling (the allocator in the old kernel, the slab free list in
  // the new one) rather than heap ordering.
  dg::des::Simulator sim;
  std::uint64_t sum = 0;
  std::vector<dg::des::EventHandle> window;
  for (std::size_t i = 0; i < n; ++i) {
    window.push_back(sim.schedule_at(1e9 + static_cast<double>(i), [&sum] { ++sum; }));
    if (window.size() == 64) {
      for (auto& handle : window) handle.cancel();
      window.clear();
    }
  }
  sim.schedule_at(2e9, [&sim] { sim.stop(); });
  sim.run();
  return n;
}

std::uint64_t kernel_deep_hold(dg::des::QueueBackend backend, std::size_t depth,
                               std::uint64_t rescheduling) {
  // Hold model through the full kernel at a sustained queue depth: `depth`
  // self-rescheduling events, each firing schedules one successor a
  // pseudo-random delay ahead until `rescheduling` fires have happened, then
  // the queue drains. This is the workload where backend choice matters —
  // the shallow-queue suites above barely exercise heap ordering.
  dg::des::Simulator sim(backend);
  std::uint64_t count = 0;
  std::uint64_t mix = 0x9e3779b97f4a7c15ULL;
  auto next_delay = [&mix] {
    mix += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = mix;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<double>((z ^ (z >> 31)) % 100000) / 10.0 + 0.1;
  };
  std::function<void()> hold = [&] {
    if (++count < rescheduling) sim.schedule_after(next_delay(), [&hold] { hold(); });
  };
  for (std::size_t i = 0; i < depth; ++i) sim.schedule_after(next_delay(), [&hold] { hold(); });
  sim.run();
  return count;
}

std::vector<PerfRecord> run_kernel_suite() {
  std::printf("kernel suite:\n");
  std::vector<PerfRecord> records;
  records.push_back(best_of("kernel/schedule_run_200k", "200k events, pseudo-random times", 0,
                            kKernelReps, [] { return kernel_schedule_run(200000); }));
  records.push_back(best_of("kernel/event_chain_1m", "1M self-rescheduling events, depth-1 queue",
                            0, kKernelReps, [] { return kernel_event_chain(1000000); }));
  records.push_back(best_of("kernel/cancel_heavy_200k", "200k events, 50% cancelled", 0,
                            kKernelReps, [] { return kernel_cancel_heavy(200000); }));
  records.push_back(best_of("kernel/handle_churn_500k", "500k schedule+cancel, 64-live window", 0,
                            kKernelReps, [] { return kernel_handle_churn(500000); }));
  // Queue-backend sweep (PR 7): the same hold workload per backend at two
  // sustained depths. Record names carry the backend so the perf gate diffs
  // each backend against its own baseline.
  for (const auto backend : {dg::des::QueueBackend::kHeap4, dg::des::QueueBackend::kCalendar}) {
    const std::string suffix(dg::des::to_string(backend));
    records.push_back(best_of("kernel/hold_4k/" + suffix,
                              "1M fires at sustained depth 4096, backend " + suffix, 0,
                              kKernelReps,
                              [backend] { return kernel_deep_hold(backend, 4096, 1000000); }));
    records.push_back(best_of("kernel/hold_64k/" + suffix,
                              "1M fires at sustained depth 65536, backend " + suffix, 0,
                              kKernelReps,
                              [backend] { return kernel_deep_hold(backend, 65536, 1000000); }));
  }
  return records;
}

// --- policy / end-to-end benchmarks ----------------------------------------

dg::sim::SimulationConfig policy_config(dg::sched::PolicyKind policy, double granularity,
                                        std::size_t num_bots, dg::grid::Heterogeneity het,
                                        dg::grid::AvailabilityLevel avail) {
  using namespace dg;
  sim::SimulationConfig config;
  config.grid = grid::GridConfig::preset(het, avail);
  config.workload =
      sim::make_paper_workload(config.grid, granularity, workload::Intensity::kLow, num_bots);
  config.seed = 11;
  config.policy = policy;
  return config;
}

/// Set when any chaos run produces an invariant violation; fails the report.
bool g_invariants_violated = false;

PerfRecord run_policy(const std::string& name, const std::string& config_desc,
                      const dg::sim::SimulationConfig& config, int reps = kPolicyReps) {
  double machines_per_dispatch = 0.0;
  dg::sim::FaultStats faults;
  dg::stats::TailQuantiles turnaround_tails;
  dg::stats::TailQuantiles slowdown_tails;
  const bool check_invariants = config.grid.checkpoint_server_faults.enabled;
  PerfRecord record =
      best_of(name, config_desc, config.seed, reps,
              [&config, &machines_per_dispatch, &faults, &turnaround_tails, &slowdown_tails,
               check_invariants, &name] {
                dg::sim::InvariantChecker checker;
                const auto result =
                    dg::sim::Simulation(config).run(check_invariants ? &checker : nullptr);
                if (check_invariants && !checker.ok()) {
                  std::cerr << "perf_report: invariant violations in " << name << ":\n"
                            << checker.report();
                  g_invariants_violated = true;
                }
                machines_per_dispatch =
                    result.sched.machines_per_dispatch(result.replicas_started);
                faults = result.faults;
                turnaround_tails = result.turnaround_tail.tails();
                slowdown_tails = result.slowdown_tail.tails();
                return result.events_executed;
              });
  // Deterministic for a given config+seed, so any rep's value is the value.
  record.machines_per_dispatch = machines_per_dispatch;
  record.transfer_retries = faults.transfer_retries;
  record.replicas_degraded = faults.replicas_degraded;
  record.turnaround_p50 = turnaround_tails.p50;
  record.turnaround_p95 = turnaround_tails.p95;
  record.turnaround_p99 = turnaround_tails.p99;
  record.slowdown_p95 = slowdown_tails.p95;
  record.slowdown_p99 = slowdown_tails.p99;
  return record;
}

std::vector<PerfRecord> run_policy_suite() {
  using dg::sched::PolicyKind;
  std::printf("policy suite:\n");
  std::vector<PerfRecord> records;
  const std::string base = "hom/high-avail, g=5000, 20 bags";
  records.push_back(run_policy("policy/fcfs_excl", base,
                               policy_config(PolicyKind::kFcfsExcl, 5000.0, 20,
                                             dg::grid::Heterogeneity::kHom,
                                             dg::grid::AvailabilityLevel::kHigh)));
  records.push_back(run_policy("policy/fcfs_share", base,
                               policy_config(PolicyKind::kFcfsShare, 5000.0, 20,
                                             dg::grid::Heterogeneity::kHom,
                                             dg::grid::AvailabilityLevel::kHigh)));
  records.push_back(run_policy("policy/round_robin", base,
                               policy_config(PolicyKind::kRoundRobin, 5000.0, 20,
                                             dg::grid::Heterogeneity::kHom,
                                             dg::grid::AvailabilityLevel::kHigh)));
  records.push_back(run_policy("policy/round_robin_nrf", base,
                               policy_config(PolicyKind::kRoundRobinNrf, 5000.0, 20,
                                             dg::grid::Heterogeneity::kHom,
                                             dg::grid::AvailabilityLevel::kHigh)));
  records.push_back(run_policy("policy/long_idle", base,
                               policy_config(PolicyKind::kLongIdle, 5000.0, 20,
                                             dg::grid::Heterogeneity::kHom,
                                             dg::grid::AvailabilityLevel::kHigh)));
  records.push_back(run_policy("policy/small_tasks", "hom/high-avail, g=1000, 10 bags",
                               policy_config(PolicyKind::kFcfsShare, 1000.0, 10,
                                             dg::grid::Heterogeneity::kHom,
                                             dg::grid::AvailabilityLevel::kHigh)));
  records.push_back(run_policy("policy/low_avail_churn", "het/low-avail, g=25000, 10 bags",
                               policy_config(PolicyKind::kRoundRobin, 25000.0, 10,
                                             dg::grid::Heterogeneity::kHet,
                                             dg::grid::AvailabilityLevel::kLow)));
  // Chaos cell: the same low-availability grid with a *failing* checkpoint
  // server (MTBF 8000 s, MTTR 4000 s, transfers aborted). Runs under the
  // InvariantChecker; retry/degradation counters land in the JSON record.
  {
    dg::sim::SimulationConfig config =
        policy_config(PolicyKind::kRoundRobin, 25000.0, 10, dg::grid::Heterogeneity::kHet,
                      dg::grid::AvailabilityLevel::kLow);
    config.grid.checkpoint_server_faults.enabled = true;
    config.grid.checkpoint_server_faults.mtbf = 8000.0;
    config.grid.checkpoint_server_faults.mttr = 4000.0;
    records.push_back(run_policy("policy/server_chaos",
                                 "het/low-avail, g=25000, 10 bags, server mtbf=8000 mttr=4000",
                                 config));
  }
  return records;
}

// --- grid-scale benchmarks --------------------------------------------------
//
// 10x the paper's grid (total power 10000 -> 1000 hom machines) with a 200-bag
// backlog: large enough that per-dispatch costs proportional to grid size or
// backlog size dominate the run. machines_per_dispatch in the JSON output
// tracks how many machine slots the trigger loop examined per started replica.

dg::sim::SimulationConfig scale_config(dg::sched::PolicyKind policy) {
  using namespace dg;
  sim::SimulationConfig config;
  config.grid = grid::GridConfig::preset(grid::Heterogeneity::kHom,
                                         grid::AvailabilityLevel::kHigh);
  config.grid.total_power = 10000.0;  // 1000 machines at hom_power = 10
  config.workload =
      sim::make_paper_workload(config.grid, 5000.0, workload::Intensity::kLow, 200);
  config.seed = 11;
  config.policy = policy;
  return config;
}

std::vector<PerfRecord> run_scale_suite() {
  using dg::sched::PolicyKind;
  std::printf("scale suite:\n");
  std::vector<PerfRecord> records;
  const std::string base = "hom/high-avail, 1000 machines, g=5000, 200 bags";
  records.push_back(run_policy("policy_scale/fcfs_share", base,
                               scale_config(PolicyKind::kFcfsShare), kScaleReps));
  records.push_back(run_policy("policy_scale/round_robin", base,
                               scale_config(PolicyKind::kRoundRobin), kScaleReps));
  records.push_back(run_policy("policy_scale/round_robin_nrf", base,
                               scale_config(PolicyKind::kRoundRobinNrf), kScaleReps));
  records.push_back(run_policy("policy_scale/long_idle", base,
                               scale_config(PolicyKind::kLongIdle), kScaleReps));
  return records;
}

bool write_report(const std::string& path, const std::vector<PerfRecord>& records) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "perf_report: cannot open " << path << " for writing\n";
    return false;
  }
  dg::bench::write_perf_json(os, records);
  std::printf("wrote %s (%zu records)\n", path.c_str(), records.size());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_dir = argc > 1 ? argv[1] : ".";
  const std::vector<PerfRecord> kernel = run_kernel_suite();
  std::vector<PerfRecord> policies = run_policy_suite();
  const std::vector<PerfRecord> scale = run_scale_suite();
  policies.insert(policies.end(), scale.begin(), scale.end());
  bool ok = write_report(out_dir + "/BENCH_kernel.json", kernel);
  ok = write_report(out_dir + "/BENCH_policies.json", policies) && ok;
  if (g_invariants_violated) {
    std::cerr << "perf_report: chaos runs violated simulation invariants\n";
    ok = false;
  }
  return ok ? 0 : 1;
}
