// Zero-allocation guarantee of the workspace replication path.
//
// This binary (dgsched_alloc_tests — separate from dgsched_tests because it
// replaces the global allocation operators) meters operator new across the
// event-loop drive of a simulation, via the before/after_run_loop hooks of
// SimulationConfig. A warmed sim::SimulationWorkspace must serve the entire
// run loop from recycled memory: reset arena slots, pooled pmr blocks, and
// retained buffer capacity — zero global heap allocations.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "sim/simulation.hpp"
#include "sim/workspace.hpp"
#include "util/alloc_interposer.hpp"

DG_DEFINE_ALLOC_INTERPOSER();

namespace dg::sim {
namespace {

SimulationConfig metered_config(grid::AvailabilityLevel level) {
  SimulationConfig config;
  config.grid = grid::GridConfig::preset(grid::Heterogeneity::kHom, level);
  config.workload =
      make_paper_workload(config.grid, 25000.0, workload::Intensity::kLow, 10);
  config.policy = sched::PolicyKind::kFcfsShare;
  config.seed = 31337;
  return config;
}

/// Runs `config` through `workspace` and returns the operator-new calls made
/// inside the run loop (between the before/after hooks — i.e. excluding
/// setup, which constructs the per-replication components, and result
/// assembly).
std::uint64_t run_loop_allocs(const SimulationConfig& base, SimulationWorkspace& workspace) {
  SimulationConfig config = base;
  std::uint64_t before = 0;
  std::uint64_t after = 0;
  config.before_run_loop = [&before] {
    before = util::alloc_count().load(std::memory_order_relaxed);
  };
  config.after_run_loop = [&after] {
    after = util::alloc_count().load(std::memory_order_relaxed);
  };
  const SimulationResult& result = Simulation(config).run(workspace);
  EXPECT_GT(result.events_executed, 0u);  // the loop actually did work
  // The tail-metrics columns must be live while the loop stays zero-alloc:
  // their sketches add into bucket storage retained by the workspace.
  EXPECT_GT(result.turnaround_tail.count(), 0u);
  EXPECT_GT(result.completion_gap_tail.count(), 0u);
  EXPECT_GT(result.decayed_utilization, 0.0);
  return after - before;
}

TEST(AllocationFree, WarmedWorkspaceRunLoopMakesZeroHeapAllocations) {
  const SimulationConfig config = metered_config(grid::AvailabilityLevel::kAlways);
  SimulationWorkspace workspace;
  const std::uint64_t cold = run_loop_allocs(config, workspace);
  // The cold pass may allocate (arena slabs, pool chunks, monitor growth)...
  (void)cold;
  // ...but once warmed, the identical replication must not touch the heap.
  EXPECT_EQ(run_loop_allocs(config, workspace), 0u);
  EXPECT_EQ(run_loop_allocs(config, workspace), 0u);
}

TEST(AllocationFree, WarmedWorkspaceIsAllocationFreeWithFailuresToo) {
  // Failures exercise the checkpoint/retrieve/restart paths; the event
  // lambdas there must stay within std::function's small-buffer size and
  // every container within the warmed pool.
  const SimulationConfig config = metered_config(grid::AvailabilityLevel::kHigh);
  SimulationWorkspace workspace;
  (void)run_loop_allocs(config, workspace);  // warm
  EXPECT_EQ(run_loop_allocs(config, workspace), 0u);
}

// Every paper policy's select and bookkeeping runs inside the loop, so the
// guarantee must hold for all five, with and without machine failures.
class PaperPolicyAllocationFree : public ::testing::TestWithParam<sched::PolicyKind> {};

TEST_P(PaperPolicyAllocationFree, WarmedWorkspaceRunLoopMakesZeroHeapAllocations) {
  for (const grid::AvailabilityLevel level :
       {grid::AvailabilityLevel::kAlways, grid::AvailabilityLevel::kHigh}) {
    SimulationConfig config = metered_config(level);
    config.policy = GetParam();
    SimulationWorkspace workspace;
    (void)run_loop_allocs(config, workspace);  // warm
    EXPECT_EQ(run_loop_allocs(config, workspace), 0u)
        << sched::to_string(GetParam()) << " at availability level "
        << static_cast<int>(level);
  }
}

INSTANTIATE_TEST_SUITE_P(PaperPolicies, PaperPolicyAllocationFree,
                         ::testing::ValuesIn(sched::paper_policies()),
                         [](const ::testing::TestParamInfo<sched::PolicyKind>& param) {
                           std::string name = sched::to_string(param.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(AllocationFree, InterposerActuallyCounts) {
  const std::uint64_t before = util::alloc_count().load(std::memory_order_relaxed);
  volatile int* p = new int(7);
  delete p;
  auto* q = new double[32];
  delete[] q;
  EXPECT_GE(util::alloc_count().load(std::memory_order_relaxed), before + 2);
}

}  // namespace
}  // namespace dg::sim
