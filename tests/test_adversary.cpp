// Adversarial scenario director (sim/adversary.hpp): deterministic window
// placement, parameter validation, burst modulation of the arrival process,
// and the bit-identity contract — a disabled (or all-mechanisms-off)
// adversary must leave the default path untouched.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "sim/adversary.hpp"
#include "sim/simulation.hpp"
#include "workload/generator.hpp"

namespace dg {
namespace {

workload::WorkloadConfig span_workload() {
  workload::WorkloadConfig config;
  config.num_bots = 100;
  config.arrival_rate = 1e-4;  // expected span = 1e6 s
  return config;
}

TEST(AdversaryWindows, SpreadsEvenlyAcrossArrivalSpan) {
  sim::AdversarialScenario scenario;
  scenario.enabled = true;
  scenario.num_windows = 3;
  scenario.window_duration = 7200.0;
  scenario.lead_fraction = 0.2;

  const std::vector<grid::StressWindow> windows =
      sim::adversary_windows(scenario, span_workload());
  ASSERT_EQ(windows.size(), 3u);
  // span = 1e6, lead = 2e5, step = (1e6 - 2e5) / 3.
  const double step = (1e6 - 2e5) / 3.0;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_DOUBLE_EQ(windows[i].start, 2e5 + static_cast<double>(i) * step);
    EXPECT_DOUBLE_EQ(windows[i].duration(), 7200.0);
    if (i > 0) {
      EXPECT_GT(windows[i].start, windows[i - 1].end);
    }
  }
  // Deterministic: same inputs, same windows.
  EXPECT_EQ(sim::adversary_windows(scenario, span_workload()), windows);
}

TEST(AdversaryWindows, ExplicitSpacingOverridesEvenSpread) {
  sim::AdversarialScenario scenario;
  scenario.enabled = true;
  scenario.num_windows = 4;
  scenario.window_duration = 3600.0;
  scenario.lead_fraction = 0.0;
  scenario.spacing = 50000.0;

  const std::vector<grid::StressWindow> windows =
      sim::adversary_windows(scenario, span_workload());
  ASSERT_EQ(windows.size(), 4u);
  for (std::size_t i = 0; i < windows.size(); ++i) {
    EXPECT_DOUBLE_EQ(windows[i].start, static_cast<double>(i) * 50000.0);
  }
}

TEST(AdversaryWindows, DisabledScenarioYieldsNoWindows) {
  EXPECT_TRUE(sim::adversary_windows(sim::AdversarialScenario{}, span_workload()).empty());
}

TEST(AdversaryWindows, RejectsBadParameters) {
  const auto expect_throw = [](auto mutate) {
    sim::AdversarialScenario scenario;
    scenario.enabled = true;
    mutate(scenario);
    EXPECT_THROW((void)sim::adversary_windows(scenario, span_workload()),
                 std::invalid_argument);
  };
  expect_throw([](sim::AdversarialScenario& s) { s.num_windows = 0; });
  expect_throw([](sim::AdversarialScenario& s) { s.window_duration = 0.0; });
  expect_throw([](sim::AdversarialScenario& s) { s.window_duration = -1.0; });
  expect_throw([](sim::AdversarialScenario& s) { s.lead_fraction = 1.0; });
  expect_throw([](sim::AdversarialScenario& s) { s.lead_fraction = -0.2; });
  expect_throw([](sim::AdversarialScenario& s) { s.spacing = -1.0; });
  expect_throw([](sim::AdversarialScenario& s) { s.burst_intensity = 0.9; });
  expect_throw([](sim::AdversarialScenario& s) { s.outage_fraction = 0.0; });
  expect_throw([](sim::AdversarialScenario& s) { s.outage_fraction = 1.5; });
  // Spacing shorter than the window duration would overlap the windows.
  expect_throw([](sim::AdversarialScenario& s) {
    s.spacing = 1000.0;
    s.window_duration = 7200.0;
  });
  // Degenerate workloads have no arrival span to place windows in.
  sim::AdversarialScenario scenario;
  scenario.enabled = true;
  workload::WorkloadConfig workload = span_workload();
  workload.arrival_rate = 0.0;
  EXPECT_THROW((void)sim::adversary_windows(scenario, workload), std::invalid_argument);
}

// --- burst modulation of the arrival process ---

TEST(AdversaryBursts, WindowsConcentrateArrivals) {
  workload::WorkloadConfig config = span_workload();
  config.num_bots = 400;
  // One window over the middle fifth of the span at 8x rate.
  config.stress_windows = {{4e5, 6e5}};
  config.stress_multiplier = 8.0;
  workload::WorkloadGenerator generator(config, rng::RandomStream::derive(7, "workload"));
  const std::vector<workload::BotSpec> specs = generator.generate();
  ASSERT_EQ(specs.size(), 400u);
  std::size_t inside = 0;
  std::size_t total = 0;
  for (const workload::BotSpec& spec : specs) {
    if (spec.arrival_time <= 1e6) {
      ++total;
      if (spec.arrival_time >= 4e5 && spec.arrival_time < 6e5) ++inside;
    }
  }
  // The window covers 1/5 of the span but runs at 8x rate; well over a
  // proportional share of arrivals must land inside it.
  ASSERT_GT(total, 100u);
  EXPECT_GT(static_cast<double>(inside) / static_cast<double>(total), 0.35);
}

TEST(AdversaryBursts, EmptyWindowsAreBitIdenticalToPlainPoisson) {
  const workload::WorkloadConfig plain = span_workload();
  workload::WorkloadConfig with_field = span_workload();
  with_field.stress_multiplier = 3.0;  // irrelevant without windows
  workload::WorkloadGenerator a(plain, rng::RandomStream::derive(11, "workload"));
  workload::WorkloadGenerator b(with_field, rng::RandomStream::derive(11, "workload"));
  const std::vector<workload::BotSpec> sa = a.generate();
  const std::vector<workload::BotSpec> sb = b.generate();
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].arrival_time, sb[i].arrival_time);  // bitwise
  }
}

TEST(AdversaryBursts, RejectsBadStressConfiguration) {
  {
    workload::WorkloadConfig config = span_workload();
    config.stress_windows = {{100.0, 50.0}};  // end <= start
    EXPECT_THROW(workload::WorkloadGenerator(config, rng::RandomStream::derive(1, "workload")),
                 std::invalid_argument);
  }
  {
    workload::WorkloadConfig config = span_workload();
    config.stress_windows = {{100.0, 500.0}, {400.0, 900.0}};  // overlap
    EXPECT_THROW(workload::WorkloadGenerator(config, rng::RandomStream::derive(1, "workload")),
                 std::invalid_argument);
  }
  {
    workload::WorkloadConfig config = span_workload();
    config.stress_windows = {{100.0, 500.0}};
    config.stress_multiplier = 0.5;  // < 1
    EXPECT_THROW(workload::WorkloadGenerator(config, rng::RandomStream::derive(1, "workload")),
                 std::invalid_argument);
  }
  {
    workload::WorkloadConfig config = span_workload();
    config.arrivals = workload::ArrivalProcess::kBursty;
    config.stress_windows = {{100.0, 500.0}};  // Poisson-only feature
    EXPECT_THROW(workload::WorkloadGenerator(config, rng::RandomStream::derive(1, "workload")),
                 std::invalid_argument);
  }
}

// --- end-to-end simulation contracts ---

sim::SimulationConfig small_sim_config() {
  sim::SimulationConfig config;
  config.grid = grid::GridConfig::preset(grid::Heterogeneity::kHet,
                                         grid::AvailabilityLevel::kLow);
  config.workload =
      sim::make_paper_workload(config.grid, 25000.0, workload::Intensity::kLow, 8);
  config.policy = sched::PolicyKind::kRoundRobin;
  config.individual = sched::IndividualSchedulerKind::kWqrFt;
  config.warmup_bots = 1;
  config.seed = 31337;
  return config;
}

void expect_same_result(const sim::SimulationResult& a, const sim::SimulationResult& b) {
  EXPECT_EQ(a.turnaround.mean(), b.turnaround.mean());
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.machine_failures, b.machine_failures);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.kernel.events_scheduled, b.kernel.events_scheduled);
  EXPECT_EQ(a.faults.server_outages, b.faults.server_outages);
  EXPECT_EQ(a.faults.server_downtime, b.faults.server_downtime);
}

TEST(AdversarySimulation, AllMechanismsOffIsBitIdenticalToDisabled) {
  // enabled=true with every mechanism neutralized must not perturb a single
  // stream: burst_intensity == 1 installs no stress windows, and the outage/
  // server mechanisms are off.
  const sim::SimulationResult baseline = sim::Simulation(small_sim_config()).run();
  sim::SimulationConfig config = small_sim_config();
  config.adversary.enabled = true;
  config.adversary.burst_intensity = 1.0;
  config.adversary.hit_machines = false;
  config.adversary.hit_server = false;
  const sim::SimulationResult neutral = sim::Simulation(config).run();
  expect_same_result(baseline, neutral);
}

TEST(AdversarySimulation, DirectorActuallyStressesTheRun) {
  sim::SimulationConfig config = small_sim_config();
  config.adversary.enabled = true;
  config.adversary.num_windows = 2;
  config.adversary.window_duration = 5000.0;
  config.adversary.burst_intensity = 4.0;
  config.adversary.outage_fraction = 0.3;
  const sim::SimulationResult stressed = sim::Simulation(config).run();
  // Same director minus the outage mechanism: identical windows and arrival
  // bursts, so the delta isolates the scheduled correlated outages. (The
  // no-adversary baseline is not comparable — bursts compress the arrival
  // span, changing how long the stochastic churn runs.)
  sim::SimulationConfig no_outages = config;
  no_outages.adversary.hit_machines = false;
  const sim::SimulationResult unstruck = sim::Simulation(no_outages).run();
  EXPECT_GT(stressed.machine_failures, unstruck.machine_failures);
  // The server is forced down over each window.
  EXPECT_GE(stressed.faults.server_outages, 1u);
  EXPECT_GT(stressed.faults.server_downtime, 0.0);
  EXPECT_EQ(stressed.bots_completed, stressed.bots.size());
}

TEST(AdversarySimulation, RequiresPoissonArrivals) {
  sim::SimulationConfig config = small_sim_config();
  config.workload.arrivals = workload::ArrivalProcess::kBursty;
  config.adversary.enabled = true;
  EXPECT_THROW((void)sim::Simulation(config).run(), std::invalid_argument);
}

}  // namespace
}  // namespace dg
