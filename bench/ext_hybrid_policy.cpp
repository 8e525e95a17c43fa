// Extension: PF-RR, one knowledge-free policy for all granularities.
//
// The paper closes: "further research is required in order to devise a
// single scheduling strategy able to properly work for all task
// granularities". PF-RR is our candidate: pending tasks are served strictly
// FCFS (what makes FCFS-Share win at small granularities), but replication
// only starts when no bag has pending work and then spreads round-robin
// (what makes RR win at large granularities). This bench pits it against
// the best paper policy in each regime, across both availability extremes.
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "util/table.hpp"

int main() {
  using namespace dg;
  exp::RunOptions options = exp::RunOptions::from_env();
  const std::size_t num_bots = exp::env_num_bots().value_or(80);

  std::cout << "=== Extension: PF-RR hybrid vs the paper's policies ===\n"
            << "A single knowledge-free strategy should match FCFS-Share at small\n"
            << "granularities AND RR at large ones.\n\n";

  const sched::PolicyKind policies[] = {sched::PolicyKind::kFcfsShare,
                                        sched::PolicyKind::kRoundRobin,
                                        sched::PolicyKind::kLongIdle,
                                        sched::PolicyKind::kPendingFirst};

  // Every panel's cells go through one runner call, so a DGSCHED_JOURNAL
  // covers the whole campaign; cells fold independently under common
  // random numbers, so a panel's numbers do not depend on its neighbours.
  struct Panel {
    grid::GridConfig grid;
    workload::Intensity intensity;
  };
  std::vector<Panel> panels;
  std::vector<exp::NamedConfig> cells;
  for (grid::AvailabilityLevel level :
       {grid::AvailabilityLevel::kHigh, grid::AvailabilityLevel::kLow}) {
    for (workload::Intensity intensity :
         {workload::Intensity::kLow, workload::Intensity::kHigh}) {
      const Panel panel{grid::GridConfig::preset(grid::Heterogeneity::kHom, level), intensity};
      for (double granularity : workload::kPaperGranularities) {
        for (sched::PolicyKind policy : policies) {
          sim::SimulationConfig config;
          config.grid = panel.grid;
          config.workload =
              sim::make_paper_workload(panel.grid, granularity, intensity, num_bots);
          config.policy = policy;
          config.warmup_bots = num_bots / 10;
          cells.push_back({panel.grid.name() + "/" + workload::to_string(intensity) + "/" +
                               util::format_double(granularity, 0) + "/" +
                               sched::to_string(policy),
                           config});
        }
      }
      panels.push_back(panel);
    }
  }
  exp::ExperimentRunner runner(options);
  const std::vector<exp::CellResult> results = runner.run(cells);

  std::size_t index = 0;
  for (const Panel& panel : panels) {
    std::vector<std::string> header{"granularity [s]"};
    for (sched::PolicyKind policy : policies) header.push_back(sched::to_string(policy));
    util::Table table(std::move(header));
    for (double granularity : workload::kPaperGranularities) {
      std::vector<std::string> row{util::format_double(granularity, 0)};
      for (std::size_t p = 0; p < std::size(policies); ++p) {
        const exp::CellResult& cell = results[index++];
        const auto ci = cell.turnaround_ci();
        std::string text = util::format_double(ci.mean, 0);
        if (cell.saturated()) text = ">=" + text + " SAT";
        else text += " +-" + util::format_double(ci.half_width, 0);
        row.push_back(text);
      }
      table.add_row(std::move(row));
    }
    std::cout << "--- " << panel.grid.name() << " / " << workload::to_string(panel.intensity)
              << " intensity ---\n";
    table.render(std::cout);
    std::cout << "\n";
  }
  return 0;
}
