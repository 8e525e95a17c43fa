// Robustness campaign driver: risk-cliff sweeps + seed-sensitivity analysis.
//
// Expands the campaign grid (exp/campaign.hpp) — (machine availability x
// checkpoint-server availability x utilization x replication threshold) per
// policy, under the adversarial scenario director unless DGSCHED_ADVERSARY=0
// — runs it through the ExperimentRunner, and emits:
//
//   robustness_heatmap.csv   — one heatmap-ready row per cell: axes, mean /
//                              p50 / p95 / p99 turnaround, wasted fraction,
//                              and p95 degradation vs the mildest corner of
//                              the cell's (policy, utilization, threshold)
//                              slice.
//   robustness_campaign.json — the same rows plus the seed-sensitivity
//                              reports, machine-readable.
//   robustness_seeds.csv     — per-policy inter-seed spread of the p95 at
//                              the harshest corner of the grid (lowest
//                              machine and server availability, highest
//                              utilization): min / median / max / mean /
//                              stddev / cv / max-over-min.
//
// Every output is bit-identical across DGSCHED_THREADS / DGSCHED_BATCH —
// CI runs the smoke grid twice under different shapes and diffs the files
// byte for byte.
//
// With DGSCHED_JOURNAL=path, the risk-cliff grid's runner journals every
// committed replication there (exp/journal.hpp), the same rule as every
// other driver: a killed campaign rerun with the same path resumes from the
// journal and its output stays byte-identical to an uninterrupted run. The
// journal is left in place on completion.
//
// Usage: ./robustness_campaign [output_dir]   # default: cwd
// Env:   DGSCHED_CAMPAIGN_GRID=smoke|full, DGSCHED_CAMPAIGN_SEEDS=N,
//        DGSCHED_ADVERSARY=0|1, DGSCHED_BOTS=N, DGSCHED_JOURNAL=path, plus
//        the usual runner knobs.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <iostream>
#include <string>
#include <vector>

#include "exp/campaign.hpp"
#include "exp/runner.hpp"
#include "util/table.hpp"

namespace {

using namespace dg;

std::string num(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void write_heatmap_csv(std::ostream& os, const std::vector<exp::RiskCliffRow>& rows) {
  os << "label,policy,machine_availability,server_availability,utilization,"
        "replication_threshold,mean_turnaround,p50,p95,p99,wasted_fraction,"
        "degradation_vs_baseline,replications,saturated\n";
  for (const exp::RiskCliffRow& row : rows) {
    os << row.label << ',' << row.policy << ',' << num(row.machine_availability) << ','
       << num(row.server_availability) << ',' << num(row.utilization) << ','
       << row.replication_threshold << ',' << num(row.mean_turnaround) << ',' << num(row.p50)
       << ',' << num(row.p95) << ',' << num(row.p99) << ',' << num(row.wasted_fraction) << ','
       << num(row.degradation_vs_baseline) << ',' << row.replications << ','
       << (row.saturated ? 1 : 0) << '\n';
  }
}

struct SeedRow {
  std::string policy;
  std::string label;
  exp::SeedSpreadReport report;
};

void write_seeds_csv(std::ostream& os, const std::vector<SeedRow>& rows) {
  os << "policy,label,seeds,saturated_seeds,p95_min,p95_median,p95_max,p95_mean,"
        "p95_stddev,p95_cv,p95_max_over_min\n";
  for (const SeedRow& row : rows) {
    const exp::SeedSpreadReport& r = row.report;
    os << row.policy << ',' << row.label << ',' << r.seeds << ',' << r.saturated_seeds << ','
       << num(r.p95_min) << ',' << num(r.p95_median) << ',' << num(r.p95_max) << ','
       << num(r.p95_mean) << ',' << num(r.p95_stddev) << ',' << num(r.p95_cv) << ','
       << num(r.p95_max_over_min) << '\n';
  }
}

void write_json(std::ostream& os, const exp::CampaignOptions& campaign,
                const std::vector<exp::RiskCliffRow>& rows, const std::vector<SeedRow>& seeds) {
  os << "{\n  \"schema\": \"dgsched-robustness-campaign-v1\",\n";
  os << "  \"grid\": \"" << (campaign.smoke ? "smoke" : "full") << "\",\n";
  os << "  \"adversary\": " << (campaign.adversary ? "true" : "false") << ",\n";
  os << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const exp::RiskCliffRow& row = rows[i];
    os << "    {\"label\": \"" << row.label << "\", \"policy\": \"" << row.policy
       << "\", \"machine_availability\": " << num(row.machine_availability)
       << ", \"server_availability\": " << num(row.server_availability)
       << ", \"utilization\": " << num(row.utilization)
       << ", \"replication_threshold\": " << row.replication_threshold
       << ", \"mean_turnaround\": " << num(row.mean_turnaround) << ", \"p50\": " << num(row.p50)
       << ", \"p95\": " << num(row.p95) << ", \"p99\": " << num(row.p99)
       << ", \"wasted_fraction\": " << num(row.wasted_fraction)
       << ", \"degradation_vs_baseline\": " << num(row.degradation_vs_baseline)
       << ", \"replications\": " << row.replications
       << ", \"saturated\": " << (row.saturated ? "true" : "false") << '}'
       << (i + 1 < rows.size() ? "," : "") << '\n';
  }
  os << "  ],\n  \"seed_sensitivity\": [\n";
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const exp::SeedSpreadReport& r = seeds[i].report;
    os << "    {\"policy\": \"" << seeds[i].policy << "\", \"label\": \"" << seeds[i].label
       << "\", \"seeds\": " << r.seeds << ", \"saturated_seeds\": " << r.saturated_seeds
       << ", \"p95_per_seed\": [";
    for (std::size_t s = 0; s < r.p95.size(); ++s) {
      os << (s != 0 ? ", " : "") << num(r.p95[s]);
    }
    os << "], \"p95_min\": " << num(r.p95_min) << ", \"p95_median\": " << num(r.p95_median)
       << ", \"p95_max\": " << num(r.p95_max) << ", \"p95_mean\": " << num(r.p95_mean)
       << ", \"p95_stddev\": " << num(r.p95_stddev) << ", \"p95_cv\": " << num(r.p95_cv)
       << ", \"p95_max_over_min\": " << num(r.p95_max_over_min) << '}'
       << (i + 1 < seeds.size() ? "," : "") << '\n';
  }
  os << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_dir = argc > 1 ? argv[1] : ".";
  const exp::RunOptions options = exp::RunOptions::from_env();
  const exp::CampaignOptions campaign = exp::CampaignOptions::from_env();

  exp::CampaignAxes axes = campaign.smoke ? exp::CampaignAxes::smoke() : exp::CampaignAxes{};
  axes.num_bots = exp::env_num_bots().value_or(axes.num_bots);
  axes.warmup_bots = std::min(axes.warmup_bots, axes.num_bots / 4);
  axes.adversary.enabled = campaign.adversary;
  if (campaign.adversary) {
    // Scale the stress windows to the campaign's shortest expected arrival
    // span (num_bots / arrival_rate), so reduced CI grids (DGSCHED_BOTS)
    // keep num_windows non-overlapping windows instead of throwing.
    double min_span = std::numeric_limits<double>::infinity();
    for (const exp::CampaignCell& cell : exp::expand_campaign(axes)) {
      min_span = std::min(min_span, static_cast<double>(cell.config.workload.num_bots) /
                                        cell.config.workload.arrival_rate);
    }
    const double fit = 0.8 * (1.0 - axes.adversary.lead_fraction) * min_span /
                       static_cast<double>(axes.adversary.num_windows);
    axes.adversary.window_duration = std::min(axes.adversary.window_duration, fit);
  }

  const std::vector<exp::CampaignCell> cells = exp::expand_campaign(axes);
  std::cout << "=== Robustness campaign: " << (campaign.smoke ? "smoke" : "full") << " grid, "
            << cells.size() << " cells, adversary "
            << (campaign.adversary ? "on" : "off") << " ===\n\n";

  std::vector<exp::NamedConfig> named;
  named.reserve(cells.size());
  for (const exp::CampaignCell& cell : cells) {
    named.push_back(exp::NamedConfig{cell.label, cell.config});
  }
  exp::ExperimentRunner runner(options);
  const std::vector<exp::CellResult> results = runner.run(named);
  const exp::ExecutionStats& exec = runner.exec_stats();
  // Execution-shape banner (stdout is not part of the byte-diffed artifacts;
  // wall-clock numbers legitimately differ between bit-identical runs).
  std::printf(
      "execution: %zu lanes, wall %.1fs, busy %.1fs, stall %.1fs (%.0f%% utilized)\n"
      "speculation: %llu launched, %llu committed, %llu discarded, %llu recovered\n",
      exec.lanes.size(), exec.wall_s, exec.busy_s(), exec.stall_s(),
      exec.wall_s > 0.0 && !exec.lanes.empty()
          ? 100.0 * exec.busy_s() / (exec.wall_s * static_cast<double>(exec.lanes.size()))
          : 0.0,
      static_cast<unsigned long long>(exec.launched),
      static_cast<unsigned long long>(exec.committed),
      static_cast<unsigned long long>(exec.discarded),
      static_cast<unsigned long long>(exec.recovered));
  const std::vector<exp::RiskCliffRow> rows = exp::risk_cliff_rows(cells, results);

  util::Table table({"cell", "mean [s]", "p95 [s]", "p99 [s]", "wasted", "degradation"});
  for (const exp::RiskCliffRow& row : rows) {
    table.add_row({row.label, util::format_double(row.mean_turnaround, 0),
                   util::format_double(row.p95, 0), util::format_double(row.p99, 0),
                   util::format_double(100.0 * row.wasted_fraction, 1) + "%",
                   util::format_double(row.degradation_vs_baseline, 2) + "x"});
  }
  table.render(std::cout);

  // Seed sensitivity at the harshest corner of each policy's grid: lowest
  // machine availability, lowest server availability, highest utilization,
  // highest replication threshold.
  const double harsh_machine =
      *std::min_element(axes.machine_availabilities.begin(), axes.machine_availabilities.end());
  const double harsh_server =
      *std::min_element(axes.server_availabilities.begin(), axes.server_availabilities.end());
  const double harsh_util = *std::max_element(axes.utilizations.begin(), axes.utilizations.end());
  const int harsh_threshold =
      *std::max_element(axes.replication_thresholds.begin(), axes.replication_thresholds.end());

  std::vector<SeedRow> seed_rows;
  std::cout << "\nseed sensitivity (" << campaign.seeds << " seeds, harshest corner a="
            << harsh_machine << " s=" << harsh_server << " U=" << harsh_util << "):\n";
  for (const exp::CampaignCell& cell : cells) {
    if (cell.machine_availability != harsh_machine || cell.server_availability != harsh_server ||
        cell.utilization != harsh_util || cell.replication_threshold != harsh_threshold) {
      continue;
    }
    SeedRow row;
    row.policy = sched::to_string(cell.policy);
    row.label = cell.label;
    row.report = exp::seed_sensitivity(cell.config, options, campaign.seeds);
    seed_rows.push_back(std::move(row));
  }
  util::Table spread({"policy", "p95 min", "p95 median", "p95 max", "cv", "max/min"});
  for (const SeedRow& row : seed_rows) {
    spread.add_row({row.policy, util::format_double(row.report.p95_min, 0),
                    util::format_double(row.report.p95_median, 0),
                    util::format_double(row.report.p95_max, 0),
                    util::format_double(row.report.p95_cv, 3),
                    util::format_double(row.report.p95_max_over_min, 2) + "x"});
  }
  spread.render(std::cout);

  {
    std::ofstream os(out_dir + "/robustness_heatmap.csv");
    write_heatmap_csv(os, rows);
  }
  {
    std::ofstream os(out_dir + "/robustness_seeds.csv");
    write_seeds_csv(os, seed_rows);
  }
  {
    std::ofstream os(out_dir + "/robustness_campaign.json");
    write_json(os, campaign, rows, seed_rows);
  }
  std::cout << "\nwrote " << out_dir << "/robustness_heatmap.csv, robustness_seeds.csv, "
            << "robustness_campaign.json\n";
  return 0;
}
