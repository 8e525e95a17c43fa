// Shared driver for the figure-reproduction benches (fig1_high_avail,
// fig2_low_avail, unreported_configs): applies env overrides, builds the
// figure's cell matrix, runs it through one ExperimentRunner — so runner
// features land in every figure binary at once — prints the panel tables,
// and writes a CSV next to the binary's working directory.
#pragma once

#include <fstream>
#include <iostream>
#include <string>

#include "exp/paper.hpp"
#include "exp/runner.hpp"

namespace dg::bench {

inline int run_figure_main(exp::FigureSpec spec, const std::string& csv_name) {
  exp::RunOptions options = exp::RunOptions::from_env();
  if (auto bots = exp::env_num_bots()) spec.num_bots = *bots;

  // The banner goes to stderr: it describes the run shape (queue backend,
  // speculation), which legitimately differs between runs whose *results*
  // are bit-identical, so captured stdout can be diffed across such runs.
  const des::QueueBackend backend =
      options.queue_backend.value_or(des::default_queue_backend());
  std::cerr << "dgsched figure reproduction\n"
            << "  bags/cell: " << spec.num_bots << " (warmup " << spec.warmup_bots << ")"
            << ", replications: " << options.min_replications << ".."
            << options.max_replications << ", CI target: "
            << options.target_relative_error * 100.0 << "%\n"
            << "  runner: queue=" << des::to_string(backend)
            << ", speculate=" << options.speculate << "\n"
            << "  (env: DGSCHED_BOTS, DGSCHED_MIN_REPS, DGSCHED_MAX_REPS, DGSCHED_TRE,"
            << " DGSCHED_THREADS, DGSCHED_SEED, DGSCHED_QUEUE, DGSCHED_SPECULATE;"
            << " paper fidelity: DGSCHED_TRE=0.025)\n\n";

  exp::ExperimentRunner runner(options);
  const std::vector<exp::CellResult> results = runner.run(exp::figure_cells(spec));

  std::ofstream csv(csv_name);
  exp::render_figure(spec, results, std::cout, csv ? &csv : nullptr);
  if (csv) std::cout << "CSV written to " << csv_name << "\n";

  return 0;
}

}  // namespace dg::bench
