#include "exp/runner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

#include "exp/journal.hpp"
#include "exp/pipeline.hpp"
#include "exp/replication_summary.hpp"
#include "rng/splitmix64.hpp"
#include "sim/workspace.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace dg::exp {

std::optional<std::string> env_string(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return std::nullopt;
  return std::string(value);
}

void bad_env(const char* name, const std::string& text, const char* expected) {
  throw std::invalid_argument(std::string(name) + ": expected " + expected + ", got \"" + text +
                              "\"");
}

std::optional<double> env_double(const char* name) {
  const auto text = env_string(name);
  if (!text) return std::nullopt;
  double value = 0.0;
  try {
    std::size_t consumed = 0;
    value = std::stod(*text, &consumed);
    if (consumed != text->size()) bad_env(name, *text, "a number");
  } catch (const std::invalid_argument&) {
    bad_env(name, *text, "a number");
  } catch (const std::out_of_range&) {
    bad_env(name, *text, "a number in double range");
  }
  if (!std::isfinite(value)) bad_env(name, *text, "a finite number");
  return value;
}

std::optional<std::size_t> env_size(const char* name) {
  const auto text = env_string(name);
  if (!text) return std::nullopt;
  // std::stoull alone would skip leading blanks and accept a sign ("-1"
  // wraps to 2^64 - 1), so insist on a plain run of decimal digits.
  if (!std::all_of(text->begin(), text->end(), [](char ch) { return ch >= '0' && ch <= '9'; })) {
    bad_env(name, *text, "a non-negative integer");
  }
  try {
    return static_cast<std::size_t>(std::stoull(*text));
  } catch (const std::out_of_range&) {
    bad_env(name, *text, "a non-negative integer in range");
  }
}

RunOptions RunOptions::from_env(RunOptions defaults) {
  if (auto v = env_size("DGSCHED_MIN_REPS")) defaults.min_replications = *v;
  if (auto v = env_size("DGSCHED_MAX_REPS")) defaults.max_replications = *v;
  if (auto v = env_double("DGSCHED_TRE")) {
    if (*v <= 0.0) bad_env("DGSCHED_TRE", *env_string("DGSCHED_TRE"), "a positive number");
    defaults.target_relative_error = *v;
  }
  if (auto v = env_size("DGSCHED_THREADS")) defaults.threads = *v;
  if (auto v = env_size("DGSCHED_SEED")) defaults.base_seed = *v;
  if (auto v = env_size("DGSCHED_SPECULATE")) defaults.speculate = *v;
  if (auto v = env_string("DGSCHED_JOURNAL")) defaults.journal_path = *v;
  if (auto text = env_string("DGSCHED_QUEUE")) {
    const auto backend = des::parse_queue_backend(*text);
    if (!backend.has_value()) bad_env("DGSCHED_QUEUE", *text, "\"heap4\" or \"calendar\"");
    defaults.queue_backend = *backend;
  }
  if (defaults.max_replications < defaults.min_replications) {
    defaults.max_replications = defaults.min_replications;
  }
  return defaults;
}

std::optional<std::size_t> env_num_bots() { return env_size("DGSCHED_BOTS"); }

std::vector<CellResult> ExperimentRunner::run(const std::vector<NamedConfig>& cells) {
  std::vector<CellResult> results;
  results.reserve(cells.size());
  for (const NamedConfig& cell : cells) {
    CellResult result;
    result.label = cell.label;
    result.config = cell.config;
    result.turnaround = stats::ReplicationAnalyzer(options_.ci_level,
                                                   options_.target_relative_error,
                                                   options_.min_replications);
    results.push_back(std::move(result));
  }

  exec_stats_ = ExecutionStats{};
  if (cells.empty()) return results;

  // PipelineState owns the ready queue, the per-cell reorder/commit
  // buffers, the precision decisions and the speculation window. Worker
  // loops pull one job at a time and deliver its summary under one mutex;
  // the fold itself happens inside deliver() in canonical per-cell order, so
  // accumulator sequences are bitwise-equal to a sequential run no matter
  // which worker finishes when.
  //
  // With a journal, the records of an earlier (killed) run of this campaign
  // are folded in instead of dispatched. Records were written in the
  // canonical order, so the recovered set is a canonical prefix and feeding
  // it back in file order cascades commits eagerly.
  std::unique_ptr<CampaignJournal> journal;
  if (!options_.journal_path.empty()) {
    journal = std::make_unique<CampaignJournal>(
        options_.journal_path, CampaignJournal::campaign_signature(cells, options_));
  }
  PipelineState state(options_, results, journal.get());
  if (journal) {
    for (const CampaignJournal::Record& record : journal->recovered()) {
      state.mark_recovered(record.cell, record.replication);
    }
  }
  state.start();
  if (journal) {
    for (const CampaignJournal::Record& record : journal->recovered()) {
      state.deliver_recovered(record.cell, record.replication,
                              ReplicationSummary(record.summary));
    }
  }

  std::mutex mutex;
  std::condition_variable ready_cv;
  std::exception_ptr error;
  std::vector<WorkerLaneStats> lanes;
  const auto wall_start = std::chrono::steady_clock::now();
  const auto seconds_since = [](std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  };

  // One worker loop per pool thread, each owning its workspace and its lane;
  // the first failure stops every loop and is rethrown below.
  auto worker_loop = [&](WorkerLaneStats& lane) {
    std::unique_lock<std::mutex> lock(mutex, std::defer_lock);
    try {
      sim::SimulationWorkspace workspace;
      lock.lock();
      for (;;) {
        while (!error && !state.finished() && !state.has_ready()) {
          const auto wait_start = std::chrono::steady_clock::now();
          ready_cv.wait(lock);
          lane.stall_s += seconds_since(wait_start);
        }
        if (error || state.finished()) return;
        const PipelineJob job = state.pop();
        lock.unlock();
        sim::SimulationConfig config = results[job.cell].config;
        // Seeds depend only on (base_seed, replication): common random
        // numbers across cells that differ only in scheduling policy.
        config.seed = rng::mix_seed(options_.base_seed, job.replication);
        if (options_.queue_backend.has_value()) config.queue_backend = options_.queue_backend;
        const auto job_start = std::chrono::steady_clock::now();
        ReplicationSummary summary = summarize(sim::Simulation(std::move(config)).run(workspace));
        lane.busy_s += seconds_since(job_start);
        ++lane.jobs;
        lock.lock();
        const std::uint64_t appended = journal ? journal->appended() : 0;
        state.deliver(job.cell, job.replication, std::move(summary));
        if (state.has_ready() || state.finished()) ready_cv.notify_all();
        if (journal && journal->appended() != appended) {
          // The delivery's records are durable before this worker takes
          // more work; the fsync runs outside the mutex so the other workers
          // keep committing meanwhile.
          lock.unlock();
          journal->sync();
          lock.lock();
        }
      }
    } catch (...) {
      if (!lock.owns_lock()) lock.lock();
      if (!error) error = std::current_exception();
      ready_cv.notify_all();
    }
  };

  {
    // Declared after everything the loops touch, so an unwinding run()
    // joins the workers before any of it is destroyed.
    util::ThreadPool pool(options_.threads);
    lanes.resize(pool.size());
    std::vector<std::future<void>> futures;
    futures.reserve(pool.size());
    for (WorkerLaneStats& lane : lanes) {
      futures.push_back(pool.submit([&worker_loop, &lane] { worker_loop(lane); }));
    }
    for (std::future<void>& future : futures) future.get();
  }
  if (error) std::rethrow_exception(error);

  exec_stats_.lanes = std::move(lanes);
  exec_stats_.wall_s = seconds_since(wall_start);
  exec_stats_.launched = state.launched();
  exec_stats_.committed = state.committed();
  exec_stats_.discarded = state.discarded();
  exec_stats_.recovered = state.recovered();

  for (const CellResult& cell : results) {
    util::log_info("cell '", cell.label, "': mean turnaround ", cell.turnaround.stats().mean(),
                   " (", cell.replications, " reps",
                   cell.saturated() ? ", SATURATED" : "", ")");
  }
  return results;
}

}  // namespace dg::exp
