// Multi-process sharded runner (exp/shard.hpp): results must be
// bit-identical to the threaded ExperimentRunner for any worker count,
// chunk shape, worker-death schedule, or kill/resume point (cross-process
// bit-identity and kill/resume), and the env knobs must parse.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "exp/shard.hpp"
#include "sim/simulation.hpp"

namespace dg::exp {
namespace {

/// Fresh scratch directory per test (journals), removed on destruction.
struct ShardDir {
  explicit ShardDir(const std::string& name)
      : path((std::filesystem::temp_directory_path() /
              ("dgsched_shard_test_" + name + "_" + std::to_string(::getpid())))
                 .string()) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ShardDir() { std::filesystem::remove_all(path); }
  [[nodiscard]] std::string file(const char* name) const { return path + "/" + name; }
  std::string path;
};

/// Two small policy cells under common random numbers on a volatile grid,
/// small enough that a handful of sharded campaigns stays test-sized.
std::vector<NamedConfig> tiny_cells() {
  std::vector<NamedConfig> cells;
  for (const sched::PolicyKind policy :
       {sched::PolicyKind::kFcfsShare, sched::PolicyKind::kRoundRobin}) {
    NamedConfig cell;
    cell.label = sched::to_string(policy);
    cell.config.grid =
        grid::GridConfig::preset(grid::Heterogeneity::kHet, grid::AvailabilityLevel::kLow);
    cell.config.workload =
        sim::make_paper_workload(cell.config.grid, 25000.0, workload::Intensity::kLow, 10);
    cell.config.policy = policy;
    cell.config.warmup_bots = 2;
    cells.push_back(std::move(cell));
  }
  return cells;
}

RunOptions tiny_options() {
  RunOptions options;
  options.min_replications = 3;
  options.max_replications = 3;
  options.threads = 2;
  return options;
}

/// Bitwise equality of every statistic a campaign reports from a cell.
void expect_cells_bitwise(const std::vector<CellResult>& a, const std::vector<CellResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t c = 0; c < a.size(); ++c) {
    SCOPED_TRACE(a[c].label);
    EXPECT_EQ(a[c].label, b[c].label);
    EXPECT_EQ(a[c].replications, b[c].replications);
    EXPECT_EQ(a[c].saturated_replications, b[c].saturated_replications);
    EXPECT_EQ(a[c].events_executed, b[c].events_executed);
    EXPECT_EQ(a[c].turnaround.stats().mean(), b[c].turnaround.stats().mean());
    EXPECT_EQ(a[c].turnaround.stats().stddev(), b[c].turnaround.stats().stddev());
    EXPECT_EQ(a[c].waiting.mean(), b[c].waiting.mean());
    EXPECT_EQ(a[c].makespan.mean(), b[c].makespan.mean());
    EXPECT_EQ(a[c].utilization.mean(), b[c].utilization.mean());
    EXPECT_EQ(a[c].wasted_fraction.mean(), b[c].wasted_fraction.mean());
    EXPECT_EQ(a[c].lost_work.mean(), b[c].lost_work.mean());
    EXPECT_EQ(a[c].decayed_utilization.mean(), b[c].decayed_utilization.mean());
    EXPECT_EQ(a[c].transfer_retries.mean(), b[c].transfer_retries.mean());
    EXPECT_EQ(a[c].replicas_degraded.mean(), b[c].replicas_degraded.mean());
    EXPECT_EQ(a[c].server_downtime.mean(), b[c].server_downtime.mean());
    EXPECT_EQ(a[c].turnaround_tail.count(), b[c].turnaround_tail.count());
    EXPECT_EQ(a[c].turnaround_tail.sum(), b[c].turnaround_tail.sum());
    EXPECT_EQ(a[c].turnaround_tail.tails().p95, b[c].turnaround_tail.tails().p95);
    EXPECT_EQ(a[c].slowdown_tail.sum(), b[c].slowdown_tail.sum());
    EXPECT_EQ(a[c].completion_gap_tail.sum(), b[c].completion_gap_tail.sum());
  }
}

std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

TEST(ShardedRunner, BitIdenticalToThreadedRunnerAcrossProcessCounts) {
  // Byte-identical campaign output at 1, 2, and 4 workers. The threaded
  // runner is the reference; the journal is on, so the full transport path
  // (ring/socket summaries + journal append) is held to the contract.
  ShardDir dir("procs");
  const std::vector<NamedConfig> cells = tiny_cells();
  const RunOptions options = tiny_options();
  const std::vector<CellResult> reference = ExperimentRunner(options).run(cells);

  for (const std::size_t procs : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE(procs);
    ShardOptions shard;
    shard.procs = procs;
    shard.journal_path = dir.file(("j" + std::to_string(procs) + ".journal").c_str());
    ShardedRunner runner(options, shard);
    expect_cells_bitwise(runner.run(cells), reference);
    EXPECT_EQ(runner.recovered_replications(), 0u);
  }
}

TEST(ShardedRunner, BitIdenticalAcrossChunkShapesAndHandOutOrders) {
  const std::vector<NamedConfig> cells = tiny_cells();
  const RunOptions options = tiny_options();
  const std::vector<CellResult> reference = ExperimentRunner(options).run(cells);

  // One-job chunks, no journal.
  {
    RunOptions o = options;
    o.batch_size = 1;
    ShardOptions shard;
    shard.procs = 2;
    expect_cells_bitwise(ShardedRunner(o, shard).run(cells), reference);
  }
  // Fresh-construction workers (no reusable workspace).
  {
    RunOptions o = options;
    o.reuse_workspaces = false;
    ShardOptions shard;
    shard.procs = 2;
    expect_cells_bitwise(ShardedRunner(o, shard).run(cells), reference);
  }
}

TEST(ShardedRunner, MultiRoundPrecisionLoopMatchesThreadedRunner) {
  // A tight precision target forces extra rounds past min_replications; the
  // round structure (and thus the final replication counts) must match the
  // threaded runner's exactly, with workers persisting across rounds.
  const std::vector<NamedConfig> cells = tiny_cells();
  RunOptions options = tiny_options();
  options.min_replications = 2;
  options.max_replications = 4;
  options.target_relative_error = 1e-4;  // unreachable: runs to the cap
  const std::vector<CellResult> reference = ExperimentRunner(options).run(cells);
  ASSERT_EQ(reference[0].replications, 4u);

  ShardOptions shard;
  shard.procs = 2;
  expect_cells_bitwise(ShardedRunner(options, shard).run(cells), reference);
}

TEST(ShardedRunner, KilledWorkerIsRespawnedAndResultsUnchanged) {
  // Worker 0's first incarnation dies mid-chunk after one replication; the
  // coordinator requeues the chunk and the replacement redoes it. Nothing of
  // the dead worker's partial chunk may leak into the fold.
  const std::vector<NamedConfig> cells = tiny_cells();
  const RunOptions options = tiny_options();
  const std::vector<CellResult> reference = ExperimentRunner(options).run(cells);

  ShardOptions shard;
  shard.procs = 2;
  shard.self_kill_worker = 0;
  shard.self_kill_jobs = 1;
  expect_cells_bitwise(ShardedRunner(options, shard).run(cells), reference);
}

TEST(ShardedRunner, ResumeFromEveryJournalRecordBoundaryIsByteIdentical) {
  // Satellite kill/resume: complete the campaign once (journaled), then for
  // every prefix of the journal — every record boundary, i.e. every possible
  // fsync'd kill point — restart the campaign from that prefix. Each resumed
  // run must (a) fold exactly the prefix's records instead of re-running
  // them and (b) produce bitwise-identical cell results; the resumed journal
  // must even match the uninterrupted journal byte for byte.
  ShardDir dir("resume");
  const std::vector<NamedConfig> cells = tiny_cells();
  RunOptions options = tiny_options();
  options.batch_size = 1;  // one record per chunk: every boundary reachable

  ShardOptions shard;
  shard.procs = 1;  // deterministic append order, so journal bytes compare
  shard.journal_path = dir.file("reference.journal");
  ShardedRunner runner(options, shard);
  const std::vector<CellResult> reference = runner.run(cells);
  const std::vector<std::uint8_t> reference_journal = file_bytes(shard.journal_path);

  // Record boundaries, parsed from the file: 16-byte header, then records of
  // 24-byte header (leading u32 payload size) + payload.
  std::vector<std::size_t> boundaries{16};
  while (boundaries.back() < reference_journal.size()) {
    std::uint32_t payload_size = 0;
    std::memcpy(&payload_size, reference_journal.data() + boundaries.back(),
                sizeof payload_size);
    boundaries.push_back(boundaries.back() + 24 + payload_size);
  }
  ASSERT_EQ(boundaries.back(), reference_journal.size());
  ASSERT_EQ(boundaries.size(), 7u);  // header + 2 cells x 3 replications

  for (std::size_t k = 0; k < boundaries.size(); ++k) {
    SCOPED_TRACE(k);
    ShardOptions resume = shard;
    resume.journal_path = dir.file("resume.journal");
    {
      std::ofstream out(resume.journal_path, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(reference_journal.data()),
                static_cast<std::streamoff>(boundaries[k]));
    }
    ShardedRunner resumed(options, resume);
    expect_cells_bitwise(resumed.run(cells), reference);
    EXPECT_EQ(resumed.recovered_replications(), k);
    EXPECT_EQ(file_bytes(resume.journal_path), reference_journal);
  }
}

TEST(ShardedRunner, JournalBytesIdenticalAcrossExecutionShapes) {
  // The canonical journal order contract (PR 10): the journal is written in
  // cell-major / ascending-replication canonical order regardless of how the
  // campaign actually executed, so the file is byte-identical across
  // barrier/pipelined scheduling, any speculation window, any worker count,
  // and any chunk shape — and a journal written by one shape can resume a
  // run under any other.
  ShardDir dir("shapes");
  const std::vector<NamedConfig> cells = tiny_cells();
  RunOptions base = tiny_options();
  base.min_replications = 2;
  base.max_replications = 4;
  base.target_relative_error = 1e-4;  // unreachable: multi-round structure

  const std::vector<CellResult> reference = ExperimentRunner(base).run(cells);
  std::vector<std::uint8_t> reference_journal;

  struct Variant {
    const char* name;
    bool pipeline;
    std::size_t speculate;
    std::size_t procs;
    std::size_t batch;
  };
  const Variant variants[] = {
      {"p1_default", true, 1, 1, 0},
      {"p1_barrier", false, 0, 1, 0},
      {"p2_spec0", true, 0, 2, 0},
      {"p2_spec4", true, 4, 2, 0},
      {"p2_batch1", true, 4, 2, 1},
      {"p4_barrier", false, 0, 4, 0},
  };
  for (const Variant& variant : variants) {
    SCOPED_TRACE(variant.name);
    RunOptions options = base;
    options.pipeline = variant.pipeline;
    options.speculate = variant.speculate;
    options.batch_size = variant.batch;
    ShardOptions shard;
    shard.procs = variant.procs;
    shard.journal_path = dir.file((std::string(variant.name) + ".journal").c_str());
    ShardedRunner runner(options, shard);
    expect_cells_bitwise(runner.run(cells), reference);
    const std::vector<std::uint8_t> journal = file_bytes(shard.journal_path);
    EXPECT_FALSE(journal.empty());
    if (reference_journal.empty()) {
      reference_journal = journal;
    } else {
      EXPECT_EQ(journal, reference_journal);
    }
  }

  // Cross-shape resume: the deep-speculation pipelined journal, truncated to
  // a mid-campaign record boundary, resumed by a barrier-mode run — the
  // recovered prefix folds in, the remainder is dispatched barrier-style,
  // and both the results and the final journal bytes still match.
  std::vector<std::size_t> boundaries{16};
  while (boundaries.back() < reference_journal.size()) {
    std::uint32_t payload_size = 0;
    std::memcpy(&payload_size, reference_journal.data() + boundaries.back(),
                sizeof payload_size);
    boundaries.push_back(boundaries.back() + 24 + payload_size);
  }
  ASSERT_GE(boundaries.size(), 4u);
  const std::size_t cut = boundaries[boundaries.size() / 2];
  ShardOptions resume;
  resume.procs = 2;
  resume.journal_path = dir.file("cross_shape_resume.journal");
  {
    std::ofstream out(resume.journal_path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(reference_journal.data()),
              static_cast<std::streamoff>(cut));
  }
  RunOptions barrier = base;
  barrier.pipeline = false;
  barrier.speculate = 0;
  ShardedRunner resumed(barrier, resume);
  expect_cells_bitwise(resumed.run(cells), reference);
  EXPECT_EQ(resumed.recovered_replications(), boundaries.size() / 2);  // records before the cut
  EXPECT_EQ(file_bytes(resume.journal_path), reference_journal);
}

TEST(ShardedRunner, SpeculativeResumeFromEveryBoundaryIsByteIdentical) {
  // Kill/resume through the journal mid-pipeline with a deep speculation
  // window: speculative in-flight work at the kill point must neither leak
  // into the resumed fold nor change the canonical journal bytes.
  ShardDir dir("spec_resume");
  const std::vector<NamedConfig> cells = tiny_cells();
  RunOptions options = tiny_options();
  options.batch_size = 1;
  options.speculate = 4;
  // A reachable precision target past min, so cells can stop early while the
  // deep speculation window has already launched (and run) extra
  // replications — the discard path is live at every kill point.
  options.min_replications = 2;
  options.max_replications = 6;
  options.target_relative_error = 0.15;

  ShardOptions shard;
  shard.procs = 1;
  shard.journal_path = dir.file("reference.journal");
  ShardedRunner runner(options, shard);
  const std::vector<CellResult> reference = runner.run(cells);
  const std::vector<std::uint8_t> reference_journal = file_bytes(shard.journal_path);

  std::vector<std::size_t> boundaries{16};
  while (boundaries.back() < reference_journal.size()) {
    std::uint32_t payload_size = 0;
    std::memcpy(&payload_size, reference_journal.data() + boundaries.back(),
                sizeof payload_size);
    boundaries.push_back(boundaries.back() + 24 + payload_size);
  }
  ASSERT_EQ(boundaries.back(), reference_journal.size());
  ASSERT_GE(boundaries.size(), 5u);  // header + >= 2 cells x 2 replications

  for (std::size_t k = 0; k < boundaries.size(); ++k) {
    SCOPED_TRACE(k);
    ShardOptions resume = shard;
    resume.procs = 2;  // resume under a different worker count too
    resume.journal_path = dir.file("resume.journal");
    {
      std::ofstream out(resume.journal_path, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(reference_journal.data()),
                static_cast<std::streamoff>(boundaries[k]));
    }
    ShardedRunner resumed(options, resume);
    expect_cells_bitwise(resumed.run(cells), reference);
    EXPECT_EQ(resumed.recovered_replications(), k);
    EXPECT_EQ(file_bytes(resume.journal_path), reference_journal);
  }
}

TEST(ShardedRunner, ExecStatsReportWorkerLanes) {
  const std::vector<NamedConfig> cells = tiny_cells();
  const RunOptions options = tiny_options();
  ShardOptions shard;
  shard.procs = 2;
  ShardedRunner runner(options, shard);
  (void)runner.run(cells);
  const ExecutionStats& exec = runner.exec_stats();
  ASSERT_EQ(exec.lanes.size(), 2u);
  EXPECT_EQ(exec.committed, 6u);  // 2 cells x 3 replications
  EXPECT_EQ(exec.launched, exec.committed + exec.discarded);
  EXPECT_GT(exec.wall_s, 0.0);
  EXPECT_GT(exec.busy_s(), 0.0);
  std::uint64_t lane_jobs = 0;
  for (const WorkerLaneStats& lane : exec.lanes) lane_jobs += lane.jobs;
  EXPECT_EQ(lane_jobs, exec.launched);
  for (const WorkerLaneStats& lane : exec.lanes) {
    EXPECT_GE(lane.stall_s, 0.0);
    EXPECT_LE(lane.busy_s, exec.wall_s);
  }
}

TEST(ShardOptions, FromEnvParsesAndValidates) {
  ASSERT_EQ(setenv("DGSCHED_PROCS", "3", 1), 0);
  ASSERT_EQ(setenv("DGSCHED_JOURNAL", "/tmp/c.journal", 1), 0);
  ASSERT_EQ(setenv("DGSCHED_JOURNAL_FSYNC", "0", 1), 0);
  ASSERT_EQ(setenv("DGSCHED_SHARD_ABORT_AFTER", "5", 1), 0);
  ASSERT_EQ(setenv("DGSCHED_SHARD_SELF_KILL", "1:2", 1), 0);
  ShardOptions options = ShardOptions::from_env();
  EXPECT_EQ(options.procs, 3u);
  EXPECT_EQ(options.journal_path, "/tmp/c.journal");
  EXPECT_FALSE(options.fsync_journal);
  EXPECT_EQ(options.abort_after_appends, 5u);
  EXPECT_EQ(options.self_kill_worker, 1u);
  EXPECT_EQ(options.self_kill_jobs, 2u);

  for (const char* bad : {"nope", "3", ":4", "4:", "a:b", "1:2:3", "-1:2", " 1:2", "+1:2", "1: 2"}) {
    SCOPED_TRACE(bad);
    ASSERT_EQ(setenv("DGSCHED_SHARD_SELF_KILL", bad, 1), 0);
    EXPECT_THROW((void)ShardOptions::from_env(), std::invalid_argument);
  }

  ASSERT_EQ(unsetenv("DGSCHED_PROCS"), 0);
  ASSERT_EQ(unsetenv("DGSCHED_JOURNAL"), 0);
  ASSERT_EQ(unsetenv("DGSCHED_JOURNAL_FSYNC"), 0);
  ASSERT_EQ(unsetenv("DGSCHED_SHARD_ABORT_AFTER"), 0);
  ASSERT_EQ(unsetenv("DGSCHED_SHARD_SELF_KILL"), 0);
  const ShardOptions defaults = ShardOptions::from_env();
  EXPECT_EQ(defaults.procs, 1u);
  EXPECT_TRUE(defaults.journal_path.empty());
  EXPECT_TRUE(defaults.fsync_journal);
  EXPECT_EQ(defaults.abort_after_appends, 0u);
  EXPECT_EQ(defaults.self_kill_jobs, 0u);
}

}  // namespace
}  // namespace dg::exp
