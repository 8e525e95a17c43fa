// Completion journal (exp/journal.hpp): append/recover round trips are
// bitwise, a journal truncated at ANY byte — in particular at every record
// boundary — recovers exactly the longest valid record prefix and truncates
// the torn tail away, a signature mismatch restarts the file rather than
// folding foreign records, and foreign files are refused outright.
//
// Runner level (RunOptions::journal_path): a campaign killed at any journal
// point and resumed folds the recovered records instead of rerunning them,
// and both its CellResults and its final journal are bitwise-equal to an
// uninterrupted run's, for any thread count and scheduling shape.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/journal.hpp"
#include "exp/runner.hpp"
#include "sim/simulation.hpp"

namespace dg::exp {
namespace {

/// Fresh journal path per test, removed on destruction.
struct JournalPath {
  explicit JournalPath(const std::string& name)
      : path((std::filesystem::temp_directory_path() /
              ("dgsched_journal_test_" + name + "_" + std::to_string(::getpid()) + ".journal"))
                 .string()) {
    std::filesystem::remove(path);
  }
  ~JournalPath() { std::filesystem::remove(path); }
  std::string path;
};

/// A summary whose every field (including sketch buckets) depends on `salt`,
/// with deliberately non-representable doubles so bitwise equality means
/// something.
ReplicationSummary make_summary(std::uint64_t salt) {
  ReplicationSummary s;
  const double base = 1.0 / 3.0 + static_cast<double>(salt) * 0.7;
  s.turnaround_mean = base;
  s.waiting_mean = base * 0.1;
  s.makespan_mean = base * 2.0;
  s.utilization = 0.9 - 0.01 * static_cast<double>(salt);
  s.decayed_utilization = 0.85 - 0.01 * static_cast<double>(salt);
  s.wasted_fraction = 0.05 + 0.001 * static_cast<double>(salt);
  s.lost_work = base * 10.0;
  s.transfer_retries = static_cast<double>(salt % 3);
  s.replicas_degraded = static_cast<double>(salt % 2);
  s.server_downtime = base * 100.0;
  for (std::uint64_t i = 0; i <= salt % 5 + 3; ++i) {
    s.turnaround_tail.add(base * static_cast<double>(i + 1));
    s.slowdown_tail.add(1.0 + 0.1 * static_cast<double>(i) + 0.01 * static_cast<double>(salt));
    s.completion_gap_tail.add(base / static_cast<double>(i + 1));
  }
  s.events_executed = 10000 + salt;
  s.saturated = salt % 2 == 1;
  return s;
}

void expect_summary_bitwise(const ReplicationSummary& a, const ReplicationSummary& b) {
  std::vector<std::uint8_t> a_bytes;
  std::vector<std::uint8_t> b_bytes;
  a.serialize(a_bytes);
  b.serialize(b_bytes);
  EXPECT_EQ(a_bytes, b_bytes);
}

/// Byte offsets of the record boundaries of a closed journal file:
/// boundaries[0] is the end of the header, boundaries[k] the end of record
/// k-1. Parsed independently of the implementation (16-byte header; records
/// are a 24-byte header whose first u32 is the payload size, then the
/// payload).
std::vector<std::uintmax_t> record_boundaries(const std::string& path) {
  const std::uintmax_t size = std::filesystem::file_size(path);
  std::ifstream in(path, std::ios::binary);
  std::vector<std::uintmax_t> boundaries{16};
  while (boundaries.back() < size) {
    std::uint32_t payload_size = 0;
    in.seekg(static_cast<std::streamoff>(boundaries.back()));
    in.read(reinterpret_cast<char*>(&payload_size), sizeof payload_size);
    boundaries.push_back(boundaries.back() + 24 + payload_size);
  }
  EXPECT_EQ(boundaries.back(), size) << "file does not end on a record boundary";
  return boundaries;
}

void copy_prefix(const std::string& from, const std::string& to, std::uintmax_t bytes) {
  std::filesystem::copy_file(from, to, std::filesystem::copy_options::overwrite_existing);
  std::filesystem::resize_file(to, bytes);
}

std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

/// Two small policy cells under common random numbers on a volatile grid,
/// small enough that dozens of journaled campaigns stay test-sized.
std::vector<NamedConfig> tiny_cells(std::size_t num_bots = 10) {
  std::vector<NamedConfig> cells;
  for (const sched::PolicyKind policy :
       {sched::PolicyKind::kFcfsShare, sched::PolicyKind::kRoundRobin}) {
    NamedConfig cell;
    cell.label = sched::to_string(policy);
    cell.config.grid =
        grid::GridConfig::preset(grid::Heterogeneity::kHet, grid::AvailabilityLevel::kLow);
    cell.config.workload = sim::make_paper_workload(cell.config.grid, 25000.0,
                                                    workload::Intensity::kLow, num_bots);
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

/// Runs `cells` journaled at `journal_path` (which already holds `prefix`
/// bytes of `reference_journal`, a cut killed run), and checks the resumed
/// run against the uninterrupted one: bitwise results, the uninterrupted
/// journal bytes, and `recovered` replications folded from the file.
void expect_resume_matches(const std::vector<NamedConfig>& cells, RunOptions options,
                           const std::vector<CellResult>& reference,
                           const std::vector<std::uint8_t>& reference_journal,
                           const std::string& journal_path, std::uintmax_t prefix,
                           std::uint64_t recovered) {
  {
    std::ofstream out(journal_path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(reference_journal.data()),
              static_cast<std::streamsize>(prefix));
  }
  options.journal_path = journal_path;
  ExperimentRunner resumed(options);
  expect_cells_bitwise(resumed.run(cells), reference);
  EXPECT_EQ(resumed.exec_stats().recovered, recovered);
  EXPECT_EQ(file_bytes(journal_path), reference_journal);
}

TEST(CampaignJournal, AppendRecoverRoundTripIsBitwise) {
  JournalPath file("roundtrip");
  constexpr std::uint64_t kSignature = 0xfeedbeefcafe1234ULL;
  {
    CampaignJournal journal(file.path, kSignature);
    EXPECT_TRUE(journal.recovered().empty());
    journal.append(0, 0, make_summary(1));
    journal.append(1, 0, make_summary(2));
    journal.append(0, 1, make_summary(3));
    journal.sync();
    EXPECT_EQ(journal.appended(), 3u);
  }
  CampaignJournal reopened(file.path, kSignature);
  ASSERT_EQ(reopened.recovered().size(), 3u);
  EXPECT_EQ(reopened.appended(), 0u);  // recovered records don't count as appends
  const auto& records = reopened.recovered();
  EXPECT_EQ(records[0].cell, 0u);
  EXPECT_EQ(records[0].replication, 0u);
  EXPECT_EQ(records[1].cell, 1u);
  EXPECT_EQ(records[1].replication, 0u);
  EXPECT_EQ(records[2].cell, 0u);
  EXPECT_EQ(records[2].replication, 1u);
  expect_summary_bitwise(records[0].summary, make_summary(1));
  expect_summary_bitwise(records[1].summary, make_summary(2));
  expect_summary_bitwise(records[2].summary, make_summary(3));

  // Appends after recovery extend the same file.
  reopened.append(1, 1, make_summary(4));
  reopened.sync();
  CampaignJournal again(file.path, kSignature);
  ASSERT_EQ(again.recovered().size(), 4u);
  expect_summary_bitwise(again.recovered()[3].summary, make_summary(4));
}

TEST(CampaignJournal, TruncationAtEveryRecordBoundaryRecoversThePrefix) {
  JournalPath file("boundaries");
  JournalPath cut("boundaries_cut");
  constexpr std::uint64_t kSignature = 77;
  {
    CampaignJournal journal(file.path, kSignature);
    for (std::uint32_t r = 0; r < 4; ++r) journal.append(r % 2, r / 2, make_summary(r));
    journal.sync();
  }
  const std::vector<std::uintmax_t> boundaries = record_boundaries(file.path);
  ASSERT_EQ(boundaries.size(), 5u);  // header end + 4 record ends

  for (std::size_t k = 0; k < boundaries.size(); ++k) {
    SCOPED_TRACE(k);
    // Exactly at the boundary: the first k records survive, nothing is lost.
    copy_prefix(file.path, cut.path, boundaries[k]);
    {
      CampaignJournal journal(cut.path, kSignature);
      ASSERT_EQ(journal.recovered().size(), k);
      for (std::size_t i = 0; i < k; ++i) {
        expect_summary_bitwise(journal.recovered()[i].summary,
                               make_summary(static_cast<std::uint64_t>(i)));
      }
    }
    EXPECT_EQ(std::filesystem::file_size(cut.path), boundaries[k]);

    // Mid-record cuts (a kill mid-append): the torn tail is dropped AND
    // physically truncated, so the next append lands on a clean boundary.
    if (k + 1 >= boundaries.size()) continue;
    for (const std::uintmax_t offset :
         {std::uintmax_t{1}, std::uintmax_t{23}, boundaries[k + 1] - boundaries[k] - 1}) {
      SCOPED_TRACE(offset);
      copy_prefix(file.path, cut.path, boundaries[k] + offset);
      {
        CampaignJournal journal(cut.path, kSignature);
        EXPECT_EQ(journal.recovered().size(), k);
      }
      EXPECT_EQ(std::filesystem::file_size(cut.path), boundaries[k]);
    }
  }
}

TEST(CampaignJournal, CorruptRecordDropsItAndItsSuffix) {
  JournalPath file("corrupt");
  constexpr std::uint64_t kSignature = 88;
  {
    CampaignJournal journal(file.path, kSignature);
    for (std::uint32_t r = 0; r < 3; ++r) journal.append(0, r, make_summary(r));
    journal.sync();
  }
  const std::vector<std::uintmax_t> boundaries = record_boundaries(file.path);
  // Flip a byte inside record 1's payload: records 0 survives, 1 fails its
  // checksum, and 2 — though intact — is unreachable past the corruption.
  {
    std::fstream f(file.path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(boundaries[1] + 30));
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(-1, std::ios::cur);
    byte = static_cast<char>(byte ^ 0xff);
    f.write(&byte, 1);
  }
  CampaignJournal journal(file.path, kSignature);
  ASSERT_EQ(journal.recovered().size(), 1u);
  expect_summary_bitwise(journal.recovered()[0].summary, make_summary(0));
  EXPECT_EQ(std::filesystem::file_size(file.path), boundaries[1]);
}

TEST(CampaignJournal, SignatureMismatchRestartsTheFile) {
  JournalPath file("signature");
  {
    CampaignJournal journal(file.path, 1);
    journal.append(0, 0, make_summary(9));
    journal.sync();
  }
  // A different campaign must not fold the old records.
  {
    CampaignJournal journal(file.path, 2);
    EXPECT_TRUE(journal.recovered().empty());
    journal.append(5, 6, make_summary(10));
    journal.sync();
  }
  // The restart rewrote the header: signature 2 now owns the file...
  {
    CampaignJournal journal(file.path, 2);
    ASSERT_EQ(journal.recovered().size(), 1u);
    EXPECT_EQ(journal.recovered()[0].cell, 5u);
  }
  // ...and signature 1's records are gone for good.
  CampaignJournal journal(file.path, 1);
  EXPECT_TRUE(journal.recovered().empty());
}

TEST(CampaignJournal, ForeignFilesAreRefusedNotOverwritten) {
  JournalPath file("foreign");
  {
    std::ofstream out(file.path, std::ios::binary);
    const char garbage[] = "NOTA journal at all, some other file's bytes....";
    out.write(garbage, sizeof garbage);
  }
  EXPECT_THROW(CampaignJournal(file.path, 3), std::runtime_error);

  // Right magic, future format version: also not ours to rewrite.
  {
    std::ofstream out(file.path, std::ios::binary | std::ios::trunc);
    const char magic[4] = {'D', 'G', 'J', 'L'};
    const std::uint32_t version = CampaignJournal::kFormatVersion + 1;
    const std::uint64_t signature = 3;
    out.write(magic, sizeof magic);
    out.write(reinterpret_cast<const char*>(&version), sizeof version);
    out.write(reinterpret_cast<const char*>(&signature), sizeof signature);
  }
  EXPECT_THROW(CampaignJournal(file.path, 3), std::runtime_error);
}

TEST(CampaignJournal, CampaignSignatureBindsCellsAndPrecisionOptions) {
  const auto cells_of = [](std::initializer_list<const char*> labels) {
    std::vector<NamedConfig> cells;
    for (const char* label : labels) cells.push_back(NamedConfig{label, {}});
    return cells;
  };
  const std::vector<NamedConfig> cells = cells_of({"alpha", "beta"});
  RunOptions options;
  const std::uint64_t reference = CampaignJournal::campaign_signature(cells, options);

  // Deterministic for identical inputs.
  EXPECT_EQ(CampaignJournal::campaign_signature(cells_of({"alpha", "beta"}), options),
            reference);
  // Same labels, different configs: labels need not name every parameter a
  // driver varies, so the configs themselves bind the journal too...
  {
    std::vector<NamedConfig> resized = cells;
    resized[1].config.workload.num_bots += 8;
    EXPECT_NE(CampaignJournal::campaign_signature(resized, options), reference);
    std::vector<NamedConfig> stressed = cells;
    stressed[0].config.adversary.enabled = true;
    EXPECT_NE(CampaignJournal::campaign_signature(stressed, options), reference);
  }
  // ...except the seed, which the runner overwrites per replication.
  {
    std::vector<NamedConfig> reseeded = cells;
    reseeded[0].config.seed += 1;
    EXPECT_EQ(CampaignJournal::campaign_signature(reseeded, options), reference);
  }
  // Any cell-list change is a different campaign.
  EXPECT_NE(CampaignJournal::campaign_signature(cells_of({"alpha"}), options), reference);
  EXPECT_NE(CampaignJournal::campaign_signature(cells_of({"alpha", "gamma"}), options),
            reference);
  EXPECT_NE(CampaignJournal::campaign_signature(cells_of({"beta", "alpha"}), options),
            reference);
  // So is any precision-relevant option change.
  {
    RunOptions o = options;
    o.base_seed += 1;
    EXPECT_NE(CampaignJournal::campaign_signature(cells, o), reference);
  }
  {
    RunOptions o = options;
    o.min_replications += 1;
    EXPECT_NE(CampaignJournal::campaign_signature(cells, o), reference);
  }
  {
    RunOptions o = options;
    o.max_replications += 1;
    EXPECT_NE(CampaignJournal::campaign_signature(cells, o), reference);
  }
  {
    RunOptions o = options;
    o.ci_level = 0.99;
    EXPECT_NE(CampaignJournal::campaign_signature(cells, o), reference);
  }
  {
    RunOptions o = options;
    o.target_relative_error = 0.01;
    EXPECT_NE(CampaignJournal::campaign_signature(cells, o), reference);
  }
  // Execution-shape options deliberately do NOT change the signature: a
  // resumed campaign may use a different worker count or batch size.
  {
    RunOptions o = options;
    o.threads = 7;
    o.batch_size = 2;
    o.reuse_workspaces = false;
    o.pipeline = false;
    o.speculate = 4;
    o.journal_path = "elsewhere.journal";
    EXPECT_EQ(CampaignJournal::campaign_signature(cells, o), reference);
  }
}

TEST(CampaignJournal, ResumeFromEveryRecordBoundaryIsByteIdentical) {
  // Complete the campaign once (journaled), then for every prefix of the
  // journal — every record boundary, i.e. every point a kill can leave
  // durable — restart the campaign from that prefix, under another thread
  // count.
  JournalPath file("runner_resume");
  JournalPath resume("runner_resume_cut");
  const std::vector<NamedConfig> cells = tiny_cells();
  RunOptions options = tiny_options();
  options.batch_size = 1;
  options.threads = 1;
  options.journal_path = file.path;
  ExperimentRunner runner(options);
  const std::vector<CellResult> reference = runner.run(cells);
  EXPECT_EQ(runner.exec_stats().recovered, 0u);
  const std::vector<std::uint8_t> reference_journal = file_bytes(file.path);

  const std::vector<std::uintmax_t> boundaries = record_boundaries(file.path);
  ASSERT_EQ(boundaries.size(), 7u);  // header + 2 cells x 3 replications
  options.threads = 2;
  for (std::size_t k = 0; k < boundaries.size(); ++k) {
    SCOPED_TRACE(k);
    expect_resume_matches(cells, options, reference, reference_journal, resume.path,
                          boundaries[k], k);
  }
}

TEST(CampaignJournal, ResumeFromTornTailIsByteIdentical) {
  // A kill can land inside a write(): the torn record is dropped and
  // rerun, and the resumed journal still ends byte-identical.
  JournalPath file("runner_torn");
  JournalPath resume("runner_torn_cut");
  const std::vector<NamedConfig> cells = tiny_cells();
  RunOptions options = tiny_options();
  options.journal_path = file.path;
  const std::vector<CellResult> reference = ExperimentRunner(options).run(cells);
  const std::vector<std::uint8_t> reference_journal = file_bytes(file.path);

  const std::vector<std::uintmax_t> boundaries = record_boundaries(file.path);
  ASSERT_EQ(boundaries.size(), 7u);
  for (const std::size_t k : {std::size_t{0}, std::size_t{3}, std::size_t{5}}) {
    for (const std::uintmax_t offset :
         {std::uintmax_t{1}, std::uintmax_t{23}, (boundaries[k + 1] - boundaries[k]) / 2}) {
      SCOPED_TRACE(testing::Message() << "record " << k << " + " << offset << " bytes");
      expect_resume_matches(cells, options, reference, reference_journal, resume.path,
                            boundaries[k] + offset, k);
    }
  }
}

TEST(CampaignJournal, SpeculativeResumeFromEveryBoundaryIsByteIdentical) {
  // Kill/resume mid-pipeline with a deep speculation window: speculative
  // in-flight work at the kill point must neither leak into the resumed
  // fold nor change the canonical journal bytes.
  JournalPath file("runner_spec");
  JournalPath resume("runner_spec_cut");
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
  options.threads = 1;
  options.journal_path = file.path;
  const std::vector<CellResult> reference = ExperimentRunner(options).run(cells);
  const std::vector<std::uint8_t> reference_journal = file_bytes(file.path);

  const std::vector<std::uintmax_t> boundaries = record_boundaries(file.path);
  ASSERT_GE(boundaries.size(), 5u);  // header + >= 2 cells x 2 replications
  options.threads = 4;
  for (std::size_t k = 0; k < boundaries.size(); ++k) {
    SCOPED_TRACE(k);
    expect_resume_matches(cells, options, reference, reference_journal, resume.path,
                          boundaries[k], k);
  }
}

TEST(CampaignJournal, JournaledRunBitIdenticalToUnjournaledAcrossThreadCounts) {
  // Byte-identical campaign output at 1, 2 and 4 threads with the journal
  // on (summary serialization + journal append on every delivery) against
  // the unjournaled runner, each thread count writing its own file.
  JournalPath file("runner_threads");
  const std::vector<NamedConfig> cells = tiny_cells();
  const RunOptions options = tiny_options();
  const std::vector<CellResult> reference = ExperimentRunner(options).run(cells);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE(threads);
    RunOptions journaled = options;
    journaled.threads = threads;
    journaled.journal_path = file.path;
    std::filesystem::remove(file.path);
    ExperimentRunner runner(journaled);
    expect_cells_bitwise(runner.run(cells), reference);
    EXPECT_EQ(runner.exec_stats().recovered, 0u);
    EXPECT_EQ(record_boundaries(file.path).size(), 7u);  // header + 2 cells x 3 replications
  }
}

TEST(CampaignJournal, JournalBytesIdenticalAcrossExecutionShapes) {
  // The journal is written in the canonical order of exp/pipeline.hpp
  // regardless of how the campaign executed, so the file is byte-identical
  // across thread counts and barrier/pipelined/speculative/batched
  // scheduling, and journaling never changes the results.
  JournalPath file("runner_shapes");
  const std::vector<NamedConfig> cells = tiny_cells();
  RunOptions base = tiny_options();
  base.min_replications = 2;
  base.max_replications = 4;
  base.target_relative_error = 1e-4;  // unreachable: multi-round structure
  const std::vector<CellResult> reference = ExperimentRunner(base).run(cells);

  struct Shape {
    const char* name;
    bool pipeline;
    std::size_t speculate;
    std::size_t batch;
  };
  const Shape shapes[] = {
      {"pipelined", true, 1, 0}, {"barrier", false, 0, 0}, {"spec0", true, 0, 0},
      {"spec4", true, 4, 0},     {"batch1", true, 1, 1},
  };
  std::vector<std::uint8_t> reference_journal;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    for (const Shape& shape : shapes) {
      SCOPED_TRACE(testing::Message() << shape.name << " @" << threads << " threads");
      RunOptions options = base;
      options.threads = threads;
      options.pipeline = shape.pipeline;
      options.speculate = shape.speculate;
      options.batch_size = shape.batch;
      options.journal_path = file.path;
      std::filesystem::remove(file.path);
      ExperimentRunner runner(options);
      expect_cells_bitwise(runner.run(cells), reference);
      EXPECT_EQ(runner.exec_stats().recovered, 0u);
      const std::vector<std::uint8_t> journal = file_bytes(file.path);
      EXPECT_GT(journal.size(), 16u);
      if (reference_journal.empty()) {
        reference_journal = journal;
      } else {
        EXPECT_EQ(journal, reference_journal);
      }
    }
  }

  // Cross-shape resume: the journal cut at a mid-campaign record boundary
  // and resumed by a barrier-mode run — the recovered prefix folds in, the
  // remainder is dispatched barrier-style, and both the results and the
  // final journal bytes still match.
  std::filesystem::remove(file.path);
  {
    std::ofstream out(file.path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(reference_journal.data()),
              static_cast<std::streamsize>(reference_journal.size()));
  }
  const std::vector<std::uintmax_t> boundaries = record_boundaries(file.path);
  ASSERT_GE(boundaries.size(), 4u);
  const std::size_t k = boundaries.size() / 2;
  RunOptions barrier = base;
  barrier.pipeline = false;
  barrier.speculate = 0;
  barrier.threads = 2;
  expect_resume_matches(cells, barrier, reference, reference_journal, file.path, boundaries[k],
                        k);
}

TEST(CampaignJournal, ResumingADifferentCampaignRestartsTheJournal) {
  // A run killed under one bag count and resumed under another has the same
  // cell labels; the config-bound signature must restart the journal (with
  // a warning) instead of folding the old bags' summaries into new cells.
  JournalPath file("runner_foreign");
  JournalPath fresh("runner_foreign_fresh");
  RunOptions options = tiny_options();
  options.journal_path = file.path;
  (void)ExperimentRunner(options).run(tiny_cells(8));
  ASSERT_GT(record_boundaries(file.path).size(), 1u);

  const std::vector<NamedConfig> cells = tiny_cells(12);
  ASSERT_EQ(cells[0].label, tiny_cells(8)[0].label);
  RunOptions plain = tiny_options();
  const std::vector<CellResult> reference = ExperimentRunner(plain).run(cells);
  plain.journal_path = fresh.path;
  (void)ExperimentRunner(plain).run(cells);

  ExperimentRunner resumed(options);
  expect_cells_bitwise(resumed.run(cells), reference);
  EXPECT_EQ(resumed.exec_stats().recovered, 0u);
  EXPECT_EQ(file_bytes(file.path), file_bytes(fresh.path));
}

}  // namespace
}  // namespace dg::exp
