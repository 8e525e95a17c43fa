// Append-only completion journal: a killed campaign resumes, not recomputes.
//
// ExperimentRunner (exp/runner.hpp, RunOptions::journal_path) appends one
// record per committed replication — (cell, replication, serialized
// ReplicationSummary) — in the canonical order of exp/pipeline.hpp, and the
// delivering worker fsyncs once per delivery, outside the runner mutex. On
// reopen, the journal scans the longest valid prefix (every record
// checksummed), truncates any torn tail left by a kill mid-append, and hands
// the recovered records back; the runner folds them through the ordered
// commit instead of dispatching those jobs again. Because the fold order is
// fixed regardless of where a summary came from (a worker or the journal),
// a resumed campaign's output is byte-identical to an uninterrupted run.
//
// File layout:
//   header: magic "DGJL" + format version (u32) + campaign signature (u64)
//   record: payload_size u32 | cell u32 | replication u32 | checksum u64
//           | payload (serialized ReplicationSummary)
// where checksum = fnv1a64 over (cell, replication, payload). The campaign
// signature hashes the cell count, each cell's label and config, and the
// precision-relevant RunOptions: a journal replayed against a *different*
// campaign is discarded (fresh start, with a warning) rather than folded
// into the wrong cells. A bad magic or version is an error — that file is
// not ours to overwrite.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/replication_summary.hpp"

namespace dg::exp {

struct NamedConfig;
struct RunOptions;

class CampaignJournal {
 public:
  static constexpr std::uint32_t kFormatVersion = 1;

  /// Identity hash binding a journal to one campaign: cell count, each
  /// cell's label and saved config text (sim::save_simulation_config, seed
  /// zeroed — the runner sets it per replication), base seed, replication
  /// bounds, CI level, and target relative error. Execution-shape options
  /// (threads, batch, pipeline, speculation, journal path) are left out, so
  /// a campaign can resume under a different shape.
  [[nodiscard]] static std::uint64_t campaign_signature(const std::vector<NamedConfig>& cells,
                                                       const RunOptions& options);

  struct Record {
    std::uint32_t cell = 0;
    std::uint32_t replication = 0;
    ReplicationSummary summary;
  };

  /// Opens `path` for appending, creating it (with a fresh header) when
  /// absent. An existing file is scanned: its valid record prefix becomes
  /// recovered() and a torn tail is truncated away. A signature mismatch
  /// logs a warning and restarts the file; a magic/version mismatch throws
  /// std::runtime_error (the file is not a journal of this format).
  CampaignJournal(std::string path, std::uint64_t signature);

  CampaignJournal(const CampaignJournal&) = delete;
  CampaignJournal& operator=(const CampaignJournal&) = delete;
  ~CampaignJournal();

  /// Records recovered from the file at open (empty for a fresh journal).
  [[nodiscard]] const std::vector<Record>& recovered() const noexcept { return recovered_; }

  /// Appends one completed replication. Buffered by the OS until sync().
  void append(std::uint32_t cell, std::uint32_t replication, const ReplicationSummary& summary);

  /// fsync — records appended before a sync survive a kill.
  void sync();

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  /// Records appended through this handle (excludes recovered ones).
  [[nodiscard]] std::uint64_t appended() const noexcept { return appended_; }

 private:
  std::string path_;
  int fd_ = -1;
  std::vector<Record> recovered_;
  std::uint64_t appended_ = 0;
  std::vector<std::uint8_t> scratch_;  ///< Reused append buffer.
};

}  // namespace dg::exp
