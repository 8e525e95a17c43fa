// Barrier-free campaign scheduling: continuous hand-out + ordered commit.
//
// The runner used to execute campaigns in barrier-synchronized rounds:
// build every job of a round, run them all, fold after the barrier, decide
// which cells continue. Every round's wall clock was its slowest straggler.
// PipelineState replaces the round structure with a single state machine
// that ExperimentRunner's workers share:
//
//  * A ready queue of launchable (cell, replication) jobs, ordered the way
//    the round hand-out used to be: largest expected cost first, FIFO ties.
//  * A per-cell reorder buffer: completed summaries may arrive in any order,
//    but each is folded only when every lower replication of ITS cell has
//    committed. A CellResult's accumulators see exactly the sequential
//    cell-major / ascending-replication fold sequence, so every mean, CI,
//    and sketch stays bitwise-equal to the historical barrier fold — cells
//    are independent accumulators, so cross-cell commit interleaving cannot
//    change bits.
//  * The precision decision (saturated / precise_enough / cap) runs at each
//    per-cell commit k >= min_replications — the same k-sequence the round
//    barrier evaluated, so replication counts are reproduced exactly.
//  * Speculation: common-random-numbers seeding makes replication (c, k)
//    deterministic regardless of execution shape, so up to
//    RunOptions::speculate replications beyond the justified frontier are
//    launched eagerly; a summary arriving for a cell that already stopped is
//    discarded, and a discard cannot perturb results because it never folds.
//  * RunOptions::pipeline = false keeps the historical barrier shape (jobs
//    are extended only when the queue drains and nothing is in flight) for
//    A/B comparison — results are bit-identical either way.
//
// Journaling: when a CampaignJournal is attached, records are appended in a
// canonical round-structured order — round 0 is cell-major x ascending
// replication over the first min_replications, round t >= 1 is replication
// min+t-1 for every cell whose final count exceeds it — which is exactly the
// order the historical barrier runner produced. A cursor walks that order
// and emits each record the moment it is available, so journal bytes are
// identical across barrier/pipelined execution, any speculation window, and
// any thread count; a resumed journal is always a canonical prefix.
#pragma once

#include <cstdint>
#include <map>
#include <queue>
#include <set>
#include <vector>

#include "exp/replication_summary.hpp"
#include "exp/runner.hpp"

namespace dg::exp {

class CampaignJournal;

struct PipelineJob {
  std::size_t cell = 0;
  std::size_t replication = 0;
};

/// Not thread-safe: ExperimentRunner serializes access under its own mutex.
class PipelineState {
 public:
  /// `results` must outlive the state and already hold one initialized
  /// CellResult per cell. `journal` may be null (no journaling).
  PipelineState(const RunOptions& options, std::vector<CellResult>& results,
                CampaignJournal* journal);

  /// Registers a journal-recovered (cell, replication) BEFORE start(): the
  /// job is never dispatched and its record is never re-appended. Deliver
  /// the recovered summary itself via deliver_recovered() after start().
  void mark_recovered(std::size_t cell, std::size_t replication);

  /// Seeds the initial launch window. Call exactly once, after every
  /// mark_recovered().
  void start();

  /// Feeds one recovered summary through the ordered-commit path (call in
  /// journal-file order — the canonical order, so commits cascade eagerly).
  void deliver_recovered(std::size_t cell, std::size_t replication, ReplicationSummary&& summary);

  /// True when a launchable job is queued (prunes stale entries first).
  [[nodiscard]] bool has_ready();

  /// Pops up to `target` launchable jobs, largest expected cost first.
  [[nodiscard]] std::vector<PipelineJob> pop_chunk(std::size_t target);

  /// Delivers one completed summary: discarded if the cell already stopped
  /// below it, otherwise buffered and committed (folded) as soon as its
  /// per-cell predecessors have committed, cascading decisions / window
  /// extensions / journal emission.
  void deliver(std::size_t cell, std::size_t replication, ReplicationSummary&& summary);

  /// Every cell stopped (precise, saturated, or capped) with all committed.
  [[nodiscard]] bool finished() const noexcept { return stopped_cells_ == cells_.size(); }

  /// Jobs pushed by the latest barrier-mode refill (batch sizing).
  [[nodiscard]] std::size_t round_size() const noexcept { return round_size_; }

  [[nodiscard]] std::uint64_t launched() const noexcept { return launched_; }
  [[nodiscard]] std::uint64_t committed() const noexcept { return committed_; }
  [[nodiscard]] std::uint64_t discarded() const noexcept { return discarded_; }
  [[nodiscard]] std::uint64_t recovered() const noexcept { return recovered_; }

 private:
  struct ReadyEntry {
    double cost = 0.0;
    std::size_t replication = 0;
    std::size_t cell = 0;
    std::uint64_t seq = 0;
  };
  /// Max-heap on expected cost, FIFO ties — the historical round order.
  struct ReadyOrder {
    bool operator()(const ReadyEntry& a, const ReadyEntry& b) const {
      if (a.cost != b.cost) return a.cost < b.cost;
      return a.seq > b.seq;
    }
  };
  struct Cell {
    std::size_t allowed = 0;    ///< replications pushed to the ready queue
    std::size_t committed = 0;  ///< replications folded
    std::size_t final_reps = 0;
    bool stopped = false;
    /// Reorder buffer: delivered-but-uncommitted summaries, plus (journal
    /// mode) committed summaries awaiting canonical-order emission.
    std::map<std::size_t, ReplicationSummary> buffer;
  };

  void push_range(std::size_t c, std::size_t to);
  void extend(std::size_t c);
  void decide(std::size_t c);
  void cascade(std::size_t c);
  void deliver_impl(std::size_t cell, std::size_t replication, ReplicationSummary&& summary,
                    bool from_recovery);
  void maybe_refill();
  void prune_stale();
  [[nodiscard]] bool is_recovered(std::size_t c, std::size_t r) const {
    return recovered_set_.count({c, r}) != 0;
  }
  void pump_journal();

  const RunOptions& options_;
  std::vector<CellResult>& results_;
  CampaignJournal* journal_;
  std::vector<Cell> cells_;
  std::vector<double> cost_;
  std::priority_queue<ReadyEntry, std::vector<ReadyEntry>, ReadyOrder> ready_;
  std::set<std::pair<std::size_t, std::size_t>> recovered_set_;
  std::size_t stopped_cells_ = 0;
  std::size_t in_flight_ = 0;
  std::size_t round_size_ = 0;
  bool first_round_ = true;
  std::uint64_t seq_ = 0;
  std::uint64_t launched_ = 0;
  std::uint64_t committed_ = 0;
  std::uint64_t discarded_ = 0;
  std::uint64_t recovered_ = 0;
  // Canonical journal cursor: (round, cell, rep-within-round-0).
  std::size_t cursor_round_ = 0;
  std::size_t cursor_cell_ = 0;
  std::size_t cursor_rep_ = 0;
  bool journal_done_ = false;
};

}  // namespace dg::exp
