#include "exp/pipeline.hpp"

#include <algorithm>
#include <utility>

#include "exp/journal.hpp"

namespace dg::exp {

PipelineState::PipelineState(const RunOptions& options, std::vector<CellResult>& results,
                             CampaignJournal* journal)
    : options_(options),
      results_(results),
      journal_(journal),
      cells_(results.size()),
      cost_(results.size(), 0.0) {
  for (std::size_t c = 0; c < results_.size(); ++c) {
    cost_[c] = expected_cost(results_[c].config);
  }
}

void PipelineState::mark_recovered(std::size_t cell, std::size_t replication) {
  recovered_set_.emplace(cell, replication);
}

void PipelineState::start() {
  if (options_.min_replications == 0) {
    // Zero-minimum campaigns run nothing — the historical round loop never
    // built a round 0 job.
    for (Cell& cell : cells_) {
      cell.stopped = true;
      cell.final_reps = 0;
    }
    stopped_cells_ = cells_.size();
    pump_journal();
    return;
  }
  if (options_.pipeline) {
    for (std::size_t c = 0; c < cells_.size(); ++c) extend(c);
  } else {
    maybe_refill();
  }
}

void PipelineState::push_range(std::size_t c, std::size_t to) {
  Cell& cell = cells_[c];
  for (std::size_t r = cell.allowed; r < to; ++r) {
    if (is_recovered(c, r)) continue;  // delivered from the journal, not dispatched
    ready_.push(ReadyEntry{cost_[c], r, c, seq_++});
    ++launched_;
    ++round_size_;
  }
  cell.allowed = std::max(cell.allowed, to);
}

void PipelineState::extend(std::size_t c) {
  Cell& cell = cells_[c];
  if (cell.stopped) return;
  // The justified frontier: the replications the precision loop would run
  // regardless of speculation. The cap is applied to the speculative window
  // only — a min_replications above the cap still launches (and folds) the
  // minimum, exactly like the historical round 0.
  const std::size_t justified =
      cell.committed < options_.min_replications ? options_.min_replications : cell.committed + 1;
  const std::size_t target =
      std::max(justified, std::min(justified + options_.speculate, options_.max_replications));
  push_range(c, target);
}

void PipelineState::maybe_refill() {
  if (options_.pipeline) return;
  // Barrier shape: new jobs appear only when every handed-out job has been
  // delivered and the queue is drained — the historical round boundary. Each
  // refill grants one replication per live cell (round 0: the minimum); a
  // refill fully covered by journal recovery yields no dispatchable job and
  // simply advances to the next round.
  prune_stale();
  while (in_flight_ == 0 && ready_.empty() && !finished()) {
    round_size_ = 0;
    for (std::size_t c = 0; c < cells_.size(); ++c) {
      Cell& cell = cells_[c];
      if (cell.stopped) continue;
      const std::size_t to =
          first_round_ ? options_.min_replications : std::max(cell.allowed, cell.committed) + 1;
      push_range(c, to);
    }
    first_round_ = false;
    prune_stale();
  }
}

void PipelineState::prune_stale() {
  while (!ready_.empty()) {
    const ReadyEntry& top = ready_.top();
    const Cell& cell = cells_[top.cell];
    const bool stale = (cell.stopped && top.replication >= cell.final_reps) ||
                       top.replication < cell.committed;
    if (!stale) return;
    ready_.pop();
  }
}

bool PipelineState::has_ready() {
  prune_stale();
  return !ready_.empty();
}

std::vector<PipelineJob> PipelineState::pop_chunk(std::size_t target) {
  std::vector<PipelineJob> out;
  prune_stale();
  while (out.size() < target && !ready_.empty()) {
    const ReadyEntry top = ready_.top();
    ready_.pop();
    out.push_back(PipelineJob{top.cell, top.replication});
    ++in_flight_;
    prune_stale();
  }
  return out;
}

void PipelineState::decide(std::size_t c) {
  Cell& cell = cells_[c];
  if (cell.committed < options_.min_replications) return;
  CellResult& result = results_[c];
  // The historical per-round continuation rule, evaluated at the same
  // per-cell commit counts the round barrier evaluated it at. Saturated
  // cells never converge (censored means); stop at the minimum.
  if (result.saturated() || result.turnaround.precise_enough() ||
      cell.committed >= options_.max_replications) {
    cell.stopped = true;
    cell.final_reps = cell.committed;
    ++stopped_cells_;
    // Speculative deliveries at/after the stop point will never fold.
    for (auto it = cell.buffer.lower_bound(cell.final_reps); it != cell.buffer.end();) {
      ++discarded_;
      it = cell.buffer.erase(it);
    }
  }
}

void PipelineState::cascade(std::size_t c) {
  Cell& cell = cells_[c];
  while (!cell.stopped) {
    auto it = cell.buffer.find(cell.committed);
    if (it == cell.buffer.end()) break;
    fold(results_[c], it->second);
    // Journal mode keeps the summary buffered until the canonical cursor
    // emits (or skips) its record.
    if (journal_ == nullptr) cell.buffer.erase(it);
    ++cell.committed;
    ++committed_;
    decide(c);
    if (!cell.stopped && options_.pipeline) extend(c);
  }
}

void PipelineState::deliver(std::size_t cell, std::size_t replication,
                            ReplicationSummary&& summary) {
  deliver_impl(cell, replication, std::move(summary), /*from_recovery=*/false);
}

void PipelineState::deliver_recovered(std::size_t cell, std::size_t replication,
                                      ReplicationSummary&& summary) {
  deliver_impl(cell, replication, std::move(summary), /*from_recovery=*/true);
}

void PipelineState::deliver_impl(std::size_t cell, std::size_t replication,
                                 ReplicationSummary&& summary, bool from_recovery) {
  if (!from_recovery) --in_flight_;
  Cell& state = cells_[cell];
  if ((state.stopped && replication >= state.final_reps) || replication < state.committed) {
    ++discarded_;
    maybe_refill();
    return;
  }
  state.buffer.emplace(replication, std::move(summary));
  if (from_recovery) ++recovered_;
  cascade(cell);
  pump_journal();
  maybe_refill();
}

void PipelineState::pump_journal() {
  if (journal_ == nullptr || journal_done_) return;
  for (;;) {
    // Cursor position -> the canonical record (c, r) it waits on.
    if (cursor_round_ == 0 &&
        (options_.min_replications == 0 || cursor_cell_ == cells_.size())) {
      cursor_round_ = 1;
      cursor_cell_ = 0;
      cursor_rep_ = 0;
    }
    if (cursor_round_ > 0) {
      if (cursor_cell_ == cells_.size()) {
        ++cursor_round_;
        cursor_cell_ = 0;
      }
      if (cursor_cell_ == 0) {
        // Round r >= 1 emits replication min+r-1 for cells that reached it.
        // Once every cell has stopped below the current round's replication
        // index the canonical sequence is exhausted.
        if (stopped_cells_ != cells_.size()) {
          // Unstopped cells always eventually block or emit below.
        } else {
          const std::size_t r = options_.min_replications + cursor_round_ - 1;
          bool any = false;
          for (const Cell& cell : cells_) {
            if (cell.final_reps > r) {
              any = true;
              break;
            }
          }
          if (!any) {
            journal_done_ = true;
            return;
          }
        }
      }
    }
    const std::size_t c = cursor_cell_;
    const std::size_t r =
        cursor_round_ == 0 ? cursor_rep_ : options_.min_replications + cursor_round_ - 1;
    Cell& cell = cells_[c];
    const bool skipped = cell.stopped && cell.final_reps <= r;
    if (!skipped) {
      if (cell.committed <= r) return;  // blocked: predecessor record pending
      auto it = cell.buffer.find(r);
      if (it != cell.buffer.end()) {
        if (!is_recovered(c, r)) {
          journal_->append(static_cast<std::uint32_t>(c), static_cast<std::uint32_t>(r),
                           it->second);
        }
        cell.buffer.erase(it);
      }
    }
    if (cursor_round_ == 0) {
      if (++cursor_rep_ == options_.min_replications) {
        cursor_rep_ = 0;
        ++cursor_cell_;
      }
    } else {
      ++cursor_cell_;
    }
  }
}

}  // namespace dg::exp
