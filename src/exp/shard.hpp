// Multi-process sharded campaign execution.
//
// ShardedRunner is ExperimentRunner's process-level sibling: it draws the
// same (cell, replication) jobs from the shared PipelineState
// (exp/pipeline.hpp), but instead of fanning them out over an in-process
// thread pool it forks N worker processes and hands out chunks of jobs over
// per-worker UNIX socket pairs. Each worker runs its jobs sequentially
// through a private SimulationWorkspace, sampling every replication's world
// live, reduces every replication to a ReplicationSummary, and ships
// the summaries back; the coordinator feeds them through the pipeline's
// ordered per-cell commit — the exact fold sequence of the threaded runner —
// so the merged CellResults are bit-identical to a single-process run for
// ANY worker count, chunk shape, speculation window, worker-death schedule,
// or kill/resume point. With RunOptions::pipeline on (the default), chunks
// are double-buffered per worker (a new chunk is assigned while the previous
// one runs) and chunk sizes shrink toward the campaign drain so the final
// stragglers are single replications; pipeline off reproduces the historical
// barrier rounds.
//
// Result transport: summaries carry multiple 768-bucket u64 quantile
// sketches — tens of KB each — so they travel through a per-worker
// shared-memory ring (util/shm_ring.hpp, created before fork) and the
// socketpair carries only small control messages; a summary that outgrows
// its slot falls back to inline bytes on the socket.
//
// Why processes at all: address-space isolation (one crashed replication
// loses a chunk, not the campaign — the coordinator re-queues it and forks
// a replacement worker) and the path past one process's allocator/thread
// scaling.
//
// Fault tolerance is layered:
//   worker death   — the coordinator detects EOF, reaps the child, re-queues
//                    the outstanding chunk, and respawns (bounded; a
//                    deterministically-crashing replication eventually
//                    surfaces as an error instead of a spin).
//   coordinator    — with a journal attached (exp/journal.hpp), every
//   death            completed replication is appended + fsync'd per chunk;
//                    a relaunched campaign folds the journal's records into
//                    its round slots and only dispatches what's missing.
//
// Coordinator threading: none. The coordinator is a single-threaded poll()
// loop, which keeps fork() safe (no locks can be held by a vanished thread)
// and the fold trivially ordered.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "exp/runner.hpp"

namespace dg::exp {

struct ShardOptions {
  /// Worker processes to fork; 0 behaves as 1. Workers run their chunks
  /// sequentially — with P workers the natural comparison is the threaded
  /// runner at P threads.
  std::size_t procs = 1;
  /// Completion-journal path; empty = no journal (no resume).
  std::string journal_path;
  /// fsync the journal after every received chunk (the durability the resume
  /// contract assumes). Off trades crash-window durability for speed.
  bool fsync_journal = true;

  // Failure-injection hooks for the kill/resume tests and the shard-smoke CI
  // job. Both default off.
  /// Coordinator _exits (simulating a kill -9) after this many journal
  /// appends; 0 = disabled.
  std::size_t abort_after_appends = 0;
  /// Worker index whose FIRST incarnation self-kills mid-chunk after
  /// `self_kill_jobs` replications (respawned replacements run normally).
  /// SIZE_MAX = disabled.
  std::size_t self_kill_worker = static_cast<std::size_t>(-1);
  std::size_t self_kill_jobs = 0;

  /// Reads DGSCHED_PROCS, DGSCHED_JOURNAL (path), DGSCHED_JOURNAL_FSYNC
  /// (0 disables), DGSCHED_SHARD_ABORT_AFTER (count), and
  /// DGSCHED_SHARD_SELF_KILL ("worker:jobs"). Same conventions as
  /// RunOptions::from_env.
  [[nodiscard]] static ShardOptions from_env(ShardOptions defaults);
  [[nodiscard]] static ShardOptions from_env() { return from_env(ShardOptions{}); }
};

class ShardedRunner {
 public:
  ShardedRunner(RunOptions options, ShardOptions shard)
      : options_(options), shard_(std::move(shard)) {}

  /// Runs every cell to its precision target, exactly like
  /// ExperimentRunner::run and bit-identical to it. Forks workers on entry,
  /// shuts them down (collecting their lane stats) before returning. Not
  /// re-entrant; must be called from a process where forking is safe (the
  /// coordinator itself creates no threads).
  [[nodiscard]] std::vector<CellResult> run(const std::vector<NamedConfig>& cells);

  [[nodiscard]] const RunOptions& options() const noexcept { return options_; }
  [[nodiscard]] const ShardOptions& shard_options() const noexcept { return shard_; }

  /// Replications served from the journal instead of dispatched, last run().
  [[nodiscard]] std::uint64_t recovered_replications() const noexcept { return recovered_; }

  /// Execution-shape accounting for the most recent run(): one lane per
  /// worker process (busy self-reported over the socket; stall derived as
  /// wall - busy), plus the pipeline's speculation counters.
  [[nodiscard]] const ExecutionStats& exec_stats() const noexcept { return exec_stats_; }

 private:
  RunOptions options_;
  ShardOptions shard_;
  std::uint64_t recovered_ = 0;
  ExecutionStats exec_stats_;
};

}  // namespace dg::exp
