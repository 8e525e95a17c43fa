#include "exp/shard.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exp/journal.hpp"
#include "exp/pipeline.hpp"
#include "exp/replication_summary.hpp"
#include "rng/splitmix64.hpp"
#include "sim/workspace.hpp"
#include "util/binary_io.hpp"
#include "util/logging.hpp"
#include "util/shm_ring.hpp"

namespace dg::exp {

namespace {

// ---------------------------------------------------------------------------
// Shard protocol: framed control messages over a per-worker SOCK_STREAM
// socketpair; bulk summary payloads through a per-worker shared-memory ring
// (util/shm_ring.hpp) created before fork. Same-machine siblings of one
// build, so payloads are host-endian PODs (util/binary_io.hpp); the frame
// carries type + payload size.
//
//   kAssign     C->W  chunk_id u64 | count u32
//                     | count x (cell u32, rep u32, slot u32)
//                     slot = ShmRing::kNoSlot means "reply inline".
//   kChunkDone  W->C  chunk_id u64 | count u32
//                     | count x (cell u32, rep u32, size u32 [, size bytes])
//                     size == 0 means the summary is in the assigned ring
//                     slot; size > 0 carries it inline (no slot was
//                     assigned, or the summary outgrew the slot).
//   kShutdown   C->W  (empty) — worker replies kStats and exits
//   kStats      W->C  busy_ns u64 | jobs u64
// ---------------------------------------------------------------------------

enum MsgType : std::uint32_t {
  kAssign = 1,
  kChunkDone = 2,
  kShutdown = 3,
  kStats = 4,
};

constexpr std::size_t kStatsWords = 2;
/// Upper bound on adaptive chunk size (jobs per kAssign); the ring is sized
/// so two chunks of this size always fit.
constexpr std::size_t kChunkCap = 32;

struct MsgHeader {
  std::uint32_t type = 0;
  std::uint32_t size = 0;  ///< Payload bytes following the header.
};

/// Sends a framed message; false on a broken pipe (peer died). MSG_NOSIGNAL
/// turns SIGPIPE into an error return — the coordinator must not die with a
/// worker.
[[nodiscard]] bool send_msg(int fd, std::uint32_t type, const std::uint8_t* payload,
                            std::size_t size) {
  MsgHeader header{type, static_cast<std::uint32_t>(size)};
  const auto send_all = [fd](const void* data, std::size_t len) {
    const auto* bytes = static_cast<const std::uint8_t*>(data);
    std::size_t sent = 0;
    while (sent < len) {
      const ::ssize_t n = ::send(fd, bytes + sent, len - sent, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      sent += static_cast<std::size_t>(n);
    }
    return true;
  };
  return send_all(&header, sizeof(header)) && (size == 0 || send_all(payload, size));
}

/// Reads exactly `size` bytes; false on EOF (peer gone).
[[nodiscard]] bool read_exact(int fd, void* data, std::size_t size) {
  auto* bytes = static_cast<std::uint8_t*>(data);
  std::size_t got = 0;
  while (got < size) {
    const ::ssize_t n = ::read(fd, bytes + got, size - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    got += static_cast<std::size_t>(n);
  }
  return true;
}

[[nodiscard]] bool read_msg(int fd, MsgHeader& header, std::vector<std::uint8_t>& payload) {
  if (!read_exact(fd, &header, sizeof(header))) return false;
  payload.resize(header.size);
  return header.size == 0 || read_exact(fd, payload.data(), payload.size());
}

/// Ring-slot payload capacity: the wire size of a default summary (the
/// sketch geometry is fixed, so real summaries serialize to the same size)
/// plus slack. A summary that still outgrows the slot falls back to inline
/// transport — correctness never depends on this bound.
[[nodiscard]] std::size_t ring_payload_capacity() {
  ReplicationSummary probe;
  std::vector<std::uint8_t> bytes;
  probe.serialize(bytes);
  return bytes.size() + 1024;
}

// ---------------------------------------------------------------------------
// Worker process body. Never returns; never runs the parent's exit handlers
// (_exit), so the fork leaves the coordinator's stdio/file state untouched.
// ---------------------------------------------------------------------------

[[noreturn]] void worker_main(int fd, const RunOptions& options,
                              const std::vector<NamedConfig>& cells, std::size_t kill_after_jobs,
                              util::ShmRing* ring) {
  try {
    std::unique_ptr<sim::SimulationWorkspace> workspace;
    std::size_t jobs_run = 0;
    std::uint64_t busy_ns = 0;

    MsgHeader header;
    std::vector<std::uint8_t> payload;
    std::vector<std::uint8_t> reply;
    std::vector<std::uint8_t> summary_bytes;
    for (;;) {
      if (!read_msg(fd, header, payload)) std::_Exit(0);  // coordinator gone
      if (header.type == kShutdown) {
        std::vector<std::uint8_t> wire;
        util::put_pod(wire, busy_ns);
        util::put_pod(wire, static_cast<std::uint64_t>(jobs_run));
        (void)send_msg(fd, kStats, wire.data(), wire.size());
        std::_Exit(0);
      }
      if (header.type != kAssign) {
        std::fprintf(stderr, "shard worker: unexpected message type %u\n", header.type);
        std::_Exit(1);
      }

      util::ByteReader reader(payload.data(), payload.size());
      const auto chunk_id = reader.pod<std::uint64_t>();
      const auto count = reader.pod<std::uint32_t>();
      reply.clear();
      util::put_pod(reply, chunk_id);
      util::put_pod(reply, count);
      for (std::uint32_t i = 0; i < count; ++i) {
        const auto cell = reader.pod<std::uint32_t>();
        const auto replication = reader.pod<std::uint32_t>();
        const auto slot = reader.pod<std::uint32_t>();

        sim::SimulationConfig config = cells[cell].config;
        // Seeds depend only on (base_seed, replication): common random
        // numbers across cells — identical to the threaded runner.
        config.seed = rng::mix_seed(options.base_seed, replication);
        if (options.queue_backend.has_value()) config.queue_backend = options.queue_backend;
        sim::Simulation simulation(std::move(config));
        ReplicationSummary summary;
        const auto job_start = std::chrono::steady_clock::now();
        if (options.reuse_workspaces) {
          if (!workspace) workspace = std::make_unique<sim::SimulationWorkspace>();
          summary = summarize(simulation.run(*workspace));
        } else {
          summary = summarize(simulation.run());
        }
        busy_ns += static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                                  std::chrono::steady_clock::now() - job_start)
                                                  .count());
        ++jobs_run;
        // Failure-injection hook: die mid-chunk, after a completed job but
        // before the chunk reply — the coordinator must requeue and the
        // replacement worker redo the whole chunk.
        if (kill_after_jobs > 0 && jobs_run >= kill_after_jobs) std::_Exit(9);

        util::put_pod(reply, cell);
        util::put_pod(reply, replication);
        summary_bytes.clear();
        summary.serialize(summary_bytes);
        if (slot != util::ShmRing::kNoSlot && ring != nullptr &&
            summary_bytes.size() <= ring->payload_capacity()) {
          ring->write(slot, summary_bytes.data(), summary_bytes.size());
          util::put_pod(reply, std::uint32_t{0});
        } else {
          util::put_pod(reply, static_cast<std::uint32_t>(summary_bytes.size()));
          reply.insert(reply.end(), summary_bytes.begin(), summary_bytes.end());
        }
      }
      if (!send_msg(fd, kChunkDone, reply.data(), reply.size())) std::_Exit(0);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "shard worker: %s\n", e.what());
    std::_Exit(1);
  } catch (...) {
    std::fprintf(stderr, "shard worker: unknown error\n");
    std::_Exit(1);
  }
}

}  // namespace

ShardOptions ShardOptions::from_env(ShardOptions defaults) {
  if (auto v = env_size("DGSCHED_PROCS")) defaults.procs = *v;
  if (auto v = env_string("DGSCHED_JOURNAL")) defaults.journal_path = *v;
  if (auto v = env_size("DGSCHED_JOURNAL_FSYNC")) defaults.fsync_journal = *v != 0;
  if (auto v = env_size("DGSCHED_SHARD_ABORT_AFTER")) defaults.abort_after_appends = *v;
  if (auto text = env_string("DGSCHED_SHARD_SELF_KILL")) {
    // Digits and the colon only: std::stoull would skip blanks and wrap a
    // "-1" worker to SIZE_MAX, which silently disables the injection.
    const bool digits = std::all_of(text->begin(), text->end(),
                                    [](char ch) { return (ch >= '0' && ch <= '9') || ch == ':'; });
    const std::size_t colon = text->find(':');
    bool ok = digits && colon != std::string::npos && colon > 0 && colon + 1 < text->size();
    if (ok) {
      try {
        std::size_t used_a = 0;
        std::size_t used_b = 0;
        const std::string jobs_text = text->substr(colon + 1);
        defaults.self_kill_worker = std::stoull(text->substr(0, colon), &used_a);
        defaults.self_kill_jobs = std::stoull(jobs_text, &used_b);
        ok = used_a == colon && used_b == jobs_text.size();
      } catch (const std::exception&) {
        ok = false;
      }
    }
    if (!ok) bad_env("DGSCHED_SHARD_SELF_KILL", *text, "\"<worker>:<jobs>\"");
  }
  return defaults;
}

std::vector<CellResult> ShardedRunner::run(const std::vector<NamedConfig>& cells) {
  recovered_ = 0;
  exec_stats_ = ExecutionStats{};

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
  if (cells.empty()) return results;

  const std::size_t procs = std::max<std::size_t>(1, shard_.procs);
  const auto wall_start = std::chrono::steady_clock::now();

  // Journal: recover the completed prefix of an earlier (killed) run of this
  // same campaign. Journal records are written in the canonical order
  // (exp/pipeline.hpp), so the recovered prefix is always a canonical prefix
  // and feeding it back in file order cascades commits eagerly.
  std::unique_ptr<CampaignJournal> journal;
  if (!shard_.journal_path.empty()) {
    journal = std::make_unique<CampaignJournal>(
        shard_.journal_path, CampaignJournal::campaign_signature(cells, options_));
  }

  PipelineState state(options_, results, journal.get());
  if (shard_.abort_after_appends > 0) {
    // Failure-injection hook: simulate a coordinator kill at an exact
    // journal record boundary (fsync first so the boundary is durable and
    // the test deterministic).
    state.after_append = [this, &journal] {
      if (journal->appended() >= shard_.abort_after_appends) {
        journal->sync();
        std::_Exit(3);
      }
    };
  }
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
  recovered_ = state.recovered();

  struct Chunk {
    std::uint64_t id = 0;
    std::vector<PipelineJob> jobs;
    std::vector<std::uint32_t> slots;  ///< Assigned ring slot per job (or kNoSlot).
  };
  struct Worker {
    pid_t pid = -1;
    int fd = -1;
    bool alive = false;
    std::deque<Chunk> outstanding;  ///< Assigned chunks, in send order (FIFO replies).
    bool spawned_once = false;      ///< Self-kill arms only the first incarnation.
  };
  std::vector<Worker> workers(procs);
  // Per-worker shared-memory rings (created lazily at first spawn — always
  // before that worker's fork, so every incarnation inherits the mapping)
  // and their coordinator-side free-slot lists. Sized for two max-size
  // chunks; an exhausted free list (a larger fixed batch) just degrades that
  // job to inline socket transport.
  const std::size_t ring_slots = 2 * kChunkCap;
  const std::size_t ring_capacity = ring_payload_capacity();
  std::vector<std::unique_ptr<util::ShmRing>> rings(procs);
  std::vector<std::vector<std::uint32_t>> free_slots(procs);
  std::size_t respawns = 0;
  // Generous for flaky deaths, finite for a replication that crashes
  // deterministically (every respawn re-crashes until this throws).
  const std::size_t respawn_cap = procs * 8 + 8;

  auto spawn = [&](std::size_t w) {
    if (!rings[w]) {
      rings[w] = std::make_unique<util::ShmRing>(ring_slots, ring_capacity);
      free_slots[w].resize(ring_slots);
      std::iota(free_slots[w].begin(), free_slots[w].end(), std::uint32_t{0});
    }
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      throw std::runtime_error("ShardedRunner: socketpair failed");
    }
    const std::size_t kill_after =
        (!workers[w].spawned_once && w == shard_.self_kill_worker) ? shard_.self_kill_jobs : 0;
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(sv[0]);
      ::close(sv[1]);
      throw std::runtime_error("ShardedRunner: fork failed");
    }
    if (pid == 0) {
      // Child: drop every coordinator-side descriptor we inherited so
      // sibling sockets don't stay half-open through us, then serve jobs.
      ::close(sv[0]);
      for (const Worker& other : workers) {
        if (other.fd >= 0) ::close(other.fd);
      }
      worker_main(sv[1], options_, cells, kill_after, rings[w].get());
    }
    ::close(sv[1]);
    workers[w].pid = pid;
    workers[w].fd = sv[0];
    workers[w].alive = true;
    workers[w].spawned_once = true;
  };

  auto reclaim_slots = [&](std::size_t w, const Chunk& chunk) {
    for (const std::uint32_t slot : chunk.slots) {
      if (slot == util::ShmRing::kNoSlot) continue;
      rings[w]->release(slot);
      free_slots[w].push_back(slot);
    }
  };

  auto handle_death = [&](std::size_t w) {
    Worker& worker = workers[w];
    if (worker.pid > 0) {
      int status = 0;
      (void)::waitpid(worker.pid, &status, 0);
    }
    if (worker.fd >= 0) ::close(worker.fd);
    worker.fd = -1;
    worker.pid = -1;
    worker.alive = false;
    for (const Chunk& chunk : worker.outstanding) {
      state.requeue(chunk.jobs);
      reclaim_slots(w, chunk);
    }
    worker.outstanding.clear();
    if (++respawns > respawn_cap) {
      throw std::runtime_error(
          "ShardedRunner: worker respawn limit exceeded (a replication keeps crashing its "
          "worker; see stderr for the worker's error)");
    }
  };

  // Chunk size: fixed when requested; in barrier mode the historical
  // round-proportional batch; pipelined, proportional to remaining work so
  // chunks shrink toward the campaign drain and the last stragglers are
  // single replications (no worker holds a queue of jobs another could run).
  const auto chunk_target = [&]() -> std::size_t {
    if (options_.batch_size > 0) return options_.batch_size;
    if (!options_.pipeline) {
      return std::max<std::size_t>(1, state.round_size() / (procs * 4));
    }
    return std::min(kChunkCap,
                    std::max<std::size_t>(1, state.remaining_estimate() / (procs * 4)));
  };
  // Pipelined workers are double-buffered: the next chunk is already queued
  // on the socket while the current one runs, so finishing a chunk never
  // leaves a worker idle waiting on coordinator latency. Barrier mode keeps
  // the historical one-chunk-at-a-time shape.
  const std::size_t max_outstanding = options_.pipeline ? 2 : 1;
  std::uint64_t next_chunk_id = 0;

  std::vector<std::uint8_t> wire;
  std::vector<std::uint8_t> payload;
  std::vector<std::uint8_t> summary_bytes;

  const auto any_outstanding = [&]() {
    for (const Worker& worker : workers) {
      if (!worker.outstanding.empty()) return true;
    }
    return false;
  };

  // Assign ready jobs to workers with spare chunk capacity.
  const auto assign_ready = [&]() {
    for (std::size_t w = 0; w < procs; ++w) {
      while (!state.finished() && workers[w].outstanding.size() < max_outstanding &&
             state.has_ready()) {
        if (!workers[w].alive) spawn(w);
        Chunk chunk;
        chunk.id = next_chunk_id++;
        chunk.jobs = state.pop_chunk(chunk_target());
        if (chunk.jobs.empty()) break;
        chunk.slots.reserve(chunk.jobs.size());
        wire.clear();
        util::put_pod(wire, chunk.id);
        util::put_pod(wire, static_cast<std::uint32_t>(chunk.jobs.size()));
        for (const PipelineJob& job : chunk.jobs) {
          std::uint32_t slot = util::ShmRing::kNoSlot;
          if (!free_slots[w].empty()) {
            slot = free_slots[w].back();
            free_slots[w].pop_back();
          }
          chunk.slots.push_back(slot);
          util::put_pod(wire, static_cast<std::uint32_t>(job.cell));
          util::put_pod(wire, static_cast<std::uint32_t>(job.replication));
          util::put_pod(wire, slot);
        }
        const int fd = workers[w].fd;
        workers[w].outstanding.push_back(std::move(chunk));
        if (!send_msg(fd, kAssign, wire.data(), wire.size())) {
          handle_death(w);
          break;
        }
      }
    }
  };

  // Receive one worker's chunk reply and feed it through the ordered commit
  // (which journals, decides, and extends the launch window as summaries
  // become foldable).
  const auto receive_reply = [&](std::size_t w) {
    Worker& worker = workers[w];
    MsgHeader header;
    if (!read_msg(worker.fd, header, payload) || header.type != kChunkDone) {
      handle_death(w);
      return;
    }
    if (worker.outstanding.empty()) {
      throw std::runtime_error("ShardedRunner: unexpected chunk reply");
    }
    Chunk chunk = std::move(worker.outstanding.front());
    worker.outstanding.pop_front();
    util::ByteReader reader(payload.data(), payload.size());
    const auto chunk_id = reader.pod<std::uint64_t>();
    const auto count = reader.pod<std::uint32_t>();
    if (chunk_id != chunk.id || count != chunk.jobs.size()) {
      throw std::runtime_error("ShardedRunner: protocol mismatch in chunk reply");
    }
    for (std::uint32_t i = 0; i < count; ++i) {
      const auto cell = reader.pod<std::uint32_t>();
      const auto replication = reader.pod<std::uint32_t>();
      const auto size = reader.pod<std::uint32_t>();
      if (cell != chunk.jobs[i].cell || replication != chunk.jobs[i].replication) {
        throw std::runtime_error("ShardedRunner: job mismatch in chunk reply");
      }
      ReplicationSummary summary;
      if (size == 0) {
        // Summary travelled through the assigned shared-memory slot;
        // validate-then-copy (a torn slot throws, never folds).
        const std::uint32_t slot = chunk.slots[i];
        if (slot == util::ShmRing::kNoSlot) {
          throw std::runtime_error("ShardedRunner: ring reply without an assigned slot");
        }
        rings[w]->read(slot, summary_bytes);
        util::ByteReader summary_reader(summary_bytes.data(), summary_bytes.size());
        summary = ReplicationSummary::deserialize(summary_reader);
      } else {
        util::ByteReader summary_reader(reader.skip(size), size);
        summary = ReplicationSummary::deserialize(summary_reader);
      }
      if (chunk.slots[i] != util::ShmRing::kNoSlot) {
        rings[w]->release(chunk.slots[i]);
        free_slots[w].push_back(chunk.slots[i]);
      }
      state.deliver(cell, replication, std::move(summary));
    }
    if (journal && shard_.fsync_journal) journal->sync();
  };

  while (!state.finished() || any_outstanding()) {
    assign_ready();

    std::vector<::pollfd> fds;
    std::vector<std::size_t> fd_workers;
    for (std::size_t w = 0; w < procs; ++w) {
      if (workers[w].alive && !workers[w].outstanding.empty()) {
        fds.push_back(::pollfd{workers[w].fd, POLLIN, 0});
        fd_workers.push_back(w);
      }
    }
    if (fds.empty()) {
      if (state.finished()) break;
      if (!state.has_ready()) {
        // Unstopped cells always have a job queued or in flight; neither
        // here means the pipeline state is corrupt, not merely slow.
        throw std::runtime_error("ShardedRunner: stalled with no ready or in-flight jobs");
      }
      continue;  // every busy worker died; the next pass respawns
    }
    if (::poll(fds.data(), fds.size(), -1) < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("ShardedRunner: poll failed");
    }
    for (std::size_t f = 0; f < fds.size(); ++f) {
      if ((fds[f].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      receive_reply(fd_workers[f]);
    }
  }

  // Shutdown: collect every worker's execution-lane accounting, then reap.
  // A lane whose worker was respawned reports only the surviving incarnation
  // (a killed worker's counters die with it).
  exec_stats_.lanes.assign(procs, WorkerLaneStats{});
  for (std::size_t w = 0; w < procs; ++w) {
    Worker& worker = workers[w];
    if (!worker.alive) continue;
    MsgHeader header;
    if (send_msg(worker.fd, kShutdown, nullptr, 0) && read_msg(worker.fd, header, payload) &&
        header.type == kStats && payload.size() == kStatsWords * sizeof(std::uint64_t)) {
      util::ByteReader reader(payload.data(), payload.size());
      exec_stats_.lanes[w].busy_s = static_cast<double>(reader.pod<std::uint64_t>()) * 1e-9;
      exec_stats_.lanes[w].jobs = reader.pod<std::uint64_t>();
    }
    ::close(worker.fd);
    worker.fd = -1;
    int status = 0;
    (void)::waitpid(worker.pid, &status, 0);
    worker.alive = false;
  }

  exec_stats_.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  for (WorkerLaneStats& lane : exec_stats_.lanes) {
    lane.stall_s = std::max(0.0, exec_stats_.wall_s - lane.busy_s);
  }
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
