// Runtime state of one BoT application: its per-bag queue in the scheduler.
//
// Maintains the dispatch structures the individual-bag schedulers draw from:
//   * an ordered cursor over never-started tasks (arrival order, or
//     descending-work order for the knowledge-based extension),
//   * a priority FIFO of failed tasks awaiting resubmission (WQR-FT),
//   * a plain re-queue for fault re-execution without priority (WQR/WorkQueue),
//   * replica-count buckets answering "least-replicated incomplete task below
//     the replication threshold" in O(1) time. A task's *rank* is its
//     position in the bag's dispatch order (the task index under kArrival);
//     each count keeps a bitset over ranks with its size and cached lowest
//     non-empty word, so insert and erase flip one bit and the answer is the
//     lowest set bit of the smallest occupied count's bitset.
// All structures are deterministic (ordered containers, stable tie-breaks).
//
// A bag lives from its arrival to its completion: Simulation::run builds the
// BotState at the bag's arrival event and, once the bag has completed and
// its last sibling replicas have stopped, calls release_task_storage(),
// which hands every per-task container back to the memory resource. The
// released bag keeps only the scalars its result record reads.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <memory_resource>
#include <vector>

#include "sched/task_state.hpp"
#include "util/assert.hpp"
#include "workload/bot.hpp"

namespace dg::sched {

class DispatchIndex;

/// One bag's memberships in a DispatchIndex, cached on the BotState and
/// kept by the index (see sched/dispatch_index.hpp); `registered` replaces
/// a lookup of the bag in the index.
struct IndexMembership {
  bool registered = false;
  bool dispatchable = false;
  bool no_running = false;
  bool stale = false;
  bool operator==(const IndexMembership&) const = default;
};

/// Ordering used for the unstarted-task cursor and replication tie-breaks.
enum class TaskOrder : std::uint8_t {
  kArrival,         // task index order (knowledge-free; the paper's setting)
  kDescendingWork,  // longest task first (knowledge-based extension)
};

class BotState {
 public:
  /// All internal containers (task slab, queues, replica buckets) allocate
  /// from `mem`; pass a per-replication pool (sim::SimulationWorkspace) to
  /// recycle their memory across runs. The default is the global heap.
  explicit BotState(const workload::BotSpec& spec, TaskOrder order = TaskOrder::kArrival,
                    std::pmr::memory_resource* mem = std::pmr::get_default_resource());

  BotState(const BotState&) = delete;
  BotState& operator=(const BotState&) = delete;

  [[nodiscard]] workload::BotId id() const noexcept { return id_; }
  [[nodiscard]] double arrival_time() const noexcept { return arrival_time_; }
  [[nodiscard]] double granularity() const noexcept { return granularity_; }
  [[nodiscard]] std::size_t num_tasks() const noexcept { return num_tasks_; }
  /// Task `i`; asserts that `i` is in range and the storage not released.
  [[nodiscard]] TaskState& task(std::size_t i) {
    DG_ASSERT_MSG(i < tasks_.size(), "task index out of range or bag storage released");
    return tasks_[i];
  }
  [[nodiscard]] const TaskState& task(std::size_t i) const {
    DG_ASSERT_MSG(i < tasks_.size(), "task index out of range or bag storage released");
    return tasks_[i];
  }

  // --- pending pools ---
  //
  // The peeks are logically const: they only advance lazy cursors past
  // entries whose tasks already changed state (the answer is a function of
  // task states alone), so the containers are mutable and the methods const.

  /// Next never-started task in this bag's order, or nullptr.
  [[nodiscard]] TaskState* peek_unstarted() const;
  /// Oldest failed task awaiting priority resubmission (WQR-FT), or nullptr.
  [[nodiscard]] TaskState* peek_resubmission() const;
  /// Oldest task re-queued without priority (WQR / WorkQueue), or nullptr.
  [[nodiscard]] TaskState* peek_requeued() const;

  /// Flag `task` for resubmission and queue it. The task must be idle and
  /// incomplete, and a bag feeds one pool at a time: the other must be empty
  /// (a scheduler feeds one pool for its whole run).
  void push_resubmission(TaskState& task);
  void push_requeue(TaskState& task);

  /// True if any pending (zero-replica, incomplete) task exists: a
  /// never-started task or a valid pool entry. O(1), from two counts kept
  /// by the hooks below. A set resubmission flag marks exactly the tasks
  /// with a valid pool entry: push_* sets it on an idle incomplete task, and
  /// a start or the completion clears it. Never pops: a stale entry whose
  /// task is merely running keeps its position and revalidates if the task
  /// fails again — the priority-resubmission order the pick path relies on.
  [[nodiscard]] bool has_pending() const noexcept { return never_started_ > 0 || flagged_ > 0; }

  /// True if a resubmission/requeue pool is non-empty yet holds no currently
  /// dispatchable entry — every entry's task is running or completed. Such a
  /// bag is exactly one the positional policy scans used to probe (and
  /// thereby prune) on their way to the selected bag; the dispatch index
  /// tracks these so the probes can be replayed without a full scan. O(1):
  /// at most one pool is non-empty, and it holds a valid entry iff some
  /// task is flagged.
  [[nodiscard]] bool has_stale_queue_entries() const noexcept {
    return flagged_ == 0 && !(resubmission_queue_.empty() && requeue_.empty());
  }

  // --- replication candidates ---

  /// Incomplete task with >= 1 and < `threshold` running replicas, fewest
  /// replicas first (ties by the bag's TaskOrder). nullptr if none.
  [[nodiscard]] TaskState* least_replicated_below(int threshold) const;

  /// Smallest running-replica count among incomplete tasks with >= 1 replica,
  /// or INT_MAX when no task is running. O(1): the cached minimum count.
  [[nodiscard]] int min_replicated_count() const noexcept { return min_count_; }

  // --- bookkeeping driven by the scheduler ---

  /// Call after a replica of `task` started (its count already incremented).
  void after_replica_started(TaskState& task);
  /// Call after a replica of `task` stopped (count already decremented).
  /// No-op for completed tasks.
  void after_replica_stopped(TaskState& task);
  /// Call when `task` completes, BEFORE its sibling replicas are stopped
  /// (the bucket entry is keyed by the still-current replica count).
  void on_task_completed(TaskState& task);

  /// Hands the task slab, the dispatch order and the pools back to the
  /// memory resource. Call once the bag has completed and its last replica
  /// has stopped; afterwards only the bag-level scalars (counts, work,
  /// timings) answer, and task(i) asserts.
  void release_task_storage();

  /// Attaches the scheduler's DispatchIndex; every mutator above (and the
  /// push_* pools) refresh this bag's index memberships before returning.
  /// Wired at the BotState level — not the policy-hook level — because
  /// sibling-replica stops of completed tasks bypass the policy hooks yet
  /// still change total_running(). nullptr detaches.
  void set_dispatch_index(DispatchIndex* index) noexcept { dispatch_index_ = index; }
  /// This bag's cached memberships in the attached DispatchIndex (kept by
  /// the index; all false while unregistered).
  [[nodiscard]] const IndexMembership& index_membership() const noexcept {
    return index_membership_;
  }

  // --- bag-level status ---

  [[nodiscard]] std::size_t completed_tasks() const noexcept { return completed_count_; }
  [[nodiscard]] bool completed() const noexcept { return completed_count_ == num_tasks_; }
  [[nodiscard]] int total_running() const noexcept { return total_running_; }
  [[nodiscard]] double total_work() const noexcept { return total_work_; }
  /// Work of the not-yet-completed tasks (knowledge-based policies only —
  /// a knowledge-free scheduler must not consult this).
  [[nodiscard]] double remaining_work() const noexcept { return total_work_ - completed_work_; }

  /// Time the first replica of any task started (the makespan origin).
  [[nodiscard]] bool ever_dispatched() const noexcept { return ever_dispatched_; }
  [[nodiscard]] double first_dispatch_time() const noexcept { return first_dispatch_time_; }
  [[nodiscard]] double completion_time() const noexcept { return completion_time_; }
  void note_dispatch(double now) noexcept {
    if (!ever_dispatched_) {
      ever_dispatched_ = true;
      first_dispatch_time_ = now;
    }
  }
  void note_completion(double now) noexcept { completion_time_ = now; }

  // --- turnaround decomposition (paper Section 3) ---

  [[nodiscard]] double turnaround() const noexcept { return completion_time_ - arrival_time_; }
  [[nodiscard]] double makespan() const noexcept {
    return completion_time_ - first_dispatch_time_;
  }
  [[nodiscard]] double waiting_time() const noexcept {
    return first_dispatch_time_ - arrival_time_;
  }

 private:
  /// One replica count's bitset: `size` set bits, the lowest of them in
  /// word `front` (meaningful while size > 0).
  struct BucketHead {
    std::uint32_t size = 0;
    std::uint32_t front = 0;
  };

  /// The task's position in unstarted_order_.
  [[nodiscard]] std::size_t rank(const TaskState& task) const noexcept {
    return order_ == TaskOrder::kArrival ? task.index() : rank_of_[task.index()];
  }
  /// First word of count `count`'s bitset in bucket_words_.
  [[nodiscard]] std::size_t bucket_base(int count) const noexcept {
    return static_cast<std::size_t>(count - 1) * words_per_bucket_;
  }
  void bucket_insert(const TaskState& task, int count);
  void bucket_erase(const TaskState& task, int count);
  /// Brings never_started_ and flagged_ in line with `task`'s flags; every
  /// hook that follows a flag change calls it.
  void sync_pool_counts(TaskState& task) noexcept;

  /// FIFO of tasks over a pooled vector: pops advance `head`, and the dead
  /// prefix is dropped once it is half the storage (capacity kept). Unlike a
  /// std::deque it allocates nothing until the first push.
  struct TaskQueue {
    std::pmr::vector<TaskState*> items;
    std::size_t head = 0;

    explicit TaskQueue(std::pmr::memory_resource* mem) : items(mem) {}
    [[nodiscard]] bool empty() const noexcept { return head == items.size(); }
    [[nodiscard]] TaskState* front() const noexcept { return items[head]; }
    void push_back(TaskState* task) { items.push_back(task); }
    void pop_front() noexcept;
    void release() noexcept;
  };

  workload::BotId id_;
  double arrival_time_;
  double granularity_;
  double total_work_ = 0.0;
  TaskOrder order_;
  /// Task count, kept apart from tasks_ so it survives release_task_storage().
  std::size_t num_tasks_;
  /// Task slab: reserved once at construction and never resized, so the
  /// TaskState* handed out everywhere stay stable until the release.
  std::pmr::vector<TaskState> tasks_;

  // Unstarted cursor: precomputed dispatch order, advanced lazily (mutable:
  // the const peeks skip already-consumed entries; see the peek docs). The
  // order doubles as the rank -> task map of the replica buckets.
  std::pmr::vector<TaskState*> unstarted_order_;
  mutable std::size_t unstarted_cursor_ = 0;
  /// Task index -> rank under kDescendingWork; empty under kArrival, where
  /// the rank is the index.
  std::pmr::vector<std::uint32_t> rank_of_;

  mutable TaskQueue resubmission_queue_;
  mutable TaskQueue requeue_;
  /// Tasks neither started nor completed (the unstarted pool's size).
  std::size_t never_started_;
  /// Tasks whose resubmission flag is set (the valid pool entries' tasks).
  std::size_t flagged_ = 0;

  // Replica-count buckets: count c >= 1 owns words
  // [bucket_base(c), bucket_base(c) + words_per_bucket_) of bucket_words_, a
  // bitset over the ranks of the incomplete tasks with exactly c running
  // replicas, and bucket_heads_[c - 1]. Grown a count at a time; the
  // storage is kept until the bag's last task completes, which releases it.
  std::size_t words_per_bucket_;
  std::pmr::vector<std::uint64_t> bucket_words_;
  std::pmr::vector<BucketHead> bucket_heads_;
  /// Tasks held across all buckets.
  std::size_t bucketed_ = 0;
  /// Smallest count with a non-empty bucket, INT_MAX when all are empty.
  int min_count_ = std::numeric_limits<int>::max();

  std::size_t completed_count_ = 0;
  double completed_work_ = 0.0;
  int total_running_ = 0;
  bool ever_dispatched_ = false;
  double first_dispatch_time_ = 0.0;
  double completion_time_ = 0.0;

  DispatchIndex* dispatch_index_ = nullptr;
  void refresh_dispatch_index();
  friend class DispatchIndex;
  IndexMembership index_membership_;

  // Intrusive links for ActiveBotList (owned by the scheduler).
  friend class ActiveBotList;
  BotState* active_prev_ = nullptr;
  BotState* active_next_ = nullptr;
  bool in_active_list_ = false;
};

/// Intrusive doubly-linked list of the incomplete bags, in arrival order.
/// Replaces the scheduler's vector + O(B) std::find erase: membership is a
/// flag on the BotState, so completion removes a bag in O(1) while iteration
/// order (arrival order) is preserved — the invariant every FCFS-style
/// policy's determinism rests on.
class ActiveBotList {
 public:
  ActiveBotList() = default;
  ActiveBotList(const ActiveBotList&) = delete;
  ActiveBotList& operator=(const ActiveBotList&) = delete;

  void push_back(BotState& bot) {
    DG_ASSERT_MSG(!bot.in_active_list_, "bot already in active list");
    bot.in_active_list_ = true;
    bot.active_prev_ = tail_;
    bot.active_next_ = nullptr;
    (tail_ != nullptr ? tail_->active_next_ : head_) = &bot;
    tail_ = &bot;
    ++size_;
  }

  void erase(BotState& bot) {
    DG_ASSERT_MSG(bot.in_active_list_, "bot not in active list");
    (bot.active_prev_ != nullptr ? bot.active_prev_->active_next_ : head_) = bot.active_next_;
    (bot.active_next_ != nullptr ? bot.active_next_->active_prev_ : tail_) = bot.active_prev_;
    bot.active_prev_ = nullptr;
    bot.active_next_ = nullptr;
    bot.in_active_list_ = false;
    --size_;
  }

  [[nodiscard]] BotState* front() const noexcept { return head_; }
  [[nodiscard]] BotState* back() const noexcept { return tail_; }
  [[nodiscard]] bool empty() const noexcept { return head_ == nullptr; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] static bool contains(const BotState& bot) noexcept {
    return bot.in_active_list_;
  }

  /// Forward iterator yielding BotState* in arrival order.
  class iterator {
   public:
    explicit iterator(BotState* bot = nullptr) noexcept : bot_(bot) {}
    BotState* operator*() const noexcept { return bot_; }
    iterator& operator++() noexcept {
      bot_ = bot_->active_next_;
      return *this;
    }
    bool operator==(const iterator&) const = default;

   private:
    BotState* bot_;
  };

  [[nodiscard]] iterator begin() const noexcept { return iterator{head_}; }
  [[nodiscard]] iterator end() const noexcept { return iterator{}; }

 private:
  BotState* head_ = nullptr;
  BotState* tail_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace dg::sched
