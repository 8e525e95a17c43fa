#include "sched/bot_state.hpp"

#include <algorithm>
#include <bit>

#include "sched/dispatch_index.hpp"

namespace dg::sched {

BotState::BotState(const workload::BotSpec& spec, TaskOrder order,
                   std::pmr::memory_resource* mem)
    : id_(spec.id), arrival_time_(spec.arrival_time), granularity_(spec.granularity),
      order_(order), num_tasks_(spec.tasks.size()), tasks_(mem), unstarted_order_(mem),
      rank_of_(mem), resubmission_queue_(mem), requeue_(mem), never_started_(num_tasks_),
      words_per_bucket_((num_tasks_ + 63) / 64), bucket_words_(mem), bucket_heads_(mem) {
  tasks_.reserve(spec.tasks.size());
  for (std::size_t i = 0; i < spec.tasks.size(); ++i) {
    tasks_.emplace_back(*this, static_cast<workload::TaskIndex>(i), spec.tasks[i].work,
                        spec.arrival_time);
    total_work_ += spec.tasks[i].work;
  }
  unstarted_order_.reserve(tasks_.size());
  for (auto& task : tasks_) unstarted_order_.push_back(&task);
  if (order_ == TaskOrder::kDescendingWork) {
    std::stable_sort(unstarted_order_.begin(), unstarted_order_.end(),
                     [](const TaskState* a, const TaskState* b) { return a->work() > b->work(); });
    rank_of_.resize(tasks_.size());
    for (std::size_t r = 0; r < unstarted_order_.size(); ++r) {
      rank_of_[unstarted_order_[r]->index()] = static_cast<std::uint32_t>(r);
    }
  }
}

TaskState* BotState::peek_unstarted() const {
  while (unstarted_cursor_ < unstarted_order_.size()) {
    TaskState* task = unstarted_order_[unstarted_cursor_];
    if (!task->ever_started() && !task->completed()) return task;
    ++unstarted_cursor_;
  }
  return nullptr;
}

TaskState* BotState::peek_resubmission() const {
  while (!resubmission_queue_.empty()) {
    TaskState* task = resubmission_queue_.front();
    if (task->needs_resubmission() && !task->completed() && task->running_replicas() == 0) {
      return task;
    }
    resubmission_queue_.pop_front();
  }
  return nullptr;
}

TaskState* BotState::peek_requeued() const {
  while (!requeue_.empty()) {
    TaskState* task = requeue_.front();
    if (task->needs_resubmission() && !task->completed() && task->running_replicas() == 0) {
      return task;
    }
    requeue_.pop_front();
  }
  return nullptr;
}

void BotState::push_resubmission(TaskState& task) {
  DG_ASSERT_MSG(task.running_replicas() == 0 && !task.completed(),
                "only an idle incomplete task is queued for resubmission");
  DG_ASSERT_MSG(requeue_.empty(), "a bag feeds one pool at a time");
  task.set_needs_resubmission(true);
  sync_pool_counts(task);
  resubmission_queue_.push_back(&task);
  refresh_dispatch_index();
}

void BotState::push_requeue(TaskState& task) {
  DG_ASSERT_MSG(task.running_replicas() == 0 && !task.completed(),
                "only an idle incomplete task is re-queued");
  DG_ASSERT_MSG(resubmission_queue_.empty(), "a bag feeds one pool at a time");
  task.set_needs_resubmission(true);
  sync_pool_counts(task);
  requeue_.push_back(&task);
  refresh_dispatch_index();
}

void BotState::sync_pool_counts(TaskState& task) noexcept {
  if (!task.counted_started_ && (task.ever_started() || task.completed())) {
    task.counted_started_ = true;
    --never_started_;
  }
  if (task.counted_flagged_ != task.needs_resubmission()) {
    task.counted_flagged_ = task.needs_resubmission();
    if (task.counted_flagged_) {
      ++flagged_;
    } else {
      --flagged_;
    }
  }
}

void BotState::TaskQueue::pop_front() noexcept {
  ++head;
  if (head == items.size()) {
    items.clear();
    head = 0;
  } else if (head * 2 >= items.size()) {
    items.erase(items.begin(), items.begin() + static_cast<std::ptrdiff_t>(head));
    head = 0;
  }
}

void BotState::TaskQueue::release() noexcept {
  items.clear();
  items.shrink_to_fit();
  head = 0;
}

TaskState* BotState::least_replicated_below(int threshold) const {
  // The smallest occupied count is the first bucket a count-ordered walk
  // would reach; its lowest set rank is the bag-order first task.
  if (min_count_ >= threshold) return nullptr;
  const BucketHead& head = bucket_heads_[static_cast<std::size_t>(min_count_ - 1)];
  const std::uint64_t word = bucket_words_[bucket_base(min_count_) + head.front];
  DG_ASSERT(word != 0);
  return unstarted_order_[std::size_t{head.front} * 64 +
                          static_cast<std::size_t>(std::countr_zero(word))];
}

void BotState::bucket_insert(const TaskState& task, int count) {
  DG_ASSERT(count >= 1);
  if (bucket_heads_.size() < static_cast<std::size_t>(count)) {
    bucket_heads_.resize(static_cast<std::size_t>(count));
    bucket_words_.resize(bucket_heads_.size() * words_per_bucket_);
  }
  BucketHead& head = bucket_heads_[static_cast<std::size_t>(count - 1)];
  const std::size_t r = rank(task);
  const auto w = static_cast<std::uint32_t>(r / 64);
  std::uint64_t& word = bucket_words_[bucket_base(count) + w];
  const std::uint64_t bit = std::uint64_t{1} << (r % 64);
  DG_ASSERT_MSG((word & bit) == 0, "task already present in replica bucket");
  word |= bit;
  if (head.size++ == 0 || w < head.front) head.front = w;
  ++bucketed_;
  min_count_ = std::min(min_count_, count);
}

void BotState::bucket_erase(const TaskState& task, int count) {
  DG_ASSERT_MSG(count >= 1 && static_cast<std::size_t>(count) <= bucket_heads_.size(),
                "missing replica bucket");
  BucketHead& head = bucket_heads_[static_cast<std::size_t>(count - 1)];
  const std::size_t base = bucket_base(count);
  const std::size_t r = rank(task);
  std::uint64_t& word = bucket_words_[base + r / 64];
  const std::uint64_t bit = std::uint64_t{1} << (r % 64);
  DG_ASSERT_MSG((word & bit) != 0, "task missing from replica bucket");
  word &= ~bit;
  --bucketed_;
  if (--head.size != 0) {
    // Keep `front` on the lowest non-empty word; it only moves up when its
    // own word empties.
    while (bucket_words_[base + head.front] == 0) ++head.front;
    return;
  }
  if (count != min_count_) return;
  if (bucketed_ == 0) {
    min_count_ = std::numeric_limits<int>::max();
    return;
  }
  // Some higher bucket is occupied: advance to it.
  do {
    ++min_count_;
  } while (bucket_heads_[static_cast<std::size_t>(min_count_ - 1)].size == 0);
}

void BotState::after_replica_started(TaskState& task) {
  DG_ASSERT(!task.completed());
  const int count = task.running_replicas();
  DG_ASSERT(count >= 1);
  if (count > 1) bucket_erase(task, count - 1);
  bucket_insert(task, count);
  ++total_running_;
  sync_pool_counts(task);
  refresh_dispatch_index();
}

void BotState::after_replica_stopped(TaskState& task) {
  --total_running_;
  DG_ASSERT(total_running_ >= 0);
  if (!task.completed()) {  // buckets were cleared at completion
    const int count = task.running_replicas();
    bucket_erase(task, count + 1);
    if (count >= 1) bucket_insert(task, count);
  }
  refresh_dispatch_index();
}

void BotState::on_task_completed(TaskState& task) {
  const int count = task.running_replicas();
  if (count >= 1) bucket_erase(task, count);
  ++completed_count_;
  completed_work_ += task.work();
  sync_pool_counts(task);
  DG_ASSERT(completed_count_ <= num_tasks_);
  if (completed()) {
    // The buckets are empty now; hand their storage back at once. The rest
    // waits for release_task_storage(): the completing event still stops
    // this task's sibling replicas.
    bucket_words_.clear();
    bucket_words_.shrink_to_fit();
    bucket_heads_.clear();
    bucket_heads_.shrink_to_fit();
  }
  refresh_dispatch_index();
}

void BotState::release_task_storage() {
  DG_ASSERT_MSG(completed() && total_running_ == 0,
                "bag storage released before its last replica stopped");
  DG_ASSERT_MSG(!index_membership_.registered && !in_active_list_,
                "bag storage released while the scheduler still holds the bag");
  tasks_.clear();
  tasks_.shrink_to_fit();
  unstarted_order_.clear();
  unstarted_order_.shrink_to_fit();
  rank_of_.clear();
  rank_of_.shrink_to_fit();
  resubmission_queue_.release();
  requeue_.release();
}

void BotState::refresh_dispatch_index() {
  if (dispatch_index_ != nullptr) dispatch_index_->refresh(*this);
}

}  // namespace dg::sched
