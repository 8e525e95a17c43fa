// Fixed-size thread pool for embarrassingly-parallel simulation replications.
//
// Each submitted job is a fully independent simulation run (own RNG streams,
// own event heap); the pool is only the fan-out mechanism. Futures carry
// results and exceptions back to the caller. Destruction joins all workers
// after draining the queue of already-submitted jobs.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace dg::util {

/// Thread-safety: submit() and wait_idle() may be called concurrently from
/// any number of threads. Jobs themselves must not touch shared mutable
/// state without their own synchronization (dgsched's jobs are whole
/// simulation replications, which share nothing). The destructor drains
/// already-submitted jobs, then joins; do not submit from a job after the
/// destructor has started.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1; 0 means hardware concurrency).
  explicit ThreadPool(std::size_t num_threads = 0);
  /// Drains the queue of already-submitted jobs, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues `fn(args...)`; the returned future yields its result.
  template <typename Fn, typename... Args>
  [[nodiscard]] auto submit(Fn&& fn, Args&&... args)
      -> std::future<std::invoke_result_t<Fn, Args...>> {
    using Result = std::invoke_result_t<Fn, Args...>;
    auto task = std::make_shared<std::packaged_task<Result()>>(
        [fn = std::forward<Fn>(fn),
         ... args = std::forward<Args>(args)]() mutable -> Result {
          return std::invoke(std::move(fn), std::move(args)...);
        });
    std::future<Result> result = task->get_future();
    {
      std::scoped_lock lock(mutex_);
      jobs_.emplace([task = std::move(task)] { (*task)(); });
    }
    wakeup_.notify_one();
    return result;
  }

  /// Blocks until every submitted job has finished executing. Jobs
  /// submitted while waiting extend the wait.
  void wait_idle();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> jobs_;
  std::mutex mutex_;
  std::condition_variable wakeup_;
  std::condition_variable idle_;
  std::size_t active_ = 0;
  bool stopping_ = false;
};

}  // namespace dg::util
