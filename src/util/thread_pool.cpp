#include "util/thread_pool.hpp"

#include <algorithm>

namespace dg::util {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::scoped_lock lock(mutex_);
    stopping_ = true;
  }
  wakeup_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  idle_.wait(lock, [this] { return jobs_.empty() && active_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock lock(mutex_);
      wakeup_.wait(lock, [this] { return stopping_ || !jobs_.empty(); });
      if (jobs_.empty()) return;  // stopping_ and queue drained
      job = std::move(jobs_.front());
      jobs_.pop();
      ++active_;
    }
    job();
    {
      std::scoped_lock lock(mutex_);
      --active_;
      if (jobs_.empty() && active_ == 0) idle_.notify_all();
    }
  }
}

}  // namespace dg::util
