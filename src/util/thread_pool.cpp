#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <stdexcept>
#include <utility>

namespace nestflow {

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
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::post(std::function<void()> fn) {
  {
    std::lock_guard lock(mutex_);
    if (stopping_) {
      throw std::runtime_error("ThreadPool::post after shutdown");
    }
    queue_.push_back(std::move(fn));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  const auto lane = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };
  // Lanes catch per index, so their futures only ever carry completion.
  const std::size_t num_lanes = std::min(count, size());
  std::vector<std::future<void>> lanes;
  lanes.reserve(num_lanes);
  try {
    for (std::size_t l = 0; l < num_lanes; ++l) lanes.push_back(submit(lane));
  } catch (...) {
    // Lanes already queued reference this frame: let them drain first.
    for (auto& queued : lanes) queued.wait();
    throw;
  }
  for (auto& queued : lanes) queued.wait();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace nestflow
