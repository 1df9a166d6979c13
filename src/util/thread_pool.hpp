// Fixed-size worker pool for fanning independent work out across cores.
//
// The experiment drivers run one (topology, workload, config) cell — or
// one Monte Carlo trial — per task; cells are deterministic on their own
// seeds, so parallel order never changes results.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace nestflow {

class ThreadPool {
 public:
  /// num_threads == 0 selects hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t num_threads = 0);

  /// Drains outstanding tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues a task and returns its future. fn must be invocable with no
  /// arguments; exceptions propagate through the future.
  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using Result = std::invoke_result_t<Fn>;
    auto task = std::make_shared<std::packaged_task<Result()>>(
        std::forward<Fn>(fn));
    std::future<Result> future = task->get_future();
    post([task]() { (*task)(); });
    return future;
  }

  /// Runs fn(i) for i in [0, count) across the pool and blocks until all
  /// complete. Every index is attempted even after a failure; the first
  /// exception (if any) is rethrown once all indices have run.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

 private:
  void post(std::function<void()> fn);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace nestflow
