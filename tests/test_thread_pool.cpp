#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace nestflow {
namespace {

TEST(ThreadPool, SubmitReturnsValue) {
  ThreadPool pool(2);
  auto future = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, SubmitPropagatesExceptions) {
  ThreadPool pool(2);
  auto future = pool.submit([]() -> int {
    throw std::runtime_error("boom");
  });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, ZeroThreadsSelectsHardware) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kCount = 10000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.parallel_for(kCount, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, ParallelForZeroCount) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForRethrowsFirstError) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(100,
                                 [](std::size_t i) {
                                   if (i == 37) {
                                     throw std::runtime_error("fail at 37");
                                   }
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ParallelForContinuesAfterError) {
  // Even when one task throws, every index is still visited (the driver
  // does not abandon the remaining work).
  ThreadPool pool(2);
  std::atomic<int> visited{0};
  try {
    pool.parallel_for(1000, [&](std::size_t i) {
      visited.fetch_add(1, std::memory_order_relaxed);
      if (i == 0) throw std::runtime_error("x");
    });
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(visited.load(), 1000);
}

TEST(ThreadPool, ManySmallTasks) {
  ThreadPool pool(4);
  std::vector<std::future<std::size_t>> futures;
  futures.reserve(500);
  for (std::size_t i = 0; i < 500; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (std::size_t i = 0; i < 500; ++i) {
    EXPECT_EQ(futures[i].get(), i * i);
  }
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&done] { done.fetch_add(1); });
    }
  }  // destructor joins after draining
  EXPECT_EQ(done.load(), 50);
}

}  // namespace
}  // namespace nestflow
