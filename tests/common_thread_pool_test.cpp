#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace goodones::common {
namespace {

TEST(ThreadPool, ExecutesSubmittedTask) {
  ThreadPool pool(2);
  std::atomic<int> value{0};
  pool.submit([&] { value = 42; }).get();
  EXPECT_EQ(value.load(), 42);
}

TEST(ThreadPool, DefaultSizeIsPositive) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, RunsManyTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([&] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, TaskExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto future = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ZeroIterationsIsNoop) {
  ThreadPool pool(2);
  parallel_for(pool, 0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ParallelFor, LoneIterationRunsOnTheCallingThread) {
  ThreadPool pool(2);
  std::thread::id ran_on;
  parallel_for(pool, 1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(ParallelFor, PropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(parallel_for(pool, 100,
                            [](std::size_t i) {
                              if (i == 50) throw std::runtime_error("halt");
                            }),
               std::runtime_error);
}

TEST(ParallelFor, PropagatesExceptionFromEveryChunkPosition) {
  // Chunked dispatch must not lose a throw from any position: first index,
  // a middle chunk, and the very last index.
  ThreadPool pool(4);
  for (const std::size_t bad : {std::size_t{0}, std::size_t{499}, std::size_t{999}}) {
    EXPECT_THROW(parallel_for(pool, 1000,
                              [bad](std::size_t i) {
                                if (i == bad) throw std::runtime_error("halt");
                              }),
                 std::runtime_error)
        << "throwing index " << bad;
  }
}

TEST(ParallelFor, PoolStaysUsableAfterBodyThrows) {
  ThreadPool pool(4);
  EXPECT_THROW(
      parallel_for(pool, 64, [](std::size_t) { throw std::runtime_error("boom"); }),
      std::runtime_error);
  // The pool must have drained the failed run completely and keep working.
  std::atomic<int> counter{0};
  parallel_for(pool, 64, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 64);
}

TEST(ParallelFor, OtherChunksCompleteWhenOneThrows) {
  // A throw skips the rest of its own chunk but every other chunk runs to
  // completion before parallel_for rethrows.
  ThreadPool pool(4);
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  EXPECT_THROW(parallel_for(pool, n,
                            [&](std::size_t i) {
                              if (i == 0) throw std::runtime_error("first chunk dies");
                              hits[i].fetch_add(1);
                            }),
               std::runtime_error);
  std::size_t executed = 0;
  for (const auto& h : hits) executed += static_cast<std::size_t>(h.load());
  // At least everything outside the throwing chunk ran exactly once.
  const std::size_t chunk_size = (n + pool.size() * 4 - 1) / (pool.size() * 4);
  EXPECT_GE(executed, n - chunk_size);
  for (const auto& h : hits) EXPECT_LE(h.load(), 1);
}

TEST(ParallelFor, ExceptionTypeIsPreserved) {
  ThreadPool pool(2);
  try {
    parallel_for(pool, 16, [](std::size_t i) {
      if (i == 7) throw std::invalid_argument("specific type");
    });
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "specific type");
  }
}

TEST(ParallelFor, SingleThreadPoolRunsAllIterations) {
  ThreadPool pool(1);
  std::vector<int> out(257, 0);
  parallel_for(pool, out.size(), [&](std::size_t i) { out[i] = 1; });
  for (const int v : out) EXPECT_EQ(v, 1);
}

TEST(ParallelFor, ResultsMatchSerialComputation) {
  ThreadPool pool(8);
  std::vector<double> out(500);
  parallel_for(pool, out.size(), [&](std::size_t i) {
    out[i] = static_cast<double>(i) * 2.0;
  });
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_DOUBLE_EQ(out[i], 2.0 * i);
}

}  // namespace
}  // namespace goodones::common
