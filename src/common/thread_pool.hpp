// Fixed-size thread pool and a blocking parallel_for built on it.
//
// Training the per-patient forecasters and the random-strategy repetitions
// are embarrassingly parallel; this pool keeps them deterministic by having
// each work item derive its own seed, never sharing RNG state across threads.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace goodones::common {

class ThreadPool {
 public:
  /// Creates `threads` workers (defaults to hardware concurrency, min 1).
  explicit ThreadPool(std::size_t threads = 0);

  /// Joins all workers; pending tasks are completed first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Schedules a task; the future resolves when it completes.
  std::future<void> submit(std::function<void()> task);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::packaged_task<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Runs body(i) for i in [0, n), distributing contiguous index chunks across
/// the pool, and blocks until all chunks finish; a single iteration (n == 1)
/// runs on the calling thread. Exceptions from the body propagate to the
/// caller (the one from the lowest-index chunk is rethrown; that chunk's
/// remaining indices are skipped, other chunks still complete, and the pool
/// stays usable).
void parallel_for(ThreadPool& pool, std::size_t n, const std::function<void(std::size_t)>& body);

}  // namespace goodones::common
