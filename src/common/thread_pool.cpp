#include "common/thread_pool.hpp"

#include <algorithm>

namespace goodones::common {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::scoped_lock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  auto future = packaged.get_future();
  {
    const std::scoped_lock lock(mutex_);
    tasks_.push(std::move(packaged));
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopping and drained
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();  // packaged_task captures exceptions into the future
  }
}

void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  // A lone chunk gains nothing from a hand-off: run it here and skip the
  // queue round trip and the wake-up of a worker.
  if (n == 1) {
    body(0);
    return;
  }
  // Contiguous chunks instead of one task per index: a million-iteration
  // campaign pays a handful of queue round-trips, not a million. A body that
  // throws aborts the rest of its own chunk; other chunks still run.
  const std::size_t chunks = std::min<std::size_t>(n, std::max<std::size_t>(1, pool.size() * 4));
  const std::size_t chunk_size = (n + chunks - 1) / chunks;

  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t begin = c * chunk_size;
    const std::size_t end = std::min(n, begin + chunk_size);
    futures.push_back(pool.submit([&body, begin, end] {
      for (std::size_t i = begin; i < end; ++i) body(i);
    }));
  }
  // Every future is drained before rethrowing, so no task is left running
  // with dangling references to the caller's stack; the packaged_task
  // captured each chunk's exception, and the first (lowest-index chunk)
  // wins.
  std::exception_ptr first_error;
  for (auto& future : futures) {
    try {
      future.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace goodones::common
