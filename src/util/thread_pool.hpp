// Fixed-size thread pool with a parallel_for convenience.
//
// Used by the single-node baselines (the multithreaded muBLASTP partitioner,
// the PowerLyra partitioner), by sortlib's parallel phases, and by the
// workflow engine to build a run's partitions from rank 0's gathered bytes
// once the run is over. The simulated message-passing ranks do NOT run on
// this pool: they are fibers over the mpsim scheduler's own workers, which
// keep each rank's CPU-time clock per rank (mpsim/sched.hpp).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace papar {

class ThreadPool {
 public:
  /// Spawns `threads` workers (at least 1).
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues a task; tasks may not throw.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void wait_idle();

  /// Splits [0, n) into roughly equal chunks and runs
  /// body(begin, end, chunk_index) on the pool, blocking until done.
  /// If a chunk throws, the first exception is re-thrown here after all
  /// chunks finish (chunks that have not started yet skip their body), and
  /// the pool remains usable.
  void parallel_for(std::size_t n, const std::function<void(std::size_t, std::size_t, std::size_t)>& body);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t active_ = 0;
  bool stop_ = false;
};

}  // namespace papar
