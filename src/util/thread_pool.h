// Small thread pool for deterministic fork/join parallelism.
//
// The pool owns `threads - 1` worker threads; the caller participates as
// rank 0, so `ThreadPool(1)` spawns nothing and parallel_for degenerates to
// a plain loop. parallel_for hands out the indices of [0, n) one at a time
// from a shared atomic cursor: whichever participant is free claims the
// next index, which balances skewed per-item costs (e.g. one hard stream
// entry among many easy ones) without any up-front cost model.
//
// Scheduling order is nondeterministic; callers that need reproducible
// results must make item tasks independent and merge them in a fixed order
// afterwards (see decode_images in vbs/devirtualizer.h, the run-time
// decode routine the controller and the service share, and the pool's one
// user). parallel_for is fork/join: it returns only after every index has
// run, so data written by tasks is visible to the caller afterwards. One
// job at a time: the pool must not be entered concurrently from two
// threads.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace vbs {

class ThreadPool {
 public:
  using Fn = std::function<void(int, std::size_t)>;

  /// `threads` is the total participant count including the caller;
  /// clamped below at 1.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total participants (workers + the calling thread).
  int size() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs fn(rank, index) for every index in [0, n) and waits for all of
  /// them. `rank` is in [0, size()) and is stable within one item, so it
  /// can index per-thread scratch arenas. The first exception thrown by an
  /// item is rethrown here (remaining items may be skipped).
  void parallel_for(std::size_t n, const Fn& fn);

 private:
  void worker_main(int rank);
  /// Claims and runs indices until the cursor passes n or an item threw.
  void drain(int rank, const Fn& fn, std::size_t n);

  std::vector<std::thread> workers_;

  std::mutex m_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const Fn* job_ = nullptr;
  std::size_t job_n_ = 0;
  std::uint64_t job_id_ = 0;
  int active_workers_ = 0;  ///< workers currently inside drain()
  bool stop_ = false;
  std::exception_ptr error_;
  std::atomic<std::size_t> next_{0};  ///< the next unclaimed index
  std::atomic<bool> abort_{false};  ///< set on first error: skip the rest
};

}  // namespace vbs
