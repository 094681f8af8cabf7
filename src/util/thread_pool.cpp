#include "util/thread_pool.h"

#include <algorithm>

namespace vbs {

ThreadPool::ThreadPool(int threads) {
  const int n = std::max(1, threads);
  workers_.reserve(static_cast<std::size_t>(n - 1));
  for (int rank = 1; rank < n; ++rank) {
    workers_.emplace_back([this, rank] { worker_main(rank); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(m_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::drain(int rank, const Fn& fn, std::size_t n) {
  while (!abort_) {
    const std::size_t i = next_++;
    if (i >= n) return;
    try {
      fn(rank, i);
    } catch (...) {
      std::lock_guard<std::mutex> lk(m_);
      if (!error_) error_ = std::current_exception();
      abort_ = true;
    }
  }
}

void ThreadPool::worker_main(int rank) {
  std::uint64_t seen = 0;
  for (;;) {
    const Fn* job = nullptr;
    std::size_t n = 0;
    {
      std::unique_lock<std::mutex> lk(m_);
      work_cv_.wait(lk, [&] {
        return stop_ || (job_ != nullptr && job_id_ != seen);
      });
      if (stop_) return;
      seen = job_id_;
      job = job_;
      n = job_n_;
      ++active_workers_;
    }
    drain(rank, *job, n);
    {
      std::lock_guard<std::mutex> lk(m_);
      if (--active_workers_ == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::size_t n, const Fn& fn) {
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(0, i);
    return;
  }
  {
    // The previous job's completion wait guarantees no worker is still
    // inside drain(), so the cursor can be reset safely.
    std::lock_guard<std::mutex> lk(m_);
    next_ = 0;
    abort_ = false;
    job_ = &fn;
    job_n_ = n;
    ++job_id_;
  }
  work_cv_.notify_all();
  drain(0, fn, n);
  // Every index is claimed once the caller's drain returns; what may still
  // run is held by workers inside drain(). Workers that never woke for this
  // job find job_ cleared (or a later job) and stay out of it.
  std::unique_lock<std::mutex> lk(m_);
  done_cv_.wait(lk, [&] { return active_workers_ == 0; });
  job_ = nullptr;
  if (error_) {
    std::exception_ptr e = error_;
    error_ = nullptr;
    lk.unlock();
    std::rethrow_exception(e);
  }
}

}  // namespace vbs
