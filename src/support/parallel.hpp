// WorkerPool: the library's one thread fan-out (the native ReplicaFleet's
// per-slice shard loop). Header-only, with no dependency on core.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace lucid {

/// A persistent worker pool for repeated parallel loops. Threads are spawned
/// once and each `run` is a wakeup + index handout, so callers that issue
/// many short rounds stay cheap — the native ReplicaFleet drives one `run`
/// per run-slice, thousands per soak. Indices are handed out by an atomic
/// counter, so call costs may be arbitrarily uneven.
///
/// The calling thread participates in the loop, so a pool built with
/// `workers <= 1` holds no threads and `run` degrades to an inline loop.
/// `run` is not reentrant: one loop at a time, from one driver thread.
class WorkerPool {
 public:
  explicit WorkerPool(int workers) {
    const int spares = std::max(1, workers) - 1;  // caller is worker 0
    threads_.reserve(static_cast<std::size_t>(spares));
    for (int i = 0; i < spares; ++i) {
      threads_.emplace_back([this] { worker_loop(); });
    }
  }
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;
  ~WorkerPool() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    wake_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  [[nodiscard]] int workers() const {
    return static_cast<int>(threads_.size()) + 1;
  }

  /// Runs `fn(0..n-1)` across the pool and returns when every index has
  /// completed (and every worker has left the loop body, so callers may
  /// immediately reuse whatever state `fn` touched).
  void run(std::size_t n, const std::function<void(std::size_t)>& fn) {
    if (n == 0) return;
    if (threads_.empty() || n == 1) {
      for (std::size_t i = 0; i < n; ++i) fn(i);
      return;
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      fn_ = &fn;
      total_ = n;
      next_.store(0, std::memory_order_relaxed);
      remaining_ = n;
      ++generation_;
    }
    wake_.notify_all();
    drain();
    std::unique_lock<std::mutex> lk(mu_);
    done_.wait(lk, [this] { return remaining_ == 0 && active_ == 0; });
    // Clear under the lock so a late-waking worker sees an empty batch and
    // goes straight back to sleep instead of touching a dead fn.
    fn_ = nullptr;
    total_ = 0;
  }

 private:
  /// Claims indices until the current batch is exhausted. total_/fn_ are
  /// stable while any thread is inside: `run` only rewrites them when
  /// remaining_ == 0 && active_ == 0, both tracked under mu_.
  void drain() {
    const std::size_t total = total_;
    const std::function<void(std::size_t)>* fn = fn_;
    for (std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
         i < total; i = next_.fetch_add(1, std::memory_order_relaxed)) {
      (*fn)(i);
      std::lock_guard<std::mutex> lk(mu_);
      if (--remaining_ == 0) done_.notify_all();
    }
  }

  void worker_loop() {
    std::uint64_t seen = 0;
    for (;;) {
      std::unique_lock<std::mutex> lk(mu_);
      wake_.wait(lk, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      if (total_ == 0) continue;  // batch already finished; stale wakeup
      ++active_;
      lk.unlock();
      drain();
      lk.lock();
      if (--active_ == 0) done_.notify_all();
    }
  }

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable wake_;
  std::condition_variable done_;
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t total_ = 0;
  std::atomic<std::size_t> next_{0};
  std::size_t remaining_ = 0;  // indices not yet completed
  std::size_t active_ = 0;     // pool threads inside drain()
  std::uint64_t generation_ = 0;
  bool stop_ = false;
};

}  // namespace lucid
