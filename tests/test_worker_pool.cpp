// WorkerPool (support/parallel.hpp), the one thread fan-out in the library:
// the native ReplicaFleet drives one `run` per run-slice through it. This
// file carries the "concurrency" CTest label, so the debug-tsan preset races
// the pool's batch handout, completion wait and shutdown.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <thread>
#include <vector>

#include "support/parallel.hpp"

namespace lucid {
namespace {

TEST(WorkerPool, EveryIndexRunsExactlyOnceAcrossRepeatedRounds) {
  WorkerPool pool(4);
  ASSERT_EQ(pool.workers(), 4);
  constexpr std::size_t kIndices = 257;
  std::vector<std::atomic<int>> counts(kIndices);
  for (int round = 1; round <= 100; ++round) {
    pool.run(kIndices, [&](std::size_t i) {
      // A few slow indices keep workers busy after the last index is
      // claimed, so a run() that returned early would see them uncounted.
      if (i % 32 == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      counts[i].fetch_add(1, std::memory_order_relaxed);
    });
    // run() returns only after every index has completed, so the counts are
    // exact between rounds.
    for (std::size_t i = 0; i < kIndices; ++i) {
      ASSERT_EQ(counts[i].load(std::memory_order_relaxed), round)
          << "round " << round << ", index " << i;
    }
  }
}

TEST(WorkerPool, ZeroIndicesRunNothingAndOneRunsOnTheCaller) {
  WorkerPool pool(4);
  int calls = 0;
  pool.run(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);

  std::thread::id ran_on;
  pool.run(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(WorkerPool, OneWorkerRunsInlineOnTheCaller) {
  for (const int workers : {-3, 0, 1}) {
    SCOPED_TRACE(workers);
    WorkerPool pool(workers);
    EXPECT_EQ(pool.workers(), 1);
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    pool.run(5, [&](std::size_t i) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(i);
    });
    // No thread to hand indices to: the caller walks them in order.
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  }
}

TEST(WorkerPool, DestroysCleanlyWithIdleWorkers) {
  // Never-used pool: its workers are parked on the first wakeup.
  { WorkerPool pool(6); }
  // Used pool: its workers have gone back to sleep after a batch.
  std::atomic<int> sum{0};
  {
    WorkerPool pool(6);
    pool.run(64, [&](std::size_t i) {
      sum.fetch_add(static_cast<int>(i), std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(sum.load(), 64 * 63 / 2);
}

}  // namespace
}  // namespace lucid
