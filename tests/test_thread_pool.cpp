// Tests for common/thread_pool.hpp: ordered results, determinism at any
// job count, exception propagation, nested-map handling, and a raw
// submit/wait stress run (exercised under TSan via the tsan preset).
#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/rng.hpp"

namespace mcs::common {
namespace {

/// RAII guard so a test's --jobs override never leaks into other tests.
class JobsGuard {
 public:
  explicit JobsGuard(std::size_t jobs) : saved_(default_jobs()) {
    set_default_jobs(jobs);
  }
  ~JobsGuard() { set_default_jobs(saved_); }

 private:
  std::size_t saved_;
};

TEST(ThreadPool, HardwareJobsIsPositive) {
  EXPECT_GE(hardware_jobs(), 1U);
  EXPECT_GE(default_jobs(), 1U);
}

TEST(ThreadPool, SetDefaultJobsZeroMeansHardware) {
  const JobsGuard guard(0);
  EXPECT_EQ(default_jobs(), hardware_jobs());
}

TEST(ThreadPool, ParallelMapPreservesIndexOrder) {
  const JobsGuard guard(4);
  const std::vector<std::size_t> out =
      parallel_map(100, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 100U);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPool, ParallelMapEmptyAndSingle) {
  const JobsGuard guard(4);
  EXPECT_TRUE(parallel_map(0, [](std::size_t i) { return i; }).empty());
  const auto one = parallel_map(1, [](std::size_t i) { return i + 7; });
  ASSERT_EQ(one.size(), 1U);
  EXPECT_EQ(one[0], 7U);
}

TEST(ThreadPool, ParallelMapBitIdenticalAcrossJobCounts) {
  // Every item derives its stream from index_seed, so the map must return
  // the same bits no matter how many workers execute it.
  auto workload = [](std::uint64_t base) {
    return parallel_map(64, [base](std::size_t i) {
      Rng rng(index_seed(base, i));
      double acc = 0.0;
      for (int k = 0; k < 100; ++k) acc += rng.uniform01();
      return acc;
    });
  };
  std::vector<double> serial;
  {
    const JobsGuard guard(1);
    serial = workload(42);
  }
  for (const std::size_t jobs : {2U, 4U, 8U}) {
    const JobsGuard guard(jobs);
    const std::vector<double> parallel = workload(42);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
      EXPECT_DOUBLE_EQ(parallel[i], serial[i]) << "jobs=" << jobs;
  }
}

TEST(ThreadPool, IndexSeedDecorrelatesNeighbours) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 1000; ++i) seeds.insert(index_seed(7, i));
  EXPECT_EQ(seeds.size(), 1000U);  // no collisions across indices
  EXPECT_NE(index_seed(7, 0), index_seed(8, 0));  // base matters too
}

TEST(ThreadPool, ChunkedMapPreservesIndexOrder) {
  const JobsGuard guard(4);
  for (const std::size_t grain : {0U, 1U, 7U, 100U, 5000U}) {
    const std::vector<std::size_t> out = parallel_map_chunked(
        1000, grain, [](std::size_t i) { return i * 3 + 1; });
    ASSERT_EQ(out.size(), 1000U) << "grain=" << grain;
    for (std::size_t i = 0; i < out.size(); ++i)
      EXPECT_EQ(out[i], i * 3 + 1) << "grain=" << grain;
  }
}

TEST(ThreadPool, ChunkedForWritesEverySlotExactlyOnce) {
  const JobsGuard guard(4);
  for (const std::size_t grain : {0U, 1U, 13U, 512U}) {
    std::vector<int> hits(997, 0);  // prime count: last chunk is ragged
    parallel_for_chunked(hits.size(), grain,
                         [&](std::size_t i) { ++hits[i]; });
    for (const int h : hits) EXPECT_EQ(h, 1) << "grain=" << grain;
  }
}

TEST(ThreadPool, AutoGrainIsSaneAtEveryScale) {
  // Auto grain must never be 0, never exceed what leaves each pump some
  // work, and give a million-item sweep a few chunks per pump.
  EXPECT_EQ(detail::auto_grain(1, 4), 1U);
  EXPECT_EQ(detail::auto_grain(8, 4), 1U);
  EXPECT_GE(detail::auto_grain(1000000, 4), 1U);
  const std::size_t grain = detail::auto_grain(1000000, 4);
  const std::size_t chunks = (1000000 + grain - 1) / grain;
  EXPECT_GE(chunks, 8U);    // several chunks per pump
  EXPECT_LE(chunks, 64U);   // dispatch count stays trivial
}

TEST(ThreadPool, ChunkedExceptionPropagatesAndPoolSurvives) {
  const JobsGuard guard(4);
  EXPECT_THROW(parallel_for_chunked(1000, 64,
                                    [](std::size_t i) {
                                      if (i == 777)
                                        throw std::runtime_error("item 777");
                                    }),
               std::runtime_error);
  const auto out =
      parallel_map_chunked(16, 4, [](std::size_t i) { return i; });
  EXPECT_EQ(out.size(), 16U);
}

TEST(ThreadPool, NestedChunkedMapRunsInline) {
  const JobsGuard guard(4);
  const std::vector<std::size_t> sums =
      parallel_map_chunked(8, 2, [](std::size_t i) {
        const std::vector<std::size_t> inner = parallel_map_chunked(
            100, 10, [i](std::size_t j) { return i * 1000 + j; });
        std::size_t s = 0;
        for (const std::size_t v : inner) s += v;
        return s;
      });
  for (std::size_t i = 0; i < sums.size(); ++i)
    EXPECT_EQ(sums[i], i * 1000 * 100 + 99 * 100 / 2);
}

TEST(ThreadPool, ParallelForWritesEverySlot) {
  const JobsGuard guard(4);
  std::vector<int> hits(500, 0);
  parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ExceptionPropagatesFromWorker) {
  const JobsGuard guard(4);
  EXPECT_THROW(parallel_for(64,
                            [](std::size_t i) {
                              if (i == 13)
                                throw std::runtime_error("item 13 failed");
                            }),
               std::runtime_error);
  // The pool must stay usable after a failed batch.
  const auto out = parallel_map(8, [](std::size_t i) { return i; });
  EXPECT_EQ(out.size(), 8U);
}

TEST(ThreadPool, NestedMapRunsInlineWithoutDeadlock) {
  const JobsGuard guard(4);
  // Outer parallel region; each item issues another parallel_map, which
  // must execute inline on the worker (same results, no new parallelism,
  // no deadlock even when items outnumber workers).
  const std::vector<std::size_t> sums =
      parallel_map(16, [](std::size_t i) {
        const std::vector<std::size_t> inner =
            parallel_map(32, [i](std::size_t j) { return i * 100 + j; });
        return std::accumulate(inner.begin(), inner.end(), std::size_t{0});
      });
  for (std::size_t i = 0; i < sums.size(); ++i)
    EXPECT_EQ(sums[i], i * 100 * 32 + 31 * 32 / 2);
}

TEST(ThreadPool, NestedRegionInCallerPumpStaysWithinJobs) {
  // The caller is one of the `jobs` pumps, so a region nested in its pump
  // must run inline like one nested on a worker: a two-level map at
  // jobs 2 computes on at most 2 threads, not on an idle third worker.
  const JobsGuard guard(2);
  std::mutex mutex;
  std::set<std::thread::id> threads;
  const std::vector<std::size_t> sums = parallel_map(8, [&](std::size_t i) {
    const std::vector<std::size_t> inner = parallel_map(8, [&](std::size_t j) {
      {
        const std::lock_guard<std::mutex> lock(mutex);
        threads.insert(std::this_thread::get_id());
      }
      // Long enough that an idle worker would pick up a nested pump.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      return i * 8 + j;
    });
    return std::accumulate(inner.begin(), inner.end(), std::size_t{0});
  });
  for (std::size_t i = 0; i < sums.size(); ++i)
    EXPECT_EQ(sums[i], i * 64 + 28);
  EXPECT_LE(threads.size(), 2U);
}

TEST(ThreadPool, SubmitFromOwnWorkerIsRejected) {
  ThreadPool pool(2);
  std::atomic<bool> rejected{false};
  pool.submit([&] {
    try {
      // Self-submission could starve a waiter; the pool rejects it.
      pool.submit([] {});
    } catch (const std::logic_error&) {
      rejected = true;
    }
  });
  pool.wait_idle();
  EXPECT_TRUE(rejected);
}

TEST(ThreadPool, ConcurrentSubmitStress) {
  // Hammer one pool from several producer threads while workers drain the
  // queue; every task must run exactly once. Run under -fsanitize=thread
  // (tsan preset) to verify the queue and counters are race-free.
  ThreadPool pool(4);
  std::atomic<std::size_t> executed{0};
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kTasksPerProducer = 500;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (std::size_t t = 0; t < kTasksPerProducer; ++t)
        pool.submit([&] {
          executed.fetch_add(1, std::memory_order_relaxed);
        });
    });
  }
  for (std::thread& producer : producers) producer.join();
  pool.wait_idle();
  EXPECT_EQ(executed.load(), kProducers * kTasksPerProducer);
}

TEST(ThreadPool, ManySmallBatchesStress) {
  const JobsGuard guard(4);
  // Repeated short parallel regions (the GA generation pattern): batch
  // accounting must never lose or duplicate an item.
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> count{0};
    parallel_for(8, [&](std::size_t) {
      count.fetch_add(1, std::memory_order_relaxed);
    });
    ASSERT_EQ(count.load(), 8);
  }
}

}  // namespace
}  // namespace mcs::common
