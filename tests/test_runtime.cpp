// Unit tests for intooa::runtime — thread pool and futures, deterministic
// parallel primitives (identical results for any thread count) and campaign
// fan-out ordering. Run checkpoints are tested in test_bench_common.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/campaign_runner.hpp"
#include "runtime/executor.hpp"
#include "runtime/parallel.hpp"
#include "runtime/thread_pool.hpp"
#include "util/rng.hpp"

namespace {

using namespace intooa;
using namespace intooa::runtime;

TEST(ThreadPool, RunsTasksAndDeliversResults) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 64; ++i) EXPECT_EQ(futures[i].get(), i * i);
}

TEST(ThreadPool, PropagatesExceptionsThroughFutures) {
  ThreadPool pool(2);
  auto future = pool.submit(
      []() -> int { throw std::runtime_error("task failed"); });
  EXPECT_THROW(future.get(), std::runtime_error);
  // The pool survives a throwing task.
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, RequiresAtLeastOneWorker) {
  EXPECT_THROW(ThreadPool pool(0), std::invalid_argument);
}

TEST(ThreadPool, DrainsQueueOnDestruction) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&done] { done.fetch_add(1); });
    }
  }  // destructor must run every queued task before joining
  EXPECT_EQ(done.load(), 100);
}

TEST(ParallelFor, InlineWithoutPool) {
  std::vector<int> out(10, 0);
  parallel_for(nullptr, out.size(), [&](std::size_t i) {
    out[i] = static_cast<int>(i) + 1;
  });
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i) + 1);
  }
}

TEST(ParallelFor, MatchesSerialWithPool) {
  ThreadPool pool(4);
  std::vector<int> serial(1000), parallel(1000);
  parallel_for(nullptr, serial.size(),
               [&](std::size_t i) { serial[i] = static_cast<int>(i * 3); });
  parallel_for(&pool, parallel.size(),
               [&](std::size_t i) { parallel[i] = static_cast<int>(i * 3); });
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelFor, RethrowsLowestFailingIndex) {
  ThreadPool pool(4);
  try {
    parallel_for(&pool, 100, [](std::size_t i) {
      if (i == 7 || i == 93) {
        throw std::runtime_error("fail at " + std::to_string(i));
      }
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "fail at 7");  // never "fail at 93"
  }
}

TEST(ParallelFor, NestedRegionsRunInlineWithoutDeadlock) {
  // Outer tasks saturate every worker; each one then opens an inner
  // parallel region on the same pool. The inner regions must run inline on
  // the worker (blocking on queued sub-tasks would deadlock the pool).
  ThreadPool pool(2);
  std::vector<int> sums(4, 0);
  parallel_for(&pool, sums.size(), [&](std::size_t outer) {
    EXPECT_TRUE(ThreadPool::on_worker_thread());
    std::vector<int> inner(8, 0);
    parallel_for(&pool, inner.size(), [&](std::size_t i) {
      inner[i] = static_cast<int>(outer * 100 + i);
    });
    sums[outer] = std::accumulate(inner.begin(), inner.end(), 0);
  });
  for (std::size_t outer = 0; outer < sums.size(); ++outer) {
    EXPECT_EQ(sums[outer], static_cast<int>(outer) * 800 + 28);
  }
  EXPECT_FALSE(ThreadPool::on_worker_thread());
}

TEST(ParallelMap, ResultsInIndexOrder) {
  ThreadPool pool(4);
  const auto result = parallel_map(
      &pool, 257, [](std::size_t i) { return static_cast<double>(i) * 0.5; });
  ASSERT_EQ(result.size(), 257u);
  for (std::size_t i = 0; i < result.size(); ++i) {
    EXPECT_EQ(result[i], static_cast<double>(i) * 0.5);
  }
}

/// Each task draws from its private stream; the combined transcript must be
/// a pure function of the parent seed, whatever the pool size.
std::vector<std::uint64_t> draw_transcript(ThreadPool* pool,
                                           std::uint64_t seed) {
  util::Rng rng(seed);
  const auto rows = deterministic_parallel_map(
      pool, 32, rng, [](std::size_t i, util::Rng& stream) {
        std::vector<std::uint64_t> draws;
        for (std::size_t k = 0; k <= i % 5; ++k) {
          draws.push_back(stream.next_u64());
        }
        return draws;
      });
  std::vector<std::uint64_t> flat;
  for (const auto& row : rows) flat.insert(flat.end(), row.begin(), row.end());
  flat.push_back(rng.next_u64());  // parent advanced identically, too
  return flat;
}

TEST(DeterministicParallelMap, IdenticalForAnyThreadCount) {
  const auto serial = draw_transcript(nullptr, 99);
  ThreadPool two(2), eight(8);
  EXPECT_EQ(draw_transcript(&two, 99), serial);
  EXPECT_EQ(draw_transcript(&eight, 99), serial);
}

TEST(DeterministicParallelMap, ChildStreamsAreDistinct) {
  util::Rng rng(5);
  const auto firsts = deterministic_parallel_map(
      nullptr, 16, rng,
      [](std::size_t, util::Rng& stream) { return stream.next_u64(); });
  for (std::size_t a = 0; a < firsts.size(); ++a) {
    for (std::size_t b = a + 1; b < firsts.size(); ++b) {
      EXPECT_NE(firsts[a], firsts[b]);
    }
  }
}

TEST(Executor, ThreadCountConfiguration) {
  EXPECT_GE(hardware_threads(), 1u);
  set_thread_count(1);
  EXPECT_EQ(thread_count(), 1u);
  EXPECT_EQ(global_pool(), nullptr);
  set_thread_count(3);
  ASSERT_NE(global_pool(), nullptr);
  EXPECT_EQ(global_pool()->size(), 3u);
  set_thread_count(0);  // 0 = hardware concurrency
  EXPECT_EQ(thread_count(), hardware_threads());
  set_thread_count(1);  // leave the process serial for other tests
}

TEST(CampaignRunner, ResultsInJobOrder) {
  ThreadPool pool(4);
  const CampaignRunner runner(&pool);
  std::vector<CampaignJob> jobs(20);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i] = {"job " + std::to_string(i), 1000 + i, i};
  }
  const auto results = runner.run<std::uint64_t>(
      jobs, [](const CampaignJob& job) { return job.seed * 2; });
  ASSERT_EQ(results.size(), jobs.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], (1000 + i) * 2);
  }
}

}  // namespace
