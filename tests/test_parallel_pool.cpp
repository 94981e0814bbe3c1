#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hpp"

/// tac::parallel_for semantics that must hold on both the OpenMP path and
/// the shared-thread-pool path: full index coverage, nested loops, pinned
/// worker counts, exception propagation, pool reuse across many calls, and
/// the scheduler: idle workers take nested chunks, and no more than
/// hardware_parallelism() bodies run at once.

namespace tac {
namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{7},
                              std::size_t{64}, std::size_t{1000}}) {
    std::vector<std::atomic<int>> hits(n);
    parallel_for(0, n, [&](std::size_t i) { hits[i].fetch_add(1); },
                 /*grain=*/1);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(hits[i].load(), 1) << "n=" << n << " i=" << i;
  }
}

TEST(ParallelFor, NestedLoopsComplete) {
  ParallelismGuard guard(4);
  constexpr std::size_t kOuter = 8, kInner = 64;
  std::vector<std::size_t> sums(kOuter, 0);
  parallel_for(
      0, kOuter,
      [&](std::size_t o) {
        std::vector<std::size_t> inner(kInner, 0);
        parallel_for(0, kInner, [&](std::size_t i) { inner[i] = i + o; },
                     /*grain=*/1);
        sums[o] = std::accumulate(inner.begin(), inner.end(), std::size_t{0});
      },
      /*grain=*/1);
  for (std::size_t o = 0; o < kOuter; ++o)
    EXPECT_EQ(sums[o], kInner * (kInner - 1) / 2 + o * kInner);
}

TEST(ParallelFor, ThreeDeepNestingDoesNotDeadlock) {
  ParallelismGuard guard(hardware_parallelism());
  std::atomic<std::size_t> total{0};
  parallel_for(
      0, 4,
      [&](std::size_t) {
        parallel_for(
            0, 4,
            [&](std::size_t) {
              parallel_for(0, 4, [&](std::size_t) { total.fetch_add(1); },
                           /*grain=*/1);
            },
            /*grain=*/1);
      },
      /*grain=*/1);
  EXPECT_EQ(total.load(), 64u);
}

TEST(ParallelFor, PinnedSerialRunsInlineOnCallingThread) {
  ParallelismGuard guard(1);
  const auto caller = std::this_thread::get_id();
  std::set<std::thread::id> ids;
  parallel_for(0, 32, [&](std::size_t) { ids.insert(std::this_thread::get_id()); },
               /*grain=*/1);
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(*ids.begin(), caller);
}

TEST(ParallelFor, ExceptionPropagatesAndPoolSurvives) {
  EXPECT_THROW(
      parallel_for(
          0, 256,
          [](std::size_t i) {
            if (i == 17) throw std::runtime_error("boom");
          },
          /*grain=*/1),
      std::runtime_error);
  // The shared pool must stay usable after a throwing loop.
  std::atomic<std::size_t> count{0};
  parallel_for(0, 256, [&](std::size_t) { count.fetch_add(1); },
               /*grain=*/1);
  EXPECT_EQ(count.load(), 256u);
}

TEST(ParallelFor, ManySmallLoopsReuseThePool) {
  // The per-call std::thread version spawned ~worker-count threads per
  // loop; the pool version must stay cheap (and correct) across thousands
  // of short loops, as issued by nested level x group pipelines.
  std::size_t grand = 0;
  for (int round = 0; round < 2000; ++round) {
    std::vector<std::size_t> out(16, 0);
    parallel_for(0, out.size(), [&](std::size_t i) { out[i] = i; },
                 /*grain=*/1);
    grand += std::accumulate(out.begin(), out.end(), std::size_t{0});
  }
  EXPECT_EQ(grand, 2000u * 120u);
}

TEST(ParallelFor, GrainKeepsShortLoopsInline) {
  const auto caller = std::this_thread::get_id();
  std::set<std::thread::id> ids;
  // 100 iterations under the default grain of 1024 -> runs inline.
  parallel_for(0, 100,
               [&](std::size_t) { ids.insert(std::this_thread::get_id()); });
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(*ids.begin(), caller);
}

TEST(ParallelFor, GrainForKeepsSmallBlockLoopsInline) {
  EXPECT_EQ(grain_for(0), kMinElementsPerChunk);
  EXPECT_EQ(grain_for(1000), (kMinElementsPerChunk + 999) / 1000);
  EXPECT_EQ(grain_for(kMinElementsPerChunk), 1u);
  EXPECT_EQ(grain_for(10 * kMinElementsPerChunk), 1u);

  ParallelismGuard guard(4);
  const auto caller = std::this_thread::get_id();
  std::set<std::thread::id> ids;
  // 16 blocks of 512 cells: 8192 cells in all, one chunk's worth.
  parallel_for(0, 16,
               [&](std::size_t) { ids.insert(std::this_thread::get_id()); },
               grain_for(512));
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(*ids.begin(), caller);
  // Blocks large enough for a chunk each still cover every index once.
  std::vector<std::atomic<int>> hits(8);
  parallel_for(0, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); },
               grain_for(kMinElementsPerChunk));
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// An outer iteration that ends at once must not leave its thread idle
// while its sibling runs a many-chunk inner loop: the inner chunks are
// shared with it.
TEST(ParallelScheduler, IdleWorkerTakesNestedChunks) {
  ParallelismGuard guard(2);
  std::mutex ids_mutex;
  std::set<std::thread::id> inner_ids;
  parallel_for(
      0, 2,
      [&](std::size_t o) {
        if (o != 0) return;
        parallel_for(
            0, 64,
            [&](std::size_t) {
              {
                const std::lock_guard<std::mutex> lock(ids_mutex);
                inner_ids.insert(std::this_thread::get_id());
              }
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
            },
            /*grain=*/1);
      },
      /*grain=*/1);
  EXPECT_GE(inner_ids.size(), 2u);
}

/// Hands `loop` a body that sleeps briefly and returns the most such bodies
/// that ran at once.
template <class Loop>
int peak_in_flight(const Loop& loop) {
  std::atomic<int> in_flight{0};
  std::atomic<int> peak{0};
  const auto body = [&] {
    const int now = in_flight.fetch_add(1) + 1;
    int seen = peak.load();
    while (now > seen && !peak.compare_exchange_weak(seen, now)) {
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    in_flight.fetch_sub(1);
  };
  loop(body);
  return peak.load();
}

TEST(ParallelScheduler, InFlightBodiesNeverExceedParallelism) {
  for (const unsigned pin : {1u, 2u, 4u}) {
    ParallelismGuard guard(pin);
    const int flat = peak_in_flight([](const auto& body) {
      parallel_for(0, 64, [&](std::size_t) { body(); }, /*grain=*/1);
    });
    EXPECT_LE(flat, static_cast<int>(pin)) << "flat loop, pin " << pin;
    // Nested: only the inner bodies count; an outer body waiting for its
    // inner loop runs nothing itself.
    const int nested = peak_in_flight([](const auto& body) {
      parallel_for(
          0, 6,
          [&](std::size_t) {
            parallel_for(0, 16, [&](std::size_t) { body(); }, /*grain=*/1);
          },
          /*grain=*/1);
    });
    EXPECT_LE(nested, static_cast<int>(pin)) << "nested loops, pin " << pin;
  }
}

struct NestedFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

TEST(ParallelScheduler, NestedExceptionReachesOuterCaller) {
  for (const unsigned pin : {1u, 2u, 4u}) {
    ParallelismGuard guard(pin);
    std::atomic<std::size_t> ran{0};
    try {
      parallel_for(
          0, 8,
          [&](std::size_t o) {
            parallel_for(
                0, 32,
                [&](std::size_t i) {
                  ran.fetch_add(1);
                  if (o == 5 && i == 19) throw NestedFailure("inner 5/19");
                },
                /*grain=*/1);
          },
          /*grain=*/1);
      ADD_FAILURE() << "no exception at pin " << pin;
    } catch (const NestedFailure& e) {
      EXPECT_STREQ(e.what(), "inner 5/19");
    }
    EXPECT_GT(ran.load(), 0u);
    // Both paths stay usable after the failure.
    std::atomic<std::size_t> after{0};
    parallel_for(0, 128, [&](std::size_t) { after.fetch_add(1); },
                 /*grain=*/1);
    EXPECT_EQ(after.load(), 128u);
  }
}

#if !defined(_OPENMP)
/// Threads of this process, from /proc/self/status; 0 where unreadable.
unsigned process_threads() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "Threads:") {
      unsigned n = 0;
      status >> n;
      return n;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0;
}

/// Distinct threads that ran a body of 64 wide loops.
std::size_t body_threads() {
  std::mutex ids_mutex;
  std::set<std::thread::id> ids;
  for (int rep = 0; rep < 64; ++rep)
    parallel_for(
        0, 8,
        [&](std::size_t) {
          {
            const std::lock_guard<std::mutex> lock(ids_mutex);
            ids.insert(std::this_thread::get_id());
          }
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        },
        /*grain=*/1);
  return ids.size();
}
#endif

// A process whose pool is first created under a pin of two runs loop
// bodies on two threads, the caller included, and starts no more; a
// larger pin grows the pool to match. The statement runs in a fresh
// process, where no earlier test has created the pool.
TEST(ThreadPoolSize, PoolFollowsThePinnedCount) {
#if defined(_OPENMP)
  GTEST_SKIP() << "OpenMP path: the runtime owns the worker threads";
#else
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        // A sanitizer's helper thread, if any, starts with the first
        // thread: count the pool's threads from after that.
        std::thread([] {}).join();
        const unsigned base = process_threads();
        bool ok = true;
        for (const unsigned pin : {2u, 3u}) {
          const ParallelismGuard guard(pin);
          const std::size_t ids = body_threads();
          const unsigned workers = process_threads() - base;
          std::fprintf(stderr, "pin %u: %zu body threads, %u workers\n", pin,
                       ids, workers);
          ok = ok && ids <= pin && (base == 0 || workers == pin - 1);
        }
        std::exit(ok ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
#endif
}

}  // namespace
}  // namespace tac
