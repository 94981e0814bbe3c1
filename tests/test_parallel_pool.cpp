#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "common/parallel.hpp"

/// tac::parallel_for semantics that must hold on both the OpenMP path and
/// the shared-thread-pool path: full index coverage, nested loops, pinned
/// worker counts, exception propagation, and pool reuse across many calls.

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

}  // namespace
}  // namespace tac
