#ifndef TAC_COMMON_PARALLEL_HPP
#define TAC_COMMON_PARALLEL_HPP

/// \file parallel.hpp
/// \brief Minimal shared-memory parallel loop used by compression batches
/// and field generation.
///
/// Uses OpenMP when compiled with it (the HPC-standard path), otherwise a
/// lazily-created shared thread pool (common/thread_pool.hpp) that claims
/// fixed chunks work-stealing style — no per-call thread spawns. Results
/// must not depend on iteration order; every call site partitions disjoint
/// output ranges, so the worker count never changes what is computed —
/// only how fast.
///
/// Loops nest (the level pipeline runs per-group compression inside
/// per-level workers, which call into sz's internal loops): a single
/// process-wide thread budget is divided across nesting levels, so an
/// outer loop over 3 levels on a 16-core machine leaves ~5 workers for
/// each level's inner loops instead of starving them or oversubscribing.
///
/// The worker count can be pinned with set_parallelism (or scoped via
/// ParallelismGuard); the level-pipeline determinism tests sweep it to
/// prove compressed containers are byte-identical at any thread count.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#if defined(_OPENMP)
#include <omp.h>
#else
#include "common/thread_pool.hpp"
#endif

namespace tac {

namespace detail {
inline std::atomic<unsigned>& parallelism_override() {
  static std::atomic<unsigned> n{0};  // 0 = use the hardware count
  return n;
}

/// Workers of an enclosing parallel_for carry the thread budget left for
/// loops they run themselves; 0 means "not inside a loop, full budget".
inline thread_local unsigned tl_nested_budget = 0;
}  // namespace detail

/// Number of workers to use for data-parallel loops: the pinned count if
/// set_parallelism was called with a non-zero value, else the hardware
/// concurrency.
[[nodiscard]] inline unsigned hardware_parallelism() {
  const unsigned pinned =
      detail::parallelism_override().load(std::memory_order_relaxed);
  if (pinned != 0) return pinned;
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

/// Pins the worker count for subsequent parallel_for calls (0 restores the
/// hardware default). Thread-safe; affects the whole process.
inline void set_parallelism(unsigned n) {
  detail::parallelism_override().store(n, std::memory_order_relaxed);
}

/// RAII worker-count pin: restores the previous setting on destruction.
class ParallelismGuard {
 public:
  explicit ParallelismGuard(unsigned n)
      : previous_(detail::parallelism_override().load(
            std::memory_order_relaxed)) {
    set_parallelism(n);
  }
  ~ParallelismGuard() { set_parallelism(previous_); }
  ParallelismGuard(const ParallelismGuard&) = delete;
  ParallelismGuard& operator=(const ParallelismGuard&) = delete;

 private:
  unsigned previous_;
};

/// Runs body(i) for i in [begin, end) across threads. `grain` is the
/// smallest worthwhile chunk; short loops run inline. If any iteration
/// throws, one of the thrown exceptions is rethrown on the calling thread
/// after the loop completes (workers are never abandoned mid-flight).
template <class Body>
void parallel_for(std::size_t begin, std::size_t end, const Body& body,
                  std::size_t grain = 1024) {
  const std::size_t n = end > begin ? end - begin : 0;
  if (n == 0) return;
  const unsigned budget = detail::tl_nested_budget != 0
                              ? detail::tl_nested_budget
                              : hardware_parallelism();
  const std::size_t chunks = std::min<std::size_t>(budget, n / grain);
  if (chunks <= 1) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  // Budget left for loops the workers run themselves.
  const unsigned sub_budget =
      std::max<unsigned>(1, budget / static_cast<unsigned>(chunks));
  std::exception_ptr error;
  std::mutex error_mutex;
  const auto guarded = [&](std::size_t i) {
    try {
      body(i);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!error) error = std::current_exception();
    }
  };
#if defined(_OPENMP)
  // Nested regions are budgeted, not forbidden: an inner loop with
  // sub_budget 1 never opens a region (chunks <= 1 above), so raising the
  // active-level cap cannot oversubscribe.
  if (!omp_in_parallel()) omp_set_max_active_levels(8);
#pragma omp parallel num_threads(static_cast<int>(chunks))
  {
    // OpenMP pools and reuses threads, so save/restore the budget.
    const unsigned saved = detail::tl_nested_budget;
    detail::tl_nested_budget = sub_budget;
#pragma omp for schedule(static)
    for (std::size_t i = begin; i < end; ++i) guarded(i);
    detail::tl_nested_budget = saved;
  }
#else
  // Shared-pool fan-out: one Loop object describes all chunks; idle pool
  // workers steal chunks while the calling thread drains the rest itself,
  // then sleeps only for chunks already executing elsewhere. Chunk c
  // always covers the same index range, so outputs (and therefore
  // containers) are byte-identical at any worker count.
  detail::ThreadPool& pool = detail::ThreadPool::instance();
  auto loop = std::make_shared<detail::ThreadPool::Loop>();
  const std::size_t per = n / chunks;
  loop->chunks = chunks;
  loop->unfinished.store(chunks, std::memory_order_relaxed);
  loop->run_chunk = [begin, end, per, chunks, sub_budget,
                     &guarded](std::size_t c) {
    const std::size_t lo = begin + c * per;
    const std::size_t hi = (c + 1 == chunks) ? end : lo + per;
    // Pool threads (and the helping caller) are reused across loops:
    // save/restore the nested budget exactly like the OpenMP branch.
    const unsigned saved = detail::tl_nested_budget;
    detail::tl_nested_budget = sub_budget;
    for (std::size_t i = lo; i < hi; ++i) guarded(i);
    detail::tl_nested_budget = saved;
  };
  pool.submit(loop);
  pool.drain(*loop);
  pool.wait(*loop);
#endif
  if (error) std::rethrow_exception(error);
}

/// Fewest elements (cells, values) worth a chunk of their own. Waking a
/// worker costs tens of microseconds, and a whole scheduler tick while it
/// shares a CPU with the caller, so a loop over less runs inline and its
/// time does not depend on where the scheduler put the workers.
inline constexpr std::size_t kMinElementsPerChunk = std::size_t{1} << 15;

/// parallel_for grain for a loop whose iterations each cover `elements`
/// elements (a block's cells, say): chunks of at least kMinElementsPerChunk.
[[nodiscard]] inline std::size_t grain_for(std::size_t elements) {
  const std::size_t e = std::max<std::size_t>(elements, 1);
  return (kMinElementsPerChunk + e - 1) / e;
}

}  // namespace tac

#endif  // TAC_COMMON_PARALLEL_HPP
