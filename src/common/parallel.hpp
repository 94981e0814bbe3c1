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
/// per-level workers, which call into sz's internal loops), and nested
/// loops share one set of workers: a loop is split into chunks, and any
/// worker that is idle, including one whose own outer iteration finished
/// early, takes a pending chunk of any loop. At most
/// hardware_parallelism() threads run chunks at once. Loops are split into
/// more chunks than there are workers (each still at least `grain`
/// iterations), so a worker that frees up mid-loop finds work.
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
#include <utility>

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

namespace detail {
/// Chunks per worker a wide loop is split into: enough that a worker that
/// finishes early finds pending chunks, few enough that scheduling stays
/// cheap next to a chunk of at least `grain` iterations.
inline constexpr std::size_t kChunksPerWorker = 4;

/// Chunk `c` of `n` iterations from `begin` split into `chunks` near-equal
/// chunks: the first n % chunks chunks take one iteration more.
[[nodiscard]] inline std::pair<std::size_t, std::size_t> chunk_range(
    std::size_t begin, std::size_t n, std::size_t chunks, std::size_t c) {
  const std::size_t per = n / chunks;
  const std::size_t extra = n % chunks;
  const std::size_t lo = begin + c * per + std::min(c, extra);
  return {lo, lo + per + (c < extra ? 1 : 0)};
}
}  // namespace detail

/// Runs body(i) for i in [begin, end) across threads. `grain` is the
/// smallest worthwhile chunk; short loops run inline. If any iteration
/// throws, one of the thrown exceptions is rethrown on the calling thread
/// after the loop completes (workers are never abandoned mid-flight); the
/// rest of the throwing chunk is skipped.
template <class Body>
void parallel_for(std::size_t begin, std::size_t end, const Body& body,
                  std::size_t grain = 1024) {
  const std::size_t n = end > begin ? end - begin : 0;
  if (n == 0) return;
  const unsigned workers = hardware_parallelism();
  const std::size_t chunks =
      workers <= 1 ? 1
                   : std::min<std::size_t>(
                         detail::kChunksPerWorker * workers,
                         n / std::max<std::size_t>(grain, 1));
  if (chunks <= 1) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  std::exception_ptr error;
  std::mutex error_mutex;
  const auto run_chunk = [&](std::size_t c) {
    const auto [lo, hi] = detail::chunk_range(begin, n, chunks, c);
    try {
      for (std::size_t i = lo; i < hi; ++i) body(i);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!error) error = std::current_exception();
    }
  };
#if defined(_OPENMP)
  // One team per outermost loop; every loop, outer or nested, is a
  // taskloop whose chunks any thread of the team may run. The outermost
  // call generates its chunks without a taskgroup (nogroup) and joins the
  // team barrier, where a waiting thread runs any pending chunk, nested
  // ones included. (A taskgroup wait would only run chunks of its own
  // group.) A nested call waits for its own chunks and runs them itself
  // meanwhile.
  if (omp_in_parallel()) {
#pragma omp taskloop default(shared) grainsize(1)
    for (std::size_t c = 0; c < chunks; ++c) run_chunk(c);
  } else {
#pragma omp parallel num_threads(static_cast<int>(workers))
#pragma omp single nowait
    {
#pragma omp taskloop default(shared) grainsize(1) nogroup
      for (std::size_t c = 0; c < chunks; ++c) run_chunk(c);
    }
  }
#else
  // Shared-pool fan-out: one Loop object describes all chunks. The
  // calling thread claims its own chunks first, then helps with any
  // other pending chunk until its loop has finished; idle pool workers
  // steal chunks up to the worker cap.
  auto loop = std::make_shared<detail::ThreadPool::Loop>();
  loop->chunks = chunks;
  loop->unfinished.store(chunks, std::memory_order_relaxed);
  loop->run_chunk = run_chunk;
  detail::ThreadPool::instance().run(loop, workers);
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
