#ifndef TAC_COMMON_THREAD_POOL_HPP
#define TAC_COMMON_THREAD_POOL_HPP

/// \file thread_pool.hpp
/// \brief Lazily-created shared worker pool backing tac::parallel_for on
/// the non-OpenMP path.
///
/// parallel_for used to spawn (and join) fresh std::threads on every call;
/// with the level pipeline issuing nested loops per container that cost
/// shows up as thousands of short-lived threads. The pool keeps one set of
/// workers alive and hands them *loops*: a loop is a
/// chunk counter plus a run_chunk callable, and every idle worker claims
/// chunks from the oldest loop that has any left (work stealing at chunk
/// granularity — a single enqueue fans out to all workers).
///
/// Nested loops share the workers. A thread that submits a loop, outer or
/// nested, claims that loop's chunks itself first, then runs pending
/// chunks of any loop until its own has finished, and sleeps only when no
/// chunk is pending. So a worker whose outer iteration ended early helps
/// with its sibling's inner loop instead of idling. At most
/// hardware_parallelism() threads (the cap parallel_for passes) run chunks
/// at once: an idle worker takes a chunk only below that cap, while a
/// thread already inside a chunk (running its nested loop) keeps the slot
/// it holds. The caller is one of those threads, so the pool starts
/// hardware_parallelism() - 1 workers and grows only when a loop asks for
/// a larger cap (a larger set_parallelism pin); it never starts threads
/// that the cap would keep idle.
///
/// Deadlock-freedom: every thread's stack holds chunks in the order it
/// claimed them, and a waiting thread waits only for chunks of a loop it
/// submitted after claiming every chunk below it on its stack. A cycle of
/// waits would need a chunk claimed before itself, so every wait resolves.
/// Workers never block on anything except the queue.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/telemetry.hpp"

namespace tac::detail {

class ThreadPool {
 public:
  /// One parallel loop: chunks [0, chunks) claimed via an atomic ticket.
  struct Loop {
    std::function<void(std::size_t)> run_chunk;
    std::size_t chunks = 0;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> unfinished{0};
  };

  /// The process-wide pool, created on first parallel_for that goes wide.
  static ThreadPool& instance() {
    static ThreadPool pool;
    return pool;
  }

  /// Runs every chunk of `loop` and returns when all have finished: makes
  /// it visible to the workers, claims its chunks on the calling thread,
  /// then runs pending chunks of any loop until the last of its own
  /// chunks, claimed elsewhere, has finished.
  /// `max_busy` caps the threads that run chunks at once; the pool grows
  /// to max_busy - 1 workers, the calling thread being the last one.
  void run(const std::shared_ptr<Loop>& loop, unsigned max_busy) {
    const bool outermost = !tl_in_chunk;
    std::unique_lock<std::mutex> lock(m_);
    while (workers_.size() + 1 < max_busy)
      workers_.emplace_back([this] { worker_loop(); });
    max_busy_ = max_busy;
    loops_.push_back(loop);
    TAC_COUNTER_ADD("pool.loops_submitted", 1);
    TAC_COUNTER_MAX("pool.queue_depth_peak", loops_.size());
    // A thread already inside a chunk holds its slot; an outermost caller
    // takes one for as long as it runs chunks.
    if (outermost) ++busy_;
    tl_in_chunk = true;
    lock.unlock();
    cv_.notify_all();

    std::size_t ran = 0;
    for (;;) {
      const std::size_t c = loop->next.fetch_add(1, std::memory_order_relaxed);
      if (c >= loop->chunks) break;
      ++ran;
      run_one(*loop, c);
    }
    TAC_COUNTER_ADD("pool.chunks_inline", ran);

    lock.lock();
    while (loop->unfinished.load(std::memory_order_acquire) != 0) {
      std::size_t c = 0;
      if (const std::shared_ptr<Loop> other = claim(c)) {
        lock.unlock();
        TAC_COUNTER_ADD("pool.chunks_stolen", 1);
        run_one(*other, c);
        lock.lock();
        continue;
      }
      cv_.wait(lock);
    }
    if (outermost) {
      tl_in_chunk = false;
      --busy_;
      if (!loops_.empty()) cv_.notify_all();
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

 private:
  ThreadPool() = default;

  ~ThreadPool() {
    {
      const std::lock_guard<std::mutex> lock(m_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  void run_one(Loop& loop, std::size_t chunk) {
    loop.run_chunk(chunk);
    if (loop.unfinished.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last chunk: wake the submitter waiting in run(). Lock to pair with
      // its predicate check, so the wakeup cannot be missed.
      const std::lock_guard<std::mutex> lock(m_);
      cv_.notify_all();
    }
  }

  /// Claims a chunk of the oldest loop with one left, popping loops whose
  /// chunks are all claimed (they are executing elsewhere). Returns the
  /// loop, or null when no chunk is pending. Caller holds m_.
  std::shared_ptr<Loop> claim(std::size_t& chunk) {
    while (!loops_.empty()) {
      std::shared_ptr<Loop> loop = loops_.front();
      chunk = loop->next.fetch_add(1, std::memory_order_relaxed);
      if (chunk < loop->chunks) return loop;
      loops_.pop_front();
    }
    return nullptr;
  }

  void worker_loop() {
    std::unique_lock<std::mutex> lock(m_);
    for (;;) {
      cv_.wait(lock, [this] {
        return stop_ || (!loops_.empty() && busy_ < max_busy_);
      });
      if (stop_) return;
      std::size_t c = 0;
      const std::shared_ptr<Loop> loop = claim(c);
      if (!loop) continue;
      ++busy_;
      tl_in_chunk = true;
      lock.unlock();
      // A chunk claimed here ran on a pool worker rather than the
      // submitting thread: a steal, in work-stealing terms.
      TAC_COUNTER_ADD("pool.chunks_stolen", 1);
      run_one(*loop, c);
      lock.lock();
      tl_in_chunk = false;
      --busy_;
    }
  }

  /// True on a thread while it runs a chunk or an outermost loop.
  static inline thread_local bool tl_in_chunk = false;

  std::mutex m_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<Loop>> loops_;
  unsigned busy_ = 0;      ///< threads holding a slot (see run())
  unsigned max_busy_ = 1;  ///< the cap the latest run() passed
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace tac::detail

#endif  // TAC_COMMON_THREAD_POOL_HPP
