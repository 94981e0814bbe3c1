#ifndef TAC_TESTS_ALLOC_COUNTER_HPP
#define TAC_TESTS_ALLOC_COUNTER_HPP

/// \file alloc_counter.hpp
/// \brief Replaces the global operator new with a malloc-backed one that
/// counts calls and requested bytes, for tests that bound allocations.
///
/// Include it from exactly one source file of a test binary: replacing
/// operator new binds for the whole binary. The counters only ever grow,
/// so tests compare them across the region they measure and gtest's own
/// allocations elsewhere do not matter. Under ASan the sanitizer owns the
/// global operators (a malloc-backed replacement trips its
/// alloc/dealloc-mismatch checker), so the replacement is compiled out,
/// TAC_TEST_COUNTS_ALLOCS is 0 and allocation assertions must skip.

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#define TAC_TEST_COUNTS_ALLOCS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define TAC_TEST_COUNTS_ALLOCS 0
#endif
#endif
#ifndef TAC_TEST_COUNTS_ALLOCS
#define TAC_TEST_COUNTS_ALLOCS 1
#endif

namespace tac::test {
inline std::atomic<std::size_t> g_new_calls{0};
inline std::atomic<std::size_t> g_new_bytes{0};

/// Bytes operator new hands out, on every thread, while `fn` runs (0
/// when the counting replacement is compiled out).
template <class Fn>
std::size_t bytes_allocated_by(Fn&& fn) {
  const std::size_t before = g_new_bytes.load();
  fn();
  return g_new_bytes.load() - before;
}
}  // namespace tac::test

#if TAC_TEST_COUNTS_ALLOCS
void* operator new(std::size_t n) {
  tac::test::g_new_calls.fetch_add(1, std::memory_order_relaxed);
  tac::test::g_new_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t n) {
  tac::test::g_new_calls.fetch_add(1, std::memory_order_relaxed);
  tac::test::g_new_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

// GCC's IPA pass pairs new-expressions it chose not to inline with these
// inlined free() calls and reports a mismatch; the replacement operators
// above guarantee every new in this binary is malloc-backed.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop
#endif  // TAC_TEST_COUNTS_ALLOCS

#endif  // TAC_TESTS_ALLOC_COUNTER_HPP
