#ifndef TAC_TESTS_ALLOC_COUNTER_HPP
#define TAC_TESTS_ALLOC_COUNTER_HPP

/// \file alloc_counter.hpp
/// \brief Replaces malloc, calloc, mmap and the global operator new with
/// versions that count calls and requested bytes, for tests that bound
/// allocations.
///
/// Every entry point matters: containers allocate through operator new,
/// while Array3D — every AMR level's data and mask — takes a small array
/// straight from malloc/calloc and maps a large one itself. malloc and
/// calloc forward to glibc's own allocator (__libc_malloc/__libc_calloc),
/// so free stays glibc's; mmap forwards to the system call, and glibc maps
/// its own large blocks through an internal alias that never reaches the
/// replacement; operator new goes through the counting malloc. So each
/// allocation is counted once.
///
/// Include it from exactly one source file of a test binary: the
/// replacements bind for the whole binary. The counters only ever grow,
/// so tests compare them across the region they measure and gtest's own
/// allocations elsewhere do not matter. Under ASan the sanitizer owns the
/// allocator (a replacement trips its alloc/dealloc-mismatch checker), so
/// the replacements are compiled out, TAC_TEST_COUNTS_ALLOCS is 0 and
/// allocation assertions must skip.

#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

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
inline std::atomic<std::size_t> g_alloc_calls{0};
inline std::atomic<std::size_t> g_alloc_bytes{0};

inline void count_alloc(std::size_t bytes) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

/// Bytes malloc, calloc, anonymous mmap and operator new hand out, on
/// every thread, while
/// `fn` runs (0 when the counting replacements are compiled out).
template <class Fn>
std::size_t bytes_allocated_by(Fn&& fn) {
  const std::size_t before = g_alloc_bytes.load();
  fn();
  return g_alloc_bytes.load() - before;
}
}  // namespace tac::test

#if TAC_TEST_COUNTS_ALLOCS
extern "C" {
void* __libc_malloc(std::size_t n);
void* __libc_calloc(std::size_t n, std::size_t size);

void* malloc(std::size_t n) noexcept {
  tac::test::count_alloc(n);
  return __libc_malloc(n);
}

void* calloc(std::size_t n, std::size_t size) noexcept {
  std::size_t bytes;
  if (__builtin_mul_overflow(n, size, &bytes)) bytes = SIZE_MAX;
  tac::test::count_alloc(bytes);
  return __libc_calloc(n, size);
}

void* mmap(void* addr, std::size_t len, int prot, int flags, int fd,
           off_t offset) noexcept {
  if (flags & MAP_ANONYMOUS) tac::test::count_alloc(len);
  return reinterpret_cast<void*>(
      syscall(SYS_mmap, addr, len, prot, flags, fd, offset));
}
}  // extern "C"

void* operator new(std::size_t n) {
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t n) {
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
