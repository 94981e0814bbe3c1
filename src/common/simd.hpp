#ifndef TAC_COMMON_SIMD_HPP
#define TAC_COMMON_SIMD_HPP

/// \file simd.hpp
/// \brief Runtime SIMD dispatch for the hot kernels.
///
/// The vectorized kernels (sign-bit packing, range scans) never change
/// *what* is computed — every SIMD path produces bit-identical
/// results to the scalar fallback, which is always compiled and exercised
/// by the equivalence tests. Dispatch is resolved once per process from
/// CPUID; `TAC_FORCE_SCALAR=1` (or `force_scalar(true)` from tests) pins
/// the scalar paths so both sides of the equivalence can run in one
/// process.

#include <atomic>
#include <cstdlib>

#if defined(__x86_64__) || defined(_M_X64)
#define TAC_SIMD_X86 1
#include <immintrin.h>
#else
#define TAC_SIMD_X86 0
#endif

namespace tac::simd {

/// Instruction-set tiers the kernels dispatch over. Hosts without AVX2
/// run the scalar kernels.
enum class Level : int {
  kScalar = 0,
  kAVX2 = 1,
};

namespace detail {
inline Level detect() {
#if TAC_SIMD_X86 && defined(__GNUC__)
  if (__builtin_cpu_supports("avx2")) return Level::kAVX2;
#endif
  return Level::kScalar;
}

inline std::atomic<int>& force_scalar_flag() {
  static std::atomic<int> flag = [] {
    const char* env = std::getenv("TAC_FORCE_SCALAR");
    return (env != nullptr && env[0] != '\0' && env[0] != '0') ? 1 : 0;
  }();
  return flag;
}
}  // namespace detail

/// Pins every dispatched kernel to its scalar fallback (used by the
/// equivalence tests to compare both paths in-process). Overrides the
/// TAC_FORCE_SCALAR environment knob.
inline void force_scalar(bool on) {
  detail::force_scalar_flag().store(on ? 1 : 0, std::memory_order_relaxed);
}

[[nodiscard]] inline bool scalar_forced() {
  return detail::force_scalar_flag().load(std::memory_order_relaxed) != 0;
}

/// The dispatch tier kernels should use for this call. CPUID is probed
/// once; the force-scalar knob is re-read so tests can flip it at runtime.
[[nodiscard]] inline Level active_level() {
  static const Level detected = detail::detect();
  return scalar_forced() ? Level::kScalar : detected;
}

/// Interior rows the Lorenzo quantizer's wavefront keeps in flight
/// (sz.cpp). Four independent loop-carried chains cover the quantize
/// round-trip latency; measured A/B against 6- and 8-row variants, wider
/// fronts spill the per-row pointer/carry state past the 16 general
/// registers and run up to 14% slower on 128^3 grids. NOT dispatched at
/// runtime: the wavefront is a pure reschedule of the scalar dataflow,
/// so scalar and SIMD builds produce identical bytes.
inline constexpr std::size_t kWavefrontRows = 4;

[[nodiscard]] inline const char* level_name(Level l) {
  switch (l) {
    case Level::kAVX2: return "avx2";
    default: return "scalar";
  }
}

}  // namespace tac::simd

#endif  // TAC_COMMON_SIMD_HPP
