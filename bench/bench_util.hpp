#ifndef TAC_BENCH_BENCH_UTIL_HPP
#define TAC_BENCH_BENCH_UTIL_HPP

/// \file bench_util.hpp
/// \brief Shared plumbing for the figure/table reproduction harnesses.
///
/// Experiments run on scaled-down Table-1 presets (see DESIGN.md): grid
/// extents shrink by the scale shift, per-level densities are preserved,
/// so rate-distortion *shapes* (who wins, where the curves cross) carry
/// over even though absolute byte counts do not.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "amr/uniform.hpp"
#include "analysis/metrics.hpp"
#include "core/adaptive.hpp"
#include "core/backend.hpp"
#include "core/baselines.hpp"
#include "core/tac.hpp"
#include "simnyx/generator.hpp"

namespace tac {

/// The benches' wall clock. The library itself times only through
/// telemetry spans; a harness owns the clock around what it measures.
class Timer {
 public:
  Timer() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Throughput in MB/s given bytes processed and elapsed seconds, following
/// the paper's convention (original size / time, MB = 1e6 bytes).
[[nodiscard]] inline double throughput_mbs(std::size_t bytes, double secs) {
  return secs > 0 ? static_cast<double>(bytes) / 1e6 / secs : 0.0;
}

}  // namespace tac

namespace tac::bench {

/// One point of a rate-distortion curve.
struct RdPoint {
  double error_bound = 0;  ///< absolute bound fed to the compressor
  double bit_rate = 0;     ///< bits per stored (valid) value
  double psnr = 0;         ///< on the composed uniform grid
  double cr = 0;           ///< original bytes / compressed bytes
  double compress_seconds = 0;
  double decompress_seconds = 0;
};

/// Compress+decompress once with `method` and measure rate/distortion on
/// the uniform-resolution reconstruction (how the paper evaluates all
/// methods on common ground). Any registered backend works — methods are
/// resolved through the CompressorBackend registry.
inline RdPoint measure_method(const amr::AmrDataset& ds,
                              const Array3D<double>& uniform_truth,
                              core::Method method, double abs_eb,
                              std::size_t block_size = 8) {
  core::TacConfig tcfg;
  tcfg.sz = {.mode = sz::ErrorBoundMode::kAbsolute, .error_bound = abs_eb};
  tcfg.block_size = block_size;

  Timer t;
  const core::CompressedAmr compressed =
      core::backend_for(method).compress(ds, tcfg);
  RdPoint p;
  p.compress_seconds = t.seconds();
  t.reset();
  const auto recon = core::decompress_any(compressed.bytes);
  p.decompress_seconds = t.seconds();

  const auto uniform_recon = amr::compose_uniform(recon);
  const auto stats =
      analysis::distortion(uniform_truth.span(), uniform_recon.span());
  p.error_bound = abs_eb;
  p.psnr = stats.psnr;
  p.bit_rate = analysis::bit_rate(ds.total_valid(), compressed.bytes.size());
  p.cr = analysis::compression_ratio(ds.original_bytes(),
                                     compressed.bytes.size());
  return p;
}

/// Geometric ladder of absolute error bounds spanning the interesting
/// range for the synthetic baryon density (mean ~1e9, range ~1e7..1e12).
inline std::vector<double> eb_ladder(double lo = 1e7, double hi = 1e10,
                                     std::size_t points = 4) {
  std::vector<double> out;
  if (points == 1) {
    out.push_back(lo);
    return out;
  }
  const double step = std::pow(hi / lo, 1.0 / static_cast<double>(points - 1));
  double eb = lo;
  for (std::size_t i = 0; i < points; ++i) {
    out.push_back(eb);
    eb *= step;
  }
  return out;
}

inline void print_header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void print_rd_table_header() {
  std::printf("%-10s %12s %10s %10s %9s\n", "method", "abs_eb", "bitrate",
              "PSNR(dB)", "CR");
}

inline void print_rd_point(const char* method, const RdPoint& p) {
  std::printf("%-10s %12.3e %10.3f %10.2f %9.1f\n", method, p.error_bound,
              p.bit_rate, p.psnr, p.cr);
}

}  // namespace tac::bench

#endif  // TAC_BENCH_BENCH_UTIL_HPP
