/// \file fig13_preprocess_time.cpp
/// \brief Reproduces Figure 13: pre-processing time (extraction only,
/// compression excluded) of OpST vs AKDTree as density grows.
///
/// Paper result: AKDTree's time is flat in density while OpST's grows
/// roughly linearly, crossing AKDTree around 50% — the basis for
/// threshold T1.

#include <cstdio>

#include "bench_util.hpp"
#include "core/extraction.hpp"

int main() {
  using namespace tac;
  bench::print_header(
      "Figure 13: OpST vs AKDTree pre-processing time vs density\n"
      "paper: AKDTree flat, OpST grows with density, crossover ~50%");

  std::printf("%-8s %14s %14s %10s\n", "density", "OpST(ms)", "AKDTree(ms)",
              "ratio");
  for (const double density :
       {0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95, 0.999}) {
    simnyx::GeneratorConfig gc;
    gc.finest_dims = {128, 128, 128};
    gc.level_densities = {density, 1.0 - density};
    gc.region_size = 8;
    const auto ds = simnyx::generate_baryon_density(gc);
    const auto& fine = ds.level(0);
    const core::BlockGrid grid(fine.dims(), 4);  // 32^3 unit blocks
    const auto occ = core::block_occupancy(fine, grid);

    // Median of three runs to tame scheduler noise.
    auto timed = [&](auto&& fn) {
      double best = 1e300;
      for (int rep = 0; rep < 3; ++rep) {
        Timer t;
        const auto subs = fn(occ);
        best = std::min(best, t.seconds());
        if (subs.empty() && density > 0) std::printf("(empty extraction?)");
      }
      return best * 1e3;
    };
    const double opst_ms = timed(core::opst_extract);
    const double akd_ms = timed(core::akdtree_extract);
    std::printf("%-8.3f %14.2f %14.2f %10.2f\n", density, opst_ms, akd_ms,
                opst_ms / akd_ms);
  }
  std::printf("\nshape check: OpST(d=0.999) should far exceed "
              "OpST(d=0.05); AKDTree roughly flat.\n");
  return 0;
}
