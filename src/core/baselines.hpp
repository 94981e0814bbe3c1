#ifndef TAC_CORE_BASELINES_HPP
#define TAC_CORE_BASELINES_HPP

/// \file baselines.hpp
/// \brief The paper's three comparison baselines (§4.1).
///
/// (1) naive 1D: each level's valid cells as one 1D stream;
/// (2) zMesh: a single 1D stream in level-interleaved traversal order —
///     for tree-structured AMR this walks the coarsest grid in raster
///     order and descends into refined children, which is how zMesh maps
///     points at the same geometric location next to each other
///     (Figure 16a); and
/// (3) the 3D baseline: up-sample every coarse level to the finest
///     resolution and compress the merged uniform grid in 3D.
///
/// Each baseline is a registered CompressorBackend (see core/backend.hpp);
/// the functions below are convenience wrappers over the registry.

#include "amr/dataset.hpp"
#include "common/bytes.hpp"
#include "core/tac.hpp"
#include "sz/config.hpp"

namespace tac::core {

/// Naive 1D baseline. Relative bounds resolve per level.
[[nodiscard]] CompressedAmr oned_compress(const amr::AmrDataset& ds,
                                          const sz::SzConfig& cfg);

/// zMesh baseline. Relative bounds resolve against the dataset-wide range
/// (the single stream spans all levels).
[[nodiscard]] CompressedAmr zmesh_compress(const amr::AmrDataset& ds,
                                           const sz::SzConfig& cfg);

/// 3D up-sampling baseline.
[[nodiscard]] CompressedAmr upsample3d_compress(const amr::AmrDataset& ds,
                                                const sz::SzConfig& cfg);

/// The zMesh traversal order as gather/scatter (exposed for tests and the
/// ordering-smoothness experiment of Figure 16). Both throw
/// amr::StructureError when `ds` fails AmrDataset::check_structure.
[[nodiscard]] std::vector<double> zmesh_gather(const amr::AmrDataset& ds);
void zmesh_scatter(amr::AmrDataset& ds, std::span<const double> values);

}  // namespace tac::core

#endif  // TAC_CORE_BASELINES_HPP
