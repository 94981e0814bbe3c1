#ifndef TAC_CORE_ADAPTIVE_HPP
#define TAC_CORE_ADAPTIVE_HPP

/// \file adaptive.hpp
/// \brief Second-stage method selection and per-level error-bound helpers.
///
/// §4.4 of the paper: when the finest level is very dense the dataset is
/// close to uniform resolution — up-sampling adds little redundancy and a
/// single 3D stream exploits more spatial context than level-wise
/// compression — so TAC falls back to the 3D baseline when the finest
/// level's density reaches T2. §4.5: level-wise compression lets the error
/// bound differ per level; helpers build the fine:coarse ratio ladders the
/// paper tunes for power-spectrum (3:1) and halo-finder (2:1) quality.

#include "amr/dataset.hpp"
#include "core/tac.hpp"

namespace tac::core {

/// Chooses kUpsample3D when the finest level's unit-block density is at
/// least kDensityT2, kTac otherwise.
[[nodiscard]] Method adaptive_select(const amr::AmrDataset& ds,
                                     const TacConfig& cfg);

/// Compresses with the adaptively selected method.
[[nodiscard]] CompressedAmr adaptive_compress(const amr::AmrDataset& ds,
                                              const TacConfig& cfg);

/// Per-level absolute bounds from a fine:coarse ratio: level 0 (finest)
/// gets `finest_eb`, each coarser level gets the previous bound divided by
/// `fine_to_coarse`. A ratio of 3 with 2 levels gives the paper's 3:1.
[[nodiscard]] std::vector<double> ratio_error_bounds(double finest_eb,
                                                     double fine_to_coarse,
                                                     std::size_t num_levels);

}  // namespace tac::core

#endif  // TAC_CORE_ADAPTIVE_HPP
