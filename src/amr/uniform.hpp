#ifndef TAC_AMR_UNIFORM_HPP
#define TAC_AMR_UNIFORM_HPP

/// \file uniform.hpp
/// \brief Conversion between AMR levels and uniform-resolution grids.
///
/// Post-analysis (power spectrum, halo finder) and the paper's "3D
/// baseline" both consume a uniform grid: coarse cells are up-sampled by
/// nearest-neighbour replication (one coarse value copied to ratio^3 fine
/// cells — the redundancy the paper's Figure 2/17 discussion is about) and
/// merged with the valid fine data.

#include "amr/dataset.hpp"
#include "common/array3d.hpp"

namespace tac::amr {

/// Up-samples all levels of `ds` to the finest resolution and merges them
/// into one grid. Every finest cell gets the value of the unique level that
/// stores its region. Throws StructureError when `ds` fails
/// AmrDataset::check_structure.
[[nodiscard]] Array3D<double> compose_uniform(const AmrDataset& ds);

/// Inverse of compose_uniform given the dataset *structure*: fills each
/// level's valid cells from the uniform grid, reading the fine cell at the
/// origin corner of each coarse cell. Empty cells are left as they are
/// (zero in a freshly materialized skeleton). For data produced by
/// compose_uniform + error-bounded compression this preserves the bound
/// (every replicated fine cell is within eb of the original coarse value).
/// Throws StructureError when `ds` fails AmrDataset::check_structure.
void distribute_uniform(const Array3D<double>& uniform, AmrDataset& ds);

}  // namespace tac::amr

#endif  // TAC_AMR_UNIFORM_HPP
