#include "core/adaptive.hpp"

#include <stdexcept>

#include "core/backend.hpp"
#include "core/block_grid.hpp"

namespace tac::core {

Method adaptive_select(const amr::AmrDataset& ds, const TacConfig& cfg) {
  if (ds.num_levels() == 0)
    throw std::invalid_argument("adaptive_select: empty dataset");
  const amr::AmrLevel& finest = ds.level(0);
  const BlockGrid grid(finest.dims(), cfg.block_size);
  const double density = occupancy_density(block_occupancy(finest, grid));
  return density >= kDensityT2 ? Method::kUpsample3D : Method::kTac;
}

CompressedAmr adaptive_compress(const amr::AmrDataset& ds,
                                const TacConfig& cfg) {
  return backend_for(adaptive_select(ds, cfg)).compress(ds, cfg);
}

std::vector<double> ratio_error_bounds(double finest_eb,
                                       double fine_to_coarse,
                                       std::size_t num_levels) {
  if (!(finest_eb > 0) || !(fine_to_coarse > 0))
    throw std::invalid_argument("ratio_error_bounds: bounds must be > 0");
  std::vector<double> out(num_levels);
  double eb = finest_eb;
  for (std::size_t l = 0; l < num_levels; ++l) {
    out[l] = eb;
    eb /= fine_to_coarse;
  }
  return out;
}

}  // namespace tac::core
