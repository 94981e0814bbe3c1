#include "amr/uniform.hpp"

#include <stdexcept>

#include "common/parallel.hpp"

namespace tac::amr {

Array3D<double> compose_uniform(const AmrDataset& ds) {
  ds.check_structure("compose_uniform");
  const Dims3 fine = ds.finest_dims();
  Array3D<double> out(fine);
  for (std::size_t l = 0; l < ds.num_levels(); ++l) {
    const AmrLevel& lv = ds.level(l);
    const std::size_t s = ds.scale_to_finest(l);
    const Dims3 d = lv.dims();
    parallel_for(0, d.nz, [&](std::size_t z) {
      for (std::size_t y = 0; y < d.ny; ++y)
        for (std::size_t x = 0; x < d.nx; ++x) {
          if (!lv.mask(x, y, z)) continue;
          const double v = lv.data(x, y, z);
          for (std::size_t dz = 0; dz < s; ++dz)
            for (std::size_t dy = 0; dy < s; ++dy)
              for (std::size_t dx = 0; dx < s; ++dx)
                out(x * s + dx, y * s + dy, z * s + dz) = v;
        }
    }, /*grain=*/1);
  }
  return out;
}

void distribute_uniform(const Array3D<double>& uniform, AmrDataset& ds) {
  if (!(uniform.dims() == ds.finest_dims()))
    throw std::invalid_argument("distribute_uniform: extent mismatch");
  ds.check_structure("distribute_uniform");
  for (std::size_t l = 0; l < ds.num_levels(); ++l) {
    AmrLevel& lv = ds.level(l);
    const std::size_t s = ds.scale_to_finest(l);
    const Dims3 d = lv.dims();
    parallel_for(0, d.nz, [&](std::size_t z) {
      for (std::size_t y = 0; y < d.ny; ++y)
        for (std::size_t x = 0; x < d.nx; ++x)
          if (lv.mask(x, y, z))
            lv.data(x, y, z) = uniform(x * s, y * s, z * s);
    }, /*grain=*/1);
  }
}

}  // namespace tac::amr
