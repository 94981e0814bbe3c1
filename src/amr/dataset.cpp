#include "amr/dataset.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <stdexcept>

namespace tac::amr {

std::vector<double> AmrLevel::gather_valid() const {
  std::vector<double> out;
  out.reserve(valid_count());
  for (std::size_t i = 0; i < data.size(); ++i)
    if (mask[i]) out.push_back(data[i]);
  return out;
}

std::size_t AmrLevel::gather_valid_into(std::span<double> out) const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < data.size(); ++i)
    if (mask[i]) out[n++] = data[i];
  return n;
}

void AmrLevel::scatter_valid(std::span<const double> values) {
  const std::uint8_t* m = mask.data();
  double* d = data.data();
  const std::size_t n = data.size();
  std::size_t vi = 0;
  // Eight mask bytes at a time: an all-empty word costs one load and no
  // per-cell branch, so a sparse level's scan is mostly word loads.
  for (std::size_t i = 0; i < n; i += 8) {
    const std::size_t end = std::min(n, i + 8);
    if (end - i == 8) {
      std::uint64_t word;
      std::memcpy(&word, m + i, sizeof(word));
      if (word == 0) continue;
    }
    for (std::size_t k = i; k < end; ++k) {
      if (!m[k]) continue;
      if (vi >= values.size())
        throw std::invalid_argument("scatter_valid: too few values");
      d[k] = values[vi++];
    }
  }
  if (vi != values.size())
    throw std::invalid_argument("scatter_valid: too many values");
}

std::pair<double, double> AmrLevel::valid_range() const {
  bool any = false;
  double lo = 0, hi = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (!mask[i]) continue;
    if (!any) {
      lo = hi = data[i];
      any = true;
    } else {
      lo = std::min(lo, data[i]);
      hi = std::max(hi, data[i]);
    }
  }
  return {lo, hi};
}

std::string AmrDataset::validate() const {
  if (levels_.empty()) return "dataset has no levels";
  if (ratio_ < 2) return "refinement ratio must be >= 2";
  const Dims3 fine = finest_dims();
  const auto r = static_cast<std::size_t>(ratio_);

  for (std::size_t l = 1; l < levels_.size(); ++l) {
    const Dims3 expect{levels_[l - 1].dims().nx / r,
                       levels_[l - 1].dims().ny / r,
                       levels_[l - 1].dims().nz / r};
    if (!(levels_[l].dims() == expect)) {
      std::ostringstream os;
      os << "level " << l << " dims " << levels_[l].dims() << " != expected "
         << expect;
      return os.str();
    }
  }

  // Coverage counting on the finest grid: each cell exactly once.
  Array3D<std::uint8_t> cover(fine, 0);
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    const AmrLevel& lv = levels_[l];
    const std::size_t s = scale_to_finest(l);
    const Dims3 d = lv.dims();
    for (std::size_t z = 0; z < d.nz; ++z)
      for (std::size_t y = 0; y < d.ny; ++y)
        for (std::size_t x = 0; x < d.nx; ++x) {
          if (!lv.mask(x, y, z)) continue;
          for (std::size_t dz = 0; dz < s; ++dz)
            for (std::size_t dy = 0; dy < s; ++dy)
              for (std::size_t dx = 0; dx < s; ++dx) {
                auto& c = cover(x * s + dx, y * s + dy, z * s + dz);
                if (c == 1) {
                  std::ostringstream os;
                  os << "cell (" << x * s + dx << "," << y * s + dy << ","
                     << z * s + dz << ") covered by multiple levels";
                  return os.str();
                }
                c = 1;
              }
        }
  }
  for (std::size_t i = 0; i < cover.size(); ++i)
    if (!cover[i]) return "domain not fully covered by valid cells";
  return {};
}

}  // namespace tac::amr
