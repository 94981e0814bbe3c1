#include "amr/dataset.hpp"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "common/parallel.hpp"

namespace tac::amr {

std::size_t AmrLevel::valid_count() const {
  std::size_t n = 0;
  for_each_valid_run(mask.span(), [&](std::size_t lo, std::size_t hi) {
    n += hi - lo;
  });
  return n;
}

std::vector<double> AmrLevel::gather_valid() const {
  std::vector<double> out;
  out.reserve(valid_count());
  const double* d = data.data();
  for_each_valid_run(mask.span(), [&](std::size_t lo, std::size_t hi) {
    out.insert(out.end(), d + lo, d + hi);
  });
  return out;
}

std::size_t AmrLevel::gather_valid_into(std::span<double> out) const {
  const double* d = data.data();
  std::size_t n = 0;
  for_each_valid_run(mask.span(), [&](std::size_t lo, std::size_t hi) {
    std::memcpy(out.data() + n, d + lo, (hi - lo) * sizeof(double));
    n += hi - lo;
  });
  return n;
}

void AmrLevel::scatter_valid(std::span<const double> values) {
  double* d = data.data();
  std::size_t vi = 0;
  for_each_valid_run(mask.span(), [&](std::size_t lo, std::size_t hi) {
    if (hi - lo > values.size() - vi)
      throw std::invalid_argument("scatter_valid: too few values");
    std::memcpy(d + lo, values.data() + vi, (hi - lo) * sizeof(double));
    vi += hi - lo;
  });
  if (vi != values.size())
    throw std::invalid_argument("scatter_valid: too many values");
}

std::pair<double, double> AmrLevel::valid_range() const {
  // Each chunk of kMinElementsPerChunk cells keeps its first valid value
  // and the min/max of its values from its first non-NaN one on. Combined
  // in raster order, that is the raster loop's rule: std::min/std::max
  // keep their first argument unless the second compares strictly past
  // it, so a leading NaN decides, later NaNs never win, and of equal
  // extremes (±0.0) the first stays.
  struct Part {
    bool any = false;     // the chunk holds a valid cell
    bool seeded = false;  // ... and a non-NaN one
    double first = 0, lo = 0, hi = 0;
  };
  const std::size_t n = mask.size();
  std::vector<Part> parts(ceil_div(n, kMinElementsPerChunk));
  parallel_for(
      0, parts.size(),
      [&](std::size_t c) {
        const std::size_t base = c * kMinElementsPerChunk;
        const double* d = data.data() + base;
        Part part;  // a local, kept in registers across the runs
        for_each_valid_run(
            mask.span().subspan(base,
                                std::min(kMinElementsPerChunk, n - base)),
            [&](std::size_t b, std::size_t e) {
              if (!part.seeded) {
                if (!part.any) {
                  part.any = true;
                  part.first = d[b];
                }
                while (b < e && std::isnan(d[b])) ++b;
                if (b == e) return;
                part.seeded = true;
                part.lo = part.hi = d[b];
              }
              for (std::size_t i = b; i < e; ++i) {
                part.lo = std::min(part.lo, d[i]);
                part.hi = std::max(part.hi, d[i]);
              }
            });
        parts[c] = part;
      },
      1);
  bool any = false;
  double lo = 0, hi = 0;
  for (const Part& part : parts) {
    if (!part.any) continue;
    if (!any) {
      if (std::isnan(part.first)) return {part.first, part.first};
      any = true;
      lo = part.lo;
      hi = part.hi;
    } else if (part.seeded) {
      lo = std::min(lo, part.lo);
      hi = std::max(hi, part.hi);
    }
  }
  return {lo, hi};
}

int checked_ratio(std::uint64_t ratio, const char* context) {
  if (ratio < 2 || ratio > static_cast<std::uint64_t>(INT_MAX))
    throw StructureError(std::string(context) + ": refinement ratio " +
                         std::to_string(ratio) +
                         " is not an int of at least 2");
  return static_cast<int>(ratio);
}

void check_level_extents(Dims3 finer, Dims3 dims, int ratio,
                         std::size_t level, const char* context) {
  const auto r = static_cast<std::size_t>(ratio);
  const Dims3 expect{finer.nx / r, finer.ny / r, finer.nz / r};
  if (dims == expect) return;
  std::ostringstream os;
  os << context << ": level " << level << " dims " << dims
     << " are not level " << level - 1 << "'s " << finer << " divided by "
     << "the refinement ratio " << ratio << " (expected " << expect << ")";
  throw StructureError(os.str());
}

void AmrDataset::check_structure(const char* context) const {
  (void)checked_ratio(static_cast<std::uint64_t>(ratio_), context);
  for (std::size_t l = 1; l < levels_.size(); ++l)
    check_level_extents(levels_[l - 1].dims(), levels_[l].dims(), ratio_, l,
                        context);
}

std::string AmrDataset::validate() const {
  if (levels_.empty()) return "dataset has no levels";
  try {
    check_structure("dataset");
  } catch (const StructureError& e) {
    return e.what();
  }
  const Dims3 fine = finest_dims();

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
