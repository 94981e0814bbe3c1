#include "core/extraction.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <stdexcept>
#include <tuple>

#include "common/parallel.hpp"

namespace tac::core {

std::vector<SubBlock> nast_extract(const Array3D<std::uint8_t>& occupancy) {
  const Dims3 d = occupancy.dims();
  std::vector<SubBlock> out;
  for (std::size_t z = 0; z < d.nz; ++z)
    for (std::size_t y = 0; y < d.ny; ++y)
      for (std::size_t x = 0; x < d.nx; ++x)
        if (occupancy(x, y, z)) out.push_back({x, y, z, 1, 1, 1});
  return out;
}

namespace {

/// BS(x,y,z): side of the largest full cube whose far corner (maximum
/// index corner) is unit block (x,y,z). Zero for empty blocks.
std::int32_t dp_value(const Array3D<std::uint8_t>& occ,
                      const Array3D<std::int32_t>& bs, std::size_t x,
                      std::size_t y, std::size_t z) {
  if (!occ(x, y, z)) return 0;
  if (x == 0 || y == 0 || z == 0) return 1;
  const std::int32_t m = std::min(
      {bs(x - 1, y, z), bs(x, y - 1, z), bs(x, y, z - 1), bs(x - 1, y - 1, z),
       bs(x, y - 1, z - 1), bs(x - 1, y, z - 1), bs(x - 1, y - 1, z - 1)});
  return m + 1;
}

}  // namespace

std::vector<SubBlock> opst_extract(const Array3D<std::uint8_t>& occupancy) {
  Array3D<std::uint8_t> occ = occupancy;  // consumed during extraction
  const Dims3 d = occ.dims();
  Array3D<std::int32_t> bs(d, 0);

  std::int32_t max_side = 0;
  for (std::size_t z = 0; z < d.nz; ++z)
    for (std::size_t y = 0; y < d.ny; ++y)
      for (std::size_t x = 0; x < d.nx; ++x) {
        const std::int32_t v = dp_value(occ, bs, x, y, z);
        bs(x, y, z) = v;
        max_side = std::max(max_side, v);
      }

  std::vector<SubBlock> out;
  // Reverse raster sweep: every occupied block still standing when visited
  // is the far corner of its largest full cube; extract it, then repair the
  // DP table in the maxSide-bounded window the extraction can influence.
  for (std::size_t z = d.nz; z-- > 0;)
    for (std::size_t y = d.ny; y-- > 0;)
      for (std::size_t x = d.nx; x-- > 0;) {
        const std::int32_t s32 = bs(x, y, z);
        if (s32 <= 0) continue;
        const auto s = static_cast<std::size_t>(s32);
        const std::size_t ox = x + 1 - s, oy = y + 1 - s, oz = z + 1 - s;
        out.push_back({ox, oy, oz, s, s, s});
        for (std::size_t k = oz; k <= z; ++k)
          for (std::size_t j = oy; j <= y; ++j)
            for (std::size_t i = ox; i <= x; ++i) {
              occ(i, j, k) = 0;
              bs(i, j, k) = 0;
            }
        // Partial update: only blocks whose largest cube could reach into
        // the extracted region are affected. BS never grows after an
        // extraction, so the initial maxSide bounds the reach for good.
        const auto reach = static_cast<std::size_t>(max_side) - 1;
        const std::size_t ix1 = std::min(d.nx - 1, x + reach);
        const std::size_t iy1 = std::min(d.ny - 1, y + reach);
        const std::size_t iz1 = std::min(d.nz - 1, z + reach);
        for (std::size_t k = oz; k <= iz1; ++k)
          for (std::size_t j = oy; j <= iy1; ++j)
            for (std::size_t i = ox; i <= ix1; ++i)
              bs(i, j, k) = dp_value(occ, bs, i, j, k);
      }
  return out;
}

namespace {

/// 3D summed-area table over occupancy: O(1) count of any block box.
class Sat {
 public:
  explicit Sat(const Array3D<std::uint8_t>& occ)
      : d_(occ.dims()),
        sums_({d_.nx + 1, d_.ny + 1, d_.nz + 1}, 0) {
    for (std::size_t z = 0; z < d_.nz; ++z)
      for (std::size_t y = 0; y < d_.ny; ++y)
        for (std::size_t x = 0; x < d_.nx; ++x)
          sums_(x + 1, y + 1, z + 1) =
              static_cast<std::uint64_t>(occ(x, y, z)) +
              sums_(x, y + 1, z + 1) + sums_(x + 1, y, z + 1) +
              sums_(x + 1, y + 1, z) - sums_(x, y, z + 1) -
              sums_(x, y + 1, z) - sums_(x + 1, y, z) + sums_(x, y, z);
  }

  [[nodiscard]] std::uint64_t count(const Box3& b) const {
    return sums_(b.x1, b.y1, b.z1) - sums_(b.x0, b.y1, b.z1) -
           sums_(b.x1, b.y0, b.z1) - sums_(b.x1, b.y1, b.z0) +
           sums_(b.x0, b.y0, b.z1) + sums_(b.x0, b.y1, b.z0) +
           sums_(b.x1, b.y0, b.z0) - sums_(b.x0, b.y0, b.z0);
  }

 private:
  Dims3 d_;
  Array3D<std::uint64_t> sums_;
};

/// Splits `box` at the midpoint of `axis` (0=x, 1=y, 2=z).
std::pair<Box3, Box3> split_box(const Box3& box, int axis) {
  Box3 a = box, b = box;
  switch (axis) {
    case 0: {
      const std::size_t mid = box.x0 + (box.x1 - box.x0) / 2;
      a.x1 = mid;
      b.x0 = mid;
      break;
    }
    case 1: {
      const std::size_t mid = box.y0 + (box.y1 - box.y0) / 2;
      a.y1 = mid;
      b.y0 = mid;
      break;
    }
    default: {
      const std::size_t mid = box.z0 + (box.z1 - box.z0) / 2;
      a.z1 = mid;
      b.z0 = mid;
      break;
    }
  }
  return {a, b};
}

void akd_recurse(const Sat& sat, const Box3& box,
                 std::vector<SubBlock>& out) {
  const std::uint64_t c = sat.count(box);
  if (c == 0) return;  // empty leaf
  if (c == box.volume()) {
    out.push_back({box.x0, box.y0, box.z0, box.x1 - box.x0, box.y1 - box.y0,
                   box.z1 - box.z0});
    return;  // full leaf
  }
  // Mixed node: split along one of the longest axes, choosing the one that
  // maximizes the occupancy imbalance between the children (the paper's
  // maxDiff criterion, cycling cube -> flat -> slim shapes).
  const Dims3 ext = box.extents();
  const std::size_t m = std::max({ext.nx, ext.ny, ext.nz});
  int best_axis = -1;
  std::int64_t best_diff = -1;
  const std::size_t axis_ext[3] = {ext.nx, ext.ny, ext.nz};
  for (int axis = 0; axis < 3; ++axis) {
    if (axis_ext[axis] != m || m < 2) continue;
    const auto [a, b] = split_box(box, axis);
    const auto diff = std::abs(static_cast<std::int64_t>(sat.count(a)) -
                               static_cast<std::int64_t>(sat.count(b)));
    if (diff > best_diff) {
      best_diff = diff;
      best_axis = axis;
    }
  }
  if (best_axis < 0)
    throw std::logic_error("akdtree: mixed node with no splittable axis");
  const auto [a, b] = split_box(box, best_axis);
  akd_recurse(sat, a, out);
  akd_recurse(sat, b, out);
}

}  // namespace

std::vector<SubBlock> akdtree_extract(const Array3D<std::uint8_t>& occupancy) {
  const Dims3 d = occupancy.dims();
  std::vector<SubBlock> out;
  if (d.volume() == 0) return out;
  const Sat sat(occupancy);
  akd_recurse(sat, Box3{0, 0, 0, d.nx, d.ny, d.nz}, out);
  return out;
}

std::vector<BlockGroup> gather_groups(const amr::AmrLevel& level,
                                      const BlockGrid& grid,
                                      const std::vector<SubBlock>& sub_blocks,
                                      ArenaScope& scratch) {
  const std::size_t B = grid.block_size();
  const Dims3 cells = grid.cell_dims();

  std::map<std::tuple<std::size_t, std::size_t, std::size_t>, std::size_t>
      group_of;
  std::vector<BlockGroup> groups;
  for (const SubBlock& sb : sub_blocks) {
    const auto key = std::make_tuple(sb.sx, sb.sy, sb.sz);
    const auto [it, inserted] = group_of.try_emplace(key, groups.size());
    if (inserted) {
      BlockGroup g;
      g.block_cell_dims = {sb.sx * B, sb.sy * B, sb.sz * B};
      groups.push_back(std::move(g));
    }
    groups[it->second].members.push_back(sb);
  }

  // One loop over the members of every group: each member copies its
  // rows that lie inside the level with one memcpy apiece and zeroes only
  // the cells past the level edge, so no buffer is cleared up front.
  std::vector<std::pair<std::size_t, std::size_t>> jobs;  // (group, member)
  std::size_t cells_total = 0;
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    BlockGroup& g = groups[gi];
    const std::size_t vol = g.block_cell_dims.volume();
    g.buffer = scratch.alloc<double>(vol * g.members.size());
    cells_total += g.buffer.size();
    for (std::size_t mi = 0; mi < g.members.size(); ++mi)
      jobs.emplace_back(gi, mi);
  }
  if (jobs.empty()) return groups;
  const double* src = level.data.data();
  parallel_for(
      0, jobs.size(),
      [&](std::size_t k) {
        const auto [gi, mi] = jobs[k];
        const BlockGroup& g = groups[gi];
        const SubBlock& sb = g.members[mi];
        const Dims3 bd = g.block_cell_dims;
        double* dst = g.buffer.data() + mi * bd.volume();
        const std::size_t cx = sb.bx * B, cy = sb.by * B, cz = sb.bz * B;
        const auto inside = [](std::size_t c, std::size_t n, std::size_t e) {
          return c < e ? std::min(n, e - c) : std::size_t{0};
        };
        const std::size_t nx = inside(cx, bd.nx, cells.nx);
        const std::size_t ny = inside(cy, bd.ny, cells.ny);
        const std::size_t nz = inside(cz, bd.nz, cells.nz);
        for (std::size_t z = 0; z < bd.nz; ++z)
          for (std::size_t y = 0; y < bd.ny; ++y) {
            double* row = dst + bd.index(0, y, z);
            std::size_t copied = 0;
            if (y < ny && z < nz && nx > 0) {
              std::memcpy(row, src + cells.index(cx, cy + y, cz + z),
                          nx * sizeof(double));
              copied = nx;
            }
            std::fill(row + copied, row + bd.nx, 0.0);  // clipped edge
          }
      },
      grain_for(cells_total / jobs.size()));
  return groups;
}

void scatter_block(amr::AmrLevel& level, const BlockGrid& grid,
                   Dims3 block_cell_dims, const SubBlock& member,
                   std::span<const double> values) {
  const std::size_t B = grid.block_size();
  const Dims3 cells = grid.cell_dims();
  const Dims3 bd = block_cell_dims;
  if (values.size() != bd.volume())
    throw std::invalid_argument("scatter_block: value count mismatch");
  const std::size_t cx = member.bx * B, cy = member.by * B,
                    cz = member.bz * B;
  if (cx >= cells.nx || cy >= cells.ny || cz >= cells.nz) return;
  const std::size_t nx = std::min(bd.nx, cells.nx - cx);
  const std::size_t ny = std::min(bd.ny, cells.ny - cy);
  const std::size_t nz = std::min(bd.nz, cells.nz - cz);
  for (std::size_t z = 0; z < nz; ++z)
    for (std::size_t y = 0; y < ny; ++y) {
      const std::size_t at = cells.index(cx, cy + y, cz + z);
      double* dst = level.data.data() + at;
      const double* src = values.data() + bd.index(0, y, z);
      amr::for_each_valid_run(level.mask.span().subspan(at, nx),
                              [&](std::size_t lo, std::size_t hi) {
                                std::memcpy(dst + lo, src + lo,
                                            (hi - lo) * sizeof(double));
                              });
    }
}

void scatter_groups(amr::AmrLevel& level, const BlockGrid& grid,
                    const std::vector<BlockGroup>& groups) {
  for (const BlockGroup& g : groups) {
    const std::size_t vol = g.block_cell_dims.volume();
    if (g.buffer.size() != vol * g.members.size())
      throw std::invalid_argument("scatter_groups: buffer size mismatch");
    parallel_for(
        0, g.members.size(),
        [&](std::size_t mi) {
          scatter_block(level, grid, g.block_cell_dims, g.members[mi],
                        g.buffer.subspan(mi * vol, vol));
        },
        grain_for(vol));
  }
}

bool covers_exactly(const Array3D<std::uint8_t>& occupancy,
                    const std::vector<SubBlock>& sub_blocks) {
  const Dims3 d = occupancy.dims();
  Array3D<std::uint8_t> painted(d, 0);
  for (const SubBlock& sb : sub_blocks) {
    if (sb.bx + sb.sx > d.nx || sb.by + sb.sy > d.ny || sb.bz + sb.sz > d.nz)
      return false;  // out of range
    for (std::size_t z = sb.bz; z < sb.bz + sb.sz; ++z)
      for (std::size_t y = sb.by; y < sb.by + sb.sy; ++y)
        for (std::size_t x = sb.bx; x < sb.bx + sb.sx; ++x) {
          if (painted(x, y, z)) return false;  // overlap
          if (!occupancy(x, y, z)) return false;  // covers an empty block
          painted(x, y, z) = 1;
        }
  }
  for (std::size_t i = 0; i < d.volume(); ++i)
    if (occupancy[i] && !painted[i]) return false;  // missed a block
  return true;
}

}  // namespace tac::core
