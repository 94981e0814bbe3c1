#include "sz/sz.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "common/arena.hpp"
#include "common/bytes.hpp"
#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "common/telemetry.hpp"
#include "lossless/codec.hpp"
#include "lossless/huffman.hpp"
#include "sz/predictor.hpp"
#include "sz/regression.hpp"
#include "sz/quantizer.hpp"

namespace tac::sz {
namespace {

constexpr std::uint16_t kMagic = 0x5A53;  // "SZ"
constexpr std::uint8_t kVersion = 1;

enum class StreamKind : std::uint8_t {
  kConstant = 0,
  kGeneral = 1,
  kPwRel = 2,  // log-transformed payload for point-wise relative bounds
};

// ---------------------------------------------------------------------------
// Range scan (min/max/constant detection), SIMD-dispatched.
//
// Both paths — scalar and AVX2 — observe the same rules: non-finite
// values are excluded from lo/hi, and all_identical compares raw bit
// patterns against element 0 (so NaN payloads and -0.0 vs 0.0 count as
// different). lo/hi never reach the serialized stream directly (only
// hi - lo does), so tie-breaking of equal values cannot change bytes.
// ---------------------------------------------------------------------------

template <class T>
void scan_tail(const T* p, std::size_t i, std::size_t n, T first,
               ValueRange& r) {
  for (; i < n; ++i) {
    if (std::memcmp(p + i, &first, sizeof(T)) != 0) r.all_identical = false;
    const auto d = static_cast<double>(p[i]);
    if (std::isfinite(d)) {
      r.lo = std::min(r.lo, d);
      r.hi = std::max(r.hi, d);
    }
  }
}

template <class T>
ValueRange scan_range_scalar(const T* p, std::size_t n) {
  ValueRange r;
  r.lo = std::numeric_limits<double>::infinity();
  r.hi = -std::numeric_limits<double>::infinity();
  if (n == 0) return r;
  scan_tail(p, 0, n, p[0], r);
  return r;
}

#if TAC_SIMD_X86 && defined(__GNUC__)

__attribute__((target("avx2"))) ValueRange scan_range_avx2(const double* p,
                                                           std::size_t n) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  ValueRange r;
  r.lo = kInf;
  r.hi = -kInf;
  if (n == 0) return r;
  const double first = p[0];
  std::size_t i = 0;
  if (n >= 4) {
    const __m256d vinf = _mm256_set1_pd(kInf);
    const __m256d vninf = _mm256_set1_pd(-kInf);
    const __m256d absmask = _mm256_castsi256_pd(
        _mm256_set1_epi64x(0x7FFFFFFFFFFFFFFFll));
    const __m256i vfirst = _mm256_castpd_si256(_mm256_set1_pd(first));
    __m256i vident = _mm256_set1_epi64x(-1);
    __m256d vlo = vinf;
    __m256d vhi = vninf;
    for (; i + 4 <= n; i += 4) {
      const __m256d v = _mm256_loadu_pd(p + i);
      vident = _mm256_and_si256(
          vident, _mm256_cmpeq_epi64(_mm256_castpd_si256(v), vfirst));
      const __m256d mag = _mm256_and_pd(v, absmask);
      const __m256d fin = _mm256_cmp_pd(mag, vinf, _CMP_LT_OQ);
      vlo = _mm256_min_pd(vlo, _mm256_blendv_pd(vinf, v, fin));
      vhi = _mm256_max_pd(vhi, _mm256_blendv_pd(vninf, v, fin));
    }
    if (_mm256_movemask_epi8(vident) != -1) r.all_identical = false;
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, vlo);
    for (const double d : lanes) r.lo = std::min(r.lo, d);
    _mm256_store_pd(lanes, vhi);
    for (const double d : lanes) r.hi = std::max(r.hi, d);
  }
  scan_tail(p, i, n, first, r);
  return r;
}

__attribute__((target("avx2"))) ValueRange scan_range_avx2(const float* p,
                                                           std::size_t n) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  ValueRange r;
  r.lo = std::numeric_limits<double>::infinity();
  r.hi = -std::numeric_limits<double>::infinity();
  if (n == 0) return r;
  const float first = p[0];
  std::size_t i = 0;
  if (n >= 8) {
    const __m256 vinf = _mm256_set1_ps(kInf);
    const __m256 vninf = _mm256_set1_ps(-kInf);
    const __m256 absmask =
        _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF));
    const __m256i vfirst = _mm256_castps_si256(_mm256_set1_ps(first));
    __m256i vident = _mm256_set1_epi32(-1);
    __m256 vlo = vinf;
    __m256 vhi = vninf;
    for (; i + 8 <= n; i += 8) {
      const __m256 v = _mm256_loadu_ps(p + i);
      vident = _mm256_and_si256(
          vident, _mm256_cmpeq_epi32(_mm256_castps_si256(v), vfirst));
      const __m256 mag = _mm256_and_ps(v, absmask);
      const __m256 fin = _mm256_cmp_ps(mag, vinf, _CMP_LT_OQ);
      vlo = _mm256_min_ps(vlo, _mm256_blendv_ps(vinf, v, fin));
      vhi = _mm256_max_ps(vhi, _mm256_blendv_ps(vninf, v, fin));
    }
    if (_mm256_movemask_epi8(vident) != -1) r.all_identical = false;
    // float->double conversion is exact, so reducing in float then widening
    // equals the scalar double-domain reduction.
    alignas(32) float lanes[8];
    _mm256_store_ps(lanes, vlo);
    for (const float f : lanes) r.lo = std::min(r.lo, static_cast<double>(f));
    _mm256_store_ps(lanes, vhi);
    for (const float f : lanes) r.hi = std::max(r.hi, static_cast<double>(f));
  }
  scan_tail(p, i, n, first, r);
  return r;
}

#endif  // TAC_SIMD_X86 && __GNUC__

// ---------------------------------------------------------------------------
// Sign-bit packing (LSB-first per byte), SIMD-dispatched. movemask reads
// the raw IEEE sign bit, which matches std::signbit for every value
// including -0.0 and negative NaNs.
// ---------------------------------------------------------------------------

template <class T>
void pack_sign_tail(const T* p, std::size_t i, std::size_t n,
                    std::uint8_t* out) {
  for (; i < n; ++i)
    if (std::signbit(static_cast<double>(p[i])))
      out[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
}

#if TAC_SIMD_X86 && defined(__GNUC__)

__attribute__((target("avx2"))) void pack_sign_avx2(const double* p,
                                                    std::size_t n,
                                                    std::uint8_t* out) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const int lo = _mm256_movemask_pd(_mm256_loadu_pd(p + i));
    const int hi = _mm256_movemask_pd(_mm256_loadu_pd(p + i + 4));
    out[i / 8] = static_cast<std::uint8_t>(lo | (hi << 4));
  }
  pack_sign_tail(p, i, n, out);
}

__attribute__((target("avx2"))) void pack_sign_avx2(const float* p,
                                                    std::size_t n,
                                                    std::uint8_t* out) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    out[i / 8] =
        static_cast<std::uint8_t>(_mm256_movemask_ps(_mm256_loadu_ps(p + i)));
  pack_sign_tail(p, i, n, out);
}

#endif  // TAC_SIMD_X86 && __GNUC__

/// Per-block tiling for the SZ2-style hybrid predictor: which tiles use
/// regression and their plane coefficients. `fit_index[tile]` is -1 for
/// Lorenzo tiles, else an index into `fits`.
struct TilePlan {
  std::size_t pred_block = 6;
  Dims3 tiles;
  std::vector<std::int32_t> fit_index;
  std::vector<PlaneFit> fits;

  [[nodiscard]] Box3 tile_box(Dims3 block_dims, std::size_t tx,
                              std::size_t ty, std::size_t tz) const {
    return Box3{tx * pred_block,
                ty * pred_block,
                tz * pred_block,
                std::min(block_dims.nx, (tx + 1) * pred_block),
                std::min(block_dims.ny, (ty + 1) * pred_block),
                std::min(block_dims.nz, (tz + 1) * pred_block)};
  }
};

Dims3 tile_counts(Dims3 dims, std::size_t pb) {
  return {ceil_div(dims.nx, pb), ceil_div(dims.ny, pb),
          ceil_div(dims.nz, pb)};
}

/// Chooses Lorenzo vs regression per tile by the smaller total absolute
/// residual estimated on the original values (SZ2's selection, without
/// sampling). The Lorenzo estimate uses original neighbours — a close
/// proxy for the reconstruction the decompressor will predict from.
template <class T>
TilePlan plan_tiles(const T* block, Dims3 dims, std::size_t pb) {
  TilePlan plan;
  plan.pred_block = pb;
  plan.tiles = tile_counts(dims, pb);
  plan.fit_index.assign(plan.tiles.volume(), -1);
  const ReconView<T> view{block, dims};
  std::size_t t = 0;
  for (std::size_t tz = 0; tz < plan.tiles.nz; ++tz)
    for (std::size_t ty = 0; ty < plan.tiles.ny; ++ty)
      for (std::size_t tx = 0; tx < plan.tiles.nx; ++tx, ++t) {
        const Box3 box = plan.tile_box(dims, tx, ty, tz);
        const PlaneFit fit = fit_plane(block, dims, box);
        double err_reg = 0, err_lor = 0;
        for (std::size_t z = box.z0; z < box.z1; ++z)
          for (std::size_t y = box.y0; y < box.y1; ++y)
            for (std::size_t x = box.x0; x < box.x1; ++x) {
              double v = static_cast<double>(block[dims.index(x, y, z)]);
              if (!std::isfinite(v)) v = 0.0;
              err_reg += std::fabs(v - plane_predict(fit, box, x, y, z));
              err_lor += std::fabs(v - lorenzo_predict(view, x, y, z));
            }
        if (err_reg < err_lor) {
          plan.fit_index[t] = static_cast<std::int32_t>(plan.fits.size());
          plan.fits.push_back(fit);
        }
      }
  return plan;
}

// ---------------------------------------------------------------------------
// Row kernels.
//
// The historical per-cell loop dispatched the predictor (tile lookup,
// boundary handling, 3D index arithmetic) for every cell. The kernels
// below hoist all of that out of the inner x loop: boundary rows/cells go
// through the generic lorenzo_predict (bit-identical by construction, and
// its `0.0 + b` zero-extension terms are NOT removable — they normalize
// -0.0), while interior cells evaluate the identical expression tree
//     ((((((a + b) + c) - d) - e) - f) + g)
// from direct row-pointer loads. No term is reassociated, so every
// prediction — and therefore every output byte — is unchanged.
//
// The quantizer is latency-bound, not throughput-bound: each cell's
// prediction needs the previous cell's reconstruction, so the 6-add
// stencil, the residual divide and the round sit on one loop-carried
// chain (~60 cycles). The Lorenzo path therefore runs several adjacent
// interior rows as one wavefront, each row staggered kRowLag cells behind
// the one above: row y+1 only ever reads row-y cells that retired at
// least kRowLag iterations earlier, so the chains are independent and
// overlap in the pipeline. This is a reschedule of the same dataflow
// graph — every cell still sees bit-identical inputs.
// ---------------------------------------------------------------------------

/// Stagger distance between adjacent wavefront rows. Must be >= 1 so row
/// y+1 never reads a row-y cell from the same iteration; 2 keeps the
/// just-written neighbour out of store-to-load forwarding stalls.
constexpr std::size_t kRowLag = 2;

/// Interior Lorenzo prediction from hoisted row pointers. `left` is the
/// already-filtered west neighbour carried by the caller. always_inline:
/// a real call per cell costs more than the prediction itself.
template <class T>
[[gnu::always_inline]] inline double lorenzo_row_predict(double left,
                                                         const T* ym,
                                                         const T* zm,
                                                         const T* yzm,
                                                         std::size_t x) {
  return ((((((left + finite_or_zero(static_cast<double>(ym[x]))) +
              finite_or_zero(static_cast<double>(zm[x]))) -
             finite_or_zero(static_cast<double>(ym[x - 1]))) -
            finite_or_zero(static_cast<double>(zm[x - 1]))) -
           finite_or_zero(static_cast<double>(yzm[x]))) +
          finite_or_zero(static_cast<double>(yzm[x - 1])));
}

/// Interior rows per wavefront. The quantizer keeps four loop-carried
/// chains in flight to cover its divide-and-round latency; six- and
/// eight-row fronts spill the per-row pointer and carry state past the 16
/// general registers and ran up to 14% slower on 128^3 grids. The
/// reconstruction chain has no divide or round, and three rows measured
/// faster than four on 8^3 and 128^2 x 32 blocks (4-vCPU Xeon VM). Not
/// dispatched at runtime: a front is a pure reschedule of the raster
/// dataflow, so every row count produces the same bytes.
constexpr std::size_t kQuantizeWaveRows = 4;
constexpr std::size_t kReconstructWaveRows = 3;

/// Runs one W-row interleaved wavefront over interior rows [y, y+W) of
/// plane z. `first_cell(i, yy)` handles the x == 0 boundary cell of row
/// yy; `row_cell(i, pred)` the interior cells. Both return the filtered
/// reconstructed value that becomes the row's carried `left`.
template <std::size_t W, class T, class FirstCell, class RowCell>
[[gnu::always_inline]] inline void wave_rows(const T* recon,
                                             std::size_t plane, std::size_t y,
                                             std::size_t nx, std::size_t nxy,
                                             FirstCell&& first_cell,
                                             RowCell&& row_cell) {
  // up[k] / down[k]: row y - 1 + k of this plane / of the plane below.
  // Row w's north neighbour is up[w], its own row below is down[w + 1].
  std::array<std::size_t, W> rows;
  std::array<const T*, W + 1> up;
  std::array<const T*, W + 1> down;
  std::array<double, W> left;
  for (std::size_t k = 0; k <= W; ++k) {
    up[k] = recon + plane + (y - 1 + k) * nx;
    down[k] = up[k] - nxy;
  }
  for (std::size_t w = 0; w < W; ++w) {
    rows[w] = plane + (y + w) * nx;
    left[w] = first_cell(rows[w], y + w);
  }
  // Runs cell x - w * kRowLag of every row w for which `active(w)`.
  const auto lanes = [&](std::size_t x, auto&& active)
      __attribute__((always_inline)) {
    [&]<std::size_t... Ws>(std::index_sequence<Ws...>)
        __attribute__((always_inline)) {
          ((active(Ws) ? (void)(left[Ws] = row_cell(
                             rows[Ws] + (x - Ws * kRowLag),
                             lorenzo_row_predict(left[Ws], up[Ws],
                                                 down[Ws + 1], down[Ws],
                                                 x - Ws * kRowLag)))
                       : (void)0),
           ...);
        }(std::make_index_sequence<W>{});
  };
  const std::size_t steady_begin = 1 + (W - 1) * kRowLag;
  const std::size_t x_end = nx + (W - 1) * kRowLag;
  std::size_t x = 1;
  if (nx < steady_begin) {  // rows shorter than the ramp-up
    for (; x < x_end; ++x)
      lanes(x, [&](std::size_t w) __attribute__((always_inline)) {
        return x >= 1 + w * kRowLag && x < nx + w * kRowLag;
      });
    return;
  }
  // Ramp-up: row w joins at x = 1 + w * kRowLag. Steady state: every row
  // in flight, branchless. Drain: row w leaves at x = nx + w * kRowLag.
  for (; x < steady_begin; ++x)
    lanes(x, [&](std::size_t w) __attribute__((always_inline)) {
      return x >= 1 + w * kRowLag;
    });
  for (; x < nx; ++x) lanes(x, [](std::size_t) { return true; });
  for (; x < x_end; ++x)
    lanes(x, [&](std::size_t w) __attribute__((always_inline)) {
      return x < nx + w * kRowLag;
    });
}

/// Splits the interior rows [1, ny) of a plane into full W-row wavefronts
/// and one front of the (ny - 1) mod W rows left, and calls
/// `front.template operator()<R>(y)` for each front of R rows starting at
/// row y. R is a compile-time constant, so every front runs the same
/// wave_rows kernel.
template <std::size_t W, class Front>
[[gnu::always_inline]] inline void wave_fronts(std::size_t ny, Front&& front) {
  std::size_t y = 1;
  for (; y + W <= ny; y += W) front.template operator()<W>(y);
  [&]<std::size_t... Rs>(std::index_sequence<Rs...>)
      __attribute__((always_inline)) {
        ((y + Rs + 1 == ny ? front.template operator()<Rs + 1>(y) : void()),
         ...);
      }(std::make_index_sequence<W - 1>{});
}

/// The one prediction walk of a block, shared by the quantizer and the
/// decoder so that both see the same predictions in the same order. Calls
/// `cell(i, pred)` once for every cell i, after it was called for every
/// neighbour that `pred` reads: `cell` stores the reconstructed value at
/// recon[i] and returns it filtered, as the west neighbour the next
/// prediction carries. Lorenzo blocks (no plan) run W-row wavefronts;
/// hybrid blocks run each row tile by tile.
template <std::size_t W, class T, class Cell>
[[gnu::always_inline]] inline void predict_block(const T* recon, Dims3 dims,
                                                 const TilePlan* plan,
                                                 Cell&& cell) {
  const ReconView<T> view{recon, dims};
  const std::size_t nx = dims.nx;
  const std::size_t nxy = dims.nx * dims.ny;

  if (plan == nullptr) {
    for (std::size_t z = 0; z < dims.nz; ++z) {
      const std::size_t plane = z * nxy;
      if (z == 0) {
        for (std::size_t y = 0; y < dims.ny; ++y)
          for (std::size_t x = 0; x < nx; ++x)
            cell(plane + y * nx + x, lorenzo_predict(view, x, y, z));
        continue;
      }
      for (std::size_t x = 0; x < nx; ++x)
        cell(plane + x, lorenzo_predict(view, x, 0, z));
      wave_fronts<W>(dims.ny, [&]<std::size_t R>(std::size_t y)
                                  __attribute__((always_inline)) {
        wave_rows<R, T>(
            recon, plane, y, nx, nxy,
            [&](std::size_t i, std::size_t yy)
                __attribute__((always_inline)) {
                  return cell(i, lorenzo_predict(view, 0, yy, z));
                },
            cell);
      });
    }
    return;
  }

  const std::size_t pb = plan->pred_block;
  for (std::size_t z = 0; z < dims.nz; ++z) {
    const std::size_t tz = z / pb;
    for (std::size_t y = 0; y < dims.ny; ++y) {
      const std::size_t ty = y / pb;
      const std::size_t row = z * nxy + y * nx;
      const T* rc = recon + row;
      for (std::size_t tx = 0; tx < plan->tiles.nx; ++tx) {
        const std::size_t x0 = tx * pb;
        const std::size_t x1 = std::min(nx, x0 + pb);
        const std::int32_t fi = plan->fit_index[plan->tiles.index(tx, ty, tz)];
        if (fi >= 0) {
          const Box3 box = plan->tile_box(dims, tx, ty, tz);
          const PlaneFit& f = plan->fits[static_cast<std::size_t>(fi)];
          const double cx =
              (static_cast<double>(box.x1 - box.x0) - 1) / 2.0;
          const double cy =
              (static_cast<double>(box.y1 - box.y0) - 1) / 2.0;
          const double cz =
              (static_cast<double>(box.z1 - box.z0) - 1) / 2.0;
          const double b0 = static_cast<double>(f.b0);
          const double bx = static_cast<double>(f.bx);
          const double byuy = static_cast<double>(f.by) *
                              (static_cast<double>(y - box.y0) - cy);
          const double bzuz = static_cast<double>(f.bz) *
                              (static_cast<double>(z - box.z0) - cz);
          for (std::size_t x = x0; x < x1; ++x)
            cell(row + x,
                 ((b0 + bx * (static_cast<double>(x - box.x0) - cx)) + byuy) +
                     bzuz);
        } else if (z == 0 || y == 0) {
          for (std::size_t x = x0; x < x1; ++x)
            cell(row + x, lorenzo_predict(view, x, y, z));
        } else {
          const T* ym = rc - nx;
          const T* zm = rc - nxy;
          const T* yzm = zm - nx;
          std::size_t x = x0;
          double left = 0;
          if (x == 0) {
            left = cell(row, lorenzo_predict(view, 0, y, z));
            ++x;
          } else {
            left = finite_or_zero(static_cast<double>(rc[x - 1]));
          }
          for (; x < x1; ++x)
            left = cell(row + x, lorenzo_row_predict(left, ym, zm, yzm, x));
        }
      }
    }
  }
}

/// Quantizes one block: fills `codes` and `recon` (the values the
/// decompressor will see). Returns the number of outliers (codes[i] == 0
/// cells); their exact values are collected by a second pass in compress.
template <class T>
std::size_t quantize_block(const T* block, Dims3 dims, double eb,
                           std::uint32_t radius, std::uint32_t* codes,
                           T* recon, const TilePlan* plan) {
  std::size_t n_outliers = 0;
  predict_block<kQuantizeWaveRows>(
      recon, dims, plan,
      [&](std::size_t i, double pred) __attribute__((always_inline)) {
        const double value = static_cast<double>(block[i]);
        if (eb > 0) {
          QuantResult q = quantize(value, pred, eb, radius);
          if (!q.outlier) {
            // The decompressor stores T; validate the bound on the rounded
            // value so float truncation cannot break the contract.
            const T stored = static_cast<T>(q.reconstructed);
            if (std::fabs(static_cast<double>(stored) - value) <= eb) {
              codes[i] = q.code;
              recon[i] = stored;
              return finite_or_zero(static_cast<double>(stored));
            }
          }
        }
        codes[i] = 0;
        recon[i] = block[i];  // exact
        ++n_outliers;
        return finite_or_zero(static_cast<double>(block[i]));
      });
  return n_outliers;
}

/// Reconstructs one block into `out`. The caller checked that `outliers`
/// holds exactly one value per code-0 cell of the block, in scan order.
/// They go into their cells before the walk, so the walk reads an
/// outlier like any other reconstructed neighbour.
template <class T>
void reconstruct_block(const std::uint32_t* codes, Dims3 dims, double eb,
                       std::uint32_t radius, std::span<const T> outliers,
                       T* out, const TilePlan* plan) {
  for (std::size_t i = 0, k = 0; k < outliers.size(); ++i)
    if (codes[i] == 0) out[i] = outliers[k++];
  predict_block<kReconstructWaveRows>(
      out, dims, plan,
      [&](std::size_t i, double pred) __attribute__((always_inline)) {
        const std::uint32_t code = codes[i];
        const T v = code == 0
                        ? out[i]
                        : static_cast<T>(dequantize(code, pred, eb, radius));
        out[i] = v;
        return finite_or_zero(static_cast<double>(v));
      });
}

#if TAC_SIMD_X86 && defined(__GNUC__)

// ---------------------------------------------------------------------------
// Lane walk: the Lorenzo quantizer over four blocks per __m256d.
//
// The blocks of a multi-block stream are independent prediction chains of
// one extent. Lane k of a vector carries block k of a group of four
// through the raster walk, and G vectors (4G blocks) step in lock-step:
// their chains overlap at every cell, where a W-row wavefront spends most
// of a row of 8 or 16 cells ramping up and draining. Each lane evaluates
// lorenzo_predict's expression tree term for term, with +0.0 for the
// neighbours outside the block, and quantize()'s steps as separately
// rounded IEEE vector ops, so every code and outlier equals the scalar
// walk's.
// ---------------------------------------------------------------------------

/// The lane walk. `ring` is the reconstruction scratch: two planes of
/// (ny + 1) x (nx + 1) cells of G vectors, zeroed. Cell (x, y) of a plane
/// sits at column x + 1 of row y + 1, so row 0 and column 0 are the zero
/// neighbours below the block origin. The planes alternate as z's and
/// z - 1's; at z = 0 the other plane, not yet written, is the zero plane
/// below the block. Calls `cell(g, i, pred)` for vector g of every cell i
/// in raster order; it returns the filtered reconstruction, which the walk
/// stores for the predictions that read it.
template <std::size_t G, class Cell>
[[gnu::always_inline]] __attribute__((target("avx2"))) inline void lane_walk(
    __m256d* ring, Dims3 dims, Cell& cell) {
  const std::size_t row = (dims.nx + 1) * G;
  const std::size_t plane = (dims.ny + 1) * row;
  std::size_t i = 0;
  for (std::size_t z = 0; z < dims.nz; ++z) {
    __m256d* cur = ring + z % 2 * plane;
    const __m256d* below = ring + (1 - z % 2) * plane;
    for (std::size_t y = 0; y < dims.ny; ++y) {
      __m256d* c = cur + (y + 1) * row + G;
      const __m256d* n = c - row;
      const __m256d* b = below + (y + 1) * row + G;
      const __m256d* nb = b - row;
      __m256d west[G];
      for (__m256d& w : west) w = _mm256_setzero_pd();
      for (std::size_t x = 0; x < dims.nx;
           ++x, ++i, c += G, n += G, b += G, nb += G) {
        const __m256d* nw = n - G;
        const __m256d* wb = b - G;
        const __m256d* nwb = nb - G;
        const auto step = [&](std::size_t g)
            __attribute__((always_inline, target("avx2"))) {
              // lorenzo_predict's order: W + N + B - NW - WB - NB + NWB.
              __m256d p = _mm256_add_pd(west[g], n[g]);
              p = _mm256_add_pd(p, b[g]);
              p = _mm256_sub_pd(p, nw[g]);
              p = _mm256_sub_pd(p, wb[g]);
              p = _mm256_sub_pd(p, nb[g]);
              p = _mm256_add_pd(p, nwb[g]);
              west[g] = c[g] = cell(g, i, p);
            };
        [&]<std::size_t... Gs>(std::index_sequence<Gs...>)
            __attribute__((always_inline, target("avx2"))) {
              (step(Gs), ...);
            }(std::make_index_sequence<G>{});
      }
    }
  }
}

/// quantize() on four lanes, for the lane walks. `data` and `codes` point
/// at the step's cell in lane 0; lane k of vector g reads and writes
/// 4g + k lane strides further on. In the block lane walk the stride is
/// one block volume, so lane 4g + k is block 4g + k; in the row lane walk
/// it is the distance between two rows' cells of one step. Counts each
/// lane's quantized (non-outlier) cells.
template <std::size_t G>
struct QuantizeLanes {
  const double* data;
  std::uint32_t* codes;
  std::size_t vol;  ///< the lane stride
  __m256d eb, two_eb, radius;
  __m256i quantized[G];

  [[gnu::always_inline]] __attribute__((target("avx2"))) __m256d operator()(
      std::size_t g, std::size_t i, __m256d pred) {
    const double* v = data + 4 * g * vol + i;
    const __m256d value = _mm256_set_pd(v[3 * vol], v[2 * vol], v[vol], v[0]);
    const Lanes q = quantize(value, pred);
    std::uint32_t* out = codes + 4 * g * vol + i;
    out[0] = static_cast<std::uint32_t>(_mm_cvtsi128_si32(q.code));
    out[vol] = static_cast<std::uint32_t>(_mm_extract_epi32(q.code, 1));
    out[2 * vol] = static_cast<std::uint32_t>(_mm_extract_epi32(q.code, 2));
    out[3 * vol] = static_cast<std::uint32_t>(_mm_extract_epi32(q.code, 3));
    quantized[g] = _mm256_sub_epi64(quantized[g], _mm256_castpd_si256(q.ok));
    return q.recon;
  }

  /// operator() on the lanes set in `active` only: the others read and
  /// write no memory, count nothing and return +0.0.
  [[gnu::always_inline]] __attribute__((target("avx2"))) __m256d masked(
      std::size_t g, std::size_t i, __m256d pred, __m256d active) {
    const auto s = static_cast<std::int64_t>(vol);
    const __m256d value = _mm256_mask_i64gather_pd(
        _mm256_setzero_pd(), data + 4 * g * vol + i,
        _mm256_set_epi64x(3 * s, 2 * s, s, 0), active, 8);
    const Lanes q = quantize(value, pred);
    alignas(16) std::uint32_t code[4];
    _mm_store_si128(reinterpret_cast<__m128i*>(code), q.code);
    std::uint32_t* out = codes + 4 * g * vol + i;
    const int on = _mm256_movemask_pd(active);
    for (std::size_t k = 0; k < 4; ++k)
      if ((on >> k & 1) != 0) out[k * vol] = code[k];
    quantized[g] = _mm256_sub_epi64(
        quantized[g], _mm256_castpd_si256(_mm256_and_pd(q.ok, active)));
    return _mm256_and_pd(q.recon, active);
  }

 private:
  struct Lanes {
    __m128i code;  ///< q + radius, or 0 for an outlier
    __m256d ok;    ///< the lanes that quantized
    __m256d recon;  ///< the filtered reconstruction
  };

  [[gnu::always_inline]] __attribute__((target("avx2"))) Lanes quantize(
      __m256d value, __m256d pred) const {
    const __m256d inf =
        _mm256_set1_pd(std::numeric_limits<double>::infinity());
    const __m256d abs_mask =
        _mm256_castsi256_pd(_mm256_set1_epi64x(0x7FFFFFFFFFFFFFFFll));
    const __m256d finite_value =
        _mm256_cmp_pd(_mm256_and_pd(value, abs_mask), inf, _CMP_LT_OQ);
    const __m256d q = _mm256_round_pd(
        _mm256_div_pd(_mm256_sub_pd(value, pred), two_eb),
        _MM_FROUND_CUR_DIRECTION | _MM_FROUND_NO_EXC);  // nearbyint
    // A value or prediction that is not finite makes q infinite or NaN,
    // so this test also rejects what quantize()'s isfinite checks do.
    const __m256d in_range =
        _mm256_cmp_pd(_mm256_and_pd(q, abs_mask), radius, _CMP_LT_OQ);
    // q + 0.0 turns -0.0 into +0.0, as the scalar int64 round trip does.
    const __m256d recon = _mm256_add_pd(
        pred, _mm256_mul_pd(two_eb, _mm256_add_pd(q, _mm256_setzero_pd())));
    const __m256d bounded = _mm256_cmp_pd(
        _mm256_and_pd(_mm256_sub_pd(recon, value), abs_mask), eb, _CMP_LE_OQ);
    const __m256d ok = _mm256_and_pd(in_range, bounded);
    // An outlier keeps its exact value, read as 0 when it is not finite.
    return {_mm256_cvtpd_epi32(_mm256_and_pd(_mm256_add_pd(q, radius), ok)),
            ok,
            _mm256_blendv_pd(_mm256_and_pd(value, finite_value), recon, ok)};
  }
};

/// Quantizes the 4G blocks of a double Lorenzo stream that start at
/// `data` with the lane walk: fills their codes and writes each block's
/// outlier count to n_outliers[0, 4G). `eb` must be > 0.
template <std::size_t G>
__attribute__((target("avx2"))) void quantize_lanes(
    const double* data, Dims3 dims, double eb, std::uint32_t radius,
    std::uint32_t* codes, std::size_t* n_outliers) {
  const std::size_t vol = dims.volume();
  ArenaScope scratch;
  // The arena's 64-byte alignment makes every vector of the ring aligned.
  const auto ring =
      scratch.alloc_zero<double>(4 * 2 * (dims.nx + 1) * (dims.ny + 1) * G);
  QuantizeLanes<G> cell{data,
                        codes,
                        vol,
                        _mm256_set1_pd(eb),
                        _mm256_set1_pd(2.0 * eb),
                        _mm256_set1_pd(static_cast<double>(radius)),
                        {}};
  lane_walk<G>(reinterpret_cast<__m256d*>(ring.data()), dims, cell);
  for (std::size_t g = 0; g < G; ++g) {
    alignas(32) std::uint64_t quantized[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(quantized),
                       cell.quantized[g]);
    for (std::size_t k = 0; k < 4; ++k)
      n_outliers[4 * g + k] = vol - quantized[k];
  }
}

// ---------------------------------------------------------------------------
// Row lane walk: the Lorenzo quantizer over eight rows of one block.
//
// A block that the block lane walk leaves (a stream's only block, or one
// of its last nblocks mod 4) is one prediction chain in raster order, but
// its rows need not wait for each other: row y + 1 reads row y's cells at
// x - 1 and x only, so it can run kRowLag cells behind row y, as the rows
// of a wave_rows front do. Lane k of a step's two vectors carries row
// y0 + k of a front of eight rows at cell x = t - k * kRowLag. Lanes whose
// cell lies outside the block (while a front ramps up and drains, and the
// missing rows of a last front of fewer than eight) are masked off: they
// touch no memory and hold +0.0, the west neighbour of the cell they
// start at.
// ---------------------------------------------------------------------------

/// Rows per row-walk front: the lanes of two vectors.
constexpr std::size_t kLaneRows = 8;

/// Quantizes one block of a double Lorenzo stream with the row lane walk:
/// fills its codes and returns its outlier count. `eb` must be > 0 and
/// dims.nx > kRowLag.
///
/// The filtered reconstruction is kept per front, one step's eight lanes
/// (a "diagonal" of the front) per 64 bytes, in two planes that alternate
/// as z's and z - 1's; at z = 0 the other plane, not yet written, is the
/// zero plane below the block. So the plane-below neighbours of a step
/// are one aligned load, and its lanes store in one aligned store. The
/// neighbours within the plane come from registers: lane k's cell on the
/// row before is lane k - 1's of kRowLag steps ago, and lane 0's is lane
/// 7's of the front before, or +0.0 in the first front.
__attribute__((target("avx2"))) std::size_t quantize_rows(
    const double* data, Dims3 dims, double eb, std::uint32_t radius,
    std::uint32_t* codes) {
  static_assert(kRowLag == 2, "the step keeps two steps of history");
  const std::size_t nx = dims.nx;
  const std::size_t ny = dims.ny;
  constexpr std::size_t kRamp = (kLaneRows - 1) * kRowLag;
  const std::size_t diagonals = nx + kRamp;
  const std::size_t front_size = diagonals * kLaneRows;
  const std::size_t plane = ceil_div(ny, kLaneRows) * front_size;
  ArenaScope scratch;
  // The arena's 64-byte alignment makes every diagonal aligned.
  const auto ring = scratch.alloc_zero<double>(2 * plane);
  // A step's cells lie one row on and kRowLag cells back from lane to lane.
  QuantizeLanes<2> cell{data,
                        codes,
                        nx - kRowLag,
                        _mm256_set1_pd(eb),
                        _mm256_set1_pd(2.0 * eb),
                        _mm256_set1_pd(static_cast<double>(radius)),
                        {}};
  const auto lag = static_cast<std::int64_t>(kRowLag);
  const __m256i lane_lag[2] = {
      _mm256_set_epi64x(3 * lag, 2 * lag, lag, 0),
      _mm256_set_epi64x(7 * lag, 6 * lag, 5 * lag, 4 * lag)};
  const __m256i lane_row[2] = {_mm256_set_epi64x(3, 2, 1, 0),
                               _mm256_set_epi64x(7, 6, 5, 4)};
  const __m256i width = _mm256_set1_epi64x(static_cast<std::int64_t>(nx));
  const __m256i before = _mm256_set1_epi64x(-1);

  for (std::size_t z = 0; z < dims.nz; ++z) {
    double* cur = ring.data() + z % 2 * plane;
    const double* below = ring.data() + (1 - z % 2) * plane;
    for (std::size_t y0 = 0, f = 0; y0 < ny; y0 += kLaneRows, ++f) {
      const std::size_t rows = std::min(kLaneRows, ny - y0);
      const __m256i rows_v =
          _mm256_set1_epi64x(static_cast<std::int64_t>(rows));
      double* out = cur + f * front_size;
      const double* in = below + f * front_size;
      // Lane 7 of the front before: the row above lane 0, kRamp
      // diagonals on.
      const double* up = f == 0 ? nullptr : out - front_size + kRamp * kLaneRows + 7;
      const double* up_below =
          f == 0 ? nullptr : in - front_size + kRamp * kLaneRows + 7;
      // Lane 0's cell at t = 0 in the block.
      const std::size_t at = (z * ny + y0) * nx;
      // Per vector: the reconstruction of the last two steps, and the
      // neighbours the last step read, which are this step's west ones.
      __m256d r1[2], r2[2], n1[2], b1[2], b2[2], nb1[2];
      for (std::size_t g = 0; g < 2; ++g)
        r1[g] = r2[g] = n1[g] = b1[g] = b2[g] = nb1[g] = _mm256_setzero_pd();
      const auto step = [&]<bool kMasked>(std::size_t t)
          __attribute__((always_inline, target("avx2"))) {
            // The row above lane 0 at x = t, in this plane and below.
            const bool top = up != nullptr && t < nx;
            const __m256d fill_n =
                _mm256_set1_pd(top ? up[t * kLaneRows] : 0.0);
            const __m256d fill_nb =
                _mm256_set1_pd(top ? up_below[t * kLaneRows] : 0.0);
            // Lanes 0-3 of the second vector take lane 3 of the first.
            const __m256d carry_n = _mm256_permute4x64_pd(r2[0], 0xFF);
            const __m256d carry_nb = _mm256_permute4x64_pd(b2[0], 0xFF);
            for (std::size_t g = 0; g < 2; ++g) {
              __m256d active = _mm256_setzero_pd();
              if constexpr (kMasked) {
                const __m256i x = _mm256_sub_epi64(
                    _mm256_set1_epi64x(static_cast<std::int64_t>(t)),
                    lane_lag[g]);
                active = _mm256_castsi256_pd(_mm256_and_si256(
                    _mm256_and_si256(_mm256_cmpgt_epi64(x, before),
                                     _mm256_cmpgt_epi64(width, x)),
                    _mm256_cmpgt_epi64(rows_v, lane_row[g])));
              }
              // Lane k's north neighbour is lane k - 1's cell of kRowLag
              // steps ago: rotate the lanes up by one and fill lane 0.
              const __m256d n = _mm256_blend_pd(
                  _mm256_permute4x64_pd(r2[g], 0x93), g == 0 ? fill_n : carry_n,
                  1);
              const __m256d nb = _mm256_blend_pd(
                  _mm256_permute4x64_pd(b2[g], 0x93),
                  g == 0 ? fill_nb : carry_nb, 1);
              const __m256d b = _mm256_load_pd(in + t * kLaneRows + 4 * g);
              // lorenzo_predict's order: W + N + B - NW - WB - NB + NWB.
              __m256d p = _mm256_add_pd(r1[g], n);
              p = _mm256_add_pd(p, b);
              p = _mm256_sub_pd(p, n1[g]);
              p = _mm256_sub_pd(p, b1[g]);
              p = _mm256_sub_pd(p, nb);
              p = _mm256_add_pd(p, nb1[g]);
              __m256d r;
              if constexpr (kMasked)
                r = cell.masked(g, at + t, p, active);
              else
                r = cell(g, at + t, p);
              _mm256_store_pd(out + t * kLaneRows + 4 * g, r);
              r2[g] = r1[g];
              r1[g] = r;
              n1[g] = n;
              b2[g] = b1[g];
              b1[g] = b;
              nb1[g] = nb;
            }
          };
      // Row k runs cells t - k * kRowLag: the front ramps up until its
      // last row starts, and drains once its first row is done.
      const std::size_t steps = nx + (rows - 1) * kRowLag;
      const bool full = rows == kLaneRows && nx > kRamp;
      std::size_t t = 0;
      for (; t < (full ? kRamp : steps); ++t) step.template operator()<true>(t);
      if (full)
        for (; t < nx; ++t) step.template operator()<false>(t);
      for (; t < steps; ++t) step.template operator()<true>(t);
    }
  }
  alignas(32) std::uint64_t quantized[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(quantized), cell.quantized[0]);
  _mm256_store_si256(reinterpret_cast<__m256i*>(quantized + 4),
                     cell.quantized[1]);
  std::size_t n = 0;
  for (const std::uint64_t q : quantized) n += q;
  return dims.volume() - n;
}

#endif  // TAC_SIMD_X86 && __GNUC__

/// Vectors per wide lane-walk step (four blocks each). More vectors cover
/// more of the divide-and-round latency but touch more blocks per cell.
/// Quantize on 8^3, 16^3 and 32^3 blocks, one thread, 4-vCPU Xeon VM: one
/// vector ran at 5.1-5.9 ns/cell, two at 3.2-3.5; four matched two on 8^3
/// but took 6.3-6.8 ns/cell on 16^3 and 32^3.
constexpr std::size_t kWideLanes = 2;

/// The smallest block extents the row lane walk takes. A narrower block
/// spends most of each front ramping up and draining, and one of fewer
/// rows leaves most lanes idle. Quantize alone, one block, one thread,
/// 4-vCPU Xeon VM, row walk against block walk (ns/cell): 7x7x7 9.2 vs
/// 11.8, 8x3x8 11.9 vs 12.6, 8^3 8.1 vs 11.6, 128^3 3.5 vs 9.7; but
/// 6x4x4 12.3 vs 12.1, 5x8x8 11.2 vs 11.6, 4x8x8 13.7 vs 11.6 and
/// 8x2x8 14.9 vs 13.9.
constexpr std::size_t kRowWalkMinX = 7;
constexpr std::size_t kRowWalkMinY = 3;
static_assert(kRowWalkMinX > kRowLag, "quantize_rows needs nx > kRowLag");

/// Which blocks of a stream the lane walks quantize. Both take double
/// Lorenzo streams with a positive bound on an AVX2 host only.
struct LaneWalks {
  std::size_t blocks = 0;  ///< leading blocks on the block lane walk
  bool rows = false;       ///< the rest on the row lane walk
};

template <class T>
LaneWalks lane_walks([[maybe_unused]] std::size_t nblocks,
                     [[maybe_unused]] Dims3 dims, [[maybe_unused]] double eb,
                     [[maybe_unused]] bool hybrid) {
#if TAC_SIMD_X86 && defined(__GNUC__)
  if (std::is_same_v<T, double> && !hybrid && eb > 0 &&
      simd::active_level() == simd::Level::kAVX2)
    return {nblocks / 4 * 4,
            dims.nx >= kRowWalkMinX && dims.ny >= kRowWalkMinY};
#endif
  return {};
}

/// Writes the stream header that every stream kind starts with, up to
/// and including the kind byte. read_header parses it.
template <class T>
void put_header(ByteWriter& w, Dims3 dims, std::size_t nblocks,
                const SzConfig& cfg, double abs_eb, double value_range,
                StreamKind kind) {
  w.put<std::uint16_t>(kMagic);
  w.put<std::uint8_t>(kVersion);
  w.put<std::uint8_t>(static_cast<std::uint8_t>(sizeof(T)));
  w.put_varint(dims.nx);
  w.put_varint(dims.ny);
  w.put_varint(dims.nz);
  w.put_varint(nblocks);
  w.put<std::uint8_t>(static_cast<std::uint8_t>(cfg.mode));
  w.put<double>(cfg.error_bound);
  w.put<double>(abs_eb);
  w.put<double>(value_range);
  w.put_varint(cfg.quant_radius);
  w.put<std::uint8_t>(static_cast<std::uint8_t>(cfg.predictor));
  w.put_varint(cfg.pred_block);
  w.put<std::uint8_t>(static_cast<std::uint8_t>(kind));
}

}  // namespace

template <class T>
ValueRange scan_range(std::span<const T> data) {
#if TAC_SIMD_X86 && defined(__GNUC__)
  if (simd::active_level() == simd::Level::kAVX2)
    return scan_range_avx2(data.data(), data.size());
#endif
  return scan_range_scalar(data.data(), data.size());
}

template <class T>
std::vector<std::uint8_t> pack_sign_bits(std::span<const T> data) {
  std::vector<std::uint8_t> out((data.size() + 7) / 8, 0);
#if TAC_SIMD_X86 && defined(__GNUC__)
  if (simd::active_level() == simd::Level::kAVX2) {
    pack_sign_avx2(data.data(), data.size(), out.data());
    return out;
  }
#endif
  pack_sign_tail(data.data(), std::size_t{0}, data.size(), out.data());
  return out;
}

template <class T>
std::vector<std::uint8_t> compress(std::span<const T> data, Dims3 dims,
                                   const SzConfig& cfg, std::size_t nblocks) {
  const std::size_t vol = dims.volume();
  if (vol == 0 || nblocks == 0)
    throw std::invalid_argument("sz::compress: empty dims");
  if (data.size() != vol * nblocks)
    throw std::invalid_argument("sz::compress: data size != dims * nblocks");
  if (cfg.mode == ErrorBoundMode::kAbsolute &&
      !(cfg.error_bound > 0 && std::isfinite(cfg.error_bound)))
    throw std::invalid_argument("sz::compress: absolute bound must be > 0");
  if (cfg.quant_radius < 2 || cfg.quant_radius > (1u << 30))
    throw std::invalid_argument("sz::compress: quant_radius out of range");
  if (cfg.predictor == Predictor::kHybrid && cfg.pred_block < 2)
    throw std::invalid_argument("sz::compress: pred_block must be >= 2");

  TAC_SPAN_BYTES("sz.compress", data.size_bytes());
  TAC_COUNTER_ADD("sz.bytes_in", data.size_bytes());
  TAC_COUNTER_ADD("sz.blocks", nblocks);

  if (cfg.mode == ErrorBoundMode::kPointwiseRelative) {
    if (!(cfg.error_bound > 0) || !std::isfinite(cfg.error_bound))
      throw std::invalid_argument(
          "sz::compress: point-wise relative bound must be > 0");
    // Log transform: bounding |log v' - log v| by log(1 + eb) bounds the
    // ratio v'/v in [1/(1+eb), 1+eb]. A 1% margin absorbs the float
    // rounding of the log/exp pair (see config.hpp caveat for float).
    const double theta = std::log1p(cfg.error_bound * 0.99);
    std::vector<T> logs(data.size());
    std::vector<std::pair<std::uint64_t, T>> exceptions;
    for (std::size_t i = 0; i < data.size(); ++i) {
      const double v = static_cast<double>(data[i]);
      const double a = std::fabs(v);
      if (v == 0.0 || !std::isfinite(v)) {
        exceptions.emplace_back(i, data[i]);
        logs[i] = T{0};
      } else {
        logs[i] = static_cast<T>(std::log(a));
      }
    }
    SzConfig inner_cfg = cfg;
    inner_cfg.mode = ErrorBoundMode::kAbsolute;
    inner_cfg.error_bound = theta;
    const auto inner =
        compress<T>(std::span<const T>(logs), dims, inner_cfg, nblocks);

    ByteWriter w;
    // The abs bound slot carries the log-domain bound.
    put_header<T>(w, dims, nblocks, cfg, theta, 0.0, StreamKind::kPwRel);
    w.put_blob(inner);
    w.put_blob(lossless::compress(pack_sign_bits(data)));
    w.put_varint(exceptions.size());
    std::uint64_t prev = 0;
    for (const auto& [idx, val] : exceptions) {
      w.put_varint(idx - prev);
      prev = idx;
      w.put<T>(val);
    }
    return w.take();
  }

  const ValueRange range = [&] {
    TAC_SPAN_BYTES("sz.scan_range", data.size_bytes());
    return scan_range(data);
  }();
  const double span_val =
      std::isfinite(range.hi - range.lo) && range.hi > range.lo
          ? range.hi - range.lo
          : 0.0;
  double abs_eb = cfg.mode == ErrorBoundMode::kAbsolute
                      ? cfg.error_bound
                      : cfg.error_bound * span_val;
  if (!(abs_eb > 0) || !std::isfinite(abs_eb)) abs_eb = 0;  // lossless path

  ByteWriter w;
  put_header<T>(w, dims, nblocks, cfg, abs_eb, span_val,
                range.all_identical ? StreamKind::kConstant
                                    : StreamKind::kGeneral);
  if (range.all_identical) {
    w.put<T>(data[0]);
    return w.take();
  }

  const bool hybrid = cfg.predictor == Predictor::kHybrid;

  // All per-call scratch comes from the thread's bump arena: in the level
  // pipeline this function runs thousands of times per container, and the
  // steady-state path performs no heap allocation at all.
  ArenaScope scratch;
  const LaneWalks walks = lane_walks<T>(nblocks, dims, abs_eb, hybrid);
  const std::size_t lane_blocks = walks.blocks;
  const auto codes = scratch.alloc<std::uint32_t>(data.size());
  // The block walk's reconstruction, for the blocks the lane walks leave.
  const auto recon =
      scratch.alloc<T>(walks.rows ? 0 : (nblocks - lane_blocks) * vol);
  const auto offsets = scratch.alloc<std::size_t>(nblocks + 1);
  std::vector<TilePlan> plans(hybrid ? nblocks : 0);
  {
    TAC_SPAN_BYTES("sz.quantize", data.size_bytes());
    const auto quantize_one = [&](std::size_t b) {
#if TAC_SIMD_X86 && defined(__GNUC__)
      if constexpr (std::is_same_v<T, double>) {
        if (walks.rows) {
          offsets[b + 1] =
              quantize_rows(data.data() + b * vol, dims, abs_eb,
                            cfg.quant_radius, codes.data() + b * vol);
          return;
        }
      }
#endif
      const TilePlan* plan = nullptr;
      if (hybrid) {
        plans[b] = plan_tiles(data.data() + b * vol, dims, cfg.pred_block);
        plan = &plans[b];
      }
      offsets[b + 1] = quantize_block(
          data.data() + b * vol, dims, abs_eb, cfg.quant_radius,
          codes.data() + b * vol, recon.data() + (b - lane_blocks) * vol, plan);
    };
    TAC_COUNTER_ADD("sz.lane_blocks", lane_blocks);
    TAC_COUNTER_ADD("sz.lane_rows", walks.rows ? (nblocks - lane_blocks) *
                                                     dims.ny * dims.nz
                                               : 0);
    if (lane_blocks == 0) {
      parallel_for(0, nblocks, quantize_one, grain_for(vol));
    } else {
      // Work units: steps of kWideLanes vectors, then of one, then single
      // blocks.
      constexpr std::size_t kWide = 4 * kWideLanes;
      const std::size_t wide = lane_blocks / kWide;
      const std::size_t lane_units = wide + lane_blocks % kWide / 4;
      parallel_for(
          0, lane_units + (nblocks - lane_blocks),
          [&](std::size_t u) {
            if (u >= lane_units)
              return quantize_one(lane_blocks + u - lane_units);
#if TAC_SIMD_X86 && defined(__GNUC__)
            if constexpr (std::is_same_v<T, double>) {
              const std::size_t b =
                  u < wide ? kWide * u : kWide * wide + 4 * (u - wide);
              const auto step =
                  u < wide ? quantize_lanes<kWideLanes> : quantize_lanes<1>;
              step(data.data() + b * vol, dims, abs_eb, cfg.quant_radius,
                   codes.data() + b * vol, offsets.data() + b + 1);
            }
#endif
          },
          grain_for(kWide * vol));
    }
  }

  offsets[0] = 0;
  for (std::size_t b = 0; b < nblocks; ++b) offsets[b + 1] += offsets[b];

  // Second pass: outlier cells are exactly the codes[i] == 0 cells, and
  // their exact values are the original data — gather them in scan order
  // (the same order the old per-block vectors accumulated them in).
  const auto outliers = scratch.alloc<T>(offsets[nblocks]);
  TAC_COUNTER_ADD("sz.outliers", offsets[nblocks]);
  if (!outliers.empty()) {
    TAC_SPAN("sz.outlier_gather");
    parallel_for(
        0, nblocks,
        [&](std::size_t b) {
          std::size_t k = offsets[b];
          const std::uint32_t* bc = codes.data() + b * vol;
          const T* bd = data.data() + b * vol;
          for (std::size_t i = 0; i < vol; ++i)
            if (bc[i] == 0) outliers[k++] = bd[i];
        },
        grain_for(vol));
  }

  ByteWriter counts_w;
  for (std::size_t b = 0; b < nblocks; ++b)
    counts_w.put_varint(offsets[b + 1] - offsets[b]);

  const auto huff = lossless::huffman_compress(
      std::span<const std::uint32_t>(codes.data(), codes.size()));
  const auto huff_packed = lossless::compress(huff);
  w.put_blob(huff_packed);

  std::span<const std::uint8_t> outlier_bytes{
      reinterpret_cast<const std::uint8_t*>(outliers.data()),
      outliers.size() * sizeof(T)};
  const auto outliers_packed = lossless::compress(outlier_bytes);
  w.put_blob(outliers_packed);
  w.put_blob(counts_w.buffer());

  if (hybrid) {
    // Tile mode bits (1 = regression) and plane coefficients, both across
    // all blocks in order.
    std::vector<std::uint8_t> mode_bits;
    std::vector<std::uint8_t> coeff_bytes;
    std::size_t bit = 0;
    for (const TilePlan& plan : plans) {
      for (const std::int32_t fi : plan.fit_index) {
        if (bit % 8 == 0) mode_bits.push_back(0);
        if (fi >= 0)
          mode_bits.back() |= static_cast<std::uint8_t>(1u << (bit % 8));
        ++bit;
      }
      for (const PlaneFit& f : plan.fits) {
        const float c[4] = {f.b0, f.bx, f.by, f.bz};
        const auto* pc = reinterpret_cast<const std::uint8_t*>(c);
        coeff_bytes.insert(coeff_bytes.end(), pc, pc + sizeof(c));
      }
    }
    w.put_blob(lossless::compress(mode_bits));
    w.put_blob(lossless::compress(coeff_bytes));
  }
  auto out = w.take();
  TAC_COUNTER_ADD("sz.bytes_out", out.size());
  return out;
}

namespace {

struct Header {
  SzStreamInfo info;
  SzConfig cfg;
  std::size_t payload_offset = 0;
  StreamKind kind = StreamKind::kGeneral;
};

Header read_header(ByteReader& r) {
  Header h;
  if (r.get<std::uint16_t>() != kMagic)
    throw std::runtime_error("sz: bad magic");
  if (r.get<std::uint8_t>() != kVersion)
    throw std::runtime_error("sz: unsupported version");
  h.info.scalar_size = r.get<std::uint8_t>();
  h.info.block_dims.nx = static_cast<std::size_t>(r.get_varint());
  h.info.block_dims.ny = static_cast<std::size_t>(r.get_varint());
  h.info.block_dims.nz = static_cast<std::size_t>(r.get_varint());
  h.info.nblocks = static_cast<std::size_t>(r.get_varint());
  h.cfg.mode = static_cast<ErrorBoundMode>(r.get<std::uint8_t>());
  h.cfg.error_bound = r.get<double>();
  h.info.abs_error_bound = r.get<double>();
  h.info.value_range = r.get<double>();
  h.cfg.quant_radius = static_cast<std::uint32_t>(r.get_varint());
  const auto predictor = r.get<std::uint8_t>();
  if (predictor > static_cast<std::uint8_t>(Predictor::kHybrid))
    throw std::runtime_error("sz: unknown predictor " +
                             std::to_string(predictor));
  h.cfg.predictor = static_cast<Predictor>(predictor);
  h.cfg.pred_block = static_cast<std::size_t>(r.get_varint());
  // Hybrid tiles divide by the tile side; compress rejects the same.
  if (h.cfg.predictor == Predictor::kHybrid && h.cfg.pred_block < 2)
    throw std::runtime_error("sz: hybrid pred_block must be >= 2");
  h.kind = static_cast<StreamKind>(r.get<std::uint8_t>());
  h.info.constant = h.kind == StreamKind::kConstant;
  return h;
}

/// Checks the stream's element count, block volume × nblocks, against
/// the caller's count before anything is allocated.
void check_total(const SzStreamInfo& info, std::size_t count) {
  const Dims3& b = info.block_dims;
  std::size_t total = 0;
  if (__builtin_mul_overflow(b.nx, b.ny, &total) ||
      __builtin_mul_overflow(total, b.nz, &total) ||
      __builtin_mul_overflow(total, info.nblocks, &total))
    throw CountError("sz::decompress: declared element count overflows");
  if (total == 0)
    throw CountError("sz::decompress: stream declares no elements");
  if (total != count)
    throw CountError("sz::decompress: stream declares " +
                     std::to_string(total) + " elements, expected " +
                     std::to_string(count));
}

/// Reads a stream header holding `count` elements of type T.
template <class T>
Header read_checked_header(ByteReader& r, std::size_t count) {
  Header h = read_header(r);
  if (h.info.scalar_size != sizeof(T))
    throw std::runtime_error("sz::decompress: scalar type mismatch");
  check_total(h.info, count);
  return h;
}

/// Strict when the container declared a profile for this payload,
/// lenient (dispatch on each stream's own method byte) otherwise.
std::vector<std::uint8_t> unpack(
    std::span<const std::uint8_t> blob,
    std::optional<lossless::CodecProfile> expected) {
  return expected ? lossless::decompress(blob, *expected)
                  : lossless::decompress(blob);
}

/// Where a decode delivers its values: into `out` (the stream's count of
/// elements), or block by block to `sink`. `finish`, when set, rewrites
/// each decoded block b in place before it is delivered.
template <class T>
struct Target {
  T* out = nullptr;
  const BlockSink<T>* sink = nullptr;
  std::function<void(std::size_t, T*)> finish;
};

/// Runs `make(b, dst)` for every block b, concurrently, and delivers the
/// block: `dst` is block b of the output array, or a block of the
/// worker's arena scratch that goes to the sink once it is filled.
template <class T, class Make>
void deliver_blocks(const Target<T>& to, std::size_t nblocks, std::size_t vol,
                    const Make& make) {
  parallel_for(
      0, nblocks,
      [&](std::size_t b) {
        const auto fill = [&](T* dst) {
          make(b, dst);
          if (to.finish) to.finish(b, dst);
        };
        if (to.out != nullptr) {
          fill(to.out + b * vol);
          return;
        }
        ArenaScope scratch;
        const auto block = scratch.alloc<T>(vol);
        fill(block.data());
        (*to.sink)(b, std::span<const T>(block.data(), vol));
      },
      grain_for(vol));
}

/// Decodes a constant or general stream whose header `h` (holding
/// `total` elements) was just read from `r`. Every check runs before the
/// first value is delivered.
template <class T>
void decode_body(ByteReader& r, const Header& h, std::size_t total,
                 std::optional<lossless::CodecProfile> expected,
                 const Target<T>& to) {
  const Dims3 dims = h.info.block_dims;
  const std::size_t vol = dims.volume();
  const std::size_t nblocks = h.info.nblocks;

  if (h.kind == StreamKind::kConstant) {
    const T v = r.get<T>();
    deliver_blocks(to, nblocks, vol,
                   [&](std::size_t, T* dst) { std::fill_n(dst, vol, v); });
    return;
  }

  const auto codes =
      lossless::huffman_decompress(unpack(r.get_blob(), expected));
  if (codes.size() != total)
    throw std::runtime_error("sz::decompress: code count mismatch");

  ArenaScope scratch;
  const auto outlier_bytes = unpack(r.get_blob(), expected);
  if (outlier_bytes.size() % sizeof(T) != 0)
    throw std::runtime_error("sz::decompress: outlier byte count");
  const auto outliers = scratch.alloc<T>(outlier_bytes.size() / sizeof(T));
  if (!outlier_bytes.empty())
    std::memcpy(outliers.data(), outlier_bytes.data(), outlier_bytes.size());

  const auto counts_blob = r.get_blob();
  ByteReader counts_r(counts_blob);
  const auto offsets = scratch.alloc<std::size_t>(nblocks + 1);
  offsets[0] = 0;
  for (std::size_t b = 0; b < nblocks; ++b)
    offsets[b + 1] =
        offsets[b] + static_cast<std::size_t>(counts_r.get_varint());
  if (offsets.back() != outliers.size())
    throw std::runtime_error("sz::decompress: outlier count mismatch");

  std::vector<TilePlan> plans;
  if (h.cfg.predictor == Predictor::kHybrid) {
    const auto mode_bits = unpack(r.get_blob(), expected);
    const auto coeff_bytes = unpack(r.get_blob(), expected);
    if (coeff_bytes.size() % (4 * sizeof(float)) != 0)
      throw std::runtime_error("sz::decompress: coefficient payload");
    const Dims3 tiles = tile_counts(dims, h.cfg.pred_block);
    const std::size_t ntiles = tiles.volume();
    if (mode_bits.size() < (ntiles * nblocks + 7) / 8)
      throw std::runtime_error("sz::decompress: tile mode payload");
    plans.resize(nblocks);
    std::size_t bit = 0;
    std::size_t coeff = 0;
    const std::size_t ncoeffs = coeff_bytes.size() / sizeof(float);
    const auto* cf = reinterpret_cast<const float*>(coeff_bytes.data());
    for (TilePlan& plan : plans) {
      plan.pred_block = h.cfg.pred_block;
      plan.tiles = tiles;
      plan.fit_index.assign(ntiles, -1);
      for (std::size_t t = 0; t < ntiles; ++t, ++bit) {
        if ((mode_bits[bit / 8] >> (bit % 8)) & 1u) {
          if (coeff + 4 > ncoeffs)
            throw std::runtime_error("sz::decompress: coefficient underrun");
          plan.fit_index[t] = static_cast<std::int32_t>(plan.fits.size());
          plan.fits.push_back(
              PlaneFit{cf[coeff], cf[coeff + 1], cf[coeff + 2],
                       cf[coeff + 3]});
          coeff += 4;
        }
      }
    }
  }

  TAC_SPAN_BYTES("sz.reconstruct", total * sizeof(T));
  // Block b's code-0 cells take exactly its own outliers, in scan order.
  // Checking every block's count first keeps a hostile stream from
  // delivering any block, and lets reconstruct_block trust its cursors.
  parallel_for(
      0, nblocks,
      [&](std::size_t b) {
        const std::uint32_t* bc = codes.data() + b * vol;
        std::size_t zeros = 0;
        for (std::size_t i = 0; i < vol; ++i) zeros += bc[i] == 0;
        const std::size_t have = offsets[b + 1] - offsets[b];
        if (zeros > have)
          throw std::runtime_error("sz: outlier stream underrun");
        if (zeros < have)
          throw std::runtime_error("sz: outlier stream not fully consumed");
      },
      grain_for(vol));
  const double eb = h.info.abs_error_bound;
  const std::uint32_t radius = h.cfg.quant_radius;
  deliver_blocks(to, nblocks, vol, [&](std::size_t b, T* dst) {
    reconstruct_block(codes.data() + b * vol, dims, eb, radius,
                      std::span<const T>(outliers.data() + offsets[b],
                                         offsets[b + 1] - offsets[b]),
                      dst, plans.empty() ? nullptr : &plans[b]);
  });
}

/// Turns the log magnitudes of elements [first, first + n) into their
/// point-wise-relative values, in place: ±exp(v[j]) by the stored sign
/// bit, then the stored exceptions (zeros, non-finite values) of that
/// range, later entries winning. `exceptions` is sorted by index.
template <class T>
void pwrel_values(T* v, std::size_t first, std::size_t n,
                  std::span<const std::uint8_t> signs,
                  std::span<const std::pair<std::size_t, T>> exceptions) {
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t i = first + j;
    const double mag = std::exp(static_cast<double>(v[j]));
    const bool neg = (signs[i / 8] >> (i % 8)) & 1u;
    v[j] = static_cast<T>(neg ? -mag : mag);
  }
  auto it = std::lower_bound(
      exceptions.begin(), exceptions.end(), first,
      [](const std::pair<std::size_t, T>& e, std::size_t i) {
        return e.first < i;
      });
  for (; it != exceptions.end() && it->first < first + n; ++it)
    v[it->first - first] = it->second;
}

/// The one decoder behind decompress, decompress_into and
/// decompress_blocks.
template <class T>
void decode(std::span<const std::uint8_t> bytes, std::size_t total,
            std::optional<lossless::CodecProfile> expected,
            const Target<T>& to) {
  TAC_SPAN_BYTES("sz.decompress", bytes.size());
  TAC_COUNTER_ADD("sz.decompress_bytes_in", bytes.size());
  ByteReader r(bytes);
  const Header h = read_checked_header<T>(r, total);

  if (h.kind != StreamKind::kPwRel) {
    decode_body(r, h, total, expected, to);
  } else {
    // The log magnitudes are an absolute-bound stream of the same blocks;
    // each decoded block of logs turns into values on its own worker.
    ByteReader inner(r.get_blob());
    const Header ih = read_checked_header<T>(inner, total);
    if (ih.kind == StreamKind::kPwRel ||
        !(ih.info.block_dims == h.info.block_dims) ||
        ih.info.nblocks != h.info.nblocks)
      throw std::runtime_error(
          "sz::decompress: pw-rel log stream does not match its header");
    const auto signs = unpack(r.get_blob(), expected);
    if (signs.size() < (total + 7) / 8)
      throw std::runtime_error("sz::decompress: pw-rel sign bits truncated");
    std::vector<std::pair<std::size_t, T>> exceptions(
        r.get_count("sz::decompress: pw-rel exceptions", 1 + sizeof(T)));
    // Deltas keep the indices sorted and below `total`; one that would
    // pass `total` (or wrap) is rejected rather than reduced.
    std::size_t idx = 0;
    for (auto& [i, v] : exceptions) {
      const std::uint64_t delta = r.get_varint();
      if (delta >= total - idx)
        throw std::runtime_error("sz::decompress: pw-rel exception index");
      idx += static_cast<std::size_t>(delta);
      i = idx;
      v = r.get<T>();
    }
    const std::size_t vol = h.info.block_dims.volume();
    decode_body(inner, ih, total, expected,
                Target<T>{to.out, to.sink, [&](std::size_t b, T* block) {
                            pwrel_values<T>(block, b * vol, vol, signs,
                                            exceptions);
                          }});
  }
  TAC_COUNTER_ADD("sz.decompress_bytes_out", total * sizeof(T));
}

}  // namespace

template <class T>
std::vector<T> decompress(std::span<const std::uint8_t> bytes,
                          std::size_t count,
                          std::optional<lossless::CodecProfile> expected) {
  {
    ByteReader r(bytes);  // CountError before the result is allocated
    (void)read_checked_header<T>(r, count);
  }
  std::vector<T> out(count);
  decompress_into<T>(bytes, out, expected);
  return out;
}

template <class T>
void decompress_into(std::span<const std::uint8_t> bytes, std::span<T> out,
                     std::optional<lossless::CodecProfile> expected) {
  decode<T>(bytes, out.size(), expected, Target<T>{out.data(), nullptr, {}});
}

template <class T>
void decompress_blocks(std::span<const std::uint8_t> bytes, Dims3 block_dims,
                       std::size_t nblocks, const BlockSink<T>& sink,
                       std::optional<lossless::CodecProfile> expected) {
  const std::size_t count = block_dims.volume() * nblocks;
  ByteReader r(bytes);
  const Header h = read_checked_header<T>(r, count);
  if (!(h.info.block_dims == block_dims) || h.info.nblocks != nblocks)
    throw CountError("sz::decompress: stream declares other blocks than " +
                     std::to_string(nblocks) + " of " +
                     std::to_string(block_dims.nx) + "x" +
                     std::to_string(block_dims.ny) + "x" +
                     std::to_string(block_dims.nz));
  decode<T>(bytes, count, expected, Target<T>{nullptr, &sink, {}});
}

SzStreamInfo peek(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  Header h = read_header(r);
  if (h.kind == StreamKind::kPwRel) {
    const auto inner = r.get_blob();
    const SzStreamInfo inner_info = peek(inner);
    h.info.n_outliers = inner_info.n_outliers;
    return h.info;
  }
  if (h.kind == StreamKind::kGeneral) {
    const auto huff_packed = r.get_blob();
    const auto outliers_packed = r.get_blob();
    const auto counts_blob = r.get_blob();
    ByteReader counts_r(counts_blob);
    std::size_t n = 0;
    for (std::size_t b = 0; b < h.info.nblocks; ++b)
      n += static_cast<std::size_t>(counts_r.get_varint());
    h.info.n_outliers = n;
    h.info.huffman_bytes = huff_packed.size();
    h.info.outlier_bytes = outliers_packed.size();
    h.info.metadata_bytes = bytes.size() - huff_packed.size() -
                            outliers_packed.size();
  }
  return h.info;
}

template ValueRange scan_range<float>(std::span<const float>);
template ValueRange scan_range<double>(std::span<const double>);
template std::vector<std::uint8_t> pack_sign_bits<float>(
    std::span<const float>);
template std::vector<std::uint8_t> pack_sign_bits<double>(
    std::span<const double>);
template std::vector<std::uint8_t> compress<float>(std::span<const float>,
                                                   Dims3, const SzConfig&,
                                                   std::size_t);
template std::vector<std::uint8_t> compress<double>(std::span<const double>,
                                                    Dims3, const SzConfig&,
                                                    std::size_t);
template std::vector<float> decompress<float>(
    std::span<const std::uint8_t>, std::size_t,
    std::optional<lossless::CodecProfile>);
template std::vector<double> decompress<double>(
    std::span<const std::uint8_t>, std::size_t,
    std::optional<lossless::CodecProfile>);
template void decompress_into<float>(std::span<const std::uint8_t>,
                                    std::span<float>,
                                    std::optional<lossless::CodecProfile>);
template void decompress_into<double>(std::span<const std::uint8_t>,
                                     std::span<double>,
                                     std::optional<lossless::CodecProfile>);
template void decompress_blocks<float>(std::span<const std::uint8_t>, Dims3,
                                      std::size_t, const BlockSink<float>&,
                                      std::optional<lossless::CodecProfile>);
template void decompress_blocks<double>(std::span<const std::uint8_t>, Dims3,
                                       std::size_t, const BlockSink<double>&,
                                       std::optional<lossless::CodecProfile>);

}  // namespace tac::sz
