#include "sz/sz.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
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

/// Interior rows per wavefront. The quantizer keeps simd::kWavefrontRows
/// chains in flight to cover its divide-and-round latency. The
/// reconstruction chain has no divide or round, and three rows measured
/// faster than four on 8^3 and 128^2 x 32 blocks (4-vCPU Xeon VM).
constexpr std::size_t kQuantizeWaveRows = simd::kWavefrontRows;
constexpr std::size_t kReconstructWaveRows = 3;

/// Runs one W-row interleaved wavefront over interior rows [y, y+W) of
/// plane z. `first_cell(w, i, yy)` handles the x == 0 boundary cell of
/// row w; `row_cell(w, i, pred)` the interior cells. Both return the
/// filtered reconstructed value that becomes the row's carried `left`.
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
    left[w] = first_cell(w, rows[w], y + w);
  }
  // Runs cell x - w * kRowLag of every row w for which `active(w)`.
  const auto lanes = [&](std::size_t x, auto&& active)
      __attribute__((always_inline)) {
    [&]<std::size_t... Ws>(std::index_sequence<Ws...>)
        __attribute__((always_inline)) {
          ((active(Ws) ? (void)(left[Ws] = row_cell(
                             Ws, rows[Ws] + (x - Ws * kRowLag),
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

/// Quantizes one block: fills `codes` and `recon` (the values the
/// decompressor will see). Returns the number of outliers (codes[i] == 0
/// cells); their exact values are collected by a second pass in compress.
template <class T>
std::size_t quantize_block(const T* block, Dims3 dims, double eb,
                           std::uint32_t radius, std::uint32_t* codes,
                           T* recon, const TilePlan* plan) {
  const ReconView<T> view{recon, dims};
  const std::size_t nx = dims.nx;
  const std::size_t nxy = dims.nx * dims.ny;
  std::size_t n_outliers = 0;

  // Returns the just-reconstructed value, filtered, so callers can carry
  // the west neighbour in a register instead of reloading recon[i].
  const auto cell = [&](std::size_t i, double pred)
      __attribute__((always_inline)) -> double {
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
  };

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
      wave_fronts<kQuantizeWaveRows>(
          dims.ny, [&]<std::size_t R>(std::size_t y)
                       __attribute__((always_inline)) {
        wave_rows<R, T>(
            recon, plane, y, nx, nxy,
            [&](std::size_t, std::size_t i, std::size_t yy)
                __attribute__((always_inline)) {
                  return cell(i, lorenzo_predict(view, 0, yy, z));
                },
            [&](std::size_t, std::size_t i, double pred)
                __attribute__((always_inline)) { return cell(i, pred); });
      });
    }
    return n_outliers;
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
  return n_outliers;
}

template <class T>
void reconstruct_block(const std::uint32_t* codes, Dims3 dims, double eb,
                       std::uint32_t radius, const T* outliers,
                       std::size_t n_outliers, T* out,
                       const TilePlan* plan) {
  const ReconView<T> view{out, dims};
  const std::size_t nx = dims.nx;
  const std::size_t nxy = dims.nx * dims.ny;
  std::size_t oi = 0;

  const auto take_outlier = [&](std::size_t i) {
    if (oi >= n_outliers)
      throw std::runtime_error("sz: outlier stream underrun");
    out[i] = outliers[oi++];
  };

  if (plan == nullptr) {
    // Dequantized cell with an explicit outlier cursor (so wavefront
    // rows can each hold their own scan-order position). Every neighbour
    // a prediction reads precedes the cell in scan order, so computing
    // pred eagerly only ever touches already-written memory.
    const auto rcell = [&](std::size_t i, double pred, std::size_t& oix)
        __attribute__((always_inline)) -> double {
      const std::uint32_t code = codes[i];
      T v;
      if (code == 0) {
        if (oix >= n_outliers)
          throw std::runtime_error("sz: outlier stream underrun");
        v = outliers[oix++];
      } else {
        v = static_cast<T>(dequantize(code, pred, eb, radius));
      }
      out[i] = v;
      return finite_or_zero(static_cast<double>(v));
    };

    for (std::size_t z = 0; z < dims.nz; ++z) {
      const std::size_t plane = z * nxy;
      if (z == 0) {
        for (std::size_t y = 0; y < dims.ny; ++y)
          for (std::size_t x = 0; x < nx; ++x)
            rcell(plane + y * nx + x, lorenzo_predict(view, x, y, z), oi);
        continue;
      }
      for (std::size_t x = 0; x < nx; ++x)
        rcell(plane + x, lorenzo_predict(view, x, 0, z), oi);
      wave_fronts<kReconstructWaveRows>(
          dims.ny, [&]<std::size_t R>(std::size_t y)
                       __attribute__((always_inline)) {
        // Per-row outlier cursors: row w starts past every code-0 cell of
        // the rows above it, so the k-th zero cell in scan order still
        // takes outliers[k] — the wavefront only reorders the
        // instruction schedule.
        std::array<std::size_t, R> cur;
        cur[0] = oi;
        for (std::size_t w = 0; w + 1 < R; ++w) {
          const std::size_t row = plane + (y + w) * nx;
          std::size_t zeros = 0;
          for (std::size_t x = 0; x < nx; ++x) zeros += codes[row + x] == 0;
          cur[w + 1] = cur[w] + zeros;
        }
        wave_rows<R, T>(
            out, plane, y, nx, nxy,
            [&](std::size_t w, std::size_t i, std::size_t yy)
                __attribute__((always_inline)) {
                  return rcell(i, lorenzo_predict(view, 0, yy, z), cur[w]);
                },
            [&](std::size_t w, std::size_t i, double pred)
                __attribute__((always_inline)) {
                  return rcell(i, pred, cur[w]);
                });
        oi = cur[R - 1];
      });
    }
    if (oi != n_outliers)
      throw std::runtime_error("sz: outlier stream not fully consumed");
    return;
  }

  const std::size_t pb = plan->pred_block;
  for (std::size_t z = 0; z < dims.nz; ++z) {
    const std::size_t tz = z / pb;
    for (std::size_t y = 0; y < dims.ny; ++y) {
      const std::size_t ty = y / pb;
      const std::size_t row = z * nxy + y * nx;
      const T* rc = out + row;
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
          for (std::size_t x = x0; x < x1; ++x) {
            const std::uint32_t code = codes[row + x];
            if (code == 0) {
              take_outlier(row + x);
            } else {
              const double pred =
                  ((b0 + bx * (static_cast<double>(x - box.x0) - cx)) +
                   byuy) +
                  bzuz;
              out[row + x] = static_cast<T>(dequantize(code, pred, eb, radius));
            }
          }
        } else if (z == 0 || y == 0) {
          for (std::size_t x = x0; x < x1; ++x) {
            const std::uint32_t code = codes[row + x];
            if (code == 0) {
              take_outlier(row + x);
            } else {
              const double pred = lorenzo_predict(view, x, y, z);
              out[row + x] = static_cast<T>(dequantize(code, pred, eb, radius));
            }
          }
        } else {
          const T* ym = rc - nx;
          const T* zm = rc - nxy;
          const T* yzm = zm - nx;
          std::size_t x = x0;
          if (x == 0) {
            const std::uint32_t code = codes[row];
            if (code == 0)
              take_outlier(row);
            else
              out[row] = static_cast<T>(dequantize(
                  code, lorenzo_predict(view, 0, y, z), eb, radius));
            ++x;
          }
          if (x < x1) {
            double left = finite_or_zero(static_cast<double>(rc[x - 1]));
            for (; x < x1; ++x) {
              const std::uint32_t code = codes[row + x];
              if (code == 0) {
                take_outlier(row + x);
              } else {
                const double pred = lorenzo_row_predict(left, ym, zm, yzm, x);
                out[row + x] =
                    static_cast<T>(dequantize(code, pred, eb, radius));
              }
              left = finite_or_zero(static_cast<double>(rc[x]));
            }
          }
        }
      }
    }
  }
  if (oi != n_outliers)
    throw std::runtime_error("sz: outlier stream not fully consumed");
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
    w.put<std::uint16_t>(kMagic);
    w.put<std::uint8_t>(kVersion);
    w.put<std::uint8_t>(static_cast<std::uint8_t>(sizeof(T)));
    w.put_varint(dims.nx);
    w.put_varint(dims.ny);
    w.put_varint(dims.nz);
    w.put_varint(nblocks);
    w.put<std::uint8_t>(static_cast<std::uint8_t>(cfg.mode));
    w.put<double>(cfg.error_bound);
    w.put<double>(theta);  // abs bound slot carries the log-domain bound
    w.put<double>(0.0);
    w.put_varint(cfg.quant_radius);
    w.put<std::uint8_t>(static_cast<std::uint8_t>(cfg.predictor));
    w.put_varint(cfg.pred_block);
    w.put<std::uint8_t>(static_cast<std::uint8_t>(StreamKind::kPwRel));
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
  w.put<double>(span_val);
  w.put_varint(cfg.quant_radius);
  w.put<std::uint8_t>(static_cast<std::uint8_t>(cfg.predictor));
  w.put_varint(cfg.pred_block);

  if (range.all_identical) {
    w.put<std::uint8_t>(static_cast<std::uint8_t>(StreamKind::kConstant));
    w.put<T>(data[0]);
    return w.take();
  }
  w.put<std::uint8_t>(static_cast<std::uint8_t>(StreamKind::kGeneral));

  const bool hybrid = cfg.predictor == Predictor::kHybrid;

  // All per-call scratch comes from the thread's bump arena: in the level
  // pipeline this function runs thousands of times per container, and the
  // steady-state path performs no heap allocation at all.
  ArenaScope scratch;
  const auto codes = scratch.alloc<std::uint32_t>(data.size());
  const auto recon = scratch.alloc<T>(data.size());
  const auto offsets = scratch.alloc<std::size_t>(nblocks + 1);
  std::vector<TilePlan> plans(hybrid ? nblocks : 0);
  {
    TAC_SPAN_BYTES("sz.quantize", data.size_bytes());
    parallel_for(
        0, nblocks,
        [&](std::size_t b) {
          const TilePlan* plan = nullptr;
          if (hybrid) {
            plans[b] = plan_tiles(data.data() + b * vol, dims, cfg.pred_block);
            plan = &plans[b];
          }
          offsets[b + 1] =
              quantize_block(data.data() + b * vol, dims, abs_eb,
                             cfg.quant_radius, codes.data() + b * vol,
                             recon.data() + b * vol, plan);
        },
        grain_for(vol));
  }

  offsets[0] = 0;
  for (std::size_t b = 0; b < nblocks; ++b) offsets[b + 1] += offsets[b];

  // Second pass: outlier cells are exactly the codes[i] == 0 cells, and
  // their exact values are the original data — gather them in scan order
  // (the same order the old per-block vectors accumulated them in).
  const auto outliers = scratch.alloc<T>(offsets[nblocks]);
  TAC_COUNTER_ADD("sz.outliers", offsets[nblocks]);
  {
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
  h.cfg.predictor = static_cast<Predictor>(r.get<std::uint8_t>());
  h.cfg.pred_block = static_cast<std::size_t>(r.get_varint());
  h.kind = static_cast<StreamKind>(r.get<std::uint8_t>());
  h.info.constant = h.kind == StreamKind::kConstant;
  return h;
}

/// The stream's element count, block volume × nblocks, checked against
/// the caller's count before anything is allocated.
std::size_t checked_total(const SzStreamInfo& info, std::size_t count) {
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
  return total;
}

}  // namespace

template <class T>
std::vector<T> decompress(std::span<const std::uint8_t> bytes,
                          std::size_t count,
                          std::optional<lossless::CodecProfile> expected) {
  TAC_SPAN_BYTES("sz.decompress", bytes.size());
  TAC_COUNTER_ADD("sz.decompress_bytes_in", bytes.size());
  ByteReader r(bytes);
  Header h = read_header(r);
  if (h.info.scalar_size != sizeof(T))
    throw std::runtime_error("sz::decompress: scalar type mismatch");
  const std::size_t vol = h.info.block_dims.volume();
  const std::size_t total = checked_total(h.info, count);

  // Strict when the container declared a profile for this payload,
  // lenient (dispatch on each stream's own method byte) otherwise.
  const auto unpack = [&](std::span<const std::uint8_t> blob) {
    return expected ? lossless::decompress(blob, *expected)
                    : lossless::decompress(blob);
  };

  if (h.kind == StreamKind::kConstant) {
    const T v = r.get<T>();
    return std::vector<T>(total, v);
  }

  if (h.kind == StreamKind::kPwRel) {
    const auto inner = r.get_blob();
    std::vector<T> logs = decompress<T>(inner, total, expected);
    const auto sign_bytes = unpack(r.get_blob());
    if (sign_bytes.size() < (total + 7) / 8)
      throw std::runtime_error("sz::decompress: pw-rel sign bits truncated");
    std::vector<T> out(total);
    for (std::size_t i = 0; i < total; ++i) {
      const double mag = std::exp(static_cast<double>(logs[i]));
      const bool neg = (sign_bytes[i / 8] >> (i % 8)) & 1u;
      out[i] = static_cast<T>(neg ? -mag : mag);
    }
    const std::uint64_t nex = r.get_varint();
    std::uint64_t idx = 0;
    for (std::uint64_t e = 0; e < nex; ++e) {
      idx += r.get_varint();
      if (idx >= total)
        throw std::runtime_error("sz::decompress: pw-rel exception index");
      out[idx] = r.get<T>();
    }
    return out;
  }

  const auto huff_packed = r.get_blob();
  const auto huff = unpack(huff_packed);
  const auto codes = lossless::huffman_decompress(huff);
  if (codes.size() != total)
    throw std::runtime_error("sz::decompress: code count mismatch");

  ArenaScope scratch;
  const auto outliers_packed = r.get_blob();
  const auto outlier_bytes = unpack(outliers_packed);
  if (outlier_bytes.size() % sizeof(T) != 0)
    throw std::runtime_error("sz::decompress: outlier byte count");
  const auto outliers = scratch.alloc<T>(outlier_bytes.size() / sizeof(T));
  if (!outlier_bytes.empty())
    std::memcpy(outliers.data(), outlier_bytes.data(), outlier_bytes.size());

  const auto counts_blob = r.get_blob();
  ByteReader counts_r(counts_blob);
  const auto offsets = scratch.alloc<std::size_t>(h.info.nblocks + 1);
  offsets[0] = 0;
  for (std::size_t b = 0; b < h.info.nblocks; ++b)
    offsets[b + 1] =
        offsets[b] + static_cast<std::size_t>(counts_r.get_varint());
  if (offsets.back() != outliers.size())
    throw std::runtime_error("sz::decompress: outlier count mismatch");

  std::vector<TilePlan> plans;
  if (h.cfg.predictor == Predictor::kHybrid) {
    const auto mode_bits = unpack(r.get_blob());
    const auto coeff_bytes = unpack(r.get_blob());
    if (coeff_bytes.size() % (4 * sizeof(float)) != 0)
      throw std::runtime_error("sz::decompress: coefficient payload");
    const Dims3 tiles = tile_counts(h.info.block_dims, h.cfg.pred_block);
    const std::size_t ntiles = tiles.volume();
    if (mode_bits.size() < (ntiles * h.info.nblocks + 7) / 8)
      throw std::runtime_error("sz::decompress: tile mode payload");
    plans.resize(h.info.nblocks);
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

  std::vector<T> out(total);
  const double eb = h.info.abs_error_bound;
  const std::uint32_t radius = h.cfg.quant_radius;
  {
    TAC_SPAN_BYTES("sz.reconstruct", total * sizeof(T));
    parallel_for(
        0, h.info.nblocks,
        [&](std::size_t b) {
          reconstruct_block(codes.data() + b * vol, h.info.block_dims, eb,
                            radius, outliers.data() + offsets[b],
                            offsets[b + 1] - offsets[b], out.data() + b * vol,
                            plans.empty() ? nullptr : &plans[b]);
        },
        grain_for(vol));
  }
  TAC_COUNTER_ADD("sz.decompress_bytes_out", out.size() * sizeof(T));
  return out;
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

}  // namespace tac::sz
