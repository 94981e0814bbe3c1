/// \file test_hotpath_equivalence.cpp
/// \brief The SIMD/scalar contract: every dispatched hot path must produce
/// byte-identical results at every size, including the awkward ones
/// (empty, sub-vector-width, vector width +/- 1, page-ish). Also pins the
/// Lorenzo and hybrid prediction walks and the AVX2 lane walks against
/// raster-order references, the CRC32 known-answer vector, the Huffman
/// up-front truncation check, and the arena's alignment and steady-state
/// no-new-blocks guarantees.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <vector>

#include "common/arena.hpp"
#include "common/crc32.hpp"
#include "common/simd.hpp"
#include "common/telemetry.hpp"
#include "lossless/huffman.hpp"
#include "sz/predictor.hpp"
#include "sz/quantizer.hpp"
#include "sz/regression.hpp"
#include "sz/sz.hpp"

namespace tac {
namespace {

/// Restores the force-scalar flag even if an assertion bails out.
class ScalarGuard {
 public:
  ScalarGuard() : was_(simd::scalar_forced()) {}
  ~ScalarGuard() { simd::force_scalar(was_); }

 private:
  bool was_;
};

template <class T>
std::vector<T> awkward_values(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(-1e9, 1e9);
  std::vector<T> v(n);
  for (auto& x : v) x = static_cast<T>(u(rng));
  // Sprinkle the values the kernels special-case: NaN/inf must be ignored
  // by the range scan, and -0.0 exercises the sign-bit packer (signbit is
  // set even though -0.0 == 0.0).
  for (std::size_t i = 0; i < n; i += 97)
    v[i] = std::numeric_limits<T>::quiet_NaN();
  for (std::size_t i = 13; i < n; i += 131)
    v[i] = -std::numeric_limits<T>::infinity();
  for (std::size_t i = 29; i < n; i += 61) v[i] = static_cast<T>(-0.0);
  return v;
}

template <class T>
void check_scan_and_sign_all_sizes() {
  ScalarGuard guard;
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                        std::size_t{3}, std::size_t{4}, std::size_t{5},
                        std::size_t{7}, std::size_t{8}, std::size_t{9},
                        std::size_t{15}, std::size_t{16}, std::size_t{17},
                        std::size_t{31}, std::size_t{33}, std::size_t{63},
                        std::size_t{64}, std::size_t{65}, std::size_t{255},
                        std::size_t{256}, std::size_t{257},
                        std::size_t{1023}, std::size_t{1024},
                        std::size_t{4095}, std::size_t{4096},
                        std::size_t{4097}}) {
    const auto v = awkward_values<T>(n, static_cast<std::uint32_t>(n) + 7);
    const std::span<const T> s(v);

    simd::force_scalar(false);
    const sz::ValueRange vec_range = sz::scan_range(s);
    const auto vec_signs = sz::pack_sign_bits(s);

    simd::force_scalar(true);
    const sz::ValueRange sca_range = sz::scan_range(s);
    const auto sca_signs = sz::pack_sign_bits(s);

    // Bit-level comparison: +0.0 vs -0.0 range endpoints must also agree.
    EXPECT_EQ(std::memcmp(&vec_range.lo, &sca_range.lo, sizeof(double)), 0)
        << "lo mismatch at n=" << n;
    EXPECT_EQ(std::memcmp(&vec_range.hi, &sca_range.hi, sizeof(double)), 0)
        << "hi mismatch at n=" << n;
    EXPECT_EQ(vec_range.all_identical, sca_range.all_identical)
        << "ident mismatch at n=" << n;
    EXPECT_EQ(vec_signs, sca_signs) << "sign pack mismatch at n=" << n;
  }
}

TEST(HotpathEquivalence, ScanRangeAndSignBitsDouble) {
  check_scan_and_sign_all_sizes<double>();
}

TEST(HotpathEquivalence, ScanRangeAndSignBitsFloat) {
  check_scan_and_sign_all_sizes<float>();
}

TEST(HotpathEquivalence, ConstantAndIdenticalInputs) {
  ScalarGuard guard;
  for (std::size_t n : {std::size_t{1}, std::size_t{5}, std::size_t{64},
                        std::size_t{4097}}) {
    // All-identical including the tricky all -0.0 case.
    for (double fill : {3.25, -0.0, 0.0}) {
      const std::vector<double> v(n, fill);
      simd::force_scalar(false);
      const auto a = sz::scan_range(std::span<const double>(v));
      simd::force_scalar(true);
      const auto b = sz::scan_range(std::span<const double>(v));
      EXPECT_EQ(a.all_identical, b.all_identical);
      EXPECT_TRUE(a.all_identical);
      EXPECT_EQ(std::memcmp(&a.lo, &b.lo, sizeof(double)), 0);
      EXPECT_EQ(std::memcmp(&a.hi, &b.hi, sizeof(double)), 0);
    }
  }
}

TEST(HotpathEquivalence, FullSzStreamsMatchScalar) {
  ScalarGuard guard;
  const sz::SzConfig cfg{.mode = sz::ErrorBoundMode::kAbsolute,
                         .error_bound = 0.01};
  std::mt19937 rng(42);
  std::uniform_real_distribution<double> u(-10.0, 10.0);
  for (const Dims3 dims :
       {Dims3{1, 1, 1}, Dims3{5, 3, 2}, Dims3{16, 16, 16},
        Dims3{17, 13, 11}, Dims3{33, 7, 5}}) {
    std::vector<double> data(dims.volume());
    double acc = 0;
    for (auto& x : data) x = (acc += u(rng) * 0.1);
    data[dims.volume() / 2] = std::numeric_limits<double>::quiet_NaN();

    simd::force_scalar(false);
    const auto vec_stream = sz::compress<double>(data, dims, cfg);
    simd::force_scalar(true);
    const auto sca_stream = sz::compress<double>(data, dims, cfg);
    EXPECT_EQ(vec_stream, sca_stream)
        << "stream mismatch at " << dims.nx << "x" << dims.ny << "x"
        << dims.nz;

    const auto back = sz::decompress<double>(vec_stream, data.size());
    ASSERT_EQ(back.size(), data.size());
    for (std::size_t i = 0; i < data.size(); ++i) {
      if (std::isfinite(data[i])) {
        EXPECT_NEAR(back[i], data[i], cfg.error_bound);
      }
    }
  }
}

/// What sz::compress must reconstruct, computed one cell at a time in
/// raster order: predict from this function's own reconstruction buffer,
/// quantize, keep the value as T only if it still meets the bound, else
/// store the input exactly as an outlier. No wavefront, no row pointers,
/// no tile loop. `block_predictor(in)` returns block `in`'s predictor,
/// called as `predict(view, x, y, z)` on the reconstruction so far.
template <class T, class BlockPredictor>
std::vector<T> raster_reference(const std::vector<T>& data, Dims3 dims,
                                std::size_t nblocks, double eb,
                                std::uint32_t radius, std::size_t& n_outliers,
                                const BlockPredictor& block_predictor) {
  std::vector<T> recon(data.size());
  const std::size_t vol = dims.volume();
  n_outliers = 0;
  for (std::size_t b = 0; b < nblocks; ++b) {
    const T* in = data.data() + b * vol;
    T* rb = recon.data() + b * vol;
    const sz::ReconView<T> view{rb, dims};
    const auto predict = block_predictor(in);
    for (std::size_t z = 0; z < dims.nz; ++z)
      for (std::size_t y = 0; y < dims.ny; ++y)
        for (std::size_t x = 0; x < dims.nx; ++x) {
          const std::size_t i = dims.index(x, y, z);
          const double value = static_cast<double>(in[i]);
          const sz::QuantResult q =
              sz::quantize(value, predict(view, x, y, z), eb, radius);
          const T stored = static_cast<T>(q.reconstructed);
          if (!q.outlier &&
              std::fabs(static_cast<double>(stored) - value) <= eb) {
            rb[i] = stored;
          } else {
            rb[i] = in[i];
            ++n_outliers;
          }
        }
  }
  return recon;
}

template <class T>
std::vector<T> raster_lorenzo_reference(const std::vector<T>& data,
                                        Dims3 dims, std::size_t nblocks,
                                        double eb, std::uint32_t radius,
                                        std::size_t& n_outliers) {
  return raster_reference(data, dims, nblocks, eb, radius, n_outliers,
                          [](const T*) {
                            return [](const sz::ReconView<T>& view,
                                      std::size_t x, std::size_t y,
                                      std::size_t z) {
                              return sz::lorenzo_predict(view, x, y, z);
                            };
                          });
}

/// The hybrid predictor, one cell at a time: the block is cut into
/// pb-sided tiles (clipped at the block edge), and a tile predicts by its
/// fitted plane when the plane's absolute residual over the input is
/// smaller than Lorenzo's on the input, else by Lorenzo on the
/// reconstruction. Counts the tiles of each kind into `n_regression` and
/// `n_lorenzo`.
template <class T>
std::vector<T> raster_hybrid_reference(const std::vector<T>& data, Dims3 dims,
                                       std::size_t nblocks, std::size_t pb,
                                       double eb, std::uint32_t radius,
                                       std::size_t& n_outliers,
                                       std::size_t& n_regression,
                                       std::size_t& n_lorenzo) {
  const auto tile_of = [&](std::size_t x, std::size_t y, std::size_t z) {
    const std::size_t x0 = x / pb * pb, y0 = y / pb * pb, z0 = z / pb * pb;
    return Box3{x0,
                y0,
                z0,
                std::min(dims.nx, x0 + pb),
                std::min(dims.ny, y0 + pb),
                std::min(dims.nz, z0 + pb)};
  };
  return raster_reference(
      data, dims, nblocks, eb, radius, n_outliers, [&](const T* in) {
        // Regression fits, by tile origin, for the tiles that take them.
        std::map<std::array<std::size_t, 3>, sz::PlaneFit> fits;
        const sz::ReconView<T> input{in, dims};
        for (std::size_t z0 = 0; z0 < dims.nz; z0 += pb)
          for (std::size_t y0 = 0; y0 < dims.ny; y0 += pb)
            for (std::size_t x0 = 0; x0 < dims.nx; x0 += pb) {
              const Box3 box = tile_of(x0, y0, z0);
              const sz::PlaneFit fit = sz::fit_plane(in, dims, box);
              double err_reg = 0, err_lor = 0;
              for (std::size_t z = box.z0; z < box.z1; ++z)
                for (std::size_t y = box.y0; y < box.y1; ++y)
                  for (std::size_t x = box.x0; x < box.x1; ++x) {
                    const double v = sz::finite_or_zero(
                        static_cast<double>(in[dims.index(x, y, z)]));
                    err_reg += std::fabs(v - sz::plane_predict(fit, box, x, y, z));
                    err_lor += std::fabs(v - sz::lorenzo_predict(input, x, y, z));
                  }
              if (err_reg < err_lor) {
                fits[{x0, y0, z0}] = fit;
                ++n_regression;
              } else {
                ++n_lorenzo;
              }
            }
        return [=](const sz::ReconView<T>& view, std::size_t x, std::size_t y,
                   std::size_t z) {
          const Box3 box = tile_of(x, y, z);
          const auto fit = fits.find({box.x0, box.y0, box.z0});
          return fit == fits.end() ? sz::lorenzo_predict(view, x, y, z)
                                   : sz::plane_predict(fit->second, box, x, y, z);
        };
      });
}

/// A smooth field around `base` with the cells the kernel must treat
/// specially: NaN, +/-Inf, -0.0, and spikes far outside the quantization
/// range.
template <class T>
std::vector<T> lorenzo_field(std::size_t n, std::uint32_t seed,
                             double base = 100.0) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::vector<T> v(n);
  double acc = base;
  for (auto& x : v) x = static_cast<T>(acc += 0.01 * u(rng));
  for (std::size_t i = 3; i < n; i += 37)
    v[i] = std::numeric_limits<T>::quiet_NaN();
  for (std::size_t i = 11; i < n; i += 53)
    v[i] = std::numeric_limits<T>::infinity();
  for (std::size_t i = 17; i < n; i += 59)
    v[i] = -std::numeric_limits<T>::infinity();
  for (std::size_t i = 5; i < n; i += 29) v[i] = static_cast<T>(-0.0);
  for (std::size_t i = 7; i < n; i += 23) v[i] = static_cast<T>(1e7 * u(rng));
  return v;
}

template <class T>
void check_lorenzo_against_raster_reference() {
  using lossless::CodecProfile;
  const std::size_t nxs[] = {1, 2, 3, 8, 17};
  // Every (ny - 1) mod 4: the wavefront's remainder front is 0..3 rows.
  const std::size_t nys[] = {1, 2, 3, 4, 5, 8, 9, 16};
  std::uint32_t seed = 1;
  for (const std::size_t nx : nxs)
    for (const std::size_t ny : nys)
      for (std::size_t nz = 1; nz <= 3; ++nz)
        for (const std::size_t nblocks : {std::size_t{1}, std::size_t{3}})
          // 1e-2 quantizes most cells; 1e-6 is below float's spacing near
          // 100, so many float cells fail the stored-as-T check.
          for (const double eb : {1e-2, 1e-6}) {
            const Dims3 dims{nx, ny, nz};
            if (dims.volume() * nblocks < 2) continue;  // constant stream
            const auto data = lorenzo_field<T>(dims.volume() * nblocks, ++seed);
            sz::SzConfig cfg{.mode = sz::ErrorBoundMode::kAbsolute,
                             .error_bound = eb};
            std::size_t want_outliers = 0;
            const auto want = raster_lorenzo_reference(
                data, dims, nblocks, eb, cfg.quant_radius, want_outliers);
            const auto where = ::testing::Message()
                               << nx << "x" << ny << "x" << nz << " x"
                               << nblocks << " eb=" << eb;

            const auto check = [&](const std::vector<std::uint8_t>& stream,
                                   std::optional<CodecProfile> expected) {
              EXPECT_EQ(sz::peek(stream).n_outliers, want_outliers) << where;
              const auto got = sz::decompress<T>(stream, want.size(), expected);
              ASSERT_EQ(got.size(), want.size()) << where;
              EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                    want.size() * sizeof(T)),
                        0)
                  << where << " expected profile "
                  << (expected ? lossless::to_string(*expected) : "none");
            };
            const auto stream = sz::compress<T>(data, dims, cfg, nblocks);
            check(stream, std::nullopt);
            check(stream, CodecProfile::kFast);
          }
}

TEST(HotpathEquivalence, LorenzoMatchesRasterReference) {
  check_lorenzo_against_raster_reference<float>();
  check_lorenzo_against_raster_reference<double>();
}

/// The value of counter `name` (0 if it was never registered).
std::uint64_t counter_value(const char* name) {
  for (const auto& c : telemetry::collect_counters())
    if (c.name == name) return c.value;
  return 0;
}

/// How many blocks and block rows the AVX2 lane walks took in a sweep.
struct LaneWalkRuns {
  std::uint64_t blocks = 0;  ///< sz.lane_blocks: the block lane walk
  std::uint64_t rows = 0;    ///< sz.lane_rows: the row lane walk
};

/// The AVX2 lane walks against the forced-scalar block walk and the
/// raster reference, over every stream of `nblocks` blocks of `extents`,
/// the code range's extremes, and data with NaN, +/-Inf, -0.0, spikes,
/// and pairs of neighbours whose sum overflows. Around 2^40 a double's
/// spacing (2^-12) is close to the bin width, so a prediction one
/// rounding off changes codes there; with eb = 2^-11 a residual can sit
/// exactly on the bound and exactly between two bins. Checks that each
/// walk took the blocks it should: the block lane walk all but the last
/// nblocks mod 4, the row lane walk those when they are at least 7 cells
/// wide and 3 rows deep (kRowWalkMinX/Y in sz.cpp). Adds the blocks and
/// rows each walk took to `runs`.
void lane_walk_sweep(std::initializer_list<std::size_t> block_counts,
                     std::initializer_list<Dims3> extents, std::uint32_t seed,
                     LaneWalkRuns& runs) {
  ScalarGuard guard;
  const telemetry::Mode was = telemetry::set_mode(telemetry::Mode::kCounters);
  simd::force_scalar(false);
  const bool avx2 = simd::active_level() == simd::Level::kAVX2;
  struct FieldBound {
    double base, eb;
  };
  for (const std::size_t nblocks : block_counts)
    for (const Dims3 dims : extents)
      for (const std::uint32_t radius : {2u, 32768u, 1u << 30})
        for (const auto [base, eb] :
             {FieldBound{100.0, 1e-2}, FieldBound{100.0, 1e-6},
              FieldBound{0x1p40, 1e-2}, FieldBound{0x1p40, 0x1p-11}}) {
          auto data =
              lorenzo_field<double>(dims.volume() * nblocks, ++seed, base);
          for (std::size_t i = 13; i < data.size(); i += 89)
            data[i] = i % 2 == 0 ? 1.5e308 : -1.5e308;
          const sz::SzConfig cfg{.mode = sz::ErrorBoundMode::kAbsolute,
                                 .error_bound = eb,
                                 .quant_radius = radius};
          const auto where = ::testing::Message()
                             << dims << " x" << nblocks << " radius="
                             << radius << " eb=" << eb;

          simd::force_scalar(false);
          telemetry::reset_counters();
          const auto lanes = sz::compress<double>(data, dims, cfg, nblocks);
          const std::uint64_t blocks = counter_value("sz.lane_blocks");
          const std::uint64_t rows = counter_value("sz.lane_rows");
          runs.blocks += blocks;
          runs.rows += rows;
          const bool constant = dims.volume() * nblocks < 2;
          const bool lanes_run = avx2 && !constant;
          EXPECT_EQ(blocks, lanes_run ? nblocks / 4 * 4 : 0) << where;
          const bool rows_run = lanes_run && dims.nx >= 7 && dims.ny >= 3;
          EXPECT_EQ(rows, rows_run ? nblocks % 4 * dims.ny * dims.nz : 0)
              << where;

          simd::force_scalar(true);
          telemetry::reset_counters();
          const auto scalar = sz::compress<double>(data, dims, cfg, nblocks);
          EXPECT_EQ(counter_value("sz.lane_blocks"), 0u) << where;
          EXPECT_EQ(counter_value("sz.lane_rows"), 0u) << where;
          EXPECT_EQ(lanes, scalar) << where;

          std::size_t want_outliers = 0;
          const auto want = raster_lorenzo_reference(
              data, dims, nblocks, eb, radius, want_outliers);
          // A one-cell stream is constant: no outliers, decoded exactly.
          EXPECT_EQ(sz::peek(lanes).n_outliers, constant ? 0 : want_outliers)
              << where;
          const auto got = sz::decompress<double>(lanes, want.size());
          ASSERT_EQ(got.size(), want.size()) << where;
          EXPECT_EQ(std::memcmp(got.data(), (constant ? data : want).data(),
                                want.size() * sizeof(double)),
                    0)
              << where;
        }
  telemetry::set_mode(was);
}

/// The block lane walk (four blocks per vector, wide steps of several
/// vectors, then steps of one, then the last nblocks mod 4 blocks) over
/// block counts around both step widths and extents from 16^3 down to
/// one cell.
TEST(HotpathEquivalence, LaneWalkMatchesBlockWalk) {
  LaneWalkRuns runs;
  lane_walk_sweep({1, 2, 3, 4, 5, 15, 16, 17, 33},
                  {Dims3{8, 8, 8}, Dims3{16, 16, 16}, Dims3{7, 5, 4},
                   Dims3{1, 9, 3}, Dims3{2, 2, 2}, Dims3{1, 1, 1}},
                  500, runs);
  // The sweep reached the lane walk wherever the host has AVX2.
  if (simd::active_level() == simd::Level::kAVX2) {
    EXPECT_GT(runs.blocks, 0u);
  }
}

/// The row lane walk (eight rows of one block per step) over 1-, 2- and
/// 3-block streams and the 1- and 3-block tails of 5- and 17-block ones:
/// extents it leaves to the block walk (1x1x1, 2x9x3), its smallest
/// (7x5x4, a front of five rows), several fronts with a partial last one
/// (17x33x9) and rows much longer than a front's ramp (128x16x4).
TEST(HotpathEquivalence, RowLaneWalkMatchesBlockWalk) {
  LaneWalkRuns runs;
  lane_walk_sweep({1, 2, 3, 5, 17},
                  {Dims3{1, 1, 1}, Dims3{2, 9, 3}, Dims3{7, 5, 4},
                   Dims3{17, 33, 9}, Dims3{128, 16, 4}},
                  900, runs);
  if (simd::active_level() == simd::Level::kAVX2) {
    EXPECT_GT(runs.rows, 0u);
  }
}

/// Noisy planes in some tiles (regression wins) and a smooth walk in the
/// others (Lorenzo wins), with the special cells of lorenzo_field.
template <class T>
std::vector<T> hybrid_field(Dims3 dims, std::size_t nblocks,
                            std::uint32_t seed) {
  auto v = lorenzo_field<T>(dims.volume() * nblocks, seed);
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> noise(-1.0, 1.0);
  for (std::size_t b = 0; b < nblocks; ++b)
    for (std::size_t z = 0; z < dims.nz; ++z)
      for (std::size_t y = 0; y < dims.ny; ++y)
        for (std::size_t x = 0; x < dims.nx; ++x) {
          if ((x / 3 + y / 2 + z) % 2 != 0) continue;
          const std::size_t i = b * dims.volume() + dims.index(x, y, z);
          if (!std::isfinite(static_cast<double>(v[i]))) continue;
          v[i] = static_cast<T>(3.0 * static_cast<double>(x) -
                                2.0 * static_cast<double>(y) +
                                0.5 * static_cast<double>(z) +
                                0.3 * noise(rng));
        }
  return v;
}

template <class T>
void check_hybrid_against_raster_reference() {
  std::uint32_t seed = 100;
  std::size_t n_regression = 0, n_lorenzo = 0;
  for (const std::size_t pb : {std::size_t{2}, std::size_t{3}, std::size_t{6}})
    // Extents pb does not divide, and one a single tile covers.
    for (const Dims3 dims : {Dims3{7, 5, 4}, Dims3{13, 7, 5}, Dims3{1, 9, 3},
                             Dims3{8, 8, 8}, Dims3{2, 2, 2}})
      for (const std::size_t nblocks : {std::size_t{1}, std::size_t{3}})
        for (const double eb : {1e-2, 1e-6}) {
          const auto data = hybrid_field<T>(dims, nblocks, ++seed);
          const sz::SzConfig cfg{.mode = sz::ErrorBoundMode::kAbsolute,
                                 .error_bound = eb,
                                 .predictor = sz::Predictor::kHybrid,
                                 .pred_block = pb};
          std::size_t want_outliers = 0;
          const auto want = raster_hybrid_reference(
              data, dims, nblocks, pb, eb, cfg.quant_radius, want_outliers,
              n_regression, n_lorenzo);
          const auto stream = sz::compress<T>(data, dims, cfg, nblocks);
          const auto where = ::testing::Message()
                             << dims << " x" << nblocks << " pb=" << pb
                             << " eb=" << eb;
          EXPECT_EQ(sz::peek(stream).n_outliers, want_outliers) << where;
          const auto got = sz::decompress<T>(stream, want.size());
          ASSERT_EQ(got.size(), want.size()) << where;
          EXPECT_EQ(
              std::memcmp(got.data(), want.data(), want.size() * sizeof(T)),
              0)
              << where;
        }
  // The sweep reaches both kinds of tile.
  EXPECT_GT(n_regression, 0u);
  EXPECT_GT(n_lorenzo, 0u);
}

TEST(HotpathEquivalence, HybridMatchesRasterReference) {
  check_hybrid_against_raster_reference<float>();
  check_hybrid_against_raster_reference<double>();
}

TEST(HotpathEquivalence, HuffmanTableDecodeMatchesReference) {
  std::mt19937 rng(7);
  // Skewed like quantization codes: mass at the center symbol, so most
  // codes are 1-2 bits and the multi-symbol fast path dominates.
  std::discrete_distribution<int> skew({70, 12, 8, 5, 3, 1, 1});
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                        std::size_t{100}, std::size_t{4097}}) {
    std::vector<std::uint32_t> syms(n);
    for (auto& s : syms) s = 32760 + static_cast<std::uint32_t>(skew(rng));
    const auto table = lossless::huffman_build(syms);
    const auto payload = lossless::huffman_encode(table, syms);
    const auto fast = lossless::huffman_decode(table, payload, n);
    const auto ref = lossless::huffman_decode_reference(table, payload, n);
    EXPECT_EQ(fast, syms) << "n=" << n;
    EXPECT_EQ(fast, ref) << "n=" << n;
  }
}

TEST(HotpathEquivalence, HuffmanRejectsTruncatedPayloadUpFront) {
  std::vector<std::uint32_t> syms(5000);
  for (std::size_t i = 0; i < syms.size(); ++i)
    syms[i] = static_cast<std::uint32_t>(i % 17);
  const auto table = lossless::huffman_build(syms);
  const auto payload = lossless::huffman_encode(table, syms);
  // Fewer payload bits than count * min_code_len can possibly need: the
  // decoder must fail fast with the same error type a mid-stream
  // truncation produces, not spin through the whole declared count.
  const std::span<const std::uint8_t> clipped(payload.data(),
                                              payload.size() / 8);
  EXPECT_THROW(
      { (void)lossless::huffman_decode(table, clipped, syms.size()); },
      std::out_of_range);
  // The reference decoder agrees on the error type.
  EXPECT_THROW(
      {
        (void)lossless::huffman_decode_reference(table, clipped,
                                                 syms.size());
      },
      std::out_of_range);
}

TEST(HotpathEquivalence, Crc32KnownAnswerAndSlicingOracle) {
  // The canonical CRC-32 (IEEE 802.3) check value.
  const char* kat = "123456789";
  const std::span<const std::uint8_t> s(
      reinterpret_cast<const std::uint8_t*>(kat), 9);
  EXPECT_EQ(crc32(s), 0xCBF43926u);
  EXPECT_EQ(detail::crc32_bytewise(s), 0xCBF43926u);

  std::mt19937 rng(11);
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                        std::size_t{8}, std::size_t{9}, std::size_t{63},
                        std::size_t{4097}}) {
    std::vector<std::uint8_t> data(n);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng());
    EXPECT_EQ(crc32(data), detail::crc32_bytewise(data)) << "n=" << n;
  }
}

TEST(HotpathEquivalence, ArenaSteadyStateAllocatesNoNewBlocks) {
  const Dims3 dims{32, 32, 32};
  const sz::SzConfig cfg{.mode = sz::ErrorBoundMode::kAbsolute,
                         .error_bound = 0.001};
  std::mt19937 rng(3);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<double> data(dims.volume() * 4);
  for (auto& x : data) x = u(rng);

  // Warm up: the first compress grows the calling thread's arena.
  const auto first = sz::compress<double>(data, dims, cfg, 4);
  const auto& arena = ScratchArena::local();
  const auto warm = arena.stats();

  // Steady state: identical work must be served entirely from retained
  // blocks — zero new bump-region growths and zero oversized allocs.
  const auto second = sz::compress<double>(data, dims, cfg, 4);
  const auto after = arena.stats();
  EXPECT_EQ(second, first);
  EXPECT_GT(after.allocs, warm.allocs);  // the arena was actually used
  EXPECT_EQ(after.block_allocs, warm.block_allocs);
  EXPECT_EQ(after.large_allocs, warm.large_allocs);
}

/// Every pointer the arena hands out is 64-byte aligned: from the bump
/// region, from a block it grows, and from a dedicated large block.
TEST(HotpathEquivalence, ArenaAllocationsAre64ByteAligned) {
  const auto aligned = [](const void* p) {
    return reinterpret_cast<std::uintptr_t>(p) % 64 == 0;
  };
  auto& arena = ScratchArena::local();
  ArenaScope scope;
  const auto before = arena.stats();
  for (const std::size_t n : {1u, 3u, 8u, 17u, 63u, 64u, 65u, 1000u})
    EXPECT_TRUE(aligned(scope.alloc<std::uint8_t>(n).data())) << "bump " << n;
  EXPECT_TRUE(aligned(scope.alloc<double>(3).data()));
  // Requests just under the large cutoff outgrow any retained region
  // (32 MiB at most) within a few calls.
  const std::size_t big = ScratchArena::kLargeCutoff - 100;
  for (int i = 0; i < 16 && arena.stats().block_allocs == before.block_allocs;
       ++i)
    EXPECT_TRUE(aligned(scope.alloc<std::uint8_t>(big).data())) << "grow";
  EXPECT_GT(arena.stats().block_allocs, before.block_allocs);
  EXPECT_TRUE(aligned(scope.alloc<std::uint8_t>(5).data())) << "grown block";
  EXPECT_TRUE(
      aligned(scope.alloc<std::uint8_t>(ScratchArena::kLargeCutoff + 1).data()))
      << "large";
  EXPECT_GT(arena.stats().large_allocs, before.large_allocs);
}

}  // namespace
}  // namespace tac
