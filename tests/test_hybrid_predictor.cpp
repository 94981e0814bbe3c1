#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "sz/regression.hpp"
#include "sz/sz.hpp"

namespace tac::sz {
namespace {

template <class T>
void expect_bounded(std::span<const T> orig, std::span<const T> recon,
                    double eb) {
  ASSERT_EQ(orig.size(), recon.size());
  for (std::size_t i = 0; i < orig.size(); ++i) {
    if (std::isfinite(static_cast<double>(orig[i]))) {
      EXPECT_LE(std::fabs(static_cast<double>(orig[i]) -
                          static_cast<double>(recon[i])),
                eb)
          << "at " << i;
    }
  }
}

TEST(PlaneFit, RecoversExactPlane) {
  const Dims3 d{6, 6, 6};
  std::vector<double> v(d.volume());
  for (std::size_t z = 0; z < 6; ++z)
    for (std::size_t y = 0; y < 6; ++y)
      for (std::size_t x = 0; x < 6; ++x)
        v[d.index(x, y, z)] = 4.0 + 2.0 * static_cast<double>(x) -
                              1.5 * static_cast<double>(y) +
                              0.25 * static_cast<double>(z);
  const Box3 tile{0, 0, 0, 6, 6, 6};
  const PlaneFit f = fit_plane(v.data(), d, tile);
  EXPECT_NEAR(f.bx, 2.0, 1e-5);
  EXPECT_NEAR(f.by, -1.5, 1e-5);
  EXPECT_NEAR(f.bz, 0.25, 1e-5);
  for (std::size_t z = 0; z < 6; ++z)
    for (std::size_t y = 0; y < 6; ++y)
      for (std::size_t x = 0; x < 6; ++x)
        EXPECT_NEAR(plane_predict(f, tile, x, y, z), v[d.index(x, y, z)],
                    1e-3);
}

TEST(PlaneFit, ClippedTileAndDegenerateAxes) {
  const Dims3 d{5, 3, 1};
  std::vector<double> v(d.volume(), 7.0);
  const Box3 tile{2, 0, 0, 5, 3, 1};  // 3x3x1 edge tile
  const PlaneFit f = fit_plane(v.data(), d, tile);
  EXPECT_NEAR(f.b0, 7.0, 1e-6);
  EXPECT_NEAR(f.bz, 0.0, 1e-6);  // single-layer axis cannot tilt
  EXPECT_NEAR(plane_predict(f, tile, 3, 1, 0), 7.0, 1e-5);
}

TEST(PlaneFit, NonFiniteTreatedAsZero)  {
  const Dims3 d{4, 4, 4};
  std::vector<double> v(d.volume(), 1.0);
  v[5] = std::numeric_limits<double>::quiet_NaN();
  const Box3 tile{0, 0, 0, 4, 4, 4};
  const PlaneFit f = fit_plane(v.data(), d, tile);
  EXPECT_TRUE(std::isfinite(f.b0));
}

std::vector<double> piecewise_planar(Dims3 d, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> slope(-3, 3);
  std::vector<double> v(d.volume());
  const double ax = slope(rng), ay = slope(rng), az = slope(rng);
  for (std::size_t z = 0; z < d.nz; ++z)
    for (std::size_t y = 0; y < d.ny; ++y)
      for (std::size_t x = 0; x < d.nx; ++x)
        v[d.index(x, y, z)] = 100.0 + ax * static_cast<double>(x) +
                              ay * static_cast<double>(y) +
                              az * static_cast<double>(z);
  return v;
}

TEST(Hybrid, RoundTripWithinBound) {
  const Dims3 d{32, 32, 32};
  std::mt19937 rng(1);
  std::uniform_real_distribution<double> noise(-1, 1);
  std::vector<double> v(d.volume());
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = std::sin(0.03 * static_cast<double>(i)) * 50 + noise(rng);
  const SzConfig cfg{.mode = ErrorBoundMode::kAbsolute,
                     .error_bound = 0.01,
                     .predictor = Predictor::kHybrid};
  const auto back =
      decompress<double>(compress<double>(v, d, cfg), v.size());
  expect_bounded<double>(v, back, 0.01);
}

TEST(Hybrid, BeatsLorenzoOnNoisyPlanarData) {
  // SZ2's win case: locally planar data with point noise. The Lorenzo
  // stencil sums seven noisy neighbours, so its residual is several times
  // the noise amplitude; a fitted plane averages the noise away and
  // predicts within ~1 amplitude, costing fewer quantization bins than
  // the 16-byte-per-tile coefficients cost back.
  const Dims3 d{48, 48, 48};
  std::mt19937 rng(17);
  std::uniform_real_distribution<double> noise(-1, 1);
  std::vector<double> v(d.volume());
  for (std::size_t z = 0; z < d.nz; ++z)
    for (std::size_t y = 0; y < d.ny; ++y)
      for (std::size_t x = 0; x < d.nx; ++x)
        v[d.index(x, y, z)] = 2.0 * static_cast<double>(x) -
                              1.0 * static_cast<double>(y) +
                              0.5 * static_cast<double>(z) + noise(rng);
  SzConfig lorenzo{.mode = ErrorBoundMode::kAbsolute, .error_bound = 0.25};
  SzConfig hybrid = lorenzo;
  hybrid.predictor = Predictor::kHybrid;
  const auto cl = compress<double>(v, d, lorenzo);
  const auto ch = compress<double>(v, d, hybrid);
  expect_bounded<double>(v, decompress<double>(ch, v.size()), 0.25);
  EXPECT_LT(ch.size(), cl.size());
}

TEST(Hybrid, PlanarDataPicksRegressionAndCompressesHard) {
  const Dims3 d{30, 30, 30};
  const auto v = piecewise_planar(d, 3);
  const SzConfig cfg{.mode = ErrorBoundMode::kAbsolute,
                     .error_bound = 1e-3,
                     .predictor = Predictor::kHybrid};
  const auto c = compress<double>(v, d, cfg);
  const auto back = decompress<double>(c, v.size());
  expect_bounded<double>(v, back, 1e-3);
  // A plane is predicted exactly: nearly everything hits the zero bin.
  const double cr = static_cast<double>(v.size() * 8) /
                    static_cast<double>(c.size());
  EXPECT_GT(cr, 50.0);
}

TEST(Hybrid, BatchedBlocksRoundTrip) {
  const Dims3 block{8, 8, 8};
  std::vector<double> v;
  for (unsigned b = 0; b < 9; ++b) {
    const auto f = piecewise_planar(block, 10 + b);
    v.insert(v.end(), f.begin(), f.end());
  }
  const SzConfig cfg{.mode = ErrorBoundMode::kAbsolute,
                     .error_bound = 1e-2,
                     .predictor = Predictor::kHybrid,
                     .pred_block = 4};
  const auto back = decompress<double>(compress<double>(v, block, cfg, 9),
                                       v.size());
  expect_bounded<double>(v, back, 1e-2);
}

TEST(Hybrid, NonDivisibleTileSizes) {
  const Dims3 d{13, 7, 5};  // tiles clip on every axis
  const auto v = piecewise_planar(d, 5);
  const SzConfig cfg{.mode = ErrorBoundMode::kAbsolute,
                     .error_bound = 1e-2,
                     .predictor = Predictor::kHybrid};
  expect_bounded<double>(
      v, decompress<double>(compress<double>(v, d, cfg), v.size()),
                         1e-2);
}

TEST(Hybrid, FloatRoundTrip) {
  const Dims3 d{16, 16, 16};
  const auto vd = piecewise_planar(d, 6);
  std::vector<float> v(vd.begin(), vd.end());
  const SzConfig cfg{.mode = ErrorBoundMode::kAbsolute,
                     .error_bound = 1e-2f,
                     .predictor = Predictor::kHybrid};
  const auto back = decompress<float>(compress<float>(v, d, cfg), v.size());
  expect_bounded<float>(v, back, 1e-2);
}

TEST(Hybrid, DeterministicOutput) {
  const Dims3 d{16, 16, 16};
  const auto v = piecewise_planar(d, 7);
  const SzConfig cfg{.mode = ErrorBoundMode::kAbsolute,
                     .error_bound = 1e-3,
                     .predictor = Predictor::kHybrid};
  EXPECT_EQ(compress<double>(v, d, cfg), compress<double>(v, d, cfg));
}

TEST(Hybrid, RejectsTinyPredBlock) {
  const Dims3 d{8, 8, 8};
  const std::vector<double> v(d.volume(), 1.0);
  SzConfig cfg{.error_bound = 1e-3,
               .predictor = Predictor::kHybrid,
               .pred_block = 1};
  EXPECT_THROW((void)compress<double>(v, d, cfg), std::invalid_argument);
}

TEST(Hybrid, PwRelComposesWithHybrid) {
  const Dims3 d{16, 16, 16};
  std::mt19937 rng(8);
  std::normal_distribution<double> g(0, 1.5);
  std::vector<double> v(d.volume());
  for (auto& x : v) x = 1e8 * std::exp(g(rng));
  const SzConfig cfg{.mode = ErrorBoundMode::kPointwiseRelative,
                     .error_bound = 1e-3,
                     .predictor = Predictor::kHybrid};
  const auto back =
      decompress<double>(compress<double>(v, d, cfg), v.size());
  for (std::size_t i = 0; i < v.size(); ++i)
    EXPECT_LE(std::fabs(back[i] - v[i]), 1e-3 * std::fabs(v[i]) * 1.0001);
}

struct HybridSweepCase {
  Dims3 dims;
  std::size_t pred_block;
  double eb;
};

class HybridSweep : public ::testing::TestWithParam<HybridSweepCase> {};

TEST_P(HybridSweep, BoundHolds) {
  const auto& p = GetParam();
  std::mt19937 rng(99);
  std::uniform_real_distribution<double> noise(-1, 1);
  std::vector<double> v(p.dims.volume());
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = 10.0 * std::sin(0.02 * static_cast<double>(i)) + noise(rng);
  SzConfig cfg{.mode = ErrorBoundMode::kAbsolute,
               .error_bound = p.eb,
               .predictor = Predictor::kHybrid,
               .pred_block = p.pred_block};
  expect_bounded<double>(
      v, decompress<double>(compress<double>(v, p.dims, cfg), v.size()),
      p.eb);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, HybridSweep,
    ::testing::Values(HybridSweepCase{{64, 1, 1}, 6, 1e-3},
                      HybridSweepCase{{16, 16, 1}, 4, 1e-2},
                      HybridSweepCase{{16, 16, 16}, 6, 1e-3},
                      HybridSweepCase{{9, 9, 9}, 6, 1e-1},
                      HybridSweepCase{{16, 16, 16}, 16, 1e-3}));

}  // namespace
}  // namespace tac::sz
