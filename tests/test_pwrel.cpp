#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "core/tac.hpp"
#include "simnyx/generator.hpp"
#include "sz/sz.hpp"

namespace tac::sz {
namespace {

/// Every nonzero finite value within the point-wise relative bound; zeros
/// and non-finite values bitwise exact.
template <class T>
void expect_pwrel_bounded(std::span<const T> orig, std::span<const T> recon,
                          double rel) {
  ASSERT_EQ(orig.size(), recon.size());
  for (std::size_t i = 0; i < orig.size(); ++i) {
    const double v = static_cast<double>(orig[i]);
    if (v == 0.0 || !std::isfinite(v)) {
      EXPECT_EQ(std::memcmp(&orig[i], &recon[i], sizeof(T)), 0)
          << "exception not exact at " << i;
      continue;
    }
    const double err = std::fabs(static_cast<double>(recon[i]) - v);
    EXPECT_LE(err, rel * std::fabs(v) * (1.0 + 1e-12))
        << "at " << i << " value " << v;
    // Sign must survive the log transform.
    EXPECT_EQ(std::signbit(static_cast<double>(recon[i])),
              std::signbit(v));
  }
}

std::vector<double> lognormal_values(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::normal_distribution<double> g(0, 2.0);
  std::vector<double> v(n);
  for (auto& x : v) x = 1e9 * std::exp(g(rng));
  return v;
}

TEST(PwRel, BoundHoldsAcrossDecades) {
  const Dims3 d{16, 16, 16};
  const auto v = lognormal_values(d.volume(), 1);
  const SzConfig cfg{.mode = ErrorBoundMode::kPointwiseRelative,
                     .error_bound = 1e-3};
  const auto back =
      decompress<double>(compress<double>(v, d, cfg), v.size());
  expect_pwrel_bounded<double>(v, back, 1e-3);
}

TEST(PwRel, NegativeValuesKeepSign) {
  const Dims3 d{8, 8, 8};
  auto v = lognormal_values(d.volume(), 2);
  for (std::size_t i = 0; i < v.size(); i += 3) v[i] = -v[i];
  const SzConfig cfg{.mode = ErrorBoundMode::kPointwiseRelative,
                     .error_bound = 1e-2};
  const auto back =
      decompress<double>(compress<double>(v, d, cfg), v.size());
  expect_pwrel_bounded<double>(v, back, 1e-2);
}

TEST(PwRel, ZerosAndNonFiniteExact) {
  const Dims3 d{8, 8, 1};
  std::vector<double> v(d.volume(), 2.5);
  v[3] = 0.0;
  v[10] = -0.0;
  v[20] = std::numeric_limits<double>::quiet_NaN();
  v[40] = std::numeric_limits<double>::infinity();
  const SzConfig cfg{.mode = ErrorBoundMode::kPointwiseRelative,
                     .error_bound = 1e-3};
  const auto back =
      decompress<double>(compress<double>(v, d, cfg), v.size());
  EXPECT_EQ(back[3], 0.0);
  EXPECT_TRUE(std::signbit(back[10]));
  EXPECT_EQ(back[10], 0.0);
  EXPECT_TRUE(std::isnan(back[20]));
  EXPECT_EQ(back[40], std::numeric_limits<double>::infinity());
  expect_pwrel_bounded<double>(v, back, 1e-3);
}

TEST(PwRel, BeatsAbsoluteBoundOnWideDynamicRange) {
  // With values spanning ~8 decades, the small values are annihilated by
  // any useful absolute bound; the point-wise mode preserves their
  // relative accuracy.
  const Dims3 d{16, 16, 16};
  const auto v = lognormal_values(d.volume(), 3);
  const SzConfig cfg{.mode = ErrorBoundMode::kPointwiseRelative,
                     .error_bound = 1e-2};
  const auto back =
      decompress<double>(compress<double>(v, d, cfg), v.size());
  double worst_rel = 0;
  for (std::size_t i = 0; i < v.size(); ++i)
    worst_rel = std::max(worst_rel, std::fabs(back[i] - v[i]) /
                                        std::fabs(v[i]));
  EXPECT_LE(worst_rel, 1e-2);
}

TEST(PwRel, FloatTypeRoundTrip) {
  const Dims3 d{8, 8, 8};
  const auto vd = lognormal_values(d.volume(), 4);
  std::vector<float> v(vd.begin(), vd.end());
  // Float rounding of log/exp consumes ~1e-7 of the margin; use a bound
  // comfortably above it.
  const SzConfig cfg{.mode = ErrorBoundMode::kPointwiseRelative,
                     .error_bound = 1e-3};
  const auto back = decompress<float>(compress<float>(v, d, cfg), v.size());
  expect_pwrel_bounded<float>(v, back, 1e-3);
}

TEST(PwRel, RejectsNonPositiveBound) {
  const Dims3 d{4, 4, 4};
  const std::vector<double> v(d.volume(), 1.0);
  SzConfig cfg{.mode = ErrorBoundMode::kPointwiseRelative,
               .error_bound = 0.0};
  EXPECT_THROW((void)compress<double>(v, d, cfg), std::invalid_argument);
}

TEST(PwRel, PeekReportsMode) {
  const Dims3 d{8, 8, 8};
  const auto v = lognormal_values(d.volume(), 5);
  const SzConfig cfg{.mode = ErrorBoundMode::kPointwiseRelative,
                     .error_bound = 1e-3};
  const auto c = compress<double>(v, d, cfg);
  const auto info = peek(c);
  EXPECT_EQ(info.block_dims, d);
  EXPECT_FALSE(info.constant);
}

TEST(PwRel, BatchedBlocks) {
  const Dims3 block{8, 8, 8};
  std::vector<double> v;
  for (unsigned b = 0; b < 5; ++b) {
    const auto f = lognormal_values(block.volume(), 10 + b);
    v.insert(v.end(), f.begin(), f.end());
  }
  const SzConfig cfg{.mode = ErrorBoundMode::kPointwiseRelative,
                     .error_bound = 1e-3};
  const auto back = decompress<double>(compress<double>(v, block, cfg, 5),
                                       v.size());
  expect_pwrel_bounded<double>(v, back, 1e-3);
}

TEST(PwRel, DeterministicOutput) {
  const Dims3 d{8, 8, 8};
  const auto v = lognormal_values(d.volume(), 6);
  const SzConfig cfg{.mode = ErrorBoundMode::kPointwiseRelative,
                     .error_bound = 1e-4};
  EXPECT_EQ(compress<double>(v, d, cfg), compress<double>(v, d, cfg));
}

class PwRelBoundSweep : public ::testing::TestWithParam<double> {};

TEST_P(PwRelBoundSweep, BoundHolds) {
  const double rel = GetParam();
  const Dims3 d{12, 12, 12};
  const auto v = lognormal_values(d.volume(), 42);
  const SzConfig cfg{.mode = ErrorBoundMode::kPointwiseRelative,
                     .error_bound = rel};
  const auto back =
      decompress<double>(compress<double>(v, d, cfg), v.size());
  expect_pwrel_bounded<double>(v, back, rel);
}

INSTANTIATE_TEST_SUITE_P(Bounds, PwRelBoundSweep,
                         ::testing::Values(1e-6, 1e-4, 1e-2, 0.1, 0.5));

TEST(PwRelTac, FlowsThroughTacPipeline) {
  simnyx::GeneratorConfig gc;
  gc.finest_dims = {32, 32, 32};
  gc.level_densities = {0.3, 0.7};
  gc.region_size = 8;
  const auto ds = simnyx::generate_baryon_density(gc);

  core::TacConfig cfg;
  cfg.sz.mode = ErrorBoundMode::kPointwiseRelative;
  cfg.sz.error_bound = 1e-3;
  const auto compressed = core::tac_compress(ds, cfg);
  const auto back = core::decompress_any(compressed.bytes);
  for (std::size_t l = 0; l < ds.num_levels(); ++l) {
    const auto& ol = ds.level(l);
    const auto& rl = back.level(l);
    for (std::size_t i = 0; i < ol.data.size(); ++i) {
      if (!ol.mask[i]) continue;
      EXPECT_LE(std::fabs(rl.data[i] - ol.data[i]),
                1e-3 * std::fabs(ol.data[i]) * (1 + 1e-12));
    }
  }
}

}  // namespace
}  // namespace tac::sz
