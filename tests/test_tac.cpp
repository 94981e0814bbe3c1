#include <gtest/gtest.h>

#include <cmath>

#include "analysis/metrics.hpp"
#include "core/adaptive.hpp"
#include "core/baselines.hpp"
#include "core/tac.hpp"
#include "simnyx/generator.hpp"

namespace tac::core {
namespace {

simnyx::GeneratorConfig small_config(std::vector<double> densities,
                                     std::size_t n = 32) {
  simnyx::GeneratorConfig cfg;
  cfg.finest_dims = {n, n, n};
  cfg.level_densities = std::move(densities);
  cfg.region_size = 8;
  cfg.seed = 1234;
  return cfg;
}

/// Every valid cell of every level within `eb` of the original.
void expect_amr_bounded(const amr::AmrDataset& orig,
                        const amr::AmrDataset& recon, double eb) {
  ASSERT_EQ(orig.num_levels(), recon.num_levels());
  for (std::size_t l = 0; l < orig.num_levels(); ++l) {
    const auto& ol = orig.level(l);
    const auto& rl = recon.level(l);
    double max_err = 0;
    for (std::size_t i = 0; i < ol.data.size(); ++i) {
      if (!ol.mask[i]) {
        EXPECT_EQ(rl.data[i], 0.0) << "padded cell leaked at level " << l;
        continue;
      }
      max_err = std::max(max_err, std::fabs(ol.data[i] - rl.data[i]));
    }
    EXPECT_LE(max_err, eb) << "level " << l;
  }
}

TEST(StrategySelect, PaperThresholds) {
  EXPECT_EQ(select_strategy(0.10), Strategy::kOpST);
  EXPECT_EQ(select_strategy(0.49), Strategy::kOpST);
  EXPECT_EQ(select_strategy(0.50), Strategy::kAKDTree);
  EXPECT_EQ(select_strategy(0.59), Strategy::kAKDTree);
  EXPECT_EQ(select_strategy(0.60), Strategy::kGSP);
  EXPECT_EQ(select_strategy(1.00), Strategy::kGSP);
}

TEST(Tac, RoundTripWithinBound) {
  const auto ds = simnyx::generate_baryon_density(small_config({0.23, 0.77}));
  const double eb = 1e6;
  TacConfig cfg;
  cfg.sz.mode = sz::ErrorBoundMode::kAbsolute;
  cfg.sz.error_bound = eb;
  const auto compressed = tac_compress(ds, cfg);
  const auto back = decompress_any(compressed.bytes);
  expect_amr_bounded(ds, back, eb);
  EXPECT_EQ(back.field_name(), ds.field_name());
}

TEST(Tac, StrategiesFollowDensityFilter) {
  const auto ds = simnyx::generate_baryon_density(small_config({0.23, 0.77}));
  TacConfig cfg;
  cfg.sz.error_bound = 1e6;
  const auto compressed = tac_compress(ds, cfg);
  ASSERT_EQ(compressed.report.levels.size(), 2u);
  // Fine level ~23% -> OpST; coarse ~77% -> GSP.
  EXPECT_EQ(compressed.report.levels[0].strategy, Strategy::kOpST);
  EXPECT_EQ(compressed.report.levels[1].strategy, Strategy::kGSP);
}

TEST(Tac, MediumDensityUsesAkdTree) {
  const auto ds = simnyx::generate_baryon_density(small_config({0.55, 0.45}));
  TacConfig cfg;
  cfg.sz.error_bound = 1e6;
  const auto compressed = tac_compress(ds, cfg);
  EXPECT_EQ(compressed.report.levels[0].strategy, Strategy::kAKDTree);
}

class TacStrategyTest : public ::testing::TestWithParam<Strategy> {};

TEST_P(TacStrategyTest, ForcedStrategyRoundTripsWithinBound) {
  const auto ds = simnyx::generate_baryon_density(small_config({0.4, 0.6}));
  const double eb = 1e6;
  TacConfig cfg;
  cfg.sz.error_bound = eb;
  cfg.force_strategy = GetParam();
  const auto compressed = tac_compress(ds, cfg);
  for (const auto& lr : compressed.report.levels)
    EXPECT_EQ(lr.strategy, GetParam());
  expect_amr_bounded(ds, decompress_any(compressed.bytes), eb);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, TacStrategyTest,
                         ::testing::Values(Strategy::kNaST, Strategy::kOpST,
                                           Strategy::kAKDTree, Strategy::kGSP,
                                           Strategy::kZF),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(Tac, RelativeBoundResolvesPerLevel) {
  const auto ds = simnyx::generate_baryon_density(small_config({0.3, 0.7}));
  TacConfig cfg;
  cfg.sz.mode = sz::ErrorBoundMode::kRelative;
  cfg.sz.error_bound = 1e-3;
  const auto compressed = tac_compress(ds, cfg);
  const auto back = decompress_any(compressed.bytes);
  for (std::size_t l = 0; l < ds.num_levels(); ++l) {
    const auto [lo, hi] = ds.level(l).valid_range();
    const double eb = 1e-3 * (hi - lo);
    EXPECT_NEAR(compressed.report.levels[l].abs_error_bound, eb,
                eb * 1e-9);
    const auto& ol = ds.level(l);
    const auto& rl = back.level(l);
    for (std::size_t i = 0; i < ol.data.size(); ++i) {
      if (ol.mask[i]) {
        EXPECT_LE(std::fabs(ol.data[i] - rl.data[i]), eb);
      }
    }
  }
}

TEST(Tac, PerLevelErrorBounds) {
  const auto ds = simnyx::generate_baryon_density(small_config({0.3, 0.7}));
  TacConfig cfg;
  cfg.level_error_bounds = {3e6, 1e6};  // fine 3:1 coarse
  const auto compressed = tac_compress(ds, cfg);
  const auto back = decompress_any(compressed.bytes);
  EXPECT_DOUBLE_EQ(compressed.report.levels[0].abs_error_bound, 3e6);
  EXPECT_DOUBLE_EQ(compressed.report.levels[1].abs_error_bound, 1e6);
  // Each level respects its own bound.
  for (std::size_t l = 0; l < 2; ++l) {
    const auto& ol = ds.level(l);
    const auto& rl = back.level(l);
    for (std::size_t i = 0; i < ol.data.size(); ++i) {
      if (ol.mask[i]) {
        EXPECT_LE(std::fabs(ol.data[i] - rl.data[i]),
                  cfg.level_error_bounds[l]);
      }
    }
  }
}

TEST(Tac, WrongBoundCountRejected) {
  const auto ds = simnyx::generate_baryon_density(small_config({0.3, 0.7}));
  TacConfig cfg;
  cfg.level_error_bounds = {1e6};  // dataset has two levels
  EXPECT_THROW((void)tac_compress(ds, cfg), std::invalid_argument);
}

TEST(Tac, ReportAccountsBytes) {
  const auto ds = simnyx::generate_baryon_density(small_config({0.3, 0.7}));
  TacConfig cfg;
  cfg.sz.error_bound = 1e6;
  const auto compressed = tac_compress(ds, cfg);
  EXPECT_EQ(compressed.report.compressed_bytes, compressed.bytes.size());
  EXPECT_EQ(compressed.report.original_bytes, ds.original_bytes());
  std::size_t level_bytes = 0;
  for (const auto& lr : compressed.report.levels)
    level_bytes += lr.compressed_bytes;
  EXPECT_LE(level_bytes, compressed.bytes.size());
  EXPECT_GT(analysis::compression_ratio(compressed.report.original_bytes,
                                        compressed.report.compressed_bytes),
            1.0);
}

TEST(Tac, CompressesFarBetterThanRaw) {
  const auto ds = simnyx::generate_baryon_density(
      small_config({0.23, 0.77}, 64));
  TacConfig cfg;
  cfg.sz.mode = sz::ErrorBoundMode::kRelative;
  cfg.sz.error_bound = 1e-3;
  const auto compressed = tac_compress(ds, cfg);
  const double cr = static_cast<double>(ds.original_bytes()) /
                    static_cast<double>(compressed.bytes.size());
  EXPECT_GT(cr, 5.0);
}

TEST(Tac, FourLevelDatasetRoundTrips) {
  const auto ds = simnyx::generate_baryon_density(
      small_config({0.01, 0.05, 0.2, 0.74}, 64));
  ASSERT_EQ(ds.validate(), "");
  TacConfig cfg;
  cfg.sz.error_bound = 1e6;
  const auto compressed = tac_compress(ds, cfg);
  expect_amr_bounded(ds, decompress_any(compressed.bytes), 1e6);
}

TEST(Tac, TruncatedContainerThrows) {
  const auto ds = simnyx::generate_baryon_density(small_config({0.3, 0.7}));
  TacConfig cfg;
  cfg.sz.error_bound = 1e6;
  auto compressed = tac_compress(ds, cfg);
  compressed.bytes.resize(compressed.bytes.size() / 2);
  EXPECT_THROW((void)decompress_any(compressed.bytes), std::exception);
}

TEST(Adaptive, SparseFinestSelectsTac) {
  const auto ds = simnyx::generate_baryon_density(small_config({0.23, 0.77}));
  TacConfig cfg;
  cfg.sz.error_bound = 1e6;
  EXPECT_EQ(adaptive_select(ds, cfg), Method::kTac);
  const auto compressed = adaptive_compress(ds, cfg);
  EXPECT_EQ(compressed.report.method, Method::kTac);
}

TEST(Adaptive, DenseFinestSelects3DBaseline) {
  const auto ds = simnyx::generate_baryon_density(small_config({0.64, 0.36}));
  TacConfig cfg;
  cfg.sz.error_bound = 1e6;
  EXPECT_EQ(adaptive_select(ds, cfg), Method::kUpsample3D);
  const auto compressed = adaptive_compress(ds, cfg);
  EXPECT_EQ(compressed.report.method, Method::kUpsample3D);
  expect_amr_bounded(ds, decompress_any(compressed.bytes), 1e6);
}

TEST(Adaptive, RatioBoundsLadder) {
  const auto bounds = ratio_error_bounds(9e6, 3.0, 3);
  ASSERT_EQ(bounds.size(), 3u);
  EXPECT_DOUBLE_EQ(bounds[0], 9e6);
  EXPECT_DOUBLE_EQ(bounds[1], 3e6);
  EXPECT_DOUBLE_EQ(bounds[2], 1e6);
  EXPECT_THROW((void)ratio_error_bounds(0.0, 2.0, 2), std::invalid_argument);
}

TEST(Container, MethodSniffing) {
  const auto ds = simnyx::generate_baryon_density(small_config({0.3, 0.7}));
  TacConfig cfg;
  cfg.sz.error_bound = 1e6;
  EXPECT_EQ(peek_method(tac_compress(ds, cfg).bytes), Method::kTac);
  EXPECT_EQ(peek_method(oned_compress(ds, cfg.sz).bytes), Method::kOneD);
  EXPECT_EQ(peek_method(zmesh_compress(ds, cfg.sz).bytes), Method::kZMesh);
  EXPECT_EQ(peek_method(upsample3d_compress(ds, cfg.sz).bytes),
            Method::kUpsample3D);
}

}  // namespace
}  // namespace tac::core
