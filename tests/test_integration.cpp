#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <tuple>

#include "amr/uniform.hpp"
#include "analysis/metrics.hpp"
#include "core/adaptive.hpp"
#include "core/backend.hpp"
#include "core/baselines.hpp"
#include "core/tac.hpp"
#include "simnyx/generator.hpp"
#include "sz/sz.hpp"

/// Cross-product integration tests: every pre-process strategy combined
/// with every error-bound mode, block size and predictor must satisfy the
/// error-bound contract end to end.

namespace tac {
namespace {

amr::AmrDataset dataset_with_density(double finest_density,
                                     std::size_t n = 32) {
  simnyx::GeneratorConfig gc;
  gc.finest_dims = {n, n, n};
  gc.level_densities = {finest_density, 1.0 - finest_density};
  gc.region_size = 8;
  gc.seed = 2026;
  return simnyx::generate_baryon_density(gc);
}

/// Returns the worst error / bound ratio over all valid cells, where the
/// bound is evaluated per the stream's mode.
double worst_ratio(const amr::AmrDataset& orig, const amr::AmrDataset& recon,
                   const core::CompressReport& report,
                   sz::ErrorBoundMode mode, double eb) {
  double worst = 0;
  for (std::size_t l = 0; l < orig.num_levels(); ++l) {
    const auto& ol = orig.level(l);
    const auto& rl = recon.level(l);
    double bound = 0;
    if (mode == sz::ErrorBoundMode::kAbsolute) {
      bound = eb;
    } else if (mode == sz::ErrorBoundMode::kRelative) {
      bound = l < report.levels.size() ? report.levels[l].abs_error_bound
                                       : eb;
    }
    for (std::size_t i = 0; i < ol.data.size(); ++i) {
      if (!ol.mask[i]) continue;
      const double err = std::fabs(ol.data[i] - rl.data[i]);
      const double b = mode == sz::ErrorBoundMode::kPointwiseRelative
                           ? eb * std::fabs(ol.data[i])
                           : bound;
      if (b > 0) worst = std::max(worst, err / b);
    }
  }
  return worst;
}

using Combo = std::tuple<core::Strategy, sz::ErrorBoundMode, std::size_t,
                         sz::Predictor>;

class StrategyModeMatrix : public ::testing::TestWithParam<Combo> {};

TEST_P(StrategyModeMatrix, ErrorBoundContractHolds) {
  const auto [strategy, mode, block_size, predictor] = GetParam();
  const auto ds = dataset_with_density(0.4);

  core::TacConfig cfg;
  cfg.sz.mode = mode;
  cfg.sz.predictor = predictor;
  cfg.sz.error_bound = mode == sz::ErrorBoundMode::kAbsolute ? 1e6 : 1e-3;
  cfg.block_size = block_size;
  cfg.force_strategy = strategy;

  const auto compressed = core::tac_compress(ds, cfg);
  const auto back = core::decompress_any(compressed.bytes);
  const double ratio = worst_ratio(ds, back, compressed.report, mode,
                                   cfg.sz.error_bound);
  EXPECT_LE(ratio, 1.0 + 1e-9);
}

std::string combo_name(const ::testing::TestParamInfo<Combo>& info) {
  const auto [strategy, mode, block, predictor] = info.param;
  std::string name = core::to_string(strategy);
  name += mode == sz::ErrorBoundMode::kAbsolute     ? "_abs"
          : mode == sz::ErrorBoundMode::kRelative   ? "_rel"
                                                    : "_pwrel";
  name += "_b" + std::to_string(block);
  name += predictor == sz::Predictor::kLorenzo ? "_lor" : "_hyb";
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, StrategyModeMatrix,
    ::testing::Combine(
        ::testing::Values(core::Strategy::kOpST, core::Strategy::kAKDTree,
                          core::Strategy::kGSP),
        ::testing::Values(sz::ErrorBoundMode::kAbsolute,
                          sz::ErrorBoundMode::kRelative,
                          sz::ErrorBoundMode::kPointwiseRelative),
        ::testing::Values(std::size_t{4}, std::size_t{8}),
        ::testing::Values(sz::Predictor::kLorenzo, sz::Predictor::kHybrid)),
    combo_name);

TEST(Integration, AllMethodsAgreeOnStructure) {
  // Compress the same dataset with all four methods; reconstructions must
  // agree exactly on structure and within 2x eb with each other.
  const auto ds = dataset_with_density(0.3);
  const sz::SzConfig scfg{.error_bound = 1e6};
  core::TacConfig tcfg;
  tcfg.sz = scfg;
  const auto r_tac = core::decompress_any(core::tac_compress(ds, tcfg).bytes);
  const auto r_1d = core::decompress_any(core::oned_compress(ds, scfg).bytes);
  const auto r_zm =
      core::decompress_any(core::zmesh_compress(ds, scfg).bytes);
  const auto r_3d =
      core::decompress_any(core::upsample3d_compress(ds, scfg).bytes);
  for (std::size_t l = 0; l < ds.num_levels(); ++l) {
    const auto& a = r_tac.level(l);
    for (const auto* other : {&r_1d, &r_zm, &r_3d}) {
      const auto& b = other->level(l);
      ASSERT_EQ(a.mask, b.mask);
      for (std::size_t i = 0; i < a.data.size(); ++i) {
        if (a.mask[i]) {
          EXPECT_LE(std::fabs(a.data[i] - b.data[i]), 2e6 + 1e-9);
        }
      }
    }
  }
}

TEST(Integration, UniformCompositionMatchesLevelwiseBound) {
  // The uniform view used for PSNR/post-analysis inherits the level-wise
  // bound: every uniform cell is a replicated valid cell.
  const auto ds = dataset_with_density(0.35);
  core::TacConfig cfg;
  cfg.sz.error_bound = 1e6;
  const auto back = core::decompress_any(core::tac_compress(ds, cfg).bytes);
  const auto u_orig = amr::compose_uniform(ds);
  const auto u_back = amr::compose_uniform(back);
  const auto stats = analysis::distortion(u_orig.span(), u_back.span());
  EXPECT_LE(stats.max_abs_error, 1e6 + 1e-9);
}

TEST(Integration, StreamInfoByteBreakdownAddsUp) {
  const Dims3 d{32, 32, 32};
  std::vector<double> v(d.volume());
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = std::sin(0.05 * static_cast<double>(i)) * 100.0 +
           static_cast<double>(i % 13);
  const auto bytes =
      sz::compress<double>(v, d, sz::SzConfig{.error_bound = 0.01});
  const auto info = sz::peek(bytes);
  EXPECT_GT(info.huffman_bytes, 0u);
  EXPECT_EQ(info.huffman_bytes + info.outlier_bytes + info.metadata_bytes,
            bytes.size());
}

TEST(Integration, AdaptiveMatchesManualSelection) {
  for (const double density : {0.2, 0.7}) {
    const auto ds = dataset_with_density(density);
    core::TacConfig cfg;
    cfg.sz.error_bound = 1e6;
    const auto method = core::adaptive_select(ds, cfg);
    const auto compressed = core::adaptive_compress(ds, cfg);
    EXPECT_EQ(compressed.report.method, method);
    const auto manual = method == core::Method::kTac
                            ? core::tac_compress(ds, cfg)
                            : core::upsample3d_compress(ds, cfg.sz);
    EXPECT_EQ(compressed.bytes, manual.bytes);
  }
}

// ------------------------------------------------------------ decode reuse
// Decoders write valid cells only and rely on every level arriving zeroed.
// Decoding in a loop hands each new level memory an earlier iteration
// freed — dirtied on purpose below — so a decoder or allocation path that
// leaves stale bytes in an empty cell shows up here.

bool same_bits(const Array3D<double>& a, const Array3D<double>& b) {
  return a.dims() == b.dims() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Empty cells of `lv` whose bits are not +0.0.
std::size_t dirty_empty_cells(const amr::AmrLevel& lv) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < lv.data.size(); ++i) {
    std::uint64_t bits;
    std::memcpy(&bits, &lv.data[i], sizeof(bits));
    if (!lv.mask[i] && bits != 0) ++n;
  }
  return n;
}

/// Allocates, fills with junk and frees a block the size of each level's
/// data, so the next decode may be handed junk-filled memory.
void dirty_free_memory(const amr::AmrDataset& ds) {
  for (const amr::AmrLevel& lv : ds.levels()) {
    const std::size_t bytes = lv.data.size() * sizeof(double);
    void* p = std::malloc(bytes);
    ASSERT_NE(p, nullptr);
    std::memset(p, 0xA5, bytes);
    std::free(p);
  }
}

struct DecodeCase {
  const char* name;
  core::Method method;
  std::optional<core::Strategy> strategy;
};

TEST(DecodeReuse, EmptyCellsStayPositiveZeroAcrossDecodes) {
  const auto ds = dataset_with_density(0.3);
  const DecodeCase cases[] = {
      {"TAC/NaST", core::Method::kTac, core::Strategy::kNaST},
      {"TAC/OpST", core::Method::kTac, core::Strategy::kOpST},
      {"TAC/AKDTree", core::Method::kTac, core::Strategy::kAKDTree},
      {"TAC/GSP", core::Method::kTac, core::Strategy::kGSP},
      {"TAC/ZF", core::Method::kTac, core::Strategy::kZF},
      {"1D", core::Method::kOneD, std::nullopt},
      {"zMesh", core::Method::kZMesh, std::nullopt},
      {"3D", core::Method::kUpsample3D, std::nullopt},
      {"auto", core::Method::kAuto, std::nullopt},
  };
  for (const DecodeCase& c : cases) {
    core::TacConfig cfg;
    cfg.sz.error_bound = 1e6;
    cfg.force_strategy = c.strategy;
    const auto bytes = core::backend_for(c.method).compress(ds, cfg).bytes;
    std::optional<amr::AmrDataset> first;
    for (int it = 0; it < 4; ++it) {
      dirty_free_memory(ds);
      const amr::AmrDataset back = core::decompress_any(bytes);
      ASSERT_EQ(back.num_levels(), ds.num_levels()) << c.name;
      for (std::size_t l = 0; l < back.num_levels(); ++l) {
        const amr::AmrLevel& lv = back.level(l);
        EXPECT_EQ(dirty_empty_cells(lv), 0u)
            << c.name << " level " << l << " iteration " << it;
        const amr::AmrLevel single = core::decompress_level(bytes, l);
        EXPECT_EQ(dirty_empty_cells(single), 0u)
            << c.name << " decompress_level " << l << " iteration " << it;
        EXPECT_TRUE(same_bits(single.data, lv.data))
            << c.name << " decompress_level " << l << " iteration " << it;
        if (first) {
          EXPECT_TRUE(same_bits(lv.data, first->level(l).data))
              << c.name << " level " << l << " iteration " << it;
        }
      }
      if (!first) first = back;
    }
  }
}

}  // namespace
}  // namespace tac
