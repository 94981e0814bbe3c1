#include <gtest/gtest.h>

#include <cmath>

#include "amr/uniform.hpp"
#include "core/backend.hpp"
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
  cfg.seed = 4321;
  return cfg;
}

void expect_amr_bounded(const amr::AmrDataset& orig,
                        const amr::AmrDataset& recon, double eb) {
  ASSERT_EQ(orig.num_levels(), recon.num_levels());
  for (std::size_t l = 0; l < orig.num_levels(); ++l) {
    const auto& ol = orig.level(l);
    const auto& rl = recon.level(l);
    for (std::size_t i = 0; i < ol.data.size(); ++i) {
      if (!ol.mask[i]) continue;
      EXPECT_LE(std::fabs(ol.data[i] - rl.data[i]), eb)
          << "level " << l << " cell " << i;
    }
  }
}

TEST(OneD, RoundTripWithinBound) {
  const auto ds = simnyx::generate_baryon_density(small_config({0.3, 0.7}));
  sz::SzConfig cfg{.error_bound = 1e6};
  const auto compressed = oned_compress(ds, cfg);
  expect_amr_bounded(ds, decompress_any(compressed.bytes), 1e6);
  EXPECT_EQ(compressed.report.method, Method::kOneD);
  EXPECT_EQ(compressed.report.levels.size(), 2u);
}

TEST(OneD, EmptyLevelHandled) {
  // A dataset where the finest level is present but a middle level is
  // empty cannot come from the generator; build one by hand.
  amr::AmrLevel fine({8, 8, 8});
  amr::AmrLevel coarse({4, 4, 4});
  for (std::size_t i = 0; i < fine.mask.size(); ++i) {
    fine.mask[i] = 1;
    fine.data[i] = 1.5;
  }
  const amr::AmrDataset ds("f", {std::move(fine), std::move(coarse)});
  sz::SzConfig cfg{.error_bound = 0.1};
  const auto compressed = oned_compress(ds, cfg);
  const auto back = decompress_any(compressed.bytes);
  EXPECT_EQ(back.level(1).valid_count(), 0u);
  expect_amr_bounded(ds, back, 0.1);
}

TEST(ZMesh, GatherEmitsAllValidValuesOnce) {
  const auto ds = simnyx::generate_baryon_density(small_config({0.3, 0.7}));
  const auto values = zmesh_gather(ds);
  EXPECT_EQ(values.size(), ds.total_valid());
  // Sum of gathered == sum over levels of valid data (same multiset).
  double sum_gather = 0;
  for (const double v : values) sum_gather += v;
  double sum_levels = 0;
  for (std::size_t l = 0; l < ds.num_levels(); ++l) {
    const auto& lv = ds.level(l);
    for (std::size_t i = 0; i < lv.data.size(); ++i)
      if (lv.mask[i]) sum_levels += lv.data[i];
  }
  EXPECT_NEAR(sum_gather, sum_levels, std::fabs(sum_levels) * 1e-12);
}

TEST(ZMesh, ScatterInvertsGather) {
  const auto ds = simnyx::generate_baryon_density(small_config({0.3, 0.7}));
  const auto values = zmesh_gather(ds);
  auto copy = ds;
  for (auto& lv : copy.levels()) lv.data.fill(0.0);
  zmesh_scatter(copy, values);
  for (std::size_t l = 0; l < ds.num_levels(); ++l) {
    const auto& ol = ds.level(l);
    const auto& cl = copy.level(l);
    for (std::size_t i = 0; i < ol.data.size(); ++i) {
      if (ol.mask[i]) {
        EXPECT_EQ(cl.data[i], ol.data[i]);
      }
    }
  }
}

TEST(ZMesh, InterleavesLevels) {
  // In traversal order, fine cells of a refined coarse cell appear between
  // the coarse cells surrounding it — not all fine then all coarse.
  const auto ds = simnyx::generate_baryon_density(small_config({0.3, 0.7}));
  std::vector<std::size_t> level_of_pos;
  level_of_pos.reserve(ds.total_valid());
  // Reconstruct the level sequence by matching gather order.
  // (zmesh_gather walks the same traversal.)
  struct Probe {
    std::vector<std::size_t> seq;
  } probe;
  auto copy = ds;
  // Tag each level's data with its level id and read the gather output.
  for (std::size_t l = 0; l < copy.num_levels(); ++l) {
    auto& lv = copy.level(l);
    for (std::size_t i = 0; i < lv.data.size(); ++i)
      if (lv.mask[i]) lv.data[i] = static_cast<double>(l);
  }
  const auto tagged = zmesh_gather(copy);
  bool saw_coarse_after_fine = false;
  bool saw_fine = false;
  for (const double t : tagged) {
    if (t == 0.0) saw_fine = true;
    if (t == 1.0 && saw_fine) saw_coarse_after_fine = true;
  }
  EXPECT_TRUE(saw_coarse_after_fine) << "levels not interleaved";
  (void)probe;
  (void)level_of_pos;
}

TEST(ZMesh, RoundTripWithinBound) {
  const auto ds = simnyx::generate_baryon_density(small_config({0.3, 0.7}));
  sz::SzConfig cfg{.error_bound = 1e6};
  const auto compressed = zmesh_compress(ds, cfg);
  expect_amr_bounded(ds, decompress_any(compressed.bytes), 1e6);
}

TEST(Upsample3D, RoundTripWithinBound) {
  const auto ds = simnyx::generate_baryon_density(small_config({0.3, 0.7}));
  sz::SzConfig cfg{.error_bound = 1e6};
  const auto compressed = upsample3d_compress(ds, cfg);
  expect_amr_bounded(ds, decompress_any(compressed.bytes), 1e6);
}

TEST(Upsample3D, RelativeBoundUsesDatasetRange) {
  const auto ds = simnyx::generate_baryon_density(small_config({0.3, 0.7}));
  sz::SzConfig cfg{.mode = sz::ErrorBoundMode::kRelative,
                   .error_bound = 1e-3};
  const auto compressed = upsample3d_compress(ds, cfg);
  double lo = 1e300, hi = -1e300;
  for (std::size_t l = 0; l < ds.num_levels(); ++l) {
    const auto [llo, lhi] = ds.level(l).valid_range();
    lo = std::min(lo, llo);
    hi = std::max(hi, lhi);
  }
  const double eb = 1e-3 * (hi - lo);
  EXPECT_NEAR(compressed.report.levels[0].abs_error_bound, eb, eb * 1e-9);
  expect_amr_bounded(ds, decompress_any(compressed.bytes), eb);
}

TEST(Upsample3D, CompressedPayloadCoversFullUniformGrid) {
  // The 3D baseline pays for redundant up-sampled points; on a sparse
  // finest level its stream is much larger than TAC's for the same bound.
  const auto ds = simnyx::generate_baryon_density(
      small_config({0.05, 0.95}, 64));
  sz::SzConfig cfg{.error_bound = 1e6};
  const auto base3d = upsample3d_compress(ds, cfg);
  TacConfig tcfg;
  tcfg.sz = cfg;
  const auto tac = tac_compress(ds, tcfg);
  EXPECT_GT(base3d.bytes.size(), tac.bytes.size());
}

// Every built-in method round-trips the structure, and its report means
// the same thing: level compressed_bytes are the payloads' index-entry
// lengths, which together span the container after the index.
TEST(Baselines, AllMethodsPreserveStructure) {
  const auto ds = simnyx::generate_baryon_density(small_config({0.3, 0.7}));
  TacConfig cfg;
  cfg.sz.error_bound = 1e6;
  for (const Method m : {Method::kTac, Method::kOneD, Method::kZMesh,
                         Method::kUpsample3D, Method::kAuto}) {
    const CompressedAmr compressed = backend_for(m).compress(ds, cfg);
    const auto back = decompress_any(compressed.bytes);
    for (std::size_t l = 0; l < ds.num_levels(); ++l)
      EXPECT_EQ(back.level(l).mask, ds.level(l).mask) << to_string(m);
    EXPECT_EQ(back.refinement_ratio(), ds.refinement_ratio());
    EXPECT_EQ(back.field_name(), ds.field_name());

    EXPECT_EQ(compressed.report.original_bytes, ds.original_bytes())
        << to_string(m);
    EXPECT_EQ(compressed.report.compressed_bytes, compressed.bytes.size());
    ByteReader r(compressed.bytes);
    const CommonHeader h = read_common_header(r);
    std::size_t level_bytes = 0;
    for (const LevelReport& lr : compressed.report.levels)
      level_bytes += lr.compressed_bytes;
    std::size_t entry_bytes = 0;
    for (const PayloadEntry& e : h.index.entries) entry_bytes += e.length;
    EXPECT_EQ(level_bytes, entry_bytes) << to_string(m);
    EXPECT_EQ(entry_bytes, compressed.bytes.size() - h.payload_offset)
        << to_string(m);
  }
}

TEST(Baselines, ThreeLevelDatasetAllMethods) {
  const auto ds = simnyx::generate_baryon_density(
      small_config({0.05, 0.2, 0.75}, 64));
  ASSERT_EQ(ds.validate(), "");
  sz::SzConfig cfg{.error_bound = 1e6};
  expect_amr_bounded(ds, decompress_any(oned_compress(ds, cfg).bytes), 1e6);
  expect_amr_bounded(ds, decompress_any(zmesh_compress(ds, cfg).bytes), 1e6);
  expect_amr_bounded(ds, decompress_any(upsample3d_compress(ds, cfg).bytes),
                     1e6);
}

}  // namespace
}  // namespace tac::core
