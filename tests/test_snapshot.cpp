#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "amr/snapshot.hpp"
#include "analysis/slice_image.hpp"
#include "core/tac.hpp"
#include "simnyx/generator.hpp"

namespace tac {
namespace {

amr::Snapshot make_snapshot() {
  simnyx::GeneratorConfig gc;
  gc.finest_dims = {32, 32, 32};
  gc.level_densities = {0.3, 0.7};
  gc.region_size = 8;
  const auto fields = simnyx::generate_fields(gc);
  amr::Snapshot s;
  s.fields = {fields.baryon_density, fields.temperature,
              fields.velocity_x};
  return s;
}

TEST(Snapshot, SharedStructureValidates) {
  const auto s = make_snapshot();
  EXPECT_EQ(s.validate_shared_structure(), "");
}

TEST(Snapshot, MismatchedMaskDetected) {
  auto s = make_snapshot();
  s.fields[1].level(0).mask(0, 0, 0) ^= 1;
  EXPECT_NE(s.validate_shared_structure(), "");
}

TEST(Snapshot, EmptySnapshotRejected) {
  const amr::Snapshot s;
  EXPECT_NE(s.validate_shared_structure(), "");
}

TEST(Snapshot, CompressedRoundTripWithinBound) {
  const auto s = make_snapshot();
  core::TacConfig cfg;
  cfg.sz.mode = sz::ErrorBoundMode::kRelative;
  cfg.sz.error_bound = 1e-4;
  const auto bytes = core::compress_snapshot(s, cfg);
  const auto back = core::decompress_snapshot(bytes);
  ASSERT_EQ(back.fields.size(), s.fields.size());
  for (std::size_t f = 0; f < s.fields.size(); ++f) {
    for (std::size_t l = 0; l < s.fields[f].num_levels(); ++l) {
      const auto& ol = s.fields[f].level(l);
      const auto& rl = back.fields[f].level(l);
      const auto [lo, hi] = ol.valid_range();
      const double eb = 1e-4 * (hi - lo);
      for (std::size_t i = 0; i < ol.data.size(); ++i) {
        if (!ol.mask[i]) continue;
        EXPECT_LE(std::fabs(ol.data[i] - rl.data[i]), eb * (1 + 1e-12))
            << "field " << f << " level " << l;
      }
    }
  }
}

TEST(Snapshot, CompressedPreservesFieldNames) {
  const auto s = make_snapshot();
  core::TacConfig cfg;
  cfg.sz.error_bound = 1e6;
  const auto back =
      core::decompress_snapshot(core::compress_snapshot(s, cfg));
  EXPECT_EQ(back.fields[0].field_name(), "baryon_density");
  EXPECT_EQ(back.fields[1].field_name(), "temperature");
  EXPECT_EQ(back.fields[2].field_name(), "velocity_x");
}

TEST(Snapshot, CorruptContainerThrows) {
  const auto s = make_snapshot();
  core::TacConfig cfg;
  cfg.sz.error_bound = 1e6;
  auto bytes = core::compress_snapshot(s, cfg);
  bytes[0] ^= 0xFF;
  EXPECT_THROW((void)core::decompress_snapshot(bytes), std::runtime_error);
}

TEST(SliceImage, WritesValidPgm) {
  Array3D<double> f({16, 8, 4});
  for (std::size_t i = 0; i < f.size(); ++i)
    f[i] = static_cast<double>(i % 97);
  const std::string path = ::testing::TempDir() + "/tac_slice.pgm";
  analysis::write_slice_pgm(path, f, {.z = 2});
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::string magic;
  in >> magic;
  EXPECT_EQ(magic, "P5");
  std::size_t w = 0, h = 0, maxval = 0;
  in >> w >> h >> maxval;
  EXPECT_EQ(w, 16u);
  EXPECT_EQ(h, 8u);
  EXPECT_EQ(maxval, 255u);
  std::remove(path.c_str());
}

TEST(SliceImage, ErrorSliceHighlightsDifference) {
  Array3D<double> a({8, 8, 2}, 1.0);
  Array3D<double> b = a;
  b(3, 4, 0) = 5.0;  // one bright pixel on slice 0
  const std::string path = ::testing::TempDir() + "/tac_err_slice.pgm";
  analysis::write_error_slice_pgm(path, a, b, {.z = 0});
  std::ifstream in(path, std::ios::binary);
  std::string line;
  std::getline(in, line);  // P5
  std::getline(in, line);  // dims
  std::getline(in, line);  // maxval
  std::vector<unsigned char> pixels(64);
  in.read(reinterpret_cast<char*>(pixels.data()), 64);
  EXPECT_EQ(pixels[4 * 8 + 3], 255);  // the differing cell is brightest
  EXPECT_EQ(pixels[0], 0);
  std::remove(path.c_str());
}

TEST(SliceImage, RejectsBadSliceIndex) {
  Array3D<double> f({4, 4, 4});
  EXPECT_THROW(
      analysis::write_slice_pgm(::testing::TempDir() + "/x.pgm", f,
                                {.z = 10}),
      std::invalid_argument);
}

TEST(SliceImage, RejectsMismatchedExtents) {
  Array3D<double> a({4, 4, 4});
  Array3D<double> b({8, 4, 4});
  EXPECT_THROW(analysis::write_error_slice_pgm(
                   ::testing::TempDir() + "/x.pgm", a, b, {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace tac
