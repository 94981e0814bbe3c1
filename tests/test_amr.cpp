#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <span>

#include "amr/amr_io.hpp"
#include "amr/dataset.hpp"
#include "amr/uniform.hpp"

namespace tac::amr {
namespace {

/// Two-level dataset: an aligned box of the domain refined to the fine
/// level, the rest stored coarse. Region is given in coarse cells.
AmrDataset make_two_level(Dims3 fine_dims, Box3 refined_coarse,
                          unsigned seed = 7) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(1.0, 2.0);
  const Dims3 coarse_dims{fine_dims.nx / 2, fine_dims.ny / 2,
                          fine_dims.nz / 2};
  AmrLevel fine(fine_dims);
  AmrLevel coarse(coarse_dims);
  for (std::size_t z = 0; z < coarse_dims.nz; ++z)
    for (std::size_t y = 0; y < coarse_dims.ny; ++y)
      for (std::size_t x = 0; x < coarse_dims.nx; ++x) {
        if (refined_coarse.contains(x, y, z)) {
          for (std::size_t dz = 0; dz < 2; ++dz)
            for (std::size_t dy = 0; dy < 2; ++dy)
              for (std::size_t dx = 0; dx < 2; ++dx) {
                fine.mask(2 * x + dx, 2 * y + dy, 2 * z + dz) = 1;
                fine.data(2 * x + dx, 2 * y + dy, 2 * z + dz) = u(rng);
              }
        } else {
          coarse.mask(x, y, z) = 1;
          coarse.data(x, y, z) = u(rng);
        }
      }
  return AmrDataset("test_field", {std::move(fine), std::move(coarse)});
}

bool all_bits_zero(const Array3D<double>& a) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::uint64_t bits;
    std::memcpy(&bits, &a[i], sizeof(bits));
    if (bits != 0) return false;
  }
  return true;
}

TEST(Array3D, ZeroConstructorZeroFills) {
  const Array3D<double> a({5, 4, 3});
  EXPECT_EQ(a.dims(), (Dims3{5, 4, 3}));
  EXPECT_EQ(a.size(), 60u);
  EXPECT_EQ(a.span().size(), 60u);
  EXPECT_TRUE(all_bits_zero(a));
  const Array3D<std::uint8_t> m({7, 1, 1});
  for (std::size_t i = 0; i < m.size(); ++i) EXPECT_EQ(m[i], 0u);
}

TEST(Array3D, ZeroConstructorZeroFillsReusedMemory) {
  // Leave a junk-filled block of the same size on the free list first: a
  // zero array built right after must not see the junk.
  for (const std::size_t n : {std::size_t{1} << 10, std::size_t{1} << 20}) {
    void* junk = std::malloc(n * sizeof(double));
    ASSERT_NE(junk, nullptr);
    std::memset(junk, 0xA5, n * sizeof(double));
    std::free(junk);
    const Array3D<double> a({n, 1, 1});
    EXPECT_TRUE(all_bits_zero(a)) << n << " cells";
  }
}

TEST(Array3D, FillConstructorFillsEveryCell) {
  const Array3D<double> a({3, 3, 3}, 2.5);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], 2.5);
  const Array3D<std::uint8_t> m({2, 2, 2}, 7);
  for (std::size_t i = 0; i < m.size(); ++i) EXPECT_EQ(m[i], 7u);
}

TEST(Array3D, SpanConstructorCopiesValues) {
  std::vector<double> v(24);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  const Array3D<double> a({4, 3, 2}, std::span<const double>(v));
  v[5] = -1.0;  // the array owns a copy
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i], static_cast<double>(i));
  EXPECT_EQ(a(1, 1, 1), 4.0 + 1.0 + 12.0);
}

TEST(Array3D, CopiesAreDeep) {
  Array3D<double> a({2, 2, 2}, 1.0);
  Array3D<double> b(a);
  b[0] = 9.0;
  EXPECT_EQ(a[0], 1.0);
  EXPECT_NE(a.data(), b.data());
  Array3D<double> c({1, 1, 1});
  c = a;
  EXPECT_EQ(c, a);
  c[3] = 9.0;
  EXPECT_EQ(a[3], 1.0);
}

TEST(Array3D, MovedFromArrayIsEmpty) {
  Array3D<double> a({4, 4, 4}, 3.0);
  const double* storage = a.data();
  Array3D<double> b(std::move(a));
  EXPECT_EQ(b.data(), storage);
  EXPECT_EQ(b.dims(), (Dims3{4, 4, 4}));
  EXPECT_EQ(b[63], 3.0);
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.size(), 0u);
  EXPECT_EQ(a.dims(), Dims3{});
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_TRUE(a.span().empty());

  Array3D<double> c;
  c = std::move(b);
  EXPECT_EQ(c.data(), storage);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.data(), nullptr);
  a = c;  // a moved-from array is assignable
  EXPECT_EQ(a, c);
}

TEST(Array3D, EqualityComparesExtentsAndCells) {
  EXPECT_EQ(Array3D<double>(), Array3D<double>());
  EXPECT_EQ(Array3D<double>({2, 3, 1}, 1.0), Array3D<double>({2, 3, 1}, 1.0));
  EXPECT_NE(Array3D<double>({2, 3, 1}, 1.0), Array3D<double>({3, 2, 1}, 1.0));
  Array3D<double> a({2, 3, 1}, 1.0);
  a(1, 2, 0) = 2.0;
  EXPECT_NE(a, Array3D<double>({2, 3, 1}, 1.0));
  // Cell comparison is T's ==, not a byte compare.
  EXPECT_EQ(Array3D<double>({1, 1, 1}, -0.0), Array3D<double>({1, 1, 1}));
}

TEST(AmrLevel, DensityCountsValidCells) {
  AmrLevel lv({4, 4, 4});
  EXPECT_EQ(lv.valid_count(), 0u);
  EXPECT_DOUBLE_EQ(lv.density(), 0.0);
  for (std::size_t i = 0; i < 16; ++i) lv.mask[i] = 1;
  EXPECT_EQ(lv.valid_count(), 16u);
  EXPECT_DOUBLE_EQ(lv.density(), 0.25);
}

TEST(AmrLevel, GatherScatterRoundTrip) {
  AmrLevel lv({4, 4, 2});
  std::mt19937 rng(1);
  std::uniform_real_distribution<double> u(0, 1);
  for (std::size_t i = 0; i < lv.mask.size(); ++i) {
    lv.mask[i] = (i % 3 == 0) ? 1 : 0;
    lv.data[i] = lv.mask[i] ? u(rng) : 0.0;
  }
  const auto values = lv.gather_valid();
  EXPECT_EQ(values.size(), lv.valid_count());
  AmrLevel lv2({4, 4, 2});
  lv2.mask = lv.mask;
  lv2.scatter_valid(values);
  EXPECT_EQ(lv2.data, lv.data);
}

TEST(AmrLevel, ScatterSkipsEmptyWordsAndFillsTheTail) {
  // 5*5*3 = 75 cells: nine full 8-cell mask words and a 3-cell tail. Valid
  // cells sit alone in a word, at word edges and in the tail; whole words
  // stay empty.
  AmrLevel lv({5, 5, 3});
  for (const std::size_t i : {std::size_t{0}, std::size_t{7},
                              std::size_t{8}, std::size_t{29},
                              std::size_t{63}, std::size_t{72},
                              std::size_t{74}}) {
    lv.mask[i] = 1;
    lv.data[i] = 1.5 + static_cast<double>(i);
  }
  AmrLevel lv2(lv.dims());
  lv2.mask = lv.mask;
  lv2.scatter_valid(lv.gather_valid());
  EXPECT_EQ(lv2.data, lv.data);
  EXPECT_THROW(lv2.scatter_valid(std::vector<double>(6, 1.0)),
               std::invalid_argument);
  EXPECT_THROW(lv2.scatter_valid(std::vector<double>(8, 1.0)),
               std::invalid_argument);
}

TEST(AmrLevel, ScatterRejectsWrongCount) {
  AmrLevel lv({2, 2, 1});
  lv.mask(0, 0, 0) = 1;
  EXPECT_THROW(lv.scatter_valid(std::vector<double>{}),
               std::invalid_argument);
  EXPECT_THROW(lv.scatter_valid(std::vector<double>{1.0, 2.0}),
               std::invalid_argument);
}

TEST(AmrLevel, ValidRangeIgnoresEmptyCells) {
  AmrLevel lv({2, 2, 1});
  lv.data(0, 0, 0) = -100.0;  // invalid cell: ignored
  lv.mask(1, 0, 0) = 1;
  lv.data(1, 0, 0) = 3.0;
  lv.mask(0, 1, 0) = 1;
  lv.data(0, 1, 0) = 7.0;
  const auto [lo, hi] = lv.valid_range();
  EXPECT_DOUBLE_EQ(lo, 3.0);
  EXPECT_DOUBLE_EQ(hi, 7.0);
}

TEST(AmrDataset, ValidPartitionPasses) {
  const auto ds = make_two_level({16, 16, 16}, Box3{0, 0, 0, 4, 4, 4});
  EXPECT_EQ(ds.validate(), "");
}

TEST(AmrDataset, OverlapDetected) {
  auto ds = make_two_level({16, 16, 16}, Box3{0, 0, 0, 4, 4, 4});
  // Mark a coarse cell valid whose region is already refined.
  ds.level(1).mask(0, 0, 0) = 1;
  EXPECT_NE(ds.validate(), "");
}

TEST(AmrDataset, HoleDetected) {
  auto ds = make_two_level({16, 16, 16}, Box3{0, 0, 0, 4, 4, 4});
  ds.level(1).mask(7, 7, 7) = 0;
  EXPECT_NE(ds.validate(), "");
}

TEST(AmrDataset, WrongLevelDimsDetected) {
  auto ds = make_two_level({16, 16, 16}, Box3{0, 0, 0, 4, 4, 4});
  std::vector<AmrLevel> levels;
  levels.push_back(std::move(ds.level(0)));
  levels.emplace_back(Dims3{5, 8, 8});  // not finest/2
  const AmrDataset bad("x", std::move(levels));
  EXPECT_NE(bad.validate(), "");
}

TEST(AmrDataset, TotalValidSumsLevels) {
  const auto ds = make_two_level({16, 16, 16}, Box3{0, 0, 0, 4, 4, 4});
  EXPECT_EQ(ds.total_valid(),
            ds.level(0).valid_count() + ds.level(1).valid_count());
  EXPECT_EQ(ds.original_bytes(), ds.total_valid() * sizeof(double));
}

TEST(Uniform, ComposeReplicatesCoarseValues) {
  const auto ds = make_two_level({8, 8, 8}, Box3{0, 0, 0, 2, 2, 2});
  const auto uni = compose_uniform(ds);
  EXPECT_EQ(uni.dims(), ds.finest_dims());
  // Fine region: exact fine values.
  EXPECT_DOUBLE_EQ(uni(0, 0, 0), ds.level(0).data(0, 0, 0));
  // Coarse region: each coarse value replicated 2x2x2.
  const double c = ds.level(1).data(3, 3, 3);
  for (std::size_t dz = 0; dz < 2; ++dz)
    for (std::size_t dy = 0; dy < 2; ++dy)
      for (std::size_t dx = 0; dx < 2; ++dx)
        EXPECT_DOUBLE_EQ(uni(6 + dx, 6 + dy, 6 + dz), c);
}

TEST(Uniform, DistributeInvertsCompose) {
  const auto ds = make_two_level({8, 8, 8}, Box3{1, 1, 1, 3, 3, 3});
  const auto uni = compose_uniform(ds);
  auto copy = ds;
  for (auto& lv : copy.levels()) lv.data.fill(0.0);
  distribute_uniform(uni, copy);
  for (std::size_t l = 0; l < ds.num_levels(); ++l)
    EXPECT_EQ(copy.level(l).data, ds.level(l).data) << "level " << l;
}

TEST(Uniform, UpsampleFactors) {
  Array3D<double> coarse({2, 2, 2});
  for (std::size_t i = 0; i < coarse.size(); ++i)
    coarse[i] = static_cast<double>(i);
  const auto fine = upsample(coarse, {4, 4, 4});
  for (std::size_t z = 0; z < 4; ++z)
    for (std::size_t y = 0; y < 4; ++y)
      for (std::size_t x = 0; x < 4; ++x)
        EXPECT_DOUBLE_EQ(fine(x, y, z), coarse(x / 2, y / 2, z / 2));
}

TEST(Uniform, UpsampleRejectsNonMultiple) {
  Array3D<double> coarse({3, 3, 3});
  EXPECT_THROW((void)upsample(coarse, {7, 6, 6}), std::invalid_argument);
}

TEST(AmrIo, BytesRoundTrip) {
  const auto ds = make_two_level({16, 16, 16}, Box3{2, 2, 2, 6, 6, 6});
  const auto bytes = dataset_to_bytes(ds);
  const auto back = dataset_from_bytes(bytes);
  EXPECT_EQ(back.field_name(), ds.field_name());
  EXPECT_EQ(back.num_levels(), ds.num_levels());
  EXPECT_EQ(back.refinement_ratio(), ds.refinement_ratio());
  for (std::size_t l = 0; l < ds.num_levels(); ++l) {
    EXPECT_EQ(back.level(l).mask, ds.level(l).mask);
    EXPECT_EQ(back.level(l).data, ds.level(l).data);
  }
}

TEST(AmrIo, FileRoundTrip) {
  const auto ds = make_two_level({8, 8, 8}, Box3{0, 0, 0, 2, 2, 2});
  const std::string path = ::testing::TempDir() + "/tac_amr_io_test.bin";
  save_dataset(path, ds);
  const auto back = load_dataset(path);
  EXPECT_EQ(back.level(0).data, ds.level(0).data);
  EXPECT_EQ(back.level(1).mask, ds.level(1).mask);
  std::remove(path.c_str());
}

TEST(AmrIo, CorruptMagicRejected) {
  const auto ds = make_two_level({8, 8, 8}, Box3{0, 0, 0, 2, 2, 2});
  auto bytes = dataset_to_bytes(ds);
  bytes[0] ^= 0xFF;
  EXPECT_THROW((void)dataset_from_bytes(bytes), std::runtime_error);
}

TEST(MaskPack, RoundTripOddSizes) {
  // One valid cell in `period`: at 1 in 100 most 64-cell words are all
  // clear, which unpacking skips without a write.
  for (const unsigned period : {2u, 100u}) {
    for (const std::size_t n : {0u, 1u, 7u, 8u, 9u, 63u, 64u, 65u, 1000u}) {
      std::vector<std::uint8_t> mask(n);
      std::mt19937 rng(static_cast<unsigned>(n));
      for (auto& m : mask) m = rng() % period == 0;
      const auto packed = pack_mask(mask);
      EXPECT_EQ(packed.size(), (n + 7) / 8);
      EXPECT_EQ(unpack_mask(packed, n), mask) << n << " cells, 1 in " << period;
    }
  }
}

}  // namespace
}  // namespace tac::amr
