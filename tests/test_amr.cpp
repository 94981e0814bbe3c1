#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "amr/amr_io.hpp"
#include "amr/dataset.hpp"
#include "amr/uniform.hpp"
#include "common/crc32.hpp"
#include "common/parallel.hpp"
#include "lossless/codec.hpp"

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

// ------------------------------------------------------- mask-scan oracle
// Every AmrLevel scan skips empty mask chunks; each is checked here against
// the plain raster loop it replaces, bit for bit, over densities from
// empty to full, mask bytes other than 1, odd extents and special values.

/// A level whose valid cells (probability `density`) carry mask bytes 1,
/// 0x80 or 0xFF and values that include NaN, ±Inf and −0.0. Empty cells
/// hold junk, which no scan may read.
AmrLevel random_scan_level(Dims3 d, double density, unsigned seed) {
  std::mt19937 rng(seed);
  std::bernoulli_distribution valid(density);
  std::uniform_real_distribution<double> u(-50.0, 50.0);
  const std::uint8_t bytes[] = {1, 0x80, 0xFF};
  const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(), -0.0};
  AmrLevel lv(d);
  for (std::size_t i = 0; i < lv.mask.size(); ++i) {
    if (!valid(rng)) {
      lv.data[i] = 1e300;  // junk in an empty cell
      continue;
    }
    lv.mask[i] = bytes[rng() % 3];
    lv.data[i] = rng() % 16 == 0 ? specials[rng() % 4] : u(rng);
  }
  return lv;
}

std::vector<double> raster_gather(const AmrLevel& lv) {
  std::vector<double> out;
  for (std::size_t i = 0; i < lv.mask.size(); ++i)
    if (lv.mask[i]) out.push_back(lv.data[i]);
  return out;
}

/// The raster valid_range the chunked scan must reproduce, including
/// where NaN lands (std::min/std::max keep their first argument when a
/// comparison with NaN is false).
std::pair<double, double> raster_range(const AmrLevel& lv) {
  bool any = false;
  double lo = 0, hi = 0;
  for (std::size_t i = 0; i < lv.mask.size(); ++i) {
    if (!lv.mask[i]) continue;
    if (!any) {
      lo = hi = lv.data[i];
      any = true;
    } else {
      lo = std::min(lo, lv.data[i]);
      hi = std::max(hi, lv.data[i]);
    }
  }
  return {lo, hi};
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

void expect_scans_match_raster(const AmrLevel& lv, const std::string& where) {
  const std::vector<double> want = raster_gather(lv);
  EXPECT_EQ(lv.valid_count(), want.size()) << where;

  const std::vector<double> got = lv.gather_valid();
  EXPECT_TRUE(same_bits(got, want)) << where;

  std::vector<double> into(want.size() + 1, 42.0);  // one guard slot
  EXPECT_EQ(lv.gather_valid_into(std::span<double>(into).first(want.size())),
            want.size())
      << where;
  EXPECT_TRUE(
      same_bits(std::span<const double>(into).first(want.size()), want))
      << where;
  EXPECT_EQ(into.back(), 42.0) << where;

  const auto [lo, hi] = lv.valid_range();
  const auto [want_lo, want_hi] = raster_range(lv);
  EXPECT_TRUE(same_bits(lo, want_lo)) << where << " lo " << lo;
  EXPECT_TRUE(same_bits(hi, want_hi)) << where << " hi " << hi;

  AmrLevel back(lv.dims());
  back.mask = lv.mask;
  back.scatter_valid(want);
  for (std::size_t i = 0; i < lv.mask.size(); ++i)
    ASSERT_TRUE(same_bits(back.data[i], lv.mask[i] ? lv.data[i] : 0.0))
        << where << " cell " << i;
}

TEST(MaskScanOracle, RandomMasksMatchTheRasterLoop) {
  unsigned seed = 1;
  for (const Dims3 d : {Dims3{1, 1, 1}, Dims3{13, 7, 5}, Dims3{64, 64, 64}})
    for (const double density : {0.0, 1e-4, 0.01, 0.5, 1.0}) {
      const AmrLevel lv = random_scan_level(d, density, ++seed);
      std::ostringstream where;
      where << d.nx << "x" << d.ny << "x" << d.nz << " density " << density;
      expect_scans_match_raster(lv, where.str());
    }
}

TEST(MaskScanOracle, CellsAtChunkEdgesOfASparseLevel) {
  // 64^3 with valid cells only at the first and last byte of 8-byte words
  // and 32-byte chunks, and in the level's last cells.
  AmrLevel lv({64, 64, 64});
  const std::size_t n = lv.mask.size();
  std::size_t k = 0;
  for (const std::size_t i : {std::size_t{0}, std::size_t{7}, std::size_t{8},
                              std::size_t{31}, std::size_t{32},
                              std::size_t{4095}, n / 2, n - 33, n - 32,
                              n - 1}) {
    lv.mask[i] = k % 2 ? 0xFF : 0x80;
    lv.data[i] = 0.25 * static_cast<double>(++k);
  }
  lv.data[n - 1] = std::numeric_limits<double>::quiet_NaN();
  lv.data[0] = -0.0;
  expect_scans_match_raster(lv, "chunk edges");
  EXPECT_EQ(lv.valid_count(), 10u);
}

TEST(ValidRangeOracle, ChunkedScanKeepsTheRasterRule) {
  // valid_range splits a level into kMinElementsPerChunk-cell chunks and
  // combines them in raster order: a leading NaN decides, later NaNs
  // never win, and among equal extremes (±0.0) the first one stays. 64^3
  // cells make eight chunks, run across four workers.
  const ParallelismGuard workers(4);
  const std::size_t chunk = kMinElementsPerChunk;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto check = [](const AmrLevel& lv, const std::string& where) {
    const auto [lo, hi] = lv.valid_range();
    const auto [want_lo, want_hi] = raster_range(lv);
    EXPECT_TRUE(same_bits(lo, want_lo)) << where << " lo " << lo;
    EXPECT_TRUE(same_bits(hi, want_hi)) << where << " hi " << hi;
  };

  unsigned seed = 100;
  for (const double density : {1e-4, 0.05, 0.5, 1.0}) {
    AmrLevel lv = random_scan_level({64, 64, 64}, density, ++seed);
    const std::string at = "density " + std::to_string(density);
    check(lv, at + ", random");
    std::vector<std::size_t> valid;
    for (std::size_t i = 0; i < lv.mask.size(); ++i)
      if (lv.mask[i]) valid.push_back(i);
    ASSERT_FALSE(valid.empty());
    // NaN at each chunk's first valid cell, the level's first one included.
    AmrLevel starts = lv;
    for (std::size_t c = 0; c * chunk < lv.mask.size(); ++c) {
      const auto it =
          std::lower_bound(valid.begin(), valid.end(), c * chunk);
      if (it != valid.end()) starts.data[*it] = nan;
    }
    check(starts, at + ", NaN at chunk starts");
    // The same but the level's first valid cell a number: only later
    // NaNs, which never win.
    starts.data[valid.front()] = 3.0;
    check(starts, at + ", NaN at later chunk starts");
    // NaN at the first valid cell only.
    AmrLevel first = lv;
    first.data[valid.front()] = -nan;
    check(first, at + ", NaN first");
    // NaN everywhere.
    AmrLevel all = lv;
    for (const std::size_t i : valid) all.data[i] = nan;
    check(all, at + ", NaN everywhere");
    // Zeros of both signs in every chunk, and as the extremes: the
    // first zero in raster order must stay, whichever chunk holds it.
    AmrLevel zeros = lv;
    for (std::size_t k = 0; k < valid.size(); ++k)
      zeros.data[valid[k]] = k % 3 == 0 ? 0.0 : k % 3 == 1 ? -0.0 : 1.0;
    check(zeros, at + ", ±0.0 ties");
    for (std::size_t k = 0; k < valid.size(); ++k)
      zeros.data[valid[k]] = k % 2 ? 0.0 : -0.0;
    if (valid.size() > 1) zeros.data[valid[1]] = -1.0;
    check(zeros, at + ", ±0.0 ties at the top");
    // ±Inf as the extremes, in the last chunk.
    AmrLevel infs = lv;
    infs.data[valid.back()] = -inf;
    if (valid.size() > 1) infs.data[valid[valid.size() - 2]] = inf;
    check(infs, at + ", ±Inf");
  }

  // Empty and single-cell levels, and a single valid cell at the start of
  // a later chunk of a large level.
  check(AmrLevel({64, 64, 64}), "empty level");
  check(AmrLevel({0, 0, 0}), "no cells");
  for (const double v : {nan, -0.0, 0.0, inf, -inf, 2.5}) {
    AmrLevel one({1, 1, 1});
    one.mask[0] = 1;
    one.data[0] = v;
    check(one, "single cell " + std::to_string(v));
    AmrLevel late({64, 64, 64});
    late.mask[5 * chunk] = 0x80;
    late.data[5 * chunk] = v;
    check(late, "lone cell at a chunk start " + std::to_string(v));
  }
}

/// The maximal runs of nonzero bytes, found byte by byte.
std::vector<std::pair<std::size_t, std::size_t>> raster_runs(
    std::span<const std::uint8_t> mask) {
  std::vector<std::pair<std::size_t, std::size_t>> runs;
  for (std::size_t i = 0; i < mask.size(); ++i) {
    if (!mask[i]) continue;
    if (!runs.empty() && runs.back().second == i)
      ++runs.back().second;
    else
      runs.emplace_back(i, i + 1);
  }
  return runs;
}

std::vector<std::pair<std::size_t, std::size_t>> walked_runs(
    std::span<const std::uint8_t> mask) {
  std::vector<std::pair<std::size_t, std::size_t>> runs;
  for_each_valid_run(mask, [&](std::size_t lo, std::size_t hi) {
    runs.emplace_back(lo, hi);
  });
  return runs;
}

TEST(MaskScanOracle, RunsAreMaximalOrderedAndExact) {
  // Random masks with every nonzero byte kind, at lengths around the 8-,
  // 32- and 64-byte groups the walk reads.
  std::mt19937 rng(99);
  const std::uint8_t bytes[] = {1, 0x80, 0xFF};
  for (const double density : {0.05, 0.3, 0.7, 0.97})
    for (std::size_t n = 0; n <= 200; ++n) {
      std::bernoulli_distribution valid(density);
      std::vector<std::uint8_t> mask(n, 0);
      for (auto& b : mask)
        if (valid(rng)) b = bytes[rng() % 3];
      EXPECT_EQ(walked_runs(mask), raster_runs(mask))
          << n << " bytes, density " << density;
    }
  // Runs that start and end on every offset near a group boundary,
  // including runs that span whole groups and reach the mask's end.
  const std::size_t edges[] = {0,  1,  7,  8,  9,   31,  32,  33, 63,
                               64, 65, 95, 96, 127, 128, 129, 192, 256};
  for (const std::size_t n : {std::size_t{256}, std::size_t{257}})
    for (const std::size_t lo : edges)
      for (const std::size_t hi : edges) {
        if (hi <= lo || hi > n) continue;
        std::vector<std::uint8_t> mask(n, 0);
        std::fill(mask.begin() + lo, mask.begin() + hi, 0x80);
        mask[n - 1] = 0xFF;  // a second run, or the end of the first
        EXPECT_EQ(walked_runs(mask), raster_runs(mask))
            << "run [" << lo << ", " << hi << ") in " << n << " bytes";
      }
  const std::vector<std::uint8_t> full(300, 1);
  EXPECT_EQ(walked_runs(full),
            (std::vector<std::pair<std::size_t, std::size_t>>{{0, 300}}));
}

TEST(MaskScanOracle, GroupBitmapsAgreeOnEveryHost) {
  // `nonzero_bits` reads a whole 64-byte group with SSE2 where the host
  // has it; `nonzero_bits_portable`, which every shorter group and every
  // host without SSE2 takes, must give the same bitmap.
  std::mt19937 rng(7);
  const std::uint8_t bytes[] = {1, 0x7F, 0x80, 0xFF};
  std::vector<std::uint8_t> buf(64 + 7);
  for (const double density : {0.0, 0.02, 0.5, 0.98, 1.0})
    for (int trial = 0; trial < 200; ++trial) {
      std::bernoulli_distribution valid(density);
      for (auto& b : buf) b = valid(rng) ? bytes[rng() % 4] : 0;
      const std::uint8_t* p = buf.data() + trial % 8;  // any alignment
      for (std::size_t len = 0; len <= 64; ++len) {
        std::uint64_t expect = 0;
        for (std::size_t k = 0; k < len; ++k)
          expect |= std::uint64_t{p[k] != 0} << k;
        ASSERT_EQ(detail::nonzero_bits_portable(p, len), expect)
            << len << " bytes, density " << density;
        ASSERT_EQ(detail::nonzero_bits(p, len), expect)
            << len << " bytes, density " << density;
      }
    }
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

/// A three-level dataset named `name`: 4^3-cell blocks of a 16^3 level
/// refined at random, the 8^3 level valid elsewhere, and a 4^3 level with
/// no valid cell. The values are seeded and include NaN (one with a sign
/// and a payload), ±Inf and −0.0.
AmrDataset pinned_io_dataset(const std::string& name, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(-1e3, 1e3);
  const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::bit_cast<double>(0xFFF8'0000'DEAD'BEEFull),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(), -0.0};
  const auto value = [&] {
    return rng() % 8 == 0 ? specials[rng() % 5] : u(rng);
  };
  AmrLevel fine({16, 16, 16});
  AmrLevel coarse({8, 8, 8});
  for (std::size_t z = 0; z < 8; ++z)
    for (std::size_t y = 0; y < 8; ++y)
      for (std::size_t x = 0; x < 8; ++x) {
        const std::size_t block = x / 2 + 4 * (y / 2) + 16 * (z / 2);
        if ((0x9A3C'51E7'0F26'B48Dull >> block) & 1) {
          for (std::size_t d = 0; d < 8; ++d) {
            const std::size_t fx = 2 * x + d % 2;
            const std::size_t fy = 2 * y + d / 2 % 2;
            const std::size_t fz = 2 * z + d / 4;
            fine.mask(fx, fy, fz) = 1;
            fine.data(fx, fy, fz) = value();
          }
        } else {
          coarse.mask(x, y, z) = 1;
          coarse.data(x, y, z) = value();
        }
      }
  std::vector<AmrLevel> levels;
  levels.push_back(std::move(fine));
  levels.push_back(std::move(coarse));
  levels.emplace_back(Dims3{4, 4, 4});
  return AmrDataset(name, std::move(levels));
}

bool same_level_bits(const AmrLevel& a, const AmrLevel& b) {
  return a.dims() == b.dims() && a.mask == b.mask &&
         std::memcmp(a.data.data(), b.data.data(),
                     a.data.size() * sizeof(double)) == 0;
}

TEST(AmrIo, WriterBytesArePinned) {
  // Field names of 0 to 7 bytes start the value blobs at every offset
  // modulo 8. The size and CRC-32 cover the eight files back to back.
  std::size_t size = 0;
  std::uint32_t crc = 0;
  for (std::size_t k = 0; k < 8; ++k) {
    const AmrDataset ds =
        pinned_io_dataset(std::string("density").substr(0, k),
                          static_cast<unsigned>(k) + 1);
    ASSERT_EQ(ds.validate(), "");
    const auto bytes = dataset_to_bytes(ds);
    size += bytes.size();
    crc = crc32(bytes, crc);
    const AmrDataset back = dataset_from_bytes(bytes);
    EXPECT_EQ(dataset_to_bytes(back), bytes) << "name length " << k;
    ASSERT_EQ(back.field_name(), ds.field_name());
    ASSERT_EQ(back.num_levels(), ds.num_levels());
    EXPECT_EQ(back.refinement_ratio(), ds.refinement_ratio());
    for (std::size_t l = 0; l < ds.num_levels(); ++l)
      EXPECT_TRUE(same_level_bits(back.level(l), ds.level(l)))
          << "name length " << k << ", level " << l;
  }
  EXPECT_EQ(size, 148812u);
  EXPECT_EQ(crc, 0x35b76aceu);
}

TEST(AmrIo, FilesHoldTheBytesOfTheInMemoryForms) {
  // save_dataset streams runs through a 1 MiB buffer, or straight from the
  // level when a run fills it; load_dataset fills levels in parallel once
  // they hold two chunks of values. A 128^3 level valid but for one
  // 2^3 box of cells, whose 2^3 coarse cell is valid, has runs of every
  // kind: short, a few MiB long, and the last one to the level's end.
  const ParallelismGuard workers(4);
  std::mt19937 rng(5);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  AmrLevel fine({128, 128, 128});
  AmrLevel coarse({64, 64, 64});
  for (std::size_t i = 0; i < fine.mask.size(); ++i) {
    fine.mask[i] = 1;
    fine.data[i] = u(rng);
  }
  for (std::size_t z = 0; z < 2; ++z)
    for (std::size_t y = 0; y < 2; ++y)
      for (std::size_t x = 0; x < 2; ++x) {
        fine.mask(60 + x, 70 + y, 80 + z) = 0;
        fine.data(60 + x, 70 + y, 80 + z) = 0.0;
      }
  coarse.mask(30, 35, 40) = 1;
  coarse.data(30, 35, 40) = 2.5;
  std::vector<AmrLevel> levels;
  levels.push_back(std::move(fine));
  levels.push_back(std::move(coarse));
  const AmrDataset big("big", std::move(levels));
  ASSERT_EQ(big.validate(), "");

  const std::string path = ::testing::TempDir() + "/tac_amr_io_big.amr";
  for (const AmrDataset& ds : {big, pinned_io_dataset("density", 9)}) {
    const auto bytes = dataset_to_bytes(ds);
    save_dataset(path, ds);
    EXPECT_EQ(read_file(path), bytes) << ds.field_name();
    const AmrDataset back = load_dataset(path);
    ASSERT_EQ(back.num_levels(), ds.num_levels());
    for (std::size_t l = 0; l < ds.num_levels(); ++l)
      EXPECT_TRUE(same_level_bits(back.level(l), ds.level(l)))
          << ds.field_name() << ", level " << l;
  }
  std::remove(path.c_str());
}

TEST(Array3D, ForOverwriteLeavesCellsToTheWriter) {
  // Below and above the size at which an array maps its own pages.
  for (const std::size_t n : {std::size_t{100}, std::size_t{5} << 20}) {
    auto a = Array3D<std::uint8_t>::for_overwrite({n, 1, 1});
    EXPECT_EQ(a.dims(), (Dims3{n, 1, 1}));
    ASSERT_EQ(a.span().size(), n);
    std::memset(a.data(), 0x5A, n);
    EXPECT_EQ(a[n - 1], 0x5A);
  }
  EXPECT_TRUE(Array3D<double>::for_overwrite({0, 0, 0}).empty());
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

// ------------------------------------------------------- huge-page runs

constexpr std::size_t kPage = 4096;
constexpr std::size_t kRun = std::size_t{2} << 20;
constexpr std::size_t kPagesPerRun = kRun / kPage;
constexpr std::size_t kCellsPerPage = kPage / sizeof(double);  // 512

/// A packed mask over `pages` pages of doubles in which page p holds one
/// valid cell (its last) exactly when touched(p).
template <class Touched>
std::vector<std::uint8_t> packed_pages(std::size_t pages, Touched touched) {
  std::vector<std::uint8_t> packed(pages * kCellsPerPage / 8, 0);
  for (std::size_t p = 0; p < pages; ++p)
    if (touched(p)) packed[(p + 1) * kCellsPerPage / 8 - 1] = 0x80;
  return packed;
}

TEST(HugePageRuns, SevenEighthsOfARunQualifies) {
  // Two runs: the first with 448 of 512 pages touched, the second 447.
  const auto packed = packed_pages(2 * kPagesPerRun, [](std::size_t p) {
    const std::size_t in_run = p % kPagesPerRun;
    return p < kPagesPerRun ? in_run < 448 : in_run >= kPagesPerRun - 447;
  });
  const std::size_t cells = 2 * kPagesPerRun * kCellsPerPage;
  EXPECT_EQ(dense_page_runs(packed, cells, sizeof(double), 0, kPage, kRun),
            std::vector<std::size_t>{0});
  // Spread evenly instead of clustered: one empty page in eight qualifies.
  const auto spread = packed_pages(kPagesPerRun,
                                   [](std::size_t p) { return p % 8 != 0; });
  EXPECT_EQ(dense_page_runs(spread, kPagesPerRun * kCellsPerPage,
                            sizeof(double), 0, kPage, kRun),
            std::vector<std::size_t>{0});
}

TEST(HugePageRuns, PartialHeadAndTailRunsAreNeverHinted) {
  // Fully dense, but the array starts three pages past a run boundary and
  // spans three runs' worth of bytes: only the two whole runs inside it
  // qualify.
  const std::size_t pages = 3 * kPagesPerRun;
  const auto packed = packed_pages(pages, [](std::size_t) { return true; });
  const std::uintptr_t base = 7 * kRun + 3 * kPage;
  const std::size_t head = kRun - 3 * kPage;
  EXPECT_EQ(dense_page_runs(packed, pages * kCellsPerPage, sizeof(double),
                            base, kPage, kRun),
            (std::vector<std::size_t>{head, head + kRun}));
  // A mask array (one byte per cell) over the same cells: 4096 cells per
  // page, so the 3 * 512 * 512 cells fill 192 whole pages, under one run.
  EXPECT_TRUE(dense_page_runs(packed, pages * kCellsPerPage, 1, base, kPage,
                              kRun)
                  .empty());
  // A base that is not page-aligned gets no hints at all.
  EXPECT_TRUE(dense_page_runs(packed, pages * kCellsPerPage, sizeof(double),
                              base + 8, kPage, kRun)
                  .empty());
}

TEST(HugePageRuns, EmptyMasksAndSmallArraysGetNoHints) {
  const std::size_t pages = 2 * kPagesPerRun;
  const auto empty = packed_pages(pages, [](std::size_t) { return false; });
  EXPECT_TRUE(dense_page_runs(empty, pages * kCellsPerPage, sizeof(double),
                              0, kPage, kRun)
                  .empty());
  // Dense but one page short of a run.
  const std::size_t small = kPagesPerRun - 1;
  const auto full = packed_pages(small, [](std::size_t) { return true; });
  EXPECT_TRUE(dense_page_runs(full, small * kCellsPerPage, sizeof(double), 0,
                              kPage, kRun)
                  .empty());
}

TEST(HugePageRuns, MaskPagesCountNonzeroWords) {
  // cell_bytes 1: a page is 4096 cells, 64 packed words. One set bit in
  // one word of each of 448 pages qualifies a run of the mask array.
  const std::size_t cells = kRun;  // one run of mask bytes
  std::vector<std::uint8_t> packed(cells / 8, 0);
  for (std::size_t p = 0; p < 448; ++p) packed[p * kPage / 8 + 100] = 1;
  EXPECT_EQ(dense_page_runs(packed, cells, 1, 0, kPage, kRun),
            std::vector<std::size_t>{0});
  packed[447 * kPage / 8 + 100] = 0;
  EXPECT_TRUE(dense_page_runs(packed, cells, 1, 0, kPage, kRun).empty());
}

TEST(HugePageRuns, BuilderUnpacksTheSameMask) {
  // 128^3 cells: a mapped data array (16 MiB), dense enough in its first
  // half to be hinted, sparse in the rest.
  const Dims3 d{128, 128, 128};
  std::vector<std::uint8_t> mask(d.volume(), 0);
  std::mt19937 rng(11);
  for (std::size_t i = 0; i < mask.size(); ++i)
    mask[i] = i < mask.size() / 2 ? (rng() % 4 != 0) : (rng() % 5000 == 0);
  const auto packed = pack_mask(mask);
  const auto blob = lossless::compress(packed);
  const AmrLevel lv = level_from_record({d, blob}, 0, "test");
  ASSERT_EQ(lv.dims(), d);
  EXPECT_TRUE(std::equal(mask.begin(), mask.end(), lv.mask.span().begin()));
  EXPECT_EQ(lv.mask.span().size(), mask.size());
  for (std::size_t i = 0; i < lv.data.size(); ++i)
    ASSERT_EQ(lv.data[i], 0.0) << i;
  const auto short_blob = lossless::compress(
      std::span<const std::uint8_t>(packed).first(packed.size() - 1));
  EXPECT_THROW((void)level_from_record({d, short_blob}, 0, "test"),
               std::runtime_error);
}

}  // namespace
}  // namespace tac::amr
