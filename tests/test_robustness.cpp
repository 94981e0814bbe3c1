#include <gtest/gtest.h>

#include <random>

#include "alloc_counter.hpp"
#include "amr/amr_io.hpp"
#include "core/backend.hpp"
#include "core/container.hpp"
#include "lossless/codec.hpp"
#include "simnyx/generator.hpp"
#include "sz/sz.hpp"

/// Failure-injection tests: corrupted or truncated inputs must raise
/// exceptions — never crash, hang, or silently return wrong data.

namespace tac {
namespace {

amr::AmrDataset small_dataset() {
  simnyx::GeneratorConfig gc;
  gc.finest_dims = {32, 32, 32};
  gc.level_densities = {0.3, 0.7};
  gc.region_size = 8;
  return simnyx::generate_baryon_density(gc);
}

std::vector<std::uint8_t> compress_with(core::Method method,
                                        const amr::AmrDataset& ds) {
  core::TacConfig cfg;
  cfg.sz = sz::SzConfig{.error_bound = 1e6};
  return core::backend_for(method).compress(ds, cfg).bytes;
}

class TruncationTest : public ::testing::TestWithParam<core::Method> {};

TEST_P(TruncationTest, TruncatedContainersThrowNotCrash) {
  const auto ds = small_dataset();
  const auto bytes = compress_with(GetParam(), ds);
  ASSERT_FALSE(bytes.empty());
  // Sample truncation points across the container, including boundaries.
  const std::size_t n = bytes.size();
  for (const std::size_t cut :
       {std::size_t{0}, std::size_t{1}, std::size_t{4}, n / 4, n / 2,
        3 * n / 4, n - 1}) {
    std::vector<std::uint8_t> cutbytes(bytes.begin(),
                                       bytes.begin() + static_cast<long>(cut));
    EXPECT_THROW((void)core::decompress_any(cutbytes), std::exception)
        << "cut at " << cut << " of " << n;
  }
}

TEST_P(TruncationTest, BitFlipsThrowOrStayStructurallySane) {
  const auto ds = small_dataset();
  const auto bytes = compress_with(GetParam(), ds);
  core::CommonHeader header = [&] {
    ByteReader r(bytes);
    return core::read_common_header(r);
  }();
  const auto in_payload = [&](std::size_t pos) {
    for (const auto& e : header.index.entries)
      if (pos >= e.offset && pos < e.offset + e.length) return true;
    return false;
  };
  std::mt19937 rng(7);
  for (int trial = 0; trial < 24; ++trial) {
    auto corrupted = bytes;
    const std::size_t pos = rng() % corrupted.size();
    corrupted[pos] ^= static_cast<std::uint8_t>(1u << (rng() % 8));
    if (in_payload(pos)) {
      // v2 payloads are checksummed: corruption there is always reported
      // as a ChecksumError, never a misparse or silently wrong data.
      EXPECT_THROW((void)core::decompress_any(corrupted),
                   core::ChecksumError)
          << "flip at " << pos;
      continue;
    }
    // Header/index corruption: decompression must either throw or
    // produce a structurally valid dataset — never crash or hang.
    try {
      const auto out = core::decompress_any(corrupted);
      EXPECT_EQ(out.num_levels(), ds.num_levels());
      for (std::size_t l = 0; l < out.num_levels(); ++l)
        EXPECT_EQ(out.level(l).dims().volume(),
                  ds.level(l).dims().volume());
    } catch (const std::exception&) {
      // Expected for most corruption sites.
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllMethods, TruncationTest,
                         ::testing::Values(core::Method::kTac,
                                           core::Method::kOneD,
                                           core::Method::kZMesh,
                                           core::Method::kUpsample3D),
                         [](const auto& info) {
                           return std::string(core::to_string(info.param));
                         });

TEST(Robustness, SzStreamTruncationSweep) {
  const Dims3 d{16, 16, 16};
  std::vector<double> v(d.volume());
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = std::sin(0.1 * static_cast<double>(i));
  const auto bytes =
      sz::compress<double>(v, d, sz::SzConfig{.error_bound = 1e-3});
  for (std::size_t cut = 0; cut < bytes.size(); cut += 7) {
    std::vector<std::uint8_t> cutbytes(bytes.begin(),
                                       bytes.begin() + static_cast<long>(cut));
    EXPECT_THROW((void)sz::decompress<double>(cutbytes), std::exception);
  }
}

TEST(Robustness, EmptyInputThrows) {
  EXPECT_THROW((void)core::decompress_any({}), std::exception);
  EXPECT_THROW((void)sz::decompress<double>({}), std::exception);
}

TEST(Robustness, GarbageInputThrows) {
  std::mt19937 rng(11);
  std::vector<std::uint8_t> garbage(4096);
  for (auto& b : garbage) b = static_cast<std::uint8_t>(rng());
  EXPECT_THROW((void)core::decompress_any(garbage), std::exception);
}

TEST(Robustness, SingleCellLevels) {
  // Degenerate geometry: a 2-level dataset whose coarse level is 1^3.
  amr::AmrLevel fine({2, 2, 2});
  amr::AmrLevel coarse({1, 1, 1});
  for (std::size_t i = 0; i < 8; ++i) {
    fine.mask[i] = 1;
    fine.data[i] = static_cast<double>(i) + 1.0;
  }
  const amr::AmrDataset ds("tiny", {std::move(fine), std::move(coarse)});
  core::TacConfig cfg;
  cfg.sz.error_bound = 0.1;
  const auto compressed = core::tac_compress(ds, cfg);
  const auto back = core::decompress_any(compressed.bytes);
  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_NEAR(back.level(0).data[i], ds.level(0).data[i], 0.1);
}

TEST(Robustness, HugeBlockSizeClampsGracefully) {
  const auto ds = small_dataset();
  core::TacConfig cfg;
  cfg.sz.error_bound = 1e6;
  cfg.block_size = 1024;  // bigger than the level: one block per level
  const auto compressed = core::tac_compress(ds, cfg);
  const auto back = core::decompress_any(compressed.bytes);
  EXPECT_EQ(back.num_levels(), ds.num_levels());
}

TEST(Robustness, ZeroBlockSizeRejected) {
  const auto ds = small_dataset();
  core::TacConfig cfg;
  cfg.block_size = 0;
  EXPECT_THROW((void)core::tac_compress(ds, cfg), std::invalid_argument);
}

// ---------------------------------------------------------- hostile headers
// A decoder must not allocate in proportion to a size it has not checked
// against the bytes it holds: each case below throws before any level
// array exists.

using test::bytes_allocated_by;

/// A TAC container of a few dozen bytes: a header declaring `nlevels`
/// levels of which only the first is written, with the given dims, a
/// one-byte mask and an empty payload index.
std::vector<std::uint8_t> hand_built_container(std::uint64_t nlevels,
                                               std::uint64_t nx,
                                               std::uint64_t ny,
                                               std::uint64_t nz) {
  ByteWriter w;
  w.put<std::uint32_t>(0x43434154);  // "TACC"
  w.put<std::uint8_t>(core::kFormatVersion);
  w.put<std::uint8_t>(static_cast<std::uint8_t>(core::Method::kTac));
  w.put_string("hostile");
  w.put_varint(2);  // refinement ratio
  w.put_varint(nlevels);
  w.put_varint(nx);
  w.put_varint(ny);
  w.put_varint(nz);
  const std::uint8_t packed_mask[] = {0xFF};
  w.put_blob(lossless::compress(packed_mask));
  w.put_varint(0);  // payload index entries
  return w.take();
}

TEST(HostileHeader, OversizedDimsThrowBeforeAllocating) {
  // 2048^3 cells: 64 GiB of doubles behind a one-byte mask.
  const auto bytes = hand_built_container(1, 2048, 2048, 2048);
  EXPECT_LT(bytes.size(), 64u);
  // The header itself is structure only, so it parses.
  ByteReader r(bytes);
  const core::CommonHeader h = core::read_common_header(r);
  ASSERT_EQ(h.num_levels(), 1u);
  EXPECT_EQ(h.levels[0].dims.volume(), std::size_t{1} << 33);
  const std::size_t allocated = bytes_allocated_by([&] {
    EXPECT_THROW((void)core::materialize_level(h, 0), std::runtime_error);
    EXPECT_THROW((void)core::decompress_any(bytes), std::runtime_error);
    EXPECT_THROW((void)core::decompress_level(bytes, 0), std::runtime_error);
  });
  EXPECT_LT(allocated, std::size_t{1} << 20);
}

TEST(HostileHeader, LevelCountBeyondTheBytesThrows) {
  const auto bytes = hand_built_container(std::uint64_t{1} << 40, 4, 4, 4);
  ByteReader r(bytes);
  EXPECT_THROW((void)core::read_common_header(r), std::runtime_error);
  EXPECT_THROW((void)core::decompress_any(bytes), std::runtime_error);
}

TEST(HostileHeader, OverflowingDimsThrow) {
  // nx*ny wraps to 0 in 64 bits; the second volume fits but not 9 bytes
  // per cell.
  for (const auto& bytes :
       {hand_built_container(1, std::uint64_t{1} << 32,
                             std::uint64_t{1} << 32, 1),
        hand_built_container(1, std::uint64_t{1} << 21,
                             std::uint64_t{1} << 21,
                             std::uint64_t{1} << 21)}) {
    ByteReader r(bytes);
    EXPECT_THROW((void)core::read_common_header(r), std::runtime_error);
    EXPECT_THROW((void)core::decompress_any(bytes), std::runtime_error);
  }
}

TEST(HostileHeader, DimsVarintBitFlipThrowsBeforeAllocating) {
  const auto ds = small_dataset();
  const auto bytes = compress_with(core::Method::kTac, ds);
  // Level 0's dims follow the fixed prefix (magic, version, method), the
  // field name, the ratio and the level count.
  ByteWriter prefix;
  prefix.put_string(ds.field_name());
  prefix.put_varint(static_cast<std::uint64_t>(ds.refinement_ratio()));
  prefix.put_varint(ds.num_levels());
  const std::size_t dims_at = 6 + prefix.size();
  for (std::size_t axis = 0; axis < 3; ++axis) {
    auto corrupted = bytes;
    ASSERT_EQ(corrupted[dims_at + axis], 32u) << "axis " << axis;
    corrupted[dims_at + axis] ^= 0x40;  // 32 -> 96 cells on this axis
    const std::size_t allocated = bytes_allocated_by([&] {
      EXPECT_THROW((void)core::decompress_any(corrupted), std::runtime_error)
          << "axis " << axis;
      EXPECT_THROW((void)core::decompress_level(corrupted, 0),
                   std::runtime_error)
          << "axis " << axis;
    });
    // One byte per declared cell: less than any level array would take.
    EXPECT_LT(allocated, std::size_t{96} * 32 * 32) << "axis " << axis;
  }
}

// -------------------------------------------------------- hostile .amr files
// The uncompressed snapshot format shares the container's level-dims check
// and bounds its level count by the bytes it holds.

/// An .amr file declaring `nlevels` levels of which only the first is
/// written: the given dims, a one-byte all-empty mask and no values.
std::vector<std::uint8_t> hand_built_amr(std::uint64_t nlevels,
                                         std::uint64_t nx, std::uint64_t ny,
                                         std::uint64_t nz) {
  ByteWriter w;
  w.put<std::uint32_t>(0x524D4154);  // "TAMR"
  w.put<std::uint8_t>(1);
  w.put_string("hostile");
  w.put_varint(2);  // refinement ratio
  w.put_varint(nlevels);
  w.put_varint(nx);
  w.put_varint(ny);
  w.put_varint(nz);
  const std::uint8_t packed_mask[] = {0x00};
  w.put_blob(lossless::compress(packed_mask));
  w.put_blob({});  // no valid cells, no values
  return w.take();
}

TEST(HostileAmrFile, HandBuiltFileParses) {
  // The hostile cases below differ from this one only in the field named.
  const auto ds = amr::dataset_from_bytes(hand_built_amr(1, 2, 2, 2));
  ASSERT_EQ(ds.num_levels(), 1u);
  EXPECT_EQ(ds.level(0).dims(), (Dims3{2, 2, 2}));
  EXPECT_EQ(ds.level(0).valid_count(), 0u);
}

TEST(HostileAmrFile, LevelCountBeyondTheBytesThrows) {
  const auto bytes = hand_built_amr(std::uint64_t{1} << 40, 2, 2, 2);
  EXPECT_LT(bytes.size(), 32u);
  const std::size_t allocated = bytes_allocated_by([&] {
    EXPECT_THROW((void)amr::dataset_from_bytes(bytes), std::runtime_error);
  });
  EXPECT_LT(allocated, std::size_t{1} << 20);
}

TEST(HostileAmrFile, WrappingDimsThrow) {
  // (2^22)^3 and 2^32 * 2^32 cells both wrap to a volume of 0 in 64 bits,
  // which a one-byte mask would satisfy.
  for (const auto& bytes :
       {hand_built_amr(1, std::uint64_t{1} << 22, std::uint64_t{1} << 22,
                       std::uint64_t{1} << 22),
        hand_built_amr(1, std::uint64_t{1} << 32, std::uint64_t{1} << 32,
                       1)}) {
    const std::size_t allocated = bytes_allocated_by([&] {
      EXPECT_THROW((void)amr::dataset_from_bytes(bytes), std::runtime_error);
    });
    EXPECT_LT(allocated, std::size_t{1} << 20);
  }
}

// ------------------------------------------------------ hostile lzss streams
// A lossless stream leads with its decoded size. Both LZSS decoders bound it
// by what the payload can encode before allocating the output.

/// A lossless stream of `method` (1 = lzss, 2 = lzss2) declaring
/// `declared` output bytes over `payload`.
std::vector<std::uint8_t> hand_built_lzss(
    std::uint8_t method, std::uint64_t declared,
    std::span<const std::uint8_t> payload) {
  ByteWriter w;
  w.put<std::uint8_t>(method);
  w.put_varint(declared);
  for (const std::uint8_t b : payload) w.put<std::uint8_t>(b);
  return w.take();
}

TEST(HostileLzss, HugeDeclaredSizeThrowsBeforeAllocating) {
  const std::uint8_t one_byte[] = {0};
  for (const std::uint8_t method : {1, 2}) {
    const auto bytes =
        hand_built_lzss(method, std::uint64_t{1} << 40, one_byte);
    EXPECT_EQ(bytes.size(), 8u);
    const std::size_t allocated = bytes_allocated_by([&] {
      EXPECT_THROW((void)lossless::decompress(bytes), std::runtime_error)
          << "method " << int{method};
      EXPECT_THROW((void)lossless::decompress(
                       bytes, method == 1 ? lossless::CodecProfile::kLegacy
                                          : lossless::CodecProfile::kFast),
                   std::runtime_error)
          << "method " << int{method};
    });
    EXPECT_LT(allocated, std::size_t{1} << 20) << "method " << int{method};
  }
}

TEST(HostileLzss, SizeJustPastThePayloadsCapacityThrows) {
  // 25 bytes = 200 bits: at most 8 matches of 259 bytes in lzss, and at
  // most 255 bytes per payload byte in lzss2.
  const std::vector<std::uint8_t> payload(25, 0xFF);
  for (const auto& [method, declared] :
       {std::pair<std::uint8_t, std::uint64_t>{1, 8 * 259 + 1},
        std::pair<std::uint8_t, std::uint64_t>{2, 25 * 255 + 1}}) {
    const std::size_t allocated = bytes_allocated_by([&] {
      EXPECT_THROW((void)lossless::decompress(
                       hand_built_lzss(method, declared, payload)),
                   std::runtime_error)
          << "method " << int{method};
    });
    EXPECT_LT(allocated, declared) << "method " << int{method};
  }
}

}  // namespace
}  // namespace tac
