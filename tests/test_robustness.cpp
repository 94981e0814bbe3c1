#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <random>
#include <string>

#include "alloc_counter.hpp"
#include "amr/amr_io.hpp"
#include "amr/uniform.hpp"
#include "core/backend.hpp"
#include "core/baselines.hpp"
#include "core/container.hpp"
#include "lossless/codec.hpp"
#include "lossless/huffman.hpp"
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

/// `bytes` with the refinement ratio varint at `at` (one byte, holding 2)
/// replaced by `ratio`'s bytes.
std::vector<std::uint8_t> with_ratio(std::vector<std::uint8_t> bytes,
                                     std::size_t at,
                                     const std::vector<std::uint8_t>& ratio) {
  EXPECT_EQ(bytes[at], 2u);
  bytes.erase(bytes.begin() + static_cast<long>(at));
  bytes.insert(bytes.begin() + static_cast<long>(at), ratio.begin(),
               ratio.end());
  return bytes;
}

/// Ratios the 32^3 two-level test datasets contradict: below 2, two that
/// do not divide 32 into the coarse level's 16, and 2^32 + 2 as a
/// multi-byte varint, which a narrowing cast would read as 2.
const std::vector<std::vector<std::uint8_t>> kHostileRatios = {
    {1}, {3}, {4}, {0x82, 0x80, 0x80, 0x80, 0x10}};

TEST_P(TruncationTest, RatioContradictingTheExtentsThrows) {
  // The header is not checksummed, and the zMesh and 3D decoders index the
  // finest grid by the ratio: a ratio the extents contradict must be
  // refused at the header, before any level exists.
  const auto ds = small_dataset();
  const auto bytes = compress_with(GetParam(), ds);
  ByteWriter name;
  name.put_string(ds.field_name());
  const std::size_t ratio_at = 6 + name.size();  // magic, version, method
  for (const auto& ratio : kHostileRatios) {
    const auto hostile = with_ratio(bytes, ratio_at, ratio);
    EXPECT_THROW((void)core::decompress_any(hostile), amr::StructureError)
        << "ratio byte " << int{ratio[0]};
    EXPECT_THROW((void)core::decompress_level(hostile, 0),
                 amr::StructureError)
        << "ratio byte " << int{ratio[0]};
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
    EXPECT_THROW((void)sz::decompress<double>(cutbytes, v.size()), std::exception);
  }
}

TEST(Robustness, EmptyInputThrows) {
  EXPECT_THROW((void)core::decompress_any({}), std::exception);
  EXPECT_THROW((void)sz::decompress<double>({}, 1), std::exception);
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
/// written: the given dims, a one-byte mask `packed_mask` (all empty by
/// default) and a value blob of `value_bytes` bytes.
std::vector<std::uint8_t> hand_built_amr(std::uint64_t nlevels,
                                         std::uint64_t nx, std::uint64_t ny,
                                         std::uint64_t nz,
                                         std::uint8_t packed_mask = 0x00,
                                         std::size_t value_bytes = 0) {
  ByteWriter w;
  w.put<std::uint32_t>(0x524D4154);  // "TAMR"
  w.put<std::uint8_t>(1);
  w.put_string("hostile");
  w.put_varint(2);  // refinement ratio
  w.put_varint(nlevels);
  w.put_varint(nx);
  w.put_varint(ny);
  w.put_varint(nz);
  const std::uint8_t mask[] = {packed_mask};
  w.put_blob(lossless::compress(mask));
  w.put_blob(std::vector<std::uint8_t>(value_bytes, 0x3F));
  return w.take();
}

TEST(HostileAmrFile, HandBuiltFileParses) {
  // The hostile cases below differ from this one only in the field named.
  const auto ds = amr::dataset_from_bytes(hand_built_amr(1, 2, 2, 2));
  ASSERT_EQ(ds.num_levels(), 1u);
  EXPECT_EQ(ds.level(0).dims(), (Dims3{2, 2, 2}));
  EXPECT_EQ(ds.level(0).valid_count(), 0u);
}

TEST(HostileAmrFile, HandBuiltValuesParse) {
  // Eight valid cells and eight values: the value cases below differ from
  // this one only in the value blob's length.
  const auto ds = amr::dataset_from_bytes(
      hand_built_amr(1, 2, 2, 2, 0xFF, 8 * sizeof(double)));
  ASSERT_EQ(ds.level(0).valid_count(), 8u);
  EXPECT_EQ(ds.level(0).data[7], ds.level(0).data[0]);
}

/// Parsing `bytes` throws std::runtime_error (a corrupt file, not a
/// caller's bad argument) and allocates under 1 MiB doing it.
void expect_corrupt_amr(const std::vector<std::uint8_t>& bytes,
                        const char* what) {
  const std::size_t allocated = bytes_allocated_by([&] {
    EXPECT_THROW((void)amr::dataset_from_bytes(bytes), std::runtime_error)
        << what;
  });
  EXPECT_LT(allocated, std::size_t{1} << 20) << what;
}

TEST(HostileAmrFile, TooFewValuesThrow) {
  expect_corrupt_amr(hand_built_amr(1, 2, 2, 2, 0xFF, 7 * sizeof(double)),
                     "7 values for 8 valid cells");
  expect_corrupt_amr(hand_built_amr(1, 2, 2, 2, 0x01, 0), "no values");
}

TEST(HostileAmrFile, TooManyValuesThrow) {
  expect_corrupt_amr(hand_built_amr(1, 2, 2, 2, 0xFF, 9 * sizeof(double)),
                     "9 values for 8 valid cells");
  expect_corrupt_amr(hand_built_amr(1, 2, 2, 2, 0x00, sizeof(double)),
                     "1 value for an empty level");
}

TEST(HostileAmrFile, ValueBlobOfPartialDoublesThrows) {
  for (const std::size_t bytes : {std::size_t{63}, std::size_t{65},
                                  std::size_t{1}})
    expect_corrupt_amr(hand_built_amr(1, 2, 2, 2, 0xFF, bytes),
                       "a value blob that is no whole number of doubles");
}

TEST(HostileAmrFile, OversizedDimsThrowBeforeAllocating) {
  // 2048^3 cells behind a one-byte mask: the level record builder the
  // container shares (see HostileHeader) rejects the mask before the
  // level exists.
  const auto bytes = hand_built_amr(1, 2048, 2048, 2048);
  EXPECT_LT(bytes.size(), 64u);
  const std::size_t allocated = bytes_allocated_by([&] {
    EXPECT_THROW((void)amr::dataset_from_bytes(bytes), std::runtime_error);
  });
  EXPECT_LT(allocated, std::size_t{1} << 20);
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

TEST(HostileAmrFile, RatioContradictingTheExtentsThrows) {
  // .amr files carry no checksum; compose_uniform (the 3D path) writes
  // the finest grid at x * ratio^l, so the reader checks the ratio
  // against each level's extents before building the level.
  const auto ds = small_dataset();
  const auto bytes = amr::dataset_to_bytes(ds);
  ByteWriter name;
  name.put_string(ds.field_name());
  const std::size_t ratio_at = 5 + name.size();  // magic, version
  ASSERT_EQ(amr::dataset_from_bytes(bytes).refinement_ratio(), 2);
  for (const auto& ratio : kHostileRatios)
    EXPECT_THROW((void)amr::dataset_from_bytes(
                     with_ratio(bytes, ratio_at, ratio)),
                 amr::StructureError)
        << "ratio byte " << int{ratio[0]};
}

TEST(HostileRatio, InMemoryDatasetThrowsBeforeIndexing) {
  // The same contradiction built in memory never went through a reader:
  // the zMesh and 3D paths check it before they index a cell.
  for (const int ratio : {1, 3, 4}) {
    const auto good = small_dataset();
    amr::AmrDataset ds(good.field_name(), good.levels(), ratio);
    EXPECT_THROW((void)amr::compose_uniform(ds), amr::StructureError);
    EXPECT_THROW((void)core::zmesh_gather(ds), amr::StructureError);
    Array3D<double> uniform(ds.finest_dims());
    EXPECT_THROW(amr::distribute_uniform(uniform, ds), amr::StructureError);
    for (const auto m : {core::Method::kZMesh, core::Method::kUpsample3D})
      EXPECT_THROW((void)compress_with(m, ds), amr::StructureError)
          << core::to_string(m) << ", ratio " << ratio;
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

// ---------------------------------------------------- hostile huffman tables
// A Huffman table leads with its entry count; every entry takes at least a
// symbol-delta varint and a length byte, so the count is bounded by half
// the table bytes before anything is reserved for it.

TEST(HostileHuffman, HugeTableCountThrowsBeforeAllocating) {
  ByteWriter table;
  table.put_varint(std::uint64_t{1} << 40);
  const auto table_bytes = table.take();
  ASSERT_EQ(table_bytes.size(), 6u);
  ByteWriter stream;  // huffman_compress layout: count, table, payload
  stream.put_varint(1);
  stream.put_blob(table_bytes);
  stream.put_blob(std::vector<std::uint8_t>{});
  const auto stream_bytes = stream.take();

  const std::size_t allocated = bytes_allocated_by([&] {
    EXPECT_THROW((void)lossless::huffman_table_deserialize(table_bytes),
                 std::runtime_error);
    EXPECT_THROW((void)lossless::huffman_decompress(stream_bytes),
                 std::runtime_error);
  });
  EXPECT_LT(allocated, std::size_t{1} << 20);
}

// ---------------------------------------------------------- hostile sz counts
// An sz stream declares its element count as block dims × nblocks. Every
// decoder passes the count it expects from its own structure, and a
// stream declaring another count throws before anything is allocated for
// it — the constant kind would otherwise fill a vector of that size.

/// A constant-kind sz stream of doubles declaring nx × ny × nz × nblocks
/// elements, about 50 bytes whatever the count.
std::vector<std::uint8_t> hand_built_sz_constant(std::uint64_t nx,
                                                 std::uint64_t ny,
                                                 std::uint64_t nz,
                                                 std::uint64_t nblocks) {
  ByteWriter w;
  w.put<std::uint16_t>(0x5A53);  // "SZ"
  w.put<std::uint8_t>(1);        // stream version
  w.put<std::uint8_t>(sizeof(double));
  w.put_varint(nx);
  w.put_varint(ny);
  w.put_varint(nz);
  w.put_varint(nblocks);
  w.put<std::uint8_t>(0);  // absolute bound
  w.put<double>(1.0);      // error bound
  w.put<double>(1.0);      // effective absolute bound
  w.put<double>(0.0);      // value range
  w.put_varint(32768);     // quantization radius
  w.put<std::uint8_t>(0);  // Lorenzo
  w.put_varint(8);         // predictor block
  w.put<std::uint8_t>(0);  // constant stream
  w.put<double>(1.0);      // the constant
  return w.take();
}

constexpr std::uint64_t kHugeCount = std::uint64_t{1} << 38;  // 2 TiB

TEST(HostileSz, HugeDeclaredCountThrowsBeforeAllocating) {
  const auto stream = hand_built_sz_constant(kHugeCount, 1, 1, 1);
  EXPECT_LT(stream.size(), 64u);
  const std::size_t allocated = bytes_allocated_by([&] {
    try {
      (void)sz::decompress<double>(stream, 1000);
      ADD_FAILURE() << "a stream declaring 2^38 doubles decoded";
    } catch (const sz::CountError& e) {
      EXPECT_NE(std::string(e.what()).find("274877906944"),
                std::string::npos)
          << e.what();
    }
  });
  EXPECT_LT(allocated, std::size_t{1} << 20);
}

TEST(HostileSz, OverflowingOrZeroCountThrows) {
  const std::uint64_t big = std::uint64_t{1} << 32;
  for (const auto& dims : {std::array<std::uint64_t, 4>{big, big, 1, 1},
                           std::array<std::uint64_t, 4>{big, 1, 1, big},
                           std::array<std::uint64_t, 4>{0, 1, 1, big},
                           std::array<std::uint64_t, 4>{4, 4, 4, 0}}) {
    const auto stream =
        hand_built_sz_constant(dims[0], dims[1], dims[2], dims[3]);
    const std::size_t allocated = bytes_allocated_by([&] {
      EXPECT_THROW((void)sz::decompress<double>(stream, 64), sz::CountError);
    });
    EXPECT_LT(allocated, std::size_t{1} << 20);
  }
}

TEST(HostileSz, PwRelInnerStreamMustHoldTheOuterCount) {
  // A point-wise-relative stream whose outer header declares 64 elements
  // but whose log-domain inner stream declares 2^38.
  const auto inner = hand_built_sz_constant(kHugeCount, 1, 1, 1);
  ByteWriter w;
  w.put<std::uint16_t>(0x5A53);
  w.put<std::uint8_t>(1);
  w.put<std::uint8_t>(sizeof(double));
  for (const std::uint64_t v : {4, 4, 4, 1}) w.put_varint(v);
  w.put<std::uint8_t>(
      static_cast<std::uint8_t>(sz::ErrorBoundMode::kPointwiseRelative));
  w.put<double>(1e-3);
  w.put<double>(1e-3);
  w.put<double>(0.0);
  w.put_varint(32768);
  w.put<std::uint8_t>(0);
  w.put_varint(8);
  w.put<std::uint8_t>(2);  // point-wise-relative stream
  w.put_blob(inner);
  const auto stream = w.take();
  const std::size_t allocated = bytes_allocated_by([&] {
    EXPECT_THROW((void)sz::decompress<double>(stream, 64), sz::CountError);
  });
  EXPECT_LT(allocated, std::size_t{1} << 20);
}

TEST(HostileSz, HybridTileSideAndPredictorByteAreChecked) {
  // The header's predictor byte and hybrid tile side (pred_block) sit
  // next to each other; the first byte where streams of tile side 6 and
  // 7 differ is the tile side.
  const Dims3 d{8, 8, 8};
  std::vector<double> v(d.volume());
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = std::sin(0.1 * static_cast<double>(i));
  sz::SzConfig cfg{.error_bound = 1e-3,
                   .predictor = sz::Predictor::kHybrid,
                   .pred_block = 6};
  const auto stream = sz::compress<double>(v, d, cfg);
  cfg.pred_block = 7;
  const auto other = sz::compress<double>(v, d, cfg);
  const std::size_t pb_at = static_cast<std::size_t>(
      std::mismatch(stream.begin(), stream.end(), other.begin()).first -
      stream.begin());
  ASSERT_EQ(stream[pb_at], 6);
  ASSERT_EQ(stream[pb_at - 1],
            static_cast<std::uint8_t>(sz::Predictor::kHybrid));
  ASSERT_NO_THROW((void)sz::decompress<double>(stream, v.size()));

  const auto expect_rejected = [&](std::size_t at, std::uint8_t byte,
                                   const char* message) {
    auto bad = stream;
    bad[at] = byte;
    const std::size_t allocated = bytes_allocated_by([&] {
      try {
        (void)sz::decompress<double>(bad, v.size());
        ADD_FAILURE() << "byte " << at << " = " << int{byte} << " decoded";
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
            << e.what();
      }
    });
    EXPECT_LT(allocated, std::size_t{1} << 20);
  };
  expect_rejected(pb_at, 0, "pred_block");  // divides by the tile side
  expect_rejected(pb_at, 1, "pred_block");
  expect_rejected(pb_at - 1, 2, "predictor");
  expect_rejected(pb_at - 1, 255, "predictor");
}

/// One level of 16^3 cells with a 4^3 valid corner, as the container
/// header would hand it to a payload decoder.
amr::AmrLevel hostile_target_level() {
  amr::AmrLevel lv(Dims3{16, 16, 16});
  for (std::size_t z = 0; z < 4; ++z)
    for (std::size_t y = 0; y < 4; ++y)
      for (std::size_t x = 0; x < 4; ++x) lv.mask(x, y, z) = 1;
  return lv;
}

TEST(HostileSz, EveryLevelDecoderPassesItsExpectedCount) {
  const auto stream = hand_built_sz_constant(kHugeCount, 1, 1, 1);
  const auto tac_payload = [&](core::Strategy s, bool groups) {
    ByteWriter w;
    w.put<std::uint8_t>(static_cast<std::uint8_t>(s));
    w.put_varint(8);  // block size
    if (groups) {
      w.put_varint(1);                           // one group
      for (int i = 0; i < 3; ++i) w.put_varint(1);  // 1x1x1 blocks
      w.put_varint(1);                           // one member
      for (int i = 0; i < 3; ++i) w.put_varint(0);  // at block (0,0,0)
    }
    w.put_blob(stream);
    return w.take();
  };
  ByteWriter oned;
  oned.put_blob(stream);
  const std::pair<core::Method, std::vector<std::uint8_t>> cases[] = {
      {core::Method::kOneD, oned.take()},
      {core::Method::kTac, tac_payload(core::Strategy::kGSP, false)},
      {core::Method::kTac, tac_payload(core::Strategy::kZF, false)},
      {core::Method::kTac, tac_payload(core::Strategy::kNaST, true)},
      {core::Method::kTac, tac_payload(core::Strategy::kOpST, true)},
  };
  for (const auto& [method, payload] : cases) {
    amr::AmrLevel lv = hostile_target_level();
    const std::size_t allocated = bytes_allocated_by([&] {
      ByteReader r(payload);
      EXPECT_THROW(core::backend_for(method).decompress_level_payload(
                       r, lv, lossless::CodecProfile::kFast),
                   sz::CountError)
          << core::to_string(method) << " payload of " << payload.size()
          << " bytes";
    });
    EXPECT_LT(allocated, std::size_t{1} << 20) << core::to_string(method);
  }
}

TEST(HostileSz, GroupsClaimingMoreBlocksThanTheLevelThrow) {
  // A 16^3 level at block size 8 has 8 unit blocks; a group of 2x2x2-block
  // sub-blocks with two members claims 16.
  const auto stream = hand_built_sz_constant(16, 16, 16, 2);
  ByteWriter w;
  w.put<std::uint8_t>(static_cast<std::uint8_t>(core::Strategy::kNaST));
  w.put_varint(8);
  w.put_varint(1);
  for (int i = 0; i < 3; ++i) w.put_varint(2);
  w.put_varint(2);
  for (int i = 0; i < 6; ++i) w.put_varint(0);
  w.put_blob(stream);
  const auto payload = w.take();
  amr::AmrLevel lv = hostile_target_level();
  ByteReader r(payload);
  try {
    core::backend_for(core::Method::kTac)
        .decompress_level_payload(r, lv, lossless::CodecProfile::kFast);
    ADD_FAILURE() << "overlapping groups decoded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("more blocks"), std::string::npos)
        << e.what();
  }
}

TEST(HostileSz, GroupMembersMustClaimDistinctBlocksInTheGrid) {
  // Groups decode and scatter concurrently, so two members on one unit
  // block, or a member past the block grid, must fail the table read
  // instead of writing cells twice. A 16^3 level at block size 8 has a
  // 2x2x2 block grid.
  const auto stream = hand_built_sz_constant(8, 8, 8, 1);
  const auto payload = [&](std::size_t second_bx) {
    ByteWriter w;
    w.put<std::uint8_t>(static_cast<std::uint8_t>(core::Strategy::kNaST));
    w.put_varint(8);
    w.put_varint(2);  // two groups of 1x1x1-block sub-blocks
    for (int g = 0; g < 2; ++g) {
      for (int i = 0; i < 3; ++i) w.put_varint(1);
      w.put_varint(1);  // one member
      w.put_varint(g == 0 ? 0 : second_bx);
      w.put_varint(0);
      w.put_varint(0);
      w.put_blob(stream);
    }
    return w.take();
  };
  for (const auto& [second_bx, message] :
       {std::pair<std::size_t, const char*>{0, "twice"},
        std::pair<std::size_t, const char*>{2, "outside the block grid"}}) {
    const auto bytes = payload(second_bx);
    amr::AmrLevel lv = hostile_target_level();
    ByteReader r(bytes);
    try {
      core::backend_for(core::Method::kTac)
          .decompress_level_payload(r, lv, lossless::CodecProfile::kFast);
      ADD_FAILURE() << "member at block x " << second_bx << " decoded";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
          << e.what();
    }
  }
  // Distinct blocks inside the grid decode.
  const auto ok = payload(1);
  amr::AmrLevel lv = hostile_target_level();
  ByteReader r(ok);
  EXPECT_NO_THROW(core::backend_for(core::Method::kTac)
                      .decompress_level_payload(
                          r, lv, lossless::CodecProfile::kFast));
}

}  // namespace
}  // namespace tac
