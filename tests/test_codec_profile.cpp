#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "amr/amr_io.hpp"
#include "common/crc32.hpp"
#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "container_downgrade.hpp"
#include "core/adaptive.hpp"
#include "core/backend.hpp"
#include "core/tac.hpp"
#include "lossless/codec.hpp"
#include "simnyx/generator.hpp"

/// Codec profiles (lossless::CodecProfile): the per-payload profile byte
/// of container format v3+. Every writer declares `fast`; `legacy`
/// streams are read only. The legacy side is pinned by golden containers
/// an earlier writer produced (tests/data/legacy/, see its README): they
/// must decode bit-identically to a fresh compress of the same input,
/// also when downgraded to the v2 and v1 layouts, and a profile byte that
/// contradicts the streams is a typed error.

namespace tac::core {
namespace {

using lossless::CodecProfile;
using lossless::ProfileError;

const std::string kLegacyDir = TAC_LEGACY_DATA_DIR;

/// The golden containers: `tac_file_tool compress gen32.amr <file> 1e-3
/// --method=<cli>` under the legacy profile. Every header mask blob is an
/// LZSS v1 stream. In the payloads, LZSS v1 beat a stored block only for
/// the 3D baseline's one large stream; the other payloads hold stored
/// blocks only, which belong to either profile.
struct Golden {
  const char* cli;  ///< tac_file_tool --method= value
  const char* file;
  bool v1_payload_streams;
};
constexpr Golden kGoldens[] = {{"tac", "legacy_tac.tac", false},
                               {"1d", "legacy_1d.tac", false},
                               {"zmesh", "legacy_zmesh.tac", false},
                               {"3d", "legacy_3d.tac", true},
                               {"auto", "legacy_auto.tac", false}};
/// The lossless method byte of an LZSS v1 stream (lossless/codec.cpp).
constexpr std::uint8_t kLzssV1Method = 1;
constexpr double kGoldenRelEb = 1e-3;

std::vector<std::uint8_t> read_golden(const char* file) {
  std::ifstream in(kLegacyDir + "/" + file, std::ios::binary);
  EXPECT_TRUE(in) << "missing golden " << file;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

const amr::AmrDataset& golden_input() {
  static const amr::AmrDataset ds =
      amr::load_dataset(kLegacyDir + "/gen32.amr");
  return ds;
}

/// What `tac_file_tool compress` writes today for `cli` at the golden
/// bound.
std::vector<std::uint8_t> fresh_compress(const std::string& cli) {
  TacConfig cfg;
  cfg.sz.mode = sz::ErrorBoundMode::kRelative;
  cfg.sz.error_bound = kGoldenRelEb;
  const amr::AmrDataset& ds = golden_input();
  if (cli == "tac") return adaptive_compress(ds, cfg).bytes;
  const Method m = cli == "1d"      ? Method::kOneD
                   : cli == "zmesh" ? Method::kZMesh
                   : cli == "3d"    ? Method::kUpsample3D
                                    : Method::kAuto;
  return backend_for(m).compress(ds, cfg).bytes;
}

CommonHeader header_of(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  return read_common_header(r);
}

/// Byte offset of index entry `i`'s codec-profile byte inside a v4
/// container (varint entry count is one byte for every dataset here).
std::size_t profile_byte_offset(const CommonHeader& h, std::size_t i) {
  EXPECT_LT(h.index.entries.size(), 128u);
  return h.index_offset + 1 + i * kPayloadEntryV4Bytes + kPayloadEntryBytes;
}

std::vector<std::uint8_t> relabel(std::vector<std::uint8_t> bytes,
                                  CodecProfile p) {
  const CommonHeader h = header_of(bytes);
  for (std::size_t i = 0; i < h.index.entries.size(); ++i)
    bytes[profile_byte_offset(h, i)] = static_cast<std::uint8_t>(p);
  return bytes;
}

/// Strict decode of `bytes` must fail with a ProfileError that names the
/// profile the index declares.
void expect_profile_error(std::span<const std::uint8_t> bytes,
                          CodecProfile declared, const std::string& what) {
  const std::string named =
      std::string("profile \"") + lossless::to_string(declared) + "\"";
  try {
    (void)decompress_any(bytes);
    ADD_FAILURE() << what << ": strict decode should have thrown";
  } catch (const ProfileError& e) {
    EXPECT_NE(std::string(e.what()).find(named), std::string::npos)
        << what << ": " << e.what();
  }
}

/// Bitwise equality of every level's data and mask.
void expect_same_levels(const amr::AmrDataset& a, const amr::AmrDataset& b,
                        const std::string& what) {
  ASSERT_EQ(a.num_levels(), b.num_levels()) << what;
  for (std::size_t l = 0; l < a.num_levels(); ++l) {
    ASSERT_EQ(a.level(l).dims(), b.level(l).dims()) << what << " level " << l;
    EXPECT_EQ(std::memcmp(a.level(l).data.span().data(),
                          b.level(l).data.span().data(),
                          a.level(l).data.size() * sizeof(double)),
              0)
        << what << " level " << l;
    EXPECT_EQ(std::memcmp(a.level(l).mask.span().data(),
                          b.level(l).mask.span().data(),
                          a.level(l).mask.size()),
              0)
        << what << " level " << l << " mask";
  }
}

TEST(LegacyGolden, DecodesLikeAFreshCompressWithinTheBound) {
  const amr::AmrDataset& input = golden_input();
  double lo = INFINITY;
  double hi = -INFINITY;
  for (std::size_t l = 0; l < input.num_levels(); ++l)
    for (std::size_t i = 0; i < input.level(l).data.size(); ++i)
      if (input.level(l).mask[i]) {
        lo = std::min(lo, input.level(l).data[i]);
        hi = std::max(hi, input.level(l).data[i]);
      }
  // Each backend resolves the relative bound against a level's or the
  // whole dataset's range; both are within the dataset's.
  const double bound = kGoldenRelEb * (hi - lo);

  for (const Golden& g : kGoldens) {
    const auto golden = read_golden(g.file);
    const CommonHeader h = header_of(golden);
    ASSERT_EQ(h.version, 4) << g.file;
    for (std::size_t i = 0; i < h.index.entries.size(); ++i)
      EXPECT_EQ(payload_profile(h, i), CodecProfile::kLegacy)
          << g.file << " payload " << i;
    for (const LevelHeader& lh : h.levels)
      EXPECT_EQ(lh.mask_blob.at(0), kLzssV1Method) << g.file;

    const amr::AmrDataset decoded = decompress_any(golden);
    expect_same_levels(decoded, decompress_any(fresh_compress(g.cli)),
                       g.file);
    for (std::size_t l = 0; l < decoded.num_levels(); ++l) {
      const amr::AmrLevel lv = decompress_level(golden, l);
      EXPECT_EQ(std::memcmp(lv.data.span().data(),
                            decoded.level(l).data.span().data(),
                            lv.data.size() * sizeof(double)),
                0)
          << g.file << " decompress_level " << l;

      double worst = 0;
      const amr::AmrLevel& orig = input.level(l);
      for (std::size_t i = 0; i < orig.data.size(); ++i)
        if (orig.mask[i])
          worst = std::max(worst,
                           std::abs(orig.data[i] - decoded.level(l).data[i]));
      EXPECT_LE(worst, bound) << g.file << " level " << l;
    }
  }
}

// Containers written before the profile byte (v2) and before the index
// (v1) decode leniently through each stream's method byte. A legacy v4
// container is byte-identical to its v2 and v1 ancestors apart from the
// index, so the downgrades rebuild exactly what the older writers
// emitted. The auto backend needs the v4 selector byte, so its golden has
// no older layout.
TEST(LegacyGolden, DowngradedToV2AndV1DecodesIdentically) {
  for (const Golden& g : kGoldens) {
    if (std::string(g.cli) == "auto") continue;
    const auto v4 = read_golden(g.file);
    const amr::AmrDataset want = decompress_any(v4);

    const auto v2 = test::downgrade_to_v2(v4);
    const CommonHeader h2 = header_of(v2);
    EXPECT_EQ(h2.version, 2);
    EXPECT_FALSE(payload_profile(h2, 0).has_value());
    EXPECT_NO_THROW(verify_payloads(v2, h2.index));
    expect_same_levels(decompress_any(v2), want, std::string(g.file) + " v2");

    const auto v1 = test::downgrade_to_v1(v4);
    EXPECT_EQ(header_of(v1).version, 1);
    expect_same_levels(decompress_any(v1), want, std::string(g.file) + " v1");
  }
}

// The index is not covered by the payload CRCs, so a profile byte that
// contradicts the streams must be caught by the strict decode itself.
TEST(LegacyGolden, StrictDecodeRejectsAMislabeledProfile) {
  for (const Golden& g : kGoldens) {
    const auto golden = read_golden(g.file);
    const auto as_fast = relabel(golden, CodecProfile::kFast);
    EXPECT_NO_THROW(verify_payloads(as_fast, header_of(as_fast).index));
    if (g.v1_payload_streams)
      expect_profile_error(as_fast, CodecProfile::kFast, g.file);
    else  // stored blocks only: the fast label is true of them too
      expect_same_levels(decompress_any(as_fast), decompress_any(golden),
                         g.file);

    const auto as_legacy =
        relabel(fresh_compress(g.cli), CodecProfile::kLegacy);
    EXPECT_NO_THROW(verify_payloads(as_legacy, header_of(as_legacy).index));
    expect_profile_error(as_legacy, CodecProfile::kLegacy, g.cli);
  }
}

TEST(CodecProfile, FlippedProfileByteIsATypedError) {
  const auto bytes = read_golden("legacy_tac.tac");
  auto unknown = bytes;
  unknown[profile_byte_offset(header_of(bytes), 0)] = 9;
  // An out-of-range profile byte is rejected while reading the header,
  // with the payload called out.
  try {
    (void)decompress_any(unknown);
    FAIL() << "decompress_any should have rejected the profile byte";
  } catch (const ProfileError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("profile"), std::string::npos) << msg;
    EXPECT_NE(msg.find('9'), std::string::npos) << msg;
  }
}

TEST(CodecProfile, WritersDeclareTheFastProfile) {
  EXPECT_EQ(lossless::default_profile(), CodecProfile::kFast);
  for (const Golden& g : kGoldens) {
    const auto bytes = fresh_compress(g.cli);
    const CommonHeader h = header_of(bytes);
    EXPECT_EQ(h.version, kFormatVersion);
    ASSERT_FALSE(h.index.entries.empty());
    for (std::size_t i = 0; i < h.index.entries.size(); ++i)
      EXPECT_EQ(payload_profile(h, i), CodecProfile::kFast)
          << g.cli << " payload " << i;
  }
}

/// What every writer produces for the golden input at the golden bound,
/// pinned as container size and CRC-32. A refactor of the write path must
/// leave these bytes alone; only a deliberate format or codec change
/// re-records them.
struct PinnedContainer {
  const char* cli;  ///< tac_file_tool --method= value
  std::size_t size;
  std::uint32_t crc;
};
constexpr PinnedContainer kPinnedContainers[] = {
    {"tac", 5992, 0x4ed2fe88u},  {"1d", 8268, 0x0c845afbu},
    {"zmesh", 6664, 0x7de90cedu}, {"3d", 5533, 0xab5e0961u},
    {"auto", 5992, 0x0e61ca57u}};

TEST(CodecProfile, WriterBytesArePinned) {
  for (const PinnedContainer& p : kPinnedContainers) {
    const auto bytes = fresh_compress(p.cli);
    EXPECT_EQ(bytes.size(), p.size) << p.cli;
    EXPECT_EQ(crc32(bytes), p.crc) << p.cli;
  }
}

/// What the reader decodes from each pinned container: the CRC-32 of every
/// level's data, chained finest first. A refactor of the read path must
/// leave these values alone, whichever entry point decodes.
struct PinnedDecode {
  const char* cli;  ///< tac_file_tool --method= value
  std::uint32_t crc;
};
constexpr PinnedDecode kPinnedDecodes[] = {
    {"tac", 0x23770833u},  {"1d", 0xe5336edau}, {"zmesh", 0xde109df4u},
    {"3d", 0x9bacd334u},   {"auto", 0x23770833u}};

std::uint32_t data_crc(const amr::AmrLevel& lv, std::uint32_t crc) {
  const std::span<const double> data = lv.data.span();
  return crc32({reinterpret_cast<const std::uint8_t*>(data.data()),
                data.size_bytes()},
               crc);
}

TEST(CodecProfile, ReaderOutputIsPinned) {
  for (const PinnedDecode& p : kPinnedDecodes) {
    const auto bytes = fresh_compress(p.cli);
    const amr::AmrDataset full = decompress_any(bytes);
    std::uint32_t full_crc = 0;
    std::uint32_t level_crc = 0;
    for (std::size_t l = 0; l < full.num_levels(); ++l) {
      full_crc = data_crc(full.level(l), full_crc);
      level_crc = data_crc(decompress_level(bytes, l), level_crc);
    }
    EXPECT_EQ(full_crc, p.crc) << p.cli << " decompress_any";
    EXPECT_EQ(level_crc, p.crc) << p.cli << " decompress_level";
  }
}

/// A corpus that exercises every encoder regime: long runs (deep hash
/// chains), a stride-repetitive segment (offset reuse) and incompressible
/// noise (skip heuristic / stored fallback).
std::vector<std::uint8_t> mixed_corpus(std::size_t n) {
  std::vector<std::uint8_t> buf;
  buf.reserve(n);
  std::mt19937 rng(1234);
  while (buf.size() < n) {
    switch (rng() % 3u) {
      case 0: {  // run of one byte
        const auto b = static_cast<std::uint8_t>(rng() & 3u);
        for (std::size_t k = 16 + rng() % 200; k > 0 && buf.size() < n; --k)
          buf.push_back(b);
        break;
      }
      case 1:  // stride-repetitive
        for (std::size_t k = 0; k < 96 && buf.size() < n; ++k)
          buf.push_back(static_cast<std::uint8_t>(k % 7u + 60u));
        break;
      default:  // noise
        for (std::size_t k = 0; k < 64 && buf.size() < n; ++k)
          buf.push_back(static_cast<std::uint8_t>(rng()));
    }
  }
  buf.resize(n);
  return buf;
}

// Every input size 0..4097 round-trips through the lenient and the
// strict decoder.
TEST(CodecProfile, LosslessRoundTripsEverySize) {
  const auto corpus = mixed_corpus(4097);
  for (std::size_t n = 0; n <= corpus.size(); ++n) {
    const std::span<const std::uint8_t> input(corpus.data(), n);
    const auto packed = lossless::compress(input);
    const auto lenient = lossless::decompress(packed);
    ASSERT_TRUE(std::equal(input.begin(), input.end(), lenient.begin(),
                           lenient.end()))
        << "size " << n;
    const auto strict = lossless::decompress(packed, CodecProfile::kFast);
    ASSERT_TRUE(std::equal(input.begin(), input.end(), strict.begin(),
                           strict.end()))
        << "strict size " << n;
  }
}

// The Lorenzo wavefront and the chained matcher must not leak scheduling
// into the bytes: any thread count, SIMD or scalar, one container.
TEST(CodecProfile, WriterOutputStableAcrossThreadsAndSimd) {
  simnyx::GeneratorConfig gc;
  gc.finest_dims = {64, 64, 64};
  gc.level_densities = {0.1, 0.3, 0.6};
  gc.region_size = 8;
  gc.seed = 2024;
  const auto ds = simnyx::generate_baryon_density(gc);
  TacConfig cfg;
  cfg.sz.mode = sz::ErrorBoundMode::kAbsolute;
  cfg.sz.error_bound = 1e6;

  std::vector<std::uint8_t> reference;
  {
    ParallelismGuard serial(1);
    reference = backend_for(Method::kTac).compress(ds, cfg).bytes;
  }
  for (const unsigned threads : {2u, 4u}) {
    ParallelismGuard guard(threads);
    EXPECT_EQ(backend_for(Method::kTac).compress(ds, cfg).bytes, reference)
        << threads << " threads";
  }
  {
    ParallelismGuard guard(2);
    simd::force_scalar(true);
    const auto scalar_bytes = backend_for(Method::kTac).compress(ds, cfg).bytes;
    simd::force_scalar(false);
    EXPECT_EQ(scalar_bytes, reference);
  }
}

}  // namespace
}  // namespace tac::core
