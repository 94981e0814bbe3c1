#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "container_downgrade.hpp"
#include "amr/amr_io.hpp"
#include "amr/snapshot.hpp"
#include "common/crc32.hpp"
#include "common/parallel.hpp"
#include "core/adaptive.hpp"
#include "core/backend.hpp"
#include "core/baselines.hpp"
#include "core/tac.hpp"
#include "simnyx/generator.hpp"

/// Container format v2: payload index, per-payload CRC32 checksums,
/// random-access partial decompression and v1 backward compatibility.

namespace tac::core {
namespace {

constexpr Method kAllMethods[] = {Method::kTac, Method::kOneD, Method::kZMesh,
                                  Method::kUpsample3D};

amr::AmrDataset small_dataset(std::size_t n = 32,
                              std::vector<double> densities = {0.3, 0.7}) {
  simnyx::GeneratorConfig gc;
  gc.finest_dims = {n, n, n};
  gc.level_densities = std::move(densities);
  gc.region_size = 8;
  gc.seed = 2024;
  return simnyx::generate_baryon_density(gc);
}

TacConfig test_config() {
  TacConfig cfg;
  cfg.sz.mode = sz::ErrorBoundMode::kAbsolute;
  cfg.sz.error_bound = 1e6;
  return cfg;
}

std::vector<std::uint8_t> compress_with(Method m, const amr::AmrDataset& ds) {
  return backend_for(m).compress(ds, test_config()).bytes;
}

CommonHeader header_of(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  return read_common_header(r);
}

using test::downgrade_to_v1;

TEST(ContainerV2, HeaderCarriesPayloadIndex) {
  const auto ds = small_dataset();
  for (const Method m : kAllMethods) {
    const auto bytes = compress_with(m, ds);
    const CommonHeader h = header_of(bytes);
    EXPECT_EQ(h.version, kFormatVersion);
    const std::size_t expected_payloads =
        (m == Method::kTac || m == Method::kOneD) ? ds.num_levels() : 1u;
    ASSERT_EQ(h.index.entries.size(), expected_payloads) << to_string(m);

    // Entries tile the byte range [payload_offset, size) contiguously.
    std::uint64_t cursor = h.payload_offset;
    for (const PayloadEntry& e : h.index.entries) {
      EXPECT_EQ(e.offset, cursor) << to_string(m);
      cursor += e.length;
    }
    EXPECT_EQ(cursor, bytes.size()) << to_string(m);
    EXPECT_NO_THROW(verify_payloads(bytes, h.index)) << to_string(m);
  }
}

TEST(ContainerV2, HeaderLevelRecordsAreTheAmrFileRecords) {
  // The container header and the .amr file store each level through one
  // record writer, so a level's mask blob is the same bytes in both.
  const auto ds = small_dataset(32, {0.1, 0.3, 0.6});
  const auto file = amr::dataset_to_bytes(ds);
  ByteReader fr(file);
  (void)fr.get<std::uint32_t>();  // magic
  (void)fr.get<std::uint8_t>();   // version
  (void)fr.get_string();
  (void)fr.get_varint();  // refinement ratio
  ASSERT_EQ(fr.get_varint(), ds.num_levels());
  std::vector<amr::LevelRecord> records;
  for (std::size_t l = 0; l < ds.num_levels(); ++l) {
    records.push_back(amr::read_level_record(fr, l, "test"));
    (void)fr.get_blob();  // values
  }
  for (const Method m : {Method::kTac, Method::kOneD, Method::kZMesh,
                         Method::kUpsample3D, Method::kAuto}) {
    const auto bytes = compress_with(m, ds);
    const CommonHeader h = header_of(bytes);
    ASSERT_EQ(h.num_levels(), records.size()) << to_string(m);
    for (std::size_t l = 0; l < records.size(); ++l) {
      EXPECT_EQ(h.levels[l].dims, records[l].dims) << to_string(m) << l;
      EXPECT_TRUE(std::ranges::equal(h.levels[l].mask_blob,
                                     records[l].mask_blob))
          << to_string(m) << " level " << l;
    }
  }
}

TEST(ContainerV2, DecompressLevelMatchesFullDecodeForEveryBackend) {
  const auto ds = small_dataset(32, {0.1, 0.3, 0.6});
  for (const Method m : kAllMethods) {
    const auto bytes = compress_with(m, ds);
    const auto full = decompress_any(bytes);
    for (std::size_t l = 0; l < ds.num_levels(); ++l) {
      const amr::AmrLevel lv = decompress_level(bytes, l);
      ASSERT_EQ(lv.dims().volume(), full.level(l).dims().volume())
          << to_string(m) << " level " << l;
      // Byte-identical, not approximately equal: partial decode must
      // reproduce exactly the slice a full decode yields.
      EXPECT_TRUE(std::memcmp(lv.data.span().data(),
                              full.level(l).data.span().data(),
                              lv.data.size() * sizeof(double)) == 0)
          << to_string(m) << " level " << l;
      EXPECT_TRUE(lv.mask == full.level(l).mask)
          << to_string(m) << " level " << l;
    }
  }
}

TEST(ContainerV2, DecompressLevelOutOfRangeThrows) {
  const auto ds = small_dataset();
  for (const Method m : kAllMethods) {
    const auto bytes = compress_with(m, ds);
    EXPECT_THROW((void)decompress_level(bytes, ds.num_levels()),
                 std::out_of_range)
        << to_string(m);
  }
}

TEST(ContainerV2, AnySingleByteCorruptionInPayloadIsChecksumError) {
  const auto ds = small_dataset();
  for (const Method m : kAllMethods) {
    const auto bytes = compress_with(m, ds);
    const CommonHeader h = header_of(bytes);
    for (std::size_t i = 0; i < h.index.entries.size(); ++i) {
      const PayloadEntry& e = h.index.entries[i];
      // Corrupt the first, middle and last byte of the payload.
      for (const std::uint64_t rel : {std::uint64_t{0}, e.length / 2,
                                      e.length - 1}) {
        auto corrupted = bytes;
        corrupted[static_cast<std::size_t>(e.offset + rel)] ^= 0x40;
        EXPECT_THROW((void)decompress_any(corrupted), ChecksumError)
            << to_string(m) << " payload " << i << " byte " << rel;
      }
    }
  }
}

TEST(ContainerV2, PartialDecodeCatchesItsOwnPayloadCorruption) {
  const auto ds = small_dataset();
  for (const Method m : {Method::kTac, Method::kOneD}) {
    const auto bytes = compress_with(m, ds);
    const CommonHeader h = header_of(bytes);
    ASSERT_EQ(h.index.entries.size(), ds.num_levels());
    for (std::size_t l = 0; l < ds.num_levels(); ++l) {
      auto corrupted = bytes;
      const PayloadEntry& e = h.index.entries[l];
      corrupted[static_cast<std::size_t>(e.offset + e.length / 2)] ^= 0x01;
      EXPECT_THROW((void)decompress_level(corrupted, l), ChecksumError)
          << to_string(m) << " level " << l;
      // The other levels' payloads are untouched: partial decode of a
      // clean level still succeeds on the corrupted container.
      for (std::size_t other = 0; other < ds.num_levels(); ++other) {
        if (other == l) continue;
        EXPECT_NO_THROW((void)decompress_level(corrupted, other))
            << to_string(m) << " corrupt " << l << " read " << other;
      }
    }
  }
}

TEST(ContainerV2, TruncationAtEveryIndexBoundaryThrows) {
  const auto ds = small_dataset();
  for (const Method m : kAllMethods) {
    const auto bytes = compress_with(m, ds);
    const CommonHeader h = header_of(bytes);
    std::vector<std::size_t> cuts = {h.index_offset, h.index_offset + 1,
                                     h.payload_offset};
    for (const PayloadEntry& e : h.index.entries) {
      cuts.push_back(static_cast<std::size_t>(e.offset));
      cuts.push_back(static_cast<std::size_t>(e.offset + e.length / 2));
      cuts.push_back(static_cast<std::size_t>(e.offset + e.length) - 1);
    }
    for (const std::size_t cut : cuts) {
      ASSERT_LT(cut, bytes.size());
      const std::vector<std::uint8_t> truncated(
          bytes.begin(), bytes.begin() + static_cast<long>(cut));
      EXPECT_THROW((void)decompress_any(truncated), std::exception)
          << to_string(m) << " cut at " << cut;
    }
  }
}

TEST(ContainerV2, V1ContainersStillDecode) {
  const auto ds = small_dataset(32, {0.1, 0.3, 0.6});
  for (const Method m : kAllMethods) {
    const auto v2 = compress_with(m, ds);
    const auto v1 = downgrade_to_v1(v2);
    ASSERT_LT(v1.size(), v2.size());
    EXPECT_EQ(peek_method(v1), m);

    const CommonHeader h = header_of(v1);
    EXPECT_EQ(h.version, 1);
    EXPECT_TRUE(h.index.entries.empty());
    EXPECT_EQ(h.index_offset, h.payload_offset);

    const auto from_v1 = decompress_any(v1);
    const auto from_v2 = decompress_any(v2);
    ASSERT_EQ(from_v1.num_levels(), from_v2.num_levels());
    for (std::size_t l = 0; l < from_v1.num_levels(); ++l)
      EXPECT_TRUE(std::memcmp(from_v1.level(l).data.span().data(),
                              from_v2.level(l).data.span().data(),
                              from_v1.level(l).data.size() *
                                  sizeof(double)) == 0)
          << to_string(m) << " level " << l;

    // Partial decompression falls back to a full decode on v1 input but
    // still returns the right level.
    for (std::size_t l = 0; l < from_v1.num_levels(); ++l) {
      const amr::AmrLevel lv = decompress_level(v1, l);
      EXPECT_TRUE(std::memcmp(lv.data.span().data(),
                              from_v2.level(l).data.span().data(),
                              lv.data.size() * sizeof(double)) == 0)
          << to_string(m) << " v1 level " << l;
    }
  }
}

TEST(ContainerV2, IndexOverheadIsSmall) {
  // Tight bound -> large payloads; the fixed-size index must stay under
  // the 1% budget the bench enforces on the tab02 workload.
  const auto ds = small_dataset(64, {0.23, 0.77});
  TacConfig cfg;
  cfg.sz.mode = sz::ErrorBoundMode::kRelative;
  cfg.sz.error_bound = 1e-6;
  const auto bytes = tac_compress(ds, cfg).bytes;
  const CommonHeader h = header_of(bytes);
  const std::size_t index_bytes = h.payload_offset - h.index_offset;
  EXPECT_LT(static_cast<double>(index_bytes),
            0.01 * static_cast<double>(bytes.size()))
      << index_bytes << " index bytes in a " << bytes.size()
      << "-byte container";
}

TEST(ContainerV2, IndexEntryRangeCorruptionIsStructuralError) {
  const auto ds = small_dataset();
  const auto bytes = compress_with(Method::kTac, ds);
  const CommonHeader h = header_of(bytes);
  // The first index entry's offset field lives right after the varint
  // count; stomp its length field with a huge value.
  auto corrupted = bytes;
  const std::size_t first_entry = h.index_offset + 1;  // count < 128: 1 byte
  const std::uint64_t huge = ~std::uint64_t{0};
  std::memcpy(corrupted.data() + first_entry + 8, &huge, sizeof(huge));
  EXPECT_THROW((void)decompress_any(corrupted), std::runtime_error);
}

// A payload is read from the byte range its index entry gives: an entry
// that ends early, with a checksum that matches the shortened range, must
// fail that payload's decode rather than let the reader run on into the
// next payload.
TEST(ContainerV2, PayloadCutShortByItsIndexEntryThrows) {
  const auto ds = small_dataset();
  const auto bytes = compress_with(Method::kTac, ds);
  const CommonHeader h = header_of(bytes);
  ASSERT_EQ(h.version, 4);
  ASSERT_EQ(h.index.entries.size(), ds.num_levels());
  auto cut = bytes;
  const PayloadEntry& e = h.index.entries[0];
  const std::uint64_t length = e.length - 1;
  const std::uint32_t crc = crc32(std::span<const std::uint8_t>(bytes).subspan(
      static_cast<std::size_t>(e.offset), static_cast<std::size_t>(length)));
  // A v4 entry is offset:8, length:8, crc32:4, profile:1, selector:1.
  const std::size_t entry0 = h.index_offset + 1;  // count < 128: 1 byte
  std::memcpy(cut.data() + entry0 + 8, &length, sizeof(length));
  std::memcpy(cut.data() + entry0 + 16, &crc, sizeof(crc));
  ASSERT_NO_THROW(verify_payloads(cut, header_of(cut).index));
  EXPECT_THROW((void)decompress_any(cut), std::runtime_error);
  EXPECT_THROW((void)decompress_level(cut, 0), std::runtime_error);
}

// ------------------------------------------------------------- allocations

using test::bytes_allocated_by;

/// What reading a header may allocate beyond level arrays: copies of the
/// compressed masks and the index, bounded by the container size.
std::size_t header_slack(std::span<const std::uint8_t> container) {
  return 2 * container.size() + 4096;
}

TEST(ContainerAllocation, DecompressLevelBuildsOnlyThatLevel) {
  if (!TAC_TEST_COUNTS_ALLOCS)
    GTEST_SKIP() << "the sanitizer owns the allocator";
  const auto ds = small_dataset(32, {0.1, 0.3, 0.6});
  for (const Method m : {Method::kTac, Method::kOneD, Method::kAuto}) {
    const auto bytes = compress_with(m, ds);
    const CommonHeader h = header_of(bytes);
    ASSERT_EQ(h.index.entries.size(), ds.num_levels()) << to_string(m);
    for (std::size_t k = 0; k < ds.num_levels(); ++k) {
      // Warm up once so one-time pool and arena blocks are not counted.
      amr::AmrLevel out = decompress_level(bytes, k);
      // The payload decode alone, into an already built level: the part
      // of decompress_level that depends on the codec, not the header.
      amr::AmrLevel lv = materialize_level(h, k);
      const PayloadEntry& e = h.index.entries[k];
      ByteReader payload(std::span<const std::uint8_t>(bytes).subspan(
          static_cast<std::size_t>(e.offset),
          static_cast<std::size_t>(e.length)));
      const std::size_t decode = bytes_allocated_by([&] {
        backend_for(payload_method(h, k).value_or(m))
            .decompress_level_payload(payload, lv,
                                      payload_profile(h, k).value());
      });
      const std::size_t total =
          bytes_allocated_by([&] { out = decompress_level(bytes, k); });
      // Level k's data (8 bytes per cell) and mask (1), its bit-packed
      // mask while unpacking (1/8), the decode, and the header.
      const std::size_t volume = h.levels[k].dims.volume();
      const std::size_t bound =
          9 * volume + (volume + 7) / 8 + decode + header_slack(bytes);
      EXPECT_LE(total, bound) << to_string(m) << " level " << k
                              << ": decode alone " << decode;
    }
  }
}

TEST(ContainerAllocation, TacLevelDecodeBuildsNoValueBuffer) {
  if (!TAC_TEST_COUNTS_ALLOCS)
    GTEST_SKIP() << "the sanitizer owns the allocator";
  // A fully valid level, forced through both TAC decode paths: GSP
  // decodes straight into the level, OpST hands each member block from
  // the decoder's scratch to the level. The payload decode allocates the
  // quantization codes (4 bytes a cell) and the unpacked blobs, but no
  // double per cell, so it stays under one value buffer.
  const Dims3 d{48, 48, 48};
  amr::AmrLevel full(d);
  for (std::size_t z = 0; z < d.nz; ++z)
    for (std::size_t y = 0; y < d.ny; ++y)
      for (std::size_t x = 0; x < d.nx; ++x) {
        full.mask(x, y, z) = 1;
        full.data(x, y, z) = std::sin(0.2 * static_cast<double>(x)) +
                             0.01 * static_cast<double>(y + z);
      }
  const amr::AmrDataset ds("baryon_density", {full});
  const ParallelismGuard one(1);  // worker arenas warm up unevenly
  for (const Strategy s : {Strategy::kGSP, Strategy::kOpST}) {
    TacConfig cfg = test_config();
    cfg.sz.error_bound = 1e-3;
    cfg.force_strategy = s;
    const auto bytes = backend_for(Method::kTac).compress(ds, cfg).bytes;
    const CommonHeader h = header_of(bytes);
    (void)decompress_level(bytes, 0);  // warm up pools and arenas
    amr::AmrLevel lv = materialize_level(h, 0);
    const PayloadEntry& e = h.index.entries[0];
    ByteReader payload(std::span<const std::uint8_t>(bytes).subspan(
        static_cast<std::size_t>(e.offset),
        static_cast<std::size_t>(e.length)));
    const std::size_t decode = bytes_allocated_by([&] {
      backend_for(Method::kTac)
          .decompress_level_payload(payload, lv, payload_profile(h, 0));
    });
    EXPECT_LT(decode, d.volume() * sizeof(double))
        << (s == Strategy::kGSP ? "GSP" : "OpST");
    EXPECT_EQ(lv.data, decompress_any(bytes).level(0).data);
  }
}

TEST(ContainerAllocation, CounterSeesMappedLevelArrays) {
  if (!TAC_TEST_COUNTS_ALLOCS)
    GTEST_SKIP() << "the sanitizer owns the allocator";
  // A level this large maps its own pages instead of calling calloc; the
  // bounds above only hold if those mappings are counted too.
  const Dims3 d{128, 128, 128};
  ASSERT_GE(d.volume() * sizeof(double), Array3D<double>::kMapBytes);
  const std::size_t allocated =
      bytes_allocated_by([&] { const amr::AmrLevel lv(d); });
  EXPECT_GE(allocated, d.volume() * (sizeof(double) + 1));
}

TEST(ContainerAllocation, V1SnapshotFieldsBuildNoLevels) {
  if (!TAC_TEST_COUNTS_ALLOCS)
    GTEST_SKIP() << "the sanitizer owns the allocator";
  const auto base = small_dataset(32, {0.1, 0.3, 0.6});
  // v1 snapshots keep no name index: each name is read from its field's
  // container header.
  ByteWriter w;
  w.put<std::uint32_t>(0x53434154);  // "TACS"
  w.put<std::uint8_t>(1);
  w.put_varint(2);
  for (const char* name : {"baryon_density", "temperature"}) {
    const amr::AmrDataset field(name, base.levels(), base.refinement_ratio());
    w.put_blob(compress_with(Method::kTac, field));
  }
  const auto v1 = w.take();
  std::vector<SnapshotFieldInfo> fields;
  const std::size_t allocated =
      bytes_allocated_by([&] { fields = snapshot_fields(v1); });
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[1].name, "temperature");
  EXPECT_LE(allocated, header_slack(v1));
}

// ---------------------------------------------------------------- snapshot

amr::Snapshot make_snapshot() {
  amr::Snapshot s;
  const auto base = small_dataset();
  for (const char* name : {"baryon_density", "temperature", "velocity_x"}) {
    std::vector<amr::AmrLevel> levels(base.levels());
    amr::AmrDataset ds(name, std::move(levels), base.refinement_ratio());
    // Distinct data per field so cross-field mix-ups are caught.
    const double scale = 1.0 + static_cast<double>(s.fields.size());
    for (std::size_t l = 0; l < ds.num_levels(); ++l)
      for (std::size_t i = 0; i < ds.level(l).data.size(); ++i)
        ds.level(l).data[i] *= scale;
    s.fields.push_back(std::move(ds));
  }
  return s;
}

/// The field named `name` among `fields`; fails the test when absent.
const SnapshotFieldInfo& field_named(const std::vector<SnapshotFieldInfo>& fields,
                                     const std::string& name) {
  const auto it = std::find_if(fields.begin(), fields.end(),
                               [&](const auto& f) { return f.name == name; });
  EXPECT_NE(it, fields.end()) << "no field " << name;
  return it == fields.end() ? fields.front() : *it;
}

TEST(SnapshotV2, FieldIndexListsNamesInOrder) {
  const auto s = make_snapshot();
  const auto bytes = compress_snapshot(s, test_config());
  const auto fields = snapshot_fields(bytes);
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0].name, "baryon_density");
  EXPECT_EQ(fields[1].name, "temperature");
  EXPECT_EQ(fields[2].name, "velocity_x");
  for (const auto& f : fields) EXPECT_TRUE(f.checksum_ok) << f.name;
}

TEST(SnapshotV2, FieldSliceDecodeMatchesFullDecode) {
  const auto s = make_snapshot();
  const auto bytes = compress_snapshot(s, test_config());
  const auto full = decompress_snapshot(bytes);
  const auto fields = snapshot_fields(bytes);
  ASSERT_EQ(fields.size(), s.fields.size());
  for (std::size_t f = 0; f < s.fields.size(); ++f) {
    const auto one =
        decompress_any(field_named(fields, s.fields[f].field_name()).bytes);
    ASSERT_EQ(one.num_levels(), full.fields[f].num_levels());
    for (std::size_t l = 0; l < one.num_levels(); ++l)
      EXPECT_TRUE(std::memcmp(one.level(l).data.span().data(),
                              full.fields[f].level(l).data.span().data(),
                              one.level(l).data.size() * sizeof(double)) ==
                  0)
          << "field " << f << " level " << l;
  }
}

TEST(SnapshotV2, FieldCorruptionIsFlaggedOnlyForThatField) {
  const auto s = make_snapshot();
  auto bytes = compress_snapshot(s, test_config());
  // Corrupt a byte in the middle of field 1's container slice.
  const auto clean = snapshot_fields(bytes);
  const auto span = field_named(clean, "temperature").bytes;
  const std::size_t field_mid =
      static_cast<std::size_t>(span.data() - bytes.data()) + span.size() / 2;
  bytes[field_mid] ^= 0x10;
  EXPECT_THROW((void)decompress_snapshot(bytes), ChecksumError);
  const auto fields = snapshot_fields(bytes);
  EXPECT_FALSE(field_named(fields, "temperature").checksum_ok);
  // Sibling fields stay independently readable.
  for (const char* sibling : {"baryon_density", "velocity_x"}) {
    const auto& f = field_named(fields, sibling);
    EXPECT_TRUE(f.checksum_ok) << sibling;
    EXPECT_NO_THROW((void)decompress_any(f.bytes)) << sibling;
  }
}

TEST(SnapshotV2, V1SnapshotsStillDecode) {
  const auto s = make_snapshot();
  const TacConfig cfg = test_config();
  // Hand-build the v1 snapshot layout: magic, version 1, count,
  // length-prefixed per-field container blobs (exactly what the v1 writer
  // emitted).
  ByteWriter w;
  w.put<std::uint32_t>(0x53434154);  // "TACS"
  w.put<std::uint8_t>(1);
  w.put_varint(s.fields.size());
  for (const auto& field : s.fields)
    w.put_blob(adaptive_compress(field, cfg).bytes);
  const auto v1 = w.take();

  const auto back = decompress_snapshot(v1);
  ASSERT_EQ(back.fields.size(), s.fields.size());
  // v1 keeps no name index: the names come from each field's header.
  const auto fields = snapshot_fields(v1);
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[1].name, "temperature");
  const auto one = decompress_any(field_named(fields, "velocity_x").bytes);
  EXPECT_EQ(one.field_name(), "velocity_x");
  EXPECT_EQ(one.num_levels(), s.fields[2].num_levels());
}

}  // namespace
}  // namespace tac::core
