#include <cstring>
#include <stdexcept>
#include <string>

#include "amr/snapshot.hpp"
#include "common/bytes.hpp"
#include "common/crc32.hpp"
#include "common/parallel.hpp"
#include "common/telemetry.hpp"
#include "core/adaptive.hpp"
#include "core/backend.hpp"
#include "core/container.hpp"
#include "core/tac.hpp"

namespace tac::core {
namespace {
constexpr std::uint32_t kMagic = 0x53434154;  // "TACS"
constexpr std::uint8_t kVersion = 2;
constexpr std::uint8_t kMinVersion = 1;

/// Snapshot container v2 layout:
///   magic u32 | version u8 | nfields varint
///   nfields x { field name string | offset u64 | length u64 | crc32 u32 }
///   nfields x raw per-field container bytes (not length-prefixed — the
///             index is authoritative)
/// The index makes one field addressable without touching the others:
/// `snapshot_fields` hands out each field's slice straight from it.
/// v1 snapshots (length-prefixed blobs, no index) are still decoded.
///
/// Codec profiles are per-field, not per-snapshot: each field blob is a
/// complete container whose own (v3) payload index records the profile
/// its streams were encoded under, and `decompress_snapshot` dispatches
/// via decompress_any — the snapshot index itself stays on the 20-byte
/// v2 entry layout.
struct ParsedSnapshot {
  std::uint8_t version = kVersion;
  std::vector<std::string> names;                       ///< v2 only
  std::vector<PayloadEntry> entries;                    ///< v2 only
  std::vector<std::span<const std::uint8_t>> blobs;     ///< per-field bytes
};

ParsedSnapshot parse_snapshot(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  if (r.remaining() < sizeof(std::uint32_t) + sizeof(std::uint8_t))
    throw std::runtime_error("snapshot container: truncated header");
  if (r.get<std::uint32_t>() != kMagic)
    throw std::runtime_error("snapshot container: bad magic");
  ParsedSnapshot out;
  out.version = r.get<std::uint8_t>();
  if (out.version < kMinVersion || out.version > kVersion)
    throw std::runtime_error(
        "snapshot container: unsupported version " +
        std::to_string(out.version) + " (this build reads versions " +
        std::to_string(kMinVersion) + ".." + std::to_string(kVersion) + ")");
  // Every field costs at least one blob-length byte (v1) or an empty name
  // byte plus a fixed index entry (v2).
  const std::size_t n =
      r.get_count("snapshot container: field count",
                  out.version == 1 ? 1 : 1 + kPayloadEntryBytes);
  if (out.version == 1) {
    out.blobs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) out.blobs.push_back(r.get_blob());
    return out;
  }
  out.names.reserve(n);
  out.entries.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.names.push_back(r.get_string());
    const PayloadEntry e = read_payload_entry(r, /*version=*/2);
    if (e.offset > bytes.size() || e.length > bytes.size() - e.offset)
      throw std::runtime_error(
          "snapshot container: field \"" + out.names.back() +
          "\" index entry exceeds the " + std::to_string(bytes.size()) +
          "-byte snapshot");
    out.entries.push_back(e);
  }
  out.blobs.reserve(n);
  for (const PayloadEntry& e : out.entries)
    out.blobs.push_back(bytes.subspan(static_cast<std::size_t>(e.offset),
                                      static_cast<std::size_t>(e.length)));
  return out;
}

void verify_field(const ParsedSnapshot& s, std::size_t i) {
  if (s.entries.empty()) return;  // v1: no checksums stored
  const std::uint32_t actual = crc32(s.blobs[i]);
  if (actual != s.entries[i].crc32)
    throw ChecksumError("snapshot container: field \"" + s.names[i] +
                        "\" checksum mismatch");
}

}  // namespace

namespace {

/// Shared writer for both compress_snapshot overloads: `encode_field`
/// maps one field dataset to its container bytes.
template <class EncodeField>
std::vector<std::uint8_t> write_snapshot(const amr::Snapshot& s,
                                         EncodeField&& encode_field) {
  if (s.fields.empty())
    throw std::invalid_argument("compress_snapshot: no fields");
  TAC_SPAN("snapshot.compress");
  TAC_COUNTER_ADD("snapshot.fields_written", s.fields.size());
  // Fields are independent containers: compress them concurrently and
  // serialize in field order so the snapshot bytes stay deterministic.
  std::vector<std::vector<std::uint8_t>> blobs(s.fields.size());
  parallel_for(
      0, s.fields.size(),
      [&](std::size_t i) {
        TAC_SPAN("snapshot.field_compress");
        blobs[i] = encode_field(s.fields[i]);
      },
      /*grain=*/1);
  ByteWriter w;
  w.put<std::uint32_t>(kMagic);
  w.put<std::uint8_t>(kVersion);
  w.put_varint(s.fields.size());
  // Every index entry is a name plus a fixed-width v2 entry, so the index
  // length, and with it every field's offset, is known before it is
  // written.
  std::uint64_t offset = w.size();
  for (const auto& field : s.fields) {
    ByteWriter name;
    name.put_string(field.field_name());
    offset += name.size() + kPayloadEntryBytes;
  }
  for (std::size_t i = 0; i < blobs.size(); ++i) {
    w.put_string(s.fields[i].field_name());
    w.put<std::uint64_t>(offset);
    w.put<std::uint64_t>(blobs[i].size());
    w.put<std::uint32_t>(crc32(blobs[i]));
    offset += blobs[i].size();
  }
  for (const auto& blob : blobs) w.put_bytes(blob);
  return w.take();
}

}  // namespace

std::vector<std::uint8_t> compress_snapshot(const amr::Snapshot& s,
                                            const TacConfig& cfg) {
  return write_snapshot(s, [&](const amr::AmrDataset& field) {
    return adaptive_compress(field, cfg).bytes;
  });
}

std::vector<std::uint8_t> compress_snapshot(const amr::Snapshot& s,
                                            const TacConfig& cfg,
                                            Method method) {
  const CompressorBackend& backend = backend_for(method);
  return write_snapshot(s, [&](const amr::AmrDataset& field) {
    return backend.compress(field, cfg).bytes;
  });
}

amr::Snapshot decompress_snapshot(std::span<const std::uint8_t> bytes) {
  TAC_SPAN_BYTES("snapshot.decompress", bytes.size());
  const ParsedSnapshot parsed = parse_snapshot(bytes);
  amr::Snapshot s;
  s.fields.resize(parsed.blobs.size());
  TAC_COUNTER_ADD("snapshot.fields_read", parsed.blobs.size());
  // Indexed fields are independent slices: verify and decode them through
  // the same parallel pipeline the compressor uses.
  parallel_for(
      0, parsed.blobs.size(),
      [&](std::size_t i) {
        TAC_SPAN("snapshot.field_decompress");
        verify_field(parsed, i);
        s.fields[i] = decompress_any(parsed.blobs[i]);
      },
      /*grain=*/1);
  return s;
}

bool is_compressed_snapshot(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < sizeof(std::uint32_t)) return false;
  std::uint32_t magic;
  std::memcpy(&magic, bytes.data(), sizeof(magic));
  return magic == kMagic;
}

std::vector<SnapshotFieldInfo> snapshot_fields(
    std::span<const std::uint8_t> bytes) {
  const ParsedSnapshot parsed = parse_snapshot(bytes);
  std::vector<SnapshotFieldInfo> out;
  out.reserve(parsed.blobs.size());
  for (std::size_t i = 0; i < parsed.blobs.size(); ++i) {
    SnapshotFieldInfo info;
    if (parsed.version >= 2) {
      info.name = parsed.names[i];
      info.checksum_ok = crc32(parsed.blobs[i]) == parsed.entries[i].crc32;
    } else {
      ByteReader r(parsed.blobs[i]);
      info.name = read_common_header(r).field_name;
    }
    info.bytes = parsed.blobs[i];
    out.push_back(std::move(info));
  }
  return out;
}

}  // namespace tac::core
