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
/// `decompress_field` seeks straight to its slice and checksums only it.
/// v1 snapshots (length-prefixed blobs, no index) are still decoded.
///
/// Codec profiles are per-field, not per-snapshot: each field blob is a
/// complete container whose own (v3) payload index records the profile
/// its streams were encoded under, so `compress_snapshot` threads
/// `cfg.sz.profile` through adaptive_compress and `decompress_snapshot`
/// dispatches via decompress_any — the snapshot index itself stays on
/// the 20-byte v2 entry layout.
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
  const std::size_t n = static_cast<std::size_t>(r.get_varint());
  // Bound the count before any reserve: a corrupt varint must surface as
  // a clean error, not a huge allocation. Every field costs at least one
  // blob-length byte (v1) or an empty name byte plus a fixed index entry
  // (v2).
  const std::size_t min_field_bytes =
      out.version == 1 ? 1 : 1 + kPayloadEntryBytes;
  if (n > r.remaining() / min_field_bytes)
    throw std::runtime_error(
        "snapshot container: claims " + std::to_string(n) +
        " fields but only " + std::to_string(r.remaining()) +
        " bytes remain");
  if (out.version == 1) {
    out.blobs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) out.blobs.push_back(r.get_blob());
    return out;
  }
  out.names.reserve(n);
  out.entries.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.names.push_back(r.get_string());
    const PayloadEntry e = read_payload_entry(r);
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
  std::vector<std::size_t> entry_pos;
  entry_pos.reserve(s.fields.size());
  for (const auto& field : s.fields) {
    w.put_string(field.field_name());
    entry_pos.push_back(w.reserve(kPayloadEntryBytes));
  }
  for (std::size_t i = 0; i < blobs.size(); ++i) {
    PayloadEntry e;
    e.offset = w.size();
    e.length = blobs[i].size();
    e.crc32 = crc32(blobs[i]);
    w.put_bytes(blobs[i]);
    patch_payload_entry(w, entry_pos[i], e);
  }
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

std::vector<std::string> snapshot_field_names(
    std::span<const std::uint8_t> bytes) {
  const ParsedSnapshot parsed = parse_snapshot(bytes);
  if (parsed.version >= 2) return parsed.names;
  // v1 stores no name index: the names live in each field's container
  // header.
  std::vector<std::string> names;
  names.reserve(parsed.blobs.size());
  for (const auto blob : parsed.blobs) {
    ByteReader r(blob);
    names.push_back(read_common_header(r).field_name);
  }
  return names;
}

std::span<const std::uint8_t> snapshot_field_bytes(
    std::span<const std::uint8_t> bytes, const std::string& name) {
  const ParsedSnapshot parsed = parse_snapshot(bytes);
  if (parsed.version >= 2) {
    for (std::size_t i = 0; i < parsed.names.size(); ++i) {
      if (parsed.names[i] != name) continue;
      verify_field(parsed, i);
      return parsed.blobs[i];
    }
  } else {
    for (const auto blob : parsed.blobs) {
      ByteReader r(blob);
      if (read_common_header(r).field_name == name) return blob;
    }
  }
  throw std::runtime_error("snapshot container: no field named \"" + name +
                           "\"");
}

amr::AmrDataset decompress_field(std::span<const std::uint8_t> bytes,
                                 const std::string& name) {
  return decompress_any(snapshot_field_bytes(bytes, name));
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
