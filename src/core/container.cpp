#include "core/container.hpp"

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "amr/amr_io.hpp"
#include "common/crc32.hpp"
#include "common/parallel.hpp"
#include "common/telemetry.hpp"
#include "core/backend.hpp"
#include "lossless/codec.hpp"

namespace tac::core {
namespace {
constexpr std::uint32_t kMagic = 0x43434154;  // "TACC"

// magic + version + method — the fixed prefix every container starts with.
constexpr std::size_t kHeaderPrefixBytes =
    sizeof(std::uint32_t) + 2 * sizeof(std::uint8_t);

std::string hex32(std::uint32_t v) {
  static const char* digits = "0123456789abcdef";
  std::string s = "0x";
  for (int shift = 28; shift >= 0; shift -= 4)
    s.push_back(digits[(v >> shift) & 0xFu]);
  return s;
}

struct HeaderPrefix {
  Method method;
  std::uint8_t version;
};

/// Decodes the fixed header prefix with descriptive errors: wrong magic,
/// unsupported version and unregistered method tags each say what was
/// found, and short buffers never read past the span.
HeaderPrefix read_header_prefix(ByteReader& r) {
  if (r.remaining() < kHeaderPrefixBytes)
    throw std::runtime_error(
        "container: truncated header (" + std::to_string(r.remaining()) +
        " bytes, need at least " + std::to_string(kHeaderPrefixBytes) + ")");
  if (r.get<std::uint32_t>() != kMagic)
    throw std::runtime_error("container: bad magic (not a TAC container)");
  const auto version = r.get<std::uint8_t>();
  if (version < kMinFormatVersion || version > kFormatVersion)
    throw std::runtime_error(
        "container: unsupported format version " + std::to_string(version) +
        " (this build reads versions " + std::to_string(kMinFormatVersion) +
        ".." + std::to_string(kFormatVersion) + ")");
  const auto tag = r.get<std::uint8_t>();
  if (find_backend(static_cast<Method>(tag)) == nullptr)
    throw std::runtime_error(
        "container: unknown method tag " + std::to_string(tag) +
        " (no registered compressor backend)");
  return {static_cast<Method>(tag), version};
}

/// materialize_level without its span, so materialize_skeleton records one
/// span for the whole skeleton.
amr::AmrLevel build_level(const CommonHeader& header, std::size_t l) {
  if (l >= header.num_levels())
    throw std::out_of_range(
        "container: level " + std::to_string(l) +
        " out of range (container has " +
        std::to_string(header.num_levels()) + " levels)");
  const LevelHeader& lh = header.levels[l];
  return amr::level_from_record({lh.dims, lh.mask_blob}, l, "container");
}

}  // namespace

const char* to_string(Method m) {
  switch (m) {
    case Method::kTac: return "TAC";
    case Method::kOneD: return "1D";
    case Method::kZMesh: return "zMesh";
    case Method::kUpsample3D: return "3D";
    case Method::kAuto: return "auto";
  }
  return "?";
}

const char* to_string(Strategy s) {
  switch (s) {
    case Strategy::kNaST: return "NaST";
    case Strategy::kOpST: return "OpST";
    case Strategy::kAKDTree: return "AKDTree";
    case Strategy::kGSP: return "GSP";
    case Strategy::kZF: return "ZF";
  }
  return "?";
}

CompressedAmr write_container(Method method, const amr::AmrDataset& ds,
                              std::vector<LevelPayload> payloads) {
  ByteWriter w;
  {
    TAC_SPAN("container.header_write");
    w.put<std::uint32_t>(kMagic);
    w.put<std::uint8_t>(kFormatVersion);
    w.put<std::uint8_t>(static_cast<std::uint8_t>(method));
    w.put_string(ds.field_name());
    w.put_varint(static_cast<std::uint64_t>(ds.refinement_ratio()));
    w.put_varint(ds.num_levels());
    for (std::size_t l = 0; l < ds.num_levels(); ++l)
      amr::write_level_record(w, ds.level(l));
  }
  // The index: every payload's length is known, so each entry is written
  // whole, its offset counted from the index end.
  w.put_varint(payloads.size());
  const std::uint64_t payload_offset =
      w.size() + payloads.size() * kPayloadEntryV4Bytes;
  std::uint64_t offset = payload_offset;
  for (const LevelPayload& p : payloads) {
    w.put<std::uint64_t>(offset);
    w.put<std::uint64_t>(p.bytes.size());
    w.put<std::uint32_t>(crc32(p.bytes));
    w.put<std::uint8_t>(static_cast<std::uint8_t>(lossless::default_profile()));
    w.put<std::uint8_t>(static_cast<std::uint8_t>(p.report.method));
    offset += p.bytes.size();
  }
  TAC_COUNTER_ADD("container.payloads_written", payloads.size());
  TAC_COUNTER_ADD("container.payload_bytes_written", offset - payload_offset);
  CompressedAmr out;
  out.report.method = method;
  for (LevelPayload& p : payloads) {
    w.put_bytes(p.bytes);
    p.report.compressed_bytes = p.bytes.size();
    out.report.original_bytes += p.report.valid_cells * sizeof(double);
    out.report.levels.push_back(std::move(p.report));
  }
  out.bytes = w.take();
  out.report.compressed_bytes = out.bytes.size();
  return out;
}

CommonHeader read_common_header(ByteReader& r) {
  TAC_SPAN("container.header_read");
  CommonHeader h;
  const HeaderPrefix prefix = read_header_prefix(r);
  h.method = prefix.method;
  h.version = prefix.version;
  h.field_name = r.get_string();
  // The header is not checksummed, so the ratio is checked against the
  // level extents before anything indexes a level by it.
  h.refinement_ratio = amr::checked_ratio(r.get_varint(), "container");
  h.levels.resize(
      r.get_count("container: level count", amr::kMinLevelRecordBytes));
  for (std::size_t l = 0; l < h.levels.size(); ++l) {
    const amr::LevelRecord rec = amr::read_level_record(r, l, "container");
    if (l > 0)
      amr::check_level_extents(h.levels[l - 1].dims, rec.dims,
                               h.refinement_ratio, l, "container");
    h.levels[l].dims = rec.dims;
    h.levels[l].mask_blob.assign(rec.mask_blob.begin(), rec.mask_blob.end());
  }
  h.index_offset = r.position();
  if (h.version >= 2) {
    const std::size_t entry_bytes = h.version >= 4   ? kPayloadEntryV4Bytes
                                    : h.version >= 3 ? kPayloadEntryV3Bytes
                                                     : kPayloadEntryBytes;
    const std::size_t n =
        r.get_count("container: payload index entry count", entry_bytes);
    h.index.entries.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const PayloadEntry e = read_payload_entry(r, h.version);
      if (h.version >= 3 &&
          e.profile > static_cast<std::uint8_t>(lossless::CodecProfile::kFast))
        throw lossless::ProfileError(
            "container: payload " + std::to_string(i) +
            " declares unknown codec profile byte " +
            std::to_string(e.profile));
      if (h.version >= 4 && e.selector != kSelectorFixed) {
        if (find_backend(static_cast<Method>(e.selector)) == nullptr)
          throw SelectorError(
              "container: payload " + std::to_string(i) +
              " declares unknown selector byte " +
              std::to_string(e.selector) +
              " (no registered compressor backend)");
        // Every reader follows the selector byte, so in a fixed-method
        // container it must name the container's own method.
        if (h.method != Method::kAuto &&
            e.selector != static_cast<std::uint8_t>(h.method))
          throw SelectorError(
              "container: payload " + std::to_string(i) +
              " declares selector byte " + std::to_string(e.selector) +
              " but the container method is " + to_string(h.method) +
              " (only auto containers mix methods)");
      }
      h.index.entries.push_back(e);
    }
  }
  h.payload_offset = r.position();
  return h;
}

amr::AmrLevel materialize_level(const CommonHeader& header, std::size_t l) {
  TAC_SPAN("container.level_skeleton");
  return build_level(header, l);
}

amr::AmrDataset materialize_skeleton(const CommonHeader& header) {
  TAC_SPAN("container.level_skeleton");
  // Levels decompress their masks and unpack them independently.
  std::vector<amr::AmrLevel> levels(header.num_levels());
  parallel_for(
      0, levels.size(),
      [&](std::size_t l) { levels[l] = build_level(header, l); },
      level_loop_grain(header));
  return amr::AmrDataset(header.field_name, std::move(levels),
                         header.refinement_ratio);
}

std::size_t level_loop_grain(const CommonHeader& header) {
  const std::size_t n = header.num_levels();
  std::uint64_t bytes = 0;  // a forged index may wrap this: it costs speed
  for (const PayloadEntry& e : header.index.entries) bytes += e.length;
  return n == 0 || bytes / n >= kMinElementsPerChunk ? 1 : n;
}

std::optional<lossless::CodecProfile> payload_profile(
    const CommonHeader& header, std::size_t i) {
  if (header.version < 3 || i >= header.index.entries.size())
    return std::nullopt;
  return static_cast<lossless::CodecProfile>(header.index.entries[i].profile);
}

std::optional<Method> payload_method(const CommonHeader& header,
                                     std::size_t i) {
  if (header.version < 4 || i >= header.index.entries.size())
    return std::nullopt;
  const std::uint8_t selector = header.index.entries[i].selector;
  if (selector == kSelectorFixed) return std::nullopt;
  return static_cast<Method>(selector);
}

Method peek_method(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  return read_header_prefix(r).method;
}

bool is_container(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < sizeof(std::uint32_t)) return false;
  std::uint32_t magic;
  std::memcpy(&magic, bytes.data(), sizeof(magic));
  return magic == kMagic;
}

void verify_payload(std::span<const std::uint8_t> container,
                    const PayloadIndex& index, std::size_t i) {
  const PayloadEntry& e = index.entries.at(i);
  if (e.offset > container.size() ||
      e.length > container.size() - e.offset)
    throw std::runtime_error(
        "container: payload " + std::to_string(i) +
        " index entry [offset " + std::to_string(e.offset) + ", length " +
        std::to_string(e.length) + "] exceeds the " +
        std::to_string(container.size()) + "-byte container");
  TAC_SPAN_BYTES("container.crc_verify", e.length);
  TAC_COUNTER_ADD("container.crc_bytes_verified", e.length);
  const std::uint32_t actual = crc32(container.subspan(
      static_cast<std::size_t>(e.offset), static_cast<std::size_t>(e.length)));
  if (actual != e.crc32) {
    TAC_COUNTER_ADD("container.checksum_failures", 1);
    throw ChecksumError("container: payload " + std::to_string(i) +
                        " checksum mismatch (stored " + hex32(e.crc32) +
                        ", computed " + hex32(actual) + ")");
  }
}

void verify_payloads(std::span<const std::uint8_t> container,
                     const PayloadIndex& index) {
  for (std::size_t i = 0; i < index.entries.size(); ++i)
    verify_payload(container, index, i);
}

}  // namespace tac::core
