#ifndef TAC_CORE_CONTAINER_HPP
#define TAC_CORE_CONTAINER_HPP

/// \file container.hpp
/// \brief Self-describing container for compressed AMR datasets.
///
/// Every compression path (TAC, the 1D/zMesh baselines, the 3D up-sampling
/// baseline) emits the same outer header — method tag, field name,
/// refinement ratio and the losslessly-stored per-level masks (the AMR
/// structure metadata real snapshot formats keep exactly) — followed by a
/// method-specific payload. `decompress_any` dispatches on the tag via the
/// CompressorBackend registry (core/backend.hpp); headers with an unknown
/// tag, a bad magic, an unsupported format version or a truncated buffer
/// are rejected with descriptive errors.
///
/// Format v2 adds a payload index between the header and the payloads:
/// every payload (one per level for TAC/1D, one for the interleaved
/// zMesh/3D streams) is described by an absolute byte offset, a length and
/// a CRC32 checksum. The index buys random access — `decompress_level`
/// reads one level in O(that level's payload) instead of O(dataset) — and
/// turns any single-byte payload corruption into a ChecksumError instead
/// of a misparse. v1 containers (no index) are still decoded.
///
/// Format v3 widens each index entry by a codec-profile byte
/// (lossless::CodecProfile): the lossless encoder family that produced
/// that payload's byte streams. Writers always declare kFast; readers
/// also accept kLegacy, from earlier writers, and reject streams whose
/// method bytes contradict the declared profile. v1/v2 containers carry
/// no profile and decode leniently.
///
/// Format v4 widens each index entry by a selector byte: the Method tag
/// of the backend that produced that payload. Fixed backends stamp their
/// own tag; the `auto` pseudo-backend (core/selector.cpp) records the
/// per-level winner its trial selection picked, and its decoder
/// dispatches each payload to the recorded backend. v1-v3 containers
/// carry no selector and decode leniently as "fixed method" (the header
/// method tag owns every payload). The byte-level layout of every
/// version is specified normatively in docs/FORMAT.md.

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "amr/dataset.hpp"
#include "common/bytes.hpp"
#include "lossless/codec.hpp"

namespace tac::core {

enum class Method : std::uint8_t {
  kTac = 0,         ///< level-wise 3D with density-adaptive pre-processing
  kOneD = 1,        ///< naive 1D baseline: each level as a 1D stream
  kZMesh = 2,       ///< zMesh reordering baseline: interleaved 1D stream
  kUpsample3D = 3,  ///< 3D baseline: up-sample to uniform, one 3D stream
  kAuto = 4,        ///< adaptive selector: per-level winner among the
                    ///< level-capable backends (core/selector.cpp); each
                    ///< payload's backend is recorded in the v4 index
};

enum class Strategy : std::uint8_t {
  kNaST = 0,
  kOpST = 1,
  kAKDTree = 2,
  kGSP = 3,
  kZF = 4,
};

[[nodiscard]] const char* to_string(Method m);
[[nodiscard]] const char* to_string(Strategy s);

/// On-disk container format version. Bumped whenever the serialized layout
/// changes; readers accept [kMinFormatVersion, kFormatVersion] and reject
/// anything newer with a descriptive error instead of misparsing it.
inline constexpr std::uint8_t kFormatVersion = 4;
inline constexpr std::uint8_t kMinFormatVersion = 1;

/// A stored payload checksum failed — the container bytes were damaged
/// after writing (bit rot, truncated copy, transmission error).
class ChecksumError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A v4 selector byte cannot be decoded: it names a method no backend is
/// registered for (a newer method set, or a damaged byte — the index is
/// not CRC-covered), a method other than a fixed container's own, or a
/// backend without a per-level decoder.
class SelectorError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Selector byte meaning "no per-payload method recorded": the payload
/// belongs to the backend named by the header's method tag. Reserved so
/// hand-written v4 indexes can stay method-agnostic; every library
/// writer stamps a concrete tag.
inline constexpr std::uint8_t kSelectorFixed = 0xFF;

/// One entry of the v2 payload index. Offsets are absolute from the first
/// container byte, so an entry can be read (and its payload fetched)
/// without parsing anything that precedes it.
struct PayloadEntry {
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  std::uint32_t crc32 = 0;
  std::uint8_t profile = 0;   ///< lossless::CodecProfile value; only
                              ///< meaningful for v3+ container entries
  std::uint8_t selector = kSelectorFixed;  ///< Method tag of the backend
                                           ///< owning this payload (v4+)
};

/// Serialized size of one v2 index entry (offset u64 + length u64 + crc
/// u32, little-endian, fixed width). Still written by the snapshot codec's
/// field index.
inline constexpr std::size_t kPayloadEntryBytes = 20;

/// v3 container entries append the codec-profile byte.
inline constexpr std::size_t kPayloadEntryV3Bytes = kPayloadEntryBytes + 1;

/// v4 container entries append the selector (per-payload method) byte.
inline constexpr std::size_t kPayloadEntryV4Bytes = kPayloadEntryV3Bytes + 1;

/// Reads one index entry as container version `version` lays it out: the
/// v2 fields, then the codec-profile byte from v3 and the selector byte
/// from v4. The snapshot codec's field index reads its entries as v2.
[[nodiscard]] inline PayloadEntry read_payload_entry(ByteReader& r,
                                                     std::uint8_t version) {
  PayloadEntry e;
  e.offset = r.get<std::uint64_t>();
  e.length = r.get<std::uint64_t>();
  e.crc32 = r.get<std::uint32_t>();
  if (version >= 3) e.profile = r.get<std::uint8_t>();
  if (version >= 4) e.selector = r.get<std::uint8_t>();
  return e;
}

/// The container's payload index: entry i covers payload i in write
/// order. TAC and the 1D baseline write one payload per level (entry i ==
/// level i); zMesh/3D write a single interleaved payload. Empty for v1
/// containers.
struct PayloadIndex {
  std::vector<PayloadEntry> entries;
};

struct CompressedAmr;  // core/tac.hpp
struct LevelPayload;   // core/backend.hpp

/// The one container writer: lays out the v4 header (method, field,
/// ratio, one amr level record per level), a payload index with one entry
/// per element of `payloads`, then the payloads in order. Entry i records
/// payload i's absolute offset, length and CRC32, the kFast codec profile
/// (lossless::default_profile(), the encoder family of every stream a
/// writer emits, the header's mask blobs included) and
/// `payloads[i].report.method` as its selector byte: the container's own
/// tag for fixed backends, the per-level winner for auto. The report sums
/// `original_bytes` from the payloads' `valid_cells`, and each level
/// report's `compressed_bytes` is its payload's length. Per-level
/// backends pass one payload per level; zMesh and 3D pass one payload that
/// interleaves every level.
[[nodiscard]] CompressedAmr write_container(
    Method method, const amr::AmrDataset& ds,
    std::vector<LevelPayload> payloads);

/// One level's structure as the header stores it: the grid extents and
/// the still-compressed bit-packed mask (a few KB even for a 256^3
/// level). Nothing here is proportional to the level's volume.
struct LevelHeader {
  Dims3 dims;
  std::vector<std::uint8_t> mask_blob;  ///< lossless::compress(pack_mask)
};

/// The decoded outer header and payload index: structure only. Parsing
/// it allocates nothing in proportion to any level's volume; the level
/// arrays a backend fills are built on demand by materialize_level /
/// materialize_skeleton.
struct CommonHeader {
  Method method = Method::kTac;
  std::uint8_t version = kFormatVersion;
  std::string field_name;
  int refinement_ratio = 2;
  std::vector<LevelHeader> levels;
  PayloadIndex index;            ///< empty for v1 containers
  std::size_t index_offset = 0;  ///< where the index starts (v2) — equals
                                 ///< payload_offset for v1
  std::size_t payload_offset = 0;  ///< first byte after header + index

  [[nodiscard]] std::size_t num_levels() const { return levels.size(); }
};

/// Parses the header and payload index. Rejects, with std::runtime_error
/// and before anything volume-sized exists, a level count the remaining
/// bytes cannot describe and level dims whose cell count (or its 9 bytes
/// per cell of data + mask) overflows. A v4 selector byte that names an
/// unregistered method, or, outside an auto container, a method other
/// than the header's, raises SelectorError naming the payload.
[[nodiscard]] CommonHeader read_common_header(ByteReader& r);

/// Builds level `l` of the header's structure through
/// amr::level_from_record, which checks the mask blob before the level is
/// allocated (std::runtime_error). Throws std::out_of_range for a level
/// the header does not have.
[[nodiscard]] amr::AmrLevel materialize_level(const CommonHeader& header,
                                              std::size_t l);

/// Every level of the header's structure (materialize_level for each),
/// as the skeleton CompressorBackend::decompress fills. The levels build
/// concurrently when level_loop_grain allows.
[[nodiscard]] amr::AmrDataset materialize_skeleton(const CommonHeader& header);

/// parallel_for grain for a loop over the header's levels on the decode
/// side: 1 (a level per chunk) when the payloads average at least
/// kMinElementsPerChunk bytes per level, else the level count (inline).
/// Payload bytes stand for the valid cells a level holds, which set the
/// cost of its mask, its page faults and its decode: a sparse container's
/// levels build and decode in less time than waking a worker takes. A v1
/// container has no index and always runs inline.
[[nodiscard]] std::size_t level_loop_grain(const CommonHeader& header);

/// The codec profile declared for payload `i`, or nullopt when the
/// container predates per-payload profiles (v1/v2) — callers then decode
/// leniently via the method byte of each stream.
[[nodiscard]] std::optional<lossless::CodecProfile> payload_profile(
    const CommonHeader& header, std::size_t i);

/// The backend method recorded for payload `i`, or nullopt when the
/// container predates per-payload selectors (v1-v3) or the entry carries
/// the reserved kSelectorFixed byte — either way the payload belongs to
/// the header's method tag ("fixed method" lenient decode).
[[nodiscard]] std::optional<Method> payload_method(const CommonHeader& header,
                                                   std::size_t i);

/// Reads only the method tag (cheap sniffing). Throws on bad magic, but
/// also on an unsupported version or unregistered tag — use is_container
/// to ask only "does the magic match".
[[nodiscard]] Method peek_method(std::span<const std::uint8_t> bytes);

/// True when `bytes` starts with the container magic — cheap format
/// sniffing that, unlike peek_method, never rejects a damaged container.
[[nodiscard]] bool is_container(std::span<const std::uint8_t> bytes);

/// Verifies index entry `i` against the container bytes: the range must be
/// in bounds (std::runtime_error otherwise) and its CRC32 must match
/// (ChecksumError otherwise).
void verify_payload(std::span<const std::uint8_t> container,
                    const PayloadIndex& index, std::size_t i);

/// Verifies every entry of the index. No-op for an empty (v1) index.
void verify_payloads(std::span<const std::uint8_t> container,
                     const PayloadIndex& index);

}  // namespace tac::core

#endif  // TAC_CORE_CONTAINER_HPP
