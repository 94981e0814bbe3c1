#ifndef TAC_AMR_SNAPSHOT_HPP
#define TAC_AMR_SNAPSHOT_HPP

/// \file snapshot.hpp
/// \brief Multi-field timestep snapshots.
///
/// AMR codes dump every field of a timestep together (Nyx: six fields on
/// one grid hierarchy). A Snapshot bundles the per-field datasets. The
/// compressed form is a field index followed by one complete container
/// per field, each with its own level records, so every field carries
/// its own copy of the shared refinement structure (docs/FORMAT.md).

#include <string>
#include <vector>

#include "amr/dataset.hpp"
#include "sz/config.hpp"

namespace tac::amr {

struct Snapshot {
  std::vector<AmrDataset> fields;

  /// Empty string if all fields share identical level structure (masks
  /// and extents); otherwise a description of the first mismatch.
  [[nodiscard]] std::string validate_shared_structure() const;
};

[[nodiscard]] std::vector<std::uint8_t> snapshot_to_bytes(const Snapshot& s);
[[nodiscard]] Snapshot snapshot_from_bytes(
    std::span<const std::uint8_t> bytes);

void save_snapshot(const std::string& path, const Snapshot& s);
[[nodiscard]] Snapshot load_snapshot(const std::string& path);

}  // namespace tac::amr

namespace tac::core {
struct TacConfig;                       // forward; defined in core/tac.hpp
enum class Method : std::uint8_t;       // forward; defined in core/container.hpp

/// Compresses every field of a snapshot with the adaptively selected
/// method (TAC or 3D baseline, §4.4) under one configuration. The
/// container is self-describing; decompress with `decompress_snapshot`.
[[nodiscard]] std::vector<std::uint8_t> compress_snapshot(
    const amr::Snapshot& s, const TacConfig& cfg);

/// Like the two-argument overload, but compresses every field with the
/// named registered backend instead of the §4.4 density rule. With
/// Method::kAuto each field runs the per-level trial selection
/// independently (core/selector.hpp), so the snapshot records per-field,
/// per-level winners in each field container's v4 index.
[[nodiscard]] std::vector<std::uint8_t> compress_snapshot(
    const amr::Snapshot& s, const TacConfig& cfg, Method method);

[[nodiscard]] amr::Snapshot decompress_snapshot(
    std::span<const std::uint8_t> bytes);

/// Decompresses one field of a compressed snapshot by name. v2 snapshots
/// carry a per-field index, so only that field's bytes are checksummed and
/// decoded — O(field), not O(snapshot); v1 snapshots are scanned. Throws
/// std::runtime_error when no field has that name, core::ChecksumError on
/// payload corruption.
[[nodiscard]] amr::AmrDataset decompress_field(
    std::span<const std::uint8_t> bytes, const std::string& name);

/// The raw container bytes of one field inside a compressed snapshot
/// (checksum-verified for v2). The span aliases `bytes` — it is valid only
/// while the snapshot buffer lives. Feed it to decompress_any /
/// decompress_level for random access inside the field.
[[nodiscard]] std::span<const std::uint8_t> snapshot_field_bytes(
    std::span<const std::uint8_t> bytes, const std::string& name);

/// Field names of a compressed snapshot, in storage order (from the v2
/// index, or the per-field headers for v1).
[[nodiscard]] std::vector<std::string> snapshot_field_names(
    std::span<const std::uint8_t> bytes);

/// True when `bytes` starts with the compressed-snapshot magic — cheap
/// format sniffing for tools that accept both single-field containers
/// and snapshots.
[[nodiscard]] bool is_compressed_snapshot(
    std::span<const std::uint8_t> bytes);

/// One field of a compressed snapshot as seen by a single index parse:
/// the stored name, the raw container slice (aliases the snapshot
/// buffer), and whether its stored checksum matches (always true for v1,
/// which stores none). Unlike snapshot_field_bytes this never throws on a
/// bad checksum, so tools can report per-field status.
struct SnapshotFieldInfo {
  std::string name;
  std::span<const std::uint8_t> bytes;
  bool checksum_ok = true;
};

/// All fields of a compressed snapshot from one parse — O(snapshot)
/// total, where per-name lookups through snapshot_field_bytes would be
/// O(fields^2).
[[nodiscard]] std::vector<SnapshotFieldInfo> snapshot_fields(
    std::span<const std::uint8_t> bytes);
}  // namespace tac::core

#endif  // TAC_AMR_SNAPSHOT_HPP
