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

namespace tac::amr {

struct Snapshot {
  std::vector<AmrDataset> fields;

  /// Empty string if all fields share identical level structure (masks
  /// and extents); otherwise a description of the first mismatch.
  [[nodiscard]] std::string validate_shared_structure() const;
};

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
/// independently (core/selector.cpp), so the snapshot records per-field,
/// per-level winners in each field container's v4 index.
[[nodiscard]] std::vector<std::uint8_t> compress_snapshot(
    const amr::Snapshot& s, const TacConfig& cfg, Method method);

[[nodiscard]] amr::Snapshot decompress_snapshot(
    std::span<const std::uint8_t> bytes);

/// True when `bytes` starts with the compressed-snapshot magic — cheap
/// format sniffing for tools that accept both single-field containers
/// and snapshots.
[[nodiscard]] bool is_compressed_snapshot(
    std::span<const std::uint8_t> bytes);

/// One field of a compressed snapshot as seen by a single index parse:
/// the stored name, the raw container slice, and whether its stored
/// checksum matches (always true for v1, which stores none). The slice
/// aliases the snapshot buffer, so it is valid only while that buffer
/// lives; feed it to decompress_any or decompress_level for the field's
/// data. A bad checksum is reported here, not thrown, so tools can show
/// per-field status.
struct SnapshotFieldInfo {
  std::string name;
  std::span<const std::uint8_t> bytes;
  bool checksum_ok = true;
};

/// Every field of a compressed snapshot, in storage order, from one parse
/// of its index (v2) or of each field's container header (v1, which keeps
/// no name index). Throws std::runtime_error when the snapshot index is
/// malformed.
[[nodiscard]] std::vector<SnapshotFieldInfo> snapshot_fields(
    std::span<const std::uint8_t> bytes);
}  // namespace tac::core

#endif  // TAC_AMR_SNAPSHOT_HPP
