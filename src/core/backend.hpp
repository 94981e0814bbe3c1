#ifndef TAC_CORE_BACKEND_HPP
#define TAC_CORE_BACKEND_HPP

/// \file backend.hpp
/// \brief The pluggable compression-backend interface and its registry.
///
/// Every compression method — TAC itself and the §4.1 baselines today,
/// MGARD-style or TAC+ tree-partitioning backends tomorrow — implements
/// CompressorBackend and registers under its Method tag. Containers are
/// self-describing: `decompress_any` reads the common header and hands the
/// payload to whichever backend owns the tag, so adding a method never
/// touches existing call sites.
///
/// Contract: `compress` writes the common outer header (via
/// `write_common_header` with this backend's tag) followed by a payload
/// only this backend can read; `decompress` receives the reader positioned
/// at that payload plus the structural skeleton decoded from the header,
/// and must fill every level's valid cells. Levels arrive zero-filled, so
/// a decoder writes valid cells only: empty cells keep their +0.0, and the
/// pages of a sparse level that hold no valid cell are never touched
/// (their lazily zeroed memory never becomes resident). Backends must be
/// stateless and thread-safe — the snapshot codec compresses fields
/// concurrently through one shared instance.

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "core/tac.hpp"

namespace tac::core {

/// One level encoded standalone by a backend — the unit the auto-selector
/// stitches mixed-method containers out of (see core/selector.hpp).
struct LevelPayload {
  std::vector<std::uint8_t> bytes;
  LevelReport report;
};

class CompressorBackend {
 public:
  virtual ~CompressorBackend() = default;

  /// The container tag this backend owns.
  [[nodiscard]] virtual Method method() const = 0;

  /// Human-readable name (diagnostics, tooling).
  [[nodiscard]] virtual const char* name() const = 0;

  /// Compresses a dataset into a self-describing container. Baseline
  /// backends read only `cfg.sz`; TAC-family backends use the full config.
  [[nodiscard]] virtual CompressedAmr compress(const amr::AmrDataset& ds,
                                               const TacConfig& cfg) const = 0;

  /// Decodes this backend's payload into the skeleton (structure decoded
  /// from the common header, data arrays zeroed) and returns the filled
  /// dataset. The caller builds the skeleton once per decode
  /// (materialize_skeleton) and hands it over by value. `r` is positioned
  /// immediately after the common header (and, for v2+ containers, after
  /// the payload index). `header` supplies the payload index — in
  /// particular `payload_profile(header, i)`, the codec profile each
  /// payload's lossless streams must decode under.
  [[nodiscard]] virtual amr::AmrDataset decompress(
      ByteReader& r, amr::AmrDataset skeleton,
      const CommonHeader& header) const = 0;

  /// Decodes only `level` of the container into a standalone AmrLevel.
  /// `header` must be the result of read_common_header over `container`.
  ///
  /// The base implementation verifies every indexed payload, decodes the
  /// whole container and keeps the requested level — correct for any
  /// backend, O(dataset). Backends that store one payload per level (TAC,
  /// 1D) override it to verify and visit only that level's indexed bytes
  /// and to build only that level (materialize_level), making partial
  /// decompression O(level). Backends whose single payload
  /// interleaves all levels (zMesh, 3D) cannot do better than the
  /// fallback and simply inherit it.
  [[nodiscard]] virtual amr::AmrLevel decompress_level(
      std::span<const std::uint8_t> container, const CommonHeader& header,
      std::size_t level) const;

  /// True when this backend can encode and decode a single level as a
  /// standalone payload (the `auto` pseudo-backend only considers such
  /// backends as candidates). Backends whose single payload interleaves
  /// all levels (zMesh, 3D) return the default false.
  [[nodiscard]] virtual bool supports_level_payloads() const { return false; }

  /// Encodes one level as a standalone payload: exactly the bytes this
  /// backend would write between begin_payload()/end_payload() for `lv`
  /// when it is level `level` of a dataset compressed under `cfg` — so a
  /// container stitched from such payloads (selector byte = this backend's
  /// tag) decodes through decompress_level_payload(). The report's
  /// valid_cells must count the level's valid cells: the auto backend
  /// sums them into original_bytes. Only called when
  /// supports_level_payloads() is true; the default throws.
  [[nodiscard]] virtual LevelPayload compress_level_payload(
      const amr::AmrLevel& lv, std::size_t level, const TacConfig& cfg) const;

  /// Decodes one payload produced by compress_level_payload() into the
  /// skeleton level `lv` (mask set, data zeroed). `r` spans exactly the
  /// payload bytes; `profile` is the codec profile recorded in its index
  /// entry. Only called when supports_level_payloads() is true; the
  /// default throws.
  virtual void decompress_level_payload(ByteReader& r, amr::AmrLevel& lv,
                                        lossless::CodecProfile profile) const;
};

/// The container writer of every built-in per-level backend (TAC, 1D,
/// auto). Encodes the levels concurrently through `encode(l)`, then writes
/// the common header under `method` and one indexed payload per level in
/// level order, sealing payload l with `levels[l].report.method` as its
/// selector byte (the container's own tag for fixed backends, the winner
/// for auto). The container is byte-identical at any thread count. The
/// report sums `original_bytes` from the levels' `valid_cells`, and each
/// level's `compressed_bytes` is its payload's index-entry length.
[[nodiscard]] CompressedAmr compress_per_level(
    Method method, const amr::AmrDataset& ds,
    const std::function<LevelPayload(std::size_t level)>& encode);

/// Registers a backend under its Method tag. Throws std::invalid_argument
/// on a duplicate tag or a null backend. Thread-safe.
void register_backend(std::unique_ptr<CompressorBackend> backend);

/// The backend owning `m`. Throws std::runtime_error with the offending
/// tag value when nothing is registered. Thread-safe.
[[nodiscard]] const CompressorBackend& backend_for(Method m);

/// Like backend_for, but returns nullptr instead of throwing.
[[nodiscard]] const CompressorBackend* find_backend(Method m) noexcept;

/// Tags with a registered backend, ascending.
[[nodiscard]] std::vector<Method> registered_methods();

namespace detail {
// Built-in backend factories (defined next to each method's
// implementation); the registry installs them on first use.
[[nodiscard]] std::unique_ptr<CompressorBackend> make_tac_backend();
[[nodiscard]] std::unique_ptr<CompressorBackend> make_oned_backend();
[[nodiscard]] std::unique_ptr<CompressorBackend> make_zmesh_backend();
[[nodiscard]] std::unique_ptr<CompressorBackend> make_upsample3d_backend();
[[nodiscard]] std::unique_ptr<CompressorBackend> make_auto_backend();

/// Rejects a dataset/config pair the TAC-family backends (TAC, auto)
/// cannot encode: an empty dataset, a `level_error_bounds` list that is
/// neither empty nor one bound per level, and a zero `block_size`.
/// Messages start with `who` (the backend's entry point). Throws
/// std::invalid_argument.
void check_level_config(const char* who, const amr::AmrDataset& ds,
                        const TacConfig& cfg);
}  // namespace detail

}  // namespace tac::core

#endif  // TAC_CORE_BACKEND_HPP
