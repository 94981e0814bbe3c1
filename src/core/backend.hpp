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
/// Contract: `compress` hands its payloads, which only this backend can
/// read, to `compress_payloads` (or `compress_per_level`) under its own
/// tag, which writes them with `write_container` (core/container.hpp);
/// `decompress` receives the reader positioned at the first payload plus
/// the structural skeleton decoded from the header, and must fill every
/// level's valid cells. Levels arrive zero-filled, so
/// a decoder writes valid cells only: empty cells keep their +0.0, and the
/// pages of a sparse level that hold no valid cell are never touched
/// (their lazily zeroed memory never becomes resident). Backends must be
/// stateless and thread-safe — the snapshot codec compresses fields
/// concurrently through one shared instance.

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "core/tac.hpp"

namespace tac::core {

/// One payload of a container: a level encoded standalone by a backend —
/// the unit the auto-selector stitches mixed-method containers out of
/// (see core/selector.cpp) — or the one payload zMesh/3D interleave every
/// level into. `report.method` becomes the payload's selector byte.
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
  /// payload's lossless streams must decode under. The default is
  /// decompress_per_level, the reader of every per-level backend; a
  /// backend whose payloads are not one per level overrides it.
  [[nodiscard]] virtual amr::AmrDataset decompress(
      ByteReader& r, amr::AmrDataset skeleton,
      const CommonHeader& header) const;

  /// True when this backend can encode and decode a single level as a
  /// standalone payload (the `auto` pseudo-backend only considers such
  /// backends as candidates). Backends whose single payload interleaves
  /// all levels (zMesh, 3D) return the default false.
  [[nodiscard]] virtual bool supports_level_payloads() const { return false; }

  /// Encodes one level as a standalone payload: exactly the payload this
  /// backend's compress() writes for `lv` when it is level
  /// `level` of a dataset compressed under `cfg`, so a container stitched
  /// from such payloads (selector byte = this backend's tag) decodes
  /// through decompress_level_payload(). The report's
  /// valid_cells must count the level's valid cells: the auto backend
  /// sums them into original_bytes. Only called when
  /// supports_level_payloads() is true; the default throws.
  [[nodiscard]] virtual LevelPayload compress_level_payload(
      const amr::AmrLevel& lv, std::size_t level, const TacConfig& cfg) const;

  /// Decodes one payload produced by compress_level_payload() into the
  /// skeleton level `lv` (mask set, data zeroed). `r` spans exactly the
  /// payload bytes; `profile` is the codec profile recorded in its index
  /// entry, or nullopt for a v1/v2 container (lenient decode). Only
  /// called when supports_level_payloads() is true; the default throws.
  virtual void decompress_level_payload(
      ByteReader& r, amr::AmrLevel& lv,
      std::optional<lossless::CodecProfile> profile) const;
};

/// The writer of every backend: encodes payloads [0, npayloads) through
/// `encode(i)` concurrently, with each level's mask blob (amr::mask_blob)
/// packed beside them when the dataset is at least 1/64 valid and after
/// them on the calling thread otherwise, then hands both to
/// write_container, the payloads in order. The container is
/// byte-identical at any thread count.
[[nodiscard]] CompressedAmr compress_payloads(
    Method method, const amr::AmrDataset& ds, std::size_t npayloads,
    const std::function<LevelPayload(std::size_t i)>& encode);

/// compress_payloads with one payload per level, payload l from
/// `encode(l)`: the writer of every per-level backend (TAC, 1D, auto).
[[nodiscard]] CompressedAmr compress_per_level(
    Method method, const amr::AmrDataset& ds,
    const std::function<LevelPayload(std::size_t level)>& encode);

/// The reader of every per-level container (TAC, 1D, auto): decodes
/// payload l into `skeleton.level(l)` through decompress_level_payload of
/// the backend that owns it, `payload_method(header, l)` when recorded and
/// `header.method` otherwise. `r` spans the whole container. When the
/// index maps payloads to levels (v2+), each payload decodes concurrently
/// from the byte range its index entry gives, so a payload that ends
/// early fails its own decode; the caller has verified the payloads'
/// checksums (decompress_any, decompress_level). A v1 container has no
/// index: its payloads are read in order from `r`, which must be
/// positioned at the first one. Throws SelectorError naming the payload,
/// before anything is decoded, when its owner has no per-level decoder
/// (an `auto` container without selector bytes).
[[nodiscard]] amr::AmrDataset decompress_per_level(ByteReader& r,
                                                   amr::AmrDataset skeleton,
                                                   const CommonHeader& header);

/// Decodes only `level` of a container into a standalone AmrLevel;
/// `header` must be the result of read_common_header over `container`.
/// When the index maps payloads to levels and payload `level`'s owner
/// supports per-level payloads, only that payload is verified and decoded
/// and only that level is built (materialize_level): O(level). Otherwise
/// (v1 containers, the interleaved zMesh/3D payloads, out-of-tree
/// backends without per-level hooks) every payload is verified and the
/// whole container decoded: O(dataset). Throws std::out_of_range for a
/// level the container does not have.
[[nodiscard]] amr::AmrLevel decompress_level(
    std::span<const std::uint8_t> container, const CommonHeader& header,
    std::size_t level);

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
