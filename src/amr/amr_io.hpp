#ifndef TAC_AMR_AMR_IO_HPP
#define TAC_AMR_AMR_IO_HPP

/// \file amr_io.hpp
/// \brief Binary snapshot serialization for AMR datasets.
///
/// The structure (masks) is stored losslessly — as AMR snapshot formats do
/// — with bit-packing plus the generic lossless codec; values are stored as
/// raw doubles over valid cells only.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "amr/dataset.hpp"
#include "common/bytes.hpp"

namespace tac::amr {

[[nodiscard]] std::vector<std::uint8_t> dataset_to_bytes(const AmrDataset& ds);
[[nodiscard]] AmrDataset dataset_from_bytes(
    std::span<const std::uint8_t> bytes);

void save_dataset(const std::string& path, const AmrDataset& ds);
[[nodiscard]] AmrDataset load_dataset(const std::string& path);

/// Bit-packs a 0/1 mask LSB-first, the layout of a level record's mask.
[[nodiscard]] std::vector<std::uint8_t> pack_mask(
    std::span<const std::uint8_t> mask);
[[nodiscard]] std::vector<std::uint8_t> unpack_mask(
    std::span<const std::uint8_t> packed, std::size_t count);

/// unpack_mask straight into caller storage (e.g. a fresh AmrLevel's
/// mask). `out` must arrive zeroed: set bits become 1, and runs of 64
/// clear bits are skipped without a write, so the untouched pages of a
/// sparse mask never become resident. Throws if `packed` holds fewer than
/// ceil(out.size()/8) bytes.
void unpack_mask_into(std::span<const std::uint8_t> packed,
                      std::span<std::uint8_t> out);

/// The byte offsets, from an array's first byte, of the huge-page runs
/// worth hinting in an array that is written only at the valid cells of
/// `packed` (bit-packed LSB-first, one bit per cell, as pack_mask writes
/// it). The array holds `cells` cells of `cell_bytes` bytes each and its
/// first byte sits at address `base`. A run is a `run_bytes`-aligned range
/// of the address space wholly inside the array; it qualifies when at
/// least 7/8 of its `page_bytes` pages hold a valid cell, so a hinted run
/// grows resident memory by at most 1/8 over the base pages its writers
/// would touch anyway. Partial runs at either end never qualify. A page of
/// `mask` (cell_bytes 1) is touched exactly when one of its 64-cell packed
/// words is nonzero, as unpack_mask_into skips clear words. The scan reads
/// one packed word at a time and gives up on a run once more than 1/8 of
/// its pages are empty, so a sparse level costs a few loads per page.
/// Returns nothing unless `base` is page-aligned and a page holds whole
/// 64-cell words. The sizes are parameters so the rule does not depend on
/// the host; level_from_record passes the host's.
[[nodiscard]] std::vector<std::size_t> dense_page_runs(
    std::span<const std::uint8_t> packed, std::size_t cells,
    std::size_t cell_bytes, std::uintptr_t base, std::size_t page_bytes,
    std::size_t run_bytes);

/// A level record: the structure of one level, laid out the same way in
/// this file format and in the compression container header. It is the
/// extents as three varints, then the length-prefixed mask blob,
/// lossless::compress(pack_mask(mask)). `mask_blob` views the bytes the
/// record was read from.
struct LevelRecord {
  Dims3 dims;
  std::span<const std::uint8_t> mask_blob;
};

/// Fewest bytes a level record takes: three one-byte varints and an empty
/// blob's length.
inline constexpr std::size_t kMinLevelRecordBytes = 4;

/// Appends `lv`'s level record to `w`.
void write_level_record(ByteWriter& w, const AmrLevel& lv);

/// Reads the level record of level `level` and throws std::runtime_error,
/// prefixed with `context`, when the cell count or the bytes a
/// materialized level of that many cells needs (a double plus a mask byte
/// each) overflows. Nothing volume-sized is allocated.
[[nodiscard]] LevelRecord read_level_record(ByteReader& r, std::size_t level,
                                            const char* context);

/// The one builder of a level from its record (container level skeletons
/// and .amr loads): decompresses the mask blob and checks that it holds
/// ceil(volume/8) bytes before the level is allocated (std::runtime_error
/// naming `context` and `level` otherwise). Then it makes zero data and
/// mask arrays, hints huge pages on the dense_page_runs of each, and
/// unpacks the mask into them.
[[nodiscard]] AmrLevel level_from_record(const LevelRecord& rec,
                                         std::size_t level,
                                         const char* context);

}  // namespace tac::amr

#endif  // TAC_AMR_AMR_IO_HPP
