#ifndef TAC_AMR_AMR_IO_HPP
#define TAC_AMR_AMR_IO_HPP

/// \file amr_io.hpp
/// \brief Binary snapshot serialization for AMR datasets, and the one file
/// reader and writer of the library and its tools.
///
/// The structure (masks) is stored losslessly — as AMR snapshot formats do
/// — with bit-packing plus the generic lossless codec; values are stored as
/// raw doubles over valid cells only.

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "amr/dataset.hpp"
#include "common/bytes.hpp"

namespace tac::amr {

/// A file that cannot be opened, sized, read or written in full — told
/// apart from bytes that do not decode, which raise other errors.
struct IoError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// The bytes of the file at `path`, read in bounded chunks into one buffer
/// sized once from the file's size. Throws IoError when the file cannot be
/// opened or sized (a directory cannot) or ends before that size.
[[nodiscard]] std::vector<std::uint8_t> read_file(const std::string& path);

/// Writes `bytes` to `path`, replacing any file there, in bounded chunks.
/// Throws IoError when the file cannot be opened or a write fails.
void write_file(const std::string& path, std::span<const std::uint8_t> bytes);

[[nodiscard]] std::vector<std::uint8_t> dataset_to_bytes(const AmrDataset& ds);
/// Parses an .amr file's bytes. Throws std::runtime_error (StructureError
/// for a refinement ratio its level extents contradict) on bytes that do
/// not hold a dataset.
[[nodiscard]] AmrDataset dataset_from_bytes(
    std::span<const std::uint8_t> bytes);

/// write_file of dataset_to_bytes, and dataset_from_bytes of read_file.
void save_dataset(const std::string& path, const AmrDataset& ds);
[[nodiscard]] AmrDataset load_dataset(const std::string& path);

/// Bit-packs a 0/1 mask LSB-first, the layout of a level record's mask.
[[nodiscard]] std::vector<std::uint8_t> pack_mask(
    std::span<const std::uint8_t> mask);
[[nodiscard]] std::vector<std::uint8_t> unpack_mask(
    std::span<const std::uint8_t> packed, std::size_t count);

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

/// `lv`'s mask as its level record stores it:
/// lossless::compress(pack_mask(mask)).
[[nodiscard]] std::vector<std::uint8_t> mask_blob(const AmrLevel& lv);

/// Appends the level record `rec` to `w`.
void write_level_record(ByteWriter& w, const LevelRecord& rec);

/// Appends `lv`'s level record to `w`, its mask blob made by mask_blob.
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
