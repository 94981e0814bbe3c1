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

/// Bit-packs a 0/1 mask; helper shared with the compression container.
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

/// Reads one level's extents — three varints, the layout both this file
/// format and the compression container use — and throws
/// std::runtime_error, prefixed with `context`, when the cell count or
/// the bytes a materialized level of that many cells needs (a double plus
/// a mask byte each) overflows. Callers run it before allocating a level.
[[nodiscard]] Dims3 read_level_dims(ByteReader& r, std::size_t level,
                                    const char* context);

}  // namespace tac::amr

#endif  // TAC_AMR_AMR_IO_HPP
