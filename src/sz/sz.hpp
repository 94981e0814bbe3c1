#ifndef TAC_SZ_SZ_HPP
#define TAC_SZ_SZ_HPP

/// \file sz.hpp
/// \brief Prediction-based error-bounded lossy compressor (SZ
/// architecture): Lorenzo prediction, error-controlled linear quantization,
/// canonical Huffman coding, LZSS lossless tail.
///
/// The batched interface compresses `nblocks` equally-sized 3D blocks as a
/// single stream with one shared Huffman table — the paper's "linearize the
/// remaining 3D blocks into a 4D array and pass it to the compressor".
/// Prediction never crosses block boundaries.

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/dims.hpp"
#include "lossless/codec.hpp"
#include "sz/config.hpp"

namespace tac::sz {

/// Summary of one compressed stream, for diagnostics and benches.
struct SzStreamInfo {
  Dims3 block_dims;
  std::size_t nblocks = 0;
  std::size_t scalar_size = 0;
  double abs_error_bound = 0;  ///< effective absolute bound (0 = lossless)
  double value_range = 0;
  std::size_t n_outliers = 0;
  bool constant = false;
  // Where the bytes go (zero for constant streams):
  std::size_t huffman_bytes = 0;   ///< entropy-coded quantization codes
  std::size_t outlier_bytes = 0;   ///< exactly-stored unpredictable values
  std::size_t metadata_bytes = 0;  ///< header + counts + predictor tables
};

/// Compresses `nblocks` consecutive blocks of extents `dims` stored
/// contiguously in `data` (data.size() == dims.volume() * nblocks).
/// T is float or double.
template <class T>
[[nodiscard]] std::vector<std::uint8_t> compress(std::span<const T> data,
                                                 Dims3 dims,
                                                 const SzConfig& cfg,
                                                 std::size_t nblocks = 1);

/// Thrown when a stream's declared element count (block volume ×
/// nblocks) overflows, is zero, or differs from the count the caller
/// expects — before anything is allocated for it.
class CountError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Decompresses a stream produced by compress<T> that must hold exactly
/// `count` elements, the number the caller knows from its own structure
/// (a level's volume or valid-cell count, a group's block cells). A
/// stream declaring any other count is a CountError, raised before any
/// allocation. Throws if the stream's scalar type does not match T. When
/// `expected` is set (the container's v3 index declared a codec profile
/// for this payload), every embedded lossless blob must carry a method
/// byte of that profile — a mismatch is a lossless::ProfileError; nullopt
/// decodes leniently (pre-v3 containers). Reconstruction is the same
/// under every profile.
///
/// A wrapper over decompress_into; callers with memory of their own
/// should decode into it instead of into this value-initialized vector.
template <class T>
[[nodiscard]] std::vector<T> decompress(
    std::span<const std::uint8_t> bytes, std::size_t count,
    std::optional<lossless::CodecProfile> expected = std::nullopt);

/// decompress straight into caller memory: the stream must hold exactly
/// out.size() elements. Every check (CountError, scalar type, profile,
/// truncated blobs, per-block outlier counts) runs before the first value
/// is written, so a rejected stream leaves `out` untouched; nothing is
/// ever written outside it.
template <class T>
void decompress_into(std::span<const std::uint8_t> bytes, std::span<T> out,
                     std::optional<lossless::CodecProfile> expected =
                         std::nullopt);

/// Receives block `b` of a stream (its block-dims volume of values, in
/// raster order). The span is the calling worker's scratch and is only
/// valid during the call.
template <class T>
using BlockSink = std::function<void(std::size_t b, std::span<const T>)>;

/// decompress block by block: each block is reconstructed into the
/// calling worker's arena scratch (one block at a time, so it is still in
/// cache) and handed to `sink` on that same worker. Blocks arrive in no particular
/// order and, with more than one worker, concurrently, so `sink` must be
/// safe to call for different blocks at once. The stream must declare
/// exactly `nblocks` blocks of `block_dims` (else CountError), and every
/// check of decompress_into runs before the first sink call.
template <class T>
void decompress_blocks(std::span<const std::uint8_t> bytes, Dims3 block_dims,
                       std::size_t nblocks, const BlockSink<T>& sink,
                       std::optional<lossless::CodecProfile> expected =
                           std::nullopt);

/// Reads the stream header without decompressing the payload.
[[nodiscard]] SzStreamInfo peek(std::span<const std::uint8_t> bytes);

/// Result of one pass over the data: finite value range plus whether every
/// element is bit-identical to the first (constant-stream detection).
struct ValueRange {
  double lo = 0;  ///< +inf when no finite values were seen
  double hi = 0;  ///< -inf when no finite values were seen
  bool all_identical = true;
};

/// Range scan over `data` (SIMD-dispatched; see common/simd.hpp). The
/// scalar and vector paths return bit-identical results.
template <class T>
[[nodiscard]] ValueRange scan_range(std::span<const T> data);

/// Packs one bit per value (the IEEE sign bit, LSB-first within each
/// byte). SIMD-dispatched; used by the point-wise-relative path.
template <class T>
[[nodiscard]] std::vector<std::uint8_t> pack_sign_bits(
    std::span<const T> data);

}  // namespace tac::sz

#endif  // TAC_SZ_SZ_HPP
