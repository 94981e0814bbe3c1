#ifndef TAC_LOSSLESS_LZSS_HPP
#define TAC_LOSSLESS_LZSS_HPP

/// \file lzss.hpp
/// \brief LZSS byte compressor: 64 KiB sliding window, hash-chain matching.
///
/// Plays the role Zstandard plays in SZ's pipeline — a fast generic
/// dictionary stage after entropy coding. Huffman output over smooth data
/// degenerates to long constant-byte runs which this stage folds up.

#include <cstdint>
#include <span>
#include <vector>

namespace tac::lossless {

/// LZSS v2: the stream every writer emits (the fast codec profile, see
/// `lossless::CodecProfile`). A 64 KiB window searched through hash
/// chains, a byte-aligned token format, one-step lazy matching,
/// unbounded match lengths, and a skip heuristic that accelerates through
/// incompressible runs instead of probing every byte.
///
/// Stream layout: varint uncompressed size, then tokens. Each token is a
/// control byte `(literal_run << 4) | (match_len - 4)` — either nibble
/// saturates at 15 and continues in LZ4-style extension bytes (add each
/// byte, stop on a byte != 255) — followed by the literal bytes, then a
/// 2-byte little-endian offset-minus-1 (window 1..65536) and the match
/// length extension. The final token carries literals only; the decoder
/// stops once the declared size is reached.
[[nodiscard]] std::vector<std::uint8_t> lzss2_compress(
    std::span<const std::uint8_t> input);

[[nodiscard]] std::vector<std::uint8_t> lzss2_decompress(
    std::span<const std::uint8_t> compressed);

/// Decodes an LZSS v1 stream: the bit-packed format of the legacy codec
/// profile, which earlier writers emitted and no writer emits any more.
/// Layout: varint uncompressed size, then an MSB-first bit stream of
/// tokens — flag 0 + 8-bit literal, or flag 1 + 16-bit offset-minus-1
/// (window 1..65536) + 8-bit length-minus-4 (matches of 4..259 bytes).
[[nodiscard]] std::vector<std::uint8_t> lzss_decompress(
    std::span<const std::uint8_t> compressed);

}  // namespace tac::lossless

#endif  // TAC_LOSSLESS_LZSS_HPP
