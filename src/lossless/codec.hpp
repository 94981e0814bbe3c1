#ifndef TAC_LOSSLESS_CODEC_HPP
#define TAC_LOSSLESS_CODEC_HPP

/// \file codec.hpp
/// \brief Byte-stream lossless codec used as the final compression stage.
///
/// Mirrors SZ's "customized Huffman + lossless" tail: the caller entropy
/// codes its symbols, then runs the whole payload through this dictionary
/// stage. Falls back to a stored block when compression does not pay.
///
/// Every writer emits the byte-aligned LZSS v2 stream (chained + lazy
/// matcher with a skip heuristic — see lzss.hpp), or a stored block. The
/// codec profile names the encoder family behind a stream: `kFast` for
/// that writer, `kLegacy` for the bit-packed LZSS v1 stream earlier
/// writers emitted. The container's v3 payload index records the profile
/// of every payload, so readers can validate that a stream carries the
/// method bytes its profile promises; legacy streams are read, never
/// written.

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace tac::lossless {

/// Which encoder family produced (or is expected in) a lossless stream.
/// The numeric values are serialized in the container v3 payload index —
/// never renumber.
enum class CodecProfile : std::uint8_t { kLegacy = 0, kFast = 1 };

/// Thrown when a stream's method byte disagrees with the profile the
/// container index declares for it, or when a profile byte itself is
/// out of range.
class ProfileError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

[[nodiscard]] const char* to_string(CodecProfile p);

/// The profile every writer emits.
[[nodiscard]] constexpr CodecProfile default_profile() {
  return CodecProfile::kFast;
}

/// Compresses arbitrary bytes as an LZSS v2 stream, or as a stored block
/// when that is not smaller. Never loses data, never grows the payload by
/// more than one header byte plus the varint size.
[[nodiscard]] std::vector<std::uint8_t> compress(
    std::span<const std::uint8_t> input);

/// Lenient decode: dispatches on the stream's own method byte, accepting
/// any known method (v1/v2 containers carry no per-payload profile).
[[nodiscard]] std::vector<std::uint8_t> decompress(
    std::span<const std::uint8_t> compressed);

/// Strict decode: additionally requires the method byte to belong to
/// `expected` (legacy → stored/lzss, fast → stored/lzss2); a mismatch is
/// a ProfileError. Used when the container index records the profile.
[[nodiscard]] std::vector<std::uint8_t> decompress(
    std::span<const std::uint8_t> compressed, CodecProfile expected);

}  // namespace tac::lossless

#endif  // TAC_LOSSLESS_CODEC_HPP
