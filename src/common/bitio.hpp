#ifndef TAC_COMMON_BITIO_HPP
#define TAC_COMMON_BITIO_HPP

/// \file bitio.hpp
/// \brief MSB-first bit-level writer/reader over byte buffers.
///
/// The reader serves the Huffman decoders. The writer is the reference the
/// Huffman encoder's word writer is tested against (it writes the same
/// bytes, a word at a time). Codes are written most-significant-bit first
/// so that canonical Huffman decoding can peek a fixed-width window.
///
/// Both sides batch through 64-bit accumulators: the writer flushes whole
/// bytes from a pending word instead of assembling them bit by bit, and
/// the reader serves read()/peek() from an 8-byte big-endian window that
/// is refilled per word, not per bit. The byte streams produced/consumed
/// are identical to the historical bit-at-a-time implementation.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <vector>

namespace tac {

/// Accumulates bits MSB-first into a byte vector.
class BitWriter {
 public:
  /// Appends the low `nbits` bits of `bits` (MSB of that field first).
  void write(std::uint64_t bits, unsigned nbits) {
    if (nbits == 0) return;
    if (nbits > 56) {  // split so the accumulator never overflows
      const unsigned hi = nbits - 56;
      write(bits >> 56, hi);
      nbits = 56;
    }
    if (nbits < 64) bits &= (std::uint64_t{1} << nbits) - 1;
    while (fill_ + nbits > 64) flush_byte();
    acc_ = (acc_ << nbits) | bits;
    fill_ += nbits;
    while (fill_ >= 8) flush_byte();
  }

  void write_bit(bool b) { write(b ? 1u : 0u, 1); }

  /// Flushes any partial byte (zero-padded) and returns the buffer.
  [[nodiscard]] std::vector<std::uint8_t> finish() {
    if (fill_ > 0) {
      out_.push_back(
          static_cast<std::uint8_t>((acc_ << (8 - fill_)) & 0xFFu));
      acc_ = 0;
      fill_ = 0;
    }
    return std::move(out_);
  }

  [[nodiscard]] std::size_t bit_count() const {
    return out_.size() * 8 + fill_;
  }

 private:
  void flush_byte() {
    out_.push_back(static_cast<std::uint8_t>((acc_ >> (fill_ - 8)) & 0xFFu));
    fill_ -= 8;
  }

  std::vector<std::uint8_t> out_;
  std::uint64_t acc_ = 0;  // low fill_ bits are pending, oldest highest
  unsigned fill_ = 0;
};

/// Reads bits MSB-first from a byte span. Reading past the end throws.
class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> data)
      : data_(data), total_bits_(data.size() * 8) {}

  [[nodiscard]] std::uint64_t read(unsigned nbits) {
    if (nbits == 0) return 0;
    if (pos_ + nbits > total_bits_)
      throw std::out_of_range("BitReader: read past end of stream");
    if (nbits > 56) {
      const std::uint64_t hi = read(56);
      const unsigned rest = nbits - 56;
      return (hi << rest) | read(rest);
    }
    const std::uint64_t v = peek_window() >> (64 - nbits);
    pos_ += nbits;
    return v;
  }

  [[nodiscard]] bool read_bit() {
    if (pos_ >= total_bits_)
      throw std::out_of_range("BitReader: read past end of stream");
    const bool b =
        (data_[pos_ >> 3] >> (7 - (pos_ & 7))) & 1u;
    ++pos_;
    return b;
  }

  /// Next ≤56 bits left-aligned in a 64-bit word, zero-padded past the end
  /// of the stream; does not consume. The Huffman table decoder probes
  /// this window and then consumes the matched length.
  [[nodiscard]] std::uint64_t peek_window() const {
    const std::size_t byte = pos_ >> 3;
    std::uint64_t w = 0;
    if (byte + 8 <= data_.size()) {
      std::memcpy(&w, data_.data() + byte, 8);
      w = byteswap64(w);
    } else {
      for (std::size_t i = 0; i < 8; ++i)
        w = (w << 8) |
            (byte + i < data_.size() ? data_[byte + i] : std::uint8_t{0});
    }
    return w << (pos_ & 7);
  }

  /// Consumes `nbits` previously peeked bits; throws if that crosses the
  /// end of the stream (same contract as read()). Takes size_t so a bulk
  /// decoder can retire a whole fast-loop region in one call.
  void consume(std::size_t nbits) {
    if (pos_ + nbits > total_bits_)
      throw std::out_of_range("BitReader: read past end of stream");
    pos_ += nbits;
  }

  [[nodiscard]] std::size_t bits_consumed() const { return pos_; }
  [[nodiscard]] std::size_t bits_total() const { return total_bits_; }
  [[nodiscard]] bool exhausted() const { return pos_ >= total_bits_; }

 private:
  static std::uint64_t byteswap64(std::uint64_t v) {
    return __builtin_bswap64(v);
  }

  std::span<const std::uint8_t> data_;
  std::size_t total_bits_ = 0;
  std::size_t pos_ = 0;  // absolute bit position
};

}  // namespace tac

#endif  // TAC_COMMON_BITIO_HPP
