#ifndef TAC_COMMON_BYTES_HPP
#define TAC_COMMON_BYTES_HPP

/// \file bytes.hpp
/// \brief Little-endian byte buffer serialization with bounds checking.
///
/// All on-disk / in-container structures in this library are serialized
/// through ByteWriter/ByteReader so the format is platform independent and
/// truncated inputs fail loudly instead of reading garbage.

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace tac {

class ByteWriter {
 public:
  template <class T>
    requires std::is_trivially_copyable_v<T>
  void put(const T& v) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
    buf_.insert(buf_.end(), p, p + sizeof(T));
  }

  /// LEB128-style unsigned varint; compact for the many small counts in
  /// block metadata.
  void put_varint(std::uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<std::uint8_t>(v) | 0x80u);
      v >>= 7;
    }
    buf_.push_back(static_cast<std::uint8_t>(v));
  }

  void put_bytes(std::span<const std::uint8_t> bytes) {
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }

  /// Length-prefixed byte blob.
  void put_blob(std::span<const std::uint8_t> bytes) {
    put_varint(bytes.size());
    put_bytes(bytes);
  }

  void put_string(const std::string& s) {
    put_varint(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  /// Appends `n` zero bytes and returns their offset, for fields whose
  /// values are only known later (payload index tables): write the rest of
  /// the buffer, then `patch` the reserved range.
  std::size_t reserve(std::size_t n) {
    const std::size_t pos = buf_.size();
    buf_.resize(pos + n, 0);
    return pos;
  }

  /// Overwrites previously written (or reserved) bytes at `pos`. Throws if
  /// the value would extend past the current end — patching never grows
  /// the buffer.
  template <class T>
    requires std::is_trivially_copyable_v<T>
  void patch(std::size_t pos, const T& v) {
    if (pos + sizeof(T) > buf_.size())
      throw std::out_of_range("ByteWriter::patch: range past end of buffer");
    std::memcpy(buf_.data() + pos, &v, sizeof(T));
  }

  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }
  [[nodiscard]] const std::vector<std::uint8_t>& buffer() const {
    return buf_;
  }

 private:
  std::vector<std::uint8_t> buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  template <class T>
    requires std::is_trivially_copyable_v<T>
  [[nodiscard]] T get() {
    require(sizeof(T));
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  [[nodiscard]] std::uint64_t get_varint() {
    std::uint64_t v = 0;
    unsigned shift = 0;
    for (;;) {
      require(1);
      const std::uint8_t b = data_[pos_++];
      if (shift >= 64)
        throw std::runtime_error("ByteReader: varint overflow");
      v |= static_cast<std::uint64_t>(b & 0x7Fu) << shift;
      if (!(b & 0x80u)) return v;
      shift += 7;
    }
  }

  /// Reads a varint item count and checks it against the bytes left: a
  /// count above remaining() / min_bytes_per_item cannot be real, so it
  /// throws std::runtime_error naming `what` before the caller reserves
  /// anything for it. `min_bytes_per_item` is the fewest bytes one item
  /// can be serialized in (at least 1).
  [[nodiscard]] std::size_t get_count(const char* what,
                                      std::size_t min_bytes_per_item) {
    const std::uint64_t n = get_varint();
    if (n > remaining() / min_bytes_per_item)
      throw std::runtime_error(std::string(what) + ": claims " +
                               std::to_string(n) + " items but only " +
                               std::to_string(remaining()) +
                               " bytes remain");
    return static_cast<std::size_t>(n);
  }

  [[nodiscard]] std::span<const std::uint8_t> get_bytes(std::size_t n) {
    require(n);
    auto s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }

  [[nodiscard]] std::span<const std::uint8_t> get_blob() {
    const std::uint64_t n = get_varint();
    return get_bytes(static_cast<std::size_t>(n));
  }

  [[nodiscard]] std::string get_string() {
    const auto s = get_blob();
    return {reinterpret_cast<const char*>(s.data()), s.size()};
  }

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] std::size_t position() const { return pos_; }

  /// Repositions the cursor (random access into indexed containers).
  /// Seeking to size() is allowed (the "everything consumed" position).
  void seek(std::size_t pos) {
    if (pos > data_.size())
      throw std::out_of_range("ByteReader::seek: position past end");
    pos_ = pos;
  }

 private:
  void require(std::size_t n) const {
    // Phrased to avoid overflow when a corrupt varint asks for a length
    // near SIZE_MAX.
    if (n > data_.size() - pos_)
      throw std::runtime_error("ByteReader: truncated input");
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace tac

#endif  // TAC_COMMON_BYTES_HPP
