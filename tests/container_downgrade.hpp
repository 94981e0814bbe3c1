#ifndef TAC_TESTS_CONTAINER_DOWNGRADE_HPP
#define TAC_TESTS_CONTAINER_DOWNGRADE_HPP

/// \file container_downgrade.hpp
/// \brief Rebuilds older serializations of a container, so tests can check
/// that every format version still decodes without an old writer.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/container.hpp"

namespace tac::test {

/// Rebuilds the v1 serialization of a v2+ container: v1 is byte-identical
/// except for the version byte and the absent payload index.
inline std::vector<std::uint8_t> downgrade_to_v1(
    const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  const core::CommonHeader h = core::read_common_header(r);
  std::vector<std::uint8_t> v1(
      bytes.begin(), bytes.begin() + static_cast<long>(h.index_offset));
  v1.insert(v1.end(), bytes.begin() + static_cast<long>(h.payload_offset),
            bytes.end());
  v1[4] = 1;  // magic:4 bytes, then the format version byte
  return v1;
}

/// Rebuilds the v2 serialization of a v4 container: identical except for
/// the version byte and the two-bytes-narrower index entries — no profile
/// or selector byte — so every payload shifts back by twice the entry
/// count.
inline std::vector<std::uint8_t> downgrade_to_v2(
    const std::vector<std::uint8_t>& v4) {
  ByteReader r(v4);
  const core::CommonHeader h = core::read_common_header(r);
  const std::uint64_t n = h.index.entries.size();
  EXPECT_LT(n, 128u);  // varint count stays one byte
  std::vector<std::uint8_t> v2(
      v4.begin(), v4.begin() + static_cast<long>(h.index_offset));
  v2[4] = 2;  // magic:4 bytes, then the format version byte
  v2.push_back(v4[h.index_offset]);  // entry count
  for (const core::PayloadEntry& e : h.index.entries) {
    const std::uint64_t off = e.offset - 2 * n;
    const std::uint64_t len = e.length;
    for (int b = 0; b < 8; ++b)
      v2.push_back(static_cast<std::uint8_t>(off >> (8 * b)));
    for (int b = 0; b < 8; ++b)
      v2.push_back(static_cast<std::uint8_t>(len >> (8 * b)));
    for (int b = 0; b < 4; ++b)
      v2.push_back(static_cast<std::uint8_t>(e.crc32 >> (8 * b)));
  }
  v2.insert(v2.end(), v4.begin() + static_cast<long>(h.payload_offset),
            v4.end());
  return v2;
}

}  // namespace tac::test

#endif  // TAC_TESTS_CONTAINER_DOWNGRADE_HPP
