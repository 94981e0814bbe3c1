#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/bitio.hpp"
#include "common/bytes.hpp"
#include "lossless/huffman.hpp"

namespace tac::lossless {
namespace {

std::vector<std::uint32_t> roundtrip(const std::vector<std::uint32_t>& syms) {
  const auto bytes = huffman_compress(syms);
  return huffman_decompress(bytes);
}

TEST(Huffman, EmptyInput) {
  EXPECT_TRUE(roundtrip({}).empty());
}

TEST(Huffman, SingleSymbolRepeated) {
  const std::vector<std::uint32_t> syms(1000, 42);
  EXPECT_EQ(roundtrip(syms), syms);
}

TEST(Huffman, SingleOccurrence) {
  const std::vector<std::uint32_t> syms = {7};
  EXPECT_EQ(roundtrip(syms), syms);
}

TEST(Huffman, TwoSymbols) {
  std::vector<std::uint32_t> syms;
  for (int i = 0; i < 100; ++i) syms.push_back(i % 2 ? 5u : 9u);
  EXPECT_EQ(roundtrip(syms), syms);
}

TEST(Huffman, SkewedDistributionCompresses) {
  // 99% one symbol: entropy ~0.08 bits/sym; Huffman floor is 1 bit/sym.
  std::mt19937 rng(1);
  std::vector<std::uint32_t> syms(100000);
  for (auto& s : syms) s = (rng() % 100 == 0) ? rng() % 64 : 32768u;
  const auto bytes = huffman_compress(syms);
  EXPECT_EQ(huffman_decompress(bytes), syms);
  EXPECT_LT(bytes.size(), syms.size() / 4);  // >= 8x vs 4-byte symbols
}

TEST(Huffman, LargeAlphabetRoundTrip) {
  std::mt19937 rng(2);
  std::vector<std::uint32_t> syms(50000);
  for (auto& s : syms) s = rng() % 65536;
  EXPECT_EQ(roundtrip(syms), syms);
}

TEST(Huffman, ExtremeSkewStillDecodes) {
  // Fibonacci-like frequencies make deep trees; the length limiter must
  // keep codes <= kMaxLen while staying decodable.
  std::vector<std::uint32_t> syms;
  std::uint64_t f1 = 1, f2 = 1;
  for (std::uint32_t s = 0; s < 40; ++s) {
    for (std::uint64_t i = 0; i < std::min<std::uint64_t>(f1, 5000); ++i)
      syms.push_back(s);
    const std::uint64_t nx = f1 + f2;
    f1 = f2;
    f2 = nx;
  }
  EXPECT_EQ(roundtrip(syms), syms);
}

TEST(Huffman, TableSerializationRoundTrip) {
  std::mt19937 rng(3);
  std::vector<std::uint32_t> syms(5000);
  for (auto& s : syms) s = rng() % 300;
  const HuffmanTable table = huffman_build(syms);
  const auto bytes = huffman_table_serialize(table);
  const HuffmanTable back = huffman_table_deserialize(bytes);
  EXPECT_EQ(back.symbols, table.symbols);
  EXPECT_EQ(back.lengths, table.lengths);
}

TEST(Huffman, EncodeRejectsUnknownSymbol) {
  const std::vector<std::uint32_t> syms = {1, 1, 2};
  const HuffmanTable table = huffman_build(syms);
  const std::vector<std::uint32_t> bad = {3};
  EXPECT_THROW((void)huffman_encode(table, bad), std::invalid_argument);
}

TEST(Huffman, KraftInequalityHolds) {
  std::mt19937 rng(4);
  std::vector<std::uint32_t> syms(20000);
  for (auto& s : syms) s = rng() % 1000;
  const HuffmanTable table = huffman_build(syms);
  long double kraft = 0;
  for (const auto len : table.lengths) kraft += std::pow(2.0L, -int(len));
  EXPECT_LE(kraft, 1.0L + 1e-12L);
  // Optimal prefix code is complete.
  EXPECT_NEAR(static_cast<double>(kraft), 1.0, 1e-9);
}

TEST(Huffman, CodeLengthsOrderedByFrequency) {
  // More frequent symbols never get longer codes.
  std::vector<std::uint32_t> syms;
  for (int i = 0; i < 1000; ++i) syms.push_back(0);
  for (int i = 0; i < 100; ++i) syms.push_back(1);
  for (int i = 0; i < 10; ++i) syms.push_back(2);
  const HuffmanTable table = huffman_build(syms);
  ASSERT_EQ(table.symbols.size(), 3u);
  EXPECT_LE(table.lengths[0], table.lengths[1]);
  EXPECT_LE(table.lengths[1], table.lengths[2]);
}

TEST(Huffman, NearEntropyOnUniform) {
  // 256 equally likely symbols -> exactly 8 bits/symbol.
  std::vector<std::uint32_t> syms;
  for (int rep = 0; rep < 64; ++rep)
    for (std::uint32_t s = 0; s < 256; ++s) syms.push_back(s);
  const HuffmanTable table = huffman_build(syms);
  for (const auto len : table.lengths) EXPECT_EQ(len, 8);
}

class HuffmanParamTest
    : public ::testing::TestWithParam<std::pair<std::size_t, std::uint32_t>> {
};

TEST_P(HuffmanParamTest, RoundTripSizeAlphabetSweep) {
  const auto [count, alphabet] = GetParam();
  std::mt19937 rng(static_cast<unsigned>(count + alphabet));
  std::vector<std::uint32_t> syms(count);
  for (auto& s : syms) s = rng() % alphabet;
  EXPECT_EQ(roundtrip(syms), syms);
}

/// The payload huffman_encode must write, one BitWriter::write per
/// symbol: canonical codes assigned in (length, symbol) order.
std::vector<std::uint8_t> bitwriter_reference(
    const HuffmanTable& table, const std::vector<std::uint32_t>& syms) {
  std::vector<std::size_t> order(table.symbols.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return table.lengths[a] < table.lengths[b];
  });
  std::vector<std::pair<std::uint64_t, unsigned>> code(order.size());
  std::uint64_t next = 0;
  unsigned len = table.lengths[order.front()];
  for (const std::size_t i : order) {
    next <<= table.lengths[i] - len;
    len = table.lengths[i];
    code[i] = {next++, len};
  }
  BitWriter bw;
  for (const std::uint32_t s : syms) {
    const auto it =
        std::lower_bound(table.symbols.begin(), table.symbols.end(), s);
    const auto& [c, l] = code[static_cast<std::size_t>(it - table.symbols.begin())];
    bw.write(c, l);
  }
  return bw.finish();
}

/// huffman_encode (a buffer that grows) and huffman_compress (a buffer
/// presized from the histogram) against the BitWriter reference.
void expect_writer_matches_reference(const HuffmanTable& table,
                                     const std::vector<std::uint32_t>& syms,
                                     bool table_from_syms) {
  const auto want = bitwriter_reference(table, syms);
  EXPECT_EQ(huffman_encode(table, syms), want) << syms.size() << " symbols";
  if (!table_from_syms) return;
  ByteWriter w;
  w.put_varint(syms.size());
  w.put_blob(huffman_table_serialize(table));
  w.put_blob(want);
  EXPECT_EQ(huffman_compress(syms), w.buffer()) << syms.size() << " symbols";
}

TEST(HuffmanWordWriter, SkewedAlphabetsMatchBitWriter) {
  std::mt19937 rng(11);
  for (const double p : {0.9, 0.6, 0.3, 0.05})
    for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                std::size_t{5}, std::size_t{63},
                                std::size_t{1000}, std::size_t{100003}}) {
      // Quantization-code-like: a peak at the radius, geometric tails on
      // both sides, and rare zeros (outliers).
      std::geometric_distribution<int> tail(p);
      std::vector<std::uint32_t> syms(n);
      for (auto& s : syms) {
        const int k = tail(rng);
        s = rng() % 500 == 0 ? 0u
                             : static_cast<std::uint32_t>(
                                   32768 + (rng() % 2 == 0 ? k : -k));
      }
      expect_writer_matches_reference(huffman_build(syms), syms, true);
    }
}

TEST(HuffmanWordWriter, OneSymbolTable) {
  // One symbol codes as one bit: 64 symbols end exactly on a word
  // boundary, 65 one bit past it.
  for (const std::size_t n : {std::size_t{1}, std::size_t{8},
                              std::size_t{63}, std::size_t{64},
                              std::size_t{65}, std::size_t{128},
                              std::size_t{129}}) {
    const std::vector<std::uint32_t> syms(n, 7);
    const HuffmanTable table = huffman_build(syms);
    ASSERT_EQ(table.symbols.size(), 1u);
    expect_writer_matches_reference(table, syms, true);
    EXPECT_EQ(huffman_encode(table, syms).size(), (n + 7) / 8);
  }
}

TEST(HuffmanWordWriter, StreamsEndingOnAndPastAWordBoundary) {
  // Symbol 10 codes in one bit, 20 and 30 in two.
  const HuffmanTable table{{10, 20, 30}, {1, 2, 2}};
  for (const std::size_t bits : {std::size_t{64}, std::size_t{65},
                                 std::size_t{127}, std::size_t{128},
                                 std::size_t{129}}) {
    // bits - 2 one-bit symbols and one two-bit symbol.
    std::vector<std::uint32_t> syms(bits - 2, 10);
    syms.insert(syms.begin() + static_cast<std::ptrdiff_t>(syms.size() / 2),
                30);
    expect_writer_matches_reference(table, syms, false);
    EXPECT_EQ(huffman_encode(table, syms).size(), (bits + 7) / 8);
  }
}

TEST(HuffmanWordWriter, MaximumLengthCodes) {
  // Lengths 1, 2, ..., 56, 57, 57: a complete code whose two longest
  // codes take kMaxLen bits, written alone, in pairs and in fours.
  HuffmanTable table;
  for (unsigned len = 1; len <= HuffmanTable::kMaxLen; ++len) {
    table.symbols.push_back(len);
    table.lengths.push_back(static_cast<std::uint8_t>(len));
  }
  table.symbols.push_back(HuffmanTable::kMaxLen + 1);
  table.lengths.push_back(HuffmanTable::kMaxLen);
  std::mt19937 rng(12);
  std::vector<std::uint32_t> syms;
  for (int i = 0; i < 2000; ++i)
    syms.push_back(rng() % 4 == 0 ? table.symbols[rng() % table.symbols.size()]
                                  : (rng() % 2 == 0 ? 57u : 58u));
  for (std::size_t k = 0; k < 9; ++k) syms.push_back(1);
  expect_writer_matches_reference(table, syms, false);
}

TEST(HuffmanWordWriter, AbsentSymbolThrows) {
  const std::vector<std::uint32_t> syms = {5, 5, 6, 9};
  const HuffmanTable table = huffman_build(syms);
  // Inside the table's range, below it, above it, and past a word.
  for (const std::uint32_t bad : {7u, 4u, 10u, 0xFFFFFFFFu}) {
    std::vector<std::uint32_t> in(70, 5);
    in[67] = bad;
    EXPECT_THROW((void)huffman_encode(table, in), std::invalid_argument)
        << bad;
  }
  // The hash-map path, for an alphabet too wide for the dense table.
  const HuffmanTable wide{{1, 1u << 20}, {1, 1}};
  EXPECT_THROW((void)huffman_encode(wide, std::vector<std::uint32_t>{1, 2}),
               std::invalid_argument);
}

TEST(HuffmanWordWriter, TableDependsOnlyOnFrequencies) {
  // The counter table starts from the first 4096 symbols' range and
  // widens; an order that widens it often, one that never does, and
  // alphabets too wide for it (one fails at the start, one mid-stream)
  // must all build the table of the same frequencies.
  std::mt19937 rng(13);
  for (const std::uint32_t spread : {100u, 30000u, 300000u}) {
    std::vector<std::uint32_t> syms(50000);
    for (auto& s : syms) s = 1000000 + rng() % 7;
    for (std::size_t i = 4096; i < syms.size(); i += 97)
      syms[i] = 1000000 - spread / 2 + rng() % spread;
    auto sorted = syms;
    std::sort(sorted.begin(), sorted.end());
    auto reversed = sorted;
    std::reverse(reversed.begin(), reversed.end());
    const HuffmanTable table = huffman_build(syms);
    for (const auto* other : {&sorted, &reversed}) {
      const HuffmanTable t = huffman_build(*other);
      EXPECT_EQ(t.symbols, table.symbols) << spread;
      EXPECT_EQ(t.lengths, table.lengths) << spread;
    }
    expect_writer_matches_reference(table, syms, true);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HuffmanParamTest,
    ::testing::Values(std::pair<std::size_t, std::uint32_t>{1, 1},
                      std::pair<std::size_t, std::uint32_t>{2, 2},
                      std::pair<std::size_t, std::uint32_t>{100, 3},
                      std::pair<std::size_t, std::uint32_t>{1000, 17},
                      std::pair<std::size_t, std::uint32_t>{4096, 256},
                      std::pair<std::size_t, std::uint32_t>{10000, 65536},
                      std::pair<std::size_t, std::uint32_t>{65536, 65536}));

}  // namespace
}  // namespace tac::lossless
