#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "lossless/codec.hpp"
#include "lossless/lzss.hpp"

namespace tac::lossless {
namespace {

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

TEST(Lzss, EmptyInput) {
  const auto c = lzss_compress({});
  EXPECT_TRUE(lzss_decompress(c).empty());
}

TEST(Lzss, SingleByte) {
  const std::vector<std::uint8_t> in = {0x5A};
  EXPECT_EQ(lzss_decompress(lzss_compress(in)), in);
}

TEST(Lzss, ShortInputBelowMinMatch) {
  const auto in = bytes_of("abc");
  EXPECT_EQ(lzss_decompress(lzss_compress(in)), in);
}

TEST(Lzss, ConstantRunCompressesHard) {
  const std::vector<std::uint8_t> in(100000, 0);
  const auto c = lzss_compress(in);
  EXPECT_EQ(lzss_decompress(c), in);
  EXPECT_LT(c.size(), in.size() / 50);
  // The densest stream each encoder writes: the decoders' bound on the
  // declared size must still accept it.
  const auto c2 = lzss2_compress(in);
  EXPECT_EQ(lzss2_decompress(c2), in);
  EXPECT_LT(c2.size(), in.size() / 50);
}

TEST(Lzss, OverlappingMatchSelfCopy) {
  // "ababab..." forces matches with offset < length.
  std::vector<std::uint8_t> in;
  for (int i = 0; i < 5000; ++i) in.push_back(i % 2 ? 'a' : 'b');
  const auto c = lzss_compress(in);
  EXPECT_EQ(lzss_decompress(c), in);
  EXPECT_LT(c.size(), in.size() / 10);
}

TEST(Lzss, RepeatedPhrase) {
  std::vector<std::uint8_t> in;
  const auto phrase = bytes_of("the quick brown fox jumps over the lazy dog ");
  for (int i = 0; i < 500; ++i)
    in.insert(in.end(), phrase.begin(), phrase.end());
  const auto c = lzss_compress(in);
  EXPECT_EQ(lzss_decompress(c), in);
  EXPECT_LT(c.size(), in.size() / 5);
}

TEST(Lzss, IncompressibleRandomRoundTrips) {
  std::mt19937 rng(7);
  std::vector<std::uint8_t> in(65536);
  for (auto& b : in) b = static_cast<std::uint8_t>(rng());
  const auto c = lzss_compress(in);
  EXPECT_EQ(lzss_decompress(c), in);
  // Worst case ~9/8 of input plus header.
  EXPECT_LT(c.size(), in.size() * 9 / 8 + 16);
}

TEST(Lzss, MatchBeyondWindowNotUsed) {
  // A phrase recurring past the 64 KiB window must still decode correctly
  // (as literals or nearer matches).
  std::mt19937 rng(8);
  std::vector<std::uint8_t> in;
  const auto phrase = bytes_of("unique-marker-phrase-0123456789");
  in.insert(in.end(), phrase.begin(), phrase.end());
  for (int i = 0; i < 70000; ++i) in.push_back(static_cast<std::uint8_t>(rng()));
  in.insert(in.end(), phrase.begin(), phrase.end());
  EXPECT_EQ(lzss_decompress(lzss_compress(in)), in);
}

TEST(Lzss, TruncatedStreamThrows) {
  const std::vector<std::uint8_t> in(1000, 'x');
  auto c = lzss_compress(in);
  c.resize(c.size() / 2);
  EXPECT_THROW((void)lzss_decompress(c), std::exception);
}

TEST(Lzss, ChainCapStillCorrect) {
  // Tiny chain cap degrades ratio, never correctness.
  std::vector<std::uint8_t> in;
  for (int i = 0; i < 20000; ++i) in.push_back(static_cast<std::uint8_t>(i % 7));
  const LzssConfig cfg{.max_chain = 1};
  const auto c = lzss_compress(in, cfg);
  EXPECT_EQ(lzss_decompress(c), in);
}

class LzssSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LzssSizeTest, MixedContentRoundTrip) {
  const std::size_t n = GetParam();
  std::mt19937 rng(static_cast<unsigned>(n));
  std::vector<std::uint8_t> in(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Alternate compressible runs and noise.
    in[i] = (i / 512) % 2 ? static_cast<std::uint8_t>(rng())
                          : static_cast<std::uint8_t>(i / 64);
  }
  EXPECT_EQ(lzss_decompress(lzss_compress(in)), in);
}

INSTANTIATE_TEST_SUITE_P(Sweep, LzssSizeTest,
                         ::testing::Values(0, 1, 3, 4, 5, 255, 256, 4095,
                                           65535, 65536, 65537, 300000));

TEST(Codec, StoredFallbackForIncompressible) {
  std::mt19937 rng(9);
  std::vector<std::uint8_t> in(4096);
  for (auto& b : in) b = static_cast<std::uint8_t>(rng());
  const auto c = compress(in);
  EXPECT_EQ(decompress(c), in);
  EXPECT_LE(c.size(), in.size() + 16);  // stored block overhead only
}

TEST(Codec, CompressiblePayloadShrinks) {
  const std::vector<std::uint8_t> in(50000, 7);
  const auto c = compress(in);
  EXPECT_EQ(decompress(c), in);
  EXPECT_LT(c.size(), 2000u);
}

TEST(Codec, EmptyPayload) {
  const auto c = compress({});
  EXPECT_TRUE(decompress(c).empty());
}

TEST(Codec, UnknownMethodByteThrows) {
  std::vector<std::uint8_t> bogus = {0xFF, 0x00};
  EXPECT_THROW((void)decompress(bogus), std::runtime_error);
}

}  // namespace
}  // namespace tac::lossless
