#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bitio.hpp"
#include "common/bytes.hpp"
#include "lossless/codec.hpp"
#include "lossless/lzss.hpp"

namespace tac::lossless {
namespace {

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

// ------------------------------------------------------------ LZSS v2 codec

TEST(Lzss, EmptyInput) {
  const auto c = lzss2_compress({});
  EXPECT_TRUE(lzss2_decompress(c).empty());
}

TEST(Lzss, SingleByte) {
  const std::vector<std::uint8_t> in = {0x5A};
  EXPECT_EQ(lzss2_decompress(lzss2_compress(in)), in);
}

TEST(Lzss, ShortInputBelowMinMatch) {
  const auto in = bytes_of("abc");
  EXPECT_EQ(lzss2_decompress(lzss2_compress(in)), in);
}

TEST(Lzss, ConstantRunCompressesHard) {
  // The densest stream the encoder writes: the decoder's bound on the
  // declared size must still accept it.
  const std::vector<std::uint8_t> in(100000, 0);
  const auto c = lzss2_compress(in);
  EXPECT_EQ(lzss2_decompress(c), in);
  EXPECT_LT(c.size(), in.size() / 50);
}

TEST(Lzss, OverlappingMatchSelfCopy) {
  // "ababab..." forces matches with offset < length.
  std::vector<std::uint8_t> in;
  for (int i = 0; i < 5000; ++i) in.push_back(i % 2 ? 'a' : 'b');
  const auto c = lzss2_compress(in);
  EXPECT_EQ(lzss2_decompress(c), in);
  EXPECT_LT(c.size(), in.size() / 10);
}

TEST(Lzss, RepeatedPhrase) {
  std::vector<std::uint8_t> in;
  const auto phrase = bytes_of("the quick brown fox jumps over the lazy dog ");
  for (int i = 0; i < 500; ++i)
    in.insert(in.end(), phrase.begin(), phrase.end());
  const auto c = lzss2_compress(in);
  EXPECT_EQ(lzss2_decompress(c), in);
  EXPECT_LT(c.size(), in.size() / 5);
}

TEST(Lzss, IncompressibleRandomRoundTrips) {
  std::mt19937 rng(7);
  std::vector<std::uint8_t> in(65536);
  for (auto& b : in) b = static_cast<std::uint8_t>(rng());
  const auto c = lzss2_compress(in);
  EXPECT_EQ(lzss2_decompress(c), in);
  // Literal runs cost one extension byte per 255 literals.
  EXPECT_LT(c.size(), in.size() + in.size() / 255 + 16);
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
  EXPECT_EQ(lzss2_decompress(lzss2_compress(in)), in);
}

TEST(Lzss, TruncatedStreamThrows) {
  const std::vector<std::uint8_t> in(1000, 'x');
  auto c = lzss2_compress(in);
  c.resize(c.size() / 2);
  EXPECT_THROW((void)lzss2_decompress(c), std::exception);
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
  EXPECT_EQ(lzss2_decompress(lzss2_compress(in)), in);
}

INSTANTIATE_TEST_SUITE_P(Sweep, LzssSizeTest,
                         ::testing::Values(0, 1, 3, 4, 5, 255, 256, 4095,
                                           65535, 65536, 65537, 300000));

// ---------------------------------------------------------- LZSS v1 decoder
// No writer emits the v1 stream any more, so its decoder is fed streams
// built token by token.

/// Writes an LZSS v1 stream: a varint declared size, then MSB-first
/// tokens — flag 0 + 8-bit literal, or flag 1 + 16-bit offset-minus-1 +
/// 8-bit length-minus-4.
class V1Stream {
 public:
  V1Stream& literal(std::uint8_t b) {
    bits_.write_bit(false);
    bits_.write(b, 8);
    return *this;
  }
  V1Stream& literals(const std::vector<std::uint8_t>& bytes) {
    for (const std::uint8_t b : bytes) literal(b);
    return *this;
  }
  V1Stream& match(std::size_t offset, std::size_t length) {
    bits_.write_bit(true);
    bits_.write(offset - 1, 16);
    bits_.write(length - 4, 8);
    return *this;
  }
  [[nodiscard]] std::vector<std::uint8_t> finish(std::uint64_t declared) {
    ByteWriter w;
    w.put_varint(declared);
    w.put_bytes(bits_.finish());
    return w.take();
  }

 private:
  BitWriter bits_;
};

TEST(LzssV1Decoder, EmptyStream) {
  EXPECT_TRUE(lzss_decompress(V1Stream().finish(0)).empty());
}

TEST(LzssV1Decoder, LiteralsOnly) {
  const auto in = bytes_of("legacy literals");
  EXPECT_EQ(lzss_decompress(V1Stream().literals(in).finish(in.size())), in);
}

TEST(LzssV1Decoder, OverlappingOffsetOneMatchOfMaximumLength) {
  // One literal replicated by the longest match the format can express.
  const auto out =
      lzss_decompress(V1Stream().literal('a').match(1, 259).finish(260));
  EXPECT_EQ(out, std::vector<std::uint8_t>(260, 'a'));
}

TEST(LzssV1Decoder, MatchAtTheFullWindowOffset) {
  std::vector<std::uint8_t> head(65536);
  for (std::size_t i = 0; i < head.size(); ++i)
    head[i] = static_cast<std::uint8_t>(i * 7 + i / 256);
  const auto out = lzss_decompress(
      V1Stream().literals(head).match(65536, 8).finish(head.size() + 8));
  ASSERT_EQ(out.size(), head.size() + 8);
  EXPECT_TRUE(std::equal(head.begin(), head.end(), out.begin()));
  EXPECT_TRUE(std::equal(head.begin(), head.begin() + 8, out.end() - 8));
}

TEST(LzssV1Decoder, ThroughTheCodecsMethodByte) {
  // Method byte 1 is the v1 stream: lenient and strict legacy decode read
  // it, a strict fast decode refuses it.
  ByteWriter w;
  w.put<std::uint8_t>(1);
  w.put_bytes(V1Stream().literal('z').match(1, 9).finish(10));
  const auto stream = w.take();
  const std::vector<std::uint8_t> want(10, 'z');
  EXPECT_EQ(decompress(stream), want);
  EXPECT_EQ(decompress(stream, CodecProfile::kLegacy), want);
  try {
    (void)decompress(stream, CodecProfile::kFast);
    FAIL() << "strict fast decode should have refused the v1 stream";
  } catch (const ProfileError& e) {
    EXPECT_NE(std::string(e.what()).find("profile \"fast\""),
              std::string::npos)
        << e.what();
  }
}

TEST(LzssV1Decoder, OffsetBeforeTheStreamStartThrows) {
  const auto stream = V1Stream().literal('x').match(2, 4).finish(5);
  EXPECT_THROW((void)lzss_decompress(stream), std::runtime_error);
}

TEST(LzssV1Decoder, MatchPastTheDeclaredSizeThrows) {
  const auto stream =
      V1Stream().literals(bytes_of("ab")).match(2, 10).finish(5);
  EXPECT_THROW((void)lzss_decompress(stream), std::runtime_error);
}

TEST(LzssV1Decoder, TruncatedStreamThrows) {
  // 100 literal tokens take 113 bytes; 60 of them still pass the declared
  // size bound, so the bit reader is what runs out.
  std::vector<std::uint8_t> in(100);
  for (std::size_t i = 0; i < in.size(); ++i)
    in[i] = static_cast<std::uint8_t>(i);
  auto stream = V1Stream().literals(in).finish(in.size());
  ASSERT_EQ(stream.size(), 1 + 113u);
  stream.resize(1 + 60);
  EXPECT_THROW((void)lzss_decompress(stream), std::out_of_range);
}

// ------------------------------------------------------------ codec framing

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
