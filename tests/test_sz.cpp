#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/parallel.hpp"
#include "sz/predictor.hpp"
#include "sz/quantizer.hpp"
#include "sz/sz.hpp"

namespace tac::sz {
namespace {

template <class T>
void expect_bounded(std::span<const T> orig, std::span<const T> recon,
                    double eb) {
  ASSERT_EQ(orig.size(), recon.size());
  double max_err = 0;
  for (std::size_t i = 0; i < orig.size(); ++i) {
    if (!std::isfinite(static_cast<double>(orig[i]))) {
      // Non-finite values round-trip bitwise through the outlier path.
      EXPECT_EQ(std::memcmp(&orig[i], &recon[i], sizeof(T)), 0);
      continue;
    }
    max_err = std::max(max_err, std::fabs(static_cast<double>(orig[i]) -
                                          static_cast<double>(recon[i])));
  }
  EXPECT_LE(max_err, eb) << "error bound violated";
}

std::vector<double> smooth_field(Dims3 d, unsigned seed = 11) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> jitter(-0.01, 0.01);
  std::vector<double> v(d.volume());
  for (std::size_t z = 0; z < d.nz; ++z)
    for (std::size_t y = 0; y < d.ny; ++y)
      for (std::size_t x = 0; x < d.nx; ++x)
        v[d.index(x, y, z)] =
            std::sin(0.2 * static_cast<double>(x)) *
                std::cos(0.15 * static_cast<double>(y)) *
                std::sin(0.1 * static_cast<double>(z) + 0.5) +
            jitter(rng);
  return v;
}

TEST(Quantizer, ExactHitProducesCenterCode) {
  const auto r = quantize(5.0, 5.0, 0.1, 512);
  EXPECT_FALSE(r.outlier);
  EXPECT_EQ(r.code, 512u);
  EXPECT_DOUBLE_EQ(r.reconstructed, 5.0);
}

TEST(Quantizer, ReconstructionWithinBound) {
  std::mt19937 rng(3);
  std::uniform_real_distribution<double> vals(-100, 100);
  for (int i = 0; i < 10000; ++i) {
    const double v = vals(rng);
    const double p = vals(rng);
    const double eb = 0.05;
    const auto r = quantize(v, p, eb, 1u << 15);
    if (!r.outlier) {
      EXPECT_LE(std::fabs(r.reconstructed - v), eb);
      EXPECT_DOUBLE_EQ(dequantize(r.code, p, eb, 1u << 15), r.reconstructed);
    }
  }
}

TEST(Quantizer, FarResidualBecomesOutlier) {
  const auto r = quantize(1e9, 0.0, 1e-3, 256);
  EXPECT_TRUE(r.outlier);
}

TEST(Quantizer, NanIsOutlier) {
  const auto r =
      quantize(std::numeric_limits<double>::quiet_NaN(), 0.0, 0.1, 256);
  EXPECT_TRUE(r.outlier);
}

TEST(Predictor, LinearFieldPredictedExactly) {
  // Order-1 Lorenzo annihilates affine fields away from the boundary.
  const Dims3 d{8, 8, 8};
  std::vector<double> v(d.volume());
  for (std::size_t z = 0; z < d.nz; ++z)
    for (std::size_t y = 0; y < d.ny; ++y)
      for (std::size_t x = 0; x < d.nx; ++x)
        v[d.index(x, y, z)] = 2.0 * static_cast<double>(x) -
                              3.0 * static_cast<double>(y) +
                              0.5 * static_cast<double>(z) + 7.0;
  const ReconView<double> view{v.data(), d};
  for (std::size_t z = 1; z < d.nz; ++z)
    for (std::size_t y = 1; y < d.ny; ++y)
      for (std::size_t x = 1; x < d.nx; ++x)
        EXPECT_NEAR(lorenzo_predict(view, x, y, z), v[d.index(x, y, z)],
                    1e-9);
}

TEST(Predictor, BoundaryReducesToLowerDim) {
  const Dims3 d{4, 4, 4};
  std::vector<double> v(d.volume(), 0.0);
  v[d.index(0, 0, 0)] = 3.0;
  const ReconView<double> view{v.data(), d};
  // At (1,0,0) only the x-1 term survives: 1D Lorenzo.
  EXPECT_DOUBLE_EQ(lorenzo_predict(view, 1, 0, 0), 3.0);
  // At origin everything is zero-extended.
  EXPECT_DOUBLE_EQ(lorenzo_predict(view, 0, 0, 0), 0.0);
}

TEST(Sz, RoundTrip3DWithinBound) {
  const Dims3 d{32, 32, 32};
  const auto v = smooth_field(d);
  const SzConfig cfg{.mode = ErrorBoundMode::kAbsolute, .error_bound = 1e-3};
  const auto c = compress<double>(v, d, cfg);
  const auto back = decompress<double>(c, v.size());
  expect_bounded<double>(v, back, 1e-3);
}

TEST(Sz, SmoothDataCompressesWell) {
  const Dims3 d{64, 64, 64};
  const auto v = smooth_field(d);
  const SzConfig cfg{.mode = ErrorBoundMode::kAbsolute, .error_bound = 1e-2};
  const auto c = compress<double>(v, d, cfg);
  const double cr = static_cast<double>(v.size() * sizeof(double)) /
                    static_cast<double>(c.size());
  EXPECT_GT(cr, 10.0);
}

TEST(Sz, RelativeModeScalesWithRange) {
  const Dims3 d{16, 16, 16};
  std::vector<double> v = smooth_field(d);
  for (auto& x : v) x *= 1e9;  // range ~2e9
  const SzConfig cfg{.mode = ErrorBoundMode::kRelative, .error_bound = 1e-4};
  const auto c = compress<double>(v, d, cfg);
  const auto info = peek(c);
  EXPECT_NEAR(info.abs_error_bound, 1e-4 * info.value_range, 1e-6);
  expect_bounded<double>(v, decompress<double>(c, v.size()),
                         info.abs_error_bound);
}

TEST(Sz, ConstantArrayIsTiny) {
  const Dims3 d{64, 64, 64};
  const std::vector<double> v(d.volume(), 4.25);
  const SzConfig cfg{.error_bound = 1e-6};
  const auto c = compress<double>(v, d, cfg);
  EXPECT_LT(c.size(), 128u);
  const auto back = decompress<double>(c, v.size());
  for (const auto x : back) EXPECT_EQ(x, 4.25);
  EXPECT_TRUE(peek(c).constant);
}

TEST(Sz, FloatTypeRoundTrip) {
  const Dims3 d{24, 24, 24};
  const auto vd = smooth_field(d);
  std::vector<float> v(vd.begin(), vd.end());
  const SzConfig cfg{.error_bound = 1e-3};
  const auto c = compress<float>(v, d, cfg);
  expect_bounded<float>(v, decompress<float>(c, v.size()), 1e-3);
}

TEST(Sz, TypeMismatchThrows) {
  const Dims3 d{8, 8, 8};
  const auto v = smooth_field(d);
  const auto c = compress<double>(v, d, SzConfig{.error_bound = 1e-3});
  EXPECT_THROW((void)decompress<float>(c, v.size()), std::runtime_error);
}

TEST(Sz, NonFiniteValuesRoundTripExactly) {
  const Dims3 d{8, 8, 1};
  std::vector<double> v(d.volume(), 1.0);
  v[3] = std::numeric_limits<double>::quiet_NaN();
  v[17] = std::numeric_limits<double>::infinity();
  v[31] = -std::numeric_limits<double>::infinity();
  const SzConfig cfg{.error_bound = 0.1};
  const auto back =
      decompress<double>(compress<double>(v, d, cfg), v.size());
  EXPECT_TRUE(std::isnan(back[3]));
  EXPECT_EQ(back[17], std::numeric_limits<double>::infinity());
  EXPECT_EQ(back[31], -std::numeric_limits<double>::infinity());
  expect_bounded<double>(v, back, 0.1);
}

TEST(Sz, BatchedBlocksRoundTrip) {
  const Dims3 block{8, 8, 8};
  const std::size_t nblocks = 17;
  std::vector<double> v;
  for (std::size_t b = 0; b < nblocks; ++b) {
    auto f = smooth_field(block, static_cast<unsigned>(100 + b));
    for (auto& x : f) x += static_cast<double>(b);
    v.insert(v.end(), f.begin(), f.end());
  }
  const SzConfig cfg{.error_bound = 1e-3};
  const auto c = compress<double>(v, block, cfg, nblocks);
  const auto back = decompress<double>(c, v.size());
  expect_bounded<double>(v, back, 1e-3);
}

TEST(Sz, BatchedPredictionDoesNotCrossBlocks) {
  // Two blocks with wildly different magnitudes: if prediction leaked
  // across the boundary the second block's first value would quantize
  // against ~1e9 garbage. Bound must still hold either way; this guards
  // the layout contract.
  const Dims3 block{4, 4, 4};
  std::vector<double> v(block.volume() * 2, 0.0);
  for (std::size_t i = 0; i < block.volume(); ++i) v[i] = 1e9;
  const SzConfig cfg{.error_bound = 1.0};
  const auto back =
      decompress<double>(compress<double>(v, block, cfg, 2), v.size());
  expect_bounded<double>(v, back, 1.0);
}

TEST(Sz, ZeroAbsoluteBoundRejected) {
  const Dims3 d{4, 4, 4};
  const std::vector<double> v(d.volume(), 1.0);
  SzConfig cfg{.mode = ErrorBoundMode::kAbsolute, .error_bound = 0.0};
  EXPECT_THROW((void)compress<double>(v, d, cfg), std::invalid_argument);
}

TEST(Sz, RelativeBoundOnConstantRangeIsLossless) {
  // Range 0 but values not bitwise identical (0.0 vs -0.0): falls back to
  // the all-outlier lossless path.
  const Dims3 d{4, 4, 1};
  std::vector<double> v(d.volume(), 0.0);
  v[5] = -0.0;
  SzConfig cfg{.mode = ErrorBoundMode::kRelative, .error_bound = 1e-3};
  const auto back =
      decompress<double>(compress<double>(v, d, cfg), v.size());
  EXPECT_EQ(std::signbit(back[5]), true);
}

TEST(Sz, SizeMismatchThrows) {
  const std::vector<double> v(10, 1.0);
  EXPECT_THROW(
      (void)compress<double>(v, Dims3{4, 4, 4}, SzConfig{.error_bound = 1}),
      std::invalid_argument);
}

TEST(Sz, DeterministicOutput) {
  const Dims3 d{16, 16, 16};
  const auto v = smooth_field(d);
  const SzConfig cfg{.error_bound = 1e-4};
  EXPECT_EQ(compress<double>(v, d, cfg), compress<double>(v, d, cfg));
}

TEST(Sz, PeekReportsGeometry) {
  const Dims3 d{16, 8, 4};
  const auto v = smooth_field(d);
  const auto c = compress<double>(v, d, SzConfig{.error_bound = 1e-3}, 1);
  const auto info = peek(c);
  EXPECT_EQ(info.block_dims, d);
  EXPECT_EQ(info.nblocks, 1u);
  EXPECT_EQ(info.scalar_size, sizeof(double));
  EXPECT_DOUBLE_EQ(info.abs_error_bound, 1e-3);
}

TEST(Sz, TighterBoundCostsMoreBits) {
  const Dims3 d{32, 32, 32};
  const auto v = smooth_field(d);
  const auto loose =
      compress<double>(v, d, SzConfig{.error_bound = 1e-2});
  const auto tight =
      compress<double>(v, d, SzConfig{.error_bound = 1e-5});
  EXPECT_LT(loose.size(), tight.size());
}

struct RoundTripCase {
  Dims3 dims;
  double eb;
  unsigned seed;
};

class SzRoundTripTest : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(SzRoundTripTest, ErrorBoundHolds) {
  const auto& p = GetParam();
  std::mt19937 rng(p.seed);
  std::uniform_real_distribution<double> noise(-1, 1);
  std::vector<double> v(p.dims.volume());
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = std::sin(0.05 * static_cast<double>(i)) + 0.3 * noise(rng);
  const SzConfig cfg{.mode = ErrorBoundMode::kAbsolute, .error_bound = p.eb};
  const auto back =
      decompress<double>(compress<double>(v, p.dims, cfg), v.size());
  expect_bounded<double>(v, back, p.eb);
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndBounds, SzRoundTripTest,
    ::testing::Values(RoundTripCase{{128, 1, 1}, 1e-3, 1},    // 1D
                      RoundTripCase{{64, 64, 1}, 1e-3, 2},    // 2D
                      RoundTripCase{{16, 16, 16}, 1e-3, 3},   // 3D
                      RoundTripCase{{1, 1, 1}, 1e-3, 4},      // single cell
                      RoundTripCase{{5, 7, 3}, 1e-2, 5},      // odd dims
                      RoundTripCase{{16, 16, 16}, 1e-6, 6},   // tight
                      RoundTripCase{{16, 16, 16}, 10.0, 7},   // loose
                      RoundTripCase{{33, 17, 9}, 1e-4, 8}));


// ------------------------------------------------------------ output sinks

/// A stream of each kind the decoder tells apart, over `nblocks` blocks
/// of `dims`, with its decoded values.
struct SinkCase {
  std::string name;
  std::vector<std::uint8_t> stream;
  Dims3 dims;
  std::size_t nblocks;
};

template <class T>
std::vector<SinkCase> sink_cases(std::size_t nblocks) {
  const Dims3 d{13, 9, 7};  // odd extents: hybrid tiles and wave fronts clip
  std::mt19937 rng(static_cast<unsigned>(nblocks));
  std::uniform_real_distribution<double> noise(-0.05, 0.05);
  std::vector<T> smooth(d.volume() * nblocks);
  for (std::size_t b = 0; b < nblocks; ++b)
    for (std::size_t z = 0; z < d.nz; ++z)
      for (std::size_t y = 0; y < d.ny; ++y)
        for (std::size_t x = 0; x < d.nx; ++x)
          smooth[b * d.volume() + d.index(x, y, z)] = static_cast<T>(
              0.3 * static_cast<double>(x) - 0.2 * static_cast<double>(y) +
              0.1 * static_cast<double>(z + b) + noise(rng));
  // Unpredictable cells in some blocks: outliers, and pw-rel exceptions.
  std::vector<T> rough = smooth;
  for (std::size_t i = 0; i < rough.size(); i += 97)
    rough[i] = i % 2 ? std::numeric_limits<T>::quiet_NaN() : T{0};
  std::vector<T> signed_values = rough;
  for (std::size_t i = 0; i < signed_values.size(); i += 5)
    signed_values[i] = -signed_values[i];
  const std::vector<T> constant(smooth.size(), static_cast<T>(1.25));

  const SzConfig lorenzo{.mode = ErrorBoundMode::kAbsolute,
                         .error_bound = 1e-3};
  SzConfig hybrid = lorenzo;
  hybrid.predictor = Predictor::kHybrid;
  hybrid.pred_block = 4;
  const SzConfig pwrel{.mode = ErrorBoundMode::kPointwiseRelative,
                       .error_bound = 1e-2};
  const auto make = [&](const char* name, const std::vector<T>& v,
                        const SzConfig& cfg) {
    return SinkCase{name, compress<T>(v, d, cfg, nblocks), d, nblocks};
  };
  return {make("lorenzo", rough, lorenzo), make("hybrid", smooth, hybrid),
          make("constant", constant, lorenzo),
          make("pwrel", signed_values, pwrel)};
}

/// The values `sink` receives, reassembled in block order; every block
/// must arrive exactly once.
template <class T>
std::vector<T> decode_through_sink(const SinkCase& c) {
  const std::size_t vol = c.dims.volume();
  std::vector<T> out(vol * c.nblocks);
  std::vector<int> seen(c.nblocks, 0);  // one slot per block: no race
  const BlockSink<T> sink = [&](std::size_t b, std::span<const T> block) {
    ASSERT_LT(b, c.nblocks);
    ASSERT_EQ(block.size(), vol);
    ++seen[b];
    std::memcpy(out.data() + b * vol, block.data(), vol * sizeof(T));
  };
  decompress_blocks<T>(c.stream, c.dims, c.nblocks, sink);
  for (std::size_t b = 0; b < c.nblocks; ++b)
    EXPECT_EQ(seen[b], 1) << c.name << " block " << b;
  return out;
}

template <class T>
bool same_bits(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

template <class T>
void expect_sinks_match_decompress() {
  for (const std::size_t nblocks : {std::size_t{1}, std::size_t{200}}) {
    for (const SinkCase& c : sink_cases<T>(nblocks)) {
      const std::size_t n = c.dims.volume() * nblocks;
      for (const unsigned threads : {1u, 2u, 4u}) {
        const ParallelismGuard guard(threads);
        const auto want = decompress<T>(c.stream, n);
        // Sentinels on both sides of `out` catch a write past it.
        std::vector<T> padded(n + 2, static_cast<T>(-7));
        decompress_into<T>(c.stream, std::span<T>(padded).subspan(1, n));
        const std::span<const T> got = std::span<const T>(padded).subspan(1, n);
        EXPECT_TRUE(same_bits<T>(want, got))
            << c.name << " nblocks " << nblocks << " threads " << threads;
        EXPECT_EQ(padded.front(), static_cast<T>(-7));
        EXPECT_EQ(padded.back(), static_cast<T>(-7));
        const auto sunk = decode_through_sink<T>(c);
        EXPECT_TRUE(same_bits<T>(want, sunk))
            << c.name << " nblocks " << nblocks << " threads " << threads;
      }
    }
  }
}

TEST(SzSinks, IntoAndBlocksEqualDecompressFloat) {
  expect_sinks_match_decompress<float>();
}

TEST(SzSinks, IntoAndBlocksEqualDecompressDouble) {
  expect_sinks_match_decompress<double>();
}

/// Reads past a stream header and returns its stream kind byte.
std::uint8_t skip_header(ByteReader& r) {
  (void)r.get<std::uint16_t>();
  (void)r.get<std::uint8_t>();
  (void)r.get<std::uint8_t>();
  for (int i = 0; i < 4; ++i) (void)r.get_varint();
  (void)r.get<std::uint8_t>();
  for (int i = 0; i < 3; ++i) (void)r.get<double>();
  (void)r.get_varint();
  (void)r.get<std::uint8_t>();
  (void)r.get_varint();
  return r.get<std::uint8_t>();
}

/// `stream` (a general stream) with its per-block outlier counts replaced
/// by `edit(counts)`.
std::vector<std::uint8_t> with_outlier_counts(
    std::span<const std::uint8_t> stream,
    const std::function<void(std::vector<std::uint64_t>&)>& edit,
    std::size_t nblocks) {
  ByteReader r(stream);
  EXPECT_EQ(skip_header(r), 1u) << "not a general stream";
  const std::size_t header = r.position();
  const auto huff = r.get_blob();
  const auto outliers = r.get_blob();
  ByteReader cr(r.get_blob());
  std::vector<std::uint64_t> counts(nblocks);
  for (auto& c : counts) c = cr.get_varint();
  edit(counts);
  ByteWriter w;
  w.put_bytes(stream.first(header));
  w.put_blob(huff);
  w.put_blob(outliers);
  ByteWriter cw;
  for (const auto c : counts) cw.put_varint(c);
  w.put_blob(cw.buffer());
  w.put_bytes(stream.subspan(r.position()));
  return w.take();
}

/// `stream` (a pw-rel stream of doubles) with its exception index deltas
/// replaced by `edit(deltas)`.
std::vector<std::uint8_t> with_exception_deltas(
    std::span<const std::uint8_t> stream,
    const std::function<void(std::vector<std::uint64_t>&)>& edit) {
  ByteReader r(stream);
  EXPECT_EQ(skip_header(r), 2u) << "not a pw-rel stream";
  (void)r.get_blob();  // log magnitudes
  (void)r.get_blob();  // sign bits
  const std::size_t head = r.position();
  std::vector<std::uint64_t> deltas(r.get_varint());
  std::vector<double> values(deltas.size());
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    deltas[i] = r.get_varint();
    values[i] = r.get<double>();
  }
  edit(deltas);
  ByteWriter w;
  w.put_bytes(stream.first(head));
  w.put_varint(deltas.size());
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    w.put_varint(deltas[i]);
    w.put<double>(values[i]);
  }
  w.put_bytes(stream.subspan(r.position()));
  return w.take();
}

TEST(SzSinks, HostileStreamsFailBeforeAnyOutput) {
  const SinkCase c = sink_cases<double>(200).front();  // lorenzo, outliers
  const std::size_t n = c.dims.volume() * c.nblocks;
  // Block 0 loses an outlier to the last block: the totals still agree,
  // but block 0 would run out of outliers and the last keep one over.
  const auto moved = with_outlier_counts(
      c.stream,
      [](std::vector<std::uint64_t>& counts) {
        ASSERT_GT(counts.front(), 0u);
        --counts.front();
        ++counts.back();
      },
      c.nblocks);
  // Exception indices 5, 6, then 1: the third delta wraps around.
  const auto wrapped = with_exception_deltas(
      sink_cases<double>(200).back().stream,
      [](std::vector<std::uint64_t>& deltas) {
        ASSERT_GE(deltas.size(), 3u);
        deltas[0] = 5;
        deltas[1] = 1;
        deltas[2] = ~std::uint64_t{0} - 4;
      });
  for (const unsigned threads : {1u, 2u, 4u}) {
    const ParallelismGuard guard(threads);
    std::vector<double> padded(n + 2, -7.0);
    const auto out = std::span<double>(padded).subspan(1, n);
    const auto untouched = [&] {
      return std::all_of(padded.begin(), padded.end(),
                         [](double v) { return v == -7.0; });
    };
    std::atomic<int> delivered{0};
    const BlockSink<double> sink = [&](std::size_t, std::span<const double>) {
      ++delivered;
    };

    // Another count than the caller's: CountError.
    EXPECT_THROW(decompress_into<double>(c.stream, out.first(n - 1)),
                 CountError);
    EXPECT_THROW(decompress_blocks<double>(c.stream, {9, 13, 7}, c.nblocks,
                                           sink),
                 CountError);
    EXPECT_THROW(decompress_blocks<double>(c.stream, c.dims, c.nblocks - 1,
                                           sink),
                 CountError);

    // Per-block outlier counts that disagree with the codes, and pw-rel
    // exception indices that wrap past 2^64 back below earlier ones.
    for (const auto& [stream, error] :
         {std::pair{moved, "outlier stream"},
          std::pair{wrapped, "pw-rel exception index"}}) {
      for (const bool into : {true, false}) {
        try {
          if (into)
            decompress_into<double>(stream, out);
          else
            decompress_blocks<double>(stream, c.dims, c.nblocks, sink);
          ADD_FAILURE() << "stream with bad " << error << " decoded";
        } catch (const CountError&) {
          ADD_FAILURE() << error << " is not a CountError";
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find(error), std::string::npos)
              << e.what();
        }
      }
    }
    EXPECT_TRUE(untouched()) << "threads " << threads;
    EXPECT_EQ(delivered.load(), 0) << "threads " << threads;
  }
}

}  // namespace
}  // namespace tac::sz
