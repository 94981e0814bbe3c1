/// \file micro_hotpaths.cpp
/// \brief Isolated timings for every dispatched hot-path kernel, with the
/// scalar fallback (or a reference implementation) as the in-run baseline.
///
/// Unlike the micro_* google-benchmark harnesses this is a standalone main
/// so it builds without the benchmark package: CI runs it on every push.
/// Each kernel is measured in alternating A/B rounds inside the same time
/// window (the ratio is what matters — absolute numbers drift with machine
/// noise, the interleaved ratio does not); a kernel with nothing to race
/// is timed alone and reports throughput only. The results are written to
/// BENCH_hotpaths.json next to the console table.
///
/// The exit status enforces three gates and nothing else:
///   - huffman_decode must beat the bit-at-a-time reference by >= 4x,
///   - the LZSS v2 encoder (lzss2) must compress the mixed corpus at
///     >= 82 MB/s (see kLzssCompressFloorMbps; host-dependent),
///   - disabled telemetry (TAC_TRACE off) must cost <= 1% on the
///     instrumented huffman_decompress wrapper, in the median of the
///     per-round ratios.
/// Every other row is report-only, the SIMD-against-scalar rows
/// (sz_roundtrip, sz_lanes, sz_lanes_single, scan_range, pack_sign_bits)
/// included: the equivalence tests check that both paths give equal
/// results, and no floor is set on their speed ratio (sz_roundtrip's SIMD
/// share, the range scan and sign packing, is too small for one: it read
/// 0.95x-1.00x). Among them: sz_lanes (the quantizer's AVX2 lane walk
/// against its block walk on a 3,391 x 8^3 stream), sz_lanes_single (its
/// row lane walk against the block walk's wavefront on one 128^3 block),
/// the valid_scan rows (AmrLevel mask scans against raster byte loops, on
/// a sparse and a dense level), the amr_io row (an .amr file of a 128^3
/// two-level dataset written and read back in memory, timed alone), the
/// sz_hybrid_roundtrip row (the hybrid
/// predictor on the sz_roundtrip field), and the huffman_build and
/// huffman_encode rows (the encode-side entropy stage, timed alone over
/// the huffman_decode symbols).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/arena.hpp"
#include "common/bytes.hpp"
#include "common/crc32.hpp"
#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "common/telemetry.hpp"
#include "amr/amr_io.hpp"
#include "amr/dataset.hpp"
#include "lossless/huffman.hpp"
#include "lossless/lzss.hpp"
#include "simnyx/generator.hpp"
#include "sz/sz.hpp"

namespace {

using namespace tac;

constexpr std::size_t kElems = 1u << 21;  // 2M values per round
constexpr int kRounds = 5;                // alternating A/B rounds

/// Defeats dead-code elimination for kernels whose result is otherwise
/// unused (crc32, arena stores) without perturbing the timed loop.
volatile std::uint64_t g_sink;

struct KernelResult {
  std::string name;
  double a_seconds = 0;  ///< optimized path, summed over rounds
  double b_seconds = 0;  ///< baseline path, summed over rounds
  const char* baseline = "scalar";  ///< nullptr: no baseline was timed
  double mb_per_s = 0;  ///< optimized-path throughput over the input bytes
  std::vector<double> round_speedups;  ///< each round's B/A time ratio

  [[nodiscard]] double speedup() const {
    return a_seconds > 0 ? b_seconds / a_seconds : 0.0;
  }

  /// Median of the per-round B/A ratios: unlike speedup(), one round that
  /// a host hiccup slowed on one side cannot move it.
  [[nodiscard]] double median_speedup() const {
    std::vector<double> v = round_speedups;
    if (v.empty()) return 0.0;
    const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
    std::nth_element(v.begin(), mid, v.end());
    return *mid;
  }
};

std::vector<double> smooth_field(std::size_t n) {
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::vector<double> v(n);
  double acc = 0;
  for (auto& x : v) x = (acc += u(rng) * 0.05);
  return v;
}

/// Runs `a` and `b` in alternating rounds inside one time window so
/// machine-noise drift hits both sides equally.
template <class A, class B>
KernelResult ab(const std::string& name, std::size_t bytes, A&& a, B&& b) {
  KernelResult r;
  r.name = name;
  a();  // warm both paths (page in buffers, build tables)
  b();
  for (int round = 0; round < kRounds; ++round) {
    Timer t;
    a();
    const double a_s = t.seconds();
    t.reset();
    b();
    const double b_s = t.seconds();
    r.a_seconds += a_s;
    r.b_seconds += b_s;
    r.round_speedups.push_back(a_s > 0 ? b_s / a_s : 0.0);
  }
  r.mb_per_s = static_cast<double>(bytes) * kRounds / r.a_seconds / 1.0e6;
  return r;
}

/// Times `a` alone, for a kernel with nothing to race: the row reports
/// absolute throughput and no speedup.
template <class A>
KernelResult timed(const std::string& name, std::size_t bytes, A&& a) {
  KernelResult r;
  r.name = name;
  r.baseline = nullptr;
  a();  // warm (page in buffers, build tables)
  for (int round = 0; round < kRounds; ++round) {
    Timer t;
    a();
    r.a_seconds += t.seconds();
  }
  r.mb_per_s = static_cast<double>(bytes) * kRounds / r.a_seconds / 1.0e6;
  return r;
}

KernelResult bench_sz_roundtrip() {
  const Dims3 dims{128, 128, 128};
  const auto data = smooth_field(dims.volume());
  const sz::SzConfig cfg{.mode = sz::ErrorBoundMode::kAbsolute,
                         .error_bound = 1e-3};
  auto run = [&] {
    const auto stream = sz::compress<double>(data, dims, cfg);
    (void)sz::decompress<double>(stream, data.size());
  };
  return ab(
      "sz_roundtrip", dims.volume() * sizeof(double),
      [&] {
        simd::force_scalar(false);
        run();
      },
      [&] {
        simd::force_scalar(true);
        run();
      });
}

/// The hybrid (Lorenzo + regression tile) predictor on the sz_roundtrip
/// field, timed alone: its walk has no scalar/SIMD pair to race.
KernelResult bench_sz_hybrid_roundtrip() {
  const Dims3 dims{128, 128, 128};
  const auto data = smooth_field(dims.volume());
  const sz::SzConfig cfg{.mode = sz::ErrorBoundMode::kAbsolute,
                         .error_bound = 1e-3,
                         .predictor = sz::Predictor::kHybrid};
  return timed("sz_hybrid_roundtrip", dims.volume() * sizeof(double), [&] {
    const auto stream = sz::compress<double>(data, dims, cfg);
    (void)sz::decompress<double>(stream, data.size());
  });
}

/// sz::compress of a stream of 3,391 8^3 blocks, the extent and count of
/// the largest group of a Run1_Z10 finest level: the quantizer's AVX2 lane
/// walk (four blocks per vector) against its scalar block walk. One thread,
/// so the row times the kernel and not the scheduler.
KernelResult bench_sz_lanes() {
  const Dims3 dims{8, 8, 8};
  constexpr std::size_t kBlocks = 3391;
  const auto data = smooth_field(dims.volume() * kBlocks);
  const sz::SzConfig cfg{.mode = sz::ErrorBoundMode::kAbsolute,
                         .error_bound = 1e-3};
  const ParallelismGuard one_thread(1);
  return ab(
      "sz_lanes", data.size() * sizeof(double),
      [&] {
        simd::force_scalar(false);
        (void)sz::compress<double>(data, dims, cfg, kBlocks);
      },
      [&] {
        simd::force_scalar(true);
        (void)sz::compress<double>(data, dims, cfg, kBlocks);
      });
}

/// sz::compress of one 128^3 block, a GSP/ZF level's padded grid: the
/// quantizer's AVX2 row lane walk (eight rows per step) against the
/// scalar W-row wavefront of its block walk. One thread, as sz_lanes.
KernelResult bench_sz_lanes_single() {
  const Dims3 dims{128, 128, 128};
  const auto data = smooth_field(dims.volume());
  const sz::SzConfig cfg{.mode = sz::ErrorBoundMode::kAbsolute,
                         .error_bound = 1e-3};
  const ParallelismGuard one_thread(1);
  return ab(
      "sz_lanes_single", data.size() * sizeof(double),
      [&] {
        simd::force_scalar(false);
        (void)sz::compress<double>(data, dims, cfg);
      },
      [&] {
        simd::force_scalar(true);
        (void)sz::compress<double>(data, dims, cfg);
      });
}

KernelResult bench_scan_range() {
  const auto data = smooth_field(kElems);
  const std::span<const double> s(data);
  return ab(
      "scan_range", kElems * sizeof(double),
      [&] {
        simd::force_scalar(false);
        (void)sz::scan_range(s);
      },
      [&] {
        simd::force_scalar(true);
        (void)sz::scan_range(s);
      });
}

KernelResult bench_pack_sign_bits() {
  auto data = smooth_field(kElems);
  const std::span<const double> s(data);
  return ab(
      "pack_sign_bits", kElems * sizeof(double),
      [&] {
        simd::force_scalar(false);
        (void)sz::pack_sign_bits(s);
      },
      [&] {
        simd::force_scalar(true);
        (void)sz::pack_sign_bits(s);
      });
}

/// Mid-entropy geometric spread over 1024 symbols (~8 bits/symbol) —
/// the regime of noisy quantization codes.
std::vector<std::uint32_t> huffman_symbols() {
  std::mt19937 rng(23);
  std::vector<double> weights(1024);
  double w = 1.0;
  for (auto& x : weights) {
    x = w;
    w *= 0.99;
  }
  std::discrete_distribution<int> skew(weights.begin(), weights.end());
  std::vector<std::uint32_t> syms(kElems);
  for (auto& v : syms) v = 32256 + static_cast<std::uint32_t>(skew(rng));
  return syms;
}

KernelResult bench_huffman_build() {
  const auto syms = huffman_symbols();
  return timed("huffman_build", syms.size() * sizeof(std::uint32_t),
               [&] { (void)lossless::huffman_build(syms); });
}

KernelResult bench_huffman_encode() {
  const auto syms = huffman_symbols();
  const auto table = lossless::huffman_build(syms);
  return timed("huffman_encode", syms.size() * sizeof(std::uint32_t),
               [&] { (void)lossless::huffman_encode(table, syms); });
}

KernelResult bench_huffman_decode() {
  // The per-bit reference walks one iteration per code bit; the table
  // decoder is one probe per 1-2 symbols regardless of code length.
  const auto syms = huffman_symbols();
  const auto table = lossless::huffman_build(syms);
  const auto payload = lossless::huffman_encode(table, syms);
  auto r = ab(
      "huffman_decode", payload.size(),
      [&] { (void)lossless::huffman_decode(table, payload, syms.size()); },
      [&] {
        (void)lossless::huffman_decode_reference(table, payload, syms.size());
      });
  r.baseline = "per-bit reference";
  return r;
}

KernelResult bench_crc32() {
  std::vector<std::uint8_t> data(kElems * 8);
  std::mt19937_64 rng(5);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  auto r = ab(
      "crc32", data.size(), [&] { g_sink = g_sink + crc32(data); },
      [&] { g_sink = g_sink + detail::crc32_bytewise(data); });
  r.baseline = "bytewise";
  return r;
}

KernelResult bench_mask_roundtrip() {
  // Mixed valid/empty runs like a refinement mask.
  std::vector<std::uint8_t> mask(kElems);
  std::mt19937 rng(9);
  std::size_t i = 0;
  while (i < mask.size()) {
    const std::size_t run = 1 + rng() % 200;
    const std::uint8_t bit = rng() & 1;
    for (std::size_t j = 0; j < run && i < mask.size(); ++j) mask[i++] = bit;
  }
  const auto packed = amr::pack_mask(mask);
  // No dispatched scalar twin (the word-wise path is endian-gated, not
  // CPUID-gated): measure absolute round-trip throughput.
  return timed("mask_roundtrip", mask.size(), [&] {
    const auto p = amr::pack_mask(mask);
    (void)amr::unpack_mask(p, mask.size());
  });
}

/// A Run2_T4-like finest level: 256^3 cells of which 512 are valid
/// (0.003%), in 64 scattered 2^3 clusters.
amr::AmrLevel sparse_scan_level() {
  const std::size_t n = 256;
  amr::AmrLevel lv(Dims3{n, n, n});
  std::fill_n(lv.mask.data(), lv.mask.size(), std::uint8_t{0});  // page in
  std::mt19937 rng(13);
  for (int c = 0; c < 64; ++c) {
    const std::size_t x0 = rng() % (n - 1), y0 = rng() % (n - 1),
                      z0 = rng() % (n - 1);
    for (std::size_t z = z0; z < z0 + 2; ++z)
      for (std::size_t y = y0; y < y0 + 2; ++y)
        for (std::size_t x = x0; x < x0 + 2; ++x) {
          lv.mask(x, y, z) = 1;
          lv.data(x, y, z) = static_cast<double>(x + y + z);
        }
  }
  return lv;
}

/// A Run1_Z10-like finest level: 256^3 cells, about a quarter valid, in
/// refinement boxes of 4 to 40 cells a side, so rows hold runs of every
/// length.
amr::AmrLevel dense_scan_level() {
  const std::size_t n = 256;
  amr::AmrLevel lv(Dims3{n, n, n});
  std::fill_n(lv.mask.data(), lv.mask.size(), std::uint8_t{0});  // page in
  std::mt19937 rng(17);
  std::size_t valid = 0;
  while (valid < lv.mask.size() / 4) {
    const std::size_t w = 4 + rng() % 37;
    const std::size_t x0 = rng() % (n - w), y0 = rng() % (n - w),
                      z0 = rng() % (n - w);
    for (std::size_t z = z0; z < z0 + w; ++z)
      for (std::size_t y = y0; y < y0 + w; ++y)
        for (std::size_t x = x0; x < x0 + w; ++x) {
          valid += lv.mask(x, y, z) == 0;
          lv.mask(x, y, z) = 1;
          lv.data(x, y, z) = static_cast<double>(x + y + z);
        }
  }
  return lv;
}

/// The AmrLevel mask scans on one level: A runs valid_count, valid_range
/// and gather_valid_into, which walk the mask's runs; B runs the raster
/// byte loops they replaced. Report only: the gap follows the density
/// and the run lengths, so no floor is set on it.
KernelResult bench_valid_scan(const std::string& name,
                              const amr::AmrLevel& lv) {
  std::vector<double> out(lv.valid_count());
  auto r = ab(
      name, lv.mask.size(),
      [&] {
        const std::size_t count = lv.valid_count();
        const auto [lo, hi] = lv.valid_range();
        const std::size_t got = lv.gather_valid_into(out);
        g_sink = g_sink + count + got + static_cast<std::uint64_t>(hi - lo);
      },
      [&] {
        const std::uint8_t* m = lv.mask.data();
        const double* d = lv.data.data();
        std::size_t count = 0;
        for (std::size_t i = 0; i < lv.mask.size(); ++i) count += m[i] ? 1 : 0;
        bool any = false;
        double lo = 0, hi = 0;
        for (std::size_t i = 0; i < lv.mask.size(); ++i) {
          if (!m[i]) continue;
          lo = any ? std::min(lo, d[i]) : d[i];
          hi = any ? std::max(hi, d[i]) : d[i];
          any = true;
        }
        std::size_t got = 0;
        for (std::size_t i = 0; i < lv.mask.size(); ++i)
          if (m[i]) out[got++] = d[i];
        g_sink = g_sink + count + got + static_cast<std::uint64_t>(hi - lo);
      });
  r.baseline = "raster byte loop";
  return r;
}

/// .amr save and load on the file `tac_file_tool gen <f> 128` writes: a
/// 128^3 level about a quarter valid over a 64^3 level holding the rest.
/// One round runs dataset_to_bytes then dataset_from_bytes; throughput is
/// over the file's bytes. Report only: the row has no second path to
/// race.
KernelResult bench_amr_io() {
  simnyx::GeneratorConfig gen;
  gen.finest_dims = {128, 128, 128};
  gen.level_densities = {0.23, 0.77};
  gen.region_size = 8;
  const amr::AmrDataset ds = simnyx::generate_baryon_density(gen);
  const std::size_t bytes = amr::dataset_to_bytes(ds).size();
  return timed("amr_io", bytes, [&] {
    const auto file = amr::dataset_to_bytes(ds);
    const amr::AmrDataset back = amr::dataset_from_bytes(file);
    g_sink = g_sink + back.num_levels();
  });
}

/// The byte mix the lossless stage actually sees: a Huffman-coded payload
/// (mid entropy — exercises the incompressible-skip heuristic), packed
/// sign/mode bits (long constant runs — exercises match emission), and a
/// stride-repetitive block index stream (medium-distance matches).
std::vector<std::uint8_t> lzss_corpus() {
  std::vector<std::uint8_t> corpus;
  std::mt19937 rng(41);
  std::vector<double> weights(256);
  double w = 1.0;
  for (auto& x : weights) {
    x = w;
    w *= 0.97;
  }
  std::discrete_distribution<int> skew(weights.begin(), weights.end());
  std::vector<std::uint32_t> syms(kElems / 4);
  for (auto& v : syms) v = 32700 + static_cast<std::uint32_t>(skew(rng));
  const auto table = lossless::huffman_build(syms);
  const auto huff = lossless::huffman_encode(table, syms);
  corpus.insert(corpus.end(), huff.begin(), huff.end());
  // Run-heavy segment: long same-byte stretches with occasional flips.
  for (std::size_t i = 0; i < kElems / 4;) {
    const std::size_t run = 16 + rng() % 512;
    const std::uint8_t b = static_cast<std::uint8_t>(rng() & 3);
    for (std::size_t j = 0; j < run && i < kElems / 4; ++j, ++i)
      corpus.push_back(b);
  }
  // Stride-repetitive segment: a 67-byte pattern with sparse noise.
  std::vector<std::uint8_t> pattern(67);
  for (auto& b : pattern) b = static_cast<std::uint8_t>(rng());
  for (std::size_t i = 0; i < kElems / 4; ++i)
    corpus.push_back(rng() % 97 == 0 ? static_cast<std::uint8_t>(rng())
                                     : pattern[i % pattern.size()]);
  return corpus;
}

/// Absolute floor on the lzss_compress row, in place of the relative
/// floor it replaces: lzss2 had to beat the LZSS v1 bit-stream encoder,
/// which no longer exists, by >= 1.2x. The BENCH_hotpaths.json committed
/// with that gate read lzss2 at 364.6 MB/s and 5.357x, so the v1 encoder
/// ran at 364.6 / 5.357 = 68 MB/s, and 1.2 x 68 = 82 MB/s. Unlike the
/// ratio, an absolute floor depends on the host: it is as strict as the
/// old gate only on a host at least as fast as the one that wrote that
/// file, and a slower runner can fail it with no code change.
constexpr double kLzssCompressFloorMbps = 82.0;

KernelResult bench_lzss_compress() {
  const auto corpus = lzss_corpus();
  return timed("lzss_compress", corpus.size(),
               [&] { (void)lossless::lzss2_compress(corpus); });
}

KernelResult bench_lzss_decompress() {
  const auto corpus = lzss_corpus();
  const auto stream = lossless::lzss2_compress(corpus);
  // The baseline is a plain copy of the decoded bytes: the floor any
  // decoder that allocates its output has to pay.
  auto r = ab(
      "lzss_decompress", corpus.size(),
      [&] { (void)lossless::lzss2_decompress(stream); },
      [&] {
        const std::vector<std::uint8_t> copy(corpus);
        g_sink = g_sink + copy.front();
      });
  r.baseline = "copy";
  return r;
}

/// Disabled-telemetry overhead on a real wrapper. A runs the instrumented
/// huffman_decompress entry point with telemetry off (its span and
/// counter reduce to one relaxed atomic load and a predicted branch per
/// call); B performs the identical parse + table build + decode by hand
/// with no instrumentation in the path. Many calls on a small blob keep
/// the per-call overhead measurable. The CI floor asserts the off mode
/// costs <= 1% — i.e. a "zero cost when off" regression (say, a lock or
/// clock read sneaking into the disabled check) fails the run.
KernelResult bench_telemetry_off_overhead() {
  constexpr std::size_t kSyms = 1u << 15;
  constexpr int kIters = 64;
  std::mt19937 rng(29);
  std::vector<double> weights(512);
  double w = 1.0;
  for (auto& x : weights) {
    x = w;
    w *= 0.98;
  }
  std::discrete_distribution<int> skew(weights.begin(), weights.end());
  std::vector<std::uint32_t> syms(kSyms);
  for (auto& v : syms) v = 32000 + static_cast<std::uint32_t>(skew(rng));
  telemetry::set_mode(telemetry::Mode::kOff);
  const auto blob = lossless::huffman_compress(syms);
  auto r = ab(
      "telemetry_off", kSyms * sizeof(std::uint32_t) * kIters,
      [&] {
        for (int i = 0; i < kIters; ++i) {
          const auto out = lossless::huffman_decompress(blob);
          g_sink = g_sink + out.size();
        }
      },
      [&] {
        for (int i = 0; i < kIters; ++i) {
          ByteReader br(blob);
          const auto count = static_cast<std::size_t>(br.get_varint());
          const auto table = lossless::huffman_table_deserialize(br.get_blob());
          const auto out = lossless::huffman_decode(table, br.get_blob(), count);
          g_sink = g_sink + out.size();
        }
      });
  r.baseline = "uninstrumented";
  return r;
}

KernelResult bench_arena_vs_heap() {
  constexpr std::size_t kChunk = 1u << 16;  // 64K doubles per scratch buffer
  constexpr int kIters = 2048;
  auto r = ab(
      "arena_alloc", kChunk * sizeof(double) * kIters,
      [&] {
        for (int i = 0; i < kIters; ++i) {
          ArenaScope scope;
          auto s = scope.alloc<double>(kChunk);
          s[0] = 1.0;
          s[kChunk - 1] = 2.0;
          g_sink = g_sink + static_cast<std::uint64_t>(s[0] + s[kChunk - 1]);
        }
      },
      [&] {
        for (int i = 0; i < kIters; ++i) {
          std::vector<double> v(kChunk);
          v[0] = 1.0;
          v[kChunk - 1] = 2.0;
          g_sink = g_sink + static_cast<std::uint64_t>(v[0] + v[kChunk - 1]);
        }
      });
  r.baseline = "heap vector";
  return r;
}

void write_json(const std::vector<KernelResult>& results) {
  std::FILE* f = std::fopen("BENCH_hotpaths.json", "w");
  if (!f) return;
  std::fprintf(f, "{\n  \"bench\": \"micro_hotpaths\",\n  \"rounds\": %d,\n",
               kRounds);
  std::fprintf(f, "  \"kernels\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(f, "    {\"name\": \"%s\", \"seconds\": %.6f, ",
                 r.name.c_str(), r.a_seconds);
    if (r.baseline)
      std::fprintf(f,
                   "\"baseline\": \"%s\", \"baseline_seconds\": %.6f, "
                   "\"speedup\": %.3f, ",
                   r.baseline, r.b_seconds, r.speedup());
    else
      std::fprintf(f, "\"baseline\": null, \"speedup\": null, ");
    std::fprintf(f, "\"mb_per_s\": %.1f}%s\n", r.mb_per_s,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote BENCH_hotpaths.json\n");
}

}  // namespace

int main() {
  std::printf("hot-path kernels, %d alternating rounds each\n", kRounds);
  std::printf("%-19s %12s %12s %9s %10s  %s\n", "kernel", "opt(s)", "base(s)",
              "speedup", "MB/s", "baseline");

  std::vector<KernelResult> results;
  results.push_back(bench_sz_roundtrip());
  results.push_back(bench_sz_hybrid_roundtrip());
  results.push_back(bench_sz_lanes());
  results.push_back(bench_sz_lanes_single());
  results.push_back(bench_scan_range());
  results.push_back(bench_pack_sign_bits());
  results.push_back(bench_huffman_build());
  results.push_back(bench_huffman_encode());
  results.push_back(bench_huffman_decode());
  results.push_back(bench_crc32());
  results.push_back(bench_lzss_compress());
  results.push_back(bench_lzss_decompress());
  results.push_back(bench_mask_roundtrip());
  results.push_back(bench_valid_scan("valid_scan", sparse_scan_level()));
  results.push_back(
      bench_valid_scan("valid_scan_dense", dense_scan_level()));
  results.push_back(bench_amr_io());
  results.push_back(bench_arena_vs_heap());
  results.push_back(bench_telemetry_off_overhead());

  bool ok = true;
  for (const auto& r : results) {
    if (r.baseline)
      std::printf("%-19s %12.4f %12.4f %8.2fx %10.1f  %s\n", r.name.c_str(),
                  r.a_seconds, r.b_seconds, r.speedup(), r.mb_per_s,
                  r.baseline);
    else
      std::printf("%-19s %12.4f %12s %9s %10.1f  -\n", r.name.c_str(),
                  r.a_seconds, "-", "n/a", r.mb_per_s);
    if (r.name == "huffman_decode" && r.speedup() < 4.0) {
      std::printf("FAIL: huffman_decode speedup %.2fx < 4x target\n",
                  r.speedup());
      ok = false;
    }
    if (r.name == "lzss_compress" && r.mb_per_s < kLzssCompressFloorMbps) {
      std::printf("FAIL: lzss_compress %.1f MB/s < %.0f MB/s floor\n",
                  r.mb_per_s, kLzssCompressFloorMbps);
      ok = false;
    }
    // Judged per round (median of the B/A ratios), not on the summed
    // times: the 1% budget is below what one disturbed round moves a sum.
    if (r.name == "telemetry_off") {
      std::printf("%-19s median of %d round ratios: %.3fx\n", "", kRounds,
                  r.median_speedup());
      if (r.median_speedup() < 0.99) {
        std::printf("FAIL: disabled telemetry costs %.1f%% on huffman "
                    "decode (median round; budget: <= 1%%)\n",
                    100.0 * (1.0 / r.median_speedup() - 1.0));
        ok = false;
      }
    }
  }
  write_json(results);
  return ok ? 0 : 1;
}
