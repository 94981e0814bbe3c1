/// \file micro_sz.cpp
/// \brief google-benchmark microbenchmarks of the SZ-style compressor
/// substrate: compression/decompression throughput vs error bound and the
/// cost of the batched (4D) block mode.

#include <benchmark/benchmark.h>

#include <cmath>
#include <random>
#include <vector>

#include "common/dims.hpp"
#include "sz/sz.hpp"

namespace {

using namespace tac;

std::vector<double> smooth_field(Dims3 d, unsigned seed = 7) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> jitter(-0.02, 0.02);
  std::vector<double> v(d.volume());
  for (std::size_t z = 0; z < d.nz; ++z)
    for (std::size_t y = 0; y < d.ny; ++y)
      for (std::size_t x = 0; x < d.nx; ++x)
        v[d.index(x, y, z)] =
            1e9 * (1.0 + std::sin(0.08 * static_cast<double>(x)) *
                             std::cos(0.05 * static_cast<double>(y + z))) +
            1e6 * jitter(rng);
  return v;
}

void BM_SzCompress3D(benchmark::State& state) {
  const Dims3 d{64, 64, 64};
  const auto v = smooth_field(d);
  const double eb = std::pow(10.0, static_cast<double>(state.range(0)));
  const sz::SzConfig cfg{.mode = sz::ErrorBoundMode::kAbsolute,
                         .error_bound = eb};
  std::size_t compressed = 0;
  for (auto _ : state) {
    const auto bytes = sz::compress<double>(v, d, cfg);
    compressed = bytes.size();
    benchmark::DoNotOptimize(bytes.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(v.size() * 8));
  state.counters["CR"] =
      static_cast<double>(v.size() * 8) / static_cast<double>(compressed);
}
BENCHMARK(BM_SzCompress3D)->Arg(6)->Arg(7)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_SzDecompress3D(benchmark::State& state) {
  const Dims3 d{64, 64, 64};
  const auto v = smooth_field(d);
  const sz::SzConfig cfg{.mode = sz::ErrorBoundMode::kAbsolute,
                         .error_bound = 1e7};
  const auto bytes = sz::compress<double>(v, d, cfg);
  for (auto _ : state) {
    const auto back = sz::decompress<double>(bytes, v.size());
    benchmark::DoNotOptimize(back.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(v.size() * 8));
}
BENCHMARK(BM_SzDecompress3D)->Unit(benchmark::kMillisecond);

void BM_SzBatchedBlocks(benchmark::State& state) {
  // Same payload split into 8^3-cell blocks: measures the batched-stream
  // overhead that OpST/AKDTree outputs ride on.
  const Dims3 block{8, 8, 8};
  const std::size_t nblocks = static_cast<std::size_t>(state.range(0));
  std::vector<double> v;
  for (std::size_t b = 0; b < nblocks; ++b) {
    const auto f = smooth_field(block, static_cast<unsigned>(b));
    v.insert(v.end(), f.begin(), f.end());
  }
  const sz::SzConfig cfg{.mode = sz::ErrorBoundMode::kAbsolute,
                         .error_bound = 1e7};
  for (auto _ : state) {
    const auto bytes = sz::compress<double>(v, block, cfg, nblocks);
    benchmark::DoNotOptimize(bytes.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(v.size() * 8));
}
BENCHMARK(BM_SzBatchedBlocks)->Arg(64)->Arg(512)->Unit(benchmark::kMillisecond);

void BM_Sz1D(benchmark::State& state) {
  const Dims3 d{262144, 1, 1};
  const auto v = smooth_field(d);
  const sz::SzConfig cfg{.mode = sz::ErrorBoundMode::kAbsolute,
                         .error_bound = 1e7};
  for (auto _ : state) {
    const auto bytes = sz::compress<double>(v, d, cfg);
    benchmark::DoNotOptimize(bytes.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(v.size() * 8));
}
BENCHMARK(BM_Sz1D)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
