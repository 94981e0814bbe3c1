/// \file selector.cpp
/// \brief Per-level adaptive backend selection — the `auto` pseudo-backend.
///
/// BENCH_tab02.json shows no single method wins every (dataset, error
/// bound) cell: TAC's density-adaptive 3D encode wins dense fields while
/// the 1D baseline wins sparse, near-constant ones. The selector exploits
/// that per level: it trial-compresses a small deterministic sample of
/// each level's occupied unit blocks with every level-capable registered
/// backend (CompressorBackend::supports_level_payloads), and encodes the
/// level with the backend whose trial came out smallest. The chosen
/// method is recorded in the v4 payload index's selector byte, so
/// decoding needs no side channel: each payload dispatches to the backend
/// its entry names.
///
/// Determinism: block sampling is a pure function of (occupancy, level),
/// and the verdict compares trial byte counts — which are byte-stable
/// across thread counts and SIMD tiers — with ties going to the lowest
/// method tag, so the same input and config produce the same per-level
/// choices and a byte-identical container anywhere.

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/telemetry.hpp"
#include "core/backend.hpp"
#include "core/block_grid.hpp"

namespace tac::core {
namespace {

/// Fraction of a level's occupied unit blocks trial-compressed per
/// candidate: it keeps total selection overhead under ~10% of compression
/// time with the two built-in level-capable candidates.
constexpr double kSampleFraction = 0.025;
/// Trial at least this many blocks (clamped to the occupied count) so
/// tiny levels still get a meaningful sample.
constexpr std::size_t kMinSampleBlocks = 4;
/// Seed of the block-sampling sequence; the sampled blocks, and with them
/// the per-level winners and the container bytes, depend on it.
constexpr std::uint64_t kSamplingSeed = 0;

/// Coordinates of one occupied unit block.
struct BlockCoord {
  std::size_t bx, by, bz;
};

/// splitmix64 — a tiny, well-mixed hash used to derive the per-level
/// sampling phase from (seed, level). Deterministic by construction.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Occupied unit blocks in raster order (x fastest) — a stable enumeration
/// the stride sampler indexes into.
std::vector<BlockCoord> occupied_blocks(const Array3D<std::uint8_t>& occ,
                                        const Dims3& bd) {
  std::vector<BlockCoord> out;
  for (std::size_t bz = 0; bz < bd.nz; ++bz)
    for (std::size_t by = 0; by < bd.ny; ++by)
      for (std::size_t bx = 0; bx < bd.nx; ++bx)
        if (occ(bx, by, bz)) out.push_back({bx, by, bz});
  return out;
}

/// Evenly strided sample of `want` blocks with a hashed phase offset, so
/// different levels (and seeds) probe different blocks but the same
/// (input, seed) always probes the same ones.
std::vector<BlockCoord> sample_blocks(const std::vector<BlockCoord>& occ,
                                      std::size_t want, std::size_t level,
                                      std::uint64_t seed) {
  if (want >= occ.size()) return occ;
  const std::size_t stride = occ.size() / want;
  const std::size_t phase =
      static_cast<std::size_t>(splitmix64(seed ^ level) % stride);
  std::vector<BlockCoord> out;
  out.reserve(want);
  for (std::size_t i = 0; i < want; ++i) out.push_back(occ[phase + i * stride]);
  return out;
}

/// Builds the stand-in level the candidates trial-compress: the sampled
/// unit blocks stacked along z into a (bs, bs, bs * n) grid, each block's
/// (possibly edge-clipped) cells copied into its slot's corner with the
/// real mask. The stand-in preserves intra-block structure — what the 3D
/// predictor and the 1D stream actually see — at a fraction of the
/// level's volume.
amr::AmrLevel build_sample_level(const amr::AmrLevel& lv,
                                 const BlockGrid& grid,
                                 const std::vector<BlockCoord>& blocks) {
  const std::size_t bs = grid.block_size();
  amr::AmrLevel sample(Dims3{bs, bs, bs * blocks.size()});
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const Box3 box = grid.block_box(blocks[i].bx, blocks[i].by, blocks[i].bz);
    const std::size_t z_base = i * bs;
    for (std::size_t z = box.z0; z < box.z1; ++z)
      for (std::size_t y = box.y0; y < box.y1; ++y)
        for (std::size_t x = box.x0; x < box.x1; ++x) {
          if (!lv.mask(x, y, z)) continue;
          const std::size_t sx = x - box.x0;
          const std::size_t sy = y - box.y0;
          const std::size_t sz_ = z_base + (z - box.z0);
          sample.data(sx, sy, sz_) = lv.data(x, y, z);
          sample.mask(sx, sy, sz_) = 1;
        }
  }
  return sample;
}

/// The candidate set: every registered backend that supports per-level
/// payloads, ascending by tag. TAC and 1D always qualify; a custom backend
/// that opts in joins them.
std::vector<Method> selector_candidates() {
  std::vector<Method> out;
  for (Method m : registered_methods())
    if (backend_for(m).supports_level_payloads()) out.push_back(m);
  return out;
}

/// Picks the backend for `lv` (level index `level` of its dataset) by
/// trial-compressing a sampled stand-in level with each candidate under
/// `cfg`'s error bound; the smallest trial wins. Empty levels skip the
/// trials and deterministically pick the lowest-tag candidate.
Method select_for_level(const amr::AmrLevel& lv, std::size_t level,
                        const TacConfig& cfg) {
  TAC_SPAN("selector.select_level");
  const std::vector<Method> candidates = selector_candidates();

  const BlockGrid grid(lv.dims(), cfg.block_size);
  const auto occ = block_occupancy(lv, grid);
  const auto occupied = occupied_blocks(occ, grid.block_dims());
  // Empty level: nothing to probe, lowest tag wins.
  if (occupied.empty()) return candidates.front();

  std::size_t want = static_cast<std::size_t>(
      std::llround(kSampleFraction * static_cast<double>(occupied.size())));
  want = std::min(std::max(want, kMinSampleBlocks), occupied.size());
  const auto sampled = sample_blocks(occupied, want, level, kSamplingSeed);
  const amr::AmrLevel sample = build_sample_level(lv, grid, sampled);

  // The stacked sample is artificially dense (every block it contains is
  // occupied), which would bias TAC's density filter toward GSP. Pin the
  // trial to the strategy the REAL level's density selects, so the trial
  // measures what the final encode would actually do.
  TacConfig trial_cfg = cfg;
  if (!trial_cfg.force_strategy)
    trial_cfg.force_strategy = select_strategy(occupancy_density(occ));

  TAC_COUNTER_ADD("selector.sampled_blocks", sampled.size());
  // The smallest trial wins. Strict less-than over tag-ascending trials:
  // ties deterministically go to the lowest method tag.
  Method winner = candidates.front();
  std::size_t best_bytes = std::numeric_limits<std::size_t>::max();
  for (Method m : candidates) {
    TAC_SPAN_NAMED(trial_span, "selector.trial");
    const LevelPayload p =
        backend_for(m).compress_level_payload(sample, level, trial_cfg);
    trial_span.set_bytes(p.bytes.size());
    if (p.bytes.size() < best_bytes) {
      best_bytes = p.bytes.size();
      winner = m;
    }
  }
  TAC_COUNTER_ADD("selector.trials", candidates.size());
  TAC_COUNTER_ADD("selector.trials_won", 1);
  TAC_COUNTER_ADD("selector.trials_lost", candidates.size() - 1);
  return winner;
}

/// The `auto` pseudo-backend: per level, run the selection trial, encode
/// with the winner, and stamp the winner's tag into the v4 selector byte.
/// It decodes through the default decompress, decompress_per_level, which
/// dispatches every payload to the backend its index entry names, so
/// mixed-method containers round-trip through the ordinary
/// decompress_any / decompress_level entry points.
class AutoBackend final : public CompressorBackend {
 public:
  [[nodiscard]] Method method() const override { return Method::kAuto; }
  [[nodiscard]] const char* name() const override { return "auto"; }

  [[nodiscard]] CompressedAmr compress(const amr::AmrDataset& ds,
                                       const TacConfig& cfg) const override {
    detail::check_level_config("auto", ds, cfg);

    TAC_SPAN("auto.compress");
    // The winners compare byte counts, so they (and therefore the
    // container bytes) are identical at any thread count.
    return compress_per_level(Method::kAuto, ds, [&](std::size_t l) {
      const Method winner = select_for_level(ds.level(l), l, cfg);
      LevelPayload payload =
          backend_for(winner).compress_level_payload(ds.level(l), l, cfg);
      payload.report.method = winner;
      return payload;
    });
  }
};

}  // namespace

namespace detail {
std::unique_ptr<CompressorBackend> make_auto_backend() {
  return std::make_unique<AutoBackend>();
}
}  // namespace detail

}  // namespace tac::core
