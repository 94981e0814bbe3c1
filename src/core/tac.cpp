#include "core/tac.hpp"

#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/parallel.hpp"
#include "common/telemetry.hpp"
#include "core/backend.hpp"
#include "core/extraction.hpp"
#include "core/gsp.hpp"
#include "sz/resolve.hpp"
#include "sz/sz.hpp"

namespace tac::core {
namespace {

/// Resolves the absolute bound for one level. Relative bounds use the
/// level's valid-value range so every stream of the level shares one
/// bound (a per-group range would silently vary the bound inside a level).
sz::SzConfig resolve_level_config(const TacConfig& cfg, std::size_t level,
                                  const amr::AmrLevel& lv) {
  if (!cfg.level_error_bounds.empty()) {
    sz::SzConfig out = cfg.sz;
    out.mode = sz::ErrorBoundMode::kAbsolute;
    out.error_bound = cfg.level_error_bounds.at(level);
    return out;
  }
  if (cfg.sz.mode == sz::ErrorBoundMode::kRelative) {
    const auto [lo, hi] = [&] {
      TAC_SPAN("tac.level_range");
      return lv.valid_range();
    }();
    return sz::resolve_range_bound(cfg.sz, lo, hi);
  }
  return cfg.sz;
}

void serialize_groups(ByteWriter& w, const std::vector<BlockGroup>& groups,
                      const std::vector<std::vector<std::uint8_t>>& streams) {
  w.put_varint(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const BlockGroup& grp = groups[g];
    w.put_varint(grp.members.front().sx);
    w.put_varint(grp.members.front().sy);
    w.put_varint(grp.members.front().sz);
    w.put_varint(grp.members.size());
    for (const SubBlock& sb : grp.members) {
      w.put_varint(sb.bx);
      w.put_varint(sb.by);
      w.put_varint(sb.bz);
    }
    w.put_blob(streams[g]);
  }
}

/// One entry of a level payload's group table: the group's placement
/// (members and extents, buffer still empty) and its undecoded sz stream.
struct GroupRecord {
  BlockGroup group;
  std::span<const std::uint8_t> stream;
};

/// Reads the group table of one level, checking all of it before anything
/// is decoded or allocated for values. Group extents and members must lie
/// in the level's block grid and no two members may claim the same unit
/// block (extraction never repeats one), so each stream's expected cell
/// count is bounded by the level before sz sees it, and groups scatter
/// into disjoint cells.
std::vector<GroupRecord> read_group_table(ByteReader& r,
                                          const BlockGrid& grid) {
  const std::size_t block_size = grid.block_size();
  const Dims3 bd = grid.block_dims();
  std::size_t blocks_left = bd.volume();
  std::vector<bool> claimed(bd.volume(), false);
  const std::size_t ngroups = r.get_count("tac: group count", 4);
  std::vector<GroupRecord> out;
  out.reserve(ngroups);
  for (std::size_t g = 0; g < ngroups; ++g) {
    GroupRecord rec;
    BlockGroup& grp = rec.group;
    const std::size_t sx = static_cast<std::size_t>(r.get_varint());
    const std::size_t sy = static_cast<std::size_t>(r.get_varint());
    const std::size_t sz_ = static_cast<std::size_t>(r.get_varint());
    if (sx == 0 || sy == 0 || sz_ == 0 || sx > bd.nx || sy > bd.ny ||
        sz_ > bd.nz)
      throw std::runtime_error("tac: group extent outside the block grid");
    grp.block_cell_dims = {sx * block_size, sy * block_size,
                           sz_ * block_size};
    const std::size_t nmembers = r.get_count("tac: group member count", 3);
    const std::size_t group_blocks = sx * sy * sz_;
    if (nmembers > blocks_left / group_blocks)
      throw std::runtime_error("tac: groups claim more blocks than the level");
    blocks_left -= nmembers * group_blocks;
    grp.members.reserve(nmembers);
    for (std::size_t m = 0; m < nmembers; ++m) {
      SubBlock sb;
      sb.bx = static_cast<std::size_t>(r.get_varint());
      sb.by = static_cast<std::size_t>(r.get_varint());
      sb.bz = static_cast<std::size_t>(r.get_varint());
      sb.sx = sx;
      sb.sy = sy;
      sb.sz = sz_;
      if (sb.bx > bd.nx - sx || sb.by > bd.ny - sy || sb.bz > bd.nz - sz_)
        throw std::runtime_error("tac: group member outside the block grid");
      for (std::size_t z = sb.bz; z < sb.bz + sz_; ++z)
        for (std::size_t y = sb.by; y < sb.by + sy; ++y)
          for (std::size_t x = sb.bx; x < sb.bx + sx; ++x) {
            const std::size_t b = bd.index(x, y, z);
            if (claimed[b])
              throw std::runtime_error("tac: groups claim a block twice");
            claimed[b] = true;
          }
      grp.members.push_back(sb);
    }
    rec.stream = r.get_blob();
    out.push_back(std::move(rec));
  }
  return out;
}

/// Decodes one level's payload (strategy tag, block size, streams) into
/// `lv`, whose mask is already filled from the header and whose data is
/// zero. Sub-block strategies write valid cells only, so empty cells keep
/// that zero and the untouched pages of a sparse level are never faulted
/// in; a GSP/ZF grid covers the whole level, decodes into it and has its
/// empty cells zeroed again.
/// `expected` is the codec profile the container's index declares for
/// this payload (nullopt for pre-v3 containers → lenient decode).
void decode_tac_level(ByteReader& r, amr::AmrLevel& lv,
                      std::optional<lossless::CodecProfile> expected) {
  TAC_SPAN("tac.level_decode");
  const auto strategy = static_cast<Strategy>(r.get<std::uint8_t>());
  const std::size_t block_size = static_cast<std::size_t>(r.get_varint());
  if (block_size == 0)
    throw std::runtime_error("tac: corrupt level payload (block size 0)");
  const BlockGrid grid(lv.dims(), block_size);
  switch (strategy) {
    case Strategy::kNaST:
    case Strategy::kOpST:
    case Strategy::kAKDTree: {
      const std::vector<GroupRecord> groups = read_group_table(r, grid);
      // Groups fill disjoint cells, and each member block goes from the
      // decoder's per-worker scratch straight into the level, so no group
      // buffer is ever built. A level of fewer cells than two chunks'
      // worth decodes inline.
      std::size_t cells = 0;
      for (const GroupRecord& rec : groups)
        cells += rec.group.members.size() * rec.group.block_cell_dims.volume();
      parallel_for(
          0, groups.size(),
          [&](std::size_t g) {
            const BlockGroup& grp = groups[g].group;
            const sz::BlockSink<double> sink =
                [&](std::size_t m, std::span<const double> block) {
                  TAC_SPAN("tac.scatter");
                  scatter_block(lv, grid, grp.block_cell_dims, grp.members[m],
                                block);
                };
            sz::decompress_blocks<double>(groups[g].stream,
                                          grp.block_cell_dims,
                                          grp.members.size(), sink, expected);
          },
          cells >= 2 * kMinElementsPerChunk ? 1 : groups.size());
      break;
    }
    case Strategy::kGSP:
    case Strategy::kZF: {
      sz::decompress_into<double>(r.get_blob(), lv.data.span(), expected);
      // Padded values of a GSP/ZF grid must not leak into empty cells.
      TAC_SPAN("tac.scatter");
      const std::size_t n = lv.data.size();
      double* d = lv.data.data();
      parallel_for(
          0, ceil_div(n, kMinElementsPerChunk),
          [&](std::size_t c) {
            const std::size_t first = c * kMinElementsPerChunk;
            const std::size_t last = std::min(n, first + kMinElementsPerChunk);
            std::size_t gap = first;  // start of the empty cells to zero
            amr::for_each_valid_run(
                lv.mask.span().subspan(first, last - first),
                [&](std::size_t lo, std::size_t hi) {
                  std::fill(d + gap, d + first + lo, 0.0);
                  gap = first + hi;
                });
            std::fill(d + gap, d + last, 0.0);
          },
          1);
      break;
    }
    default:
      throw std::runtime_error("tac: unknown strategy tag");
  }
}

/// Encodes one level standalone (strategy tag, block size, streams) —
/// the container chunk plus diagnostics. Levels are independent, so the
/// pipeline produces these concurrently and concatenates the chunks in
/// level order — byte-identical to a serial run at any thread count.
/// Taking the level (not the dataset) lets the auto-selector trial-encode
/// sampled stand-in levels through the same code path.
LevelPayload compress_level(const amr::AmrLevel& lv, std::size_t level,
                            const TacConfig& cfg) {
  TAC_SPAN("tac.level_compress");
  LevelPayload out;
  LevelReport& lr = out.report;
  lr.method = Method::kTac;

  const BlockGrid grid(lv.dims(), cfg.block_size);
  const auto occ = [&] {
    TAC_SPAN("tac.occupancy");
    return block_occupancy(lv, grid, &lr.valid_cells);
  }();
  lr.block_density = occupancy_density(occ);
  lr.strategy = cfg.force_strategy.value_or(
      select_strategy(lr.block_density, cfg.t1, cfg.t2));

  const sz::SzConfig level_cfg = resolve_level_config(cfg, level, lv);

  ByteWriter w;
  w.put<std::uint8_t>(static_cast<std::uint8_t>(lr.strategy));
  w.put_varint(cfg.block_size);

  switch (lr.strategy) {
    case Strategy::kNaST:
    case Strategy::kOpST:
    case Strategy::kAKDTree: {
      std::vector<SubBlock> subs;
      {
        TAC_SPAN("tac.extract");
        if (lr.strategy == Strategy::kNaST)
          subs = nast_extract(occ);
        else if (lr.strategy == Strategy::kOpST)
          subs = opst_extract(occ);
        else
          subs = akdtree_extract(occ);
      }
      // Arena-backed group buffers: gathered, compressed and serialized
      // before the scope closes, so a steady-state level pipeline reuses
      // the same retained blocks instead of heap-allocating per group.
      ArenaScope scratch;
      auto groups = [&] {
        TAC_SPAN("tac.gather_groups");
        return gather_groups(lv, grid, subs, scratch);
      }();
      lr.n_sub_blocks = subs.size();
      lr.n_groups = groups.size();

      // The per-extent group streams are independent: compress them
      // concurrently, then serialize in group order so the container
      // stays deterministic.
      std::vector<std::vector<std::uint8_t>> streams(groups.size());
      parallel_for(
          0, groups.size(),
          [&](std::size_t g) {
            streams[g] = sz::compress<double>(groups[g].buffer,
                                              groups[g].block_cell_dims,
                                              level_cfg,
                                              groups[g].members.size());
          },
          /*grain=*/1);
      if (!streams.empty())
        lr.abs_error_bound = sz::peek(streams.back()).abs_error_bound;
      serialize_groups(w, groups, streams);
      break;
    }
    case Strategy::kGSP:
    case Strategy::kZF: {
      const Array3D<double> padded = [&] {
        TAC_SPAN("tac.pad");
        return lr.strategy == Strategy::kGSP ? gsp_pad(lv, grid, occ)
                                             : zf_pad(lv);
      }();
      lr.n_groups = 1;

      const auto stream =
          sz::compress<double>(padded.span(), padded.dims(), level_cfg);
      lr.abs_error_bound = sz::peek(stream).abs_error_bound;
      w.put_blob(stream);
      break;
    }
  }
  out.bytes = w.take();
  return out;
}

class TacBackend final : public CompressorBackend {
 public:
  [[nodiscard]] Method method() const override { return Method::kTac; }
  [[nodiscard]] const char* name() const override { return "TAC"; }

  [[nodiscard]] CompressedAmr compress(const amr::AmrDataset& ds,
                                       const TacConfig& cfg) const override {
    detail::check_level_config("tac_compress", ds, cfg);
    TAC_SPAN("tac.compress");
    return compress_per_level(Method::kTac, ds, [&](std::size_t l) {
      return compress_level(ds.level(l), l, cfg);
    });
  }

  [[nodiscard]] bool supports_level_payloads() const override { return true; }

  [[nodiscard]] LevelPayload compress_level_payload(
      const amr::AmrLevel& lv, std::size_t level,
      const TacConfig& cfg) const override {
    return compress_level(lv, level, cfg);
  }

  void decompress_level_payload(
      ByteReader& r, amr::AmrLevel& lv,
      std::optional<lossless::CodecProfile> profile) const override {
    decode_tac_level(r, lv, profile);
  }
};

}  // namespace

namespace detail {
std::unique_ptr<CompressorBackend> make_tac_backend() {
  return std::make_unique<TacBackend>();
}
}  // namespace detail

Strategy select_strategy(double block_density, double t1, double t2) {
  if (block_density < t1) return Strategy::kOpST;
  if (block_density < t2) return Strategy::kAKDTree;
  return Strategy::kGSP;
}

CompressedAmr tac_compress(const amr::AmrDataset& ds, const TacConfig& cfg) {
  return backend_for(Method::kTac).compress(ds, cfg);
}

amr::AmrDataset decompress_any(std::span<const std::uint8_t> bytes) {
  TAC_SPAN_BYTES("core.decompress_any", bytes.size());
  ByteReader r(bytes);
  const CommonHeader h = read_common_header(r);
  // v2+: every payload is about to be read — catch corruption up front as
  // a checksum error rather than a decoder misparse. No-op for v1.
  verify_payloads(bytes, h.index);
  return backend_for(h.method).decompress(r, materialize_skeleton(h), h);
}

amr::AmrLevel decompress_level(std::span<const std::uint8_t> bytes,
                               std::size_t level) {
  ByteReader r(bytes);
  return decompress_level(bytes, read_common_header(r), level);
}

}  // namespace tac::core
