/// \file custom_backend.cpp
/// \brief The docs/BACKENDS.md worked example: a minimal out-of-tree
/// compressor backend, registered at runtime and round-tripped through
/// every registry entry point (decompress_any, decompress_level).
///
/// The backend is a lossless "passthrough" — each level's valid cells
/// stored as raw doubles — chosen so the example stays about the
/// CompressorBackend contract (per-level payloads handed to
/// compress_per_level), not about coding theory. The class between the
/// snippet markers below is embedded verbatim in docs/BACKENDS.md;
/// scripts/check_docs.py fails CI when the two copies drift apart.

#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "amr/dataset.hpp"
#include "core/backend.hpp"
#include "core/container.hpp"
#include "core/tac.hpp"

namespace {

using namespace tac;

// [backends-guide:passthrough]
/// A lossless do-nothing backend: every level's valid cells stored as raw
/// little-endian doubles, one payload per level. Real backends replace the
/// payload body; handing one payload per level to compress_per_level is
/// the part they share.
class PassthroughBackend final : public core::CompressorBackend {
 public:
  /// Any tag without a registered backend works (5..254; 0..4 are the
  /// built-ins and 255 is the reserved kSelectorFixed sentinel). Pick one
  /// per backend and never reuse it — the tag is the on-disk identity.
  static constexpr auto kTag = static_cast<core::Method>(42);

  [[nodiscard]] core::Method method() const override { return kTag; }
  [[nodiscard]] const char* name() const override { return "passthrough"; }

  [[nodiscard]] core::CompressedAmr compress(
      const amr::AmrDataset& ds, const core::TacConfig& cfg) const override {
    // One payload per level, so index entry i maps to level i: with the
    // per-level hooks below, decompress_level reads only that payload.
    // compress_per_level encodes the levels and packs their masks
    // concurrently, then lays out header, masks and index: {offset,
    // length, crc32, profile, selector = report.method} per payload.
    return core::compress_per_level(method(), ds, [&](std::size_t l) {
      return compress_level_payload(ds.level(l), l, cfg);
    });
  }

  // decompress is inherited: decompress_per_level hands each payload to
  // decompress_level_payload below.

  [[nodiscard]] bool supports_level_payloads() const override { return true; }

  [[nodiscard]] core::LevelPayload compress_level_payload(
      const amr::AmrLevel& lv, std::size_t,
      const core::TacConfig&) const override {
    const std::vector<double> values = lv.gather_valid();
    ByteWriter w;
    w.put_varint(values.size());
    for (const double v : values) w.put(v);
    core::LevelPayload p;
    p.bytes = w.take();
    p.report.method = kTag;  // the payload's selector byte
    p.report.valid_cells = values.size();
    return p;
  }

  void decompress_level_payload(
      ByteReader& r, amr::AmrLevel& lv,
      std::optional<lossless::CodecProfile>) const override {
    // `r` spans this level's payload; `lv` arrives with dims and mask
    // decoded from the container header and data zeroed.
    std::vector<double> values(static_cast<std::size_t>(r.get_varint()));
    for (double& v : values) v = r.get<double>();
    lv.scatter_valid(values);
  }
};
// [backends-guide:end]

/// A tiny two-level dataset: the finer level owns the x < 4 half of the
/// 8^3 domain, the coarser level the rest.
amr::AmrDataset make_dataset() {
  amr::AmrLevel fine({8, 8, 8});
  amr::AmrLevel coarse({4, 4, 4});
  for (std::size_t z = 0; z < 8; ++z)
    for (std::size_t y = 0; y < 8; ++y)
      for (std::size_t x = 0; x < 4; ++x) {
        fine.mask(x, y, z) = 1;
        fine.data(x, y, z) = static_cast<double>(x + 10 * y) - 3.5;
      }
  for (std::size_t z = 0; z < 4; ++z)
    for (std::size_t y = 0; y < 4; ++y)
      for (std::size_t x = 2; x < 4; ++x) {
        coarse.mask(x, y, z) = 1;
        coarse.data(x, y, z) = 0.25 * static_cast<double>(z) - 1.0;
      }
  return amr::AmrDataset("density", {std::move(fine), std::move(coarse)}, 2);
}

bool levels_identical(const amr::AmrLevel& a, const amr::AmrLevel& b) {
  return a.dims().nx == b.dims().nx && a.dims().ny == b.dims().ny &&
         a.dims().nz == b.dims().nz &&
         std::memcmp(a.data.span().data(), b.data.span().data(),
                     a.data.size() * sizeof(double)) == 0 &&
         std::memcmp(a.mask.span().data(), b.mask.span().data(),
                     a.mask.size()) == 0;
}

}  // namespace

int main() {
  core::register_backend(std::make_unique<PassthroughBackend>());

  const amr::AmrDataset ds = make_dataset();
  const core::TacConfig cfg;  // passthrough ignores the error bound

  // Compress through the registry — after registration the new tag is a
  // first-class citizen of every dispatch path.
  const core::CompressedAmr compressed =
      core::backend_for(PassthroughBackend::kTag).compress(ds, cfg);

  // decompress_any dispatches on the container's method tag; the
  // passthrough is lossless, so the round trip must be bit-exact.
  const amr::AmrDataset back = core::decompress_any(compressed.bytes);
  if (back.num_levels() != ds.num_levels()) {
    std::fprintf(stderr, "FAIL: level count changed in the round trip\n");
    return 1;
  }
  for (std::size_t l = 0; l < ds.num_levels(); ++l) {
    if (!levels_identical(ds.level(l), back.level(l))) {
      std::fprintf(stderr, "FAIL: level %zu not bit-identical\n", l);
      return 1;
    }
  }

  // Partial decompression: the per-level hooks give decompress_level an
  // O(level) indexed read, which must equal that level of the full decode.
  for (std::size_t l = 0; l < ds.num_levels(); ++l) {
    const amr::AmrLevel one = core::decompress_level(compressed.bytes, l);
    if (!levels_identical(back.level(l), one)) {
      std::fprintf(stderr,
                   "FAIL: decompress_level(%zu) differs from the full "
                   "decode\n",
                   l);
      return 1;
    }
  }

  std::printf("passthrough backend (tag %u): %zu levels round-tripped "
              "losslessly, %zu -> %zu bytes\n",
              static_cast<unsigned>(PassthroughBackend::kTag),
              ds.num_levels(), compressed.report.original_bytes,
              compressed.report.compressed_bytes);
  return 0;
}
