/// \file custom_backend.cpp
/// \brief The docs/BACKENDS.md worked example: a minimal out-of-tree
/// compressor backend, registered at runtime and round-tripped through
/// every registry entry point (decompress_any, decompress_level).
///
/// The backend is a lossless "passthrough" — each level's valid cells
/// stored as raw doubles — chosen so the example stays about the
/// CompressorBackend/PayloadIndexBuilder protocol, not about coding
/// theory. The class between the snippet markers below is embedded
/// verbatim in docs/BACKENDS.md; scripts/check_docs.py fails CI when the
/// two copies drift apart.

#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "amr/dataset.hpp"
#include "core/backend.hpp"
#include "core/container.hpp"
#include "core/tac.hpp"

namespace {

using namespace tac;

// [backends-guide:passthrough]
/// A lossless do-nothing backend: every level's valid cells stored as raw
/// little-endian doubles. Real backends replace the payload body; the
/// header/index protocol shown here is the part they all share.
class PassthroughBackend final : public core::CompressorBackend {
 public:
  /// Any tag without a registered backend works (5..254; 0..4 are the
  /// built-ins and 255 is the reserved kSelectorFixed sentinel). Pick one
  /// per backend and never reuse it — the tag is the on-disk identity.
  static constexpr auto kTag = static_cast<core::Method>(42);

  [[nodiscard]] core::Method method() const override { return kTag; }
  [[nodiscard]] const char* name() const override { return "passthrough"; }

  [[nodiscard]] core::CompressedAmr compress(
      const amr::AmrDataset& ds, const core::TacConfig&) const override {
    ByteWriter w;
    // One payload per level, so index entry i maps to level i. With the
    // per-level hooks that mapping gives decompress_level O(level) random
    // access; without them, as here, it decodes the whole container.
    auto index = core::write_common_header(w, method(), ds, ds.num_levels());
    for (std::size_t l = 0; l < ds.num_levels(); ++l) {
      index.begin_payload();
      const std::vector<double> values = ds.level(l).gather_valid();
      w.put_varint(values.size());
      for (const double v : values) w.put(v);
      index.end_payload();  // patches {offset, length, crc32, profile, tag}
    }
    index.finish();  // throws if any reserved entry was left unsealed
    core::CompressedAmr out;
    out.bytes = w.take();
    out.report.method = method();
    out.report.original_bytes = ds.original_bytes();
    out.report.compressed_bytes = out.bytes.size();
    return out;
  }

  [[nodiscard]] amr::AmrDataset decompress(
      ByteReader& r, amr::AmrDataset skeleton,
      const core::CommonHeader&) const override {
    // `skeleton` arrives with dims + masks decoded from the common header
    // and data zeroed; `r` is positioned at this backend's first payload.
    for (std::size_t l = 0; l < skeleton.num_levels(); ++l)
      decode_level(r, skeleton.level(l));
    return skeleton;
  }

 private:
  static void decode_level(ByteReader& r, amr::AmrLevel& lv) {
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

  // Partial decompression works too: decompress_level's full-decode
  // fallback is correct for any backend (backends with the per-level
  // hooks get an O(level) indexed read — see docs/BACKENDS.md).
  const amr::AmrLevel coarse = core::decompress_level(compressed.bytes, 1);
  if (!levels_identical(ds.level(1), coarse)) {
    std::fprintf(stderr, "FAIL: decompress_level(1) not bit-identical\n");
    return 1;
  }

  std::printf("passthrough backend (tag %u): %zu levels round-tripped "
              "losslessly, %zu -> %zu bytes\n",
              static_cast<unsigned>(PassthroughBackend::kTag),
              ds.num_levels(), compressed.report.original_bytes,
              compressed.report.compressed_bytes);
  return 0;
}
