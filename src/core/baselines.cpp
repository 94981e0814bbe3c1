#include "core/baselines.hpp"

#include <optional>
#include <stdexcept>

#include "amr/uniform.hpp"
#include "common/arena.hpp"
#include "common/telemetry.hpp"
#include "core/backend.hpp"
#include "sz/resolve.hpp"
#include "sz/sz.hpp"

namespace tac::core {
namespace {

std::pair<double, double> dataset_valid_range(const amr::AmrDataset& ds) {
  bool any = false;
  double lo = 0, hi = 0;
  for (std::size_t l = 0; l < ds.num_levels(); ++l) {
    const auto& lv = ds.level(l);
    if (lv.valid_count() == 0) continue;
    const auto [llo, lhi] = lv.valid_range();
    if (!any) {
      lo = llo;
      hi = lhi;
      any = true;
    } else {
      lo = std::min(lo, llo);
      hi = std::max(hi, lhi);
    }
  }
  return {lo, hi};
}

/// One 1D sz stream as a payload blob, empty when there are no values:
/// every 1D level payload and the single zMesh payload.
LevelPayload stream_payload(Method method, std::span<const double> values,
                            const sz::SzConfig& cfg) {
  LevelPayload out;
  out.report.method = method;
  out.report.valid_cells = values.size();
  ByteWriter w;
  if (values.empty()) {
    w.put_blob({});
  } else {
    const auto stream =
        sz::compress<double>(values, Dims3{values.size(), 1, 1}, cfg);
    out.report.abs_error_bound = sz::peek(stream).abs_error_bound;
    w.put_blob(stream);
  }
  out.bytes = w.take();
  return out;
}

void visit_zmesh(const amr::AmrDataset& ds, std::size_t level, std::size_t x,
                 std::size_t y, std::size_t z, auto&& emit) {
  const amr::AmrLevel& lv = ds.level(level);
  if (lv.mask(x, y, z)) {
    emit(level, x, y, z);
    return;
  }
  if (level == 0) return;  // uncovered finest cell: hole in the partition
  const auto r = static_cast<std::size_t>(ds.refinement_ratio());
  for (std::size_t dz = 0; dz < r; ++dz)
    for (std::size_t dy = 0; dy < r; ++dy)
      for (std::size_t dx = 0; dx < r; ++dx)
        visit_zmesh(ds, level - 1, x * r + dx, y * r + dy, z * r + dz, emit);
}

void zmesh_traverse(const amr::AmrDataset& ds, auto&& emit) {
  if (ds.num_levels() == 0) return;
  ds.check_structure("zmesh");
  const std::size_t coarsest = ds.num_levels() - 1;
  const Dims3 cd = ds.level(coarsest).dims();
  for (std::size_t z = 0; z < cd.nz; ++z)
    for (std::size_t y = 0; y < cd.ny; ++y)
      for (std::size_t x = 0; x < cd.nx; ++x)
        visit_zmesh(ds, coarsest, x, y, z, emit);
}

class OneDBackend final : public CompressorBackend {
 public:
  [[nodiscard]] Method method() const override { return Method::kOneD; }
  [[nodiscard]] const char* name() const override { return "1D"; }

  [[nodiscard]] CompressedAmr compress(const amr::AmrDataset& ds,
                                       const TacConfig& cfg) const override {
    TAC_SPAN("oned.compress");
    return compress_per_level(Method::kOneD, ds, [&](std::size_t l) {
      return encode_level(ds.level(l), cfg);
    });
  }

  [[nodiscard]] bool supports_level_payloads() const override { return true; }

  [[nodiscard]] LevelPayload compress_level_payload(
      const amr::AmrLevel& lv, std::size_t /*level*/,
      const TacConfig& cfg) const override {
    return encode_level(lv, cfg);
  }

  void decompress_level_payload(
      ByteReader& r, amr::AmrLevel& lv,
      std::optional<lossless::CodecProfile> profile) const override {
    TAC_SPAN("oned.level_decode");
    const auto stream = r.get_blob();
    if (stream.empty()) {
      lv.scatter_valid({});
    } else {
      ArenaScope scratch;
      const auto values = scratch.alloc<double>(lv.valid_count());
      sz::decompress_into<double>(stream, values, profile);
      lv.scatter_valid(values);
    }
  }

 private:
  /// Encodes one level standalone: the blob compress() writes as the
  /// level's payload, plus diagnostics. The 1D bound resolves against
  /// this level's own valid range, so the encoding never depends on
  /// sibling levels.
  static LevelPayload encode_level(const amr::AmrLevel& lv,
                                   const TacConfig& cfg) {
    TAC_SPAN("oned.level_encode");
    const auto [lo, hi] = lv.valid_range();
    // Arena-backed gather: the 1D stream is built and compressed before
    // the scope closes, so repeated level encodes reuse the same scratch
    // blocks.
    ArenaScope scratch;
    const auto values = scratch.alloc<double>(lv.valid_count());
    lv.gather_valid_into(values);
    return stream_payload(Method::kOneD, values,
                          sz::resolve_range_bound(cfg.sz, lo, hi));
  }
};

class ZMeshBackend final : public CompressorBackend {
 public:
  [[nodiscard]] Method method() const override { return Method::kZMesh; }
  [[nodiscard]] const char* name() const override { return "zMesh"; }

  [[nodiscard]] CompressedAmr compress(const amr::AmrDataset& ds,
                                       const TacConfig& cfg) const override {
    TAC_SPAN("zmesh.compress");
    // One interleaved stream spanning every level: a single payload (and
    // a single level report), so decompress_level takes the full-decode
    // fallback for this backend.
    const auto values = zmesh_gather(ds);
    const auto [lo, hi] = dataset_valid_range(ds);
    std::vector<LevelPayload> payload;
    payload.push_back(stream_payload(Method::kZMesh, values,
                                     sz::resolve_range_bound(cfg.sz, lo, hi)));
    return write_container(Method::kZMesh, ds, std::move(payload));
  }

  [[nodiscard]] amr::AmrDataset decompress(
      ByteReader& r, amr::AmrDataset skeleton,
      const CommonHeader& header) const override {
    TAC_SPAN("zmesh.decompress");
    const auto stream = r.get_blob();
    if (stream.empty()) return skeleton;
    std::size_t cells = 0;
    zmesh_traverse(skeleton, [&](auto...) { ++cells; });
    const auto values =
        sz::decompress<double>(stream, cells, payload_profile(header, 0));
    zmesh_scatter(skeleton, values);
    return skeleton;
  }
};

class Upsample3DBackend final : public CompressorBackend {
 public:
  [[nodiscard]] Method method() const override { return Method::kUpsample3D; }
  [[nodiscard]] const char* name() const override { return "3D"; }

  [[nodiscard]] CompressedAmr compress(const amr::AmrDataset& ds,
                                       const TacConfig& cfg) const override {
    TAC_SPAN("upsample3d.compress");
    // Levels merge into one up-sampled uniform grid: a single payload, so
    // decompress_level takes the full-decode fallback here too.
    const Array3D<double> uniform = amr::compose_uniform(ds);
    const auto [lo, hi] = dataset_valid_range(ds);
    const auto stream = sz::compress<double>(
        uniform.span(), uniform.dims(),
        sz::resolve_range_bound(cfg.sz, lo, hi));
    std::vector<LevelPayload> payload(1);
    LevelReport& lr = payload.front().report;
    lr.method = Method::kUpsample3D;
    lr.valid_cells = ds.total_valid();
    lr.abs_error_bound = sz::peek(stream).abs_error_bound;
    ByteWriter w;
    w.put_blob(stream);
    payload.front().bytes = w.take();
    return write_container(Method::kUpsample3D, ds, std::move(payload));
  }

  [[nodiscard]] amr::AmrDataset decompress(
      ByteReader& r, amr::AmrDataset skeleton,
      const CommonHeader& header) const override {
    TAC_SPAN("upsample3d.decompress");
    const auto stream = r.get_blob();
    const Dims3 fd = skeleton.finest_dims();
    Array3D<double> uniform(fd);
    sz::decompress_into<double>(stream, uniform.span(),
                                payload_profile(header, 0));
    amr::distribute_uniform(uniform, skeleton);
    return skeleton;
  }
};

TacConfig sz_only(const sz::SzConfig& cfg) {
  TacConfig out;
  out.sz = cfg;
  return out;
}

}  // namespace

namespace detail {
std::unique_ptr<CompressorBackend> make_oned_backend() {
  return std::make_unique<OneDBackend>();
}
std::unique_ptr<CompressorBackend> make_zmesh_backend() {
  return std::make_unique<ZMeshBackend>();
}
std::unique_ptr<CompressorBackend> make_upsample3d_backend() {
  return std::make_unique<Upsample3DBackend>();
}
}  // namespace detail

std::vector<double> zmesh_gather(const amr::AmrDataset& ds) {
  std::vector<double> out;
  out.reserve(ds.total_valid());
  zmesh_traverse(ds, [&](std::size_t level, std::size_t x, std::size_t y,
                         std::size_t z) {
    out.push_back(ds.level(level).data(x, y, z));
  });
  return out;
}

void zmesh_scatter(amr::AmrDataset& ds, std::span<const double> values) {
  std::size_t i = 0;
  zmesh_traverse(ds, [&](std::size_t level, std::size_t x, std::size_t y,
                         std::size_t z) {
    if (i >= values.size())
      throw std::invalid_argument("zmesh_scatter: too few values");
    ds.level(level).data(x, y, z) = values[i++];
  });
  if (i != values.size())
    throw std::invalid_argument("zmesh_scatter: too many values");
}

CompressedAmr oned_compress(const amr::AmrDataset& ds,
                            const sz::SzConfig& cfg) {
  return backend_for(Method::kOneD).compress(ds, sz_only(cfg));
}

CompressedAmr zmesh_compress(const amr::AmrDataset& ds,
                             const sz::SzConfig& cfg) {
  return backend_for(Method::kZMesh).compress(ds, sz_only(cfg));
}

CompressedAmr upsample3d_compress(const amr::AmrDataset& ds,
                                  const sz::SzConfig& cfg) {
  return backend_for(Method::kUpsample3D).compress(ds, sz_only(cfg));
}

}  // namespace tac::core
