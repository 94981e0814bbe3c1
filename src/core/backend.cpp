#include "core/backend.hpp"

#include <array>
#include <mutex>
#include <stdexcept>
#include <string>

#include "common/parallel.hpp"

namespace tac::core {

CompressedAmr write_container(Method method, const amr::AmrDataset& ds,
                              std::vector<LevelPayload> payloads) {
  CompressedAmr out;
  out.report.method = method;
  ByteWriter w;
  PayloadIndexBuilder index =
      write_common_header(w, method, ds, payloads.size());
  for (LevelPayload& p : payloads) {
    index.begin_payload();
    w.put_bytes(p.bytes);
    index.end_payload(p.report.method);
    p.report.compressed_bytes = p.bytes.size();
    out.report.original_bytes += p.report.valid_cells * sizeof(double);
    out.report.levels.push_back(p.report);
  }
  index.finish();
  out.bytes = w.take();
  out.report.compressed_bytes = out.bytes.size();
  return out;
}

CompressedAmr compress_per_level(
    Method method, const amr::AmrDataset& ds,
    const std::function<LevelPayload(std::size_t level)>& encode) {
  // Levels encode concurrently into private payloads and merge in level
  // order, so the container and the report do not depend on the worker
  // count.
  std::vector<LevelPayload> levels(ds.num_levels());
  parallel_for(
      0, ds.num_levels(), [&](std::size_t l) { levels[l] = encode(l); },
      /*grain=*/1);
  return write_container(method, ds, std::move(levels));
}

namespace {

/// The backend that wrote payload `i`: the one its selector byte names,
/// else the container's.
const CompressorBackend& payload_owner(const CommonHeader& header,
                                       std::size_t i) {
  return backend_for(payload_method(header, i).value_or(header.method));
}

}  // namespace

amr::AmrDataset decompress_per_level(ByteReader& r, amr::AmrDataset skeleton,
                                     const CommonHeader& header) {
  for (std::size_t l = 0; l < skeleton.num_levels(); ++l) {
    const CompressorBackend& owner = payload_owner(header, l);
    if (!owner.supports_level_payloads())
      throw SelectorError(
          "container: payload " + std::to_string(l) + " belongs to the " +
          owner.name() +
          " backend, which has no per-level decoder (no selector byte "
          "names the backend that wrote it)");
    owner.decompress_level_payload(r, skeleton.level(l),
                                   payload_profile(header, l));
  }
  return skeleton;
}

amr::AmrLevel decompress_level(std::span<const std::uint8_t> container,
                               const CommonHeader& header, std::size_t level) {
  if (level >= header.num_levels())
    throw std::out_of_range(
        "decompress_level: level " + std::to_string(level) +
        " out of range (container has " +
        std::to_string(header.num_levels()) + " levels)");
  // Indexed path: payload `level` is level `level`, and its owner can
  // decode it alone, so only its bytes are verified and read.
  const CompressorBackend& owner = payload_owner(header, level);
  if (header.index.entries.size() == header.num_levels() &&
      owner.supports_level_payloads()) {
    verify_payload(container, header.index, level);
    const PayloadEntry& e = header.index.entries[level];
    ByteReader r(container.subspan(static_cast<std::size_t>(e.offset),
                                   static_cast<std::size_t>(e.length)));
    amr::AmrLevel lv = materialize_level(header, level);
    owner.decompress_level_payload(r, lv, payload_profile(header, level));
    return lv;
  }
  // Full-decode fallback: every payload is read, so verify them all.
  verify_payloads(container, header.index);
  ByteReader r(container);
  r.seek(header.payload_offset);
  amr::AmrDataset full = backend_for(header.method)
                             .decompress(r, materialize_skeleton(header),
                                         header);
  return std::move(full.level(level));
}

void detail::check_level_config(const char* who, const amr::AmrDataset& ds,
                                const TacConfig& cfg) {
  const std::string prefix = std::string(who) + ": ";
  if (ds.num_levels() == 0)
    throw std::invalid_argument(prefix + "empty dataset");
  if (!cfg.level_error_bounds.empty() &&
      cfg.level_error_bounds.size() != ds.num_levels())
    throw std::invalid_argument(
        prefix + "level_error_bounds has " +
        std::to_string(cfg.level_error_bounds.size()) +
        " entries but the dataset has " + std::to_string(ds.num_levels()) +
        " levels (need one bound per level, finest first)");
  if (cfg.block_size == 0)
    throw std::invalid_argument(prefix + "block_size must be > 0");
}

LevelPayload CompressorBackend::compress_level_payload(
    const amr::AmrLevel&, std::size_t, const TacConfig&) const {
  throw std::logic_error(std::string(name()) +
                         " backend does not support per-level payloads");
}

void CompressorBackend::decompress_level_payload(
    ByteReader&, amr::AmrLevel&,
    std::optional<lossless::CodecProfile>) const {
  throw std::logic_error(std::string(name()) +
                         " backend does not support per-level payloads");
}

namespace {

/// Method is a uint8_t tag, so a flat array covers the whole key space.
struct Registry {
  std::array<std::unique_ptr<CompressorBackend>, 256> slots;
  std::mutex mutex;
};

Registry& registry() {
  // The built-ins are installed on first access rather than via static
  // registrar objects: a static library would silently drop unreferenced
  // registration TUs, and this keeps the registry usable during static
  // initialization of client code.
  static Registry r;
  static const bool installed = [] {
    for (auto make :
         {detail::make_tac_backend, detail::make_oned_backend,
          detail::make_zmesh_backend, detail::make_upsample3d_backend,
          detail::make_auto_backend}) {
      auto backend = make();
      r.slots[static_cast<std::uint8_t>(backend->method())] =
          std::move(backend);
    }
    return true;
  }();
  (void)installed;
  return r;
}

}  // namespace

void register_backend(std::unique_ptr<CompressorBackend> backend) {
  if (!backend)
    throw std::invalid_argument("register_backend: null backend");
  Registry& r = registry();
  const auto tag = static_cast<std::uint8_t>(backend->method());
  const std::lock_guard<std::mutex> lock(r.mutex);
  if (r.slots[tag])
    throw std::invalid_argument(
        std::string("register_backend: method tag ") + std::to_string(tag) +
        " already registered to \"" + r.slots[tag]->name() + "\"");
  r.slots[tag] = std::move(backend);
}

const CompressorBackend* find_backend(Method m) noexcept {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  return r.slots[static_cast<std::uint8_t>(m)].get();
}

const CompressorBackend& backend_for(Method m) {
  if (const CompressorBackend* b = find_backend(m)) return *b;
  throw std::runtime_error(
      "no compressor backend registered for method tag " +
      std::to_string(static_cast<unsigned>(m)));
}

std::vector<Method> registered_methods() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  std::vector<Method> out;
  for (std::size_t tag = 0; tag < r.slots.size(); ++tag)
    if (r.slots[tag]) out.push_back(static_cast<Method>(tag));
  return out;
}

}  // namespace tac::core
