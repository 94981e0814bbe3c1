#include "core/backend.hpp"

#include <algorithm>
#include <array>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

#include "amr/amr_io.hpp"
#include "common/parallel.hpp"
#include "common/telemetry.hpp"

namespace tac::core {

namespace {

/// Whether the mask blobs are worth packing beside the payload encodes
/// rather than after them on the calling thread. A mask in flight costs
/// its level's volume / 8 bytes of packed bits plus LZSS scratch, kept by
/// whichever worker packs it. Next to a dense dataset that is noise, and
/// packing beside the payloads takes it off the critical path; next to a
/// sparse one it is most of the peak memory: a 256^3 Run2_T4 auto
/// compress (0.2% valid) peaked at 15.7 MB with its masks beside the
/// payloads against 13.3 MB packed after them. The valid cells are
/// estimated from kMaskSamples evenly spaced mask bytes per level.
bool masks_beside_payloads(const amr::AmrDataset& ds) {
  constexpr std::size_t kMaskSamples = 256;
  std::size_t cells = 0;
  std::size_t valid = 0;  // estimated
  for (std::size_t l = 0; l < ds.num_levels(); ++l) {
    const auto mask = ds.level(l).mask.span();
    const std::size_t step =
        std::max<std::size_t>(1, mask.size() / kMaskSamples);
    for (std::size_t i = 0; i < mask.size(); i += step)
      valid += mask[i] != 0 ? step : 0;
    cells += mask.size();
  }
  // At least one cell in 64 of the dataset's volume valid.
  return valid * 64 >= cells;
}

}  // namespace

CompressedAmr compress_payloads(
    Method method, const amr::AmrDataset& ds, std::size_t npayloads,
    const std::function<LevelPayload(std::size_t i)>& encode) {
  // The payloads and, on a dense dataset, the mask blobs are items of one
  // loop, the masks last, each result into its own slot: the container
  // and the report do not depend on the worker count, and a worker that
  // finishes its payload packs masks while another still encodes.
  const std::size_t nlevels = ds.num_levels();
  std::vector<LevelPayload> payloads(npayloads);
  std::vector<std::vector<std::uint8_t>> masks(nlevels);
  const auto pack = [&](std::size_t l) {
    TAC_SPAN("container.mask_compress");
    masks[l] = amr::mask_blob(ds.level(l));
  };
  const bool beside = masks_beside_payloads(ds);
  parallel_for(
      0, npayloads + (beside ? nlevels : 0),
      [&](std::size_t i) {
        if (i < npayloads)
          payloads[i] = encode(i);
        else
          pack(i - npayloads);
      },
      /*grain=*/1);
  if (!beside)
    for (std::size_t l = 0; l < nlevels; ++l) pack(l);
  return write_container(method, ds, std::move(payloads), masks);
}

CompressedAmr compress_per_level(
    Method method, const amr::AmrDataset& ds,
    const std::function<LevelPayload(std::size_t level)>& encode) {
  return compress_payloads(method, ds, ds.num_levels(), encode);
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
  const std::size_t n = skeleton.num_levels();
  for (std::size_t l = 0; l < n; ++l) {
    const CompressorBackend& owner = payload_owner(header, l);
    if (!owner.supports_level_payloads())
      throw SelectorError(
          "container: payload " + std::to_string(l) + " belongs to the " +
          owner.name() +
          " backend, which has no per-level decoder (no selector byte "
          "names the backend that wrote it)");
  }
  if (header.index.entries.size() != n) {
    // v1: no index, so the payloads can only be read one after another.
    for (std::size_t l = 0; l < n; ++l)
      payload_owner(header, l).decompress_level_payload(
          r, skeleton.level(l), payload_profile(header, l));
    return skeleton;
  }
  // The index maps payload l to level l: each payload decodes from its
  // own byte range, concurrently, into its own level.
  const std::span<const std::uint8_t> container = r.bytes();
  for (std::size_t l = 0; l < n; ++l) {
    const PayloadEntry& e = header.index.entries[l];
    if (e.offset > container.size() || e.length > container.size() - e.offset)
      throw std::runtime_error(
          "container: payload " + std::to_string(l) + " index entry exceeds "
          "the " + std::to_string(container.size()) + "-byte container");
  }
  parallel_for(
      0, n,
      [&](std::size_t l) {
        const PayloadEntry& e = header.index.entries[l];
        ByteReader payload(container.subspan(
            static_cast<std::size_t>(e.offset),
            static_cast<std::size_t>(e.length)));
        payload_owner(header, l).decompress_level_payload(
            payload, skeleton.level(l), payload_profile(header, l));
      },
      level_loop_grain(header));
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

amr::AmrDataset CompressorBackend::decompress(
    ByteReader& r, amr::AmrDataset skeleton,
    const CommonHeader& header) const {
  return decompress_per_level(r, std::move(skeleton), header);
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
