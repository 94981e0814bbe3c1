#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <optional>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "core/adaptive.hpp"
#include "core/backend.hpp"
#include "core/baselines.hpp"
#include "core/tac.hpp"
#include "simnyx/generator.hpp"

namespace tac::core {
namespace {

simnyx::GeneratorConfig small_config(std::vector<double> densities,
                                     std::size_t n = 32) {
  simnyx::GeneratorConfig cfg;
  cfg.finest_dims = {n, n, n};
  cfg.level_densities = std::move(densities);
  cfg.region_size = 8;
  cfg.seed = 2024;
  return cfg;
}

TacConfig test_config() {
  TacConfig cfg;
  cfg.sz.mode = sz::ErrorBoundMode::kAbsolute;
  cfg.sz.error_bound = 1e6;
  return cfg;
}

void expect_amr_bounded(const amr::AmrDataset& orig,
                        const amr::AmrDataset& recon, double eb) {
  ASSERT_EQ(orig.num_levels(), recon.num_levels());
  for (std::size_t l = 0; l < orig.num_levels(); ++l) {
    const auto& ol = orig.level(l);
    const auto& rl = recon.level(l);
    for (std::size_t i = 0; i < ol.data.size(); ++i) {
      if (!ol.mask[i]) continue;
      ASSERT_LE(std::fabs(ol.data[i] - rl.data[i]), eb)
          << "level " << l << " cell " << i;
    }
  }
}

constexpr Method kAllMethods[] = {Method::kTac, Method::kOneD, Method::kZMesh,
                                  Method::kUpsample3D};

TEST(BackendRegistry, BuiltinsRegistered) {
  for (const Method m : kAllMethods) {
    const CompressorBackend* b = find_backend(m);
    ASSERT_NE(b, nullptr) << to_string(m);
    EXPECT_EQ(b->method(), m);
    EXPECT_STREQ(b->name(), to_string(m));
    EXPECT_EQ(&backend_for(m), b);
  }
  const auto methods = registered_methods();
  for (const Method m : kAllMethods)
    EXPECT_NE(std::find(methods.begin(), methods.end(), m), methods.end());
}

TEST(BackendRegistry, UnknownMethodThrowsDescriptively) {
  const auto unknown = static_cast<Method>(250);
  EXPECT_EQ(find_backend(unknown), nullptr);
  try {
    (void)backend_for(unknown);
    FAIL() << "backend_for should have thrown";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("250"), std::string::npos);
  }
}

TEST(BackendRegistry, EveryMethodRoundTripsViaRegistry) {
  const auto ds = simnyx::generate_baryon_density(small_config({0.3, 0.7}));
  const TacConfig cfg = test_config();
  for (const Method m : kAllMethods) {
    const auto compressed = backend_for(m).compress(ds, cfg);
    EXPECT_EQ(compressed.report.method, m);
    EXPECT_EQ(peek_method(compressed.bytes), m);
    expect_amr_bounded(ds, decompress_any(compressed.bytes),
                       cfg.sz.error_bound);
  }
}

TEST(BackendRegistry, WrappersMatchRegistryBitIdentically) {
  const auto ds = simnyx::generate_baryon_density(small_config({0.3, 0.7}));
  const TacConfig cfg = test_config();
  EXPECT_EQ(tac_compress(ds, cfg).bytes,
            backend_for(Method::kTac).compress(ds, cfg).bytes);
  EXPECT_EQ(oned_compress(ds, cfg.sz).bytes,
            backend_for(Method::kOneD).compress(ds, cfg).bytes);
  EXPECT_EQ(zmesh_compress(ds, cfg.sz).bytes,
            backend_for(Method::kZMesh).compress(ds, cfg).bytes);
  EXPECT_EQ(upsample3d_compress(ds, cfg.sz).bytes,
            backend_for(Method::kUpsample3D).compress(ds, cfg).bytes);
}

// The parallel level pipeline must produce byte-identical containers at
// any worker count: levels and group streams compress into private chunks
// that are merged in deterministic order.
TEST(BackendRegistry, ParallelPipelineIsByteStableAcrossThreadCounts) {
  const auto ds = simnyx::generate_baryon_density(
      small_config({0.1, 0.3, 0.6}, 64));
  TacConfig cfg = test_config();
  cfg.level_error_bounds = {3e6, 2e6, 1e6};

  std::vector<std::vector<std::uint8_t>> reference;
  {
    ParallelismGuard serial(1);
    for (const Method m : kAllMethods)
      reference.push_back(backend_for(m).compress(ds, cfg).bytes);
  }
  const unsigned hw = []() {
    ParallelismGuard reset(0);
    return hardware_parallelism();
  }();
  for (const unsigned threads : {2u, 4u, hw}) {
    ParallelismGuard guard(threads);
    for (std::size_t i = 0; i < std::size(kAllMethods); ++i) {
      const auto bytes =
          backend_for(kAllMethods[i]).compress(ds, cfg).bytes;
      EXPECT_EQ(bytes, reference[i])
          << to_string(kAllMethods[i]) << " with " << threads << " threads";
    }
  }
  // The parallel container still decodes correctly.
  ParallelismGuard guard(4);
  const auto compressed = tac_compress(ds, cfg);
  EXPECT_EQ(compressed.bytes, reference[0]);
  expect_amr_bounded(ds, decompress_any(compressed.bytes),
                     cfg.level_error_bounds[0]);
}

// The concurrent reader (levels, group streams and the GSP/ZF copy in
// chunks) must decode the same values at any worker count. The bound is
// tight so the payloads are large enough to take the concurrent paths.
TEST(BackendRegistry, ParallelDecodeIsStableAcrossThreadCounts) {
  const auto ds = simnyx::generate_baryon_density(
      small_config({0.3, 0.7}, 64));
  TacConfig cfg = test_config();
  cfg.sz.error_bound = 1e3;
  for (const Method m : {Method::kTac, Method::kOneD, Method::kAuto}) {
    for (const std::optional<Strategy> strategy :
         {std::optional<Strategy>{}, std::optional<Strategy>{Strategy::kGSP},
          std::optional<Strategy>{Strategy::kZF}}) {
      if (strategy && m != Method::kTac) continue;
      cfg.force_strategy = strategy;
      const auto bytes = backend_for(m).compress(ds, cfg).bytes;
      ByteReader r(bytes);
      ASSERT_EQ(level_loop_grain(read_common_header(r)), 1u)
          << to_string(m) << ": payloads too small for the concurrent path";
      std::vector<std::vector<double>> reference;
      {
        ParallelismGuard serial(1);
        const amr::AmrDataset out = decompress_any(bytes);
        for (const auto& lv : out.levels())
          reference.emplace_back(lv.data.span().begin(),
                                 lv.data.span().end());
      }
      expect_amr_bounded(ds, decompress_any(bytes), cfg.sz.error_bound);
      for (const unsigned threads : {2u, 4u}) {
        ParallelismGuard guard(threads);
        const amr::AmrDataset out = decompress_any(bytes);
        for (std::size_t l = 0; l < out.num_levels(); ++l) {
          const auto data = out.level(l).data.span();
          EXPECT_EQ(std::memcmp(data.data(), reference[l].data(),
                                data.size_bytes()),
                    0)
              << to_string(m) << " level " << l << " with " << threads
              << " threads";
        }
      }
    }
  }
}

TEST(BackendRegistry, ContainerRejectsUnknownMethodTag) {
  const auto ds = simnyx::generate_baryon_density(small_config({0.3, 0.7}));
  auto compressed = tac_compress(ds, test_config());
  // Byte 5 is the method tag (magic:4, version:1, method:1).
  compressed.bytes[5] = 123;
  try {
    (void)decompress_any(compressed.bytes);
    FAIL() << "decompress_any should have rejected the tag";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("method tag 123"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)peek_method(compressed.bytes), std::runtime_error);
}

TEST(BackendRegistry, ContainerRejectsUnsupportedVersion) {
  const auto ds = simnyx::generate_baryon_density(small_config({0.3, 0.7}));
  auto compressed = tac_compress(ds, test_config());
  compressed.bytes[4] = kFormatVersion + 1;
  try {
    (void)peek_method(compressed.bytes);
    FAIL() << "peek_method should have rejected the version";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(BackendRegistry, ContainerRejectsTruncatedAndForeignHeaders) {
  EXPECT_THROW((void)peek_method({}), std::runtime_error);
  const std::vector<std::uint8_t> short_buf = {0x54, 0x41, 0x43};
  EXPECT_THROW((void)peek_method(short_buf), std::runtime_error);
  const std::vector<std::uint8_t> foreign = {0xde, 0xad, 0xbe, 0xef, 1, 0};
  try {
    (void)peek_method(foreign);
    FAIL() << "peek_method should have rejected the magic";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos);
  }
}

// A minimal lossless backend on a free tag: proves third-party methods
// plug in through the registry with no changes to decompress_any. It is a
// whole-container backend (it reads its payloads in order from `r` and
// has no per-level hooks), so it never joins auto's candidate set.
class RawBackend final : public CompressorBackend {
 public:
  static constexpr Method kTag = static_cast<Method>(200);

  [[nodiscard]] Method method() const override { return kTag; }
  [[nodiscard]] const char* name() const override { return "raw"; }

  [[nodiscard]] CompressedAmr compress(const amr::AmrDataset& ds,
                                       const TacConfig&) const override {
    return compress_per_level(kTag, ds, [&](std::size_t l) {
      const auto& data = ds.level(l).data;
      ByteWriter w;
      w.put_blob({reinterpret_cast<const std::uint8_t*>(data.span().data()),
                  data.size() * sizeof(double)});
      LevelPayload payload;
      payload.bytes = w.take();
      payload.report.method = kTag;
      return payload;
    });
  }

  [[nodiscard]] amr::AmrDataset decompress(
      ByteReader& r, amr::AmrDataset skeleton,
      const CommonHeader&) const override {
    for (std::size_t l = 0; l < skeleton.num_levels(); ++l) {
      auto& lv = skeleton.level(l);
      const auto blob = r.get_blob();
      if (blob.size() != lv.data.size() * sizeof(double))
        throw std::runtime_error("raw backend: payload size mismatch");
      std::memcpy(lv.data.span().data(), blob.data(), blob.size());
    }
    return skeleton;
  }
};

TEST(BackendRegistry, CustomBackendPlugsIn) {
  register_backend(std::make_unique<RawBackend>());
  EXPECT_THROW(register_backend(std::make_unique<RawBackend>()),
               std::invalid_argument);  // duplicate tag
  EXPECT_THROW(register_backend(nullptr), std::invalid_argument);

  const auto ds = simnyx::generate_baryon_density(small_config({0.3, 0.7}));
  const auto compressed =
      backend_for(RawBackend::kTag).compress(ds, test_config());
  EXPECT_EQ(peek_method(compressed.bytes), RawBackend::kTag);
  expect_amr_bounded(ds, decompress_any(compressed.bytes), 0.0);
}

TEST(BackendRegistry, AdaptiveCompressDispatchesThroughRegistry) {
  const auto sparse =
      simnyx::generate_baryon_density(small_config({0.23, 0.77}));
  const auto dense =
      simnyx::generate_baryon_density(small_config({0.64, 0.36}));
  const TacConfig cfg = test_config();
  EXPECT_EQ(adaptive_compress(sparse, cfg).report.method, Method::kTac);
  EXPECT_EQ(adaptive_compress(dense, cfg).report.method,
            Method::kUpsample3D);
}

}  // namespace
}  // namespace tac::core
