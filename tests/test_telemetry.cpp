#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "common/telemetry.hpp"
#include "core/adaptive.hpp"
#include "core/backend.hpp"
#include "simnyx/generator.hpp"

/// Telemetry subsystem contract: span nesting and deterministic merge,
/// counters surviving parallel loops, exporter well-formedness, zero
/// allocations when disabled, and the observation-only invariant
/// (identical container bytes with tracing on and off).

// The zero-cost-when-off test counts heap allocations; the counting
// replacements are compiled out under ASan (see alloc_counter.hpp).
#include "alloc_counter.hpp"

namespace tac {
namespace {

/// Every test leaves the process in off mode with empty buffers so test
/// order cannot leak spans or counter values across cases.
struct TelemetryGuard {
  explicit TelemetryGuard(telemetry::Mode m) {
    telemetry::set_mode(m);
    telemetry::reset_all();
  }
  ~TelemetryGuard() {
    telemetry::set_mode(telemetry::Mode::kOff);
    telemetry::reset_all();
  }
};

simnyx::GeneratorConfig small_config(std::vector<double> densities,
                                     std::size_t n = 32) {
  simnyx::GeneratorConfig cfg;
  cfg.finest_dims = {n, n, n};
  cfg.level_densities = std::move(densities);
  cfg.region_size = 8;
  cfg.seed = 77;
  return cfg;
}

TEST(TelemetrySpans, NestedSpansRecordDepthAndEnclosure) {
  TelemetryGuard guard(telemetry::Mode::kSpans);
  {
    TAC_SPAN("test.outer");
    {
      TAC_SPAN("test.middle");
      { TAC_SPAN("test.inner"); }
    }
    { TAC_SPAN("test.middle2"); }
  }
  const auto spans = telemetry::collect_spans();
  ASSERT_EQ(spans.size(), 4u);
  // Sorted by start time: outer first, then middle, inner, middle2.
  EXPECT_EQ(spans[0].name, "test.outer");
  EXPECT_EQ(spans[0].depth, 0u);
  EXPECT_EQ(spans[1].name, "test.middle");
  EXPECT_EQ(spans[1].depth, 1u);
  EXPECT_EQ(spans[2].name, "test.inner");
  EXPECT_EQ(spans[2].depth, 2u);
  EXPECT_EQ(spans[3].name, "test.middle2");
  EXPECT_EQ(spans[3].depth, 1u);
  for (const auto& s : spans) EXPECT_LE(s.t0_ns, s.t1_ns) << s.name;
  // Children are enclosed by their parent.
  EXPECT_GE(spans[1].t0_ns, spans[0].t0_ns);
  EXPECT_LE(spans[1].t1_ns, spans[0].t1_ns);
  EXPECT_GE(spans[2].t0_ns, spans[1].t0_ns);
  EXPECT_LE(spans[2].t1_ns, spans[1].t1_ns);
}

TEST(TelemetrySpans, SetBytesAttributesPayload) {
  TelemetryGuard guard(telemetry::Mode::kSpans);
  {
    TAC_SPAN_NAMED(span, "test.bytes");
    span.set_bytes(100);
    span.add_bytes(28);
  }
  const auto spans = telemetry::collect_spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].bytes, 128u);
}

TEST(TelemetrySpans, MultiThreadMergeIsDeterministic) {
  TelemetryGuard guard(telemetry::Mode::kSpans);
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 50;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        TAC_SPAN("test.worker");
        { TAC_SPAN("test.worker_child"); }
      }
    });
  }
  for (auto& w : workers) w.join();
  const auto first = telemetry::collect_spans();
  const auto second = telemetry::collect_spans();
  ASSERT_EQ(first.size(),
            static_cast<std::size_t>(kThreads) * kSpansPerThread * 2);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].name, second[i].name) << i;
    EXPECT_EQ(first[i].t0_ns, second[i].t0_ns) << i;
    EXPECT_EQ(first[i].t1_ns, second[i].t1_ns) << i;
    EXPECT_EQ(first[i].tid, second[i].tid) << i;
    EXPECT_EQ(first[i].depth, second[i].depth) << i;
  }
  // Merge order invariant: non-decreasing start time.
  for (std::size_t i = 1; i < first.size(); ++i)
    EXPECT_LE(first[i - 1].t0_ns, first[i].t0_ns) << i;
}

TEST(TelemetryStages, AggregateCountsAndBytes) {
  TelemetryGuard guard(telemetry::Mode::kCounters);
  for (int i = 0; i < 10; ++i) TAC_SPAN_BYTES("test.stage_agg", 64);
  // Counters mode keeps no span events, only stage totals.
  EXPECT_TRUE(telemetry::collect_spans().empty());
  const auto stages = telemetry::collect_stages();
  const auto it =
      std::find_if(stages.begin(), stages.end(),
                   [](const auto& s) { return s.name == "test.stage_agg"; });
  ASSERT_NE(it, stages.end());
  EXPECT_EQ(it->count, 10u);
  EXPECT_EQ(it->bytes, 640u);
}

TEST(TelemetryCounters, SurviveParallelFor) {
  TelemetryGuard guard(telemetry::Mode::kCounters);
  constexpr std::size_t kIters = 10000;
  parallel_for(
      0, kIters,
      [&](std::size_t i) {
        TAC_COUNTER_ADD("test.pf_adds", 1);
        TAC_COUNTER_MAX("test.pf_max", i);
        TAC_SPAN("test.pf_span");
      },
      /*grain=*/7);
  const auto counters = telemetry::collect_counters();
  const auto find = [&](const char* name) -> std::uint64_t {
    for (const auto& c : counters)
      if (c.name == name) return c.value;
    return static_cast<std::uint64_t>(-1);
  };
  EXPECT_EQ(find("test.pf_adds"), kIters);
  EXPECT_EQ(find("test.pf_max"), kIters - 1);
  const auto stages = telemetry::collect_stages();
  const auto it =
      std::find_if(stages.begin(), stages.end(),
                   [](const auto& s) { return s.name == "test.pf_span"; });
  ASSERT_NE(it, stages.end());
  EXPECT_EQ(it->count, kIters);
}

TEST(TelemetryCounters, ResetClearsValuesNotRegistrations) {
  TelemetryGuard guard(telemetry::Mode::kCounters);
  TAC_COUNTER_ADD("test.reset_me", 42);
  telemetry::reset_counters();
  for (const auto& c : telemetry::collect_counters()) {
    if (c.name == "test.reset_me") {
      EXPECT_EQ(c.value, 0u);
    }
  }
  TAC_COUNTER_ADD("test.reset_me", 7);
  bool found = false;
  for (const auto& c : telemetry::collect_counters())
    if (c.name == "test.reset_me") {
      found = true;
      EXPECT_EQ(c.value, 7u);
    }
  EXPECT_TRUE(found);
}

TEST(TelemetryModes, SetModeReturnsPrevious) {
  TelemetryGuard guard(telemetry::Mode::kOff);
  EXPECT_EQ(telemetry::set_mode(telemetry::Mode::kCounters),
            telemetry::Mode::kOff);
  EXPECT_EQ(telemetry::set_mode(telemetry::Mode::kSpans),
            telemetry::Mode::kCounters);
  EXPECT_TRUE(telemetry::spans_enabled());
  EXPECT_TRUE(telemetry::counters_enabled());
  EXPECT_EQ(telemetry::set_mode(telemetry::Mode::kOff),
            telemetry::Mode::kSpans);
  EXPECT_FALSE(telemetry::counters_enabled());
}

// ---- exporter well-formedness ----------------------------------------------

/// Minimal JSON shape check: balanced braces/brackets outside string
/// literals, with escape handling. Not a parser, but catches the classes
/// of emitter bugs (trailing commas aside) a streaming fprintf writer
/// can introduce: unbalanced nesting and unterminated strings.
void expect_balanced_json(const std::string& s) {
  int depth_obj = 0, depth_arr = 0;
  bool in_string = false, escaped = false;
  for (const char c : s) {
    if (in_string) {
      if (escaped)
        escaped = false;
      else if (c == '\\')
        escaped = true;
      else if (c == '"')
        in_string = false;
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': ++depth_obj; break;
      case '}': --depth_obj; break;
      case '[': ++depth_arr; break;
      case ']': --depth_arr; break;
      default: break;
    }
    ASSERT_GE(depth_obj, 0);
    ASSERT_GE(depth_arr, 0);
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(depth_obj, 0);
  EXPECT_EQ(depth_arr, 0);
}

TEST(TelemetryExport, ChromeTraceIsWellFormedAndComplete) {
  TelemetryGuard guard(telemetry::Mode::kSpans);
  {
    TAC_SPAN_BYTES("test.export_outer", 4096);
    { TAC_SPAN("test.export_inner"); }
  }
  TAC_COUNTER_ADD("test.export_counter", 13);
  std::ostringstream os;
  telemetry::write_chrome_trace(os);
  const std::string json = os.str();
  expect_balanced_json(json);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("test.export_outer"), std::string::npos);
  EXPECT_NE(json.find("test.export_inner"), std::string::npos);
  EXPECT_NE(json.find("\"bytes\": 4096"), std::string::npos);
  EXPECT_NE(json.find("\"otherData\""), std::string::npos);
  EXPECT_NE(json.find("\"wall_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"test.export_counter\": 13"), std::string::npos);
  EXPECT_NE(json.find("\"stages\""), std::string::npos);
}

TEST(TelemetryExport, StageTreePrintsNestedStages) {
  TelemetryGuard guard(telemetry::Mode::kSpans);
  {
    TAC_SPAN("test.tree_root");
    { TAC_SPAN("test.tree_leaf"); }
  }
  std::ostringstream os;
  telemetry::print_stage_tree(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("test.tree_root"), std::string::npos);
  // The leaf renders indented under its parent.
  EXPECT_NE(out.find("  test.tree_leaf"), std::string::npos);
}

TEST(TelemetryExport, CountersModePrintsFlatTable) {
  TelemetryGuard guard(telemetry::Mode::kCounters);
  { TAC_SPAN("test.flat_stage"); }
  std::ostringstream os;
  telemetry::print_stage_tree(os);
  EXPECT_NE(os.str().find("test.flat_stage"), std::string::npos);
}

// ---- zero cost when off ----------------------------------------------------

TEST(TelemetryOff, NoAllocationsAndNoRecords) {
  TelemetryGuard guard(telemetry::Mode::kOff);
  const std::size_t before =
      test::g_alloc_calls.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    TAC_SPAN("test.off_span");
    TAC_SPAN_BYTES("test.off_bytes", 512);
    TAC_COUNTER_ADD("test.off_counter", 1);
    TAC_COUNTER_MAX("test.off_max", i);
  }
  const std::size_t after =
      test::g_alloc_calls.load(std::memory_order_relaxed);
#if TAC_TEST_COUNTS_ALLOCS
  EXPECT_EQ(after - before, 0u) << "disabled telemetry must not allocate";
#else
  (void)before;
  (void)after;  // ASan owns the allocator; only the no-records half runs
#endif
  EXPECT_TRUE(telemetry::collect_spans().empty());
  for (const auto& c : telemetry::collect_counters())
    EXPECT_NE(c.name, "test.off_counter")
        << "disabled counter macro must not register";
}

// ---- observation-only invariant --------------------------------------------

TEST(TelemetryInvariant, ContainerBytesIdenticalTracingOnAndOff) {
  const auto ds = simnyx::generate_baryon_density(small_config({0.3, 0.7}));
  core::TacConfig cfg;
  cfg.sz.mode = sz::ErrorBoundMode::kAbsolute;
  cfg.sz.error_bound = 1e6;
  for (const core::Method method :
       {core::Method::kTac, core::Method::kOneD, core::Method::kZMesh}) {
    telemetry::set_mode(telemetry::Mode::kOff);
    const auto off = core::backend_for(method).compress(ds, cfg);
    telemetry::set_mode(telemetry::Mode::kSpans);
    telemetry::reset_all();
    const auto on = core::backend_for(method).compress(ds, cfg);
    const auto spans = telemetry::collect_spans();
    telemetry::set_mode(telemetry::Mode::kOff);
    telemetry::reset_all();
    EXPECT_EQ(off.bytes, on.bytes)
        << "method " << core::to_string(method)
        << ": tracing changed the compressed bytes";
    EXPECT_FALSE(spans.empty())
        << "method " << core::to_string(method) << ": no spans recorded";
    // And the traced container still decodes to the traced-off result.
    const auto back_off = core::decompress_any(off.bytes);
    const auto back_on = core::decompress_any(on.bytes);
    ASSERT_EQ(back_off.num_levels(), back_on.num_levels());
    for (std::size_t l = 0; l < back_off.num_levels(); ++l)
      EXPECT_EQ(back_off.level(l).data, back_on.level(l).data) << "level " << l;
  }
}

TEST(TelemetryInvariant, PipelineEmitsExpectedStageNames) {
  TelemetryGuard guard(telemetry::Mode::kSpans);
  const auto ds = simnyx::generate_baryon_density(small_config({0.4, 0.6}));
  core::TacConfig cfg;
  cfg.sz.mode = sz::ErrorBoundMode::kAbsolute;
  cfg.sz.error_bound = 1e6;
  const auto compressed = core::adaptive_compress(ds, cfg);
  (void)core::decompress_any(compressed.bytes);
  const auto stages = telemetry::collect_stages();
  const auto has = [&](const char* name) {
    return std::any_of(stages.begin(), stages.end(),
                       [&](const auto& s) { return s.name == name; });
  };
  EXPECT_TRUE(has("sz.compress"));
  EXPECT_TRUE(has("sz.decompress"));
  EXPECT_TRUE(has("huffman.compress"));
  EXPECT_TRUE(has("container.header_write"));
  EXPECT_TRUE(has("container.header_read"));
  EXPECT_TRUE(has("core.decompress_any"));
}

}  // namespace
}  // namespace tac
