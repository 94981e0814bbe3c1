#pragma once

/// Pipeline telemetry: RAII scoped spans, monotonic stage counters, and
/// two exporters (human-readable stage tree, Chrome tracing JSON).
///
/// Design constraints, in order:
///   1. Zero cost when off. `TAC_TRACE` is unset for every production
///      decode, so the disabled path of a span or counter is one relaxed
///      atomic load and a predictable branch — no clock reads, no
///      allocation, no thread-local ring touch.
///   2. No locks on the hot path. Spans append to a fixed-capacity
///      thread-local ring (single writer, release-published size);
///      per-name stage totals accumulate in a thread-local open-address
///      table. The only mutex sits on the cold paths: first-use
///      registration of a thread's buffers and counter-name lookup, both
///      amortised behind function-local statics at the call sites.
///   3. Observation only. Telemetry must never change compressed bytes —
///      the determinism suite (containers byte-identical across thread
///      counts and SIMD tiers) runs with tracing on and off.
///
/// Runtime gate (`TAC_TRACE`, or telemetry::set_mode):
///   off      — default; spans and counters compile to the disabled check.
///   counters — monotonic counters plus per-stage time/byte totals
///              (aggregated, no per-event memory).
///   spans    — everything above plus per-event records for the Chrome
///              tracing exporter.
///
/// See docs/TELEMETRY.md for the span naming conventions and the counter
/// catalogue.

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace tac::telemetry {

enum class Mode : int { kOff = 0, kCounters = 1, kSpans = 2 };

/// One named monotonic counter. Addresses are stable for the process
/// lifetime, so call sites cache `Counter&` in a function-local static.
class Counter {
 public:
  void add(std::uint64_t n) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Raise the counter to at least `v` (high-water style counters).
  void record_max(std::uint64_t v) noexcept {
    std::uint64_t cur = value_.load(std::memory_order_relaxed);
    while (cur < v &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::uint64_t load() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// A merged span event, as returned by collect_spans().
struct Span {
  std::string name;
  std::uint64_t t0_ns = 0;  ///< start, relative to the process trace epoch
  std::uint64_t t1_ns = 0;  ///< end
  std::uint64_t bytes = 0;  ///< optional payload attribution (0 = none)
  std::uint32_t tid = 0;    ///< small sequential thread id
  std::uint32_t depth = 0;  ///< nesting depth on its thread at open
};

/// Aggregated per-stage totals (one row per distinct span name).
struct StageStat {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t ns = 0;
  std::uint64_t bytes = 0;
};

struct CounterValue {
  std::string name;
  std::uint64_t value = 0;
};

namespace detail {
// Mode lives in a plain atomic so the disabled check inlines everywhere
// (thread_pool.hpp, arena.hpp). kUninit forces one env read on first use.
inline constexpr int kUninit = -1;
extern std::atomic<int> g_mode;
int init_mode_from_env();  // parses TAC_TRACE; warns once on unknown values

inline int mode_raw() noexcept {
  int m = g_mode.load(std::memory_order_relaxed);
  if (m == kUninit) m = init_mode_from_env();
  return m;
}

std::uint64_t span_begin() noexcept;  // clock read + depth push
void span_end(const char* name, std::uint64_t t0_ns,
              std::uint64_t bytes) noexcept;
}  // namespace detail

[[nodiscard]] inline Mode mode() { return static_cast<Mode>(detail::mode_raw()); }
[[nodiscard]] inline bool counters_enabled() {
  return detail::mode_raw() >= static_cast<int>(Mode::kCounters);
}
[[nodiscard]] inline bool spans_enabled() {
  return detail::mode_raw() >= static_cast<int>(Mode::kSpans);
}

/// Programmatic override (CLI --trace, benches, tests). Returns the
/// previous mode so callers can restore it.
Mode set_mode(Mode m);

/// Look up (registering on first use) a named counter. Cold path: takes
/// the registry mutex. Cache the reference in a static at hot call sites.
Counter& counter(std::string_view name);

/// Register a hook run at the start of collect_counters(): used by
/// thread-local sources (e.g. the scratch arena) to publish pending
/// stats for the collecting thread before the snapshot.
void register_collect_hook(std::function<void()> hook);

/// RAII span. Construction snapshots the clock when telemetry is at
/// least in counters mode; destruction folds the duration into the
/// per-stage table and, in spans mode, appends an event to the calling
/// thread's ring buffer. `name` must be a string literal (the ring
/// stores the pointer).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t bytes = 0)
      : name_(name), bytes_(bytes) {
    if (detail::mode_raw() > 0) {
      active_ = true;
      t0_ = detail::span_begin();
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (active_) detail::span_end(name_, t0_, bytes_);
  }
  /// Attribute payload bytes discovered after the work (e.g. compressed
  /// output size).
  void set_bytes(std::uint64_t n) noexcept { bytes_ = n; }
  void add_bytes(std::uint64_t n) noexcept { bytes_ += n; }

 private:
  const char* name_;
  std::uint64_t bytes_;
  std::uint64_t t0_ = 0;
  bool active_ = false;
};

// ---- collection (cold; call when the instrumented region is quiescent) ----

/// Merge every thread's ring into one list sorted by (t0, tid, name).
/// Deterministic for a fixed set of recorded events.
[[nodiscard]] std::vector<Span> collect_spans();

/// Merge every thread's stage table by name, sorted by name.
[[nodiscard]] std::vector<StageStat> collect_stages();

/// Snapshot the counter registry, sorted by name. Publishes pending
/// thread-local sources (e.g. this thread's arena stats) first.
[[nodiscard]] std::vector<CounterValue> collect_counters();

void reset_spans();
void reset_stages();
void reset_counters();
void reset_all();  ///< spans + stages + counters

// ---- exporters ----

/// Human-readable per-stage tree: time, throughput, percent-of-parent.
/// Built from span nesting when span events exist, otherwise a flat
/// table from the stage aggregation.
void print_stage_tree(std::ostream& os);

/// Counter registry dump (name = value, sorted).
void print_counters(std::ostream& os);

/// Chrome `chrome://tracing` / Perfetto JSON: one complete ("ph":"X")
/// event per span, counters and wall_ns in "otherData".
void write_chrome_trace(std::ostream& os);

/// Convenience wrapper: write_chrome_trace to `path`. Returns false on
/// I/O failure.
bool write_chrome_trace_file(const std::string& path);

}  // namespace tac::telemetry

// ---- instrumentation macros ------------------------------------------------
// TAC_SPAN("layer.op"): RAII span for the rest of the enclosing scope.
// TAC_SPAN_BYTES("layer.op", n): same, with byte attribution.
// TAC_SPAN_NAMED(var, "layer.op"): span bound to a local so the call site
//   can set_bytes()/add_bytes() before it closes.
// TAC_COUNTER_ADD("name", n) / TAC_COUNTER_MAX("name", v): registry
//   counters; the lookup is amortised behind a function-local static.
#define TAC_SPAN_CAT2(a, b) a##b
#define TAC_SPAN_CAT(a, b) TAC_SPAN_CAT2(a, b)

#define TAC_SPAN(name) \
  ::tac::telemetry::ScopedSpan TAC_SPAN_CAT(tac_span_, __LINE__)(name)
#define TAC_SPAN_BYTES(name, n)                                  \
  ::tac::telemetry::ScopedSpan TAC_SPAN_CAT(tac_span_, __LINE__)( \
      name, static_cast<std::uint64_t>(n))
#define TAC_SPAN_NAMED(var, name) ::tac::telemetry::ScopedSpan var(name)
#define TAC_COUNTER_ADD(name, n)                                          \
  do {                                                                    \
    if (::tac::telemetry::counters_enabled()) {                           \
      static ::tac::telemetry::Counter& tac_counter_ =                    \
          ::tac::telemetry::counter(name);                                \
      tac_counter_.add(static_cast<std::uint64_t>(n));                    \
    }                                                                     \
  } while (0)
#define TAC_COUNTER_MAX(name, v)                                          \
  do {                                                                    \
    if (::tac::telemetry::counters_enabled()) {                           \
      static ::tac::telemetry::Counter& tac_counter_ =                    \
          ::tac::telemetry::counter(name);                                \
      tac_counter_.record_max(static_cast<std::uint64_t>(v));             \
    }                                                                     \
  } while (0)
