#include "common/telemetry.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iomanip>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>

namespace tac::telemetry {
namespace {

using Clock = std::chrono::steady_clock;

/// Trace epoch: every timestamp is relative to the first telemetry
/// activation, keeping Chrome trace `ts` values small and stable.
Clock::time_point epoch() {
  static const Clock::time_point t0 = Clock::now();
  return t0;
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch())
          .count());
}

std::atomic<std::uint32_t> g_next_tid{0};

std::uint32_t local_tid() {
  thread_local const std::uint32_t tid =
      g_next_tid.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

thread_local std::uint32_t tl_depth = 0;

// ---- per-thread span ring -------------------------------------------------
// Single writer (the owning thread); readers see a consistent prefix via
// the release-published size. Fixed capacity: overflow drops the event
// and bumps telemetry.spans_dropped instead of allocating mid-span.

constexpr std::size_t kRingCapacity = std::size_t{1} << 16;

struct SpanRec {
  const char* name;
  std::uint64_t t0_ns;
  std::uint64_t t1_ns;
  std::uint64_t bytes;
  std::uint32_t depth;
};

struct SpanRing {
  std::unique_ptr<SpanRec[]> buf{new SpanRec[kRingCapacity]};
  std::atomic<std::size_t> size{0};
  std::uint32_t tid = 0;

  void append(const char* name, std::uint64_t t0, std::uint64_t t1,
              std::uint64_t bytes, std::uint32_t depth) noexcept {
    const std::size_t idx = size.load(std::memory_order_relaxed);
    if (idx >= kRingCapacity) {
      counter("telemetry.spans_dropped").add(1);
      return;
    }
    buf[idx] = SpanRec{name, t0, t1, bytes, depth};
    size.store(idx + 1, std::memory_order_release);
  }
};

// ---- per-thread stage aggregation -----------------------------------------
// Open-address table keyed by the span-name pointer (string literals have
// stable addresses within a TU; collect_stages() re-merges by content so
// the same name from two TUs still lands in one row). Values are relaxed
// atomics only so the cold reader can snapshot mid-run without UB — the
// owning thread is the sole writer.

constexpr std::size_t kStageSlots = 512;  // far above the ~50 span names used

struct StageSlot {
  std::atomic<const char*> name{nullptr};
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> ns{0};
  std::atomic<std::uint64_t> bytes{0};
};

struct StageTable {
  StageSlot slots[kStageSlots];

  void add(const char* name, std::uint64_t ns, std::uint64_t bytes) noexcept {
    auto h = reinterpret_cast<std::uintptr_t>(name);
    h ^= h >> 9;
    for (std::size_t probe = 0; probe < kStageSlots; ++probe) {
      StageSlot& s = slots[(h + probe) & (kStageSlots - 1)];
      const char* cur = s.name.load(std::memory_order_relaxed);
      if (cur == nullptr) {
        // Sole writer: a plain claim would do, but CAS keeps the slot
        // protocol valid if a future caller shares tables.
        if (!s.name.compare_exchange_strong(cur, name,
                                            std::memory_order_relaxed) &&
            cur != name)
          continue;
      } else if (cur != name) {
        continue;
      }
      s.count.fetch_add(1, std::memory_order_relaxed);
      s.ns.fetch_add(ns, std::memory_order_relaxed);
      s.bytes.fetch_add(bytes, std::memory_order_relaxed);
      return;
    }
    counter("telemetry.stages_dropped").add(1);
  }
};

// ---- global registries ----------------------------------------------------

struct Registry {
  std::mutex mu;
  std::vector<std::shared_ptr<SpanRing>> rings;
  std::vector<std::shared_ptr<StageTable>> tables;
  std::map<std::string, Counter, std::less<>> counters;
  std::vector<std::function<void()>> collect_hooks;
};

Registry& registry() {
  static Registry* r = new Registry;  // leaked: outlives thread exit order
  return *r;
}

SpanRing& ring_local() {
  thread_local const std::shared_ptr<SpanRing> ring = [] {
    auto r = std::make_shared<SpanRing>();
    r->tid = local_tid();
    std::lock_guard lock(registry().mu);
    registry().rings.push_back(r);
    return r;
  }();
  return *ring;
}

StageTable& stage_table_local() {
  thread_local const std::shared_ptr<StageTable> table = [] {
    auto t = std::make_shared<StageTable>();
    std::lock_guard lock(registry().mu);
    registry().tables.push_back(t);
    return t;
  }();
  return *table;
}

void json_escape(std::ostream& os, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
}

double mbs(std::uint64_t bytes, std::uint64_t ns) {
  if (ns == 0) return 0.0;
  return (static_cast<double>(bytes) / 1e6) / (static_cast<double>(ns) / 1e9);
}

}  // namespace

namespace detail {

std::atomic<int> g_mode{kUninit};

int init_mode_from_env() {
  int parsed = static_cast<int>(Mode::kOff);
  if (const char* env = std::getenv("TAC_TRACE"); env && *env) {
    const std::string_view v(env);
    if (v == "off")
      parsed = static_cast<int>(Mode::kOff);
    else if (v == "counters")
      parsed = static_cast<int>(Mode::kCounters);
    else if (v == "spans")
      parsed = static_cast<int>(Mode::kSpans);
    else
      // First use can be deep inside a decode on any thread, so a typo
      // must not throw: warn once and fall back to off.
      std::fprintf(stderr,
                   "tac: ignoring unknown TAC_TRACE=\"%s\" "
                   "(expected off|counters|spans)\n",
                   env);
  }
  if (parsed > 0) (void)epoch();  // anchor timestamps before the first span
  int expected = kUninit;
  g_mode.compare_exchange_strong(expected, parsed,
                                 std::memory_order_relaxed);
  return g_mode.load(std::memory_order_relaxed);
}

std::uint64_t span_begin() noexcept {
  ++tl_depth;
  return now_ns();
}

void span_end(const char* name, std::uint64_t t0_ns,
              std::uint64_t bytes) noexcept {
  const std::uint64_t t1 = now_ns();
  const std::uint32_t depth = --tl_depth;
  stage_table_local().add(name, t1 - t0_ns, bytes);
  if (g_mode.load(std::memory_order_relaxed) >=
      static_cast<int>(Mode::kSpans))
    ring_local().append(name, t0_ns, t1, bytes, depth);
}

}  // namespace detail

Mode set_mode(Mode m) {
  if (m > Mode::kOff) (void)epoch();
  int prev = detail::g_mode.exchange(static_cast<int>(m),
                                     std::memory_order_relaxed);
  if (prev == detail::kUninit) prev = static_cast<int>(Mode::kOff);
  return static_cast<Mode>(prev);
}

Counter& counter(std::string_view name) {
  Registry& r = registry();
  std::lock_guard lock(r.mu);
  const auto it = r.counters.find(name);
  if (it != r.counters.end()) return it->second;
  return r.counters.try_emplace(std::string(name)).first->second;
}

void register_collect_hook(std::function<void()> hook) {
  Registry& r = registry();
  std::lock_guard lock(r.mu);
  r.collect_hooks.push_back(std::move(hook));
}

std::vector<Span> collect_spans() {
  std::vector<std::shared_ptr<SpanRing>> rings;
  {
    std::lock_guard lock(registry().mu);
    rings = registry().rings;
  }
  std::vector<Span> out;
  for (const auto& ring : rings) {
    const std::size_t n = ring->size.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < n; ++i) {
      const SpanRec& rec = ring->buf[i];
      Span s;
      s.name = rec.name;
      s.t0_ns = rec.t0_ns;
      s.t1_ns = rec.t1_ns;
      s.bytes = rec.bytes;
      s.tid = ring->tid;
      s.depth = rec.depth;
      out.push_back(std::move(s));
    }
  }
  // Deterministic merge order for a fixed event set: start time, thread,
  // then depth so a parent sharing its child's start sorts first.
  std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    if (a.t0_ns != b.t0_ns) return a.t0_ns < b.t0_ns;
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.depth != b.depth) return a.depth < b.depth;
    return a.name < b.name;
  });
  return out;
}

std::vector<StageStat> collect_stages() {
  std::vector<std::shared_ptr<StageTable>> tables;
  {
    std::lock_guard lock(registry().mu);
    tables = registry().tables;
  }
  std::map<std::string, StageStat> merged;
  for (const auto& table : tables) {
    for (const StageSlot& slot : table->slots) {
      const char* name = slot.name.load(std::memory_order_relaxed);
      if (name == nullptr) continue;
      const std::uint64_t count = slot.count.load(std::memory_order_relaxed);
      if (count == 0) continue;
      StageStat& st = merged[name];
      st.name = name;
      st.count += count;
      st.ns += slot.ns.load(std::memory_order_relaxed);
      st.bytes += slot.bytes.load(std::memory_order_relaxed);
    }
  }
  std::vector<StageStat> out;
  out.reserve(merged.size());
  for (auto& [_, st] : merged) out.push_back(std::move(st));
  return out;
}

std::vector<CounterValue> collect_counters() {
  std::vector<std::function<void()>> hooks;
  {
    std::lock_guard lock(registry().mu);
    hooks = registry().collect_hooks;
  }
  // Hooks publish thread-local sources (e.g. the calling thread's arena
  // stats) into the registry before the snapshot. Run them unlocked —
  // they call counter().
  for (const auto& hook : hooks) hook();
  Registry& r = registry();
  std::lock_guard lock(r.mu);
  std::vector<CounterValue> out;
  out.reserve(r.counters.size());
  for (const auto& [name, c] : r.counters)
    out.push_back(CounterValue{name, c.load()});
  return out;
}

void reset_spans() {
  std::lock_guard lock(registry().mu);
  for (const auto& ring : registry().rings)
    ring->size.store(0, std::memory_order_release);
}

void reset_stages() {
  std::lock_guard lock(registry().mu);
  for (const auto& table : registry().tables) {
    for (StageSlot& slot : table->slots) {
      // Keep claimed names (the owner may be mid-probe); zero the values.
      slot.count.store(0, std::memory_order_relaxed);
      slot.ns.store(0, std::memory_order_relaxed);
      slot.bytes.store(0, std::memory_order_relaxed);
    }
  }
}

void reset_counters() {
  Registry& r = registry();
  std::lock_guard lock(r.mu);
  for (auto& [_, c] : r.counters) c.reset();
}

void reset_all() {
  reset_spans();
  reset_stages();
  reset_counters();
}

// ---- human-readable stage tree --------------------------------------------

namespace {

struct TreeNode {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t ns = 0;
  std::uint64_t bytes = 0;
  std::map<std::string, std::size_t> lookup;  // child name -> nodes index
  std::vector<std::size_t> children;
};

void print_node(std::ostream& os, const std::vector<TreeNode>& nodes,
                std::size_t idx, std::uint64_t parent_ns, int indent) {
  const TreeNode& n = nodes[idx];
  std::ostringstream label;
  for (int i = 0; i < indent; ++i) label << "  ";
  label << n.name;
  os << std::left << std::setw(36) << label.str() << std::right;
  os << std::setw(9) << n.count;
  os << std::setw(12) << std::fixed << std::setprecision(3)
     << static_cast<double>(n.ns) / 1e6;
  if (parent_ns > 0)
    os << std::setw(7) << std::setprecision(1)
       << 100.0 * static_cast<double>(n.ns) / static_cast<double>(parent_ns)
       << '%';
  else
    os << std::setw(8) << "-";
  if (n.bytes > 0)
    os << std::setw(12) << std::setprecision(1) << mbs(n.bytes, n.ns);
  os << '\n';
  std::vector<std::size_t> kids = n.children;
  std::sort(kids.begin(), kids.end(), [&](std::size_t a, std::size_t b) {
    return nodes[a].ns > nodes[b].ns;
  });
  for (const std::size_t kid : kids)
    print_node(os, nodes, kid, n.ns, indent + 1);
}

}  // namespace

void print_stage_tree(std::ostream& os) {
  const std::vector<Span> spans = collect_spans();
  os << std::left << std::setw(36) << "stage" << std::right << std::setw(9)
     << "calls" << std::setw(12) << "ms" << std::setw(8) << "%parent"
     << std::setw(12) << "MB/s" << '\n';
  if (spans.empty()) {
    // Counters mode (or nothing recorded): flat per-stage table.
    for (const StageStat& st : collect_stages()) {
      os << std::left << std::setw(36) << st.name << std::right
         << std::setw(9) << st.count << std::setw(12) << std::fixed
         << std::setprecision(3) << static_cast<double>(st.ns) / 1e6
         << std::setw(8) << "-";
      if (st.bytes > 0)
        os << std::setw(12) << std::setprecision(1) << mbs(st.bytes, st.ns);
      os << '\n';
    }
    return;
  }
  // Rebuild the call tree from (tid, start-order, depth) and merge the
  // per-thread trees by path so parallel workers fold into one row.
  std::vector<Span> ordered = spans;
  std::sort(ordered.begin(), ordered.end(),
            [](const Span& a, const Span& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.t0_ns != b.t0_ns) return a.t0_ns < b.t0_ns;
              return a.depth < b.depth;
            });
  std::vector<TreeNode> nodes(1);  // 0 = virtual root
  std::vector<std::size_t> stack;  // node indices along the current path
  std::uint32_t cur_tid = 0;
  bool first = true;
  for (const Span& s : ordered) {
    if (first || s.tid != cur_tid) {
      stack.clear();
      cur_tid = s.tid;
      first = false;
    }
    while (stack.size() > s.depth) stack.pop_back();
    const std::size_t parent = stack.empty() ? 0 : stack.back();
    std::size_t idx;
    const auto it = nodes[parent].lookup.find(s.name);
    if (it != nodes[parent].lookup.end()) {
      idx = it->second;
    } else {
      idx = nodes.size();
      nodes.emplace_back();
      nodes[idx].name = s.name;
      nodes[parent].lookup.emplace(s.name, idx);
      nodes[parent].children.push_back(idx);
    }
    nodes[idx].count += 1;
    nodes[idx].ns += s.t1_ns - s.t0_ns;
    nodes[idx].bytes += s.bytes;
    stack.push_back(idx);
  }
  for (const std::size_t kid : nodes[0].children) nodes[0].ns += nodes[kid].ns;
  std::vector<std::size_t> roots = nodes[0].children;
  std::sort(roots.begin(), roots.end(), [&](std::size_t a, std::size_t b) {
    return nodes[a].ns > nodes[b].ns;
  });
  for (const std::size_t root : roots)
    print_node(os, nodes, root, nodes[0].ns, 0);
}

void print_counters(std::ostream& os) {
  for (const CounterValue& c : collect_counters())
    os << std::left << std::setw(36) << c.name << " = " << c.value << '\n';
}

// ---- Chrome tracing / Perfetto exporter -----------------------------------

void write_chrome_trace(std::ostream& os) {
  const std::vector<Span> spans = collect_spans();
  std::uint64_t lo = 0, hi = 0;
  if (!spans.empty()) {
    lo = spans.front().t0_ns;
    hi = lo;
    for (const Span& s : spans) hi = std::max(hi, s.t1_ns);
  }
  os << "{\n  \"traceEvents\": [";
  bool first_event = true;
  for (const Span& s : spans) {
    if (!first_event) os << ',';
    first_event = false;
    os << "\n    {\"name\": \"";
    json_escape(os, s.name);
    // Complete ("X") events in microseconds; three decimals keep the
    // original nanosecond resolution.
    os << "\", \"cat\": \"tac\", \"ph\": \"X\", \"ts\": " << std::fixed
       << std::setprecision(3) << static_cast<double>(s.t0_ns) / 1e3
       << ", \"dur\": " << static_cast<double>(s.t1_ns - s.t0_ns) / 1e3
       << ", \"pid\": 1, \"tid\": " << s.tid << ", \"args\": {\"depth\": "
       << s.depth;
    if (s.bytes > 0) os << ", \"bytes\": " << s.bytes;
    os << "}}";
  }
  os << "\n  ],\n  \"displayTimeUnit\": \"ms\",\n  \"otherData\": {\n"
     << "    \"wall_ns\": " << (hi - lo) << ",\n    \"counters\": {";
  bool first_counter = true;
  for (const CounterValue& c : collect_counters()) {
    if (!first_counter) os << ',';
    first_counter = false;
    os << "\n      \"";
    json_escape(os, c.name);
    os << "\": " << c.value;
  }
  os << "\n    },\n    \"stages\": {";
  bool first_stage = true;
  for (const StageStat& st : collect_stages()) {
    if (!first_stage) os << ',';
    first_stage = false;
    os << "\n      \"";
    json_escape(os, st.name);
    os << "\": {\"count\": " << st.count << ", \"ns\": " << st.ns
       << ", \"bytes\": " << st.bytes << "}";
  }
  os << "\n    }\n  }\n}\n";
}

bool write_chrome_trace_file(const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  if (!os) return false;
  write_chrome_trace(os);
  os.flush();
  return static_cast<bool>(os);
}

}  // namespace tac::telemetry
