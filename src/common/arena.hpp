#ifndef TAC_COMMON_ARENA_HPP
#define TAC_COMMON_ARENA_HPP

/// \file arena.hpp
/// \brief Thread-local bump arenas for per-block/per-group scratch buffers.
///
/// The level pipeline calls the SZ kernel thousands of times per container
/// (one per block group), and each call used to heap-allocate its quant
/// codes, reconstruction buffer, hash chains and Huffman scratch. A
/// ScratchArena keeps one warm memory region per worker thread: scopes
/// nest LIFO, so a per-group call re-uses the bytes of the previous group
/// for free. After warm-up the steady-state encode path performs zero heap
/// allocations — `Stats` counts block growth so tests can assert exactly
/// that.
///
/// Oversized requests (above kLargeCutoff) get dedicated heap blocks that
/// are returned when their scope exits: a one-off 100 MB upsample scratch
/// cannot pin that memory in the arena forever. The bump region itself is
/// capped at kMaxRetainBytes and shrunk back at outermost-scope exit.
/// Neither is zeroed: a 16 MB one-off (LZSS's hash chains over a 2 MB
/// packed mask) cost more to clear than to use.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <vector>

#include "common/telemetry.hpp"

namespace tac {

class ScratchArena {
 public:
  /// Per-allocation cutoff: anything larger bypasses the bump region.
  static constexpr std::size_t kLargeCutoff = std::size_t{4} << 20;
  /// The bump region never retains more than this across scopes.
  static constexpr std::size_t kMaxRetainBytes = std::size_t{32} << 20;

  struct Stats {
    std::uint64_t scope_enters = 0;   ///< ArenaScope constructions
    std::uint64_t allocs = 0;         ///< alloc() calls served
    std::uint64_t bytes_served = 0;   ///< total bytes handed out
    std::uint64_t block_allocs = 0;   ///< bump-region heap growths
    std::uint64_t large_allocs = 0;   ///< oversized pass-through allocs
    std::size_t high_water = 0;       ///< peak live bump bytes
    std::size_t retained = 0;         ///< bump bytes currently reserved
  };

  /// The calling thread's arena (workers each get their own).
  [[nodiscard]] static ScratchArena& local() {
    thread_local ScratchArena arena;
    return arena;
  }

  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Publish this thread's stats into the telemetry counter registry:
  /// monotonic fields as deltas since the last publish, peaks via
  /// record_max. Called at outermost-scope exit and from the telemetry
  /// collect hook; cheap no-op when counters are off.
  void publish_stats() {
    if (!telemetry::counters_enabled()) return;
    TAC_COUNTER_ADD("arena.scope_enters",
                    stats_.scope_enters - published_.scope_enters);
    TAC_COUNTER_ADD("arena.allocs", stats_.allocs - published_.allocs);
    TAC_COUNTER_ADD("arena.bytes_served",
                    stats_.bytes_served - published_.bytes_served);
    TAC_COUNTER_ADD("arena.block_allocs",
                    stats_.block_allocs - published_.block_allocs);
    TAC_COUNTER_ADD("arena.large_allocs",
                    stats_.large_allocs - published_.large_allocs);
    TAC_COUNTER_MAX("arena.high_water", stats_.high_water);
    TAC_COUNTER_MAX("arena.retained_peak", stats_.retained);
    published_ = stats_;
  }

 private:
  friend class ArenaScope;

  struct Block {
    std::unique_ptr<std::byte[]> mem;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  static constexpr std::size_t kAlign = 64;
  static constexpr std::size_t align_up(std::size_t n) {
    return (n + (kAlign - 1)) & ~(kAlign - 1);
  }

  void* alloc_bytes(std::size_t bytes) {
    stats_.allocs += 1;
    stats_.bytes_served += bytes;
    const std::size_t need = align_up(bytes);
    if (need >= kLargeCutoff) {
      stats_.large_allocs += 1;
      large_.push_back(std::make_unique_for_overwrite<std::byte[]>(need));
      return large_.back().get();
    }
    Block& top = blocks_.back();
    if (top.used + need > top.size) grow(need);
    Block& cur = blocks_.back();
    void* p = cur.mem.get() + cur.used;
    cur.used += need;
    live_ += need;
    if (live_ > stats_.high_water) stats_.high_water = live_;
    return p;
  }

  void grow(std::size_t need) {
    std::size_t size = blocks_.back().size * 2;
    if (size < (std::size_t{1} << 16)) size = std::size_t{1} << 16;
    while (size < need) size *= 2;
    Block b;
    b.mem = std::make_unique_for_overwrite<std::byte[]>(size);
    b.size = size;
    blocks_.push_back(std::move(b));
    stats_.block_allocs += 1;
    stats_.retained += size;
  }

  /// Outermost-scope exit: collapse to one block big enough for the whole
  /// epoch (so the next epoch never grows), bounded by the retain cap.
  /// Runs after the scope destructor popped the epoch's overflow blocks,
  /// so the check must be against the high-water mark, not block count:
  /// a single retained block that high_water already outgrew still needs
  /// replacing, or every epoch re-grows from the seed block.
  void consolidate() {
    std::size_t want = align_up(stats_.high_water);
    if (want > kMaxRetainBytes) want = kMaxRetainBytes;
    std::size_t size = std::size_t{1} << 16;
    while (size < want) size *= 2;
    if (blocks_.size() == 1 && blocks_[0].size >= size &&
        blocks_[0].size <= kMaxRetainBytes)
      return;
    blocks_.clear();
    Block b;
    b.mem = std::make_unique_for_overwrite<std::byte[]>(size);
    b.size = size;
    blocks_.push_back(std::move(b));
    stats_.block_allocs += 1;
    stats_.retained = size;
  }

  ScratchArena() {
    Block b;
    b.size = std::size_t{1} << 16;
    b.mem = std::make_unique_for_overwrite<std::byte[]>(b.size);
    stats_.retained = b.size;
    blocks_.push_back(std::move(b));
    // One process-wide hook: a counter snapshot publishes the collecting
    // thread's pending arena stats (other threads publish at their own
    // outermost-scope exits).
    static const bool hook_registered = [] {
      telemetry::register_collect_hook([] { local().publish_stats(); });
      return true;
    }();
    (void)hook_registered;
  }

  std::vector<Block> blocks_;
  std::vector<std::unique_ptr<std::byte[]>> large_;
  std::size_t live_ = 0;
  unsigned depth_ = 0;
  Stats stats_;
  Stats published_;  ///< values already pushed to the counter registry
};

/// RAII scratch scope on the calling thread's arena. Allocations made
/// through a scope are released (LIFO) when it destructs; spans must not
/// outlive their scope. Scopes nest freely across the level pipeline's
/// per-level / per-group / per-block call tree.
class ArenaScope {
 public:
  ArenaScope() : arena_(ScratchArena::local()) {
    arena_.stats_.scope_enters += 1;
    arena_.depth_ += 1;
    saved_blocks_ = arena_.blocks_.size();
    saved_used_ = arena_.blocks_.back().used;
    saved_live_ = arena_.live_;
    saved_large_ = arena_.large_.size();
  }

  ~ArenaScope() {
    // Blocks appended after entry only hold allocations made inside this
    // scope — all dead now.
    while (arena_.blocks_.size() > saved_blocks_) {
      arena_.stats_.retained -= arena_.blocks_.back().size;
      arena_.blocks_.pop_back();
    }
    arena_.blocks_.back().used = saved_used_;
    arena_.live_ = saved_live_;
    arena_.large_.resize(saved_large_);
    arena_.depth_ -= 1;
    if (arena_.depth_ == 0) {
      arena_.consolidate();
      arena_.publish_stats();
    }
  }

  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

  /// Uninitialized scratch span of `n` Ts (trivial types only).
  template <class T>
  [[nodiscard]] std::span<T> alloc(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>);
    if (n == 0) return {};
    return {static_cast<T*>(arena_.alloc_bytes(n * sizeof(T))), n};
  }

  /// Zero-initialized variant.
  template <class T>
  [[nodiscard]] std::span<T> alloc_zero(std::size_t n) {
    auto s = alloc<T>(n);
    std::memset(static_cast<void*>(s.data()), 0, s.size_bytes());
    return s;
  }

 private:
  ScratchArena& arena_;
  std::size_t saved_blocks_;
  std::size_t saved_used_;
  std::size_t saved_live_;
  std::size_t saved_large_;
};

}  // namespace tac

#endif  // TAC_COMMON_ARENA_HPP
