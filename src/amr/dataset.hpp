#ifndef TAC_AMR_DATASET_HPP
#define TAC_AMR_DATASET_HPP

/// \file dataset.hpp
/// \brief Tree-structured AMR data model.
///
/// Mirrors the storage convention of AMReX/Nyx plotfiles the paper targets:
/// each level is a full-domain grid at its own resolution, and every point
/// of the domain is stored at exactly one level — the level of its finest
/// refinement (no redundancy across levels, unlike patch-based AMR).
/// Level 0 is the finest.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/array3d.hpp"
#include "common/dims.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace tac::amr {

namespace detail {
/// Bit k of the result set when p[k] is nonzero, k < len <= 64, on any
/// host: eight bytes per step, each byte's high bit made its "nonzero"
/// flag without carries between bytes, then one multiply gathers the
/// eight flags LSB-first. An all-empty group of 64 costs one test.
inline std::uint64_t nonzero_bits_portable(const std::uint8_t* p,
                                           std::size_t len) {
  constexpr std::uint64_t kLow7 = 0x7f7f7f7f7f7f7f7fULL;
  constexpr std::uint64_t kGather = 0x0102040810204080ULL;
  const auto word = [p](std::size_t at) {
    std::uint64_t w;
    std::memcpy(&w, p + at, sizeof(w));
    if constexpr (std::endian::native == std::endian::big)
      w = __builtin_bswap64(w);
    return w;
  };
  if (len == 64) {
    std::uint64_t any = 0;
    for (std::size_t k = 0; k < 64; k += 8) any |= word(k);
    if (any == 0) return 0;
  }
  std::uint64_t bits = 0;
  std::size_t k = 0;
  for (; k + 8 <= len; k += 8) {
    const std::uint64_t w = word(k);
    const std::uint64_t flags = (((w & kLow7) + kLow7) | w) & ~kLow7;
    bits |= ((flags >> 7) * kGather >> 56) << k;
  }
  for (; k < len; ++k) bits |= std::uint64_t{p[k] != 0} << k;
  return bits;
}

/// The same bitmap. A whole group of 64 takes four SSE2 byte compares
/// where the host has them (every x86-64), which reads dense levels in
/// about half the time of the multiply gather; a shorter group, and
/// every group elsewhere, takes `nonzero_bits_portable`.
inline std::uint64_t nonzero_bits(const std::uint8_t* p, std::size_t len) {
#if defined(__SSE2__)
  if (len == 64) {
    const auto load = [p](int at) {
      return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + at));
    };
    const auto nonzero = [](__m128i v) {
      const int empty =
          _mm_movemask_epi8(_mm_cmpeq_epi8(v, _mm_setzero_si128()));
      return std::uint64_t{static_cast<std::uint16_t>(~empty)};
    };
    const __m128i v[4] = {load(0), load(16), load(32), load(48)};
    if (nonzero(_mm_or_si128(_mm_or_si128(v[0], v[1]),
                             _mm_or_si128(v[2], v[3]))) == 0)
      return 0;
    return nonzero(v[0]) | nonzero(v[1]) << 16 | nonzero(v[2]) << 32 |
           nonzero(v[3]) << 48;
  }
#endif
  return nonzero_bits_portable(p, len);
}
}  // namespace detail

/// Calls `fn(lo, hi)` for each maximal run [lo, hi) of nonzero bytes of
/// `mask`, in raster order. Every bulk read of a level mask goes through
/// here, except pack_mask, which stores the group bitmaps this walk
/// builds (detail::nonzero_bits). Each group of 64 mask bytes (the last
/// one shorter) becomes a bitmap whose run edges are found with bit
/// scans, so an empty or a full group costs one compare and a run two bit
/// scans however long it is.
template <class Fn>
void for_each_valid_run(std::span<const std::uint8_t> mask, Fn&& fn) {
  constexpr std::uint64_t kAll = ~std::uint64_t{0};
  const std::uint8_t* m = mask.data();
  const std::size_t n = mask.size();
  std::size_t lo = 0;
  bool open = false;  // a run reached the end of the previous group
  for (std::size_t base = 0; base < n; base += 64) {
    const std::size_t len = std::min<std::size_t>(n - base, 64);
    std::uint64_t bits = detail::nonzero_bits(m + base, len);
    // A full group only extends the open run. Taking it by a branch, not
    // by bit scans, lets a fully valid short span (a TAC block row) call
    // `fn` before its mask bytes have loaded.
    if (bits == kAll >> (64 - len)) {
      if (!open) lo = base;
      open = true;
      continue;
    }
    if (open && (bits & 1) == 0) {
      fn(lo, base);
      open = false;
    }
    while (bits != 0) {
      const int start = std::countr_zero(bits);
      const int end = start + std::countr_one(bits >> start);
      if (!open) lo = base + start;
      open = end == 64;
      if (open) break;
      fn(lo, base + end);
      bits &= kAll << end;
    }
  }
  if (open) fn(lo, n);
}

/// One refinement level: a full-domain grid plus a validity mask. Cells
/// with mask == 0 are "empty" — their region of the domain is stored at
/// some other level. Empty cells hold 0.0 by convention.
struct AmrLevel {
  Array3D<double> data;
  Array3D<std::uint8_t> mask;

  AmrLevel() = default;
  explicit AmrLevel(Dims3 dims) : data(dims), mask(dims) {}

  [[nodiscard]] const Dims3& dims() const { return data.dims(); }

  /// Number of valid cells: the summed length of the mask's runs.
  [[nodiscard]] std::size_t valid_count() const;

  /// Fraction of this level's grid that is valid — the "density" the
  /// paper's filter switches on (Table 1 column 3).
  [[nodiscard]] double density() const {
    return mask.size() == 0
               ? 0.0
               : static_cast<double>(valid_count()) /
                     static_cast<double>(mask.size());
  }

  /// Valid values gathered in raster order (the level's natural 1D
  /// storage, input of the 1D baseline).
  [[nodiscard]] std::vector<double> gather_valid() const;

  /// gather_valid into caller-provided storage (e.g. an arena span).
  /// Returns the number of values written; `out` must hold at least
  /// valid_count() elements.
  std::size_t gather_valid_into(std::span<double> out) const;

  /// Scatters `values` (raster order over valid cells) back. Empty cells
  /// are left as they are — zero on a freshly constructed level, whose
  /// untouched pages then never become resident. Throws if the count does
  /// not match.
  void scatter_valid(std::span<const double> values);

  /// Min/max over valid cells; {0, 0} if none.
  [[nodiscard]] std::pair<double, double> valid_range() const;
};

/// A refinement ratio or level extents that no AMR hierarchy can have.
struct StructureError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Returns `ratio` as an int when it is a refinement ratio: at least 2 and
/// within int. Throws StructureError prefixed with `context` otherwise.
[[nodiscard]] int checked_ratio(std::uint64_t ratio, const char* context);

/// Throws StructureError prefixed with `context` unless level `level`'s
/// extents `dims` equal its finer neighbour's extents `finer` divided by
/// `ratio`, rounded down. With a checked_ratio this keeps x * s + d, for
/// every cell coordinate x of level l and every d < s =
/// scale_to_finest(l), inside the finest grid, which the zMesh and 3D
/// paths index.
void check_level_extents(Dims3 finer, Dims3 dims, int ratio,
                         std::size_t level, const char* context);

/// A multi-level dataset for one simulation field.
class AmrDataset {
 public:
  AmrDataset() = default;
  AmrDataset(std::string field_name, std::vector<AmrLevel> levels,
             int refinement_ratio = 2)
      : field_name_(std::move(field_name)),
        levels_(std::move(levels)),
        ratio_(refinement_ratio) {}

  [[nodiscard]] const std::string& field_name() const { return field_name_; }
  [[nodiscard]] int refinement_ratio() const { return ratio_; }
  [[nodiscard]] std::size_t num_levels() const { return levels_.size(); }
  [[nodiscard]] const AmrLevel& level(std::size_t l) const {
    return levels_.at(l);
  }
  [[nodiscard]] AmrLevel& level(std::size_t l) { return levels_.at(l); }
  [[nodiscard]] const std::vector<AmrLevel>& levels() const { return levels_; }
  [[nodiscard]] std::vector<AmrLevel>& levels() { return levels_; }

  [[nodiscard]] Dims3 finest_dims() const {
    return levels_.empty() ? Dims3{} : levels_.front().dims();
  }

  /// Linear scale factor between level l and the finest level.
  [[nodiscard]] std::size_t scale_to_finest(std::size_t l) const {
    std::size_t s = 1;
    for (std::size_t i = 0; i < l; ++i)
      s *= static_cast<std::size_t>(ratio_);
    return s;
  }

  /// Total number of stored (valid) values across levels.
  [[nodiscard]] std::size_t total_valid() const {
    std::size_t n = 0;
    for (const auto& lv : levels_) n += lv.valid_count();
    return n;
  }

  /// Uncompressed payload size in bytes (doubles, valid cells only), the
  /// "original size" used for compression ratios and throughput.
  [[nodiscard]] std::size_t original_bytes() const {
    return total_valid() * sizeof(double);
  }

  /// checked_ratio and check_level_extents over this dataset: throws
  /// StructureError prefixed with `context` unless every cell of every
  /// level maps inside the finest grid. Costs O(levels), no cell is read.
  void check_structure(const char* context) const;

  /// Verifies the tree-structure invariant: check_structure holds and
  /// every finest-grid cell is covered by exactly one level's valid
  /// region. Returns an explanation on failure.
  [[nodiscard]] std::string validate() const;

 private:
  std::string field_name_;
  std::vector<AmrLevel> levels_;
  int ratio_ = 2;
};

}  // namespace tac::amr

#endif  // TAC_AMR_DATASET_HPP
