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

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/array3d.hpp"
#include "common/dims.hpp"

namespace tac::amr {

/// Mask bytes a scan tests at once: four 8-byte words.
inline constexpr std::size_t kMaskChunk = 32;

/// True when the kMaskChunk mask bytes at `p` are all zero: four word
/// loads and one branch.
inline bool mask_chunk_empty(const std::uint8_t* p) {
  std::uint64_t w[kMaskChunk / 8];
  std::memcpy(w, p, sizeof(w));
  return (w[0] | w[1] | w[2] | w[3]) == 0;
}

/// True when the `n` mask bytes at `p` are all zero. Stops at the first
/// nonzero chunk.
inline bool mask_bytes_empty(const std::uint8_t* p, std::size_t n) {
  std::size_t i = 0;
  for (; i + kMaskChunk <= n; i += kMaskChunk)
    if (!mask_chunk_empty(p + i)) return false;
  std::uint8_t any = 0;
  for (; i < n; ++i) any |= p[i];
  return any == 0;
}

/// True when none of the `n` mask bytes at `p` is zero, eight at a time:
/// a word w holds a zero byte exactly when (w - 0x01..01) & ~w & 0x80..80
/// is nonzero. Stops at the first word with an empty cell.
inline bool mask_bytes_full(const std::uint8_t* p, std::size_t n) {
  constexpr std::uint64_t kOnes = 0x0101010101010101ULL;
  constexpr std::uint64_t kHighs = 0x8080808080808080ULL;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, sizeof(w));
    if ((w - kOnes) & ~w & kHighs) return false;
  }
  for (; i < n; ++i)
    if (p[i] == 0) return false;
  return true;
}

/// Number of nonzero bytes among the `n` mask bytes at `p`. Per 8-byte
/// word, the high bit of each byte becomes its "nonzero" flag (the same
/// kLow7 trick as amr_io's pack_mask) and one multiply sums the eight
/// flags into the top byte. No popcount instruction: the build targets
/// baseline x86-64, where __builtin_popcountll is a libgcc call.
inline std::size_t count_nonzero_bytes(const std::uint8_t* p, std::size_t n) {
  constexpr std::uint64_t kLow7 = 0x7f7f7f7f7f7f7f7fULL;
  constexpr std::uint64_t kOnes = 0x0101010101010101ULL;
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t v;
    std::memcpy(&v, p + i, sizeof(v));
    const std::uint64_t nonzero = (((v & kLow7) + kLow7) | v) >> 7 & kOnes;
    count += static_cast<std::size_t>((nonzero * kOnes) >> 56);
  }
  for (; i < n; ++i) count += p[i] ? 1 : 0;
  return count;
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

  /// Number of valid cells. Counts eight mask bytes per step
  /// (count_nonzero_bytes) and skips all-empty 32-byte chunks, so a
  /// sparse level costs about one load per mask word.
  [[nodiscard]] std::size_t valid_count() const;

  /// Calls `fn(i)` with the raster index of every valid cell, in raster
  /// order. An all-empty 32-byte chunk of the mask costs four word loads
  /// and no per-cell branch, so a sparse level's scan is mostly word
  /// loads. Every full-level mask scan goes through here.
  template <class Fn>
  void for_each_valid(Fn&& fn) const {
    const std::uint8_t* m = mask.data();
    const std::size_t n = mask.size();
    std::size_t i = 0;
    for (; i + kMaskChunk <= n; i += kMaskChunk) {
      if (mask_chunk_empty(m + i)) continue;
      for (std::size_t k = i; k < i + kMaskChunk; ++k)
        if (m[k]) fn(k);
    }
    for (; i < n; ++i)
      if (m[i]) fn(i);
  }

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

  /// Verifies the tree-structure invariant: level extents shrink by
  /// `ratio` per level and every finest-grid cell is covered by exactly
  /// one level's valid region. Returns an explanation on failure.
  [[nodiscard]] std::string validate() const;

 private:
  std::string field_name_;
  std::vector<AmrLevel> levels_;
  int ratio_ = 2;
};

}  // namespace tac::amr

#endif  // TAC_AMR_DATASET_HPP
