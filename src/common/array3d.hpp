#ifndef TAC_COMMON_ARRAY3D_HPP
#define TAC_COMMON_ARRAY3D_HPP

/// \file array3d.hpp
/// \brief Owning row-major 3D array with x as the fastest axis.

#include <sys/mman.h>

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <span>
#include <type_traits>
#include <utility>

#include "common/dims.hpp"

namespace tac {

/// Dense 3D array stored contiguously; index (x, y, z) maps to
/// x + nx * (y + ny * z). Degenerates naturally to 2D/1D when trailing
/// extents are 1.
///
/// Storage is one buffer. An array of at least kMapBytes maps pages of
/// its own, which the kernel zeroes on first touch: the zero constructor
/// writes nothing, so cells nobody writes — the empty cells of a sparse
/// AMR level — cost neither time nor resident memory, and every
/// construction of a given size costs the same. (calloc would leave that
/// to the allocator's history: glibc raises its mmap threshold to the
/// largest block freed so far, up to 32 MiB, and reuses freed heap blocks
/// first, so a level of a few MiB would come back either as fresh pages or
/// as a recycled block that calloc memsets whole.) Smaller arrays use
/// calloc and malloc: a reused heap block is zeroed faster than fresh
/// pages fault in, and below kMapBytes either way costs little. The fill,
/// span and copy constructors write every cell once and never zero first;
/// they ask for transparent huge pages on their whole mapping, since every
/// page is written anyway and one 2 MiB fault is far cheaper than 512 small
/// ones. A zero-constructed array is hinted only where its writer knows
/// it will fill a run densely (advise_huge_pages).
template <class T>
class Array3D {
  static_assert(std::is_trivially_copyable_v<T>,
                "Array3D stores raw bytes: T must be trivially copyable");

 public:
#if defined(__SANITIZE_ADDRESS__)
  /// Under ASan every array comes from the sanitizer's allocator, whose
  /// redzones catch out-of-bounds cells.
  static constexpr std::size_t kMapBytes = SIZE_MAX;
#else
  /// Arrays of at least this many bytes map their own pages.
  static constexpr std::size_t kMapBytes = std::size_t{4} << 20;
#endif

  Array3D() = default;
  /// All cells zero.
  explicit Array3D(Dims3 dims)
      : dims_(dims), data_(allocate(dims.volume(), /*zeroed=*/true)) {}
  /// All cells `fill`.
  Array3D(Dims3 dims, const T& fill)
      : dims_(dims), data_(allocate(dims.volume(), /*zeroed=*/false)) {
    std::fill_n(data_, size(), fill);
  }
  /// A copy of `values`, which must hold dims.volume() elements.
  Array3D(Dims3 dims, std::span<const T> values)
      : dims_(dims), data_(allocate(dims.volume(), /*zeroed=*/false)) {
    assert(values.size() == size());
    copy_from(values.data());
  }

  Array3D(const Array3D& other)
      : dims_(other.dims_), data_(allocate(other.size(), /*zeroed=*/false)) {
    copy_from(other.data_);
  }
  Array3D(Array3D&& other) noexcept
      : dims_(std::exchange(other.dims_, Dims3{})),
        data_(std::exchange(other.data_, nullptr)) {}
  /// Copy-and-swap: covers copy and move assignment.
  Array3D& operator=(Array3D other) noexcept {
    std::swap(dims_, other.dims_);
    std::swap(data_, other.data_);
    return *this;
  }
  ~Array3D() { release(data_, size()); }

  [[nodiscard]] const Dims3& dims() const { return dims_; }
  [[nodiscard]] std::size_t size() const { return dims_.volume(); }
  [[nodiscard]] bool empty() const { return size() == 0; }

  [[nodiscard]] T& operator()(std::size_t x, std::size_t y, std::size_t z) {
    assert(x < dims_.nx && y < dims_.ny && z < dims_.nz);
    return data_[dims_.index(x, y, z)];
  }
  [[nodiscard]] const T& operator()(std::size_t x, std::size_t y,
                                    std::size_t z) const {
    assert(x < dims_.nx && y < dims_.ny && z < dims_.nz);
    return data_[dims_.index(x, y, z)];
  }

  [[nodiscard]] T& operator[](std::size_t i) { return data_[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const { return data_[i]; }

  [[nodiscard]] std::span<T> span() { return {data_, size()}; }
  [[nodiscard]] std::span<const T> span() const { return {data_, size()}; }
  [[nodiscard]] T* data() { return data_; }
  [[nodiscard]] const T* data() const { return data_; }

  void fill(const T& v) { std::fill_n(data_, size(), v); }

  /// True when this array maps pages of its own (see kMapBytes).
  [[nodiscard]] bool mapped() const { return size() * sizeof(T) >= kMapBytes; }

  /// Asks the kernel to back the `run_bytes` bytes at each byte offset in
  /// `offsets` (ascending, page-aligned, from data()) with huge pages when
  /// they are first touched. Call it before anything writes them. A no-op
  /// for arrays that are not mapped and on hosts without the hint; where
  /// transparent huge pages are off the kernel ignores it.
  void advise_huge_pages(std::span<const std::size_t> offsets,
                         std::size_t run_bytes) {
    if (!mapped()) return;
    auto* base = reinterpret_cast<std::uint8_t*>(data_);
    // Adjacent runs go to the kernel as one range.
    for (std::size_t i = 0; i < offsets.size();) {
      std::size_t j = i + 1;
      while (j < offsets.size() &&
             offsets[j] == offsets[j - 1] + run_bytes)
        ++j;
      advise_huge(base + offsets[i], (j - i) * run_bytes);
      i = j;
    }
  }

  /// Copies the half-open box `src_box` of this array into a new array of
  /// matching extents.
  [[nodiscard]] Array3D<T> extract(const Box3& src_box) const {
    Array3D<T> out(src_box.extents());
    for (std::size_t z = src_box.z0; z < src_box.z1; ++z)
      for (std::size_t y = src_box.y0; y < src_box.y1; ++y)
        for (std::size_t x = src_box.x0; x < src_box.x1; ++x)
          out(x - src_box.x0, y - src_box.y0, z - src_box.z0) =
              (*this)(x, y, z);
    return out;
  }

  /// Writes `block` into this array with its origin at (x0, y0, z0).
  void insert(const Array3D<T>& block, std::size_t x0, std::size_t y0,
              std::size_t z0) {
    const Dims3& b = block.dims();
    assert(x0 + b.nx <= dims_.nx && y0 + b.ny <= dims_.ny &&
           z0 + b.nz <= dims_.nz);
    for (std::size_t z = 0; z < b.nz; ++z)
      for (std::size_t y = 0; y < b.ny; ++y)
        for (std::size_t x = 0; x < b.nx; ++x)
          (*this)(x0 + x, y0 + y, z0 + z) = block(x, y, z);
  }

  /// Equal extents and element-wise equal cells (T's ==, so 0.0 == -0.0).
  friend bool operator==(const Array3D& a, const Array3D& b) {
    return a.dims_ == b.dims_ &&
           std::equal(a.data_, a.data_ + a.size(), b.data_);
  }

 private:
  /// `n` elements, zeroed or not; nullptr for n == 0. Mapped pages are
  /// always zero, so below kMapBytes `zeroed` picks calloc over malloc and
  /// above it `!zeroed` (every cell is about to be written) asks for huge
  /// pages.
  static T* allocate(std::size_t n, bool zeroed) {
    if (n == 0) return nullptr;
    if (n > SIZE_MAX / sizeof(T)) throw std::bad_alloc();
    const std::size_t bytes = n * sizeof(T);
    if (bytes >= kMapBytes) {
      void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (p == MAP_FAILED) throw std::bad_alloc();
      // The constructors that do not zero write every cell.
      if (!zeroed) advise_huge(p, bytes);
      return static_cast<T*>(p);
    }
    void* p = zeroed ? std::calloc(n, sizeof(T)) : std::malloc(bytes);
    if (p == nullptr) throw std::bad_alloc();
    return static_cast<T*>(p);
  }

  /// Huge-page hint for mapped bytes; failures (no THP support) are
  /// harmless, the range simply keeps base pages.
  static void advise_huge([[maybe_unused]] void* p,
                          [[maybe_unused]] std::size_t bytes) {
#if defined(MADV_HUGEPAGE)
    (void)madvise(p, bytes, MADV_HUGEPAGE);
#endif
  }

  /// Frees what allocate(n, ...) returned.
  static void release(T* p, std::size_t n) {
    if (n * sizeof(T) >= kMapBytes)
      munmap(p, n * sizeof(T));
    else
      std::free(p);
  }

  void copy_from(const T* src) {
    if (size() != 0) std::memcpy(data_, src, size() * sizeof(T));
  }

  Dims3 dims_;
  T* data_ = nullptr;
};

}  // namespace tac

#endif  // TAC_COMMON_ARRAY3D_HPP
