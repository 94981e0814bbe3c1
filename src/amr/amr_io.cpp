#include "amr/amr_io.hpp"

#include <unistd.h>

#include <bit>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>

#include "common/bytes.hpp"
#include "lossless/codec.hpp"

namespace tac::amr {
namespace {
constexpr std::uint32_t kMagic = 0x524D4154;  // "TAMR"
constexpr std::uint8_t kVersion = 1;

// A level's entry is its level record plus the length-prefixed value blob.
constexpr std::size_t kMinLevelBytes = kMinLevelRecordBytes + 1;

// A materialized cell costs a double of data plus a mask byte.
constexpr std::size_t kLevelBytesPerCell = sizeof(double) + 1;

/// Expands packed bits LSB-first into 0/1 bytes: out[i] = bit i.
void spread_bits(std::span<const std::uint8_t> packed,
                 std::span<std::uint8_t> out) {
  const std::size_t count = out.size();
  std::size_t i = 0;
  if constexpr (std::endian::native == std::endian::little) {
    // Spread one packed byte to eight 0/1 bytes: replicate it, isolate
    // bit i in byte i, then force each nonzero byte to exactly 1.
    constexpr std::uint64_t kOnes = 0x0101010101010101ULL;
    constexpr std::uint64_t kSelect = 0x8040201008040201ULL;
    constexpr std::uint64_t kLow7 = 0x7f7f7f7f7f7f7f7fULL;
    for (; i + 8 <= count; i += 8) {
      const std::uint64_t m = (packed[i / 8] * kOnes) & kSelect;
      const std::uint64_t bits = ((m + kLow7) >> 7) & kOnes;
      std::memcpy(out.data() + i, &bits, 8);
    }
  }
  for (; i < count; ++i) out[i] = (packed[i / 8] >> (i % 8)) & 1u;
}
}  // namespace

LevelRecord read_level_record(ByteReader& r, std::size_t level,
                              const char* context) {
  const std::uint64_t nx = r.get_varint();
  const std::uint64_t ny = r.get_varint();
  const std::uint64_t nz = r.get_varint();
  std::size_t volume = 0;
  if (__builtin_mul_overflow(nx, ny, &volume) ||
      __builtin_mul_overflow(volume, nz, &volume) ||
      volume > SIZE_MAX / kLevelBytesPerCell)
    throw std::runtime_error(
        std::string(context) + ": level " + std::to_string(level) + " dims " +
        std::to_string(nx) + "x" + std::to_string(ny) + "x" +
        std::to_string(nz) + " overflow the addressable cell count");
  const Dims3 dims{static_cast<std::size_t>(nx), static_cast<std::size_t>(ny),
                   static_cast<std::size_t>(nz)};
  return {dims, r.get_blob()};
}

void write_level_record(ByteWriter& w, const AmrLevel& lv) {
  w.put_varint(lv.dims().nx);
  w.put_varint(lv.dims().ny);
  w.put_varint(lv.dims().nz);
  w.put_blob(lossless::compress(pack_mask(lv.mask.span())));
}

std::vector<std::uint8_t> pack_mask(std::span<const std::uint8_t> mask) {
  std::vector<std::uint8_t> out((mask.size() + 7) / 8, 0);
  // Bits LSB-first; `out` starts zeroed, so only runs cost writes.
  for_each_valid_run(mask, [&](std::size_t lo, std::size_t hi) {
    const std::size_t first = lo / 8;
    const std::size_t last = hi / 8;
    const auto head = static_cast<std::uint8_t>(0xFFu << (lo % 8));
    const auto tail = static_cast<std::uint8_t>((1u << (hi % 8)) - 1);
    if (first == last) {
      out[first] |= head & tail;
      return;
    }
    out[first] |= head;
    std::memset(out.data() + first + 1, 0xFF, last - first - 1);
    if (tail != 0) out[last] |= tail;
  });
  return out;
}

std::vector<std::uint8_t> unpack_mask(std::span<const std::uint8_t> packed,
                                      std::size_t count) {
  if (packed.size() < (count + 7) / 8)
    throw std::runtime_error("unpack_mask: truncated mask");
  std::vector<std::uint8_t> out(count);
  unpack_mask_into(packed, out);
  return out;
}

void unpack_mask_into(std::span<const std::uint8_t> packed,
                      std::span<std::uint8_t> out) {
  const std::size_t count = out.size();
  if (packed.size() < (count + 7) / 8)
    throw std::runtime_error("unpack_mask: truncated mask");
  // `out` is zeroed: 64 empty cells (one all-zero packed word) cost no
  // write, so the mask pages of a sparse level's empty regions are never
  // touched.
  std::size_t i = 0;
  for (; i + 64 <= count; i += 64) {
    std::uint64_t word;
    std::memcpy(&word, packed.data() + i / 8, sizeof(word));
    if (word != 0) spread_bits(packed.subspan(i / 8, 8), out.subspan(i, 64));
  }
  spread_bits(packed.subspan(i / 8), out.subspan(i));
}

std::vector<std::size_t> dense_page_runs(std::span<const std::uint8_t> packed,
                                         std::size_t cells,
                                         std::size_t cell_bytes,
                                         std::uintptr_t base,
                                         std::size_t page_bytes,
                                         std::size_t run_bytes) {
  std::vector<std::size_t> runs;
  constexpr std::size_t kWordCells = 64;
  if (cell_bytes == 0 || page_bytes == 0 || run_bytes < page_bytes ||
      run_bytes % page_bytes != 0 ||
      page_bytes % (kWordCells * cell_bytes) != 0 || base % page_bytes != 0 ||
      cells > SIZE_MAX / cell_bytes)
    return runs;
  const std::size_t bytes = cells * cell_bytes;
  const std::size_t words_per_page = page_bytes / (kWordCells * cell_bytes);
  const std::size_t pages_per_run = run_bytes / page_bytes;
  const std::size_t max_empty = pages_per_run / 8;
  const auto word_set = [&](std::size_t w) {
    const std::size_t b = w * 8;
    if (b + 8 <= packed.size()) {
      std::uint64_t v;
      std::memcpy(&v, packed.data() + b, sizeof(v));
      return v != 0;
    }
    std::uint8_t any = 0;
    for (std::size_t k = b; k < packed.size(); ++k) any |= packed[k];
    return any != 0;
  };
  // First run boundary at or after `base`, as an offset into the array.
  for (std::size_t off = (run_bytes - base % run_bytes) % run_bytes;
       off <= bytes && bytes - off >= run_bytes; off += run_bytes) {
    const std::size_t first_word = off / cell_bytes / kWordCells;
    std::size_t empty = 0;
    for (std::size_t p = 0; p < pages_per_run && empty <= max_empty; ++p) {
      const std::size_t w0 = first_word + p * words_per_page;
      bool touched = false;
      for (std::size_t w = w0; w < w0 + words_per_page && !touched; ++w)
        touched = word_set(w);
      if (!touched) ++empty;
    }
    if (empty <= max_empty) runs.push_back(off);
  }
  return runs;
}

namespace {
/// Bytes of one base page on this host.
std::size_t host_page_bytes() {
  static const std::size_t bytes = [] {
    const long p = sysconf(_SC_PAGESIZE);
    return p > 0 ? static_cast<std::size_t>(p) : std::size_t{4096};
  }();
  return bytes;
}

/// Hints `a`'s dense_page_runs under the host's page sizes. A transparent
/// huge page spans what one page-table entry a level above the base pages
/// maps: page_bytes / sizeof(void*) base pages (2 MiB over 4 KiB pages).
template <class T>
void advise_dense_runs(Array3D<T>& a, std::span<const std::uint8_t> packed) {
  if (!a.mapped()) return;
  const std::size_t page = host_page_bytes();
  const std::size_t run = page / sizeof(void*) * page;
  a.advise_huge_pages(
      dense_page_runs(packed, a.size(), sizeof(T),
                      reinterpret_cast<std::uintptr_t>(a.data()), page, run),
      run);
}
}  // namespace

AmrLevel level_from_record(const LevelRecord& rec, std::size_t level,
                           const char* context) {
  const std::size_t volume = rec.dims.volume();
  const auto packed = lossless::decompress(rec.mask_blob);
  if (packed.size() < (volume + 7) / 8)
    throw std::runtime_error(
        std::string(context) + ": level " + std::to_string(level) +
        " mask holds " + std::to_string(packed.size()) + " bytes but its " +
        std::to_string(volume) + " cells need " +
        std::to_string((volume + 7) / 8));
  AmrLevel lv(rec.dims);
  advise_dense_runs(lv.data, packed);
  advise_dense_runs(lv.mask, packed);
  unpack_mask_into(packed, lv.mask.span());
  return lv;
}

std::vector<std::uint8_t> dataset_to_bytes(const AmrDataset& ds) {
  ByteWriter w;
  w.put<std::uint32_t>(kMagic);
  w.put<std::uint8_t>(kVersion);
  w.put_string(ds.field_name());
  w.put_varint(static_cast<std::uint64_t>(ds.refinement_ratio()));
  w.put_varint(ds.num_levels());
  for (std::size_t l = 0; l < ds.num_levels(); ++l) {
    const AmrLevel& lv = ds.level(l);
    write_level_record(w, lv);
    const auto values = lv.gather_valid();
    std::span<const std::uint8_t> value_bytes{
        reinterpret_cast<const std::uint8_t*>(values.data()),
        values.size() * sizeof(double)};
    w.put_blob(value_bytes);
  }
  return w.take();
}

AmrDataset dataset_from_bytes(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  if (r.get<std::uint32_t>() != kMagic)
    throw std::runtime_error("amr_io: bad magic");
  if (r.get<std::uint8_t>() != kVersion)
    throw std::runtime_error("amr_io: unsupported version");
  const std::string name = r.get_string();
  const int ratio = static_cast<int>(r.get_varint());
  const std::size_t nlevels =
      r.get_count("amr_io: level count", kMinLevelBytes);
  std::vector<AmrLevel> levels;
  levels.reserve(nlevels);
  for (std::size_t l = 0; l < nlevels; ++l) {
    AmrLevel lv = level_from_record(read_level_record(r, l, "amr_io"), l,
                                    "amr_io");
    const auto value_bytes = r.get_blob();
    if (value_bytes.size() % sizeof(double) != 0)
      throw std::runtime_error("amr_io: bad value payload");
    std::vector<double> values(value_bytes.size() / sizeof(double));
    if (!value_bytes.empty())
      std::memcpy(values.data(), value_bytes.data(), value_bytes.size());
    lv.scatter_valid(values);
    levels.push_back(std::move(lv));
  }
  return AmrDataset(name, std::move(levels), ratio);
}

void save_dataset(const std::string& path, const AmrDataset& ds) {
  const auto bytes = dataset_to_bytes(ds);
  std::ofstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("save_dataset: cannot open " + path);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  if (!f) throw std::runtime_error("save_dataset: write failed " + path);
}

AmrDataset load_dataset(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  if (!f) throw std::runtime_error("load_dataset: cannot open " + path);
  const auto size = static_cast<std::size_t>(f.tellg());
  f.seekg(0);
  std::vector<std::uint8_t> bytes(size);
  f.read(reinterpret_cast<char*>(bytes.data()),
         static_cast<std::streamsize>(size));
  if (!f) throw std::runtime_error("load_dataset: read failed " + path);
  return dataset_from_bytes(bytes);
}

}  // namespace tac::amr
