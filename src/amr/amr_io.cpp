#include "amr/amr_io.hpp"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>

#include "common/bytes.hpp"
#include "common/parallel.hpp"
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

/// unpack_mask into caller storage holding at least ceil(out.size()/8)
/// packed bytes. `out` must arrive zeroed: set bits become 1, and runs of
/// 64 clear bits are skipped without a write, so the untouched pages of a
/// sparse mask never become resident.
void unpack_mask_into(std::span<const std::uint8_t> packed,
                      std::span<std::uint8_t> out) {
  const std::size_t count = out.size();
  std::size_t i = 0;
  for (; i + 64 <= count; i += 64) {
    std::uint64_t word;
    std::memcpy(&word, packed.data() + i / 8, sizeof(word));
    if (word != 0) spread_bits(packed.subspan(i / 8, 8), out.subspan(i, 64));
  }
  spread_bits(packed.subspan(i / 8), out.subspan(i));
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

std::vector<std::uint8_t> mask_blob(const AmrLevel& lv) {
  return lossless::compress(pack_mask(lv.mask.span()));
}

void write_level_record(ByteWriter& w, const LevelRecord& rec) {
  w.put_varint(rec.dims.nx);
  w.put_varint(rec.dims.ny);
  w.put_varint(rec.dims.nz);
  w.put_blob(rec.mask_blob);
}

std::vector<std::uint8_t> pack_mask(std::span<const std::uint8_t> mask) {
  // Bits LSB-first: each group of 64 mask bytes is the bitmap the run
  // walk builds, stored as it is (little-endian) or byte by byte.
  std::vector<std::uint8_t> out((mask.size() + 7) / 8);
  for (std::size_t base = 0; base < mask.size(); base += 64) {
    const std::size_t len = std::min<std::size_t>(mask.size() - base, 64);
    std::uint64_t bits = detail::nonzero_bits(mask.data() + base, len);
    std::uint8_t* dst = out.data() + base / 8;
    if (std::endian::native == std::endian::little && len == 64) {
      std::memcpy(dst, &bits, sizeof(bits));
      continue;
    }
    for (std::size_t k = 0; k < (len + 7) / 8; ++k, bits >>= 8)
      dst[k] = static_cast<std::uint8_t>(bits);
  }
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

/// The packed mask of `rec`: its decompressed blob, checked to hold
/// ceil(volume/8) bytes before any level is allocated.
std::vector<std::uint8_t> record_mask(const LevelRecord& rec,
                                      std::size_t level,
                                      const char* context) {
  const std::size_t volume = rec.dims.volume();
  auto packed = lossless::decompress(rec.mask_blob);
  if (packed.size() < (volume + 7) / 8)
    throw std::runtime_error(
        std::string(context) + ": level " + std::to_string(level) +
        " mask holds " + std::to_string(packed.size()) + " bytes but its " +
        std::to_string(volume) + " cells need " +
        std::to_string((volume + 7) / 8));
  return packed;
}

/// A zero level of extents `dims` that will hold the mask `packed`, as
/// record_mask returns it, with huge pages hinted on the dense runs of
/// each array. The mask is not unpacked yet.
AmrLevel empty_level(Dims3 dims, std::span<const std::uint8_t> packed) {
  AmrLevel lv(dims);
  advise_dense_runs(lv.data, packed);
  advise_dense_runs(lv.mask, packed);
  return lv;
}

/// Set bits among the first `cells` bits of `packed` (LSB-first): the
/// valid cells of the mask it holds. Bits past `cells` do not count, as
/// unpack_mask_into ignores them.
std::size_t count_valid(std::span<const std::uint8_t> packed,
                        std::size_t cells) {
  std::size_t n = 0;
  std::size_t i = 0;
  for (; i + 64 <= cells; i += 64) {
    std::uint64_t word;
    std::memcpy(&word, packed.data() + i / 8, sizeof(word));
    // Without a popcount instruction in the baseline ISA, std::popcount
    // is a dozen instructions: an empty word, most of a sparse mask,
    // skips them.
    if (word != 0) n += static_cast<std::size_t>(std::popcount(word));
  }
  for (; i < cells; ++i) n += (packed[i / 8] >> (i % 8)) & 1u;
  return n;
}

/// The byte offset in a level's value blob of the first value of each
/// kMinElementsPerChunk-cell chunk of the `cells`-cell mask `packed`,
/// then the blob's whole length: 8 bytes per valid cell.
std::vector<std::size_t> chunk_value_offsets(
    std::span<const std::uint8_t> packed, std::size_t cells) {
  std::vector<std::size_t> first(ceil_div(cells, kMinElementsPerChunk) + 1);
  for (std::size_t c = 0; c + 1 < first.size(); ++c) {
    const std::size_t base = c * kMinElementsPerChunk;
    first[c + 1] = first[c] + sizeof(double) *
                                  count_valid(packed.subspan(base / 8),
                                              std::min(kMinElementsPerChunk,
                                                       cells - base));
  }
  return first;
}

/// Unpacks `packed` into `lv`'s zero mask and copies `values`, the valid
/// cells' doubles in raster order, straight into `lv.data`. The blob
/// starts at any byte offset, so values move as bytes. The level goes in
/// kMinElementsPerChunk-cell chunks, chunk c's values starting at
/// `first[c]` (chunk_value_offsets), which run in parallel once the
/// values fill two chunks.
void fill_level(AmrLevel& lv, std::span<const std::uint8_t> packed,
                std::span<const std::uint8_t> values,
                std::span<const std::size_t> first) {
  const std::size_t n = lv.mask.size();
  const auto fill_chunk = [&](std::size_t c) {
    // A chunk without values keeps its zero mask: a sparse level's empty
    // pages are never touched, not even read.
    if (first[c] == first[c + 1]) return;
    const std::size_t base = c * kMinElementsPerChunk;
    const auto mask = lv.mask.span().subspan(
        base, std::min(kMinElementsPerChunk, n - base));
    unpack_mask_into(packed.subspan(base / 8), mask);
    auto* d = reinterpret_cast<std::uint8_t*>(lv.data.data() + base);
    const std::uint8_t* src = values.data() + first[c];
    for_each_valid_run(mask, [&](std::size_t lo, std::size_t hi) {
      const std::size_t bytes = (hi - lo) * sizeof(double);
      std::memcpy(d + lo * sizeof(double), src, bytes);
      src += bytes;
    });
  };
  const std::size_t chunks = first.size() - 1;
  const bool wide =
      values.size() >= 2 * kMinElementsPerChunk * sizeof(double);
  parallel_for(0, chunks, fill_chunk, wide ? 1 : chunks);
}

/// An .amr file laid out before any value moves: the bytes ahead of level
/// 0, and per level its record and value blob length. Each level's values
/// follow its head.
struct FileLayout {
  std::vector<std::uint8_t> prefix;
  std::vector<std::vector<std::uint8_t>> heads;
  std::size_t size = 0;  ///< the whole file's bytes
};

FileLayout layout_file(const AmrDataset& ds) {
  FileLayout out;
  ByteWriter prefix;
  prefix.put<std::uint32_t>(kMagic);
  prefix.put<std::uint8_t>(kVersion);
  prefix.put_string(ds.field_name());
  prefix.put_varint(static_cast<std::uint64_t>(ds.refinement_ratio()));
  prefix.put_varint(ds.num_levels());
  out.prefix = prefix.take();
  out.size = out.prefix.size();
  for (const AmrLevel& lv : ds.levels()) {
    const auto packed = pack_mask(lv.mask.span());
    const std::size_t values = count_valid(packed, lv.mask.size());
    ByteWriter head;
    write_level_record(head,
                       LevelRecord{lv.dims(), lossless::compress(packed)});
    head.put_varint(values * sizeof(double));
    out.size += head.size() + values * sizeof(double);
    out.heads.push_back(head.take());
  }
  return out;
}

/// Hands the bytes of `ds`'s file, laid out by layout_file, to
/// `sink(data, size)` in file order: each level's values go straight from
/// its valid runs, one call per run.
template <class Sink>
void emit_file(const AmrDataset& ds, const FileLayout& layout, Sink&& sink) {
  sink(layout.prefix.data(), layout.prefix.size());
  for (std::size_t l = 0; l < ds.num_levels(); ++l) {
    const auto& head = layout.heads[l];
    sink(head.data(), head.size());
    const double* d = ds.level(l).data.data();
    for_each_valid_run(ds.level(l).mask.span(),
                       [&](std::size_t lo, std::size_t hi) {
                         sink(reinterpret_cast<const std::uint8_t*>(d + lo),
                              (hi - lo) * sizeof(double));
                       });
  }
}
}  // namespace

AmrLevel level_from_record(const LevelRecord& rec, std::size_t level,
                           const char* context) {
  const auto packed = record_mask(rec, level, context);
  AmrLevel lv = empty_level(rec.dims, packed);
  unpack_mask_into(packed, lv.mask.span());
  return lv;
}

std::vector<std::uint8_t> dataset_to_bytes(const AmrDataset& ds) {
  const FileLayout layout = layout_file(ds);
  std::vector<std::uint8_t> out;
  out.reserve(layout.size);
  emit_file(ds, layout, [&](const std::uint8_t* p, std::size_t n) {
    out.insert(out.end(), p, p + n);
  });
  return out;
}

AmrDataset dataset_from_bytes(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  if (r.get<std::uint32_t>() != kMagic)
    throw std::runtime_error("amr_io: bad magic");
  if (r.get<std::uint8_t>() != kVersion)
    throw std::runtime_error("amr_io: unsupported version");
  const std::string name = r.get_string();
  // .amr files carry no checksum: the ratio is checked against each
  // level's extents before the level is built.
  const int ratio = checked_ratio(r.get_varint(), "amr_io");
  const std::size_t nlevels =
      r.get_count("amr_io: level count", kMinLevelBytes);
  std::vector<AmrLevel> levels;
  levels.reserve(nlevels);
  for (std::size_t l = 0; l < nlevels; ++l) {
    const LevelRecord rec = read_level_record(r, l, "amr_io");
    if (l > 0)
      check_level_extents(levels.back().dims(), rec.dims, ratio, l, "amr_io");
    const auto packed = record_mask(rec, l, "amr_io");
    // The values must fill the mask's valid cells exactly, checked before
    // the level is allocated.
    const auto value_bytes = r.get_blob();
    const std::string at = "amr_io: level " + std::to_string(l);
    if (value_bytes.size() % sizeof(double) != 0)
      throw std::runtime_error(at + " value blob of " +
                               std::to_string(value_bytes.size()) +
                               " bytes is no whole number of values");
    const std::size_t values = value_bytes.size() / sizeof(double);
    const auto first = chunk_value_offsets(packed, rec.dims.volume());
    const std::size_t valid = first.back() / sizeof(double);
    if (values != valid)
      throw std::runtime_error(at + " has too " +
                               (values < valid ? "few" : "many") +
                               " values: " + std::to_string(values) +
                               " for " + std::to_string(valid) +
                               " valid cells");
    AmrLevel lv = empty_level(rec.dims, packed);
    fill_level(lv, packed, value_bytes, first);
    levels.push_back(std::move(lv));
  }
  return AmrDataset(name, std::move(levels), ratio);
}

namespace {
/// Largest read or write issued at once: bounded syscall sizes.
constexpr std::size_t kIoChunk = std::size_t{1} << 20;  // 1 MiB

/// Opens `path` for reading and returns its size. Throws IoError when the
/// file cannot be opened or sized (a directory cannot).
std::size_t open_sized(const std::string& path, std::ifstream& f) {
  f.open(path, std::ios::binary);
  if (!f) throw IoError("cannot open " + path);
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) throw IoError("cannot size " + path + ": " + ec.message());
  return static_cast<std::size_t>(size);
}

/// Fills `out` from `f` in kIoChunk reads. Throws IoError when the file
/// ends first.
void read_chunks(std::ifstream& f, const std::string& path,
                 std::span<std::uint8_t> out) {
  for (std::size_t pos = 0; pos < out.size(); pos += kIoChunk) {
    const std::size_t n = std::min(kIoChunk, out.size() - pos);
    f.read(reinterpret_cast<char*>(out.data() + pos),
           static_cast<std::streamsize>(n));
    if (static_cast<std::size_t>(f.gcount()) != n)
      throw IoError("read failed: " + path);
  }
}

/// Writes `bytes` to `f` in kIoChunk writes. Throws IoError on a failed
/// write.
void write_chunks(std::ofstream& f, const std::string& path,
                  std::span<const std::uint8_t> bytes) {
  for (std::size_t pos = 0; pos < bytes.size(); pos += kIoChunk) {
    const std::size_t n = std::min(kIoChunk, bytes.size() - pos);
    f.write(reinterpret_cast<const char*>(bytes.data() + pos),
            static_cast<std::streamsize>(n));
    if (!f) throw IoError("write failed: " + path);
  }
}

std::ofstream open_for_write(const std::string& path) {
  std::ofstream f(path, std::ios::binary);
  if (!f) throw IoError("cannot open " + path);
  return f;
}

void finish_write(std::ofstream& f, const std::string& path) {
  f.flush();
  if (!f) throw IoError("write failed: " + path);
}
}  // namespace

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream f;
  std::vector<std::uint8_t> bytes(open_sized(path, f));
  read_chunks(f, path, bytes);
  return bytes;
}

void write_file(const std::string& path,
                std::span<const std::uint8_t> bytes) {
  std::ofstream f = open_for_write(path);
  write_chunks(f, path, bytes);
  finish_write(f, path);
}

void save_dataset(const std::string& path, const AmrDataset& ds) {
  const FileLayout layout = layout_file(ds);
  std::ofstream f = open_for_write(path);
  // Runs collect in one kIoChunk buffer, written whenever the next run
  // would overflow it; a run of a chunk or more is written from the level.
  const auto buf = std::make_unique_for_overwrite<std::uint8_t[]>(kIoChunk);
  std::size_t fill = 0;
  const auto flush = [&] {
    write_chunks(f, path, {buf.get(), fill});
    fill = 0;
  };
  emit_file(ds, layout, [&](const std::uint8_t* p, std::size_t n) {
    if (n > kIoChunk - fill) flush();
    if (n >= kIoChunk) {
      write_chunks(f, path, {p, n});
      return;
    }
    std::memcpy(buf.get() + fill, p, n);
    fill += n;
  });
  flush();
  finish_write(f, path);
}

AmrDataset load_dataset(const std::string& path) {
  // The read fills every byte of the buffer, so nothing zeroes it first.
  std::ifstream f;
  auto bytes =
      Array3D<std::uint8_t>::for_overwrite({open_sized(path, f), 1, 1});
  read_chunks(f, path, bytes.span());
  return dataset_from_bytes(bytes.span());
}

}  // namespace tac::amr
