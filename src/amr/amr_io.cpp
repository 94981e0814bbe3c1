#include "amr/amr_io.hpp"

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

// A level record is three dims varints plus two length-prefixed blobs
// (mask, values): at least five bytes.
constexpr std::size_t kMinLevelBytes = 5;

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

Dims3 read_level_dims(ByteReader& r, std::size_t level, const char* context) {
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
  return {static_cast<std::size_t>(nx), static_cast<std::size_t>(ny),
          static_cast<std::size_t>(nz)};
}

std::vector<std::uint8_t> pack_mask(std::span<const std::uint8_t> mask) {
  std::vector<std::uint8_t> out((mask.size() + 7) / 8, 0);
  std::size_t i = 0;
  if constexpr (std::endian::native == std::endian::little) {
    // Eight mask bytes at a time: collapse each byte to its "nonzero"
    // bit, then gather the eight indicator bits (LSB-first, matching the
    // scalar loop) with one multiply. Bit-identical to the byte loop.
    constexpr std::uint64_t kLow7 = 0x7f7f7f7f7f7f7f7fULL;
    constexpr std::uint64_t kOnes = 0x0101010101010101ULL;
    constexpr std::uint64_t kGather = 0x0102040810204080ULL;
    const auto pack_word = [&](std::size_t k) {
      std::uint64_t v;
      std::memcpy(&v, mask.data() + k, 8);
      const std::uint64_t nonzero = (((v & kLow7) + kLow7) | v) >> 7 & kOnes;
      out[k / 8] = static_cast<std::uint8_t>((nonzero * kGather) >> 56);
    };
    // `out` starts zeroed, so an all-empty chunk (most of a sparse level)
    // costs its four word loads and no write.
    for (; i + kMaskChunk <= mask.size(); i += kMaskChunk) {
      if (mask_chunk_empty(mask.data() + i)) continue;
      for (std::size_t k = i; k < i + kMaskChunk; k += 8) pack_word(k);
    }
    for (; i + 8 <= mask.size(); i += 8) pack_word(i);
  }
  for (; i < mask.size(); ++i)
    if (mask[i]) out[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
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

std::vector<std::uint8_t> dataset_to_bytes(const AmrDataset& ds) {
  ByteWriter w;
  w.put<std::uint32_t>(kMagic);
  w.put<std::uint8_t>(kVersion);
  w.put_string(ds.field_name());
  w.put_varint(static_cast<std::uint64_t>(ds.refinement_ratio()));
  w.put_varint(ds.num_levels());
  for (std::size_t l = 0; l < ds.num_levels(); ++l) {
    const AmrLevel& lv = ds.level(l);
    w.put_varint(lv.dims().nx);
    w.put_varint(lv.dims().ny);
    w.put_varint(lv.dims().nz);
    const auto packed = pack_mask(lv.mask.span());
    w.put_blob(lossless::compress(packed));
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
    const Dims3 d = read_level_dims(r, l, "amr_io");
    const auto packed = lossless::decompress(r.get_blob());
    if (packed.size() < (d.volume() + 7) / 8)
      throw std::runtime_error("amr_io: truncated mask");
    AmrLevel lv(d);
    unpack_mask_into(packed, lv.mask.span());
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
