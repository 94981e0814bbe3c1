#include "lossless/lzss.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "common/arena.hpp"
#include "common/bitio.hpp"
#include "common/bytes.hpp"

namespace tac::lossless {
namespace {

constexpr std::size_t kWindow = 1u << 16;
constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxMatch = kMinMatch + 255;  // length-4 fits a byte
constexpr std::size_t kHashBits = 16;
constexpr std::size_t kHashSize = 1u << kHashBits;

std::uint32_t hash4(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

/// Hash-head table that survives across calls on the same thread. Entries
/// are generation-stamped: bumping `gen` invalidates every slot in O(1),
/// so a tiny input no longer pays a 512 KB clear — the dominant cost when
/// the level pipeline compresses thousands of small group streams.
/// Positions occupy the low 40 bits (1 TB inputs), the generation the
/// high 24.
struct MatchTable {
  static constexpr unsigned kPosBits = 40;
  static constexpr std::uint64_t kPosMask =
      (std::uint64_t{1} << kPosBits) - 1;

  std::vector<std::uint64_t> head = std::vector<std::uint64_t>(kHashSize, 0);
  std::uint64_t gen = 0;

  void next_generation() {
    if (++gen >= (std::uint64_t{1} << (64 - kPosBits))) {
      std::fill(head.begin(), head.end(), 0);
      gen = 1;
    }
  }
  [[nodiscard]] std::uint64_t tag(std::size_t pos) const {
    return (gen << kPosBits) | pos;
  }
  [[nodiscard]] bool valid(std::uint64_t entry) const {
    return (entry >> kPosBits) == gen;
  }

  static MatchTable& local() {
    thread_local MatchTable t;
    return t;
  }
};

/// Common match length of input[a..] and input[b..], capped at `limit`,
/// comparing 8 bytes per step. Identical result to the byte loop.
std::size_t match_length(const std::uint8_t* input, std::size_t a,
                         std::size_t b, std::size_t limit) {
  std::size_t len = 0;
  while (len + 8 <= limit) {
    std::uint64_t x;
    std::uint64_t y;
    std::memcpy(&x, input + a + len, 8);
    std::memcpy(&y, input + b + len, 8);
    const std::uint64_t diff = x ^ y;
    if (diff != 0) {
      if constexpr (std::endian::native == std::endian::little)
        return len + static_cast<std::size_t>(std::countr_zero(diff)) / 8;
      else
        return len + static_cast<std::size_t>(std::countl_zero(diff)) / 8;
    }
    len += 8;
  }
  while (len < limit && input[a + len] == input[b + len]) ++len;
  return len;
}

}  // namespace

std::vector<std::uint8_t> lzss_compress(std::span<const std::uint8_t> input,
                                        const LzssConfig& cfg) {
  ByteWriter header;
  header.put_varint(input.size());

  BitWriter bw;
  const std::size_t n = input.size();
  MatchTable& mt = MatchTable::local();
  mt.next_generation();
  ArenaScope scratch;
  // prev[] entries are only read after being written this call (chains
  // reach only generation-tagged positions), so no clearing is needed.
  const auto prev = scratch.alloc<std::uint64_t>(n);

  std::size_t pos = 0;
  while (pos < n) {
    std::size_t best_len = 0;
    std::size_t best_off = 0;
    if (pos + kMinMatch <= n) {
      const std::uint32_t h = hash4(input.data() + pos);
      std::uint64_t entry = mt.head[h];
      unsigned walked = 0;
      const std::size_t limit = std::min(kMaxMatch, n - pos);
      while (mt.valid(entry) && walked < cfg.max_chain) {
        const auto c = static_cast<std::size_t>(entry & MatchTable::kPosMask);
        if (pos - c > kWindow) break;
        const std::size_t len = match_length(input.data(), c, pos, limit);
        if (len > best_len) {
          best_len = len;
          best_off = pos - c;
          if (len == limit) break;
        }
        entry = prev[c];
        ++walked;
      }
    }

    if (best_len >= kMinMatch) {
      bw.write_bit(true);
      bw.write(best_off - 1, 16);
      bw.write(best_len - kMinMatch, 8);
      // Insert all covered positions into the chains so future matches can
      // start inside this match (vital for run-like data).
      const std::size_t end = pos + best_len;
      while (pos < end) {
        if (pos + kMinMatch <= n) {
          const std::uint32_t h = hash4(input.data() + pos);
          prev[pos] = mt.head[h];
          mt.head[h] = mt.tag(pos);
        }
        ++pos;
      }
    } else {
      bw.write_bit(false);
      bw.write(input[pos], 8);
      if (pos + kMinMatch <= n) {
        const std::uint32_t h = hash4(input.data() + pos);
        prev[pos] = mt.head[h];
        mt.head[h] = mt.tag(pos);
      }
      ++pos;
    }
  }

  auto out = header.take();
  const auto payload = bw.finish();
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

namespace {

// --- LZSS v2 (fast profile) -------------------------------------------
//
// The v1 encoder above is frozen: golden containers depend on its exact
// output bytes. Everything below is the fast-profile twin — shared hash
// chains, different stream format and search policy.

constexpr std::size_t kSkipTrigger = 6;  ///< skip step doubles every 64 misses
constexpr std::size_t kLazyCutoff = 64;  ///< lazy-probe only modest matches
constexpr std::size_t kDenseInsert = 128;  ///< chain-insert cap inside a match
constexpr std::size_t kGoodEnough = 128;   ///< stop the chain walk here

void put_ext(std::vector<std::uint8_t>& out, std::size_t v) {
  while (v >= 255) {
    out.push_back(255);
    v -= 255;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

}  // namespace

std::vector<std::uint8_t> lzss2_compress(std::span<const std::uint8_t> input,
                                         const LzssConfig& cfg) {
  const std::size_t n = input.size();
  const std::uint8_t* const in = input.data();

  ByteWriter header;
  header.put_varint(n);
  auto out = header.take();
  out.reserve(out.size() + n / 2 + 16);

  MatchTable& mt = MatchTable::local();
  mt.next_generation();
  ArenaScope scratch;
  const auto prev = scratch.alloc<std::uint64_t>(n);

  const auto insert = [&](std::size_t p) {
    const std::uint32_t h = hash4(in + p);
    prev[p] = mt.head[h];
    mt.head[h] = mt.tag(p);
  };
  // Best chain match at `p` (length 0 when none reaches kMinMatch).
  const auto find = [&](std::size_t p, std::size_t& off) -> std::size_t {
    std::size_t best_len = 0;
    const std::size_t limit = n - p;  // match lengths are unbounded in v2
    std::uint64_t entry = mt.head[hash4(in + p)];
    unsigned walked = 0;
    while (mt.valid(entry) && walked < cfg.max_chain) {
      const auto c = static_cast<std::size_t>(entry & MatchTable::kPosMask);
      if (p - c > kWindow) break;
      // One-byte probe at the current best length: a candidate that can't
      // beat best_len differs there, so most losers cost one compare
      // instead of a full match_length scan. (best_len < limit here —
      // len == limit broke out of the walk below.)
      if (in[c + best_len] == in[p + best_len]) {
        const std::size_t len = match_length(in, c, p, limit);
        if (len > best_len) {
          best_len = len;
          off = p - c;
          // Deep runs put hundreds of near-identical candidates on one
          // chain; once the match is long enough that the token cost is
          // negligible, walking on trades real time for ~nothing.
          if (len == limit || len >= kGoodEnough) break;
        }
      }
      entry = prev[c];
      ++walked;
    }
    return best_len >= kMinMatch ? best_len : 0;
  };
  const auto emit = [&](std::size_t lit_start, std::size_t lit_end,
                        std::size_t mlen, std::size_t off) {
    const std::size_t lits = lit_end - lit_start;
    const std::size_t ln = std::min<std::size_t>(lits, 15);
    const std::size_t mn =
        mlen == 0 ? 0 : std::min<std::size_t>(mlen - kMinMatch, 15);
    out.push_back(static_cast<std::uint8_t>((ln << 4) | mn));
    if (ln == 15) put_ext(out, lits - 15);
    out.insert(out.end(), in + lit_start, in + lit_end);
    if (mlen != 0) {
      const std::size_t o = off - 1;
      out.push_back(static_cast<std::uint8_t>(o & 0xff));
      out.push_back(static_cast<std::uint8_t>(o >> 8));
      if (mn == 15) put_ext(out, mlen - kMinMatch - 15);
    }
  };

  std::size_t pos = 0;
  std::size_t lit_start = 0;
  std::size_t acc = std::size_t{1} << kSkipTrigger;
  while (pos + kMinMatch <= n) {
    std::size_t off = 0;
    std::size_t len = find(pos, off);
    insert(pos);
    if (len == 0) {
      // Greedy skip: every 2^kSkipTrigger consecutive misses widen the
      // probe stride, so incompressible data costs ~O(n / stride) probes.
      pos += acc++ >> kSkipTrigger;
      continue;
    }
    acc = std::size_t{1} << kSkipTrigger;
    // One-step lazy: a strictly longer match starting one byte later wins;
    // the displaced byte joins the pending literal run.
    if (len < kLazyCutoff && pos + 1 + kMinMatch <= n) {
      std::size_t off1 = 0;
      const std::size_t len1 = find(pos + 1, off1);
      if (len1 > len) {
        insert(pos + 1);
        ++pos;
        len = len1;
        off = off1;
      }
    }
    emit(lit_start, pos, len, off);
    const std::size_t end = pos + len;
    // Index positions inside the match so later matches can start there;
    // cap the work for very long matches (the tail keeps chains alive
    // across the boundary).
    const std::size_t dense_end = std::min(end, pos + 1 + kDenseInsert);
    for (std::size_t p = pos + 1; p < dense_end && p + kMinMatch <= n; ++p)
      insert(p);
    if (end > dense_end)
      for (std::size_t p = std::max(dense_end, end - 3);
           p < end && p + kMinMatch <= n; ++p)
        insert(p);
    pos = end;
    lit_start = end;
  }
  emit(lit_start, n, 0, 0);
  return out;
}

std::vector<std::uint8_t> lzss2_decompress(
    std::span<const std::uint8_t> compressed) {
  ByteReader r(compressed);
  const auto n = static_cast<std::size_t>(r.get_varint());
  const auto payload = r.get_bytes(r.remaining());
  const std::uint8_t* p = payload.data();
  const std::uint8_t* const pe = p + payload.size();

  // A byte expands to at most 255 output bytes (one match-length
  // extension byte); literal bytes and the 3-byte minimum match token
  // yield less. Reject a larger declared size before allocating it.
  if (n > 255 * payload.size())
    throw std::runtime_error("lzss2: declared size exceeds the payload");
  std::vector<std::uint8_t> out(n);
  std::size_t w = 0;
  const auto need = [&](std::size_t k) {
    if (static_cast<std::size_t>(pe - p) < k)
      throw std::runtime_error("lzss2: truncated stream");
  };
  const auto read_ext = [&]() {
    std::size_t v = 0;
    std::uint8_t b;
    do {
      need(1);
      b = *p++;
      v += b;
    } while (b == 255);
    return v;
  };
  while (w < n) {
    need(1);
    const std::uint8_t token = *p++;
    std::size_t lits = token >> 4;
    if (lits == 15) lits += read_ext();
    need(lits);
    if (lits > n - w) throw std::runtime_error("lzss2: size mismatch");
    std::memcpy(out.data() + w, p, lits);
    p += lits;
    w += lits;
    if (w == n) break;  // final token carries literals only
    need(2);
    const std::size_t off =
        (static_cast<std::size_t>(p[0]) |
         (static_cast<std::size_t>(p[1]) << 8)) +
        1;
    p += 2;
    std::size_t len = token & 0xf;
    if (len == 15) len += read_ext();
    len += kMinMatch;
    if (off > w)
      throw std::runtime_error("lzss2: match offset before stream start");
    if (len > n - w) throw std::runtime_error("lzss2: size mismatch");
    const std::size_t src = w - off;
    if (off >= len) {
      std::memcpy(out.data() + w, out.data() + src, len);
    } else if (off == 1) {
      std::memset(out.data() + w, out[src], len);
    } else {
      for (std::size_t i = 0; i < len; ++i) out[w + i] = out[src + i];
    }
    w += len;
  }
  return out;
}

std::vector<std::uint8_t> lzss_decompress(
    std::span<const std::uint8_t> compressed) {
  ByteReader r(compressed);
  const std::uint64_t n = r.get_varint();
  const auto payload = r.get_bytes(r.remaining());

  // A 25-bit match token yields at most kMaxMatch bytes and a 9-bit
  // literal token one. Reject a larger declared size before allocating it.
  const std::uint64_t bits = static_cast<std::uint64_t>(payload.size()) * 8;
  if (n > bits / 25 * kMaxMatch + bits % 25 / 9)
    throw std::runtime_error("lzss: declared size exceeds the payload");
  std::vector<std::uint8_t> out(static_cast<std::size_t>(n));
  std::size_t w = 0;
  BitReader br(payload);
  while (w < n) {
    if (br.read_bit()) {
      const std::size_t off = static_cast<std::size_t>(br.read(16)) + 1;
      std::size_t len = static_cast<std::size_t>(br.read(8)) + kMinMatch;
      if (off > w)
        throw std::runtime_error("lzss: match offset before stream start");
      if (len > n - w) throw std::runtime_error("lzss: size mismatch");
      const std::size_t src = w - off;
      if (off >= len) {
        std::memcpy(out.data() + w, out.data() + src, len);
        w += len;
      } else {
        // Overlapping match: replicate byte by byte.
        for (std::size_t i = 0; i < len; ++i) out[w + i] = out[src + i];
        w += len;
      }
    } else {
      out[w++] = static_cast<std::uint8_t>(br.read(8));
    }
  }
  return out;
}

}  // namespace tac::lossless
