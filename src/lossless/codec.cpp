#include "lossless/codec.hpp"

#include <stdexcept>
#include <string>

#include "common/bytes.hpp"
#include "common/telemetry.hpp"
#include "lossless/lzss.hpp"

namespace tac::lossless {
namespace {
enum class Method : std::uint8_t { kStored = 0, kLzss = 1, kLzss2 = 2 };

bool method_allowed(Method m, CodecProfile profile) {
  switch (profile) {
    case CodecProfile::kLegacy:
      return m == Method::kStored || m == Method::kLzss;
    case CodecProfile::kFast:
      return m == Method::kStored || m == Method::kLzss2;
  }
  return false;
}

std::vector<std::uint8_t> decode_method(Method method, ByteReader& r) {
  TAC_SPAN_NAMED(span, "lzss.decompress");
  TAC_COUNTER_ADD("lzss.bytes_in", r.remaining());
  std::vector<std::uint8_t> out;
  switch (method) {
    case Method::kLzss:
      out = lzss_decompress(r.get_bytes(r.remaining()));
      break;
    case Method::kLzss2:
      out = lzss2_decompress(r.get_bytes(r.remaining()));
      break;
    case Method::kStored: {
      const std::uint64_t n = r.get_varint();
      const auto bytes = r.get_bytes(static_cast<std::size_t>(n));
      out.assign(bytes.begin(), bytes.end());
      break;
    }
    default:
      throw std::runtime_error("lossless: unknown method byte");
  }
  span.set_bytes(out.size());
  TAC_COUNTER_ADD("lzss.bytes_out", out.size());
  return out;
}

}  // namespace

const char* to_string(CodecProfile p) {
  switch (p) {
    case CodecProfile::kLegacy:
      return "legacy";
    case CodecProfile::kFast:
      return "fast";
  }
  return "unknown";
}

std::vector<std::uint8_t> compress(std::span<const std::uint8_t> input) {
  TAC_SPAN_BYTES("lzss.compress", input.size());
  TAC_COUNTER_ADD("lzss.compress_bytes_in", input.size());
  const auto packed = lzss2_compress(input);
  ByteWriter w;
  if (packed.size() < input.size()) {
    w.put<std::uint8_t>(static_cast<std::uint8_t>(Method::kLzss2));
    w.put_bytes(packed);
  } else {
    w.put<std::uint8_t>(static_cast<std::uint8_t>(Method::kStored));
    w.put_varint(input.size());
    w.put_bytes(input);
  }
  auto out = w.take();
  TAC_COUNTER_ADD("lzss.compress_bytes_out", out.size());
  return out;
}

std::vector<std::uint8_t> decompress(
    std::span<const std::uint8_t> compressed) {
  ByteReader r(compressed);
  const auto method = static_cast<Method>(r.get<std::uint8_t>());
  return decode_method(method, r);
}

std::vector<std::uint8_t> decompress(std::span<const std::uint8_t> compressed,
                                     CodecProfile expected) {
  ByteReader r(compressed);
  const auto method = static_cast<Method>(r.get<std::uint8_t>());
  if (!method_allowed(method, expected))
    throw ProfileError(
        std::string("lossless: stream method byte ") +
        std::to_string(static_cast<int>(method)) +
        " does not belong to the declared codec profile \"" +
        to_string(expected) + "\"");
  return decode_method(method, r);
}

}  // namespace tac::lossless
