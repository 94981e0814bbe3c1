#ifndef TAC_SZ_QUANTIZER_HPP
#define TAC_SZ_QUANTIZER_HPP

/// \file quantizer.hpp
/// \brief Error-controlled linear quantizer (SZ step 2).
///
/// The prediction residual is quantized to bins of width 2*eb; the
/// reconstructed value pred + 2*eb*q is then guaranteed within eb of the
/// original. Values whose residual does not fit the code range — or whose
/// reconstruction fails the bound check due to floating-point rounding —
/// are emitted as code 0 ("unpredictable") and stored exactly.

#include <cmath>
#include <cstdint>

namespace tac::sz {

struct QuantResult {
  std::uint32_t code = 0;   ///< 0 = outlier; otherwise q + radius
  double reconstructed = 0; ///< value the decompressor will produce
  bool outlier = false;
};

/// Quantizes `value` against `predicted`. `eb` must be > 0 and finite.
/// always_inline: the prediction walk in sz.cpp calls it once per
/// wavefront lane. Past GCC's inline growth limit those calls went out of
/// line, returning the result through memory on the loop-carried chain.
[[nodiscard, gnu::always_inline]] inline QuantResult quantize(
    double value, double predicted, double eb, std::uint32_t radius) {
  QuantResult r;
  if (!std::isfinite(value) || !std::isfinite(predicted)) {
    r.outlier = true;
    r.reconstructed = value;
    return r;
  }
  const double diff = value - predicted;
  const double q = std::nearbyint(diff / (2.0 * eb));
  if (std::fabs(q) < static_cast<double>(radius)) {
    const auto qi = static_cast<std::int64_t>(q);
    const double recon = predicted + 2.0 * eb * static_cast<double>(qi);
    if (std::fabs(recon - value) <= eb) {
      r.code = static_cast<std::uint32_t>(qi + static_cast<std::int64_t>(radius));
      r.reconstructed = recon;
      return r;
    }
  }
  r.outlier = true;
  r.reconstructed = value;
  return r;
}

/// Inverse mapping used by the decompressor for non-outlier codes.
[[nodiscard]] inline double dequantize(std::uint32_t code, double predicted,
                                       double eb, std::uint32_t radius) {
  const auto q = static_cast<std::int64_t>(code) -
                 static_cast<std::int64_t>(radius);
  return predicted + 2.0 * eb * static_cast<double>(q);
}

}  // namespace tac::sz

#endif  // TAC_SZ_QUANTIZER_HPP
