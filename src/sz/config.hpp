#ifndef TAC_SZ_CONFIG_HPP
#define TAC_SZ_CONFIG_HPP

/// \file config.hpp
/// \brief User-facing configuration of the SZ-style compressor.

#include <cstddef>
#include <cstdint>

namespace tac::sz {

/// How the error bound parameter is interpreted.
enum class ErrorBoundMode : std::uint8_t {
  kAbsolute = 0,  ///< |orig - decompressed| <= error_bound
  kRelative = 1,  ///< |orig - decompressed| <= error_bound * value_range
  /// |orig - decompressed| <= error_bound * |orig| for every point,
  /// via the logarithmic transform of Liang et al. (CLUSTER'18) — the
  /// scheme the paper's SZ substrate uses for point-wise relative
  /// bounds. Zeros and non-finite values round-trip exactly. Suited to
  /// fields spanning many decades (lognormal cosmology densities).
  kPointwiseRelative = 2,
};

/// Prediction scheme (SZ generations).
enum class Predictor : std::uint8_t {
  /// Global order-1 Lorenzo (SZ 1.4).
  kLorenzo = 0,
  /// SZ 2.x-style: the array is tiled into small prediction blocks and
  /// each picks Lorenzo or a least-squares plane fit (regression), chosen
  /// by the smaller estimated residual. Regression blocks store four
  /// float coefficients and do not depend on neighbouring values.
  kHybrid = 1,
};

struct SzConfig {
  ErrorBoundMode mode = ErrorBoundMode::kAbsolute;
  /// Absolute bound, or fraction of the (finite) value range in kRelative
  /// mode. Must be > 0 in kAbsolute mode.
  double error_bound = 1e-3;
  /// Quantization codes span [1, 2*quant_radius - 1]; code 0 marks an
  /// unpredictable value stored exactly. 2^15 matches SZ's default 2^16
  /// interval capacity.
  std::uint32_t quant_radius = 1u << 15;
  Predictor predictor = Predictor::kLorenzo;
  /// Side of the prediction tiles in kHybrid mode (SZ2 uses 6).
  std::size_t pred_block = 6;
};

}  // namespace tac::sz

#endif  // TAC_SZ_CONFIG_HPP
