// Private to src/blas: the overflow-safe scaled sum of squares (LAPACK
// dlassq) behind lange(Norm::Fro) and the relative residual oracles.
#pragma once

#include <cmath>

namespace ftla::blas::detail {

/// Accumulates sqrt(sum x^2) as scale * sqrt(ssq) with scale the largest
/// |x| seen, so no square overflows or underflows. A NaN input poisons
/// the result; an infinite one makes it Inf or NaN.
struct ScaledSsq {
  double scale = 0.0;
  double ssq = 1.0;

  void add(double x) {
    const double ax = std::abs(x);
    if (ax == 0.0) return;
    if (scale < ax) {
      const double q = scale / ax;
      ssq = 1.0 + ssq * q * q;
      scale = ax;
    } else {
      const double q = ax / scale;
      ssq += q * q;
    }
  }

  [[nodiscard]] double norm() const { return scale * std::sqrt(ssq); }
};

}  // namespace ftla::blas::detail
