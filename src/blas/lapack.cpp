#include "blas/lapack.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define FTLA_BLAS_X86 1
#endif

#include "blas/level1.hpp"
#include "blas/level3.hpp"
#include "blas/scaled_ssq.hpp"
#include "common/error.hpp"

namespace ftla::blas {

namespace {

// The max fold of LAPACK dlange: a NaN operand wins and then sticks, so
// a NaN entry cannot hide behind a finite maximum (std::max drops it).
double nan_max(double v, double x) {
  return v < x || std::isnan(x) ? x : v;
}

/// w[0:len) += x[0:len) * s, the residual oracles' column update. Each
/// element is one rounded multiply and one rounded add, so the AVX2
/// twin below, which only widens the loop, gives the same bits.
void column_update(int len, double s, const double* x, double* w) {
  for (int r = 0; r < len; ++r) w[r] += x[r] * s;
}

#ifdef FTLA_BLAS_X86
__attribute__((target("avx2"))) void column_update_avx2(int len, double s,
                                                        const double* x,
                                                        double* w) {
  const __m256d sv = _mm256_set1_pd(s);
  int r = 0;
  for (; r + 4 <= len; r += 4) {
    const __m256d xr = _mm256_loadu_pd(x + r);
    const __m256d wr = _mm256_loadu_pd(w + r);
    _mm256_storeu_pd(w + r, _mm256_add_pd(wr, _mm256_mul_pd(xr, sv)));
  }
  for (; r < len; ++r) w[r] += x[r] * s;
}
#endif

using ColumnUpdate = void (*)(int, double, const double*, double*);

ColumnUpdate column_update_kernel() {
#ifdef FTLA_BLAS_X86
  if (detail::cpu_has_avx2()) return column_update_avx2;
#endif
  return column_update;
}

}  // namespace

void potf2(MatrixView<double> a) {
  const int n = a.rows();
  FTLA_CHECK(a.cols() == n);
  for (int j = 0; j < n; ++j) {
    // a(j,j) -= dot(row j left of diagonal with itself)
    double d = a(j, j) - dot(j, &a(j, 0), a.ld(), &a(j, 0), a.ld());
    if (!(d > 0.0) || !std::isfinite(d)) {
      throw NotPositiveDefiniteError(j);
    }
    d = std::sqrt(d);
    a(j, j) = d;
    if (j + 1 < n) {
      // Column below the diagonal: a(j+1:, j) = (a(j+1:, j) - A21 * a(j,0:j)^T) / d
      gemm(Trans::No, Trans::Yes, -1.0, a.block(j + 1, 0, n - j - 1, j),
           a.block(j, 0, 1, j), 1.0, a.block(j + 1, j, n - j - 1, 1));
      scal(n - j - 1, 1.0 / d, &a(j + 1, j), 1);
    }
  }
}

void potrf(MatrixView<double> a, int nb) {
  const int n = a.rows();
  FTLA_CHECK(a.cols() == n && nb > 0);
  for (int j = 0; j < n; j += nb) {
    const int jb = std::min(nb, n - j);
    // Update diagonal block with the panel to its left, factor it, then
    // update and solve the panel below (right-looking).
    syrk(Uplo::Lower, Trans::No, -1.0, a.block(j, 0, jb, j), 1.0,
         a.block(j, j, jb, jb));
    potf2(a.block(j, j, jb, jb));
    const int rem = n - j - jb;
    if (rem > 0) {
      gemm(Trans::No, Trans::Yes, -1.0, a.block(j + jb, 0, rem, j),
           a.block(j, 0, jb, j), 1.0, a.block(j + jb, j, rem, jb));
      trsm(Side::Right, Uplo::Lower, Trans::Yes, Diag::NonUnit, 1.0,
           a.block(j, j, jb, jb), a.block(j + jb, j, rem, jb));
    }
  }
}

void getf2_nopiv(MatrixView<double> a) {
  const int m = a.rows();
  const int n = a.cols();
  const int k = std::min(m, n);
  for (int j = 0; j < k; ++j) {
    const double p = a(j, j);
    if (p == 0.0 || !std::isfinite(p)) throw NotPositiveDefiniteError(j);
    if (j + 1 < m) {
      scal(m - j - 1, 1.0 / p, &a(j + 1, j), 1);
      if (j + 1 < n) {
        // Trailing rank-1 update: A22 -= l21 * u12^T.
        gemm(Trans::No, Trans::No, -1.0,
             a.block(j + 1, j, m - j - 1, 1), a.block(j, j + 1, 1, n - j - 1),
             1.0, a.block(j + 1, j + 1, m - j - 1, n - j - 1));
      }
    }
  }
}

void getrf_nopiv(MatrixView<double> a, int nb) {
  const int m = a.rows();
  const int n = a.cols();
  FTLA_CHECK(nb > 0);
  const int k = std::min(m, n);
  for (int j = 0; j < k; j += nb) {
    const int jb = std::min(nb, k - j);
    // Factor the panel, solve the U row block, update the trailing part.
    getf2_nopiv(a.block(j, j, m - j, jb));
    const int right = n - j - jb;
    const int below = m - j - jb;
    if (right > 0) {
      trsm(Side::Left, Uplo::Lower, Trans::No, Diag::Unit, 1.0,
           a.block(j, j, jb, jb), a.block(j, j + jb, jb, right));
      if (below > 0) {
        gemm(Trans::No, Trans::No, -1.0, a.block(j + jb, j, below, jb),
             a.block(j, j + jb, jb, right), 1.0,
             a.block(j + jb, j + jb, below, right));
      }
    }
  }
}

double lu_residual(ConstMatrixView<double> a_original,
                   ConstMatrixView<double> lu) {
  const int n = a_original.rows();
  FTLA_CHECK(a_original.cols() == n && lu.rows() == n && lu.cols() == n);
  // Column j of L U is sum_{k<j} L(k+1:n, k) U(k, j), plus U(0:j+1, j)
  // on and above the diagonal and L(j+1:n, j) U(j, j) below it (L is
  // unit-lower). Every inner loop walks a column; each entry sums its
  // products in the same k order as a row-times-column dot product.
  const ColumnUpdate update = column_update_kernel();
  std::vector<double> w(static_cast<std::size_t>(n));
  detail::ScaledSsq num;
  for (int j = 0; j < n; ++j) {
    std::fill(w.begin(), w.end(), 0.0);
    for (int k = 0; k < j; ++k) {
      update(n - k - 1, lu(k, j), &lu(k + 1, k), w.data() + k + 1);
    }
    const double* aj = &a_original(0, j);
    const double* uj = &lu(0, j);
    const double ujj = uj[j];
    for (int i = 0; i <= j; ++i) num.add(aj[i] - (w[i] + uj[i]));
    for (int i = j + 1; i < n; ++i) num.add(aj[i] - (w[i] + uj[i] * ujj));
  }
  const double den = lange(Norm::Fro, a_original);
  return den > 0.0 ? num.norm() / den : num.norm();
}

void potrs(ConstMatrixView<double> l, MatrixView<double> b) {
  FTLA_CHECK(l.rows() == l.cols() && l.rows() == b.rows());
  // A = L L^T, so x = L^{-T} (L^{-1} b).
  trsm(Side::Left, Uplo::Lower, Trans::No, Diag::NonUnit, 1.0, l, b);
  trsm(Side::Left, Uplo::Lower, Trans::Yes, Diag::NonUnit, 1.0, l, b);
}

double lange(Norm norm, ConstMatrixView<double> a) {
  const int m = a.rows();
  const int n = a.cols();
  switch (norm) {
    case Norm::Max: {
      double v = 0.0;
      for (int j = 0; j < n; ++j)
        for (int i = 0; i < m; ++i) v = nan_max(v, std::abs(a(i, j)));
      return v;
    }
    case Norm::One: {
      double v = 0.0;
      for (int j = 0; j < n; ++j) {
        double col = 0.0;
        for (int i = 0; i < m; ++i) col += std::abs(a(i, j));
        v = nan_max(v, col);
      }
      return v;
    }
    case Norm::Inf: {
      std::vector<double> row(static_cast<std::size_t>(m), 0.0);
      for (int j = 0; j < n; ++j)
        for (int i = 0; i < m; ++i) row[i] += std::abs(a(i, j));
      double v = 0.0;
      for (const double r : row) v = nan_max(v, r);
      return v;
    }
    case Norm::Fro: {
      detail::ScaledSsq f;
      for (int j = 0; j < n; ++j)
        for (int i = 0; i < m; ++i) f.add(a(i, j));
      return f.norm();
    }
  }
  return 0.0;
}

double cholesky_residual(ConstMatrixView<double> a_original,
                         ConstMatrixView<double> l) {
  const int n = a_original.rows();
  FTLA_CHECK(a_original.cols() == n && l.rows() == n && l.cols() == n);
  // Reconstruct the lower triangle of L L^T one column at a time:
  // (L L^T)(j:n, j) = sum_{k<=j} L(j:n, k) L(j, k). Every inner loop
  // walks a column of L, only the lower triangles are read, and each
  // entry sums its products in the same k order as a row-wise dot.
  const ColumnUpdate update = column_update_kernel();
  std::vector<double> w(static_cast<std::size_t>(n));
  detail::ScaledSsq num;
  for (int j = 0; j < n; ++j) {
    const int len = n - j;
    std::fill_n(w.begin(), len, 0.0);
    for (int k = 0; k <= j; ++k) update(len, l(j, k), &l(j, k), w.data());
    const double* aj = &a_original(j, j);
    for (int r = 0; r < len; ++r) num.add(aj[r] - w[r]);
  }
  const double den = lange(Norm::Fro, a_original);
  return den > 0.0 ? num.norm() / den : num.norm();
}

double max_abs_diff(ConstMatrixView<double> a, ConstMatrixView<double> b) {
  FTLA_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  double v = 0.0;
  for (int j = 0; j < a.cols(); ++j)
    for (int i = 0; i < a.rows(); ++i)
      v = nan_max(v, std::abs(a(i, j) - b(i, j)));
  return v;
}

}  // namespace ftla::blas
