#include "blas/reference.hpp"

#include <algorithm>
#include <cmath>

#include "blas/lapack.hpp"
#include "blas/level3.hpp"
#include "blas/qr.hpp"
#include "common/error.hpp"

namespace ftla::blas::ref {

namespace {

double op_elem(Trans t, ConstMatrixView<double> a, int i, int j) {
  return t == Trans::No ? a(i, j) : a(j, i);
}

// Element (i, j) of the triangular operator op(A) including the implicit
// unit diagonal and implicit zeros outside the triangle.
double tri_elem(Uplo uplo, Trans trans, Diag diag, ConstMatrixView<double> a,
                int i, int j) {
  if (i == j) return diag == Diag::Unit ? 1.0 : a(i, i);
  int si = i, sj = j;  // index into storage
  if (trans == Trans::Yes) std::swap(si, sj);
  const bool in_triangle = uplo == Uplo::Lower ? si > sj : si < sj;
  return in_triangle ? a(si, sj) : 0.0;
}

}  // namespace

void gemm(Trans ta, Trans tb, double alpha, ConstMatrixView<double> a,
          ConstMatrixView<double> b, double beta, MatrixView<double> c) {
  const int m = c.rows();
  const int n = c.cols();
  const int k = ta == Trans::No ? a.cols() : a.rows();
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double s = 0.0;
      for (int l = 0; l < k; ++l) {
        s += op_elem(ta, a, i, l) * op_elem(tb, b, l, j);
      }
      c(i, j) = alpha * s + beta * c(i, j);
    }
  }
}

void syrk(Uplo uplo, Trans trans, double alpha, ConstMatrixView<double> a,
          double beta, MatrixView<double> c) {
  const int n = c.rows();
  const int k = trans == Trans::No ? a.cols() : a.rows();
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      const bool referenced = uplo == Uplo::Lower ? i >= j : i <= j;
      if (!referenced) continue;
      double s = 0.0;
      for (int l = 0; l < k; ++l) {
        s += op_elem(trans, a, i, l) * op_elem(trans, a, j, l);
      }
      c(i, j) = alpha * s + beta * c(i, j);
    }
  }
}

void trsm(Side side, Uplo uplo, Trans trans, Diag diag, double alpha,
          ConstMatrixView<double> a, MatrixView<double> b) {
  const int m = b.rows();
  const int n = b.cols();
  // Solve by explicit substitution on a dense copy of op(A).
  if (side == Side::Left) {
    ftla::Matrix<double> t(m, m);
    for (int i = 0; i < m; ++i)
      for (int j = 0; j < m; ++j) t(i, j) = tri_elem(uplo, trans, diag, a, i, j);
    const bool lower_acting =
        (uplo == Uplo::Lower) == (trans == Trans::No);
    for (int j = 0; j < n; ++j) {
      if (lower_acting) {
        for (int i = 0; i < m; ++i) {
          double s = alpha * b(i, j);
          for (int k = 0; k < i; ++k) s -= t(i, k) * b(k, j);
          b(i, j) = s / t(i, i);
        }
      } else {
        for (int i = m - 1; i >= 0; --i) {
          double s = alpha * b(i, j);
          for (int k = i + 1; k < m; ++k) s -= t(i, k) * b(k, j);
          b(i, j) = s / t(i, i);
        }
      }
    }
  } else {
    ftla::Matrix<double> t(n, n);
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j) t(i, j) = tri_elem(uplo, trans, diag, a, i, j);
    // X op(A) = alpha B, i.e. column k of X satisfies a column-ordered
    // substitution over op(A)'s columns.
    const bool lower_acting =
        (uplo == Uplo::Lower) == (trans == Trans::No);
    if (lower_acting) {
      // op(A) lower: X(:, j) uses columns j+1.. of X; go right to left.
      for (int j = n - 1; j >= 0; --j) {
        for (int i = 0; i < m; ++i) {
          double s = alpha * b(i, j);
          for (int k = j + 1; k < n; ++k) s -= b(i, k) * t(k, j);
          b(i, j) = s / t(j, j);
        }
      }
    } else {
      for (int j = 0; j < n; ++j) {
        for (int i = 0; i < m; ++i) {
          double s = alpha * b(i, j);
          for (int k = 0; k < j; ++k) s -= b(i, k) * t(k, j);
          b(i, j) = s / t(j, j);
        }
      }
    }
  }
}

void trmm(Side side, Uplo uplo, Trans trans, Diag diag, double alpha,
          ConstMatrixView<double> a, MatrixView<double> b) {
  const int m = b.rows();
  const int n = b.cols();
  ftla::Matrix<double> out(m, n);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double s = 0.0;
      if (side == Side::Left) {
        for (int k = 0; k < m; ++k) {
          s += tri_elem(uplo, trans, diag, a, i, k) * b(k, j);
        }
      } else {
        for (int k = 0; k < n; ++k) {
          s += b(i, k) * tri_elem(uplo, trans, diag, a, k, j);
        }
      }
      out(i, j) = alpha * s;
    }
  }
  ftla::copy(ftla::ConstMatrixView<double>(out.view()), b);
}

void gemv(Trans trans, double alpha, ConstMatrixView<double> a,
          const double* x, int incx, double beta, double* y, int incy) {
  const int m = trans == Trans::No ? a.rows() : a.cols();
  const int n = trans == Trans::No ? a.cols() : a.rows();
  for (int i = 0; i < m; ++i) {
    double s = 0.0;
    for (int j = 0; j < n; ++j) {
      s += (trans == Trans::No ? a(i, j) : a(j, i)) * x[j * incx];
    }
    y[i * incy] = alpha * s + beta * y[i * incy];
  }
}

void potrf(MatrixView<double> a) {
  const int n = a.rows();
  FTLA_CHECK(a.cols() == n);
  for (int j = 0; j < n; ++j) {
    double d = a(j, j);
    for (int k = 0; k < j; ++k) d -= a(j, k) * a(j, k);
    if (!(d > 0.0) || !std::isfinite(d)) throw NotPositiveDefiniteError(j);
    d = std::sqrt(d);
    a(j, j) = d;
    for (int i = j + 1; i < n; ++i) {
      double s = a(i, j);
      for (int k = 0; k < j; ++k) s -= a(i, k) * a(j, k);
      a(i, j) = s / d;
    }
  }
}

void larfb_left_t(ConstMatrixView<double> v, ConstMatrixView<double> t,
                  MatrixView<double> c) {
  const int m = c.rows();
  const int n = c.cols();
  const int k = v.cols();
  FTLA_CHECK(v.rows() == m && t.rows() == k && t.cols() == k && k <= m);
  if (n == 0 || k == 0) return;
  // W = V^T C (k x n), honoring the implicit unit diagonal of V.
  Matrix<double> w(k, n);
  for (int col = 0; col < n; ++col) {
    const double* cc = &c(0, col);
    for (int i = 0; i < k; ++i) {
      double s = cc[i];
      const double* vi = &v(0, i);
      for (int r = i + 1; r < m; ++r) s += vi[r] * cc[r];
      w(i, col) = s;
    }
  }
  // W := T^T W, with the production TRMM: only the two loops around it
  // are under test.
  blas::trmm(Side::Left, Uplo::Upper, Trans::Yes, Diag::NonUnit, 1.0, t,
             w.view());
  // C -= V W.
  for (int col = 0; col < n; ++col) {
    double* cc = &c(0, col);
    for (int i = 0; i < k; ++i) {
      const double s = w(i, col);
      if (s == 0.0) continue;
      cc[i] -= s;
      const double* vi = &v(0, i);
      for (int r = i + 1; r < m; ++r) cc[r] -= vi[r] * s;
    }
  }
}

double cholesky_residual(ConstMatrixView<double> a_original,
                         ConstMatrixView<double> l) {
  const int n = a_original.rows();
  FTLA_CHECK(a_original.cols() == n && l.rows() == n && l.cols() == n);
  // Reconstruct the lower triangle of L L^T and compare with A.
  double num_scale = 0.0, num_ssq = 1.0;
  for (int j = 0; j < n; ++j) {
    for (int i = j; i < n; ++i) {
      // (L L^T)(i,j) = dot(L(i, 0:min(i,j)), L(j, 0:min(i,j))); with
      // i >= j the shared prefix length is j+1.
      double s = 0.0;
      for (int k = 0; k <= j; ++k) s += l(i, k) * l(j, k);
      const double r = std::abs(a_original(i, j) - s);
      if (r != 0.0) {
        if (num_scale < r) {
          const double q = num_scale / r;
          num_ssq = 1.0 + num_ssq * q * q;
          num_scale = r;
        } else {
          const double q = r / num_scale;
          num_ssq += q * q;
        }
      }
    }
  }
  const double num = num_scale * std::sqrt(num_ssq);
  const double den = lange(Norm::Fro, a_original);
  return den > 0.0 ? num / den : num;
}

double lu_residual(ConstMatrixView<double> a_original,
                   ConstMatrixView<double> lu) {
  const int n = a_original.rows();
  FTLA_CHECK(a_original.cols() == n && lu.rows() == n && lu.cols() == n);
  double scale = 0.0, ssq = 1.0;
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      // (L U)(i,j) = sum_k L(i,k) U(k,j), k <= min(i, j); L unit-lower.
      const int kmax = std::min(i, j);
      double s = 0.0;
      for (int k = 0; k < kmax; ++k) s += lu(i, k) * lu(k, j);
      s += i <= j ? lu(i, j) : lu(i, j) * lu(j, j);
      const double r = std::abs(a_original(i, j) - s);
      if (r != 0.0) {
        if (scale < r) {
          const double q = scale / r;
          ssq = 1.0 + ssq * q * q;
          scale = r;
        } else {
          const double q = r / scale;
          ssq += q * q;
        }
      }
    }
  }
  const double num = scale * std::sqrt(ssq);
  const double den = lange(Norm::Fro, a_original);
  return den > 0.0 ? num / den : num;
}

double qr_residual(ConstMatrixView<double> a_original,
                   ConstMatrixView<double> packed, const double* tau) {
  const int n = a_original.rows();
  FTLA_CHECK(a_original.cols() == n && packed.rows() == n &&
             packed.cols() == n);
  // A_rec = Q [R] with R the upper triangle of the packed factor.
  Matrix<double> rec(n, n, 0.0);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i <= j; ++i) rec(i, j) = packed(i, j);
  }
  apply_q(packed, tau, rec.view(), /*transpose=*/false);
  double scale = 0.0, ssq = 1.0;
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      const double r = std::abs(a_original(i, j) - rec(i, j));
      if (r != 0.0) {
        if (scale < r) {
          const double q = scale / r;
          ssq = 1.0 + ssq * q * q;
          scale = r;
        } else {
          const double q = r / scale;
          ssq += q * q;
        }
      }
    }
  }
  const double num = scale * std::sqrt(ssq);
  const double den = lange(Norm::Fro, a_original);
  return den > 0.0 ? num / den : num;
}

}  // namespace ftla::blas::ref
