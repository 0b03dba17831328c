#include "blas/qr.hpp"

#include <algorithm>
#include <cmath>

#include "blas/level1.hpp"
#include "blas/level3.hpp"
#include "blas/lapack.hpp"
#include "blas/scaled_ssq.hpp"
#include "common/error.hpp"

namespace ftla::blas {

namespace {

// Generates one Householder reflector (LAPACK dlarfg): given alpha and
// x, produces v (overwriting x, v0 implicit 1) and tau so that
// H [alpha; x] = [beta; 0]. Returns beta; writes tau.
double larfg(double& alpha, double* x, int n, int incx, double* tau) {
  const double xnorm = nrm2(n, x, incx);
  if (xnorm == 0.0) {
    *tau = 0.0;
    return alpha;
  }
  double beta = std::hypot(alpha, xnorm);
  if (alpha > 0.0) beta = -beta;
  *tau = (beta - alpha) / beta;
  scal(n, 1.0 / (alpha - beta), x, incx);
  alpha = beta;
  return beta;
}

// Applies H = I - tau v v^T (v0 = 1 implicit, tail in `v`) to the
// columns of c from the left.
void apply_reflector(double tau, const double* v, int vlen,
                     MatrixView<double> c) {
  if (tau == 0.0) return;
  for (int col = 0; col < c.cols(); ++col) {
    double* cc = &c(0, col);
    double s = cc[0];
    for (int r = 0; r < vlen; ++r) s += v[r] * cc[1 + r];
    s *= tau;
    cc[0] -= s;
    for (int r = 0; r < vlen; ++r) cc[1 + r] -= v[r] * s;
  }
}

}  // namespace

void geqf2(MatrixView<double> a, double* tau) {
  const int m = a.rows();
  const int k = std::min(m, a.cols());
  for (int j = 0; j < k; ++j) {
    larfg(a(j, j), m > j + 1 ? &a(j + 1, j) : nullptr, m - j - 1, 1,
          &tau[j]);
    if (j + 1 < a.cols()) {
      const double ajj = a(j, j);
      a(j, j) = 1.0;  // temporarily expose the implicit v0
      apply_reflector(tau[j], m > j + 1 ? &a(j + 1, j) : nullptr,
                      m - j - 1, a.block(j, j + 1, m - j, a.cols() - j - 1));
      a(j, j) = ajj;
    }
  }
}

void larft(ConstMatrixView<double> v, const double* tau,
           MatrixView<double> t) {
  const int m = v.rows();
  const int k = v.cols();
  FTLA_CHECK(t.rows() == k && t.cols() == k);
  for (int j = 0; j < k; ++j) {
    for (int i = 0; i < j; ++i) t(j, i) = 0.0;  // keep T explicit upper
    if (tau[j] == 0.0) {
      for (int i = 0; i <= j; ++i) t(i, j) = 0.0;
      continue;
    }
    // w = V(:, 0:j)^T v_j with the packed format's implicit unit diag.
    for (int i = 0; i < j; ++i) {
      double s = v(j, i);  // V(j, i) * v_j(j), v_j(j) = 1
      for (int r = j + 1; r < m; ++r) s += v(r, i) * v(r, j);
      t(i, j) = -tau[j] * s;
    }
    // T(0:j, j) = T(0:j, 0:j) * t(0:j, j) (in place, upper triangular).
    for (int i = 0; i < j; ++i) {
      double s = 0.0;
      for (int l = i; l < j; ++l) s += t(i, l) * t(l, j);
      t(i, j) = s;
    }
    t(j, j) = tau[j];
  }
}

void larfb_left_t(ConstMatrixView<double> v, ConstMatrixView<double> t,
                  MatrixView<double> c) {
  const int m = c.rows();
  const int n = c.cols();
  const int k = v.cols();
  FTLA_CHECK(v.rows() == m && t.rows() == k && t.cols() == k);
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
  // W := T^T W.
  trmm(Side::Left, Uplo::Upper, Trans::Yes, Diag::NonUnit, 1.0, t,
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

void geqrf(MatrixView<double> a, double* tau, int nb) {
  const int m = a.rows();
  const int n = a.cols();
  FTLA_CHECK(nb > 0);
  const int k = std::min(m, n);
  for (int j = 0; j < k; j += nb) {
    const int jb = std::min(nb, k - j);
    auto panel = a.block(j, j, m - j, jb);
    geqf2(panel, tau + j);
    const int right = n - j - jb;
    if (right > 0) {
      Matrix<double> t(jb, jb);
      larft(ConstMatrixView<double>(panel), tau + j, t.view());
      larfb_left_t(ConstMatrixView<double>(panel),
                   ConstMatrixView<double>(t.view()),
                   a.block(j, j + jb, m - j, right));
    }
  }
}

void apply_q(ConstMatrixView<double> packed, const double* tau,
             MatrixView<double> c, bool transpose) {
  const int m = packed.rows();
  const int k = std::min(m, packed.cols());
  FTLA_CHECK(c.rows() == m);
  // Q = H_1 H_2 ... H_k, each H symmetric: Q^T applies them forward,
  // Q applies them backward.
  std::vector<double> vtail(static_cast<std::size_t>(m));
  auto apply_one = [&](int j) {
    const int tail = m - j - 1;
    for (int r = 0; r < tail; ++r) vtail[r] = packed(j + 1 + r, j);
    apply_reflector(tau[j], vtail.data(), tail,
                    c.block(j, 0, m - j, c.cols()));
  };
  if (transpose) {
    for (int j = 0; j < k; ++j) apply_one(j);
  } else {
    for (int j = k - 1; j >= 0; --j) apply_one(j);
  }
}

double qr_residual(ConstMatrixView<double> a_original,
                   ConstMatrixView<double> packed, const double* tau) {
  const int n = a_original.rows();
  FTLA_CHECK(a_original.cols() == n && packed.rows() == n &&
             packed.cols() == n);
  // A_rec = Q [R] = H_0 H_1 ... H_{n-1} [R] with R the upper triangle of
  // the packed factor, so H_{n-1} applies first. Column c of [R] is zero
  // below row c and H_j touches only rows j.., so every H_j with j > c
  // meets zeros in column c and leaves it as it is. Applying H_j to
  // columns j.. only thus gives apply_q's bits for finite factors, with
  // two thirds of the work (n^3/3 element updates instead of n^3/2).
  Matrix<double> rec(n, n, 0.0);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i <= j; ++i) rec(i, j) = packed(i, j);
  }
  for (int j = n - 1; j >= 0; --j) {
    const int tail = n - j - 1;
    apply_reflector(tau[j], tail > 0 ? &packed(j + 1, j) : nullptr, tail,
                    rec.block(j, j, n - j, n - j));
  }
  detail::ScaledSsq num;
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) num.add(a_original(i, j) - rec(i, j));
  }
  const double den = lange(Norm::Fro, a_original);
  return den > 0.0 ? num.norm() / den : num.norm();
}

}  // namespace ftla::blas
