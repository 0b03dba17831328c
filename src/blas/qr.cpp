#include "blas/qr.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define FTLA_BLAS_X86 1
#endif

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


[[nodiscard]] constexpr int round_up(int v, int to) {
  return (v + to - 1) / to * to;
}

// ---- larfb_left_t ------------------------------------------------------
//
// W = V^T C makes every entry of W one sequential chain, w(i, col) =
// c(i, col) + v(i+1, i) c(i+1, col) + ..., and C -= V W makes every entry
// of C one chain of subtractions in ascending reflector order. The
// passes below run many chains side by side, each with the operations
// and the order of the plain loops (ref::larfb_left_t), so every twin
// gives their bits.

/// Chains of W run side by side per column. V^T is packed with this many
/// reflectors per row, so one row of the pack feeds them all.
constexpr int kLarfbLanes = 16;

/// W = V^T C from the packed V^T: vt[r * kp + i] = v(r, i) for r > i and
/// zero elsewhere, kp a multiple of kLarfbLanes.
using WPass = void (*)(const double* vt, int kp, ConstMatrixView<double> c,
                       MatrixView<double> w);
/// C -= V W with V unit lower triangular (its entries on and above the
/// diagonal are not read). W(i, col) == 0 skips reflector i for that
/// column: subtracting v * 0 would turn -0.0 into +0.0, and Inf or NaN
/// in V into NaN.
using CPass = void (*)(ConstMatrixView<double> v, ConstMatrixView<double> w,
                       MatrixView<double> c);

void w_pass(const double* vt, int kp, ConstMatrixView<double> c,
            MatrixView<double> w) {
  const int m = c.rows();
  const int k = w.rows();
  for (int col = 0; col < c.cols(); ++col) {
    const double* cc = &c(0, col);
    for (int i0 = 0; i0 < k; i0 += kLarfbLanes) {
      const int lanes = std::min(kLarfbLanes, k - i0);
      double s[kLarfbLanes] = {};
      for (int l = 0; l < lanes; ++l) s[l] = cc[i0 + l];
      // Inside the group's triangle lane l joins at row i0 + l + 1.
      const int full = std::min(m, i0 + kLarfbLanes);
      for (int r = i0 + 1; r < full; ++r) {
        const double* vr = vt + static_cast<std::size_t>(r) * kp + i0;
        for (int l = 0; l < r - i0; ++l) s[l] += vr[l] * cc[r];
      }
      for (int r = full; r < m; ++r) {
        const double* vr = vt + static_cast<std::size_t>(r) * kp + i0;
        for (int l = 0; l < kLarfbLanes; ++l) s[l] += vr[l] * cc[r];
      }
      for (int l = 0; l < lanes; ++l) w(i0 + l, col) = s[l];
    }
  }
}

void c_pass(ConstMatrixView<double> v, ConstMatrixView<double> w,
            MatrixView<double> c) {
  const int m = c.rows();
  const int k = w.rows();
  for (int col = 0; col < c.cols(); ++col) {
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

#ifdef FTLA_BLAS_X86
/// One group of kLarfbLanes chains, W(i0 : i0+16, col), for NC columns
/// at once in four AVX2 registers per column. Inside the group's
/// triangle a lane takes the update only once its own chain has started
/// (r > i): the blend keeps the other lanes' bits, which a zero in the
/// pack would not (-0.0 + 0 * x is +0.0, 0 * Inf is NaN).
template <int NC>
__attribute__((target("avx2"))) void w_group_avx2(const double* vt, int kp,
                                                  int m, int i0, int lanes,
                                                  const double* const* cc,
                                                  double* const* wc) {
  __m256d s[NC][4];
#pragma GCC unroll 4
  for (int j = 0; j < NC; ++j) {
    alignas(32) double seed[kLarfbLanes] = {};
    for (int l = 0; l < lanes; ++l) seed[l] = cc[j][i0 + l];
#pragma GCC unroll 4
    for (int q = 0; q < 4; ++q) s[j][q] = _mm256_load_pd(seed + 4 * q);
  }
  const int full = std::min(m, i0 + kLarfbLanes);
  for (int r = i0 + 1; r < full; ++r) {
    const double* vr = vt + static_cast<std::size_t>(r) * kp + i0;
    const __m256d joined = _mm256_set1_pd(r - i0);
#pragma GCC unroll 4
    for (int q = 0; q < 4; ++q) {
      const __m256d lane = _mm256_setr_pd(4 * q, 4 * q + 1, 4 * q + 2,
                                          4 * q + 3);
      const __m256d live = _mm256_cmp_pd(lane, joined, _CMP_LT_OQ);
      const __m256d vq = _mm256_loadu_pd(vr + 4 * q);
#pragma GCC unroll 4
      for (int j = 0; j < NC; ++j) {
        const __m256d x = _mm256_broadcast_sd(cc[j] + r);
        s[j][q] = _mm256_blendv_pd(
            s[j][q], _mm256_add_pd(s[j][q], _mm256_mul_pd(vq, x)), live);
      }
    }
  }
  for (int r = full; r < m; ++r) {
    const double* vr = vt + static_cast<std::size_t>(r) * kp + i0;
    __m256d x[NC];
#pragma GCC unroll 4
    for (int j = 0; j < NC; ++j) x[j] = _mm256_broadcast_sd(cc[j] + r);
#pragma GCC unroll 4
    for (int q = 0; q < 4; ++q) {
      const __m256d vq = _mm256_loadu_pd(vr + 4 * q);
#pragma GCC unroll 4
      for (int j = 0; j < NC; ++j) {
        s[j][q] = _mm256_add_pd(s[j][q], _mm256_mul_pd(vq, x[j]));
      }
    }
  }
#pragma GCC unroll 4
  for (int j = 0; j < NC; ++j) {
    alignas(32) double out[kLarfbLanes];
#pragma GCC unroll 4
    for (int q = 0; q < 4; ++q) _mm256_store_pd(out + 4 * q, s[j][q]);
    for (int l = 0; l < lanes; ++l) wc[j][i0 + l] = out[l];
  }
}

__attribute__((target("avx2"))) void w_pass_avx2(const double* vt, int kp,
                                                 ConstMatrixView<double> c,
                                                 MatrixView<double> w) {
  const int m = c.rows();
  const int n = c.cols();
  const int k = w.rows();
  for (int i0 = 0; i0 < k; i0 += kLarfbLanes) {
    const int lanes = std::min(kLarfbLanes, k - i0);
    int col = 0;
    for (; col + 2 <= n; col += 2) {
      const double* cc[] = {&c(0, col), &c(0, col + 1)};
      double* wc[] = {&w(0, col), &w(0, col + 1)};
      w_group_avx2<2>(vt, kp, m, i0, lanes, cc, wc);
    }
    if (col < n) {
      const double* cc[] = {&c(0, col)};
      double* wc[] = {&w(0, col)};
      w_group_avx2<1>(vt, kp, m, i0, lanes, cc, wc);
    }
  }
}

/// C(r0 : r0+8, cols) -= V W for NC columns held in registers across all
/// k reflectors. Rows from k on lie below every reflector's diagonal, so
/// each element takes c -= v(r, i) w(i, col) for i = 0, 1, ... in order.
template <int NC>
__attribute__((target("avx2"))) void c_tile_avx2(ConstMatrixView<double> v,
                                                 int r0, int k,
                                                 const double* const* wc,
                                                 double* const* cc) {
  __m256d lo[NC];
  __m256d hi[NC];
#pragma GCC unroll 4
  for (int j = 0; j < NC; ++j) {
    lo[j] = _mm256_loadu_pd(cc[j] + r0);
    hi[j] = _mm256_loadu_pd(cc[j] + r0 + 4);
  }
  for (int i = 0; i < k; ++i) {
    const double* vi = &v(r0, i);
    const __m256d a0 = _mm256_loadu_pd(vi);
    const __m256d a1 = _mm256_loadu_pd(vi + 4);
#pragma GCC unroll 4
    for (int j = 0; j < NC; ++j) {
      const double s = wc[j][i];
      if (s == 0.0) continue;
      const __m256d x = _mm256_set1_pd(s);
      lo[j] = _mm256_sub_pd(lo[j], _mm256_mul_pd(a0, x));
      hi[j] = _mm256_sub_pd(hi[j], _mm256_mul_pd(a1, x));
    }
  }
#pragma GCC unroll 4
  for (int j = 0; j < NC; ++j) {
    _mm256_storeu_pd(cc[j] + r0, lo[j]);
    _mm256_storeu_pd(cc[j] + r0 + 4, hi[j]);
  }
}

/// c_tile_avx2 for a tile that meets the reflectors' diagonals or the
/// end of C: lanes past row m are neither read nor written, row i takes
/// reflector i's implicit unit diagonal (c - 1.0 * w rounds as c - w),
/// and rows above it are left as they are.
template <int NC>
__attribute__((target("avx2"))) void c_edge_tile_avx2(
    ConstMatrixView<double> v, int r0, int rows, int k,
    const double* const* wc, double* const* cc) {
  const __m256d lane0 = _mm256_setr_pd(0.0, 1.0, 2.0, 3.0);
  const __m256d lane1 = _mm256_setr_pd(4.0, 5.0, 6.0, 7.0);
  const __m256d nrows = _mm256_set1_pd(rows);
  const __m256i in0 =
      _mm256_castpd_si256(_mm256_cmp_pd(lane0, nrows, _CMP_LT_OQ));
  const __m256i in1 =
      _mm256_castpd_si256(_mm256_cmp_pd(lane1, nrows, _CMP_LT_OQ));
  const __m256d row0 = _mm256_add_pd(lane0, _mm256_set1_pd(r0));
  const __m256d row1 = _mm256_add_pd(lane1, _mm256_set1_pd(r0));
  const __m256d one = _mm256_set1_pd(1.0);
  __m256d lo[NC];
  __m256d hi[NC];
#pragma GCC unroll 4
  for (int j = 0; j < NC; ++j) {
    lo[j] = _mm256_maskload_pd(cc[j] + r0, in0);
    hi[j] = _mm256_maskload_pd(cc[j] + r0 + 4, in1);
  }
  for (int i = 0; i < k; ++i) {
    const double* vi = &v(r0, i);
    const __m256d diag = _mm256_set1_pd(i);
    const __m256d a0 = _mm256_blendv_pd(_mm256_maskload_pd(vi, in0), one,
                                        _mm256_cmp_pd(row0, diag, _CMP_EQ_OQ));
    const __m256d a1 = _mm256_blendv_pd(_mm256_maskload_pd(vi + 4, in1), one,
                                        _mm256_cmp_pd(row1, diag, _CMP_EQ_OQ));
    const __m256d live0 = _mm256_cmp_pd(row0, diag, _CMP_GE_OQ);
    const __m256d live1 = _mm256_cmp_pd(row1, diag, _CMP_GE_OQ);
#pragma GCC unroll 4
    for (int j = 0; j < NC; ++j) {
      const double s = wc[j][i];
      if (s == 0.0) continue;
      const __m256d x = _mm256_set1_pd(s);
      lo[j] = _mm256_blendv_pd(
          lo[j], _mm256_sub_pd(lo[j], _mm256_mul_pd(a0, x)), live0);
      hi[j] = _mm256_blendv_pd(
          hi[j], _mm256_sub_pd(hi[j], _mm256_mul_pd(a1, x)), live1);
    }
  }
#pragma GCC unroll 4
  for (int j = 0; j < NC; ++j) {
    _mm256_maskstore_pd(cc[j] + r0, in0, lo[j]);
    _mm256_maskstore_pd(cc[j] + r0 + 4, in1, hi[j]);
  }
}

/// All 8-row tiles of NC columns of C.
template <int NC>
__attribute__((target("avx2"))) void c_columns_avx2(ConstMatrixView<double> v,
                                                    int m, int k,
                                                    const double* const* wc,
                                                    double* const* cc) {
  for (int r0 = 0; r0 < m; r0 += 8) {
    const int rows = std::min(8, m - r0);
    if (r0 >= k && rows == 8) {
      c_tile_avx2<NC>(v, r0, k, wc, cc);
    } else {
      c_edge_tile_avx2<NC>(v, r0, rows, k, wc, cc);
    }
  }
}

__attribute__((target("avx2"))) void c_pass_avx2(ConstMatrixView<double> v,
                                                 ConstMatrixView<double> w,
                                                 MatrixView<double> c) {
  const int m = c.rows();
  const int n = c.cols();
  const int k = w.rows();
  int col = 0;
  for (; col + 4 <= n; col += 4) {
    const double* wc[] = {&w(0, col), &w(0, col + 1), &w(0, col + 2),
                          &w(0, col + 3)};
    double* cc[] = {&c(0, col), &c(0, col + 1), &c(0, col + 2),
                    &c(0, col + 3)};
    c_columns_avx2<4>(v, m, k, wc, cc);
  }
  for (; col < n; ++col) {
    const double* wc[] = {&w(0, col)};
    double* cc[] = {&c(0, col)};
    c_columns_avx2<1>(v, m, k, wc, cc);
  }
}
#endif

void larfb_with(WPass w_of, CPass update, ConstMatrixView<double> v,
                ConstMatrixView<double> t, MatrixView<double> c) {
  const int m = c.rows();
  const int n = c.cols();
  const int k = v.cols();
  FTLA_CHECK(v.rows() == m && t.rows() == k && t.cols() == k);
  // W(i, col) starts from C(i, col) for every reflector i.
  FTLA_CHECK(k <= m);
  if (n == 0 || k == 0) return;
  const int kp = round_up(k, kLarfbLanes);
  std::vector<double> vt(static_cast<std::size_t>(m) * kp, 0.0);
  for (int r = 1; r < m; ++r) {
    double* row = vt.data() + static_cast<std::size_t>(r) * kp;
    for (int i = 0; i < std::min(r, k); ++i) row[i] = v(r, i);
  }
  Matrix<double> w(k, n);
  w_of(vt.data(), kp, c, w.view());
  // W := T^T W.
  trmm(Side::Left, Uplo::Upper, Trans::Yes, Diag::NonUnit, 1.0, t,
       w.view());
  update(v, ConstMatrixView<double>(w.view()), c);
}

void larfb_left_t_portable(ConstMatrixView<double> v,
                           ConstMatrixView<double> t, MatrixView<double> c) {
  larfb_with(w_pass, c_pass, v, t, c);
}

#ifdef FTLA_BLAS_X86
void larfb_left_t_avx2(ConstMatrixView<double> v, ConstMatrixView<double> t,
                       MatrixView<double> c) {
  larfb_with(w_pass_avx2, c_pass_avx2, v, t, c);
}
#endif

// ---- qr_residual ------------------------------------------------------
//
// The reconstruction is stored transposed, rec_t(c, i) = A_rec(i, c):
// row i of A_rec is contiguous, so a reflector's per-column chains run
// side by side across columns.

/// Applies H_{n-1}, ..., H_0 (tau == 0 skipped) to the transposed
/// reconstruction, H_j to columns j.. only, each column of each
/// reflector one apply_reflector chain.
using ApplyReflectors = void (*)(ConstMatrixView<double> packed,
                                 const double* tau,
                                 MatrixView<double> rec_t);

void apply_reflectors(ConstMatrixView<double> packed, const double* tau,
                      MatrixView<double> rec_t) {
  const int n = packed.rows();
  const int ld = rec_t.ld();
  std::vector<double> s(static_cast<std::size_t>(n));
  for (int j = n - 1; j >= 0; --j) {
    if (tau[j] == 0.0) continue;
    const double* v = &packed(0, j);  // v[r] for rows r > j
    double* row_j = &rec_t(j, j);     // row j of A_rec from column j
    const int width = n - j;
    std::copy_n(row_j, width, s.data());
    for (int r = j + 1; r < n; ++r) {
      const double* row = row_j + static_cast<std::ptrdiff_t>(r - j) * ld;
      for (int c = 0; c < width; ++c) s[c] += v[r] * row[c];
    }
    for (int c = 0; c < width; ++c) {
      s[c] *= tau[j];
      row_j[c] -= s[c];
    }
    for (int r = j + 1; r < n; ++r) {
      double* row = row_j + static_cast<std::ptrdiff_t>(r - j) * ld;
      for (int c = 0; c < width; ++c) row[c] -= v[r] * s[c];
    }
  }
}

#ifdef FTLA_BLAS_X86
// The AVX2 twin makes one pass over the rows per reflector instead of
// two: the pass that applies a pending reflector p also accumulates the
// dot products of the next one, j < p, from the rows it has just
// updated. Row r of column c thus still gets p's update before j's dot
// product reads it, and each chain keeps its order. s[c] carries the
// pending reflector's dot products, already times tau, between passes.

/// A pass over the 4 columns from c0: p's update (p == n: none
/// pending) on the lanes at or right of p, then j's dot product. Lanes
/// at or past n are neither read nor written. Covers the columns left
/// of p, which take j's dot product only, and the last few columns.
template <bool kDot>
__attribute__((target("avx2"))) void pass_edge_avx2(
    double* rec, int ld, int n, int c0, int p, const double* vp, int j,
    const double* vj, double tau_j, double* s) {
  const auto row = [&](int r) {
    return rec + c0 + static_cast<std::ptrdiff_t>(r) * ld;
  };
  const __m256d col = _mm256_add_pd(_mm256_setr_pd(0.0, 1.0, 2.0, 3.0),
                                    _mm256_set1_pd(c0));
  const __m256d in = _mm256_cmp_pd(col, _mm256_set1_pd(n), _CMP_LT_OQ);
  const __m256i in_i = _mm256_castpd_si256(in);
  const __m256i upd_i = _mm256_castpd_si256(_mm256_and_pd(
      in, _mm256_cmp_pd(col, _mm256_set1_pd(p), _CMP_GE_OQ)));
  const __m256d sp = _mm256_maskload_pd(s + c0, upd_i);
  __m256d acc = _mm256_setzero_pd();
  if constexpr (kDot) {
    acc = _mm256_maskload_pd(row(j), in_i);
    for (int r = j + 1; r < std::min(p, n); ++r) {
      const __m256d y = _mm256_maskload_pd(row(r), in_i);
      acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_broadcast_sd(vj + r), y));
    }
  }
  for (int r = p; r < n; ++r) {
    // Row p holds H_p's implicit unit entry.
    const __m256d y = _mm256_maskload_pd(row(r), in_i);
    const __m256d upd =
        r == p ? _mm256_sub_pd(y, sp)
               : _mm256_sub_pd(y, _mm256_mul_pd(_mm256_broadcast_sd(vp + r),
                                                sp));
    _mm256_maskstore_pd(row(r), upd_i, upd);
    if constexpr (kDot) {
      const __m256d now = _mm256_blendv_pd(y, upd, _mm256_castsi256_pd(upd_i));
      acc = _mm256_add_pd(acc,
                          _mm256_mul_pd(_mm256_broadcast_sd(vj + r), now));
    }
  }
  if constexpr (kDot) {
    _mm256_maskstore_pd(s + c0, in_i,
                        _mm256_mul_pd(acc, _mm256_set1_pd(tau_j)));
  }
}

/// pass_edge_avx2 on the 4 * NV columns from c0, all of them at or right
/// of p and left of n, so both reflectors apply (kDot false: update
/// only).
template <int NV, bool kDot>
__attribute__((target("avx2"))) void pass_strip_avx2(
    double* rec, int ld, int n, int c0, int p, const double* vp, int j,
    const double* vj, double tau_j, double* s) {
  const auto row = [&](int r) {
    return rec + c0 + static_cast<std::ptrdiff_t>(r) * ld;
  };
  __m256d sp[NV];
  __m256d acc[NV];
#pragma GCC unroll 8
  for (int q = 0; q < NV; ++q) sp[q] = _mm256_loadu_pd(s + c0 + 4 * q);
  if constexpr (kDot) {
#pragma GCC unroll 8
    for (int q = 0; q < NV; ++q) acc[q] = _mm256_loadu_pd(row(j) + 4 * q);
    for (int r = j + 1; r < p; ++r) {
      const __m256d x = _mm256_broadcast_sd(vj + r);
#pragma GCC unroll 8
      for (int q = 0; q < NV; ++q) {
        acc[q] = _mm256_add_pd(
            acc[q], _mm256_mul_pd(x, _mm256_loadu_pd(row(r) + 4 * q)));
      }
    }
  }
  {
    // Row p holds H_p's implicit unit entry.
    double* rp = row(p);
#pragma GCC unroll 8
    for (int q = 0; q < NV; ++q) {
      const __m256d y = _mm256_sub_pd(_mm256_loadu_pd(rp + 4 * q), sp[q]);
      _mm256_storeu_pd(rp + 4 * q, y);
      if constexpr (kDot) {
        acc[q] = _mm256_add_pd(
            acc[q], _mm256_mul_pd(_mm256_broadcast_sd(vj + p), y));
      }
    }
  }
  for (int r = p + 1; r < n; ++r) {
    const __m256d xp = _mm256_broadcast_sd(vp + r);
    [[maybe_unused]] __m256d xj;
    if constexpr (kDot) xj = _mm256_broadcast_sd(vj + r);
    double* rr = row(r);
#pragma GCC unroll 8
    for (int q = 0; q < NV; ++q) {
      const __m256d y = _mm256_sub_pd(_mm256_loadu_pd(rr + 4 * q),
                                      _mm256_mul_pd(xp, sp[q]));
      _mm256_storeu_pd(rr + 4 * q, y);
      if constexpr (kDot) acc[q] = _mm256_add_pd(acc[q], _mm256_mul_pd(xj, y));
    }
  }
  if constexpr (kDot) {
    const __m256d t = _mm256_set1_pd(tau_j);
#pragma GCC unroll 8
    for (int q = 0; q < NV; ++q) {
      _mm256_storeu_pd(s + c0 + 4 * q, _mm256_mul_pd(acc[q], t));
    }
  }
}

template <bool kDot>
__attribute__((target("avx2"))) void pass_avx2(double* rec, int ld, int n,
                                               int p, const double* vp,
                                               int j, const double* vj,
                                               double tau_j, double* s) {
  int c = kDot ? j : p;
  for (; c < p; c += 4) {
    pass_edge_avx2<kDot>(rec, ld, n, c, p, vp, j, vj, tau_j, s);
  }
  for (; c + 32 <= n; c += 32) {
    pass_strip_avx2<8, kDot>(rec, ld, n, c, p, vp, j, vj, tau_j, s);
  }
  for (; c + 16 <= n; c += 16) {
    pass_strip_avx2<4, kDot>(rec, ld, n, c, p, vp, j, vj, tau_j, s);
  }
  for (; c + 4 <= n; c += 4) {
    pass_strip_avx2<1, kDot>(rec, ld, n, c, p, vp, j, vj, tau_j, s);
  }
  if (c < n) pass_edge_avx2<kDot>(rec, ld, n, c, p, vp, j, vj, tau_j, s);
}

void apply_reflectors_avx2(ConstMatrixView<double> packed, const double* tau,
                           MatrixView<double> rec_t) {
  const int n = packed.rows();
  const int ld = rec_t.ld();
  double* rec = rec_t.data();
  std::vector<double> s(static_cast<std::size_t>(n));
  int p = n;  // the pending reflector, n when none
  for (int j = n - 1; j >= 0; --j) {
    if (tau[j] == 0.0) continue;
    // Reflector columns are indexed by row: v[r] for rows r > j.
    pass_avx2<true>(rec, ld, n, p, p < n ? &packed(0, p) : nullptr, j,
                    &packed(0, j), tau[j], s.data());
    p = j;
  }
  if (p < n) {
    pass_avx2<false>(rec, ld, n, p, &packed(0, p), -1, nullptr, 0.0,
                     s.data());
  }
}
#endif

double qr_residual_with(ApplyReflectors apply,
                        ConstMatrixView<double> a_original,
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
  Matrix<double> rec_t(n, n, 0.0);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i <= j; ++i) rec_t(j, i) = packed(i, j);
  }
  apply(packed, tau, rec_t.view());
  detail::ScaledSsq num;
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) num.add(a_original(i, j) - rec_t(j, i));
  }
  const double den = lange(Norm::Fro, a_original);
  return den > 0.0 ? num.norm() / den : num.norm();
}

double qr_residual_portable(ConstMatrixView<double> a_original,
                            ConstMatrixView<double> packed,
                            const double* tau) {
  return qr_residual_with(apply_reflectors, a_original, packed, tau);
}

#ifdef FTLA_BLAS_X86
double qr_residual_avx2(ConstMatrixView<double> a_original,
                        ConstMatrixView<double> packed, const double* tau) {
  return qr_residual_with(apply_reflectors_avx2, a_original, packed, tau);
}
#endif

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
  // Reflector j's unit diagonal sits in row j.
  FTLA_CHECK(k <= m);
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
  const detail::LarfbLeftT avx2 = detail::avx2_larfb_left_t();
  (avx2 != nullptr ? avx2 : larfb_left_t_portable)(v, t, c);
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
  const detail::QrResidual avx2 = detail::avx2_qr_residual();
  return (avx2 != nullptr ? avx2 : qr_residual_portable)(a_original, packed,
                                                         tau);
}

namespace detail {

LarfbLeftT portable_larfb_left_t() { return larfb_left_t_portable; }

LarfbLeftT avx2_larfb_left_t() {
#ifdef FTLA_BLAS_X86
  if (cpu_has_avx2()) return larfb_left_t_avx2;
#endif
  return nullptr;
}

QrResidual portable_qr_residual() { return qr_residual_portable; }

QrResidual avx2_qr_residual() {
#ifdef FTLA_BLAS_X86
  if (cpu_has_avx2()) return qr_residual_avx2;
#endif
  return nullptr;
}

}  // namespace detail

}  // namespace ftla::blas
