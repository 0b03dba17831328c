#include "blas/lapack.hpp"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstddef>
#include <memory>
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

/// w[0:len) += x[0:len) * s, the portable residual oracles' column
/// update. Every entry of L L^T or L U is one chain of these updates,
/// from +0.0 in ascending k.
void column_update(int len, double s, const double* x, double* w) {
  for (int r = 0; r < len; ++r) w[r] += x[r] * s;
}

double cholesky_residual_columns(ConstMatrixView<double> a_original,
                                 ConstMatrixView<double> l) {
  const int n = a_original.rows();
  // Reconstruct the lower triangle of L L^T one column at a time:
  // (L L^T)(j:n, j) = sum_{k<=j} L(j:n, k) L(j, k). Every inner loop
  // walks a column of L, only the lower triangles are read, and each
  // entry sums its products in the same k order as a row-wise dot.
  std::vector<double> w(static_cast<std::size_t>(n));
  detail::ScaledSsq num;
  for (int j = 0; j < n; ++j) {
    const int len = n - j;
    std::fill_n(w.begin(), len, 0.0);
    for (int k = 0; k <= j; ++k) {
      column_update(len, l(j, k), &l(j, k), w.data());
    }
    const double* aj = &a_original(j, j);
    for (int r = 0; r < len; ++r) num.add(aj[r] - w[r]);
  }
  return num.norm();
}

double lu_residual_columns(ConstMatrixView<double> a_original,
                           ConstMatrixView<double> lu) {
  const int n = a_original.rows();
  // Column j of L U is sum_{k<j} L(k+1:n, k) U(k, j), plus U(0:j+1, j)
  // on and above the diagonal and L(j+1:n, j) U(j, j) below it (L is
  // unit-lower). Every inner loop walks a column; each entry sums its
  // products in the same k order as a row-times-column dot product.
  std::vector<double> w(static_cast<std::size_t>(n));
  detail::ScaledSsq num;
  for (int j = 0; j < n; ++j) {
    std::fill(w.begin(), w.end(), 0.0);
    for (int k = 0; k < j; ++k) {
      column_update(n - k - 1, lu(k, j), &lu(k + 1, k), w.data() + k + 1);
    }
    const double* aj = &a_original(0, j);
    const double* uj = &lu(0, j);
    const double ujj = uj[j];
    for (int i = 0; i <= j; ++i) num.add(aj[i] - (w[i] + uj[i]));
    for (int i = j + 1; i < n; ++i) num.add(aj[i] - (w[i] + uj[i] * ujj));
  }
  return num.norm();
}

#ifdef FTLA_BLAS_X86
// ---- Tiled residual products --------------------------------------------
//
// The AVX2 oracles compute the same chains as the column loops, a tile
// of them at a time: entry (i, j) of the product is
//   w(i, j) = sum_{k < end(i, j)} a(i, k) b(k, j), from +0.0, ascending k,
// with a = the factor, b(k, j) = L(j, k) and end = j + 1 for Cholesky,
// b(k, j) = U(k, j) and end = min(i, j) for LU. A kResMR x kResNR tile of
// w stays in registers across k; the few k steps past the first
// entry's end are masked per entry. Products are formed for a panel of
// kResNC columns at a time over kResKC-deep packed slices of the
// factor: a slice ends a tile's chains in memory and the next slice
// reloads them, which rounds nothing.
constexpr int kResMR = 8;
constexpr int kResNR = 6;
constexpr int kResNC = 8 * kResNR;
constexpr int kResKC = 256;

/// One register tile over packed depth `depth`: ap holds kResMR factor
/// rows per k, bp kResNR columns of b per k, w the tile (column-major,
/// leading dimension ldw). Steps p < all_live update every entry; a
/// later step updates row r of column q only while p < row_end[r] and
/// p < col_end[q], the blend leaving the other entries' bits as they
/// are.
__attribute__((target("avx2"))) void residual_tile_avx2(
    int all_live, int depth, const double* ap, const double* bp, double* w,
    int ldw, const double* row_end, const int* col_end) {
  static_assert(kResMR == 8 && kResNR == 6,
                "residual_tile_avx2 hard-codes an 8 x 6 tile");
  __m256d lo[kResNR];
  __m256d hi[kResNR];
#pragma GCC unroll 6
  for (int q = 0; q < kResNR; ++q) {
    lo[q] = _mm256_loadu_pd(w + q * ldw);
    hi[q] = _mm256_loadu_pd(w + q * ldw + 4);
  }
  for (int p = 0; p < all_live; ++p) {
    const double* a = ap + static_cast<std::size_t>(p) * kResMR;
    const double* b = bp + static_cast<std::size_t>(p) * kResNR;
    const __m256d a0 = _mm256_loadu_pd(a);
    const __m256d a1 = _mm256_loadu_pd(a + 4);
#pragma GCC unroll 6
    for (int q = 0; q < kResNR; ++q) {
      const __m256d x = _mm256_broadcast_sd(b + q);
      lo[q] = _mm256_add_pd(lo[q], _mm256_mul_pd(a0, x));
      hi[q] = _mm256_add_pd(hi[q], _mm256_mul_pd(a1, x));
    }
  }
  if (all_live < depth) {
    const __m256d end0 = _mm256_loadu_pd(row_end);
    const __m256d end1 = _mm256_loadu_pd(row_end + 4);
    for (int p = all_live; p < depth; ++p) {
      const double* a = ap + static_cast<std::size_t>(p) * kResMR;
      const double* b = bp + static_cast<std::size_t>(p) * kResNR;
      const __m256d a0 = _mm256_loadu_pd(a);
      const __m256d a1 = _mm256_loadu_pd(a + 4);
      const __m256d step = _mm256_set1_pd(p);
      const __m256d live0 = _mm256_cmp_pd(step, end0, _CMP_LT_OQ);
      const __m256d live1 = _mm256_cmp_pd(step, end1, _CMP_LT_OQ);
#pragma GCC unroll 6
      for (int q = 0; q < kResNR; ++q) {
        if (p >= col_end[q]) continue;
        const __m256d x = _mm256_broadcast_sd(b + q);
        lo[q] = _mm256_blendv_pd(
            lo[q], _mm256_add_pd(lo[q], _mm256_mul_pd(a0, x)), live0);
        hi[q] = _mm256_blendv_pd(
            hi[q], _mm256_add_pd(hi[q], _mm256_mul_pd(a1, x)), live1);
      }
    }
  }
#pragma GCC unroll 6
  for (int q = 0; q < kResNR; ++q) {
    _mm256_storeu_pd(w + q * ldw, lo[q]);
    _mm256_storeu_pd(w + q * ldw + 4, hi[q]);
  }
}

/// Working buffers of the tiled oracles, sized once per call: the
/// product entries of one panel (column-major, leading dimension ldw)
/// and the packed slices. Every entry is written before it is read.
struct ResidualBuffers {
  explicit ResidualBuffers(int n)
      : ldw((n + kResMR - 1) / kResMR * kResMR),
        w(new double[static_cast<std::size_t>(ldw) * panel_cols(n)]),
        ap(new double[static_cast<std::size_t>(std::min(n, kResKC)) * kResMR]),
        bp(new double[static_cast<std::size_t>(std::min(n, kResKC)) *
                      panel_cols(n)]) {}

  static int panel_cols(int n) {
    return (std::min(n, kResNC) + kResNR - 1) / kResNR * kResNR;
  }

  int ldw;
  std::unique_ptr<double[]> w;
  std::unique_ptr<double[]> ap;
  std::unique_ptr<double[]> bp;
};

/// The product entries of columns [jc, jc + nc) and rows [r0, n), into
/// buf.w: row i at w[i - r0], column j at w[(j - jc) * ldw]. kLu selects
/// b and end as described above; rows and columns past the matrix are
/// packed as zeros and their entries never read.
template <bool kLu>
void residual_panel(ConstMatrixView<double> f, int r0, int jc, int nc,
                    ResidualBuffers& buf) {
  const int n = f.rows();
  const auto row_end = [](int i) { return kLu ? i : INT_MAX; };
  const auto col_end = [](int j) { return kLu ? j : j + 1; };
  const auto b = [&f](int k, int j) { return kLu ? f(k, j) : f(j, k); };
  const int ldw = buf.ldw;
  const int ntiles = (nc + kResNR - 1) / kResNR;
  std::fill_n(buf.w.get(), static_cast<std::size_t>(ldw) * ntiles * kResNR,
              0.0);
  const int panel_end = std::min(row_end(n - 1), col_end(jc + nc - 1));
  for (int pc = 0; pc < panel_end; pc += kResKC) {
    const int kc = std::min(kResKC, panel_end - pc);
    const auto b_tile = [&](int t) {
      return buf.bp.get() + static_cast<std::size_t>(t) * kc * kResNR;
    };
    for (int t = 0; t < ntiles; ++t) {
      for (int q = 0; q < kResNR; ++q) {
        const int j = jc + t * kResNR + q;
        for (int p = 0; p < kc; ++p) {
          b_tile(t)[p * kResNR + q] = j < jc + nc ? b(pc + p, j) : 0.0;
        }
      }
    }
    for (int i0 = r0; i0 < n; i0 += kResMR) {
      const int mr = std::min(kResMR, n - i0);
      const int rows_end =
          std::min(row_end(i0 + mr - 1), col_end(jc + nc - 1));
      if (rows_end <= pc) continue;
      const int ka = std::min(kc, rows_end - pc);
      for (int p = 0; p < ka; ++p) {
        double* a = buf.ap.get() + static_cast<std::size_t>(p) * kResMR;
        for (int r = 0; r < kResMR; ++r) {
          a[r] = r < mr ? f(i0 + r, pc + p) : 0.0;
        }
      }
      alignas(32) double rend[kResMR];
      for (int r = 0; r < kResMR; ++r) {
        rend[r] = static_cast<double>(row_end(i0 + r)) - pc;
      }
      for (int t = 0; t < ntiles; ++t) {
        const int j0 = jc + t * kResNR;
        const int nr = std::min(kResNR, jc + nc - j0);
        // Cholesky keeps rows i >= j only: a tile wholly above the
        // diagonal holds nothing that is read.
        if (!kLu && i0 + mr <= j0) continue;
        const int last =
            std::min(row_end(i0 + mr - 1), col_end(j0 + nr - 1));
        if (last <= pc) continue;
        const int depth = std::min(kc, last - pc);
        const int first = std::min(row_end(i0), col_end(j0));
        const int all_live = std::clamp(first - pc, 0, depth);
        int cend[kResNR];
        for (int q = 0; q < kResNR; ++q) cend[q] = col_end(j0 + q) - pc;
        double* wt = buf.w.get() + (i0 - r0) +
                     static_cast<std::size_t>(t) * kResNR * ldw;
        residual_tile_avx2(all_live, depth, buf.ap.get(), b_tile(t), wt, ldw,
                           rend, cend);
      }
    }
  }
}

double cholesky_residual_tiles(ConstMatrixView<double> a_original,
                               ConstMatrixView<double> l) {
  const int n = a_original.rows();
  ResidualBuffers buf(n);
  detail::ScaledSsq num;
  for (int jc = 0; jc < n; jc += kResNC) {
    const int nc = std::min(kResNC, n - jc);
    residual_panel<false>(l, jc, jc, nc, buf);
    for (int j = jc; j < jc + nc; ++j) {
      const double* wj =
          buf.w.get() + static_cast<std::size_t>(j - jc) * buf.ldw;
      for (int i = j; i < n; ++i) num.add(a_original(i, j) - wj[i - jc]);
    }
  }
  return num.norm();
}

double lu_residual_tiles(ConstMatrixView<double> a_original,
                         ConstMatrixView<double> lu) {
  const int n = a_original.rows();
  ResidualBuffers buf(n);
  detail::ScaledSsq num;
  for (int jc = 0; jc < n; jc += kResNC) {
    const int nc = std::min(kResNC, n - jc);
    residual_panel<true>(lu, 0, jc, nc, buf);
    for (int j = jc; j < jc + nc; ++j) {
      const double* wj =
          buf.w.get() + static_cast<std::size_t>(j - jc) * buf.ldw;
      const double* aj = &a_original(0, j);
      const double* uj = &lu(0, j);
      const double ujj = uj[j];
      for (int i = 0; i <= j; ++i) num.add(aj[i] - (wj[i] + uj[i]));
      for (int i = j + 1; i < n; ++i) num.add(aj[i] - (wj[i] + uj[i] * ujj));
    }
  }
  return num.norm();
}
#endif

/// The relative residual ||A - P||_F / ||A||_F from the numerator norm.
using ResidualNorm = double (*)(ConstMatrixView<double> a_original,
                                ConstMatrixView<double> factor);

double relative_residual(ResidualNorm numerator,
                         ConstMatrixView<double> a_original,
                         ConstMatrixView<double> factor) {
  const int n = a_original.rows();
  FTLA_CHECK(a_original.cols() == n && factor.rows() == n &&
             factor.cols() == n);
  const double num = numerator(a_original, factor);
  const double den = lange(Norm::Fro, a_original);
  return den > 0.0 ? num / den : num;
}

double cholesky_residual_portable(ConstMatrixView<double> a_original,
                                  ConstMatrixView<double> l) {
  return relative_residual(cholesky_residual_columns, a_original, l);
}

double lu_residual_portable(ConstMatrixView<double> a_original,
                            ConstMatrixView<double> lu) {
  return relative_residual(lu_residual_columns, a_original, lu);
}

#ifdef FTLA_BLAS_X86
double cholesky_residual_avx2(ConstMatrixView<double> a_original,
                              ConstMatrixView<double> l) {
  return relative_residual(cholesky_residual_tiles, a_original, l);
}

double lu_residual_avx2(ConstMatrixView<double> a_original,
                        ConstMatrixView<double> lu) {
  return relative_residual(lu_residual_tiles, a_original, lu);
}
#endif

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
  const detail::Residual avx2 = detail::avx2_lu_residual();
  return (avx2 != nullptr ? avx2 : lu_residual_portable)(a_original, lu);
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
  const detail::Residual avx2 = detail::avx2_cholesky_residual();
  return (avx2 != nullptr ? avx2 : cholesky_residual_portable)(a_original, l);
}

double max_abs_diff(ConstMatrixView<double> a, ConstMatrixView<double> b) {
  FTLA_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  double v = 0.0;
  for (int j = 0; j < a.cols(); ++j)
    for (int i = 0; i < a.rows(); ++i)
      v = nan_max(v, std::abs(a(i, j) - b(i, j)));
  return v;
}

namespace detail {

Residual portable_cholesky_residual() { return cholesky_residual_portable; }

Residual avx2_cholesky_residual() {
#ifdef FTLA_BLAS_X86
  if (cpu_has_avx2()) return cholesky_residual_avx2;
#endif
  return nullptr;
}

Residual portable_lu_residual() { return lu_residual_portable; }

Residual avx2_lu_residual() {
#ifdef FTLA_BLAS_X86
  if (cpu_has_avx2()) return lu_residual_avx2;
#endif
  return nullptr;
}

}  // namespace detail

}  // namespace ftla::blas
