#include "blas/level3.hpp"

#include <algorithm>
#include <cstddef>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define FTLA_BLAS_X86 1
#endif

#include "blas/level2.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"

namespace ftla::blas {

namespace {

// Work (in multiply-adds) below which the packed core is not worth its
// packing overhead; the campaign's 16-wide block operations and the
// 2 x B checksum updates all stay on the short path.
constexpr long long kSmallWork = 32LL * 32 * 32;
// Work above which a GEMM fans out over the global thread pool.
constexpr long long kParallelWork = 1LL << 21;

void scale_inplace(MatrixView<double> c, double beta) {
  if (beta == 1.0) return;
  for (int j = 0; j < c.cols(); ++j) {
    double* col = &c(0, j);
    if (beta == 0.0) {
      for (int i = 0; i < c.rows(); ++i) col[i] = 0.0;
    } else {
      for (int i = 0; i < c.rows(); ++i) col[i] *= beta;
    }
  }
}

/// Unblocked fallback for small problems: C += alpha * op(A) op(B) with
/// the scaling by beta already applied by the caller.
void gemm_small(Trans ta, Trans tb, double alpha, ConstMatrixView<double> a,
                ConstMatrixView<double> b, MatrixView<double> c) {
  const int m = c.rows();
  const int n = c.cols();
  const int k = ta == Trans::No ? a.cols() : a.rows();
  if (ta == Trans::No) {
    // Column-major friendly: C(:,j) += alpha * A(:,l) * op(B)(l,j).
    for (int j = 0; j < n; ++j) {
      double* cj = &c(0, j);
      for (int l = 0; l < k; ++l) {
        const double blj = tb == Trans::No ? b(l, j) : b(j, l);
        const double t = alpha * blj;
        if (t == 0.0) continue;
        const double* al = &a(0, l);
        for (int i = 0; i < m; ++i) cj[i] += t * al[i];
      }
    }
  } else if (tb == Trans::No) {
    // C(i,j) += alpha * dot(A(:,i), B(:,j)) — both operands columnwise.
    for (int j = 0; j < n; ++j) {
      const double* bj = &b(0, j);
      double* cj = &c(0, j);
      for (int i = 0; i < m; ++i) {
        const double* ai = &a(0, i);
        double s = 0.0;
        for (int l = 0; l < k; ++l) s += ai[l] * bj[l];
        cj[i] += alpha * s;
      }
    }
  } else {
    // A^T B^T: accumulate per (i, j) with strided access to B's rows.
    for (int j = 0; j < n; ++j) {
      double* cj = &c(0, j);
      for (int i = 0; i < m; ++i) {
        const double* ai = &a(0, i);
        double s = 0.0;
        for (int l = 0; l < k; ++l) s += ai[l] * b(j, l);
        cj[i] += alpha * s;
      }
    }
  }
}

// ----------------------------------------------------------------------
// Packed GEMM core (BLIS-style MC/KC/NC blocking, MR x NR microkernel)
// ----------------------------------------------------------------------

/// Packs op(A)[ic:ic+mc, pc:pc+kc] (alpha folded in) into MR-row strips;
/// partial strips are zero-padded so the microkernel always runs full
/// width. `a` is the storage view: m x k when ta == No, k x m otherwise.
void pack_a_panel(Trans ta, ConstMatrixView<double> a, double alpha,
                  int ic, int pc, int mc, int kc, double* buf) {
  for (int is = 0; is < mc; is += kGemmMR) {
    const int mr = std::min(kGemmMR, mc - is);
    double* dst = buf + static_cast<std::size_t>(is) * kc;
    for (int p = 0; p < kc; ++p) {
      double* d = dst + static_cast<std::size_t>(p) * kGemmMR;
      if (ta == Trans::No) {
        const double* col = &a(ic + is, pc + p);
        for (int i = 0; i < mr; ++i) d[i] = alpha * col[i];
      } else {
        for (int i = 0; i < mr; ++i) d[i] = alpha * a(pc + p, ic + is + i);
      }
      for (int i = mr; i < kGemmMR; ++i) d[i] = 0.0;
    }
  }
}

/// Packs op(B)[pc:pc+kc, jc:jc+nc] into NR-column strips (zero-padded).
void pack_b_panel(Trans tb, ConstMatrixView<double> b, int pc, int jc,
                  int kc, int nc, double* buf) {
  for (int js = 0; js < nc; js += kGemmNR) {
    const int nr = std::min(kGemmNR, nc - js);
    double* dst = buf + static_cast<std::size_t>(js) * kc;
    for (int p = 0; p < kc; ++p) {
      double* d = dst + static_cast<std::size_t>(p) * kGemmNR;
      if (tb == Trans::No) {
        for (int j = 0; j < nr; ++j) d[j] = b(pc + p, jc + js + j);
      } else {
        for (int j = 0; j < nr; ++j) d[j] = b(jc + js + j, pc + p);
      }
      for (int j = nr; j < kGemmNR; ++j) d[j] = 0.0;
    }
  }
}

/// C[0:mr, 0:nr] += acc, clipped to the live mr x nr corner of the
/// column-major kGemmMR x kGemmNR tile `acc`.
void add_tile(const double* acc, double* c, int ldc, int mr, int nr) {
  if (mr == kGemmMR && nr == kGemmNR) {
    for (int j = 0; j < kGemmNR; ++j) {
      double* cj = c + static_cast<std::ptrdiff_t>(j) * ldc;
      const double* accj = acc + j * kGemmMR;
      for (int i = 0; i < kGemmMR; ++i) cj[i] += accj[i];
    }
  } else {
    for (int j = 0; j < nr; ++j) {
      double* cj = c + static_cast<std::ptrdiff_t>(j) * ldc;
      const double* accj = acc + j * kGemmMR;
      for (int i = 0; i < mr; ++i) cj[i] += accj[i];
    }
  }
}

/// Portable microkernel (detail::MicroKernel): the tile is a local
/// array, which the compiler does not keep in registers; it runs where
/// AVX2 is unavailable and is the reference the AVX2 kernel must match.
void micro_kernel(int kc, const double* ap, const double* bp, double* c,
                  int ldc, int mr, int nr) {
  double acc[kGemmMR * kGemmNR] = {};
  for (int p = 0; p < kc; ++p) {
    const double* a = ap + static_cast<std::size_t>(p) * kGemmMR;
    const double* b = bp + static_cast<std::size_t>(p) * kGemmNR;
    for (int j = 0; j < kGemmNR; ++j) {
      const double bj = b[j];
      double* accj = acc + j * kGemmMR;
      for (int i = 0; i < kGemmMR; ++i) accj[i] += a[i] * bj;
    }
  }
  add_tile(acc, c, ldc, mr, nr);
}

#ifdef FTLA_BLAS_X86
static_assert(kGemmMR == 8 && kGemmNR == 6,
              "micro_kernel_avx2 hard-codes an 8 x 6 tile");

/// The same tile as micro_kernel in twelve AVX2 registers: column j of
/// the tile is lo_j (rows 0-3) and hi_j (rows 4-7). Every element is
/// acc = acc + a * b with a separate multiply and add, in ascending p
/// from +0.0, then c = c + acc: exactly the portable kernel's roundings.
/// The avx2 target does not include FMA, and the build pins
/// -ffp-contract=off, so the compiler may not fuse the pair either.
__attribute__((target("avx2"))) void micro_kernel_avx2(
    int kc, const double* ap, const double* bp, double* c, int ldc, int mr,
    int nr) {
  __m256d lo0 = _mm256_setzero_pd(), hi0 = _mm256_setzero_pd();
  __m256d lo1 = _mm256_setzero_pd(), hi1 = _mm256_setzero_pd();
  __m256d lo2 = _mm256_setzero_pd(), hi2 = _mm256_setzero_pd();
  __m256d lo3 = _mm256_setzero_pd(), hi3 = _mm256_setzero_pd();
  __m256d lo4 = _mm256_setzero_pd(), hi4 = _mm256_setzero_pd();
  __m256d lo5 = _mm256_setzero_pd(), hi5 = _mm256_setzero_pd();
  for (int p = 0; p < kc; ++p) {
    const double* a = ap + static_cast<std::size_t>(p) * kGemmMR;
    const double* b = bp + static_cast<std::size_t>(p) * kGemmNR;
    const __m256d alo = _mm256_loadu_pd(a);
    const __m256d ahi = _mm256_loadu_pd(a + 4);
    __m256d bj = _mm256_broadcast_sd(b);
    lo0 = _mm256_add_pd(lo0, _mm256_mul_pd(alo, bj));
    hi0 = _mm256_add_pd(hi0, _mm256_mul_pd(ahi, bj));
    bj = _mm256_broadcast_sd(b + 1);
    lo1 = _mm256_add_pd(lo1, _mm256_mul_pd(alo, bj));
    hi1 = _mm256_add_pd(hi1, _mm256_mul_pd(ahi, bj));
    bj = _mm256_broadcast_sd(b + 2);
    lo2 = _mm256_add_pd(lo2, _mm256_mul_pd(alo, bj));
    hi2 = _mm256_add_pd(hi2, _mm256_mul_pd(ahi, bj));
    bj = _mm256_broadcast_sd(b + 3);
    lo3 = _mm256_add_pd(lo3, _mm256_mul_pd(alo, bj));
    hi3 = _mm256_add_pd(hi3, _mm256_mul_pd(ahi, bj));
    bj = _mm256_broadcast_sd(b + 4);
    lo4 = _mm256_add_pd(lo4, _mm256_mul_pd(alo, bj));
    hi4 = _mm256_add_pd(hi4, _mm256_mul_pd(ahi, bj));
    bj = _mm256_broadcast_sd(b + 5);
    lo5 = _mm256_add_pd(lo5, _mm256_mul_pd(alo, bj));
    hi5 = _mm256_add_pd(hi5, _mm256_mul_pd(ahi, bj));
  }
  const __m256d tile[] = {lo0, hi0, lo1, hi1, lo2, hi2,
                          lo3, hi3, lo4, hi4, lo5, hi5};
  if (mr == kGemmMR && nr == kGemmNR) {
    for (int j = 0; j < kGemmNR; ++j) {
      double* cj = c + static_cast<std::ptrdiff_t>(j) * ldc;
      _mm256_storeu_pd(cj, _mm256_add_pd(_mm256_loadu_pd(cj), tile[2 * j]));
      _mm256_storeu_pd(cj + 4, _mm256_add_pd(_mm256_loadu_pd(cj + 4),
                                             tile[2 * j + 1]));
    }
    return;
  }
  alignas(32) double acc[kGemmMR * kGemmNR];
  for (int v = 0; v < 2 * kGemmNR; ++v) _mm256_store_pd(acc + 4 * v, tile[v]);
  add_tile(acc, c, ldc, mr, nr);
}
#endif

[[nodiscard]] constexpr int round_up(int v, int to) {
  return (v + to - 1) / to * to;
}

/// C += alpha * op(A) op(B) (beta already applied). Parallelizes over MC
/// row panels: every C tile is written by exactly one lane and the KC
/// loop is a barrier between accumulation steps, so the result is
/// bit-identical for every thread count.
void gemm_core(Trans ta, ConstMatrixView<double> a, Trans tb,
               ConstMatrixView<double> b, double alpha, int k,
               MatrixView<double> c) {
  const int m = c.rows();
  const int n = c.cols();
  if (m == 0 || n == 0 || k == 0) return;

  common::ThreadPool* pool = nullptr;
  if (static_cast<long long>(m) * n * k >= kParallelWork &&
      !common::ThreadPool::in_parallel_region()) {
    common::ThreadPool& g = common::global_pool();
    if (g.threads() > 1) pool = &g;
  }

  const int kc_max = std::min(k, kGemmKC);
  const int nc_max = std::min(n, kGemmNC);
  const int mblocks = (m + kGemmMC - 1) / kGemmMC;
  const bool use_pool = pool != nullptr && mblocks > 1;
  const std::size_t apack_elems =
      static_cast<std::size_t>(round_up(std::min(m, kGemmMC), kGemmMR)) *
      kc_max;
  std::vector<double> bpack(
      static_cast<std::size_t>(round_up(nc_max, kGemmNR)) * kc_max);
  // One packed-A buffer per pool chunk, allocated on the chunk's first
  // use and reused for every (jc, pc) panel pair; a chunk runs on one
  // lane at a time and the panel pairs are separated by the pool's
  // barrier, so no two lanes share a buffer.
  std::vector<std::vector<double>> apacks(use_pool ? mblocks : 1);
  const auto apack_for = [&](std::size_t chunk) {
    std::vector<double>& buf = apacks[chunk];
    if (buf.empty()) buf.resize(apack_elems);
    return buf.data();
  };
  detail::MicroKernel kernel = detail::avx2_micro_kernel();
  if (kernel == nullptr) kernel = micro_kernel;
  for (int jc = 0; jc < n; jc += kGemmNC) {
    const int nc = std::min(kGemmNC, n - jc);
    for (int pc = 0; pc < k; pc += kGemmKC) {
      const int kc = std::min(kGemmKC, k - pc);
      pack_b_panel(tb, b, pc, jc, kc, nc, bpack.data());

      auto run_block = [&, jc, pc, nc, kc](int ib, double* apack) {
        const int ic = ib * kGemmMC;
        const int mc = std::min(kGemmMC, m - ic);
        pack_a_panel(ta, a, alpha, ic, pc, mc, kc, apack);
        for (int js = 0; js < nc; js += kGemmNR) {
          const int nr = std::min(kGemmNR, nc - js);
          const double* bp = bpack.data() + static_cast<std::size_t>(js) * kc;
          for (int is = 0; is < mc; is += kGemmMR) {
            const int mr = std::min(kGemmMR, mc - is);
            kernel(kc, apack + static_cast<std::size_t>(is) * kc, bp,
                   &c(ic + is, jc + js), c.ld(), mr, nr);
          }
        }
      };

      if (use_pool) {
        pool->parallel_for_chunks(
            0, mblocks, [&](std::int64_t lo, std::int64_t hi) {
              double* apack = apack_for(static_cast<std::size_t>(lo));
              for (std::int64_t ib = lo; ib < hi; ++ib) {
                run_block(static_cast<int>(ib), apack);
              }
            });
      } else {
        double* apack = apack_for(0);
        for (int ib = 0; ib < mblocks; ++ib) run_block(ib, apack);
      }
    }
  }
}

}  // namespace

namespace detail {

bool cpu_has_avx2() {
#ifdef FTLA_BLAS_X86
  // Function-local: CPU detection must run before the first query, and
  // namespace-scope initializers have no order guarantee against it.
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return has;
#else
  return false;
#endif
}

MicroKernel portable_micro_kernel() { return micro_kernel; }

MicroKernel avx2_micro_kernel() {
#ifdef FTLA_BLAS_X86
  if (cpu_has_avx2()) return micro_kernel_avx2;
#endif
  return nullptr;
}

}  // namespace detail

void gemm(Trans ta, Trans tb, double alpha, ConstMatrixView<double> a,
          ConstMatrixView<double> b, double beta, MatrixView<double> c) {
  const int m = c.rows();
  const int n = c.cols();
  const int k = ta == Trans::No ? a.cols() : a.rows();
  FTLA_CHECK((ta == Trans::No ? a.rows() : a.cols()) == m);
  FTLA_CHECK((tb == Trans::No ? b.rows() : b.cols()) == k);
  FTLA_CHECK((tb == Trans::No ? b.cols() : b.rows()) == n);

  scale_inplace(c, beta);
  if (alpha == 0.0 || k == 0 || m == 0 || n == 0) return;

  if (static_cast<long long>(m) * n * k <= kSmallWork) {
    gemm_small(ta, tb, alpha, a, b, c);
    return;
  }
  gemm_core(ta, a, tb, b, alpha, k, c);
}

void syrk(Uplo uplo, Trans trans, double alpha, ConstMatrixView<double> a,
          double beta, MatrixView<double> c) {
  const int n = c.rows();
  FTLA_CHECK(c.cols() == n);
  const int k = trans == Trans::No ? a.cols() : a.rows();
  FTLA_CHECK((trans == Trans::No ? a.rows() : a.cols()) == n);

  // Scale only the referenced triangle.
  for (int j = 0; j < n; ++j) {
    const int lo = uplo == Uplo::Lower ? j : 0;
    const int hi = uplo == Uplo::Lower ? n : j + 1;
    double* col = &c(0, j);
    if (beta == 0.0) {
      for (int i = lo; i < hi; ++i) col[i] = 0.0;
    } else if (beta != 1.0) {
      for (int i = lo; i < hi; ++i) col[i] *= beta;
    }
  }
  if (alpha == 0.0 || k == 0 || n == 0) return;

  if (static_cast<long long>(n) * n * k <= kSmallWork) {
    if (trans == Trans::No) {
      // C += alpha * A A^T on the triangle: rank-1 updates per column.
      for (int l = 0; l < k; ++l) {
        const double* al = &a(0, l);
        for (int j = 0; j < n; ++j) {
          const double t = alpha * al[j];
          if (t == 0.0) continue;
          double* cj = &c(0, j);
          const int lo = uplo == Uplo::Lower ? j : 0;
          const int hi = uplo == Uplo::Lower ? n : j + 1;
          for (int i = lo; i < hi; ++i) cj[i] += t * al[i];
        }
      }
    } else {
      // C += alpha * A^T A: dot products of A's columns.
      for (int j = 0; j < n; ++j) {
        const double* aj = &a(0, j);
        double* cj = &c(0, j);
        const int lo = uplo == Uplo::Lower ? j : 0;
        const int hi = uplo == Uplo::Lower ? n : j + 1;
        for (int i = lo; i < hi; ++i) {
          const double* ai = &a(0, i);
          double s = 0.0;
          for (int l = 0; l < k; ++l) s += ai[l] * aj[l];
          cj[i] += alpha * s;
        }
      }
    }
    return;
  }

  // Blocked: with X = op(A) (n x k), each width-w column panel of the
  // triangle splits into a rectangle (a plain GEMM against X's other
  // rows) and a w x w diagonal block computed square into scratch, of
  // which only the referenced triangle is accumulated.
  const auto xrows = [&](int r0, int rr) {
    return trans == Trans::No ? a.block(r0, 0, rr, k)
                              : a.block(0, r0, k, rr);
  };
  const Trans tx = trans;
  const Trans txt = trans == Trans::No ? Trans::Yes : Trans::No;
  Matrix<double> diag_scratch(std::min(kTriBlock, n), std::min(kTriBlock, n));
  for (int j0 = 0; j0 < n; j0 += kTriBlock) {
    const int w = std::min(kTriBlock, n - j0);
    // gemm_core accumulates, so the diagonal block starts from +0.0.
    const MatrixView<double> tmp = diag_scratch.block(0, 0, w, w);
    scale_inplace(tmp, 0.0);
    gemm_core(tx, xrows(j0, w), txt, xrows(j0, w), alpha, k, tmp);
    for (int j = 0; j < w; ++j) {
      const int lo = uplo == Uplo::Lower ? j : 0;
      const int hi = uplo == Uplo::Lower ? w : j + 1;
      double* cj = &c(j0, j0 + j);
      for (int i = lo; i < hi; ++i) cj[i] += tmp(i, j);
    }
    if (uplo == Uplo::Lower && j0 + w < n) {
      gemm_core(tx, xrows(j0 + w, n - j0 - w), txt, xrows(j0, w), alpha, k,
                c.block(j0 + w, j0, n - j0 - w, w));
    } else if (uplo == Uplo::Upper && j0 > 0) {
      gemm_core(tx, xrows(0, j0), txt, xrows(j0, w), alpha, k,
                c.block(0, j0, j0, w));
    }
  }
}

namespace {

/// In-place X := X op(A)^{-1} for one diagonal block, traversed by
/// columns of X (axpy updates between full columns) instead of the old
/// stride-ld row walk. `lower_acting` means op(A) is lower triangular.
void trsm_right_block(Trans trans, Diag diag, ConstMatrixView<double> a,
                      MatrixView<double> b, bool lower_acting) {
  const int m = b.rows();
  const int w = b.cols();
  const auto tri = [&](int l, int j) {
    return trans == Trans::No ? a(l, j) : a(j, l);
  };
  if (lower_acting) {
    // B(:,j) depends on solved columns l > j: sweep right to left.
    for (int j = w - 1; j >= 0; --j) {
      double* bj = &b(0, j);
      for (int l = j + 1; l < w; ++l) {
        const double t = tri(l, j);
        if (t == 0.0) continue;
        const double* bl = &b(0, l);
        for (int i = 0; i < m; ++i) bj[i] -= t * bl[i];
      }
      if (diag == Diag::NonUnit) {
        const double d = tri(j, j);
        for (int i = 0; i < m; ++i) bj[i] /= d;
      }
    }
  } else {
    for (int j = 0; j < w; ++j) {
      double* bj = &b(0, j);
      for (int l = 0; l < j; ++l) {
        const double t = tri(l, j);
        if (t == 0.0) continue;
        const double* bl = &b(0, l);
        for (int i = 0; i < m; ++i) bj[i] -= t * bl[i];
      }
      if (diag == Diag::NonUnit) {
        const double d = tri(j, j);
        for (int i = 0; i < m; ++i) bj[i] /= d;
      }
    }
  }
}

/// In-place X := X op(A) for one diagonal block, columnwise (mirror of
/// trsm_right_block).
void trmm_right_block(Trans trans, Diag diag, ConstMatrixView<double> a,
                      MatrixView<double> b, bool lower_acting) {
  const int m = b.rows();
  const int w = b.cols();
  const auto tri = [&](int l, int j) {
    return trans == Trans::No ? a(l, j) : a(j, l);
  };
  if (lower_acting) {
    // New B(:,j) reads original columns l > j: sweep left to right.
    for (int j = 0; j < w; ++j) {
      double* bj = &b(0, j);
      if (diag == Diag::NonUnit) {
        const double d = tri(j, j);
        for (int i = 0; i < m; ++i) bj[i] *= d;
      }
      for (int l = j + 1; l < w; ++l) {
        const double t = tri(l, j);
        if (t == 0.0) continue;
        const double* bl = &b(0, l);
        for (int i = 0; i < m; ++i) bj[i] += t * bl[i];
      }
    }
  } else {
    for (int j = w - 1; j >= 0; --j) {
      double* bj = &b(0, j);
      if (diag == Diag::NonUnit) {
        const double d = tri(j, j);
        for (int i = 0; i < m; ++i) bj[i] *= d;
      }
      for (int l = 0; l < j; ++l) {
        const double t = tri(l, j);
        if (t == 0.0) continue;
        const double* bl = &b(0, l);
        for (int i = 0; i < m; ++i) bj[i] += t * bl[i];
      }
    }
  }
}

}  // namespace

void trsm(Side side, Uplo uplo, Trans trans, Diag diag, double alpha,
          ConstMatrixView<double> a, MatrixView<double> b) {
  const int m = b.rows();
  const int n = b.cols();
  const int ka = side == Side::Left ? m : n;
  FTLA_CHECK(a.rows() == ka && a.cols() == ka);

  scale_inplace(b, alpha);
  if (b.empty()) return;
  const bool lower_acting = (uplo == Uplo::Lower) == (trans == Trans::No);

  if (side == Side::Left) {
    if (m <= kTriBlock) {
      // op(A) X = B: solve each column of B independently.
      for (int j = 0; j < n; ++j) trsv(uplo, trans, diag, a, &b(0, j), 1);
      return;
    }
    // Blocked substitution: small per-column solves on the diagonal
    // blocks, GEMM rank-w updates for everything else.
    if (lower_acting) {
      for (int k0 = 0; k0 < m; k0 += kTriBlock) {
        const int w = std::min(kTriBlock, m - k0);
        const ConstMatrixView<double> akk = a.block(k0, k0, w, w);
        MatrixView<double> bk = b.block(k0, 0, w, n);
        for (int j = 0; j < n; ++j) trsv(uplo, trans, diag, akk, &bk(0, j), 1);
        const int rest = m - k0 - w;
        if (rest > 0) {
          if (trans == Trans::No) {
            gemm(Trans::No, Trans::No, -1.0, a.block(k0 + w, k0, rest, w),
                 bk, 1.0, b.block(k0 + w, 0, rest, n));
          } else {
            gemm(Trans::Yes, Trans::No, -1.0, a.block(k0, k0 + w, w, rest),
                 bk, 1.0, b.block(k0 + w, 0, rest, n));
          }
        }
      }
    } else {
      for (int k0 = (m - 1) / kTriBlock * kTriBlock; k0 >= 0;
           k0 -= kTriBlock) {
        const int w = std::min(kTriBlock, m - k0);
        const ConstMatrixView<double> akk = a.block(k0, k0, w, w);
        MatrixView<double> bk = b.block(k0, 0, w, n);
        for (int j = 0; j < n; ++j) trsv(uplo, trans, diag, akk, &bk(0, j), 1);
        if (k0 > 0) {
          if (trans == Trans::No) {
            gemm(Trans::No, Trans::No, -1.0, a.block(0, k0, k0, w), bk, 1.0,
                 b.block(0, 0, k0, n));
          } else {
            gemm(Trans::Yes, Trans::No, -1.0, a.block(k0, 0, w, k0), bk, 1.0,
                 b.block(0, 0, k0, n));
          }
        }
      }
    }
    return;
  }

  // Side::Right: X op(A) = B over column blocks of A — GEMM updates from
  // already-solved column blocks of X, then a columnwise in-block solve.
  // (The old path ran a trsv per row of B with stride ld; this traversal
  // is column-contiguous throughout.)
  if (lower_acting) {
    for (int k0 = (n - 1) / kTriBlock * kTriBlock; k0 >= 0;
         k0 -= kTriBlock) {
      const int w = std::min(kTriBlock, n - k0);
      MatrixView<double> bk = b.block(0, k0, m, w);
      const int rest = n - k0 - w;
      if (rest > 0) {
        if (trans == Trans::No) {
          gemm(Trans::No, Trans::No, -1.0, b.block(0, k0 + w, m, rest),
               a.block(k0 + w, k0, rest, w), 1.0, bk);
        } else {
          gemm(Trans::No, Trans::Yes, -1.0, b.block(0, k0 + w, m, rest),
               a.block(k0, k0 + w, w, rest), 1.0, bk);
        }
      }
      trsm_right_block(trans, diag, a.block(k0, k0, w, w), bk,
                       /*lower_acting=*/true);
    }
  } else {
    for (int k0 = 0; k0 < n; k0 += kTriBlock) {
      const int w = std::min(kTriBlock, n - k0);
      MatrixView<double> bk = b.block(0, k0, m, w);
      if (k0 > 0) {
        if (trans == Trans::No) {
          gemm(Trans::No, Trans::No, -1.0, b.block(0, 0, m, k0),
               a.block(0, k0, k0, w), 1.0, bk);
        } else {
          gemm(Trans::No, Trans::Yes, -1.0, b.block(0, 0, m, k0),
               a.block(k0, 0, w, k0), 1.0, bk);
        }
      }
      trsm_right_block(trans, diag, a.block(k0, k0, w, w), bk,
                       /*lower_acting=*/false);
    }
  }
}

void trmm(Side side, Uplo uplo, Trans trans, Diag diag, double alpha,
          ConstMatrixView<double> a, MatrixView<double> b) {
  const int m = b.rows();
  const int n = b.cols();
  const int ka = side == Side::Left ? m : n;
  FTLA_CHECK(a.rows() == ka && a.cols() == ka);
  if (b.empty()) {
    scale_inplace(b, alpha);
    return;
  }
  const bool lower_acting = (uplo == Uplo::Lower) == (trans == Trans::No);

  if (side == Side::Left) {
    if (m <= kTriBlock) {
      for (int j = 0; j < n; ++j) trmv(uplo, trans, diag, a, &b(0, j), 1);
    } else if (lower_acting) {
      // Row block i reads original row blocks above it: sweep bottom-up.
      for (int k0 = (m - 1) / kTriBlock * kTriBlock; k0 >= 0;
           k0 -= kTriBlock) {
        const int w = std::min(kTriBlock, m - k0);
        const ConstMatrixView<double> akk = a.block(k0, k0, w, w);
        MatrixView<double> bk = b.block(k0, 0, w, n);
        for (int j = 0; j < n; ++j) trmv(uplo, trans, diag, akk, &bk(0, j), 1);
        if (k0 > 0) {
          if (trans == Trans::No) {
            gemm(Trans::No, Trans::No, 1.0, a.block(k0, 0, w, k0),
                 b.block(0, 0, k0, n), 1.0, bk);
          } else {
            gemm(Trans::Yes, Trans::No, 1.0, a.block(0, k0, k0, w),
                 b.block(0, 0, k0, n), 1.0, bk);
          }
        }
      }
    } else {
      // Upper-acting: row block i reads original row blocks below it.
      for (int k0 = 0; k0 < m; k0 += kTriBlock) {
        const int w = std::min(kTriBlock, m - k0);
        const ConstMatrixView<double> akk = a.block(k0, k0, w, w);
        MatrixView<double> bk = b.block(k0, 0, w, n);
        for (int j = 0; j < n; ++j) trmv(uplo, trans, diag, akk, &bk(0, j), 1);
        const int rest = m - k0 - w;
        if (rest > 0) {
          if (trans == Trans::No) {
            gemm(Trans::No, Trans::No, 1.0, a.block(k0, k0 + w, w, rest),
                 b.block(k0 + w, 0, rest, n), 1.0, bk);
          } else {
            gemm(Trans::Yes, Trans::No, 1.0, a.block(k0 + w, k0, rest, w),
                 b.block(k0 + w, 0, rest, n), 1.0, bk);
          }
        }
      }
    }
  } else if (lower_acting) {
    // Side::Right, op(A) lower: column block j reads original column
    // blocks to its right — sweep left to right, columnwise throughout.
    for (int k0 = 0; k0 < n; k0 += kTriBlock) {
      const int w = std::min(kTriBlock, n - k0);
      MatrixView<double> bk = b.block(0, k0, m, w);
      trmm_right_block(trans, diag, a.block(k0, k0, w, w), bk,
                       /*lower_acting=*/true);
      const int rest = n - k0 - w;
      if (rest > 0) {
        if (trans == Trans::No) {
          gemm(Trans::No, Trans::No, 1.0, b.block(0, k0 + w, m, rest),
               a.block(k0 + w, k0, rest, w), 1.0, bk);
        } else {
          gemm(Trans::No, Trans::Yes, 1.0, b.block(0, k0 + w, m, rest),
               a.block(k0, k0 + w, w, rest), 1.0, bk);
        }
      }
    }
  } else {
    for (int k0 = (n - 1) / kTriBlock * kTriBlock; k0 >= 0;
         k0 -= kTriBlock) {
      const int w = std::min(kTriBlock, n - k0);
      MatrixView<double> bk = b.block(0, k0, m, w);
      trmm_right_block(trans, diag, a.block(k0, k0, w, w), bk,
                       /*lower_acting=*/false);
      if (k0 > 0) {
        if (trans == Trans::No) {
          gemm(Trans::No, Trans::No, 1.0, b.block(0, 0, m, k0),
               a.block(0, k0, k0, w), 1.0, bk);
        } else {
          gemm(Trans::No, Trans::Yes, 1.0, b.block(0, 0, m, k0),
               a.block(k0, 0, w, k0), 1.0, bk);
        }
      }
    }
  }
  scale_inplace(b, alpha);
}

void symmetrize(Uplo stored, MatrixView<double> a) {
  const int n = a.rows();
  FTLA_CHECK(a.cols() == n);
  for (int j = 0; j < n; ++j) {
    for (int i = j + 1; i < n; ++i) {
      if (stored == Uplo::Lower) {
        a(j, i) = a(i, j);
      } else {
        a(i, j) = a(j, i);
      }
    }
  }
}

}  // namespace ftla::blas
