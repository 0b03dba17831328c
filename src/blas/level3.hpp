// BLAS Level-3: matrix-matrix operations on column-major views.
//
// These are the routines MAGMA's hybrid Cholesky dispatches to the GPU
// (GEMM, SYRK, TRSM). The implementations are cache-blocked with packed
// operand panels and an 8 x 6 register-tiled microkernel (AVX2
// intrinsics, chosen at run time from CPUID, with a bit-identical
// portable C++ fallback), parallelized over row panels through the
// shared thread pool (common/thread_pool.hpp). The naive loops in
// blas/reference.cpp remain the conformance oracle; docs/performance.md
// describes the blocking scheme and how to tune it.
#pragma once

#include "blas/types.hpp"
#include "common/matrix.hpp"

namespace ftla::blas {

using ftla::ConstMatrixView;
using ftla::MatrixView;

// Blocking parameters of the packed GEMM core (see docs/performance.md).
// Exposed so tests can probe sizes straddling the panel boundaries and
// benches can report the configuration they measured.
inline constexpr int kGemmMR = 8;    ///< microkernel rows (register tile)
inline constexpr int kGemmNR = 6;    ///< microkernel cols (register tile)
inline constexpr int kGemmMC = 120;  ///< packed-A panel rows (L2 resident)
inline constexpr int kGemmKC = 256;  ///< shared panel depth (L1/L2)
inline constexpr int kGemmNC = 1024; ///< packed-B panel cols (L3 resident)
/// Diagonal-block width of the blocked triangular routines (TRSM/TRMM)
/// and the SYRK column panel.
inline constexpr int kTriBlock = 64;

/// C := alpha * op(A) op(B) + beta * C
void gemm(Trans ta, Trans tb, double alpha, ConstMatrixView<double> a,
          ConstMatrixView<double> b, double beta, MatrixView<double> c);

/// C := alpha * op(A) op(A)^T + beta * C, only the `uplo` triangle of the
/// n x n result is referenced/updated.
void syrk(Uplo uplo, Trans trans, double alpha, ConstMatrixView<double> a,
          double beta, MatrixView<double> c);

/// B := alpha * op(A)^{-1} B (Side::Left) or alpha * B op(A)^{-1}
/// (Side::Right), with A triangular.
void trsm(Side side, Uplo uplo, Trans trans, Diag diag, double alpha,
          ConstMatrixView<double> a, MatrixView<double> b);

/// B := alpha * op(A) B (Side::Left) or alpha * B op(A) (Side::Right),
/// with A triangular.
void trmm(Side side, Uplo uplo, Trans trans, Diag diag, double alpha,
          ConstMatrixView<double> a, MatrixView<double> b);

namespace detail {

/// One MR x NR microkernel of the packed GEMM core:
/// C[0:mr, 0:nr] += ap * bp over depth kc, where `ap` holds kc packed
/// columns of kGemmMR rows and `bp` kc packed rows of kGemmNR columns.
/// Each C element sums its kc products from zero in ascending order and
/// is then added to C once.
using MicroKernel = void (*)(int kc, const double* ap, const double* bp,
                             double* c, int ldc, int mr, int nr);

/// True when the running CPU (and the OS) supports AVX2. Detected once,
/// on first call; always false on non-x86 builds.
[[nodiscard]] bool cpu_has_avx2();

/// Test hooks: the portable microkernel, and the AVX2 one (nullptr
/// when cpu_has_avx2() is false). The GEMM core runs the AVX2 kernel
/// whenever it exists; both round every product and sum alike, so
/// their results are bit-identical.
[[nodiscard]] MicroKernel portable_micro_kernel();
[[nodiscard]] MicroKernel avx2_micro_kernel();

}  // namespace detail

/// Copies the `uplo` triangle of a symmetric matrix into the other
/// triangle so the matrix becomes explicitly symmetric.
void symmetrize(Uplo stored, MatrixView<double> a);

}  // namespace ftla::blas
