// LAPACK subset needed by the Cholesky drivers: unblocked and blocked
// Cholesky factorization, triangular solves against a factorization,
// and matrix norms / residual helpers used in tests and examples.
#pragma once

#include "blas/types.hpp"
#include "common/matrix.hpp"

namespace ftla::blas {

enum class Norm { One, Inf, Fro, Max };

/// Unblocked Cholesky factorization of the lower triangle (LAPACK dpotf2,
/// Uplo::Lower). On exit the lower triangle of `a` holds L with
/// A = L L^T; the strict upper triangle is not referenced.
/// Throws ftla::NotPositiveDefiniteError if a pivot is not positive —
/// this is the fail-stop path a storage error can trigger (paper §III).
void potf2(MatrixView<double> a);

/// Blocked Cholesky factorization (LAPACK dpotrf, Uplo::Lower) with
/// block size `nb`; right-looking variant.
void potrf(MatrixView<double> a, int nb = 64);

/// Solves A x = b for nrhs right-hand sides given the Cholesky factor L
/// in the lower triangle of `l` (LAPACK dpotrs).
void potrs(ConstMatrixView<double> l, MatrixView<double> b);

/// Unblocked LU factorization without pivoting (LAPACK dgetf2 minus the
/// row exchanges) of an m x n panel: on exit the strictly-lower part
/// holds the multipliers of unit-lower L and the upper part holds U.
/// Intended for diagonally dominant matrices, where no-pivot LU is
/// backward stable. Throws ftla::NotPositiveDefiniteError on a zero or
/// non-finite pivot (reusing the fail-stop channel).
void getf2_nopiv(MatrixView<double> a);

/// Blocked right-looking LU without pivoting (dgetrf-style) with block
/// size `nb`.
void getrf_nopiv(MatrixView<double> a, int nb = 64);

/// Relative factorization residual ||A - L U||_F / ||A||_F where the
/// unit-lower L and upper U are packed in `lu` (getrf_nopiv output).
double lu_residual(ConstMatrixView<double> a_original,
                   ConstMatrixView<double> lu);

/// Matrix norm of a general rectangular view. As in LAPACK dlange, a
/// NaN entry makes every norm NaN.
double lange(Norm norm, ConstMatrixView<double> a);

/// Relative factorization residual ||A - L L^T||_F / ||A||_F, using only
/// the lower triangles (the canonical accuracy check for Cholesky).
double cholesky_residual(ConstMatrixView<double> a_original,
                         ConstMatrixView<double> l);

namespace detail {

using Residual = double (*)(ConstMatrixView<double> a_original,
                            ConstMatrixView<double> factor);

/// Test hooks: the portable residual oracles (column loops) and their
/// AVX2 twins (register tiles; nullptr when cpu_has_avx2() is false),
/// which cholesky_residual and lu_residual run whenever they exist. Both
/// sum every entry's products in the same order and feed the norm in the
/// same order, so their residuals are bit-identical.
[[nodiscard]] Residual portable_cholesky_residual();
[[nodiscard]] Residual avx2_cholesky_residual();
[[nodiscard]] Residual portable_lu_residual();
[[nodiscard]] Residual avx2_lu_residual();

}  // namespace detail

/// Max absolute elementwise difference between two equally sized views;
/// NaN if any difference is NaN.
double max_abs_diff(ConstMatrixView<double> a, ConstMatrixView<double> b);

}  // namespace ftla::blas
