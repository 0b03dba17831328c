// Deliberately naive, obviously-correct reference implementations used
// as test oracles for the optimized routines in level2/level3, for the
// residual oracles in lapack/qr and for the block-reflector update in
// qr. The BLAS and residual twins are written element-wise — a
// completely different code shape from the production loops — so a
// shared bug is unlikely. larfb_left_t keeps the plain loops that the
// lane kernels must reproduce bit for bit.
#pragma once

#include "blas/types.hpp"
#include "common/matrix.hpp"

namespace ftla::blas::ref {

void gemm(Trans ta, Trans tb, double alpha, ConstMatrixView<double> a,
          ConstMatrixView<double> b, double beta, MatrixView<double> c);

void syrk(Uplo uplo, Trans trans, double alpha, ConstMatrixView<double> a,
          double beta, MatrixView<double> c);

void trsm(Side side, Uplo uplo, Trans trans, Diag diag, double alpha,
          ConstMatrixView<double> a, MatrixView<double> b);

void trmm(Side side, Uplo uplo, Trans trans, Diag diag, double alpha,
          ConstMatrixView<double> a, MatrixView<double> b);

void gemv(Trans trans, double alpha, ConstMatrixView<double> a,
          const double* x, int incx, double beta, double* y, int incy);

/// Cholesky by the textbook jik formula (no BLAS calls at all).
void potrf(MatrixView<double> a);

/// The block-reflector update of blas::larfb_left_t as plain column
/// loops, one W entry and then one C column at a time: the bit-for-bit
/// reference of its lane kernels.
void larfb_left_t(ConstMatrixView<double> v, ConstMatrixView<double> t,
                  MatrixView<double> c);

/// Conformance twins of the residual oracles in blas/lapack and blas/qr:
/// the same quantities, computed element by element with each entry's
/// dot product read along rows (Cholesky, LU) or with every reflector
/// applied to every column (QR).
double cholesky_residual(ConstMatrixView<double> a_original,
                         ConstMatrixView<double> l);
double lu_residual(ConstMatrixView<double> a_original,
                   ConstMatrixView<double> lu);
double qr_residual(ConstMatrixView<double> a_original,
                   ConstMatrixView<double> packed, const double* tau);

}  // namespace ftla::blas::ref
