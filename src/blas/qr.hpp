// Householder QR substrate (LAPACK geqf2/larft/larfb subset) used by the
// fault-tolerant QR extension.
//
// Conventions follow LAPACK: reflectors are H_j = I - tau_j v_j v_j^T
// with v_j(j) = 1 implicit and v_j stored below the diagonal of the
// packed factor; R sits on and above the diagonal. A block of k
// reflectors composes into H_1 H_2 ... H_k = I - V T V^T with V the
// unit-lower panel and T upper triangular (forward columnwise larft).
#pragma once

#include "blas/types.hpp"
#include "common/matrix.hpp"

namespace ftla::blas {

/// Unblocked Householder QR of an m x k panel (LAPACK dgeqf2). On exit
/// the panel is packed (V below the diagonal, R on/above); tau[0..k)
/// receives the reflector scalars.
void geqf2(MatrixView<double> a, double* tau);

/// Forms the k x k upper-triangular block-reflector factor T for the
/// packed m x k panel V, k <= m (LAPACK dlarft, forward columnwise).
void larft(ConstMatrixView<double> v, const double* tau,
           MatrixView<double> t);

/// Applies the block reflector from the left: C := (I - V T V^T)^T C
/// = (I - V T^T V^T) C, i.e. Q_panel^T C — the trailing update of
/// blocked QR (LAPACK dlarfb, Left/Transpose/Forward/Columnwise).
/// `v` is the packed m x k panel (unit diagonal implicit, R part
/// ignored), k <= m. W = V^T C and C -= V W run many of their
/// independent sums side by side (AVX2 lanes when the CPU has them),
/// each sum in the order of the plain loops in ref::larfb_left_t, so
/// the result is bit-identical to them.
void larfb_left_t(ConstMatrixView<double> v, ConstMatrixView<double> t,
                  MatrixView<double> c);

/// Blocked Householder QR of a square n x n matrix with block size nb
/// (dgeqrf-style). tau must hold n entries.
void geqrf(MatrixView<double> a, double* tau, int nb = 64);

/// Applies Q (or Q^T) of a packed QR factorization to C in place, using
/// the unblocked reflectors (test/oracle quality, O(m^2 n)).
void apply_q(ConstMatrixView<double> packed, const double* tau,
             MatrixView<double> c, bool transpose);

/// Relative residual ||A - Q R||_F / ||A||_F for a packed square
/// factorization. The reconstruction Q R is stored transposed, so each
/// reflector updates its columns side by side; for a finite factor the
/// bits are those of applying Q with apply_q (ref::qr_residual).
double qr_residual(ConstMatrixView<double> a_original,
                   ConstMatrixView<double> packed, const double* tau);

namespace detail {

using LarfbLeftT = void (*)(ConstMatrixView<double> v,
                            ConstMatrixView<double> t, MatrixView<double> c);
using QrResidual = double (*)(ConstMatrixView<double> a_original,
                              ConstMatrixView<double> packed,
                              const double* tau);

/// Test hooks: the portable kernels of larfb_left_t and qr_residual, and
/// their AVX2 twins (nullptr when cpu_has_avx2() is false), which the
/// public entry points run whenever they exist. Both twins keep every
/// sum's order, so their results are bit-identical.
[[nodiscard]] LarfbLeftT portable_larfb_left_t();
[[nodiscard]] LarfbLeftT avx2_larfb_left_t();
[[nodiscard]] QrResidual portable_qr_residual();
[[nodiscard]] QrResidual avx2_qr_residual();

}  // namespace detail

}  // namespace ftla::blas
