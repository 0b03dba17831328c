// LAPACK-subset tests: POTF2/POTRF correctness, failure behaviour on
// non-SPD input, solves, norms and residual helpers.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "blas/lapack.hpp"
#include "blas/level3.hpp"
#include "blas/reference.hpp"
#include "common/error.hpp"
#include "test_util.hpp"

namespace ftla::blas {
namespace {

using test::random_matrix;
using test::random_spd;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
// The campaign and service verdict threshold on a residual.
constexpr double kVerdict = 1e-6;

class PotrfSizes : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PotrfSizes, MatchesUnblockedReference) {
  const auto [n, nb] = GetParam();
  auto a = random_spd(n, n);
  auto l_ref = a;
  ref::potrf(l_ref.view());
  auto l = a;
  potrf(l.view(), nb);
  EXPECT_LE(test::lower_max_diff(l, l_ref), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndBlocks, PotrfSizes,
    ::testing::Combine(::testing::Values(1, 2, 7, 64, 130),
                       ::testing::Values(1, 8, 64)));

TEST(Potf2, SmallResidual) {
  const int n = 96;
  auto a = random_spd(n, 1);
  auto l = a;
  potf2(l.view());
  EXPECT_LT(cholesky_residual(a.view(), l.view()), 1e-13);
}

TEST(Potf2, ThrowsOnIndefiniteMatrix) {
  Matrix<double> a(3, 3, 0.0);
  a(0, 0) = 1.0;
  a(1, 1) = -1.0;  // indefinite
  a(2, 2) = 1.0;
  try {
    potf2(a.view());
    FAIL() << "expected NotPositiveDefiniteError";
  } catch (const NotPositiveDefiniteError& e) {
    EXPECT_EQ(e.column(), 1);
  }
}

TEST(Potf2, ThrowsOnNanInput) {
  auto a = random_spd(8, 2);
  a(4, 4) = std::nan("");
  EXPECT_THROW(potf2(a.view()), NotPositiveDefiniteError);
}

TEST(Potrf, ThrowsOnSemidefinite) {
  // Rank-1 matrix: PSD but singular.
  Matrix<double> a(4, 4);
  for (int j = 0; j < 4; ++j)
    for (int i = 0; i < 4; ++i) a(i, j) = (i + 1.0) * (j + 1.0);
  EXPECT_THROW(potrf(a.view(), 2), NotPositiveDefiniteError);
}

TEST(Potrs, SolvesLinearSystem) {
  const int n = 40;
  auto a = random_spd(n, 3);
  auto x_true = random_matrix(n, 3, 4);
  // b = A x
  Matrix<double> b(n, 3, 0.0);
  gemm(Trans::No, Trans::No, 1.0, a.view(), x_true.view(), 0.0, b.view());
  auto l = a;
  potrf(l.view(), 8);
  potrs(ConstMatrixView<double>(l.view()), b.view());
  EXPECT_MATRIX_NEAR(b, x_true, 1e-8);
}

TEST(Lange, KnownValues) {
  Matrix<double> a(2, 3, 0.0);
  a(0, 0) = 1.0;
  a(1, 0) = -2.0;
  a(0, 1) = 3.0;
  a(1, 2) = -4.0;
  EXPECT_DOUBLE_EQ(lange(Norm::Max, a.view()), 4.0);
  EXPECT_DOUBLE_EQ(lange(Norm::One, a.view()), 4.0);   // max col sum
  EXPECT_DOUBLE_EQ(lange(Norm::Inf, a.view()), 6.0);   // max row sum
  EXPECT_NEAR(lange(Norm::Fro, a.view()), std::sqrt(1 + 4 + 9 + 16), 1e-14);
}

TEST(Lange, FroOverflowSafe) {
  Matrix<double> a(2, 2, 1e200);
  EXPECT_NEAR(lange(Norm::Fro, a.view()) / 2e200, 1.0, 1e-12);
}

TEST(CholeskyResidual, ZeroForExactFactor) {
  Matrix<double> l(3, 3, 0.0);
  l(0, 0) = 2.0;
  l(1, 0) = 1.0;
  l(1, 1) = 3.0;
  l(2, 0) = 0.5;
  l(2, 1) = -1.0;
  l(2, 2) = 1.5;
  // A = L L^T, computed exactly.
  Matrix<double> a(3, 3, 0.0);
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j <= i; ++j) {
      double s = 0.0;
      for (int k = 0; k <= j; ++k) s += l(i, k) * l(j, k);
      a(i, j) = s;
      a(j, i) = s;
    }
  EXPECT_LT(cholesky_residual(a.view(), l.view()), 1e-15);
}

TEST(CholeskyResidual, DetectsCorruptedFactor) {
  const int n = 24;
  auto a = random_spd(n, 5);
  auto l = a;
  potrf(l.view());
  l(10, 3) += 1.0;
  EXPECT_GT(cholesky_residual(a.view(), l.view()), 1e-4);
}

TEST(MaxAbsDiff, Basics) {
  auto a = random_matrix(4, 4, 6);
  auto b = a;
  EXPECT_EQ(max_abs_diff(a.view(), b.view()), 0.0);
  b(2, 2) += 0.25;
  EXPECT_DOUBLE_EQ(max_abs_diff(a.view(), b.view()), 0.25);
}

TEST(Lange, NanPropagatesThroughEveryNorm) {
  // LAPACK dlange semantics: one NaN entry, wherever it sits in the
  // visiting order, makes every norm NaN.
  for (const Norm norm : {Norm::Max, Norm::One, Norm::Inf, Norm::Fro}) {
    for (const auto& [i, j] :
         {std::pair{0, 0}, std::pair{1, 2}, std::pair{2, 3}}) {
      auto a = random_matrix(3, 4, 8);
      a(i, j) = kNan;
      SCOPED_TRACE("norm " + std::to_string(static_cast<int>(norm)) +
                   " at (" + std::to_string(i) + "," + std::to_string(j) +
                   ")");
      EXPECT_TRUE(std::isnan(lange(norm, a.view())));
    }
  }
}

TEST(MaxAbsDiff, NanPropagates) {
  const auto a = random_matrix(4, 4, 9);
  for (const auto& [i, j] : {std::pair{0, 0}, std::pair{3, 3}}) {
    auto b = a;
    b(i, j) = kNan;
    EXPECT_TRUE(std::isnan(max_abs_diff(a.view(), b.view())));
  }
}

// ---------------- residual oracles against their naive twins ---------

// The fast oracle against its naive twin: close agreement, and the same
// verdict at the campaign threshold.
void expect_twins_agree(double fast, double naive) {
  if (fast < 1e-12 && naive < 1e-12) {
    EXPECT_NEAR(fast, naive, 1e-13);
  } else {
    EXPECT_LE(std::abs(fast - naive), 1e-10 * std::abs(naive))
        << "fast " << fast << " naive " << naive;
  }
  EXPECT_EQ(fast < kVerdict, naive < kVerdict);
}

constexpr double kPerturbations[] = {1e-9, 1e-6, 1e-3, 1.0};
constexpr double kSpecials[] = {-0.0, kInf, -kInf, kNan};

/// The AVX2 tiles of an oracle against its column loops, bit for bit,
/// and the dispatched oracle against whichever of them it runs.
void expect_same_kernels(detail::Residual portable, detail::Residual avx2,
                         detail::Residual dispatched,
                         ConstMatrixView<double> a,
                         ConstMatrixView<double> f) {
  const double want = portable(a, f);
  if (avx2 != nullptr) {
    EXPECT_TRUE(test::same_bits(avx2(a, f), want));
  }
  EXPECT_TRUE(test::same_bits(dispatched(a, f), want));
}

void expect_same_cholesky(ConstMatrixView<double> a,
                          ConstMatrixView<double> l) {
  expect_same_kernels(detail::portable_cholesky_residual(),
                      detail::avx2_cholesky_residual(), cholesky_residual, a,
                      l);
}

void expect_same_lu(ConstMatrixView<double> a, ConstMatrixView<double> lu) {
  expect_same_kernels(detail::portable_lu_residual(),
                      detail::avx2_lu_residual(), lu_residual, a, lu);
}

TEST(ResidualKernels, Avx2TwinsRunWhereTheCpuHasAvx2) {
  if (!detail::cpu_has_avx2()) GTEST_SKIP() << "no AVX2 on this CPU";
  EXPECT_NE(detail::avx2_cholesky_residual(), nullptr);
  EXPECT_NE(detail::avx2_lu_residual(), nullptr);
}

class ResidualTwins : public ::testing::TestWithParam<int> {};

TEST_P(ResidualTwins, CholeskyMatchesNaive) {
  const int n = GetParam();
  const auto a = random_spd(n, 100 + n);
  auto l = a;
  potrf(l.view());
  auto abuf = test::nan_padded(a, /*lower_only=*/true);
  auto lbuf = test::nan_padded(l, /*lower_only=*/true);
  const auto av = test::nan_padded_view(abuf);
  const auto lv = test::nan_padded_view(lbuf);
  const double clean = cholesky_residual(av, lv);
  EXPECT_LT(clean, 1e-11);
  expect_twins_agree(clean, ref::cholesky_residual(av, lv));
  expect_same_cholesky(av, lv);
  const int i = n - 1;
  const int j = n / 2;
  const double keep = lv(i, j);
  for (const double d : kPerturbations) {
    SCOPED_TRACE("perturbation " + std::to_string(d));
    lv(i, j) = keep + d;
    expect_twins_agree(cholesky_residual(av, lv),
                       ref::cholesky_residual(av, lv));
    expect_same_cholesky(av, lv);
  }
  for (const double x : kSpecials) {
    SCOPED_TRACE("special " + std::to_string(x));
    lv(i, j) = x;
    expect_same_cholesky(av, lv);
  }
}

TEST_P(ResidualTwins, LuMatchesNaive) {
  const int n = GetParam();
  const auto a = random_spd(n, 200 + n);
  auto lu = a;
  getrf_nopiv(lu.view());
  auto abuf = test::nan_padded(a, /*lower_only=*/false);
  auto lubuf = test::nan_padded(lu, /*lower_only=*/false);
  const auto av = test::nan_padded_view(abuf);
  const auto luv = test::nan_padded_view(lubuf);
  const double clean = lu_residual(av, luv);
  EXPECT_LT(clean, 1e-11);
  expect_twins_agree(clean, ref::lu_residual(av, luv));
  expect_same_lu(av, luv);
  // One entry of L (below the diagonal) and one of U (above it).
  for (const auto& [i, j] :
       {std::pair{n - 1, n / 3}, std::pair{n / 3, n - 1}}) {
    const double keep = luv(i, j);
    for (const double d : kPerturbations) {
      SCOPED_TRACE("perturbation " + std::to_string(d) + " at (" +
                   std::to_string(i) + "," + std::to_string(j) + ")");
      luv(i, j) = keep + d;
      expect_twins_agree(lu_residual(av, luv), ref::lu_residual(av, luv));
      expect_same_lu(av, luv);
    }
    for (const double x : kSpecials) {
      SCOPED_TRACE("special " + std::to_string(x));
      luv(i, j) = x;
      expect_same_lu(av, luv);
    }
    luv(i, j) = keep;
  }
}

// Sizes at the edges of the 8 x 6 register tile, the 48-column panel
// and the 256-deep packed slice, and past them.
INSTANTIATE_TEST_SUITE_P(Sizes, ResidualTwins,
                         ::testing::Values(1, 2, 3, 5, 7, 9, 15, 16, 17, 31,
                                           33, 47, 48, 49, 64, 80, 255, 256,
                                           257, 384, 512));

TEST(ResidualOracles, NonFiniteReadEntryReadsAsCorrupt) {
  // A NaN or Inf the oracle reads must never pass the verdict: the
  // residual comes out NaN or at least the threshold, fast and naive.
  const int n = 16;
  const auto a = random_spd(n, 11);
  auto l = a;
  potrf(l.view());
  auto lu = a;
  getrf_nopiv(lu.view());
  auto corrupt = [](double r) { return std::isnan(r) || r >= kVerdict; };
  for (const double bad : {kNan, kInf, -kInf}) {
    for (const auto& [i, j] :
         {std::pair{0, 0}, std::pair{n - 1, 0}, std::pair{9, 4},
          std::pair{n - 1, n - 1}}) {
      SCOPED_TRACE(std::to_string(bad) + " at (" + std::to_string(i) + "," +
                   std::to_string(j) + ")");
      auto lc = l;
      lc(i, j) = bad;
      EXPECT_TRUE(corrupt(cholesky_residual(a.view(), lc.view())));
      EXPECT_TRUE(corrupt(ref::cholesky_residual(a.view(), lc.view())));
      expect_same_cholesky(a.view(), lc.view());
      // The same entry in L and its mirror in U.
      for (const auto& [r, c] : {std::pair{i, j}, std::pair{j, i}}) {
        auto luc = lu;
        luc(r, c) = bad;
        EXPECT_TRUE(corrupt(lu_residual(a.view(), luc.view())));
        EXPECT_TRUE(corrupt(ref::lu_residual(a.view(), luc.view())));
        expect_same_lu(a.view(), luc.view());
      }
    }
  }
}

TEST(Potrf, AgreesWithGramConstruction) {
  // Factor G G^T + nI and check L L^T reproduces it.
  const int n = 48;
  Matrix<double> a(n, n);
  make_spd(a, 7);
  auto l = a;
  potrf(l.view(), 16);
  EXPECT_LT(cholesky_residual(a.view(), l.view()), 1e-12);
}

}  // namespace
}  // namespace ftla::blas
