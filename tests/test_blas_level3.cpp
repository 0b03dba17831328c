// BLAS Level-3 tests: optimized routines against the naive reference
// oracle across the full parameter space (transposes, sides, triangles,
// alpha/beta, including empty and degenerate shapes).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

#include "blas/level3.hpp"
#include "blas/reference.hpp"
#include "test_util.hpp"

namespace ftla::blas {
namespace {

using test::random_matrix;

class GemmParam
    : public ::testing::TestWithParam<
          std::tuple<int, int, int, Trans, Trans, double, double>> {};

TEST_P(GemmParam, MatchesReference) {
  const auto [m, n, k, ta, tb, alpha, beta] = GetParam();
  auto a = ta == Trans::No ? random_matrix(m, k, 1) : random_matrix(k, m, 1);
  auto b = tb == Trans::No ? random_matrix(k, n, 2) : random_matrix(n, k, 2);
  auto c = random_matrix(m, n, 3);
  auto c_ref = c;
  gemm(ta, tb, alpha, a.view(), b.view(), beta, c.view());
  ref::gemm(ta, tb, alpha, a.view(), b.view(), beta, c_ref.view());
  EXPECT_MATRIX_NEAR(c, c_ref, 1e-11);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmParam,
    ::testing::Combine(
        ::testing::Values(1, 8, 21), ::testing::Values(1, 5, 17),
        ::testing::Values(1, 9, 30),
        ::testing::Values(Trans::No, Trans::Yes),
        ::testing::Values(Trans::No, Trans::Yes),
        ::testing::Values(1.0, -0.7), ::testing::Values(0.0, 1.0, 0.5)));

TEST(Gemm, EmptyInnerDimensionScalesOnly) {
  auto a = random_matrix(4, 0, 4);
  auto b = random_matrix(0, 3, 5);
  auto c = random_matrix(4, 3, 6);
  auto expect = c;
  for (int j = 0; j < 3; ++j)
    for (int i = 0; i < 4; ++i) expect(i, j) *= 0.5;
  gemm(Trans::No, Trans::No, 1.0, a.view(), b.view(), 0.5, c.view());
  EXPECT_MATRIX_NEAR(c, expect, 0.0);
}

TEST(Gemm, SubBlockViewsWithLargeLd) {
  auto big_a = random_matrix(10, 10, 7);
  auto big_b = random_matrix(10, 10, 8);
  auto big_c = random_matrix(10, 10, 9);
  auto c_ref = big_c;
  gemm(Trans::No, Trans::Yes, 2.0, big_a.block(2, 1, 4, 5),
       big_b.block(3, 2, 3, 5), 1.0, big_c.block(1, 1, 4, 3));
  ref::gemm(Trans::No, Trans::Yes, 2.0,
            ConstMatrixView<double>(big_a.block(2, 1, 4, 5)),
            ConstMatrixView<double>(big_b.block(3, 2, 3, 5)), 1.0,
            c_ref.block(1, 1, 4, 3));
  EXPECT_MATRIX_NEAR(big_c, c_ref, 1e-12);
}

class SyrkParam
    : public ::testing::TestWithParam<
          std::tuple<int, int, Uplo, Trans, double, double>> {};

TEST_P(SyrkParam, MatchesReference) {
  const auto [n, k, uplo, trans, alpha, beta] = GetParam();
  auto a =
      trans == Trans::No ? random_matrix(n, k, 10) : random_matrix(k, n, 10);
  auto c = random_matrix(n, n, 11);
  auto c_ref = c;
  syrk(uplo, trans, alpha, a.view(), beta, c.view());
  ref::syrk(uplo, trans, alpha, a.view(), beta, c_ref.view());
  EXPECT_MATRIX_NEAR(c, c_ref, 1e-11);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SyrkParam,
    ::testing::Combine(::testing::Values(1, 6, 19), ::testing::Values(1, 8, 25),
                       ::testing::Values(Uplo::Lower, Uplo::Upper),
                       ::testing::Values(Trans::No, Trans::Yes),
                       ::testing::Values(1.0, -1.0),
                       ::testing::Values(0.0, 1.0)));

TEST(Syrk, LeavesOppositeTriangleUntouched) {
  auto a = random_matrix(5, 7, 12);
  Matrix<double> c(5, 5, 99.0);
  syrk(Uplo::Lower, Trans::No, 1.0, a.view(), 0.0, c.view());
  for (int j = 0; j < 5; ++j)
    for (int i = 0; i < j; ++i) EXPECT_EQ(c(i, j), 99.0);
}

class TrsmParam
    : public ::testing::TestWithParam<
          std::tuple<int, int, Side, Uplo, Trans, Diag, double>> {};

TEST_P(TrsmParam, MatchesReference) {
  const auto [m, n, side, uplo, trans, diag, alpha] = GetParam();
  const int ka = side == Side::Left ? m : n;
  auto a = random_matrix(ka, ka, 13);
  for (int i = 0; i < ka; ++i) a(i, i) = 3.0 + 0.5 * i;
  auto b = random_matrix(m, n, 14);
  auto b_ref = b;
  trsm(side, uplo, trans, diag, alpha, a.view(), b.view());
  ref::trsm(side, uplo, trans, diag, alpha, a.view(), b_ref.view());
  EXPECT_MATRIX_NEAR(b, b_ref, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    AllCases, TrsmParam,
    ::testing::Combine(::testing::Values(1, 6, 14), ::testing::Values(1, 5, 11),
                       ::testing::Values(Side::Left, Side::Right),
                       ::testing::Values(Uplo::Lower, Uplo::Upper),
                       ::testing::Values(Trans::No, Trans::Yes),
                       ::testing::Values(Diag::NonUnit, Diag::Unit),
                       ::testing::Values(1.0, 2.0)));

TEST(Trsm, InverseOfTrmmRoundTrip) {
  const int m = 9, n = 7;
  auto a = random_matrix(n, n, 15);
  for (int i = 0; i < n; ++i) a(i, i) = 4.0 + i;
  auto b0 = random_matrix(m, n, 16);
  auto b = b0;
  trmm(Side::Right, Uplo::Lower, Trans::Yes, Diag::NonUnit, 1.0, a.view(),
       b.view());
  trsm(Side::Right, Uplo::Lower, Trans::Yes, Diag::NonUnit, 1.0, a.view(),
       b.view());
  EXPECT_MATRIX_NEAR(b, b0, 1e-10);
}

class TrmmParam
    : public ::testing::TestWithParam<
          std::tuple<int, int, Side, Uplo, Trans, Diag>> {};

TEST_P(TrmmParam, MatchesReference) {
  const auto [m, n, side, uplo, trans, diag] = GetParam();
  const int ka = side == Side::Left ? m : n;
  auto a = random_matrix(ka, ka, 17);
  auto b = random_matrix(m, n, 18);
  auto b_ref = b;
  trmm(side, uplo, trans, diag, 1.5, a.view(), b.view());
  ref::trmm(side, uplo, trans, diag, 1.5, a.view(), b_ref.view());
  EXPECT_MATRIX_NEAR(b, b_ref, 1e-11);
}

INSTANTIATE_TEST_SUITE_P(
    AllCases, TrmmParam,
    ::testing::Combine(::testing::Values(2, 8), ::testing::Values(3, 9),
                       ::testing::Values(Side::Left, Side::Right),
                       ::testing::Values(Uplo::Lower, Uplo::Upper),
                       ::testing::Values(Trans::No, Trans::Yes),
                       ::testing::Values(Diag::NonUnit, Diag::Unit)));

TEST(Symmetrize, MirrorsLowerToUpper) {
  auto a = random_matrix(6, 6, 19);
  symmetrize(Uplo::Lower, a.view());
  for (int j = 0; j < 6; ++j)
    for (int i = 0; i < 6; ++i) EXPECT_EQ(a(i, j), a(j, i));
}

TEST(Symmetrize, MirrorsUpperToLower) {
  auto a = random_matrix(5, 5, 20);
  auto orig = a;
  symmetrize(Uplo::Upper, a.view());
  for (int j = 0; j < 5; ++j)
    for (int i = 0; i <= j; ++i) EXPECT_EQ(a(i, j), orig(i, j));
  for (int j = 0; j < 5; ++j)
    for (int i = 0; i < 5; ++i) EXPECT_EQ(a(i, j), a(j, i));
}

// --------------------------------------------------------------------
// Cache-blocked path: sizes straddling the packing-panel boundaries.
// --------------------------------------------------------------------

class GemmBoundaryParam
    : public ::testing::TestWithParam<
          std::tuple<int, int, Trans, Trans, double, double>> {};

TEST_P(GemmBoundaryParam, MatchesReferenceAroundPanelEdges) {
  const auto [m, k, ta, tb, alpha, beta] = GetParam();
  const int n = kGemmNR + 1;  // forces a partial NR strip as well
  auto a = ta == Trans::No ? random_matrix(m, k, 21) : random_matrix(k, m, 21);
  auto b = tb == Trans::No ? random_matrix(k, n, 22) : random_matrix(n, k, 22);
  auto c = random_matrix(m, n, 23);
  auto c_ref = c;
  gemm(ta, tb, alpha, a.view(), b.view(), beta, c.view());
  ref::gemm(ta, tb, alpha, a.view(), b.view(), beta, c_ref.view());
  EXPECT_MATRIX_NEAR(c, c_ref, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    PanelEdges, GemmBoundaryParam,
    ::testing::Combine(::testing::Values(kGemmMC - 1, kGemmMC + 1),
                       ::testing::Values(kGemmKC - 1, kGemmKC + 1),
                       ::testing::Values(Trans::No, Trans::Yes),
                       ::testing::Values(Trans::No, Trans::Yes),
                       ::testing::Values(-1.0, 0.3),
                       ::testing::Values(0.0, 0.3)));

TEST(GemmBlocked, FullAlphaBetaGridOnBlockedPath) {
  // Big enough for the packed core, awkward enough (primes) to leave
  // partial MR/NR/KC tiles everywhere.
  const int m = 37, n = 29, k = 41;
  for (const double alpha : {0.0, 1.0, -1.0, 0.3}) {
    for (const double beta : {0.0, 1.0, -1.0, 0.3}) {
      auto a = random_matrix(m, k, 24);
      auto b = random_matrix(k, n, 25);
      auto c = random_matrix(m, n, 26);
      auto c_ref = c;
      gemm(Trans::No, Trans::No, alpha, a.view(), b.view(), beta, c.view());
      ref::gemm(Trans::No, Trans::No, alpha, a.view(), b.view(), beta,
                c_ref.view());
      EXPECT_MATRIX_NEAR(c, c_ref, 1e-10);
    }
  }
}

TEST(GemmBlocked, NonContiguousViewsAtPanelBoundary) {
  // ld > rows on every operand, with the operation size right at the
  // MC/KC packing edges.
  const int m = kGemmMC + 1, n = kGemmNR + 2, k = kGemmKC + 1;
  auto big_a = random_matrix(m + 9, k + 5, 27);
  auto big_b = random_matrix(k + 7, n + 3, 28);
  auto big_c = random_matrix(m + 4, n + 6, 29);
  auto c_ref = big_c;
  gemm(Trans::No, Trans::No, 1.0, big_a.block(3, 2, m, k),
       big_b.block(5, 1, k, n), -0.5, big_c.block(2, 4, m, n));
  ref::gemm(Trans::No, Trans::No, 1.0,
            ConstMatrixView<double>(big_a.block(3, 2, m, k)),
            ConstMatrixView<double>(big_b.block(5, 1, k, n)), -0.5,
            c_ref.block(2, 4, m, n));
  EXPECT_MATRIX_NEAR(big_c, c_ref, 1e-9);
}

class SyrkBoundaryParam
    : public ::testing::TestWithParam<std::tuple<int, Uplo, Trans>> {};

TEST_P(SyrkBoundaryParam, MatchesReferenceAroundTriBlockEdges) {
  const auto [n, uplo, trans] = GetParam();
  const int k = kGemmKC + 1;
  auto a =
      trans == Trans::No ? random_matrix(n, k, 30) : random_matrix(k, n, 30);
  auto c = random_matrix(n, n, 31);
  auto c_ref = c;
  syrk(uplo, trans, -1.0, a.view(), 0.3, c.view());
  ref::syrk(uplo, trans, -1.0, a.view(), 0.3, c_ref.view());
  EXPECT_MATRIX_NEAR(c, c_ref, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    PanelEdges, SyrkBoundaryParam,
    ::testing::Combine(::testing::Values(kTriBlock - 1, kTriBlock + 1,
                                         2 * kTriBlock + 1),
                       ::testing::Values(Uplo::Lower, Uplo::Upper),
                       ::testing::Values(Trans::No, Trans::Yes)));

class TriBoundaryParam
    : public ::testing::TestWithParam<
          std::tuple<int, Side, Uplo, Trans, Diag>> {};

/// Triangular factor that stays well-conditioned at depth 2*kTriBlock+1
/// even with a unit diagonal: small centered off-diagonals keep the
/// substitution from amplifying exponentially (which would drown the
/// blocked-vs-reference comparison in conditioning noise).
Matrix<double> boundary_tri(int ka, std::uint64_t seed) {
  auto a = random_matrix(ka, ka, seed);
  for (int j = 0; j < ka; ++j) {
    for (int i = 0; i < ka; ++i) a(i, j) = 0.2 * (a(i, j) - 0.5);
  }
  for (int i = 0; i < ka; ++i) a(i, i) = 3.0 + 0.5 * i;
  return a;
}

TEST_P(TriBoundaryParam, TrsmMatchesReferenceAroundTriBlockEdges) {
  const auto [sz, side, uplo, trans, diag] = GetParam();
  const int m = side == Side::Left ? sz : 33;
  const int n = side == Side::Left ? 33 : sz;
  const int ka = side == Side::Left ? m : n;
  auto a = boundary_tri(ka, 32);
  auto b = random_matrix(m, n, 33);
  auto b_ref = b;
  trsm(side, uplo, trans, diag, -0.7, a.view(), b.view());
  ref::trsm(side, uplo, trans, diag, -0.7, a.view(), b_ref.view());
  EXPECT_MATRIX_NEAR(b, b_ref, 1e-9);
}

TEST_P(TriBoundaryParam, TrmmMatchesReferenceAroundTriBlockEdges) {
  const auto [sz, side, uplo, trans, diag] = GetParam();
  const int m = side == Side::Left ? sz : 33;
  const int n = side == Side::Left ? 33 : sz;
  const int ka = side == Side::Left ? m : n;
  auto a = boundary_tri(ka, 34);
  auto b = random_matrix(m, n, 35);
  auto b_ref = b;
  trmm(side, uplo, trans, diag, 0.3, a.view(), b.view());
  ref::trmm(side, uplo, trans, diag, 0.3, a.view(), b_ref.view());
  EXPECT_MATRIX_NEAR(b, b_ref, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    PanelEdges, TriBoundaryParam,
    ::testing::Combine(::testing::Values(kTriBlock - 1, kTriBlock + 1,
                                         2 * kTriBlock + 1),
                       ::testing::Values(Side::Left, Side::Right),
                       ::testing::Values(Uplo::Lower, Uplo::Upper),
                       ::testing::Values(Trans::No, Trans::Yes),
                       ::testing::Values(Diag::NonUnit, Diag::Unit)));

// --------------------------------------------------------------------
// Thread-count invariance: the parallel GEMM core partitions C into
// disjoint tiles with a barrier per KC step, so results must be
// BIT-identical for every thread count, not merely close.
// --------------------------------------------------------------------

class ThreadedBlas : public ::testing::Test {
 protected:
  void TearDown() override { common::set_global_threads(1); }
};

TEST_F(ThreadedBlas, ResultsAreBitIdenticalAcrossThreadCounts) {
  const int n = 2 * kGemmMC + 7;  // several MC panels => real fan-out
  auto a = random_matrix(n, n, 36);
  auto b = random_matrix(n, n, 37);
  auto tri = random_matrix(n, n, 38);
  for (int i = 0; i < n; ++i) tri(i, i) = 4.0 + 0.25 * i;

  common::set_global_threads(1);
  auto c1 = random_matrix(n, n, 39);
  auto s1 = random_matrix(n, n, 40);
  auto t1 = random_matrix(n, n, 41);
  auto w1 = random_matrix(n, n, 42);
  gemm(Trans::No, Trans::Yes, -1.0, a.view(), b.view(), 1.0, c1.view());
  syrk(Uplo::Lower, Trans::No, -1.0, a.view(), 1.0, s1.view());
  trsm(Side::Right, Uplo::Lower, Trans::No, Diag::NonUnit, 1.0, tri.view(),
       t1.view());
  trmm(Side::Left, Uplo::Upper, Trans::Yes, Diag::NonUnit, 1.0, tri.view(),
       w1.view());

  for (const int threads : {2, 4}) {
    common::set_global_threads(threads);
    auto c = random_matrix(n, n, 39);
    auto s = random_matrix(n, n, 40);
    auto t = random_matrix(n, n, 41);
    auto w = random_matrix(n, n, 42);
    gemm(Trans::No, Trans::Yes, -1.0, a.view(), b.view(), 1.0, c.view());
    syrk(Uplo::Lower, Trans::No, -1.0, a.view(), 1.0, s.view());
    trsm(Side::Right, Uplo::Lower, Trans::No, Diag::NonUnit, 1.0, tri.view(),
         t.view());
    trmm(Side::Left, Uplo::Upper, Trans::Yes, Diag::NonUnit, 1.0, tri.view(),
         w.view());
    EXPECT_TRUE(c == c1) << "gemm differs at threads=" << threads;
    EXPECT_TRUE(s == s1) << "syrk differs at threads=" << threads;
    EXPECT_TRUE(t == t1) << "trsm differs at threads=" << threads;
    EXPECT_TRUE(w == w1) << "trmm differs at threads=" << threads;
  }
}

TEST_F(ThreadedBlas, ParallelGemmMatchesReference) {
  const int m = kGemmMC * 2 + 3, n = 65, k = kGemmKC + 9;
  common::set_global_threads(4);
  auto a = random_matrix(m, k, 43);
  auto b = random_matrix(k, n, 44);
  auto c = random_matrix(m, n, 45);
  auto c_ref = c;
  gemm(Trans::No, Trans::No, 1.0, a.view(), b.view(), -0.3, c.view());
  ref::gemm(Trans::No, Trans::No, 1.0, a.view(), b.view(), -0.3,
            c_ref.view());
  EXPECT_MATRIX_NEAR(c, c_ref, 1e-9);
}

// --------------------------------------------------------------------
// Microkernel sameness: every C element sums its kc products from +0.0
// in ascending p, one rounded multiply and one rounded add each, then is
// added to C once. The portable kernel must produce exactly those bits
// and the AVX2 kernel exactly the portable kernel's, also for signed
// zeros, infinities, NaNs and subnormals.
// --------------------------------------------------------------------

constexpr int kTileLd = kGemmMR + 3;  // ldc > MR: rows below the tile

/// The microkernel contract written out per element.
void reference_tile(int kc, const double* ap, const double* bp, double* c,
                    int ldc, int mr, int nr) {
  for (int j = 0; j < nr; ++j) {
    for (int i = 0; i < mr; ++i) {
      double acc = 0.0;
      for (int p = 0; p < kc; ++p) {
        acc += ap[p * kGemmMR + i] * bp[p * kGemmNR + j];
      }
      c[j * ldc + i] += acc;
    }
  }
}

/// Runs `kernel` and `expected` on identical inputs for every mr x nr
/// corner and the depths around KC, over finite data salted with special
/// values; the whole C buffer, rows and columns outside the tile
/// included, must match byte for byte.
void expect_same_tiles(detail::MicroKernel kernel,
                       detail::MicroKernel expected, std::uint64_t seed) {
  FTLA_SEED_TRACE(seed);
  const double inf = std::numeric_limits<double>::infinity();
  const double specials[] = {0.0,
                             -0.0,
                             inf,
                             -inf,
                             std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::denorm_min(),
                             -0x1.8p-1030,  // subnormal
                             0x1p-540};     // squares to a subnormal
  Rng rng(seed);
  const auto fill = [&](std::vector<double>& v) {
    for (double& x : v) x = rng.uniform(-2.0, 2.0);
    for (const double s : specials) v[rng.next_below(v.size())] = s;
  };
  for (const int kc : {0, 1, 2, kGemmKC - 1, kGemmKC}) {
    const auto depth = static_cast<std::size_t>(std::max(kc, 1));
    std::vector<double> ap(depth * kGemmMR);
    std::vector<double> bp(depth * kGemmNR);
    std::vector<double> c_want(static_cast<std::size_t>(kTileLd) * kGemmNR);
    for (int mr = 1; mr <= kGemmMR; ++mr) {
      for (int nr = 1; nr <= kGemmNR; ++nr) {
        fill(ap);
        fill(bp);
        fill(c_want);
        std::vector<double> c = c_want;
        expected(kc, ap.data(), bp.data(), c_want.data(), kTileLd, mr, nr);
        kernel(kc, ap.data(), bp.data(), c.data(), kTileLd, mr, nr);
        test::canonicalize_nans(c);
        test::canonicalize_nans(c_want);
        EXPECT_EQ(0, std::memcmp(c.data(), c_want.data(),
                                 c.size() * sizeof(double)))
            << "kc=" << kc << " mr=" << mr << " nr=" << nr;
      }
    }
  }
}

TEST(MicroKernel, PortableMatchesContractBitForBit) {
  expect_same_tiles(detail::portable_micro_kernel(), reference_tile,
                    test::root_seed(46));
}

TEST(MicroKernel, Avx2MatchesPortableBitForBit) {
  const detail::MicroKernel avx2 = detail::avx2_micro_kernel();
  if (avx2 == nullptr) GTEST_SKIP() << "no AVX2 on this CPU";
  expect_same_tiles(avx2, detail::portable_micro_kernel(),
                    test::root_seed(47));
}

TEST(FlopCounts, MatchClosedForms) {
  EXPECT_EQ(gemm_flops(3, 4, 5), 120);
  EXPECT_EQ(syrk_flops(4, 6), 4 * 5 * 6);
  EXPECT_EQ(trsm_flops(Side::Left, 5, 7), 25 * 7);
  EXPECT_EQ(trsm_flops(Side::Right, 5, 7), 49 * 5);
  EXPECT_EQ(gemv_flops(6, 7), 84);
  EXPECT_EQ(potrf_flops(10), 1000 / 3);
}

}  // namespace
}  // namespace ftla::blas
