// Unit tests for the common module: matrix container/views, RNG,
// floating-point utilities, SPD generators, statistics, table formatter.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "blas/lapack.hpp"
#include "blas/reference.hpp"
#include "common/fp.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "common/spd.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "test_util.hpp"

namespace ftla {
namespace {

TEST(Matrix, StorageIsColumnMajor) {
  Matrix<double> m(3, 2);
  m(0, 0) = 1;
  m(1, 0) = 2;
  m(2, 0) = 3;
  m(0, 1) = 4;
  EXPECT_EQ(m.data()[0], 1);
  EXPECT_EQ(m.data()[1], 2);
  EXPECT_EQ(m.data()[2], 3);
  EXPECT_EQ(m.data()[3], 4);
  EXPECT_EQ(m.ld(), 3);
}

TEST(Matrix, FillAndEquality) {
  Matrix<double> a(4, 4, 7.0);
  Matrix<double> b(4, 4);
  b.fill(7.0);
  EXPECT_EQ(a, b);
  b(3, 3) = 8.0;
  EXPECT_FALSE(a == b);
}

TEST(MatrixView, BlockAddressing) {
  Matrix<double> m(6, 6);
  for (int j = 0; j < 6; ++j)
    for (int i = 0; i < 6; ++i) m(i, j) = 10.0 * i + j;
  auto blk = m.block(2, 3, 3, 2);
  EXPECT_EQ(blk.rows(), 3);
  EXPECT_EQ(blk.cols(), 2);
  EXPECT_EQ(blk(0, 0), 23.0);
  EXPECT_EQ(blk(2, 1), 44.0);
  EXPECT_EQ(blk.ld(), 6);
}

TEST(MatrixView, NestedBlocks) {
  Matrix<double> m(8, 8);
  for (int j = 0; j < 8; ++j)
    for (int i = 0; i < 8; ++i) m(i, j) = 10.0 * i + j;
  auto outer = m.block(1, 1, 6, 6);
  auto inner = outer.block(2, 3, 2, 2);
  EXPECT_EQ(inner(0, 0), m(3, 4));
  EXPECT_EQ(inner(1, 1), m(4, 5));
}

TEST(MatrixView, RowAndColViews) {
  Matrix<double> m = test::random_matrix(5, 5, 1);
  auto c = m.view().col(2);
  auto r = m.view().row(3);
  EXPECT_EQ(c.rows(), 5);
  EXPECT_EQ(c.cols(), 1);
  EXPECT_EQ(r.rows(), 1);
  EXPECT_EQ(r.cols(), 5);
  EXPECT_EQ(c(4, 0), m(4, 2));
  EXPECT_EQ(r(0, 4), m(3, 4));
}

TEST(MatrixCopy, RespectsDistinctLeadingDims) {
  Matrix<double> src = test::random_matrix(6, 6, 2);
  Matrix<double> dst(9, 9, 0.0);
  copy(ConstMatrixView<double>(src.block(1, 1, 4, 4)),
       dst.block(3, 2, 4, 4));
  for (int j = 0; j < 4; ++j)
    for (int i = 0; i < 4; ++i)
      EXPECT_EQ(dst(3 + i, 2 + j), src(1 + i, 1 + j));
  EXPECT_EQ(dst(0, 0), 0.0);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformDoublesInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform(-2.0, 3.0);
    EXPECT_GE(x, -2.0);
    EXPECT_LT(x, 3.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng r(9);
  std::set<int> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(r.uniform_int(3, 7));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 3);
  EXPECT_EQ(*seen.rbegin(), 7);
}

TEST(Rng, GaussianMoments) {
  Rng r(11);
  Stats s;
  for (int i = 0; i < 20000; ++i) s.add(r.next_gaussian());
  EXPECT_NEAR(s.mean(), 0.0, 0.05);
  EXPECT_NEAR(s.stddev(), 1.0, 0.05);
}

TEST(Fp, BitFlipRoundTrips) {
  const double x = 3.141592653589793;
  for (int bit = 0; bit < 64; ++bit) {
    const double y = flip_bit(x, bit);
    EXPECT_NE(double_to_bits(x), double_to_bits(y));
    EXPECT_EQ(double_to_bits(flip_bit(y, bit)), double_to_bits(x));
  }
}

TEST(Fp, SignBitFlip) {
  EXPECT_EQ(flip_bit(1.5, 63), -1.5);
}

TEST(Fp, ExponentFlipIsLarge) {
  const double x = 1.0;
  const double y = flip_bit(x, 62);  // top exponent bit
  EXPECT_GT(std::abs(y - x) / std::abs(x), 1e10);
}

TEST(Fp, UlpDistanceAdjacent) {
  const double x = 1.0;
  const double y = std::nextafter(x, 2.0);
  EXPECT_EQ(ulp_distance(x, y), 1u);
  EXPECT_EQ(ulp_distance(x, x), 0u);
}

TEST(Fp, UlpDistanceAcrossZero) {
  const double a = std::nextafter(0.0, 1.0);
  const double b = std::nextafter(0.0, -1.0);
  EXPECT_EQ(ulp_distance(a, b), 2u);
}

TEST(Fp, ApproxEqual) {
  EXPECT_TRUE(approx_equal(1.0, 1.0 + 1e-12, 1e-9));
  EXPECT_FALSE(approx_equal(1.0, 1.01, 1e-9));
  EXPECT_TRUE(approx_equal(0.0, 1e-12, 0.0, 1e-9));
}

TEST(Spd, DiagDominantFactorizes) {
  for (int n : {1, 5, 33, 100}) {
    Matrix<double> a(n, n);
    make_spd_diag_dominant(a, 3);
    Matrix<double> l = a;
    EXPECT_NO_THROW(blas::ref::potrf(l.view())) << "n=" << n;
  }
}

TEST(Spd, GramFactorizes) {
  Matrix<double> a(24, 24);
  make_spd(a, 5);
  Matrix<double> l = a;
  EXPECT_NO_THROW(blas::ref::potrf(l.view()));
}

TEST(Spd, GeneratedMatricesAreSymmetric) {
  Matrix<double> a(40, 40);
  make_spd_diag_dominant(a, 8);
  for (int j = 0; j < 40; ++j)
    for (int i = 0; i < 40; ++i) EXPECT_EQ(a(i, j), a(j, i));
}

TEST(Spd, ExponentialCovarianceFactorizes) {
  Matrix<double> a(32, 32);
  make_spd_exponential(a, 0.8, 13);
  Matrix<double> l = a;
  EXPECT_NO_THROW(blas::ref::potrf(l.view()));
}

TEST(Spd, NormalEquationsFactorize) {
  Matrix<double> a(16, 16);
  make_normal_equations(a, 48, 17);
  Matrix<double> l = a;
  EXPECT_NO_THROW(blas::ref::potrf(l.view()));
}

TEST(Spd, DeterministicForSeed) {
  Matrix<double> a(12, 12), b(12, 12);
  make_spd_diag_dominant(a, 99);
  make_spd_diag_dominant(b, 99);
  EXPECT_EQ(a, b);
}

TEST(Stats, BasicMoments) {
  Stats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(Stats, EmptyIsSafe) {
  Stats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(Histogram, LogEdgesAreStrictlyIncreasing) {
  const auto edges = Histogram::log_edges(1e-3, 1e3, 2);
  ASSERT_GE(edges.size(), 12u);
  EXPECT_DOUBLE_EQ(edges.front(), 1e-3);
  for (std::size_t i = 1; i < edges.size(); ++i) {
    EXPECT_LT(edges[i - 1], edges[i]);
  }
}

TEST(Histogram, BucketsAndOverflow) {
  Histogram h({1.0, 2.0, 4.0});
  ASSERT_EQ(h.bucket_count(), 4u);  // three edges + overflow
  h.add(0.5);   // bucket 0 (x <= 1)
  h.add(1.0);   // bucket 0 (inclusive upper bound)
  h.add(3.0);   // bucket 2
  h.add(100.0); // overflow
  EXPECT_EQ(h.count(), 4);
  EXPECT_EQ(h.bucket_hits(0), 2);
  EXPECT_EQ(h.bucket_hits(1), 0);
  EXPECT_EQ(h.bucket_hits(2), 1);
  EXPECT_EQ(h.bucket_hits(3), 1);
  EXPECT_TRUE(std::isinf(h.bucket_upper(3)));
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.sum(), 104.5);
}

TEST(Histogram, PercentilesOnUniformGrid) {
  // 100 samples 1..100 against unit-wide buckets: pXX should land within
  // one bucket width of the exact order statistic.
  std::vector<double> edges;
  for (int i = 10; i <= 100; i += 10) edges.push_back(i);
  Histogram h(edges);
  for (int i = 1; i <= 100; ++i) h.add(i);
  EXPECT_NEAR(h.p50(), 50.0, 10.0);
  EXPECT_NEAR(h.p95(), 95.0, 10.0);
  EXPECT_NEAR(h.p99(), 99.0, 10.0);
  EXPECT_LE(h.p50(), h.p95());
  EXPECT_LE(h.p95(), h.p99());
  EXPECT_DOUBLE_EQ(h.percentile(0.0), h.min());
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 100.0);
}

TEST(NearestRank, EdgesAndMidRank) {
  EXPECT_EQ(common::nearest_rank({}, 50.0), 0.0);
  const std::vector<double> sorted = {1.0, 2.0, 3.0, 4.0, 5.0,
                                      6.0, 7.0, 8.0, 9.0, 10.0};
  EXPECT_EQ(common::nearest_rank(sorted, 0.0), 1.0);  // rank clamps to 1
  EXPECT_EQ(common::nearest_rank(sorted, 100.0), 10.0);
  EXPECT_EQ(common::nearest_rank(sorted, 50.0), 5.0);   // ceil(5.0) = 5
  EXPECT_EQ(common::nearest_rank(sorted, 51.0), 6.0);   // ceil(5.1) = 6
  EXPECT_EQ(common::nearest_rank(sorted, 99.0), 10.0);  // ceil(9.9) = 10
}

TEST(Histogram, EmptyIsSafe) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.p50(), 0.0);
  EXPECT_EQ(h.p99(), 0.0);
}

// The nearest-rank contract's edge cases (documented in stats.hpp):
// with n = 1 every percentile is that sample, and with identical
// samples every percentile is that value — both because the estimate
// is clamped to the observed [min, max].
TEST(Histogram, SingleSampleEveryPercentileIsTheSample) {
  Histogram h({1.0, 10.0, 100.0});
  h.add(7.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 7.0);
  EXPECT_DOUBLE_EQ(h.p50(), 7.0);
  EXPECT_DOUBLE_EQ(h.p95(), 7.0);
  EXPECT_DOUBLE_EQ(h.p99(), 7.0);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 7.0);
}

TEST(Histogram, AllEqualSamplesCollapseEveryPercentile) {
  Histogram h({1.0, 10.0, 100.0});
  for (int i = 0; i < 50; ++i) h.add(3.5);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 3.5);
  EXPECT_DOUBLE_EQ(h.p50(), 3.5);
  EXPECT_DOUBLE_EQ(h.p99(), 3.5);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 3.5);
}

TEST(Histogram, PercentileArgumentIsClampedTo0And100) {
  Histogram h({1.0, 10.0});
  h.add(2.0);
  h.add(8.0);
  EXPECT_DOUBLE_EQ(h.percentile(-5.0), h.percentile(0.0));
  EXPECT_DOUBLE_EQ(h.percentile(250.0), h.percentile(100.0));
}

TEST(Histogram, MergeMatchesSingleStream) {
  const auto edges = Histogram::log_edges(1e-3, 1e2, 4);
  Histogram a(edges);
  Histogram b(edges);
  Histogram whole(edges);
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const double x = std::exp(rng.uniform(-3.0, 3.0));
    (i % 2 ? a : b).add(x);
    whole.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(a.stats().stddev(), whole.stats().stddev(), 1e-9);
  for (std::size_t i = 0; i < whole.bucket_count(); ++i) {
    EXPECT_EQ(a.bucket_hits(i), whole.bucket_hits(i));
  }
  EXPECT_NEAR(a.p50(), whole.p50(), 1e-12);
}

TEST(Histogram, MergeIntoEmptyAdoptsOther) {
  Histogram a({1.0, 10.0});
  Histogram b({1.0, 10.0});
  b.add(2.0);
  b.add(5.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2);
  EXPECT_DOUBLE_EQ(a.mean(), 3.5);
}

TEST(Stats, FromMomentsRoundTrips) {
  Stats s;
  s.add(1.0);
  s.add(2.0);
  s.add(4.0);
  const Stats r = Stats::from_moments(s.count(), s.mean(),
                                      s.variance() * 2.0, s.sum(), s.min(),
                                      s.max());
  EXPECT_EQ(r.count(), 3);
  EXPECT_DOUBLE_EQ(r.mean(), s.mean());
  EXPECT_DOUBLE_EQ(r.stddev(), s.stddev());
  EXPECT_DOUBLE_EQ(r.min(), 1.0);
  EXPECT_DOUBLE_EQ(r.max(), 4.0);
}

TEST(Table, AlignedOutput) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22.5"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(s.find("| b     | 22.5  |"), std::string::npos);
}

TEST(Table, CsvOutput) {
  Table t({"x", "y"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "x,y\n1,2\n");
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(1234.5678, 6), "1234.57");
  EXPECT_EQ(Table::pct(0.0532), "5.32%");
}

}  // namespace
}  // namespace ftla
