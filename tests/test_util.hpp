// Shared helpers for the ftla test suite.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "common/spd.hpp"
#include "common/thread_pool.hpp"

namespace ftla::test {

/// Root seed for a randomized test. FTLA_TEST_SEED in the environment
/// overrides `def`, so a failure printed by FTLA_SEED_TRACE can be
/// replayed exactly: FTLA_TEST_SEED=<value> ctest -R <test>.
inline std::uint64_t root_seed(std::uint64_t def) {
  if (const char* env = std::getenv("FTLA_TEST_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return def;
}

/// Every assertion failure in scope reports the seed AND the thread
/// count needed to replay the failing case: parallel results are
/// bit-identical by design, but a replay must still pin both knobs to
/// be fully specified (FTLA_THREADS picks the global pool width).
#define FTLA_SEED_TRACE(seed)                                            \
  SCOPED_TRACE("seed=" + std::to_string(seed) + " threads=" +            \
               std::to_string(ftla::common::global_threads()) +          \
               " (replay with FTLA_TEST_SEED=" + std::to_string(seed) +  \
               " FTLA_THREADS=" +                                        \
               std::to_string(ftla::common::global_threads()) + ")")

/// FTLA_SEED_TRACE plus the DAG schedule seed, for tests that fuzz the
/// task-graph issue order: a fuzzer-found schedule is then reproducible
/// from the failure log alone — root seed, thread count, and the
/// dag_schedule_seed that drew the failing permutation.
#define FTLA_SEED_TRACE_DAG(seed, dag_seed)                              \
  SCOPED_TRACE("seed=" + std::to_string(seed) + " threads=" +            \
               std::to_string(ftla::common::global_threads()) +          \
               " dag_schedule_seed=" + std::to_string(dag_seed) +        \
               " (replay with FTLA_TEST_SEED=" + std::to_string(seed) +  \
               " FTLA_THREADS=" +                                        \
               std::to_string(ftla::common::global_threads()) +          \
               " and dag_schedule_seed=" + std::to_string(dag_seed) +    \
               ")")

inline Matrix<double> random_matrix(int rows, int cols, std::uint64_t seed) {
  Matrix<double> m(rows, cols);
  make_uniform(m, seed);
  return m;
}

inline Matrix<double> random_spd(int n, std::uint64_t seed) {
  Matrix<double> m(n, n);
  make_spd_diag_dominant(m, seed);
  return m;
}

/// A copy of square `src` at row offset 1 of an (n + 3)-row buffer, for
/// views whose ld exceeds n. Everything outside the copy is NaN garbage:
/// the padding rows and, with lower_only, the strict upper triangle.
/// nan_padded_view(buf) is the n x n view of the copy.
inline Matrix<double> nan_padded(const Matrix<double>& src,
                                 bool lower_only) {
  const int n = src.rows();
  Matrix<double> buf(n + 3, n, std::numeric_limits<double>::quiet_NaN());
  for (int j = 0; j < n; ++j)
    for (int i = lower_only ? j : 0; i < n; ++i) buf(1 + i, j) = src(i, j);
  return buf;
}

inline MatrixView<double> nan_padded_view(Matrix<double>& buf) {
  return buf.block(1, 0, buf.cols(), buf.cols());
}

/// When two NaNs of different sign meet in an add, x86 returns the one
/// the compiler placed first, and C++ leaves that order open, so no
/// kernel can pin a NaN result's sign or payload. Every NaN becomes one
/// quiet NaN before a byte compare; all other bits are compared as
/// computed.
inline void canonicalize_nans(double* v, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    if (std::isnan(v[i])) v[i] = std::numeric_limits<double>::quiet_NaN();
  }
}

inline void canonicalize_nans(std::vector<double>& v) {
  canonicalize_nans(v.data(), v.size());
}

/// Bit-for-bit equality of two results, any NaN equal to any NaN.
inline bool same_bits(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Max elementwise difference over the lower triangle only.
inline double lower_max_diff(const Matrix<double>& a,
                             const Matrix<double>& b) {
  EXPECT_EQ(a.rows(), b.rows());
  double v = 0.0;
  for (int j = 0; j < a.cols(); ++j)
    for (int i = j; i < a.rows(); ++i)
      v = std::max(v, std::abs(a(i, j) - b(i, j)));
  return v;
}

#define EXPECT_MATRIX_NEAR(a, b, tol)                              \
  do {                                                             \
    const auto& a_ = (a);                                          \
    const auto& b_ = (b);                                          \
    ASSERT_EQ(a_.rows(), b_.rows());                               \
    ASSERT_EQ(a_.cols(), b_.cols());                               \
    double worst = 0.0;                                            \
    for (int j_ = 0; j_ < a_.cols(); ++j_)                         \
      for (int i_ = 0; i_ < a_.rows(); ++i_)                       \
        worst = std::max(worst, std::abs(a_(i_, j_) - b_(i_, j_))); \
    EXPECT_LE(worst, (tol)) << "matrices differ by " << worst;     \
  } while (0)

}  // namespace ftla::test
