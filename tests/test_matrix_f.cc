// MatrixF: the f32 serving kernels against their f64 oracles within
// tolerance, exact behaviours the mixed-precision contract depends on
// (narrow/widen round trips, gather/concat layouts), NaN/Inf propagation
// through the branch-free kernels, and pooled storage (PoolSlabF recycles
// through the same BufferPool free lists as Matrix).
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "graph/csr.h"
#include "tensor/matrix.h"
#include "tensor/matrix_f.h"
#include "util/buffer_pool.h"
#include "util/rng.h"

namespace bsg {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

// Random f64 matrix with float-magnitude entries, plus its f32 narrowing.
Matrix RandomMatrix(int rows, int cols, Rng* rng, double scale = 1.0) {
  Matrix m(rows, cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) m(r, c) = scale * rng->Normal();
  }
  return m;
}

// |f32 - f64| <= tol * (1 + |f64|): the relative-error form the serving
// parity contract uses (README "Mixed-precision serving").
void ExpectClose(const Matrix& oracle, const MatrixF& got, double tol) {
  ASSERT_EQ(oracle.rows(), got.rows());
  ASSERT_EQ(oracle.cols(), got.cols());
  for (int r = 0; r < oracle.rows(); ++r) {
    for (int c = 0; c < oracle.cols(); ++c) {
      const double want = oracle(r, c);
      const double diff = std::abs(static_cast<double>(got(r, c)) - want);
      EXPECT_LE(diff, tol * (1.0 + std::abs(want)))
          << "at (" << r << "," << c << "): f64=" << want
          << " f32=" << got(r, c);
    }
  }
}

TEST(MatrixF, NarrowWidenRoundTripIsExactForFloatValues) {
  Rng rng(7);
  Matrix m(5, 9);
  for (int r = 0; r < m.rows(); ++r) {
    for (int c = 0; c < m.cols(); ++c) {
      // Force float-representable doubles so narrow -> widen is lossless.
      m(r, c) = static_cast<double>(static_cast<float>(rng.Normal()));
    }
  }
  Matrix back = MatrixF::FromDouble(m).ToDouble();
  ASSERT_EQ(back.rows(), m.rows());
  ASSERT_EQ(back.cols(), m.cols());
  for (int r = 0; r < m.rows(); ++r) {
    for (int c = 0; c < m.cols(); ++c) EXPECT_EQ(back(r, c), m(r, c));
  }
}

TEST(MatrixF, MatMulMatchesF64OracleRandomized) {
  Rng rng(11);
  for (int trial = 0; trial < 8; ++trial) {
    const int m = 1 + static_cast<int>(rng.UniformInt(40));
    const int k = 1 + static_cast<int>(rng.UniformInt(60));
    const int n = 1 + static_cast<int>(rng.UniformInt(40));
    Matrix a = RandomMatrix(m, k, &rng);
    Matrix b = RandomMatrix(k, n, &rng);
    MatrixF got = MatrixF::FromDouble(a).MatMul(MatrixF::FromDouble(b));
    ExpectClose(a.MatMul(b), got, 1e-4 * k);
  }
}

TEST(MatrixF, MatMulAddBiasMatchesF64Oracle) {
  Rng rng(13);
  Matrix a = RandomMatrix(17, 23, &rng);
  Matrix w = RandomMatrix(23, 12, &rng);
  Matrix bias = RandomMatrix(1, 12, &rng);
  MatrixF got = MatrixF::FromDouble(a).MatMulAddBias(MatrixF::FromDouble(w),
                                                     MatrixF::FromDouble(bias));
  ExpectClose(a.MatMulAddBias(w, bias), got, 1e-3);
}

TEST(MatrixF, SpmmMatchesEdgeByEdgeOracleBothWeightSources) {
  Rng rng(17);
  const int n = 40;
  std::vector<std::pair<int, int>> edges;
  for (int e = 0; e < 160; ++e) {
    edges.emplace_back(static_cast<int>(rng.UniformInt(n)),
                       static_cast<int>(rng.UniformInt(n)));
  }
  Csr adj = Csr::FromEdgesSymmetric(n, edges).Normalized(CsrNorm::kSym);
  Matrix x = RandomMatrix(n, 7, &rng);
  // f64 oracle, accumulated edge by edge in CSR order.
  Matrix want(n, 7);
  for (int u = 0; u < n; ++u) {
    const int* nb = adj.NeighborsBegin(u);
    const double* wt = adj.WeightsBegin(u);
    for (int j = 0; j < adj.Degree(u); ++j) {
      for (int c = 0; c < 7; ++c) want(u, c) += wt[j] * x(nb[j], c);
    }
  }
  MatrixF xf = MatrixF::FromDouble(x);
  // Per-edge double->float casts.
  ExpectClose(want, Spmm(adj, nullptr, xf), 1e-4);
  // Pre-cast weight stream (the BatchStacker path) — same values.
  std::vector<float> w32(adj.weights().begin(), adj.weights().end());
  MatrixF a = Spmm(adj, nullptr, xf);
  MatrixF b = Spmm(adj, &w32, xf);
  ASSERT_TRUE(a.SameShape(b));
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < a.cols(); ++c) EXPECT_EQ(a(r, c), b(r, c));
  }
}

TEST(MatrixF, UnweightedSpmmSumsNeighbours) {
  Csr adj = Csr::FromEdges(3, {{0, 1}, {0, 2}, {2, 0}});
  MatrixF x(3, 2);
  x(0, 0) = 1.0f;
  x(1, 0) = 2.0f;
  x(2, 0) = 4.0f;
  x(0, 1) = -1.0f;
  MatrixF out = Spmm(adj, nullptr, x);
  EXPECT_EQ(out(0, 0), 6.0f);   // rows 1 + 2
  EXPECT_EQ(out(1, 0), 0.0f);   // no neighbours
  EXPECT_EQ(out(2, 0), 1.0f);   // row 0
  EXPECT_EQ(out(2, 1), -1.0f);
}

TEST(MatrixF, ElementwiseKernelsMatchF64Oracle) {
  Rng rng(23);
  Matrix a = RandomMatrix(9, 11, &rng);
  Matrix b = RandomMatrix(9, 11, &rng);

  MatrixF lr = MatrixF::FromDouble(a);
  lr.LeakyReluInPlace(0.01f);
  Matrix lr_want(9, 11);
  for (int r = 0; r < 9; ++r) {
    for (int c = 0; c < 11; ++c) {
      lr_want(r, c) = a(r, c) > 0.0 ? a(r, c) : 0.01 * a(r, c);
    }
  }
  ExpectClose(lr_want, lr, 1e-6);

  MatrixF th = MatrixF::FromDouble(a);
  th.TanhInPlace();
  Matrix th_want(9, 11);
  for (int r = 0; r < 9; ++r) {
    for (int c = 0; c < 11; ++c) th_want(r, c) = std::tanh(a(r, c));
  }
  ExpectClose(th_want, th, 1e-6);

  MatrixF ax = MatrixF::FromDouble(a);
  ax.Add(MatrixF::FromDouble(b));
  ax.Scale(2.0f);
  Matrix ax_want(9, 11);
  for (int r = 0; r < 9; ++r) {
    for (int c = 0; c < 11; ++c) ax_want(r, c) = 2.0 * (a(r, c) + b(r, c));
  }
  ExpectClose(ax_want, ax, 1e-5);

  MatrixF af = MatrixF::FromDouble(a);
  EXPECT_NEAR(af.Mean(), a.Mean(), 1e-5);
}

TEST(MatrixF, GatherAndConcatPreserveLayout) {
  Rng rng(31);
  Matrix a = RandomMatrix(8, 3, &rng);
  MatrixF af = MatrixF::FromDouble(a);
  std::vector<int> idx = {5, 0, 5, 7};
  MatrixF g = af.GatherRows(idx);
  ASSERT_EQ(g.rows(), 4);
  for (size_t i = 0; i < idx.size(); ++i) {
    for (int c = 0; c < 3; ++c) {
      EXPECT_EQ(g(static_cast<int>(i), c), af(idx[i], c));
    }
  }
  std::vector<const MatrixF*> parts = {&g, &g, &g};
  MatrixF cat3 = ConcatCols(parts);
  ASSERT_EQ(cat3.cols(), 9);
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 3; ++c) {
      EXPECT_EQ(cat3(r, c), g(r, c));
      EXPECT_EQ(cat3(r, c + 3), g(r, c));
      EXPECT_EQ(cat3(r, c + 6), g(r, c));
    }
  }
}

TEST(MatrixF, NaNAndInfPropagateThroughBranchFreeKernels) {
  // The f32 kernels drop the f64 path's zero-skip branches, so non-finite
  // operands must flow through to the output instead of being skipped.
  MatrixF a(2, 2, 1.0f);
  a(0, 0) = kNaN;
  MatrixF b(2, 2, 1.0f);
  MatrixF prod = a.MatMul(b);
  EXPECT_TRUE(std::isnan(prod(0, 0)));
  EXPECT_TRUE(std::isnan(prod(0, 1)));
  EXPECT_FALSE(std::isnan(prod(1, 0)));

  MatrixF c(2, 2, 1.0f);
  c(1, 1) = kInf;
  MatrixF prod2 = c.MatMul(b);
  EXPECT_TRUE(std::isinf(prod2(1, 0)));

  // Inf * 0 inside the accumulation is NaN — it must not be skipped either.
  MatrixF zero(2, 2, 0.0f);
  MatrixF prod3 = c.MatMul(zero);
  EXPECT_TRUE(std::isnan(prod3(1, 0)));

  // LeakyRelu keeps NaN NaN (the comparison routes it through the slope
  // branch, scaling NaN is still NaN) and maps +/-Inf to +/-scaled Inf.
  MatrixF d(1, 3);
  d(0, 0) = kNaN;
  d(0, 1) = kInf;
  d(0, 2) = -kInf;
  d.LeakyReluInPlace(0.01f);
  EXPECT_TRUE(std::isnan(d(0, 0)));
  EXPECT_EQ(d(0, 1), kInf);
  EXPECT_EQ(d(0, 2), -kInf);

  // Add and the sparse kernel propagate too.
  MatrixF e(2, 2, 1.0f);
  e.Add(a);
  EXPECT_TRUE(std::isnan(e(0, 0)));
  Csr adj = Csr::FromEdges(2, {{0, 0}, {1, 0}});
  MatrixF sp = Spmm(adj, nullptr, a);
  EXPECT_TRUE(std::isnan(sp(0, 0)));
  EXPECT_TRUE(std::isnan(sp(1, 0)));
}

TEST(MatrixF, PooledStorageRecyclesThroughTheGlobalBufferPool) {
  // Warm the bucket, then check that a same-shaped MatrixF is served from
  // the free list (a hit, no heap miss) — PoolSlabF shares Matrix's pool.
  { MatrixF warm(33, 17); }
  BufferPoolStats before = BufferPool::Global().Stats();
  { MatrixF again = MatrixF::Uninit(33, 17); }
  BufferPoolStats after = BufferPool::Global().Stats();
  EXPECT_EQ(after.acquires, before.acquires + 1);
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_EQ(after.misses, before.misses);

  // The float view spans the whole double bucket: capacity in floats is
  // 2x the bucket the request rounded to.
  const size_t cap_doubles = BufferPool::BucketCapacity((33 * 17 + 1) / 2);
  EXPECT_GE(cap_doubles * 2, static_cast<size_t>(33 * 17));

}

}  // namespace
}  // namespace bsg
