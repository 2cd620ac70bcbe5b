// Dense matrix substrate tests.
#include <gtest/gtest.h>

#include "tensor/matrix.h"
#include "util/rng.h"

namespace bsg {
namespace {

TEST(Matrix, ConstructionAndFill) {
  Matrix m(3, 4, 2.5);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  EXPECT_EQ(m.size(), 12u);
  EXPECT_DOUBLE_EQ(m.At(2, 3), 2.5);
  m.Zero();
  EXPECT_DOUBLE_EQ(m.Sum(), 0.0);
}

TEST(Matrix, FromRowsAndIdentity) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}});
  EXPECT_DOUBLE_EQ(m(0, 1), 2);
  EXPECT_DOUBLE_EQ(m(1, 0), 3);
  Matrix id = Matrix::Identity(3);
  EXPECT_DOUBLE_EQ(id.Sum(), 3.0);
  EXPECT_DOUBLE_EQ(id(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(id(0, 1), 0.0);
}

TEST(Matrix, MatMulAgainstHandComputed) {
  Matrix a = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  Matrix b = Matrix::FromRows({{7, 8}, {9, 10}, {11, 12}});
  Matrix c = a.MatMul(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 58);
  EXPECT_DOUBLE_EQ(c(0, 1), 64);
  EXPECT_DOUBLE_EQ(c(1, 0), 139);
  EXPECT_DOUBLE_EQ(c(1, 1), 154);
}

TEST(Matrix, MatMulIdentityIsNoop) {
  Rng rng(3);
  Matrix a = Matrix::RandomNormal(4, 4, 1.0, &rng);
  Matrix c = a.MatMul(Matrix::Identity(4));
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) EXPECT_DOUBLE_EQ(c(i, j), a(i, j));
  }
}

TEST(Matrix, TransposeInvolution) {
  Rng rng(4);
  Matrix a = Matrix::RandomNormal(3, 5, 1.0, &rng);
  Matrix att = a.Transposed().Transposed();
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 5; ++j) EXPECT_DOUBLE_EQ(att(i, j), a(i, j));
  }
}

TEST(Matrix, AddAxpyScale) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{10, 20}, {30, 40}});
  a.Add(b);
  EXPECT_DOUBLE_EQ(a(1, 1), 44);
  a.Axpy(-1.0, b);
  EXPECT_DOUBLE_EQ(a(1, 1), 4);
  a.Scale(0.5);
  EXPECT_DOUBLE_EQ(a(0, 0), 0.5);
}

TEST(Matrix, ReductionsAndNorms) {
  Matrix a = Matrix::FromRows({{3, -4}});
  EXPECT_DOUBLE_EQ(a.Sum(), -1.0);
  EXPECT_DOUBLE_EQ(a.Mean(), -0.5);
  EXPECT_DOUBLE_EQ(a.AbsMax(), 4.0);
  EXPECT_DOUBLE_EQ(a.FrobeniusNorm(), 5.0);
  EXPECT_DOUBLE_EQ(a.RowNorm(0), 5.0);
}

TEST(Matrix, RowCosine) {
  Matrix a = Matrix::FromRows({{1, 0}, {0, 2}, {3, 0}});
  EXPECT_DOUBLE_EQ(a.RowCosine(0, a, 2), 1.0);   // parallel
  EXPECT_DOUBLE_EQ(a.RowCosine(0, a, 1), 0.0);   // orthogonal
  Matrix z = Matrix(1, 2, 0.0);
  EXPECT_DOUBLE_EQ(z.RowCosine(0, a, 0), 0.0);   // zero vector convention
}

TEST(Matrix, GatherRows) {
  Matrix a = Matrix::FromRows({{1, 1}, {2, 2}, {3, 3}});
  Matrix g = a.GatherRows({2, 0, 2});
  EXPECT_EQ(g.rows(), 3);
  EXPECT_DOUBLE_EQ(g(0, 0), 3);
  EXPECT_DOUBLE_EQ(g(1, 0), 1);
  EXPECT_DOUBLE_EQ(g(2, 1), 3);
}

TEST(Matrix, ColMeansAndStddevs) {
  Matrix a = Matrix::FromRows({{1, 10}, {3, 10}});
  auto means = a.ColMeans();
  auto sds = a.ColStddevs();
  EXPECT_DOUBLE_EQ(means[0], 2.0);
  EXPECT_DOUBLE_EQ(means[1], 10.0);
  EXPECT_DOUBLE_EQ(sds[0], 1.0);
  EXPECT_DOUBLE_EQ(sds[1], 0.0);
}

TEST(Matrix, ConcatCols) {
  Matrix a = Matrix::FromRows({{1}, {2}});
  Matrix b = Matrix::FromRows({{3, 4}, {5, 6}});
  Matrix c = ConcatCols<Matrix>({&a, &b});
  EXPECT_EQ(c.cols(), 3);
  EXPECT_DOUBLE_EQ(c(0, 0), 1);
  EXPECT_DOUBLE_EQ(c(0, 2), 4);
  EXPECT_DOUBLE_EQ(c(1, 1), 5);
}

TEST(Matrix, XavierBounds) {
  Rng rng(7);
  Matrix w = Matrix::Xavier(30, 50, &rng);
  double bound = std::sqrt(6.0 / 80.0);
  EXPECT_LE(w.AbsMax(), bound);
  EXPECT_GT(w.AbsMax(), 0.0);
  // Roughly centred.
  EXPECT_NEAR(w.Mean(), 0.0, 0.02);
}

TEST(Matrix, DebugStringContainsShape) {
  Matrix m(2, 3, 0.0);
  EXPECT_NE(m.DebugString().find("2x3"), std::string::npos);
}

}  // namespace
}  // namespace bsg
