#include "tensor/matrix_f.h"

#include <algorithm>
#include <cmath>

#include "tensor/matrix.h"
#include "util/parallel.h"

namespace bsg {

namespace {

// Same fixed grains as the f64 kernels: the static chunk layout stays
// thread-count invariant, and each output row is owned by one chunk.
constexpr int kRowGrain = 16;
constexpr int kSpRowGrain = 64;

}  // namespace

PoolSlabF& PoolSlabF::operator=(PoolSlabF&& other) noexcept {
  if (this == &other) return *this;
  BufferPool::Global().Release(reinterpret_cast<double*>(data_),
                               capacity_doubles_);
  data_ = other.data_;
  size_ = other.size_;
  capacity_doubles_ = other.capacity_doubles_;
  other.data_ = nullptr;
  other.size_ = 0;
  other.capacity_doubles_ = 0;
  return *this;
}

MatrixF MatrixF::FromDouble(const Matrix& m) {
  MatrixF out = MatrixF::Uninit(m.rows(), m.cols());
  const double* src = m.data();
  float* dst = out.data();
  for (size_t i = 0, n = out.size(); i < n; ++i) {
    dst[i] = static_cast<float>(src[i]);
  }
  return out;
}

Matrix MatrixF::ToDouble() const {
  Matrix out = Matrix::Uninit(rows_, cols_);
  const float* src = data();
  double* dst = out.data();
  for (size_t i = 0, n = size(); i < n; ++i) {
    dst[i] = static_cast<double>(src[i]);
  }
  return out;
}

void MatrixF::Add(const MatrixF& other) {
  BSG_CHECK(SameShape(other), "Add shape mismatch");
  float* a = data();
  const float* b = other.data();
  for (size_t i = 0, n = size(); i < n; ++i) a[i] += b[i];
}

void MatrixF::Scale(float alpha) {
  float* a = data();
  for (size_t i = 0, n = size(); i < n; ++i) a[i] *= alpha;
}

MatrixF MatrixF::MatMul(const MatrixF& other) const {
  BSG_CHECK(cols_ == other.rows_, "MatMul inner dimension mismatch");
  MatrixF out(rows_, other.cols_);
  const int inner = cols_;
  const int out_cols = other.cols_;
  ParallelFor(0, rows_, kRowGrain, [&](int64_t r0, int64_t r1) {
    for (int i = static_cast<int>(r0); i < static_cast<int>(r1); ++i) {
      const float* a_row = row(i);
      float* o_row = out.row(i);
      for (int k = 0; k < inner; ++k) {
        const float a = a_row[k];
        const float* b_row = other.row(k);
        for (int j = 0; j < out_cols; ++j) o_row[j] += a * b_row[j];
      }
    }
  });
  return out;
}

MatrixF MatrixF::MatMulAddBias(const MatrixF& other, const MatrixF& bias) const {
  BSG_CHECK(cols_ == other.rows_, "MatMulAddBias inner dimension mismatch");
  BSG_CHECK(bias.rows() == 1 && bias.cols() == other.cols_,
            "MatMulAddBias bias shape mismatch");
  MatrixF out = MatrixF::Uninit(rows_, other.cols_);
  const int inner = cols_;
  const int out_cols = other.cols_;
  const float* b_bias = bias.row(0);
  ParallelFor(0, rows_, kRowGrain, [&](int64_t r0, int64_t r1) {
    for (int i = static_cast<int>(r0); i < static_cast<int>(r1); ++i) {
      const float* a_row = row(i);
      float* o_row = out.row(i);
      for (int j = 0; j < out_cols; ++j) o_row[j] = b_bias[j];
      for (int k = 0; k < inner; ++k) {
        const float a = a_row[k];
        const float* b_row = other.row(k);
        for (int j = 0; j < out_cols; ++j) o_row[j] += a * b_row[j];
      }
    }
  });
  return out;
}

void MatrixF::LeakyReluInPlace(float slope) {
  float* p = data();
  for (size_t i = 0, n = size(); i < n; ++i) {
    // Branch-free select keeps NaN behaviour explicit: NaN fails the
    // comparison and takes the slope branch, staying NaN either way.
    p[i] = p[i] > 0.0f ? p[i] : slope * p[i];
  }
}

void MatrixF::TanhInPlace() {
  float* p = data();
  for (size_t i = 0, n = size(); i < n; ++i) p[i] = std::tanh(p[i]);
}

float MatrixF::Mean() const {
  const float* p = data();
  float s = 0.0f;
  for (size_t i = 0, n = size(); i < n; ++i) s += p[i];
  return empty() ? 0.0f : s / static_cast<float>(size());
}

MatrixF MatrixF::GatherRows(const std::vector<int>& indices) const {
  MatrixF out = MatrixF::Uninit(static_cast<int>(indices.size()), cols_);
  for (size_t i = 0; i < indices.size(); ++i) {
    int r = indices[i];
    BSG_CHECK(r >= 0 && r < rows_, "GatherRows index out of range");
    std::copy(row(r), row(r) + cols_, out.row(static_cast<int>(i)));
  }
  return out;
}

MatrixF Spmm(const Csr& a, const std::vector<float>* w32, const MatrixF& x) {
  BSG_CHECK(a.num_nodes() == x.rows(), "Spmm shape mismatch");
  BSG_CHECK(w32 == nullptr ||
                static_cast<int64_t>(w32->size()) == a.num_edges(),
            "Spmm f32 weight count mismatch");
  MatrixF out(a.num_nodes(), x.cols());
  const int d = x.cols();
  const float* wf = w32 != nullptr ? w32->data() : nullptr;
  ParallelFor(0, a.num_nodes(), kSpRowGrain, [&](int64_t u0, int64_t u1) {
    for (int u = static_cast<int>(u0); u < static_cast<int>(u1); ++u) {
      float* o = out.row(u);
      const int* nb = a.NeighborsBegin(u);
      const int* ne = a.NeighborsEnd(u);
      const double* wd = a.WeightsBegin(u);
      const float* wrow = wf != nullptr ? wf + (nb - a.indices().data()) : nullptr;
      for (const int* p = nb; p != ne; ++p) {
        const float weight =
            wrow != nullptr
                ? wrow[p - nb]
                : (wd != nullptr ? static_cast<float>(wd[p - nb]) : 1.0f);
        const float* xr = x.row(*p);
        for (int c = 0; c < d; ++c) o[c] += weight * xr[c];
      }
    }
  });
  return out;
}

}  // namespace bsg
