// Row-major dense matrix and the one matrix-product kernel behind the
// paper's 5-layer/200-hidden memory-estimator MLP (Eq. 7). No BLAS
// dependency. `gemm` serves the forward pass and both backward products:
// its A operand is addressed through strides, so A and A^T of a row-major
// matrix are the same call, and it computes every output with the textbook
// dot product's IEEE operations in the textbook's order. Training results
// are therefore bit-identical to the naive triple loop at any SIMD width
// (tests/mlp_test.cpp pins golden parameter hashes).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace pipette::mlp {

class Matrix {
 public:
  Matrix() = default;
  Matrix(int rows, int cols, double fill = 0.0)
      : rows_(rows), cols_(cols), d_(static_cast<std::size_t>(rows) * cols, fill) {}

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  double& operator()(int r, int c) { return d_[static_cast<std::size_t>(r) * cols_ + c]; }
  double operator()(int r, int c) const { return d_[static_cast<std::size_t>(r) * cols_ + c]; }

  std::span<double> row(int r) { return {&d_[static_cast<std::size_t>(r) * cols_], static_cast<std::size_t>(cols_)}; }
  std::span<const double> row(int r) const {
    return {&d_[static_cast<std::size_t>(r) * cols_], static_cast<std::size_t>(cols_)};
  }
  std::span<double> data() { return d_; }
  std::span<const double> data() const { return d_; }

 private:
  int rows_ = 0, cols_ = 0;
  std::vector<double> d_;
};

/// C = A * B, overwriting C. A is (m x k), element (i, p) read at
/// a[i * a_row + p * a_col]; B is row-major (k x n) with leading dimension
/// ldb; C is row-major (m x n) with leading dimension ldc.
///
/// Every C(i, j) is ((0 + A(i,0)*B(0,j)) + A(i,1)*B(1,j)) + ... over
/// increasing p: one multiply and one add per term, never fused or
/// regrouped. The SIMD path (common/simd.h, while enabled) vectorises over
/// j and blocks rows, holding each output in a register for the whole p
/// loop; the scalar path is the plain triple loop. Both give the same bits.
/// Terms with an exact zero factor are added, not skipped; on finite data
/// that is bit-identical to skipping them, because the running sum starts
/// at +0 and so is never -0.
void gemm(int m, int n, int k, const double* a, std::ptrdiff_t a_row, std::ptrdiff_t a_col,
          const double* b, std::ptrdiff_t ldb, double* c, std::ptrdiff_t ldc);

}  // namespace pipette::mlp
