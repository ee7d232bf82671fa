#include "mlp/matrix.h"

// The training kernels' inner loops are short, and their speed swings by
// ~10% with where the linker places them relative to 64-byte
// instruction-fetch boundaries, i.e. with the size of unrelated code linked
// before them. Starting every loop on such a boundary keeps training time
// independent of code-size changes elsewhere in the library.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC optimize("align-loops=64")
#endif

namespace pipette::mlp {

Matrix matmul(const Matrix& a, const Matrix& b) {
  assert(a.cols() == b.rows());
  Matrix c(a.rows(), b.cols());
  for (int i = 0; i < a.rows(); ++i) {
    for (int k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      for (int j = 0; j < b.cols(); ++j) c(i, j) += aik * b(k, j);
    }
  }
  return c;
}

Matrix matmul_bt(const Matrix& a, const Matrix& b) {
  assert(a.cols() == b.cols());
  Matrix c(a.rows(), b.rows());
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < b.rows(); ++j) {
      double s = 0.0;
      for (int k = 0; k < a.cols(); ++k) s += a(i, k) * b(j, k);
      c(i, j) = s;
    }
  }
  return c;
}

Matrix matmul_at(const Matrix& a, const Matrix& b) {
  assert(a.rows() == b.rows());
  Matrix c(a.cols(), b.cols());
  for (int k = 0; k < a.rows(); ++k) {
    for (int i = 0; i < a.cols(); ++i) {
      const double aki = a(k, i);
      if (aki == 0.0) continue;
      for (int j = 0; j < b.cols(); ++j) c(i, j) += aki * b(k, j);
    }
  }
  return c;
}

}  // namespace pipette::mlp
