#include "mlp/matrix.h"

#include "common/simd.h"

// The training kernels' inner loops are short, and their speed swings by
// ~10% with where the linker places them relative to 64-byte
// instruction-fetch boundaries, i.e. with the size of unrelated code linked
// before them. Starting every loop on such a boundary keeps training time
// independent of code-size changes elsewhere in the library.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC optimize("align-loops=64")
#endif

namespace pipette::mlp {

namespace {

using common::simd::kLanes;
using common::simd::Lane;

// One register tile: R rows of C by L lanes of columns. The R * L
// accumulators stay in registers for the whole p loop, and each B load
// serves all R rows.
template <int R, int L>
void tile(int k, const double* a, std::ptrdiff_t a_row, std::ptrdiff_t a_col, const double* b,
          std::ptrdiff_t ldb, double* c, std::ptrdiff_t ldc) {
  Lane acc[R][L];
  for (int r = 0; r < R; ++r) {
    for (int l = 0; l < L; ++l) acc[r][l] = Lane::broadcast(0.0);
  }
  for (int p = 0; p < k; ++p) {
    const double* bp = b + p * ldb;
    Lane bv[L];
    for (int l = 0; l < L; ++l) bv[l] = Lane::load(bp + l * kLanes);
    for (int r = 0; r < R; ++r) {
      const Lane av = Lane::broadcast(a[r * a_row + p * a_col]);
      for (int l = 0; l < L; ++l) acc[r][l] = acc[r][l] + av * bv[l];
    }
  }
  for (int r = 0; r < R; ++r) {
    for (int l = 0; l < L; ++l) acc[r][l].store(c + r * ldc + l * kLanes);
  }
}

// The same for one column: R independent scalar chains. This is all of
// single-row inference (n == 1), where the chains hide the add latency.
template <int R>
void tile_column(int k, const double* a, std::ptrdiff_t a_row, std::ptrdiff_t a_col,
                 const double* b, std::ptrdiff_t ldb, double* c, std::ptrdiff_t ldc) {
  double acc[R];
  for (int r = 0; r < R; ++r) acc[r] = 0.0;
  for (int p = 0; p < k; ++p) {
    const double bp = b[p * ldb];
    for (int r = 0; r < R; ++r) acc[r] = acc[r] + a[r * a_row + p * a_col] * bp;
  }
  for (int r = 0; r < R; ++r) c[r * ldc] = acc[r];
}

// One column strip of C: `block` over groups of `rows` rows, then `single`
// over the rows left.
using Tile = void (*)(int, const double*, std::ptrdiff_t, std::ptrdiff_t, const double*,
                      std::ptrdiff_t, double*, std::ptrdiff_t);
void strip(Tile block, int rows, Tile single, int m, int k, const double* a, std::ptrdiff_t a_row,
           std::ptrdiff_t a_col, const double* b, std::ptrdiff_t ldb, double* c, std::ptrdiff_t ldc) {
  int i = 0;
  for (; i + rows <= m; i += rows) block(k, a + i * a_row, a_row, a_col, b, ldb, c + i * ldc, ldc);
  for (; i < m; ++i) single(k, a + i * a_row, a_row, a_col, b, ldb, c + i * ldc, ldc);
}

}  // namespace

void gemm(int m, int n, int k, const double* a, std::ptrdiff_t a_row, std::ptrdiff_t a_col,
          const double* b, std::ptrdiff_t ldb, double* c, std::ptrdiff_t ldc) {
  if (!common::simd::enabled()) {
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < n; ++j) {
        double s = 0.0;
        for (int p = 0; p < k; ++p) s += a[i * a_row + p * a_col] * b[p * ldb + j];
        c[i * ldc + j] = s;
      }
    }
    return;
  }
  constexpr int kRows = 3, kWide = 4, kChains = 4;
  int j = 0;
  for (; j + kWide * kLanes <= n; j += kWide * kLanes) {
    strip(tile<kRows, kWide>, kRows, tile<1, kWide>, m, k, a, a_row, a_col, b + j, ldb, c + j, ldc);
  }
  for (; j + kLanes <= n; j += kLanes) {
    strip(tile<kRows, 1>, kRows, tile<1, 1>, m, k, a, a_row, a_col, b + j, ldb, c + j, ldc);
  }
  for (; j < n; ++j) {
    strip(tile_column<kChains>, kChains, tile_column<1>, m, k, a, a_row, a_col, b + j, ldb, c + j, ldc);
  }
}

}  // namespace pipette::mlp
