#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "mlp/matrix.h"
#include "mlp/network.h"
#include "mlp/regressor.h"

using namespace pipette::mlp;

namespace {

// Bit patterns, so -0.0 != +0.0 and the comparisons below are exact.
std::vector<std::uint64_t> bits(std::span<const double> v) {
  std::vector<std::uint64_t> out;
  out.reserve(v.size());
  for (const double d : v) out.push_back(std::bit_cast<std::uint64_t>(d));
  return out;
}

// FNV-1a over the bytes of every double, little-endian.
std::uint64_t fnv1a(const std::vector<double>& v) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const double d : v) {
    const auto x = std::bit_cast<std::uint64_t>(d);
    for (int b = 0; b < 8; ++b) {
      h ^= (x >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

// Restores the SIMD kill-switch however a test exits.
struct SimdGuard {
  explicit SimdGuard(bool on) { pipette::common::simd::set_enabled(on); }
  ~SimdGuard() { pipette::common::simd::set_enabled(true); }
};

// The golden dataset: 256 rows of 14 features, with exact zeros in it.
struct Dataset {
  Matrix x;
  std::vector<double> y;
};
Dataset golden_dataset() {
  pipette::common::Rng rng(42);
  Dataset d{Matrix(256, 14), std::vector<double>(256)};
  for (int i = 0; i < 256; ++i) {
    double t = 20.0;
    for (int j = 0; j < 14; ++j) {
      d.x(i, j) = (i + j) % 7 == 0 ? 0.0 : rng.uniform(-1.0, 3.0);
      t += 0.25 * (j % 5) * d.x(i, j);
    }
    d.y[static_cast<std::size_t>(i)] = t + d.x(i, 0) * d.x(i, 1);
  }
  return d;
}

// The golden training run: the benches' {14,128,128,1} regressor, 300 steps.
TrainReport train_golden(Regressor& reg) {
  const Dataset d = golden_dataset();
  TrainOptions opt;
  opt.iters = 300;
  return reg.fit(d.x, d.y, opt);
}

std::vector<double> golden_regressor_parameters() {
  Regressor reg(14, {128, 128}, 5);
  train_golden(reg);
  return reg.network().parameters();
}

// 20 steps of the paper's five-layer, 200-hidden net (§VI) on one batch.
std::vector<double> golden_paper_net_parameters() {
  pipette::common::Rng rng(7);
  Network net({14, 200, 200, 200, 200, 1}, 1);
  Matrix x(32, 14), y(32, 1);
  for (auto& v : x.data()) v = rng.normal();
  for (auto& v : y.data()) v = rng.normal();
  AdamOptions adam;
  for (int s = 0; s < 20; ++s) {
    net.loss_and_grad(x, y);
    net.adam_step(adam);
  }
  return net.parameters();
}

}  // namespace

TEST(Gemm, MatchesNaiveTripleLoopBitForBit) {
  pipette::common::Rng rng(3);
  struct Shape {
    int m, n, k;
  };
  // Odd sizes exercise every tile and tail of the kernel; n == 1 is
  // single-row inference.
  for (const Shape sh : {Shape{1, 1, 1}, Shape{7, 1, 14}, Shape{5, 3, 9}, Shape{2, 8, 4},
                         Shape{9, 19, 33}, Shape{32, 14, 128}, Shape{128, 32, 14}}) {
    Matrix a(sh.m, sh.k), b(sh.k, sh.n);
    for (auto& v : a.data()) v = rng.normal();
    for (auto& v : b.data()) v = rng.normal();
    // Exact zeros: a whole row of A (a clamped ReLU unit) and scattered ones.
    for (int p = 0; p < sh.k; ++p) a(sh.m - 1, p) = 0.0;
    for (int i = 0; i < sh.m; i += 2) a(i, i % sh.k) = 0.0;
    for (int j = 0; j < sh.n; j += 3) b(j % sh.k, j) = 0.0;

    Matrix naive(sh.m, sh.n), skipping(sh.m, sh.n);
    for (int i = 0; i < sh.m; ++i) {
      for (int j = 0; j < sh.n; ++j) {
        double s = 0.0;
        for (int p = 0; p < sh.k; ++p) s += a(i, p) * b(p, j);
        naive(i, j) = s;
      }
    }
    // The ikj form that skips zero factors of A adds the same terms minus
    // zeros, which cannot change a sum that starts at +0.
    for (int i = 0; i < sh.m; ++i) {
      for (int p = 0; p < sh.k; ++p) {
        if (a(i, p) == 0.0) continue;
        for (int j = 0; j < sh.n; ++j) skipping(i, j) += a(i, p) * b(p, j);
      }
    }
    ASSERT_EQ(bits(naive.data()), bits(skipping.data()));

    // A^T stored row-major: the same product through transposed strides.
    Matrix at(sh.k, sh.m);
    for (int i = 0; i < sh.m; ++i)
      for (int p = 0; p < sh.k; ++p) at(p, i) = a(i, p);
    for (const bool simd : {true, false}) {
      const SimdGuard guard(simd);
      Matrix c(sh.m, sh.n, -1.0), ct(sh.m, sh.n, -1.0);
      gemm(sh.m, sh.n, sh.k, a.data().data(), sh.k, 1, b.data().data(), sh.n, c.data().data(), sh.n);
      gemm(sh.m, sh.n, sh.k, at.data().data(), 1, sh.m, b.data().data(), sh.n, ct.data().data(), sh.n);
      EXPECT_EQ(bits(c.data()), bits(naive.data())) << sh.m << "x" << sh.n << "x" << sh.k << " simd " << simd;
      EXPECT_EQ(bits(ct.data()), bits(naive.data())) << sh.m << "x" << sh.n << "x" << sh.k << " simd " << simd;
    }
  }
}

// Golden hashes of the trained parameters, captured from the original
// kernels (serial dot products, zero-skipping ikj products, scalar Adam).
// Any reordered sum, fused multiply-add or changed rounding breaks them.
TEST(Network, TrainingReproducesGoldenParameters) {
  EXPECT_EQ(fnv1a(golden_regressor_parameters()), 0x47a5ad8282b222e0ull);
  EXPECT_EQ(fnv1a(golden_paper_net_parameters()), 0xc41367a87cb20f7aull);
}

TEST(Network, TrainingIsBitIdenticalWithSimdDisabled) {
  const auto reg_on = golden_regressor_parameters();
  const auto net_on = golden_paper_net_parameters();
  const SimdGuard guard(false);
  EXPECT_EQ(bits(golden_regressor_parameters()), bits(reg_on));
  EXPECT_EQ(bits(golden_paper_net_parameters()), bits(net_on));
}

TEST(Network, BatchedForwardMatchesPerRowBitForBit) {
  pipette::common::Rng rng(13);
  const Network net({14, 40, 40, 1}, 2);
  // More rows than one forward chunk, and a row of exact zeros.
  Matrix x(150, 14);
  for (auto& v : x.data()) v = rng.normal();
  for (int j = 0; j < 14; ++j) x(77, j) = 0.0;
  const Matrix batched = net.forward(x);
  for (int i = 0; i < x.rows(); ++i) {
    Matrix one(1, 14);
    for (int j = 0; j < 14; ++j) one(0, j) = x(i, j);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(net.forward(one)(0, 0)),
              std::bit_cast<std::uint64_t>(batched(i, 0)))
        << "row " << i;
  }
}

TEST(Regressor, ReportedPredictionsMatchPredictBitForBit) {
  Regressor reg(14, {128, 128}, 5);
  const TrainReport rep = train_golden(reg);
  const Dataset d = golden_dataset();
  ASSERT_EQ(rep.predictions.size(), d.y.size());
  for (int i = 0; i < d.x.rows(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(reg.predict(d.x.row(i))),
              std::bit_cast<std::uint64_t>(rep.predictions[static_cast<std::size_t>(i)]))
        << "row " << i;
  }
}

TEST(Network, ForwardShapes) {
  Network net({3, 8, 2}, 1);
  Matrix x(5, 3, 0.5);
  const Matrix y = net.forward(x);
  EXPECT_EQ(y.rows(), 5);
  EXPECT_EQ(y.cols(), 2);
}

TEST(Network, GradientMatchesFiniteDifference) {
  Network net({2, 5, 1}, 7);
  pipette::common::Rng rng(11);
  Matrix x(4, 2), y(4, 1);
  for (auto& v : x.data()) v = rng.normal();
  for (auto& v : y.data()) v = rng.normal();

  net.loss_and_grad(x, y);
  const auto params = net.parameters();
  const auto grads = net.gradients();
  ASSERT_EQ(params.size(), grads.size());

  const double eps = 1e-6;
  int checked = 0;
  for (std::size_t i = 0; i < params.size(); i += 3) {
    auto p = params;
    p[i] += eps;
    net.set_parameters(p);
    const double lp = net.loss_and_grad(x, y);
    p[i] -= 2 * eps;
    net.set_parameters(p);
    const double lm = net.loss_and_grad(x, y);
    net.set_parameters(params);
    const double numeric = (lp - lm) / (2 * eps);
    EXPECT_NEAR(grads[i], numeric, 1e-4 * std::max(1.0, std::abs(numeric)))
        << "param index " << i;
    ++checked;
  }
  EXPECT_GT(checked, 5);
}

TEST(Network, AdamReducesLossOnQuadratic) {
  Network net({2, 16, 1}, 3);
  pipette::common::Rng rng(5);
  Matrix x(64, 2), y(64, 1);
  for (int i = 0; i < 64; ++i) {
    x(i, 0) = rng.uniform(-1, 1);
    x(i, 1) = rng.uniform(-1, 1);
    y(i, 0) = x(i, 0) * x(i, 0) + 0.5 * x(i, 1);
  }
  AdamOptions adam;
  const double first = net.loss_and_grad(x, y);
  net.adam_step(adam);
  double last = first;
  for (int it = 0; it < 800; ++it) {
    last = net.loss_and_grad(x, y);
    net.adam_step(adam);
  }
  EXPECT_LT(last, first * 0.1);
}

TEST(Standardizer, NormalizesColumns) {
  Matrix x(4, 2);
  const double vals[4] = {1, 2, 3, 4};
  for (int i = 0; i < 4; ++i) {
    x(i, 0) = vals[i];
    x(i, 1) = 10 * vals[i];
  }
  Standardizer s;
  s.fit(x);
  const Matrix t = s.transform(x);
  double m0 = 0, m1 = 0;
  for (int i = 0; i < 4; ++i) {
    m0 += t(i, 0);
    m1 += t(i, 1);
  }
  EXPECT_NEAR(m0, 0.0, 1e-12);
  EXPECT_NEAR(m1, 0.0, 1e-12);
  const auto row = s.transform_row(std::vector<double>{2.5, 25.0});
  EXPECT_NEAR(row[0], 0.0, 1e-12);
  EXPECT_NEAR(row[1], 0.0, 1e-12);
}

TEST(Regressor, FitsLinearFunction) {
  pipette::common::Rng rng(9);
  const int n = 200;
  Matrix x(n, 3);
  std::vector<double> y(n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < 3; ++j) x(i, j) = rng.uniform(-2, 2);
    y[static_cast<std::size_t>(i)] = 5.0 + 2.0 * x(i, 0) - 1.0 * x(i, 1) + 0.5 * x(i, 2);
  }
  Regressor reg(3, {32, 32}, 4);
  TrainOptions opt;
  opt.iters = 3000;
  opt.batch_size = 32;
  const auto rep = reg.fit(x, y, opt);
  EXPECT_LT(rep.train_mape, 5.0) << "final mse " << rep.final_mse;
  EXPECT_NEAR(reg.predict(std::vector<double>{1.0, 1.0, 1.0}), 6.5, 0.5);
}

TEST(Regressor, PredictBeforeFitThrows) {
  Regressor reg(2, {4}, 1);
  EXPECT_THROW(reg.predict(std::vector<double>{0.0, 0.0}), std::logic_error);
}

TEST(Regressor, RejectsBadDataset) {
  Regressor reg(2, {4}, 1);
  Matrix x(3, 2);
  std::vector<double> y(2);
  EXPECT_THROW(reg.fit(x, y, {}), std::invalid_argument);
}
