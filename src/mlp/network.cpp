#include "mlp/network.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "common/simd.h"

// Loops start on 64-byte boundaries, as in mlp/matrix.cpp, so training
// time does not depend on the size of unrelated code linked before them.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC optimize("align-loops=64")
#endif

namespace pipette::mlp {

using common::Rng;

Network::Network(std::vector<int> layer_sizes, std::uint64_t seed) : sizes_(std::move(layer_sizes)) {
  Rng rng(seed);
  layers_.reserve(sizes_.size() - 1);
  for (std::size_t l = 0; l + 1 < sizes_.size(); ++l) {
    const int in = sizes_[l], out = sizes_[l + 1];
    Layer layer;
    layer.w = Matrix(out, in);
    const double scale = std::sqrt(2.0 / in);  // He init for ReLU
    for (int r = 0; r < out; ++r) {
      for (int c = 0; c < in; ++c) layer.w(r, c) = rng.normal(0.0, scale);
    }
    layer.b.assign(static_cast<std::size_t>(out), 0.0);
    layer.gw = Matrix(out, in);
    layer.gb.assign(static_cast<std::size_t>(out), 0.0);
    layer.mw = Matrix(out, in);
    layer.vw = Matrix(out, in);
    layer.mb.assign(static_cast<std::size_t>(out), 0.0);
    layer.vb.assign(static_cast<std::size_t>(out), 0.0);
    layers_.push_back(std::move(layer));
  }
}

namespace {

using common::simd::kLanes;
using common::simd::Lane;

// dst = src^T: src is row-major (rows x cols), dst row-major (cols x rows).
void transpose(const double* src, int rows, int cols, double* dst) {
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) dst[j * rows + i] = src[i * cols + j];
  }
}

// One layer, feature-major: out (w.rows() x n) from in (w.cols() x n). One
// gemm over the weights as stored, then the bias and, on hidden layers,
// the ReLU as a select that clamps only v < 0 (so -0.0 and NaN pass).
void forward_layer(const Matrix& w, const std::vector<double>& b, bool relu, const double* in,
                   int n, double* out) {
  gemm(w.rows(), n, w.cols(), w.data().data(), w.cols(), 1, in, n, out, n);
  for (int j = 0; j < w.rows(); ++j) {
    double* z = out + static_cast<std::ptrdiff_t>(j) * n;
    const double bj = b[static_cast<std::size_t>(j)];
    if (relu) {
      for (int i = 0; i < n; ++i) {
        const double v = z[i] + bj;
        z[i] = v < 0.0 ? 0.0 : v;
      }
    } else {
      for (int i = 0; i < n; ++i) z[i] += bj;
    }
  }
}

struct AdamCoefficients {
  double beta1, one_minus_beta1, beta2, one_minus_beta2, lr, bc1, bc2, eps;
};

// One Adam update of n parameters, each element evaluated exactly as the
// scalar expression below (same operations, same bracketing); the vector
// path is bit-identical to it because every op involved, sqrt included, is
// correctly rounded per lane.
void adam_update(double* w, const double* g, double* m, double* v, std::size_t n,
                 const AdamCoefficients& k) {
  std::size_t i = 0;
  if (common::simd::enabled()) {
    const Lane beta1 = Lane::broadcast(k.beta1), one_minus_beta1 = Lane::broadcast(k.one_minus_beta1);
    const Lane beta2 = Lane::broadcast(k.beta2), one_minus_beta2 = Lane::broadcast(k.one_minus_beta2);
    const Lane lr = Lane::broadcast(k.lr), bc1 = Lane::broadcast(k.bc1);
    const Lane bc2 = Lane::broadcast(k.bc2), eps = Lane::broadcast(k.eps);
    for (; i + kLanes <= n; i += kLanes) {
      const Lane gi = Lane::load(g + i);
      const Lane mi = beta1 * Lane::load(m + i) + one_minus_beta1 * gi;
      const Lane vi = beta2 * Lane::load(v + i) + one_minus_beta2 * gi * gi;
      mi.store(m + i);
      vi.store(v + i);
      (Lane::load(w + i) - lr * (mi / bc1) / (Lane::sqrt(vi / bc2) + eps)).store(w + i);
    }
  }
  for (; i < n; ++i) {
    m[i] = k.beta1 * m[i] + k.one_minus_beta1 * g[i];
    v[i] = k.beta2 * v[i] + k.one_minus_beta2 * g[i] * g[i];
    w[i] -= k.lr * (m[i] / k.bc1) / (std::sqrt(v[i] / k.bc2) + k.eps);
  }
}

}  // namespace

Matrix Network::forward(const Matrix& x) const {
  // Rows go through in chunks, which bounds the feature-major buffers
  // however large the batch (a whole training set, for the train MAPE).
  constexpr int kChunk = 64;
  const int n = x.rows();
  const int widest = *std::max_element(sizes_.begin(), sizes_.end());
  const auto buf = static_cast<std::size_t>(std::min(n, kChunk)) * widest;
  std::vector<double> cur(buf), nxt(buf);
  Matrix y(n, output_dim());
  for (int r0 = 0; r0 < n; r0 += kChunk) {
    const int cols = std::min(kChunk, n - r0);
    transpose(x.row(r0).data(), cols, input_dim(), cur.data());
    for (std::size_t l = 0; l < layers_.size(); ++l) {
      forward_layer(layers_[l].w, layers_[l].b, l + 1 < layers_.size(), cur.data(), cols, nxt.data());
      std::swap(cur, nxt);
    }
    transpose(cur.data(), output_dim(), cols, y.row(r0).data());
  }
  return y;
}

double Network::loss_and_grad(const Matrix& x, const Matrix& y_target) {
  const int n = x.rows();
  const std::size_t num_layers = layers_.size();
  const auto un = static_cast<std::size_t>(n);
  const auto widest = static_cast<std::size_t>(*std::max_element(sizes_.begin(), sizes_.end()));
  ws_.xt.resize(un * input_dim());
  ws_.acts.resize(num_layers);
  for (std::size_t l = 0; l < num_layers; ++l) ws_.acts[l].resize(un * sizes_[l + 1]);
  ws_.rows.resize(un * widest);
  ws_.delta.resize(un * widest);
  ws_.next.resize(un * widest);

  // Forward, keeping post-activation values for the backward pass.
  transpose(x.data().data(), n, input_dim(), ws_.xt.data());
  for (std::size_t l = 0; l < num_layers; ++l) {
    const double* in = l == 0 ? ws_.xt.data() : ws_.acts[l - 1].data();
    forward_layer(layers_[l].w, layers_[l].b, l + 1 < num_layers, in, n, ws_.acts[l].data());
  }

  // MSE loss and dL/d(output).
  const int out_dim = output_dim();
  const double* out = ws_.acts.back().data();
  double loss = 0.0;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < out_dim; ++j) {
      const double diff = out[j * n + i] - y_target(i, j);
      loss += diff * diff;
      ws_.delta[static_cast<std::size_t>(i) * out_dim + j] = 2.0 * diff / n;
    }
  }
  loss /= n;

  // Backward, batch-major.
  for (int l = static_cast<int>(num_layers) - 1; l >= 0; --l) {
    Layer& layer = layers_[static_cast<std::size_t>(l)];
    const int in = sizes_[static_cast<std::size_t>(l)];
    const int out_w = sizes_[static_cast<std::size_t>(l) + 1];
    const double* a_in = x.data().data();
    if (l > 0) {
      transpose(ws_.acts[static_cast<std::size_t>(l) - 1].data(), in, n, ws_.rows.data());
      a_in = ws_.rows.data();
    }
    // gw (out x in) = delta^T * a_in.
    gemm(out_w, in, n, ws_.delta.data(), 1, out_w, a_in, in, layer.gw.data().data(), in);
    std::fill(layer.gb.begin(), layer.gb.end(), 0.0);
    for (int i = 0; i < n; ++i) {
      const double* d = ws_.delta.data() + static_cast<std::size_t>(i) * out_w;
      for (int j = 0; j < out_w; ++j) layer.gb[static_cast<std::size_t>(j)] += d[j];
    }
    if (l > 0) {
      // next (n x in) = delta * w.
      gemm(n, in, out_w, ws_.delta.data(), out_w, 1, layer.w.data().data(), in, ws_.next.data(), in);
      // ReLU mask of the producing layer: stored activations are post-ReLU,
      // so a zero activation means the unit was clamped and passes no grad.
      for (std::size_t e = 0; e < un * static_cast<std::size_t>(in); ++e) {
        ws_.next[e] = ws_.rows[e] <= 0.0 ? 0.0 : ws_.next[e];
      }
      std::swap(ws_.delta, ws_.next);
    }
  }
  return loss;
}

void Network::adam_step(const AdamOptions& opt) {
  ++adam_t_;
  const AdamCoefficients k{opt.beta1,
                           1.0 - opt.beta1,
                           opt.beta2,
                           1.0 - opt.beta2,
                           opt.lr,
                           1.0 - std::pow(opt.beta1, static_cast<double>(adam_t_)),
                           1.0 - std::pow(opt.beta2, static_cast<double>(adam_t_)),
                           opt.eps};
  for (auto& layer : layers_) {
    adam_update(layer.w.data().data(), layer.gw.data().data(), layer.mw.data().data(),
                layer.vw.data().data(), layer.w.data().size(), k);
    adam_update(layer.b.data(), layer.gb.data(), layer.mb.data(), layer.vb.data(), layer.b.size(), k);
  }
}

std::size_t Network::num_parameters() const {
  std::size_t n = 0;
  for (const auto& layer : layers_) n += layer.w.data().size() + layer.b.size();
  return n;
}

std::vector<double> Network::parameters() const {
  std::vector<double> flat;
  for (const auto& layer : layers_) {
    flat.insert(flat.end(), layer.w.data().begin(), layer.w.data().end());
    flat.insert(flat.end(), layer.b.begin(), layer.b.end());
  }
  return flat;
}

void Network::set_parameters(const std::vector<double>& flat) {
  std::size_t pos = 0;
  for (auto& layer : layers_) {
    auto w = layer.w.data();
    for (std::size_t i = 0; i < w.size(); ++i) w[i] = flat[pos++];
    for (auto& b : layer.b) b = flat[pos++];
  }
}

std::vector<double> Network::gradients() const {
  std::vector<double> flat;
  for (const auto& layer : layers_) {
    flat.insert(flat.end(), layer.gw.data().begin(), layer.gw.data().end());
    flat.insert(flat.end(), layer.gb.begin(), layer.gb.end());
  }
  return flat;
}

}  // namespace pipette::mlp
