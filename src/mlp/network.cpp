#include "mlp/network.h"

#include <cmath>

#include "common/rng.h"

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

Matrix Network::forward(const Matrix& x) const {
  Matrix a = x;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    Matrix z = matmul_bt(a, layers_[l].w);  // (n x out)
    for (int i = 0; i < z.rows(); ++i) {
      for (int j = 0; j < z.cols(); ++j) {
        z(i, j) += layers_[l].b[static_cast<std::size_t>(j)];
        if (l + 1 < layers_.size() && z(i, j) < 0.0) z(i, j) = 0.0;  // ReLU on hidden
      }
    }
    a = std::move(z);
  }
  return a;
}

double Network::loss_and_grad(const Matrix& x, const Matrix& y_target) {
  const int n = x.rows();
  // Forward, keeping post-activation values for the backward pass.
  std::vector<Matrix> acts;
  acts.reserve(layers_.size() + 1);
  acts.push_back(x);
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    Matrix z = matmul_bt(acts.back(), layers_[l].w);
    for (int i = 0; i < z.rows(); ++i) {
      for (int j = 0; j < z.cols(); ++j) {
        z(i, j) += layers_[l].b[static_cast<std::size_t>(j)];
        if (l + 1 < layers_.size() && z(i, j) < 0.0) z(i, j) = 0.0;
      }
    }
    acts.push_back(std::move(z));
  }

  // MSE loss and dL/d(output).
  const Matrix& out = acts.back();
  double loss = 0.0;
  Matrix delta(out.rows(), out.cols());
  for (int i = 0; i < out.rows(); ++i) {
    for (int j = 0; j < out.cols(); ++j) {
      const double diff = out(i, j) - y_target(i, j);
      loss += diff * diff;
      delta(i, j) = 2.0 * diff / n;
    }
  }
  loss /= n;

  // Backward.
  for (int l = static_cast<int>(layers_.size()) - 1; l >= 0; --l) {
    Layer& layer = layers_[static_cast<std::size_t>(l)];
    const Matrix& a_in = acts[static_cast<std::size_t>(l)];
    layer.gw = matmul_at(delta, a_in);  // (out x in)
    for (int j = 0; j < static_cast<int>(layer.gb.size()); ++j) {
      double s = 0.0;
      for (int i = 0; i < delta.rows(); ++i) s += delta(i, j);
      layer.gb[static_cast<std::size_t>(j)] = s;
    }
    if (l > 0) {
      Matrix next = matmul(delta, layer.w);  // (n x in)
      // ReLU mask of the producing layer: stored activations are post-ReLU,
      // so a zero activation means the unit was clamped and passes no grad.
      const Matrix& mask = acts[static_cast<std::size_t>(l)];
      for (int i = 0; i < next.rows(); ++i) {
        for (int j = 0; j < next.cols(); ++j) {
          if (mask(i, j) <= 0.0) next(i, j) = 0.0;
        }
      }
      delta = std::move(next);
    }
  }
  return loss;
}

void Network::adam_step(const AdamOptions& opt) {
  ++adam_t_;
  const double bc1 = 1.0 - std::pow(opt.beta1, static_cast<double>(adam_t_));
  const double bc2 = 1.0 - std::pow(opt.beta2, static_cast<double>(adam_t_));
  for (auto& layer : layers_) {
    auto w = layer.w.data();
    auto gw = layer.gw.data();
    auto mw = layer.mw.data();
    auto vw = layer.vw.data();
    for (std::size_t i = 0; i < w.size(); ++i) {
      mw[i] = opt.beta1 * mw[i] + (1.0 - opt.beta1) * gw[i];
      vw[i] = opt.beta2 * vw[i] + (1.0 - opt.beta2) * gw[i] * gw[i];
      w[i] -= opt.lr * (mw[i] / bc1) / (std::sqrt(vw[i] / bc2) + opt.eps);
    }
    for (std::size_t i = 0; i < layer.b.size(); ++i) {
      layer.mb[i] = opt.beta1 * layer.mb[i] + (1.0 - opt.beta1) * layer.gb[i];
      layer.vb[i] = opt.beta2 * layer.vb[i] + (1.0 - opt.beta2) * layer.gb[i] * layer.gb[i];
      layer.b[i] -= opt.lr * (layer.mb[i] / bc1) / (std::sqrt(layer.vb[i] / bc2) + opt.eps);
    }
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
