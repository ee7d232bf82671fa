#include "mlp/regressor.h"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "common/rng.h"
#include "common/stats.h"

namespace pipette::mlp {

using common::Rng;

void Standardizer::fit(const Matrix& x) {
  mean_.assign(static_cast<std::size_t>(x.cols()), 0.0);
  std_.assign(static_cast<std::size_t>(x.cols()), 0.0);
  for (int j = 0; j < x.cols(); ++j) {
    double m = 0.0;
    for (int i = 0; i < x.rows(); ++i) m += x(i, j);
    m /= x.rows();
    double v = 0.0;
    for (int i = 0; i < x.rows(); ++i) v += (x(i, j) - m) * (x(i, j) - m);
    v /= x.rows();
    mean_[static_cast<std::size_t>(j)] = m;
    // A constant column standardizes to zero no matter the divisor, but the
    // divisor still scales *inference-time* values outside the training
    // range: with a 1e-12 floor a feature held fixed during profiling (e.g.
    // a single profiled global batch) turns any other value into a z-score
    // of ~1e12 and saturates the net to 0/inf. Unit scale keeps such columns
    // inert in training and merely mild at inference.
    const double s = std::sqrt(v);
    std_[static_cast<std::size_t>(j)] = s < 1e-9 ? 1.0 : s;
  }
}

Matrix Standardizer::transform(const Matrix& x) const {
  assert(x.cols() == dim());
  Matrix out(x.rows(), x.cols());
  for (int i = 0; i < x.rows(); ++i) {
    for (int j = 0; j < x.cols(); ++j) {
      out(i, j) = (x(i, j) - mean_[static_cast<std::size_t>(j)]) / std_[static_cast<std::size_t>(j)];
    }
  }
  return out;
}

std::vector<double> Standardizer::transform_row(std::span<const double> x) const {
  assert(static_cast<int>(x.size()) == dim());
  std::vector<double> out(x.size());
  for (std::size_t j = 0; j < x.size(); ++j) out[j] = (x[j] - mean_[j]) / std_[j];
  return out;
}

void Standardizer::restore(std::vector<double> mean, std::vector<double> std) {
  if (mean.size() != std.size()) {
    throw std::invalid_argument("Standardizer::restore: mean/std length mismatch");
  }
  for (const double s : std) {
    if (!(s > 0.0)) throw std::invalid_argument("Standardizer::restore: non-positive std");
  }
  mean_ = std::move(mean);
  std_ = std::move(std);
}

Regressor Regressor::restore(const std::vector<int>& layer_sizes,
                             const std::vector<double>& parameters,
                             std::vector<double> feat_mean, std::vector<double> feat_std,
                             double y_mean, double y_std) {
  if (layer_sizes.size() < 2 || layer_sizes.back() != 1) {
    throw std::invalid_argument("Regressor::restore: bad architecture");
  }
  for (const int s : layer_sizes) {
    if (s < 1 || s > 1 << 20) throw std::invalid_argument("Regressor::restore: bad layer size");
  }
  if (static_cast<std::size_t>(layer_sizes.front()) != feat_mean.size()) {
    throw std::invalid_argument("Regressor::restore: standardizer dim != input dim");
  }
  if (!(y_std > 0.0)) throw std::invalid_argument("Regressor::restore: non-positive y_std");
  const std::vector<int> hidden(layer_sizes.begin() + 1, layer_sizes.end() - 1);
  Regressor reg(layer_sizes.front(), hidden, /*seed=*/0);
  if (reg.net_.num_parameters() != parameters.size()) {
    throw std::invalid_argument("Regressor::restore: parameter count mismatch");
  }
  reg.net_.set_parameters(parameters);
  reg.feat_std_.restore(std::move(feat_mean), std::move(feat_std));
  reg.y_mean_ = y_mean;
  reg.y_std_ = y_std;
  reg.fitted_ = true;
  return reg;
}

Regressor::Regressor(int input_dim, std::vector<int> hidden, std::uint64_t seed)
    : net_([&] {
        std::vector<int> sizes;
        sizes.push_back(input_dim);
        sizes.insert(sizes.end(), hidden.begin(), hidden.end());
        sizes.push_back(1);
        return sizes;
      }(),
           seed) {}

TrainReport Regressor::fit(const Matrix& x, const std::vector<double>& y, const TrainOptions& opt) {
  if (x.rows() != static_cast<int>(y.size()) || x.rows() == 0) {
    throw std::invalid_argument("Regressor::fit: bad dataset shape");
  }
  feat_std_.fit(x);
  const Matrix xs = feat_std_.transform(x);

  y_mean_ = common::mean(y);
  double v = 0.0;
  for (double yi : y) v += (yi - y_mean_) * (yi - y_mean_);
  y_std_ = std::max(std::sqrt(v / static_cast<double>(y.size())), 1e-12);

  const int n = x.rows();
  const int bs = std::min(opt.batch_size, n);
  Rng rng(opt.seed);
  AdamOptions adam;
  adam.lr = opt.lr;

  Matrix xb(bs, x.cols());
  Matrix yb(bs, 1);
  double last_loss = 0.0;
  for (int it = 0; it < opt.iters; ++it) {
    for (int i = 0; i < bs; ++i) {
      const int r = rng.uniform_int(0, n - 1);
      for (int j = 0; j < x.cols(); ++j) xb(i, j) = xs(r, j);
      yb(i, 0) = (y[static_cast<std::size_t>(r)] - y_mean_) / y_std_;
    }
    last_loss = net_.loss_and_grad(xb, yb);
    net_.adam_step(adam);
    if ((it + 1) % 100 == 0) adam.lr *= opt.lr_decay;
  }
  fitted_ = true;

  TrainReport rep;
  rep.final_mse = last_loss;
  rep.iters_run = opt.iters;
  // One batched pass over the already standardized rows: per row the same
  // arithmetic as predict(), which standardizes with the same expression.
  const Matrix out = net_.forward(xs);
  rep.predictions.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) rep.predictions[static_cast<std::size_t>(i)] = out(i, 0) * y_std_ + y_mean_;
  rep.train_mape = common::mape_percent(rep.predictions, y);
  return rep;
}

double Regressor::predict(std::span<const double> x) const {
  if (!fitted_) throw std::logic_error("Regressor::predict before fit");
  const std::vector<double> xs = feat_std_.transform_row(x);
  Matrix in(1, static_cast<int>(xs.size()));
  for (std::size_t j = 0; j < xs.size(); ++j) in(0, static_cast<int>(j)) = xs[j];
  const Matrix out = net_.forward(in);
  return out(0, 0) * y_std_ + y_mean_;
}

}  // namespace pipette::mlp
