// Fully-connected ReLU network with an explicit loss-and-gradient interface
// (so tests can finite-difference check the backward pass) and an Adam
// optimizer. This is the function approximator behind the paper's memory
// estimator: "five layers with 200 hidden sizes, trained for 50,000
// iterations" (Eq. 7, §VI).
//
// Layouts: the forward pass runs feature-major (activations stored as
// width x batch), so every layer is one gemm over the weights as stored,
// vectorised over the batch; the backward pass runs batch-major, so its two
// products read the weights as stored too. Only the batch-sized activations
// cross between the two layouts, never the weights. Training reuses one
// workspace, so a step allocates nothing once the batch size is fixed.
#pragma once

#include <cstdint>
#include <vector>

#include "mlp/matrix.h"

namespace pipette::mlp {

struct AdamOptions {
  double lr = 1e-3;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double eps = 1e-8;
};

class Network {
 public:
  /// `layer_sizes` is {input, hidden..., output}; hidden layers use ReLU, the
  /// output layer is linear. Weights are He-initialized from `seed`.
  Network(std::vector<int> layer_sizes, std::uint64_t seed);

  int input_dim() const { return sizes_.front(); }
  int output_dim() const { return sizes_.back(); }
  /// Full {input, hidden..., output} architecture — what a serialized network
  /// must be reconstructed with before set_parameters() restores the weights.
  const std::vector<int>& layer_sizes() const { return sizes_; }
  /// Total parameter count (weights + biases), the exact length parameters()
  /// returns and set_parameters() expects.
  std::size_t num_parameters() const;

  /// Batched forward: X is (n x input_dim), returns (n x output_dim). Each
  /// row's output is bit-identical whatever else is in the batch. Const and
  /// free of shared scratch, so engine threads may call it concurrently.
  Matrix forward(const Matrix& x) const;

  /// Mean-squared-error loss over the batch and its gradient w.r.t. all
  /// parameters (stored internally for the next `adam_step`). Returns loss.
  /// Not thread-safe: it works in the network's own training workspace.
  double loss_and_grad(const Matrix& x, const Matrix& y_target);

  /// Applies one Adam update using the gradients from the last
  /// `loss_and_grad` call.
  void adam_step(const AdamOptions& opt);

  /// Flat read/write access to all parameters (for the gradient-check test).
  std::vector<double> parameters() const;
  void set_parameters(const std::vector<double>& flat);
  /// Flat view of the last computed gradients, same order as parameters().
  std::vector<double> gradients() const;

 private:
  struct Layer {
    Matrix w;        // (out x in)
    std::vector<double> b;
    Matrix gw;       // gradient accumulators
    std::vector<double> gb;
    Matrix mw, vw;   // Adam moments
    std::vector<double> mb, vb;
  };

  // Reused by loss_and_grad; resized only when the batch size changes.
  struct Workspace {
    std::vector<double> xt;                 // input, feature-major (in x n)
    std::vector<std::vector<double>> acts;  // layer outputs, feature-major (out x n)
    std::vector<double> rows;               // one activation, batch-major (n x in)
    std::vector<double> delta, next;        // dL/d(layer output), batch-major
  };

  std::vector<int> sizes_;
  std::vector<Layer> layers_;
  std::int64_t adam_t_ = 0;
  Workspace ws_;
};

}  // namespace pipette::mlp
