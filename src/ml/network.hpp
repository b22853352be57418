// Sequential network container, losses, the Adam optimizer, and weight
// persistence — the training/inference core of the TC localizer.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "ml/layers.hpp"

namespace climate::obs {
class Histogram;
}

namespace climate::ml {

using common::Result;
using common::Status;

/// A feed-forward stack of layers.
class Sequential {
 public:
  Sequential() = default;

  /// Appends a layer (builder style).
  Sequential& add(std::unique_ptr<Layer> layer) {
    layers_.push_back(std::move(layer));
    return *this;
  }

  /// Forward pass. training=true caches activations for backward().
  Tensor forward(const Tensor& input, bool training = false);

  /// Backpropagates dLoss/dOutput through every layer.
  void backward(const Tensor& grad_output);

  /// All learnable parameters.
  std::vector<Parameter*> parameters();

  /// Zeroes all parameter gradients.
  void zero_grad();

  /// Saves / loads all parameter values (binary, shape-checked on load).
  Status save_weights(const std::string& path);
  Status load_weights(const std::string& path);

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
  // Per-layer forward-latency histograms ("ml.layer_forward_ns.L<i>_<name>"),
  // resolved lazily on the first instrumented forward pass. Registry handles
  // are stable for the process lifetime, so raw pointers are safe to cache.
  // Inference may run from several runtime workers at once, so the lazy init
  // is double-checked: hists_ready_ holds the layer count the cache was built
  // for (acquire/release pairs with the build under hists_mutex_).
  std::vector<obs::Histogram*> layer_hists_;
  std::atomic<std::size_t> hists_ready_{0};
  std::mutex hists_mutex_;
};

/// Binary cross-entropy over sigmoid outputs in (0,1). Returns the mean loss
/// and writes dLoss/dPred into `grad` (same shape as pred).
float bce_loss(const Tensor& pred, const Tensor& target, Tensor* grad);

/// Mean squared error; per-element mask (same shape) scales both loss and
/// gradient (used to train offsets only on positive patches).
float mse_loss(const Tensor& pred, const Tensor& target, const Tensor& mask, Tensor* grad);

/// Adam optimizer.
class AdamOptimizer {
 public:
  explicit AdamOptimizer(std::vector<Parameter*> params, float lr = 1e-3f, float beta1 = 0.9f,
                         float beta2 = 0.999f, float eps = 1e-8f);

  /// Applies one update from the accumulated gradients.
  void step();

 private:
  std::vector<Parameter*> params_;
  std::vector<std::vector<float>> m_, v_;
  float lr_, beta1_, beta2_, eps_;
  std::size_t t_ = 0;
};

}  // namespace climate::ml
