// Neural-network layers with forward and backward passes, implemented
// directly (no BLAS); the TC localizer runs on 16x16 patches. The forward
// and backward passes of Conv2D and Dense, the hot layers, run in SSE
// register tiles, while every output and gradient element is summed in the
// order a per-element loop would use (bit-identical results; DESIGN.md "CNN
// hot path"). Inference writes no layer state (scratch is per call), so one
// network can serve concurrent forward(training=false) calls.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "ml/tensor.hpp"

namespace climate::ml {

/// A learnable parameter with its gradient accumulator.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;
};

/// Layer interface: forward caches what backward needs; backward returns the
/// gradient w.r.t. the layer input and accumulates parameter gradients.
class Layer {
 public:
  virtual ~Layer() = default;
  virtual Tensor forward(const Tensor& input, bool training) = 0;
  virtual Tensor backward(const Tensor& grad_output) = 0;
  /// backward() without the input gradient, which nothing reads for a
  /// network's first layer: only the parameter gradients accumulate.
  virtual void backward_params(const Tensor& grad_output) { backward(grad_output); }
  virtual std::vector<Parameter*> parameters() { return {}; }
  virtual std::string name() const = 0;
};

/// 2D convolution, stride 1, zero padding to preserve H and W (odd kernels).
/// Input [B, C, H, W], output [B, F, H, W].
class Conv2D : public Layer {
 public:
  Conv2D(std::size_t in_channels, std::size_t out_channels, std::size_t kernel, common::Rng& rng);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void backward_params(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }
  std::string name() const override { return "conv2d"; }

 private:
  std::size_t in_channels_, out_channels_, kernel_, pad_;
  Parameter weight_;  // [F, C, K, K]
  Parameter bias_;    // [F]
  Tensor input_cache_;
};

/// 2x2 max pooling with stride 2. Input [B, C, H, W] (H, W even).
class MaxPool2 : public Layer {
 public:
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "maxpool2"; }

 private:
  Tensor input_cache_;
  std::vector<std::size_t> argmax_;
};

/// Elementwise rectified linear unit.
class ReLU : public Layer {
 public:
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "relu"; }

 private:
  Tensor input_cache_;
};

/// Flattens [B, ...] to [B, N].
class Flatten : public Layer {
 public:
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "flatten"; }

 private:
  std::vector<std::size_t> input_shape_;
};

/// Fully connected layer [B, N] -> [B, M].
class Dense : public Layer {
 public:
  Dense(std::size_t in_features, std::size_t out_features, common::Rng& rng);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }
  std::string name() const override { return "dense"; }

 private:
  std::size_t in_features_, out_features_;
  Parameter weight_;  // [N, M]
  Parameter bias_;    // [M]
  Tensor input_cache_;
};

/// Elementwise logistic sigmoid.
class Sigmoid : public Layer {
 public:
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "sigmoid"; }

 private:
  Tensor output_cache_;
};

}  // namespace climate::ml
