// Dense float tensor used by the from-scratch neural network stack (the
// Keras/TensorFlow substitute for the TC localization CNN of section 5.4).
// Row-major storage, leading batch dimension by convention.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "common/rng.hpp"

namespace climate::ml {

/// An N-dimensional row-major float tensor.
class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(std::vector<std::size_t> shape, float fill = 0.0f);

  static Tensor zeros(std::vector<std::size_t> shape) { return Tensor(std::move(shape)); }

  /// He-uniform initialization with fan-in scaling (for conv/dense weights).
  static Tensor he_uniform(std::vector<std::size_t> shape, std::size_t fan_in,
                           common::Rng& rng);

  const std::vector<std::size_t>& shape() const { return shape_; }
  std::size_t dim(std::size_t i) const { return shape_[i]; }
  std::size_t size() const { return data_.size(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }

  // Typed accessors for the common ranks.
  float& at2(std::size_t a, std::size_t b) { return data_[a * shape_[1] + b]; }
  float at2(std::size_t a, std::size_t b) const { return data_[a * shape_[1] + b]; }
  float& at4(std::size_t a, std::size_t b, std::size_t c, std::size_t d) {
    return data_[((a * shape_[1] + b) * shape_[2] + c) * shape_[3] + d];
  }
  float at4(std::size_t a, std::size_t b, std::size_t c, std::size_t d) const {
    return data_[((a * shape_[1] + b) * shape_[2] + c) * shape_[3] + d];
  }

  void fill(float value) { data_.assign(data_.size(), value); }

  /// Reshapes in place; total size must be preserved.
  void reshape(std::vector<std::size_t> shape);

 private:
  std::vector<std::size_t> shape_;
  std::vector<float> data_;
};

}  // namespace climate::ml
