#include "ml/tensor.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

namespace climate::ml {

Tensor::Tensor(std::vector<std::size_t> shape, float fill) : shape_(std::move(shape)) {
  std::size_t total = 1;
  for (std::size_t d : shape_) total *= d;
  data_.assign(total, fill);
}

Tensor Tensor::he_uniform(std::vector<std::size_t> shape, std::size_t fan_in, common::Rng& rng) {
  Tensor t(std::move(shape));
  const float limit = std::sqrt(6.0f / static_cast<float>(fan_in == 0 ? 1 : fan_in));
  for (float& v : t.data_) v = static_cast<float>(rng.uniform(-limit, limit));
  return t;
}

void Tensor::reshape(std::vector<std::size_t> shape) {
  std::size_t total = 1;
  for (std::size_t d : shape) total *= d;
  if (total != data_.size()) {
    throw std::invalid_argument("Tensor::reshape: size mismatch (" + std::to_string(total) +
                                " vs " + std::to_string(data_.size()) + ")");
  }
  shape_ = std::move(shape);
}

}  // namespace climate::ml
