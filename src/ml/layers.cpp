#include "ml/layers.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace climate::ml {

// --------------------------------------------------------------- Conv2D

Conv2D::Conv2D(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
               common::Rng& rng)
    : in_channels_(in_channels), out_channels_(out_channels), kernel_(kernel),
      pad_(kernel / 2) {
  if (kernel % 2 == 0) throw std::invalid_argument("Conv2D: kernel must be odd");
  const std::size_t fan_in = in_channels * kernel * kernel;
  weight_ = {"conv.w", Tensor::he_uniform({out_channels, in_channels, kernel, kernel}, fan_in, rng),
             Tensor::zeros({out_channels, in_channels, kernel, kernel})};
  bias_ = {"conv.b", Tensor::zeros({out_channels}), Tensor::zeros({out_channels})};
}

namespace {

// Output positions o in [begin, end) whose input position o + k - pad lies in
// [0, n), for kernel offset k of a stride-1 convolution padded by `pad`.
struct Span {
  std::size_t begin, end;
};
Span valid_span(std::size_t n, std::size_t pad, std::size_t k) {
  const std::size_t begin = pad > k ? pad - k : 0;
  const std::size_t end = n + pad > k ? std::min(n, n + pad - k) : 0;
  return {begin, std::max(begin, end)};
}

// Calls run(out, in, n) for the contiguous runs of an H x W plane that kernel
// tap (ky, kx) touches: output offsets out..out+n read input offsets in..in+n.
// Runs come in ascending row order; when the tap keeps whole rows (kx == pad)
// its rows are one run.
template <typename Run>
void for_each_run(std::size_t H, std::size_t W, std::size_t pad, std::size_t ky, std::size_t kx,
                  Run&& run) {
  const Span ys = valid_span(H, pad, ky);
  const Span xs = valid_span(W, pad, kx);
  const std::size_t n = xs.end - xs.begin;
  if (n == 0 || ys.begin == ys.end) return;
  if (n == W) {
    run(ys.begin * W, (ys.begin + ky - pad) * W, (ys.end - ys.begin) * W);
    return;
  }
  for (std::size_t y = ys.begin; y < ys.end; ++y) {
    run(y * W + xs.begin, (y + ky - pad) * W + xs.begin + kx - pad, n);
  }
}

// dst[i] += src[i] * w along one run.
void add_scaled(float* __restrict dst, const float* __restrict src, float w, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] += src[i] * w;
}

}  // namespace

// Every output element sums its bias, then (c, ky, kx) in ascending order
// (Layers.Conv2DGoldenDigests pins the bits). The innermost loop runs along
// rows, so it is contiguous and vectorises.
Tensor Conv2D::forward(const Tensor& input, bool training) {
  const std::size_t B = input.dim(0), C = input.dim(1), H = input.dim(2), W = input.dim(3);
  if (C != in_channels_) throw std::invalid_argument("Conv2D: channel mismatch");
  const std::size_t F = out_channels_, K = kernel_, P = pad_;
  Tensor out({B, F, H, W});
  for (std::size_t b = 0; b < B; ++b) {
    for (std::size_t f = 0; f < F; ++f) {
      float* oplane = out.data() + (b * F + f) * H * W;
      std::fill(oplane, oplane + H * W, bias_.value[f]);
      for (std::size_t c = 0; c < C; ++c) {
        const float* iplane = input.data() + (b * C + c) * H * W;
        const float* wc = weight_.value.data() + (f * C + c) * K * K;
        for (std::size_t ky = 0; ky < K; ++ky) {
          for (std::size_t kx = 0; kx < K; ++kx) {
            const float w = wc[ky * K + kx];
            for_each_run(H, W, P, ky, kx, [&](std::size_t o, std::size_t i, std::size_t n) {
              add_scaled(oplane + o, iplane + i, w, n);
            });
          }
        }
      }
    }
  }
  if (training) input_cache_ = input;
  return out;
}

// Accumulation orders (Layers.Conv2DGoldenDigests pins the bits):
//  - bias grad over (b, y, x) ascending;
//  - each weight's grad over (b, y, x) ascending;
//  - each input element's grad over (f, ky descending, kx descending), which
//    is (f, y, x) ascending seen from the input side.
// Zero output gradients are not skipped: they add +-0 to accumulators that
// start at +0 and never reach -0, which leaves every bit unchanged.
Tensor Conv2D::backward(const Tensor& grad_output) {
  const Tensor& input = input_cache_;
  const std::size_t B = input.dim(0), C = input.dim(1), H = input.dim(2), W = input.dim(3);
  const std::size_t F = out_channels_, K = kernel_, P = pad_;
  Tensor grad_input(input.shape());
  for (std::size_t b = 0; b < B; ++b) {
    for (std::size_t f = 0; f < F; ++f) {
      const float* gplane = grad_output.data() + (b * F + f) * H * W;
      float bias_sum = bias_.grad[f];
      for (std::size_t i = 0; i < H * W; ++i) bias_sum += gplane[i];
      bias_.grad[f] = bias_sum;

      for (std::size_t c = 0; c < C; ++c) {
        const float* iplane = input.data() + (b * C + c) * H * W;
        float* giplane = grad_input.data() + (b * C + c) * H * W;
        const float* wc = weight_.value.data() + (f * C + c) * K * K;
        float* gwc = weight_.grad.data() + (f * C + c) * K * K;
        for (std::size_t ky = K; ky-- > 0;) {
          for (std::size_t kx = K; kx-- > 0;) {
            const float w = wc[ky * K + kx];
            float wsum = gwc[ky * K + kx];
            for_each_run(H, W, P, ky, kx, [&](std::size_t o, std::size_t i, std::size_t n) {
              for (std::size_t j = 0; j < n; ++j) wsum += gplane[o + j] * iplane[i + j];
              add_scaled(giplane + i, gplane + o, w, n);
            });
            gwc[ky * K + kx] = wsum;
          }
        }
      }
    }
  }
  return grad_input;
}

// ------------------------------------------------------------- MaxPool2

Tensor MaxPool2::forward(const Tensor& input, bool training) {
  const std::size_t B = input.dim(0), C = input.dim(1), H = input.dim(2), W = input.dim(3);
  const std::size_t OH = H / 2, OW = W / 2;
  Tensor out({B, C, OH, OW});
  // Layer state is only mutated when training, so concurrent inference
  // through a shared network is safe.
  if (training) argmax_.assign(out.size(), 0);
  std::size_t idx = 0;
  for (std::size_t b = 0; b < B; ++b) {
    for (std::size_t c = 0; c < C; ++c) {
      for (std::size_t y = 0; y < OH; ++y) {
        for (std::size_t x = 0; x < OW; ++x) {
          float best = -1e30f;
          std::size_t best_pos = 0;
          for (std::size_t dy = 0; dy < 2; ++dy) {
            for (std::size_t dx = 0; dx < 2; ++dx) {
              const std::size_t iy = 2 * y + dy, ix = 2 * x + dx;
              const float v = input.at4(b, c, iy, ix);
              if (v > best) {
                best = v;
                best_pos = ((b * C + c) * H + iy) * W + ix;
              }
            }
          }
          out.at4(b, c, y, x) = best;
          if (training) argmax_[idx++] = best_pos;
        }
      }
    }
  }
  if (training) input_cache_ = input;
  return out;
}

Tensor MaxPool2::backward(const Tensor& grad_output) {
  Tensor grad_input(input_cache_.shape());
  for (std::size_t i = 0; i < grad_output.size(); ++i) {
    grad_input[argmax_[i]] += grad_output[i];
  }
  return grad_input;
}

// ----------------------------------------------------------------- ReLU

Tensor ReLU::forward(const Tensor& input, bool training) {
  Tensor out = input;
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = std::max(0.0f, out[i]);
  if (training) input_cache_ = input;
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  Tensor grad = grad_output;
  for (std::size_t i = 0; i < grad.size(); ++i) {
    if (input_cache_[i] <= 0.0f) grad[i] = 0.0f;
  }
  return grad;
}

// -------------------------------------------------------------- Flatten

Tensor Flatten::forward(const Tensor& input, bool training) {
  if (training) input_shape_ = input.shape();
  Tensor out = input;
  out.reshape({input.dim(0), input.size() / input.dim(0)});
  return out;
}

Tensor Flatten::backward(const Tensor& grad_output) {
  Tensor grad = grad_output;
  grad.reshape(input_shape_);
  return grad;
}

// ---------------------------------------------------------------- Dense

Dense::Dense(std::size_t in_features, std::size_t out_features, common::Rng& rng)
    : in_features_(in_features), out_features_(out_features) {
  weight_ = {"dense.w", Tensor::he_uniform({in_features, out_features}, in_features, rng),
             Tensor::zeros({in_features, out_features})};
  bias_ = {"dense.b", Tensor::zeros({out_features}), Tensor::zeros({out_features})};
}

Tensor Dense::forward(const Tensor& input, bool training) {
  const std::size_t B = input.dim(0);
  if (input.dim(1) != in_features_) throw std::invalid_argument("Dense: feature mismatch");
  Tensor out({B, out_features_});
  for (std::size_t b = 0; b < B; ++b) {
    for (std::size_t m = 0; m < out_features_; ++m) out.at2(b, m) = bias_.value[m];
    for (std::size_t n = 0; n < in_features_; ++n) {
      const float x = input.at2(b, n);
      if (x == 0.0f) continue;
      for (std::size_t m = 0; m < out_features_; ++m) {
        out.at2(b, m) += x * weight_.value.at2(n, m);
      }
    }
  }
  if (training) input_cache_ = input;
  return out;
}

Tensor Dense::backward(const Tensor& grad_output) {
  const std::size_t B = input_cache_.dim(0);
  Tensor grad_input({B, in_features_});
  for (std::size_t b = 0; b < B; ++b) {
    for (std::size_t m = 0; m < out_features_; ++m) {
      const float g = grad_output.at2(b, m);
      if (g == 0.0f) continue;
      bias_.grad[m] += g;
      for (std::size_t n = 0; n < in_features_; ++n) {
        weight_.grad.at2(n, m) += g * input_cache_.at2(b, n);
        grad_input.at2(b, n) += g * weight_.value.at2(n, m);
      }
    }
  }
  return grad_input;
}

// -------------------------------------------------------------- Sigmoid

Tensor Sigmoid::forward(const Tensor& input, bool training) {
  Tensor out = input;
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = 1.0f / (1.0f + std::exp(-out[i]));
  }
  if (training) output_cache_ = out;
  return out;
}

Tensor Sigmoid::backward(const Tensor& grad_output) {
  Tensor grad = grad_output;
  for (std::size_t i = 0; i < grad.size(); ++i) {
    const float s = output_cache_[i];
    grad[i] *= s * (1.0f - s);
  }
  return grad;
}

}  // namespace climate::ml
