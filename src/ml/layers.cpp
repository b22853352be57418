#include "ml/layers.hpp"

#include <emmintrin.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
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

// Output channels x row vectors (4 columns each) of one forward register
// tile: kTileF * kTileV __m128 accumulators.
constexpr std::size_t kTileF = 4;
constexpr std::size_t kTileV = 2;

// One register's worth of floats; a vector element type that keeps __m128's
// alignment (a bare __m128 loses its attributes as a template argument).
struct Lanes {
  __m128 v;
};

// Geometry of one forward pass. The input rows are copied into per-call
// scratch `stride` floats apart, each plane row at column P with +0 around it.
struct ConvGeometry {
  std::size_t C, H, W, K, P, stride;
};

// One register tile: kTileF output channels x kTileV row vectors of output
// row y, from column x0. Each lane sums its channel's bias, then every tap
// (c, ky, kx) in ascending order as acc + in * w, and rows outside the plane
// skip the tap. The input row vector of a tap is loaded once for all kTileF
// channels. Vector v takes its weights from table w[v]: in an edge vector's
// table, a lane whose input column is outside the plane holds -0, so the tap
// adds +0 * -0 = -0 there, and acc + -0 is acc, bit for bit, for every acc
// (±0, ±Inf and NaN alike): the lane's sum is that of skipping the tap.
void conv_tile(const ConvGeometry& g, const float* in, const Lanes* const* w, const float* bias,
               std::size_t y, std::size_t x0, float* const* out, std::size_t nf) {
  __m128 acc[kTileF][kTileV];
  for (std::size_t f = 0; f < kTileF; ++f) {
    for (std::size_t v = 0; v < kTileV; ++v) acc[f][v] = _mm_set1_ps(bias[f]);
  }
  std::size_t tap = 0;
  for (std::size_t c = 0; c < g.C; ++c) {
    for (std::size_t ky = 0; ky < g.K; ++ky, tap += g.K) {
      if (y + ky < g.P || y + ky - g.P >= g.H) continue;
      const float* row = in + (c * g.H + y + ky - g.P) * g.stride + x0;
      for (std::size_t kx = 0; kx < g.K; ++kx) {
        for (std::size_t v = 0; v < kTileV; ++v) {
          const __m128 x = _mm_loadu_ps(row + kx + 4 * v);
          const Lanes* wk = w[v] + (tap + kx) * kTileF;
          for (std::size_t f = 0; f < kTileF; ++f) {
            acc[f][v] = _mm_add_ps(acc[f][v], _mm_mul_ps(x, wk[f].v));
          }
        }
      }
    }
  }
  // Lanes past the plane's last column are never stored.
  for (std::size_t v = 0; v < kTileV; ++v) {
    const std::size_t x = x0 + 4 * v;
    for (std::size_t f = 0; f < nf && x < g.W; ++f) {
      if (x + 4 <= g.W) {
        _mm_storeu_ps(out[f] + x, acc[f][v]);
      } else {
        alignas(16) float lanes[4];
        _mm_store_ps(lanes, acc[f][v]);
        std::copy(lanes, lanes + (g.W - x), out[f] + x);
      }
    }
  }
}

}  // namespace

// Register tiles (conv_tile) over per-call scratch, so concurrent inference
// through one layer shares nothing it writes. Each output element sums its
// bias, then (c, ky, kx) ascending with out-of-plane taps contributing
// nothing, exactly as a per-element loop (Layers.Conv2DGoldenDigests and
// Layers.Conv2DForwardMatchesPerElementLoop pin the bits).
Tensor Conv2D::forward(const Tensor& input, bool training) {
  const std::size_t B = input.dim(0), C = input.dim(1), H = input.dim(2), W = input.dim(3);
  if (C != in_channels_) throw std::invalid_argument("Conv2D: channel mismatch");
  const std::size_t F = out_channels_, K = kernel_, P = pad_;
  // Row vectors per output row, whole tiles of them.
  const std::size_t vectors = (W + 4 * kTileV - 1) / (4 * kTileV) * kTileV;
  const ConvGeometry g{C, H, W, K, P, vectors * 4 + 2 * P};

  std::vector<float> rows(B * C * H * g.stride, 0.0f);
  for (std::size_t r = 0; r < B * C * H; ++r) {
    std::copy(input.data() + r * W, input.data() + (r + 1) * W, rows.data() + r * g.stride + P);
  }

  // Per block of kTileF output channels, weight tables [C][K][K][kTileF],
  // each weight in all four lanes and channels past F zero. Table 0 serves
  // the interior vectors; an edge vector, with a lane whose input column for
  // some kx lies outside the plane, gets its own copy with -0 in that lane.
  // Lanes past column W count as inside: they are never stored.
  const auto in_plane = [&](std::size_t x, std::size_t kx) {
    return x >= W || (x + kx >= P && x + kx - P < W);
  };
  std::vector<Lanes> keep(vectors * K);  // [v][kx]: all-ones in the lanes inside
  std::vector<std::size_t> table(vectors, 0);
  std::size_t tables = 1;
  for (std::size_t v = 0; v < vectors; ++v) {
    bool edge = false;
    for (std::size_t kx = 0; kx < K; ++kx) {
      int lanes[4];
      for (std::size_t l = 0; l < 4; ++l) {
        lanes[l] = in_plane(4 * v + l, kx) ? -1 : 0;
        edge = edge || lanes[l] == 0;
      }
      keep[v * K + kx].v =
          _mm_castsi128_ps(_mm_setr_epi32(lanes[0], lanes[1], lanes[2], lanes[3]));
    }
    if (edge) table[v] = tables++;
  }
  const std::size_t taps = C * K * K, table_size = taps * kTileF;
  std::vector<Lanes> weights(tables * table_size);
  const __m128 negative_zero = _mm_set1_ps(-0.0f);

  Tensor out({B, F, H, W});
  for (std::size_t f0 = 0; f0 < F; f0 += kTileF) {
    const std::size_t nf = std::min(kTileF, F - f0);
    float bias[kTileF] = {};
    std::copy(bias_.value.data() + f0, bias_.value.data() + f0 + nf, bias);
    for (std::size_t j = 0; j < taps; ++j) {
      for (std::size_t f = 0; f < kTileF; ++f) {
        const float w = f < nf ? weight_.value[(f0 + f) * taps + j] : 0.0f;
        weights[j * kTileF + f].v = _mm_set1_ps(w);
      }
    }
    for (std::size_t v = 0; v < vectors; ++v) {
      if (table[v] == 0) continue;
      Lanes* edge = weights.data() + table[v] * table_size;
      for (std::size_t i = 0; i < table_size;) {  // taps run (c, ky, kx)
        for (std::size_t kx = 0; kx < K; ++kx) {
          const __m128 k = keep[v * K + kx].v;
          for (std::size_t f = 0; f < kTileF; ++f, ++i) {
            edge[i].v = _mm_or_ps(_mm_and_ps(k, weights[i].v), _mm_andnot_ps(k, negative_zero));
          }
        }
      }
    }
    for (std::size_t b = 0; b < B; ++b) {
      const float* in = rows.data() + b * C * H * g.stride;
      for (std::size_t y = 0; y < H; ++y) {
        float* out_rows[kTileF] = {};
        for (std::size_t f = 0; f < nf; ++f) {
          out_rows[f] = out.data() + ((b * F + f0 + f) * H + y) * W;
        }
        for (std::size_t v0 = 0; v0 < vectors; v0 += kTileV) {
          const Lanes* w[kTileV];
          for (std::size_t v = 0; v < kTileV; ++v) {
            w[v] = weights.data() + table[v0 + v] * table_size;
          }
          conv_tile(g, in, w, bias, y, 4 * v0, out_rows, nf);
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

// Each window is scanned (0,0), (0,1), (1,0), (1,1) with a strict `>` from
// -1e30f: ties keep the first, NaN never wins, and a window of values no
// greater than -1e30f (or NaN) gives -1e30f. In training each window records
// where its maximum is, from the window's own first element, so a window
// without one sends its gradient there.
Tensor MaxPool2::forward(const Tensor& input, bool training) {
  const std::size_t B = input.dim(0), C = input.dim(1), H = input.dim(2), W = input.dim(3);
  const std::size_t OH = H / 2, OW = W / 2;
  Tensor out({B, C, OH, OW});
  // Layer state is only mutated when training, so concurrent inference
  // through a shared network is safe.
  if (training) argmax_.resize(out.size());
  float* o = out.data();
  for (std::size_t plane = 0; plane < B * C; ++plane) {
    const float* in = input.data() + plane * H * W;
    for (std::size_t y = 0; y < OH; ++y, o += OW) {
      const float* r0 = in + 2 * y * W;
      const float* r1 = r0 + W;
      if (!training) {
        for (std::size_t x = 0; x < OW; ++x) {
          float best = -1e30f;
          for (const float v : {r0[2 * x], r0[2 * x + 1], r1[2 * x], r1[2 * x + 1]}) {
            best = v > best ? v : best;
          }
          o[x] = best;
        }
        continue;
      }
      std::size_t* arg = argmax_.data() + (o - out.data());
      for (std::size_t x = 0; x < OW; ++x) {
        const float* window[4] = {r0 + 2 * x, r0 + 2 * x + 1, r1 + 2 * x, r1 + 2 * x + 1};
        float best = -1e30f;
        const float* best_at = window[0];
        for (const float* at : window) {
          if (*at > best) {
            best = *at;
            best_at = at;
          }
        }
        o[x] = best;
        arg[x] = static_cast<std::size_t>(best_at - input.data());
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

namespace {

// Row vectors of one Dense register tile: 32 output columns.
constexpr std::size_t kDenseTileV = 8;

// Columns [0, 32) of one Dense output row in registers: the bias, then
// x[n] * w[n][m] for the listed inputs n, in ascending order.
void dense_tile(const float* x, const std::uint32_t* nonzero, std::size_t count, const float* w,
                std::size_t M, const float* bias, float* out) {
  __m128 acc[kDenseTileV];
  for (std::size_t v = 0; v < kDenseTileV; ++v) acc[v] = _mm_loadu_ps(bias + 4 * v);
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t n = nonzero[k];
    const __m128 xn = _mm_set1_ps(x[n]);
    for (std::size_t v = 0; v < kDenseTileV; ++v) {
      acc[v] = _mm_add_ps(acc[v], _mm_mul_ps(xn, _mm_loadu_ps(w + n * M + 4 * v)));
    }
  }
  for (std::size_t v = 0; v < kDenseTileV; ++v) _mm_storeu_ps(out + 4 * v, acc[v]);
}

// Lists the indices i < n with v[i] != 0 in `nonzero`, ascending; returns how
// many there are.
std::size_t list_nonzero(const float* v, std::size_t n, std::uint32_t* nonzero) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    nonzero[count] = static_cast<std::uint32_t>(i);
    count += v[i] != 0.0f;
  }
  return count;
}

}  // namespace

// Each output sums its bias, then x[n] * w[n][m] over n ascending, skipping
// x[n] == 0 (which keeps a -0 bias when every input is 0). The inputs that
// are not zero are listed first, so the register tiles (dense_tile) run
// without a branch per input; columns past the last whole tile run the same
// sum one at a time.
Tensor Dense::forward(const Tensor& input, bool training) {
  const std::size_t B = input.dim(0), N = in_features_, M = out_features_;
  if (input.dim(1) != N) throw std::invalid_argument("Dense: feature mismatch");
  Tensor out({B, M});
  const float* w = weight_.value.data();
  const float* bias = bias_.value.data();
  std::vector<std::uint32_t> nonzero(N);
  for (std::size_t b = 0; b < B; ++b) {
    const float* x = input.data() + b * N;
    float* o = out.data() + b * M;
    const std::size_t count = list_nonzero(x, N, nonzero.data());
    std::size_t m = 0;
    for (; m + 4 * kDenseTileV <= M; m += 4 * kDenseTileV) {
      dense_tile(x, nonzero.data(), count, w + m, M, bias + m, o + m);
    }
    for (; m < M; ++m) {
      float acc = bias[m];
      for (std::size_t k = 0; k < count; ++k) acc += x[nonzero[k]] * w[nonzero[k] * M + m];
      o[m] = acc;
    }
  }
  if (training) input_cache_ = input;
  return out;
}

// Accumulation orders, those of a per-element loop over (b, m) that skips
// g == 0 (Layers.DenseMatchesPerElementLoop pins the bits):
//  - bias and weight grads over b ascending, along contiguous rows of M;
//  - each input element's grad over m ascending, from +0: a dot product of
//    weight row n with the non-zero gradients.
// The bias and weight-grad rows do not skip zero gradients: those add ±0 to
// accumulators that start at +0 and never reach -0, which leaves every bit
// unchanged (DESIGN.md "CNN hot path").
Tensor Dense::backward(const Tensor& grad_output) {
  const std::size_t B = input_cache_.dim(0), N = in_features_, M = out_features_;
  Tensor grad_input({B, N});
  const float* w = weight_.value.data();
  float* gw = weight_.grad.data();
  float* gb = bias_.grad.data();
  std::vector<std::uint32_t> nonzero(M);
  for (std::size_t b = 0; b < B; ++b) {
    const float* g = grad_output.data() + b * M;
    const float* x = input_cache_.data() + b * N;
    float* gi = grad_input.data() + b * N;
    const std::size_t count = list_nonzero(g, M, nonzero.data());
    for (std::size_t m = 0; m < M; ++m) gb[m] += g[m];
    for (std::size_t n = 0; n < N; ++n) {
      const float xn = x[n];
      float* gwn = gw + n * M;
      for (std::size_t m = 0; m < M; ++m) gwn[m] += g[m] * xn;
      const float* wn = w + n * M;
      float sum = 0.0f;
      for (std::size_t k = 0; k < count; ++k) sum += g[nonzero[k]] * wn[nonzero[k]];
      gi[n] = sum;
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
