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

// The stride-1 convolution of input [B, C, H, W] with `weight` [F][C][K][K]
// and `bias` [F], padded by K / 2, in register tiles (conv_tile) over
// per-call scratch. Each output element sums its bias, then (c, ky, kx)
// ascending with out-of-plane taps contributing nothing, exactly as a
// per-element loop.
Tensor convolve(const Tensor& input, const float* weight, const float* bias, std::size_t F,
                std::size_t K) {
  const std::size_t B = input.dim(0), C = input.dim(1), H = input.dim(2), W = input.dim(3);
  const std::size_t P = K / 2;
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
    float tile_bias[kTileF] = {};
    std::copy(bias + f0, bias + f0 + nf, tile_bias);
    for (std::size_t j = 0; j < taps; ++j) {
      for (std::size_t f = 0; f < kTileF; ++f) {
        const float w = f < nf ? weight[(f0 + f) * taps + j] : 0.0f;
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
          conv_tile(g, in, w, tile_bias, y, 4 * v0, out_rows, nf);
        }
      }
    }
  }
  return out;
}

// Blocks of 4 output channels x input channels of one weight-grad register
// tile: kGradF * kGradC __m128 chains.
constexpr std::size_t kGradF = 2;
constexpr std::size_t kGradC = 4;

// Geometry of one backward pass. The output gradients are copied channels-last
// into per-call scratch: position (b, y, x) holds `blocks` vectors of 4
// channels, and channels past F hold +0.
struct GradGeometry {
  std::size_t B, C, H, W, K, P, blocks;
};

// The grads of kernel tap (ky, kx) for kGradF blocks of 4 output channels from
// block fb0 and kGradC input channels from c0: lane l of chain acc[i][j]
// belongs to weight (4 * (fb0 + i) + l, c0 + j, ky, kx) and adds
// grad * input over the tap's in-plane output positions, (b, y, x) ascending.
// Each chain is the per-element loop's; the tile only runs kGradF * kGradC of
// them side by side. Channels past C repeat channel C - 1 and are not stored.
void weight_grad_tile(const GradGeometry& g, const float* grads, const float* input,
                      std::size_t fb0, std::size_t c0, std::size_t ky, std::size_t kx,
                      __m128 (&acc)[kGradF][kGradC]) {
  const Span ys = valid_span(g.H, g.P, ky);
  const Span xs = valid_span(g.W, g.P, kx);
  const std::size_t n = xs.end - xs.begin;
  if (n == 0) return;
  for (std::size_t b = 0; b < g.B; ++b) {
    for (std::size_t y = ys.begin; y < ys.end; ++y) {
      const float* gr = grads + (((b * g.H + y) * g.W + xs.begin) * g.blocks + fb0) * 4;
      const float* in[kGradC];
      for (std::size_t j = 0; j < kGradC; ++j) {
        const std::size_t c = std::min(c0 + j, g.C - 1);
        in[j] = input + ((b * g.C + c) * g.H + y + ky - g.P) * g.W + xs.begin + kx - g.P;
      }
      for (std::size_t x = 0; x < n; ++x) {
        __m128 gv[kGradF];
        for (std::size_t i = 0; i < kGradF; ++i) gv[i] = _mm_loadu_ps(gr + (x * g.blocks + i) * 4);
        for (std::size_t j = 0; j < kGradC; ++j) {
          const __m128 xv = _mm_set1_ps(in[j][x]);
          for (std::size_t i = 0; i < kGradF; ++i) {
            acc[i][j] = _mm_add_ps(acc[i][j], _mm_mul_ps(gv[i], xv));
          }
        }
      }
    }
  }
}

}  // namespace

// Layers.Conv2DGoldenDigests and Layers.Conv2DForwardMatchesPerElementLoop
// pin the bits; scratch is per call, so concurrent inference through one layer
// shares nothing it writes.
Tensor Conv2D::forward(const Tensor& input, bool training) {
  if (input.dim(1) != in_channels_) throw std::invalid_argument("Conv2D: channel mismatch");
  Tensor out = convolve(input, weight_.value.data(), bias_.value.data(), out_channels_, kernel_);
  if (training) input_cache_ = input;
  return out;
}

// Accumulation orders, those of a per-element loop (Layers.Conv2DGoldenDigests
// and Layers.Conv2DBackwardMatchesPerElementLoop pin the bits):
//  - bias grad over (b, y, x) ascending;
//  - each weight's grad over (b, y, x) ascending, in register tiles whose
//    lanes run 4 output channels' chains (weight_grad_tile);
//  - each input element's grad (backward() only) from +0 over (f, ky
//    descending, kx descending). That is the forward's sum over grad_output
//    with the channels swapped, the kernel flipped and a +0 bias (convolve):
//    tap (f, ky', kx') ascending reads weight (f, c, K-1-ky', K-1-kx').
// Zero output gradients are not skipped in the parameter grads: they add ±0
// to accumulators that start at +0 and never reach -0, which leaves every bit
// unchanged.
void Conv2D::backward_params(const Tensor& grad_output) {
  const Tensor& input = input_cache_;
  const std::size_t B = input.dim(0), C = input.dim(1), H = input.dim(2), W = input.dim(3);
  const std::size_t F = out_channels_, K = kernel_, KK = K * K;
  const std::size_t blocks = (F + 4 * kGradF - 1) / (4 * kGradF) * kGradF;
  const GradGeometry g{B, C, H, W, K, pad_, blocks};
  float* gw = weight_.grad.data();
  float* gb = bias_.grad.data();

  std::vector<float> grads(B * H * W * blocks * 4, 0.0f);
  for (std::size_t b = 0; b < B; ++b) {
    for (std::size_t f = 0; f < F; ++f) {
      const float* plane = grad_output.data() + (b * F + f) * H * W;
      for (std::size_t i = 0; i < H * W; ++i) grads[(b * H * W + i) * blocks * 4 + f] = plane[i];
    }
  }

  for (std::size_t f = 0; f < F; ++f) {
    float sum = gb[f];
    for (std::size_t b = 0; b < B; ++b) {
      const float* plane = grad_output.data() + (b * F + f) * H * W;
      for (std::size_t i = 0; i < H * W; ++i) sum += plane[i];
    }
    gb[f] = sum;
  }

  for (std::size_t tap = 0; tap < KK; ++tap) {
    for (std::size_t fb0 = 0; fb0 < blocks; fb0 += kGradF) {
      for (std::size_t c0 = 0; c0 < C; c0 += kGradC) {
        // Lane l of chain [i][j] is weight (4 * (fb0 + i) + l, c0 + j, tap); a
        // lane past F or C has none, starts at 0 and is not stored.
        const auto weight = [&](std::size_t i, std::size_t j, std::size_t l) -> float* {
          const std::size_t f = 4 * (fb0 + i) + l, c = c0 + j;
          return f < F && c < C ? gw + (f * C + c) * KK + tap : nullptr;
        };
        alignas(16) float lanes[kGradF][kGradC][4] = {};
        __m128 acc[kGradF][kGradC];
        for (std::size_t i = 0; i < kGradF; ++i) {
          for (std::size_t j = 0; j < kGradC; ++j) {
            for (std::size_t l = 0; l < 4; ++l) {
              if (const float* w = weight(i, j, l)) lanes[i][j][l] = *w;
            }
            acc[i][j] = _mm_load_ps(lanes[i][j]);
          }
        }
        weight_grad_tile(g, grads.data(), input.data(), fb0, c0, tap / K, tap % K, acc);
        for (std::size_t i = 0; i < kGradF; ++i) {
          for (std::size_t j = 0; j < kGradC; ++j) {
            _mm_store_ps(lanes[i][j], acc[i][j]);
            for (std::size_t l = 0; l < 4; ++l) {
              if (float* w = weight(i, j, l)) *w = lanes[i][j][l];
            }
          }
        }
      }
    }
  }
}

Tensor Conv2D::backward(const Tensor& grad_output) {
  backward_params(grad_output);
  const std::size_t C = in_channels_, F = out_channels_, K = kernel_, KK = K * K;
  std::vector<float> flipped(C * F * KK);
  for (std::size_t c = 0; c < C; ++c) {
    for (std::size_t f = 0; f < F; ++f) {
      for (std::size_t t = 0; t < KK; ++t) {
        flipped[(c * F + f) * KK + t] = weight_.value[(f * C + c) * KK + KK - 1 - t];
      }
    }
  }
  const std::vector<float> zero(C, 0.0f);
  return convolve(grad_output, flipped.data(), zero.data(), C, K);
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

// A select rather than a branch, so the loop vectorizes: the sign of the
// cached input is as good as random.
Tensor ReLU::backward(const Tensor& grad_output) {
  Tensor grad = grad_output;
  float* __restrict g = grad.data();
  const float* __restrict in = input_cache_.data();
  for (std::size_t i = 0; i < grad.size(); ++i) g[i] = in[i] <= 0.0f ? 0.0f : g[i];
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

// One row of x [N] times w [N][M]: out[m] sums bias[m], then x[n] * w[n][m]
// over n ascending, skipping x[n] == 0 (which keeps a -0 bias when every
// input is 0). The inputs that are not zero are listed first, so the
// register tiles (dense_tile) run without a branch per input; columns past
// the last whole tile run the same sum one at a time.
void dense_row(const float* x, std::size_t N, const float* w, std::size_t M, const float* bias,
               std::uint32_t* nonzero, float* out) {
  const std::size_t count = list_nonzero(x, N, nonzero);
  std::size_t m = 0;
  for (; m + 4 * kDenseTileV <= M; m += 4 * kDenseTileV) {
    dense_tile(x, nonzero, count, w + m, M, bias + m, out + m);
  }
  for (; m < M; ++m) {
    float acc = bias[m];
    for (std::size_t k = 0; k < count; ++k) acc += x[nonzero[k]] * w[nonzero[k] * M + m];
    out[m] = acc;
  }
}

}  // namespace

Tensor Dense::forward(const Tensor& input, bool training) {
  const std::size_t B = input.dim(0), N = in_features_, M = out_features_;
  if (input.dim(1) != N) throw std::invalid_argument("Dense: feature mismatch");
  Tensor out({B, M});
  std::vector<std::uint32_t> nonzero(N);
  for (std::size_t b = 0; b < B; ++b) {
    dense_row(input.data() + b * N, N, weight_.value.data(), M, bias_.value.data(),
              nonzero.data(), out.data() + b * M);
  }
  if (training) input_cache_ = input;
  return out;
}

// Accumulation orders, those of a per-element loop over (b, m) that skips
// g == 0 (Layers.DenseMatchesPerElementLoop pins the bits):
//  - bias and weight grads over b ascending, along contiguous rows of M;
//  - each input element's grad over m ascending, from +0, skipping g == 0:
//    the forward's row sum (dense_row) of the gradient row over the
//    transposed weights with a +0 bias.
// The bias and weight-grad rows do not skip zero gradients: those add ±0 to
// accumulators that start at +0 and never reach -0, which leaves every bit
// unchanged (DESIGN.md "CNN hot path").
Tensor Dense::backward(const Tensor& grad_output) {
  const std::size_t B = input_cache_.dim(0), N = in_features_, M = out_features_;
  std::vector<float> transposed(M * N);
  for (std::size_t n = 0; n < N; ++n) {
    for (std::size_t m = 0; m < M; ++m) transposed[m * N + n] = weight_.value[n * M + m];
  }
  const std::vector<float> zero(N, 0.0f);
  float* gw = weight_.grad.data();
  float* gb = bias_.grad.data();
  std::vector<std::uint32_t> nonzero(M);
  Tensor grad_input({B, N});
  for (std::size_t b = 0; b < B; ++b) {
    const float* g = grad_output.data() + b * M;
    const float* x = input_cache_.data() + b * N;
    for (std::size_t m = 0; m < M; ++m) gb[m] += g[m];
    for (std::size_t n = 0; n < N; ++n) {
      const float xn = x[n];
      float* gwn = gw + n * M;
      for (std::size_t m = 0; m < M; ++m) gwn[m] += g[m] * xn;
    }
    dense_row(g, M, transposed.data(), N, zero.data(), nonzero.data(), grad_input.data() + b * N);
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
