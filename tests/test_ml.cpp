// Tests for the ML stack: tensors, layer forward/backward (numerical
// gradient checks), losses, optimizers, persistence, and the TC pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <thread>

#include "ml/network.hpp"
#include "ml/tc_pipeline.hpp"

namespace climate::ml {
namespace {

namespace fs = std::filesystem;

// FNV-1a over shapes and float bit patterns, so digests pin every bit.
struct Digest {
  std::uint64_t value = 1469598103934665603ull;
  void add_bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      value ^= p[i];
      value *= 1099511628211ull;
    }
  }
  void add(float v) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    add_bytes(&bits, sizeof(bits));
  }
  void add(const Tensor& t) {
    for (std::size_t d : t.shape()) {
      const std::uint64_t n = d;
      add_bytes(&n, sizeof(n));
    }
    for (std::size_t i = 0; i < t.size(); ++i) add(t[i]);
  }
};

TEST(Tensor, ShapeAndAccessors) {
  Tensor t({2, 3});
  EXPECT_EQ(t.size(), 6u);
  t.at2(1, 2) = 5.0f;
  EXPECT_FLOAT_EQ(t[5], 5.0f);
  Tensor t4({2, 3, 4, 5});
  t4.at4(1, 2, 3, 4) = 9.0f;
  EXPECT_FLOAT_EQ(t4[((1 * 3 + 2) * 4 + 3) * 5 + 4], 9.0f);
}

TEST(Tensor, ReshapeChecksSize) {
  Tensor t({4, 4});
  t.reshape({2, 8});
  EXPECT_EQ(t.dim(1), 8u);
  EXPECT_THROW(t.reshape({3, 3}), std::invalid_argument);
}

TEST(Tensor, HeUniformBounded) {
  common::Rng rng(1);
  Tensor t = Tensor::he_uniform({64}, 16, rng);
  const float limit = std::sqrt(6.0f / 16.0f);
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_LE(std::fabs(t[i]), limit);
  }
}

// Numerical gradient check of a whole network against backprop.
TEST(Layers, GradientCheckDenseReluSigmoid) {
  common::Rng rng(3);
  Sequential net;
  net.add(std::make_unique<Dense>(5, 4, rng))
      .add(std::make_unique<ReLU>())
      .add(std::make_unique<Dense>(4, 2, rng))
      .add(std::make_unique<Sigmoid>());

  Tensor input({2, 5});
  common::Rng data_rng(5);
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<float>(data_rng.normal(0, 1));
  }
  Tensor target({2, 2});
  target.fill(1.0f);

  auto loss_fn = [&]() {
    Tensor pred = net.forward(input, true);
    Tensor grad;
    return std::make_pair(bce_loss(pred, target, &grad), grad);
  };

  net.zero_grad();
  auto [loss, grad] = loss_fn();
  net.backward(grad);

  // Compare analytic parameter gradients against central differences.
  const float eps = 1e-3f;
  int checked = 0;
  for (Parameter* p : net.parameters()) {
    for (std::size_t i = 0; i < std::min<std::size_t>(p->value.size(), 4); ++i) {
      const float saved = p->value[i];
      p->value[i] = saved + eps;
      const float plus = loss_fn().first;
      p->value[i] = saved - eps;
      const float minus = loss_fn().first;
      p->value[i] = saved;
      const float numeric = (plus - minus) / (2 * eps);
      EXPECT_NEAR(p->grad[i], numeric, 2e-2f) << p->name << "[" << i << "]";
      ++checked;
    }
  }
  EXPECT_GE(checked, 8);
}

TEST(Layers, GradientCheckConvPool) {
  common::Rng rng(11);
  Sequential net;
  net.add(std::make_unique<Conv2D>(1, 2, 3, rng))
      .add(std::make_unique<ReLU>())
      .add(std::make_unique<MaxPool2>())
      .add(std::make_unique<Flatten>())
      .add(std::make_unique<Dense>(2 * 2 * 2, 1, rng))
      .add(std::make_unique<Sigmoid>());

  Tensor input({1, 1, 4, 4});
  common::Rng data_rng(13);
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<float>(data_rng.normal(0, 1));
  }
  Tensor target({1, 1});
  target[0] = 1.0f;

  auto loss_fn = [&]() {
    Tensor pred = net.forward(input, true);
    Tensor grad;
    return std::make_pair(bce_loss(pred, target, &grad), grad);
  };
  net.zero_grad();
  auto [loss, grad] = loss_fn();
  net.backward(grad);

  const float eps = 1e-3f;
  for (Parameter* p : net.parameters()) {
    for (std::size_t i = 0; i < std::min<std::size_t>(p->value.size(), 3); ++i) {
      const float saved = p->value[i];
      p->value[i] = saved + eps;
      const float plus = loss_fn().first;
      p->value[i] = saved - eps;
      const float minus = loss_fn().first;
      p->value[i] = saved;
      EXPECT_NEAR(p->grad[i], (plus - minus) / (2 * eps), 3e-2f) << p->name;
    }
  }
}

TEST(Layers, Conv2DPreservesSpatialSize) {
  common::Rng rng(2);
  Conv2D conv(3, 8, 3, rng);
  Tensor input({2, 3, 10, 12});
  Tensor out = conv.forward(input, false);
  EXPECT_EQ(out.shape(), (std::vector<std::size_t>{2, 8, 10, 12}));
  EXPECT_THROW(Conv2D(1, 1, 4, rng), std::invalid_argument);  // even kernel
}

// Digests recorded from the per-element Conv2D loops that the row-wise ones
// replaced. Shapes cover kernels 1/3/5, planes smaller than the kernel, and
// channel counts that are not powers of two. A third of the output gradients
// are exact zeros (half of them -0), so the zero paths are exercised, and
// backward runs twice so gradients also accumulate onto non-zero values.
TEST(Layers, Conv2DGoldenDigests) {
  struct Case {
    std::size_t B, C, F, K, H, W;
    std::uint64_t out, grad_input, grad_weight, grad_bias;
  };
  const Case cases[] = {
      {1, 1, 1, 1, 1, 1,
       0x46aedecc5b574b3aull, 0x8b5fb46ccda5ab41ull,
       0xb07f98982b27dc79ull, 0xf728d5736c463b3eull},
      {2, 3, 5, 3, 1, 1,
       0x5cb86dd4365820c0ull, 0x4a88c33934a9a1ddull,
       0x5114f6721e541d05ull, 0x1e8499ac575475bdull},
      {1, 2, 3, 5, 3, 2,
       0x930b7d08b327cb8dull, 0x5a7d86e7bcfd3103ull,
       0x87a04b3a01b1d5dfull, 0xd57db788d61e2ceeull},
      {3, 5, 7, 5, 9, 13,
       0xf2237c7ff8ea3cd1ull, 0xd2d85ded98afc299ull,
       0xd5d8e431d597133cull, 0xfe45a6b1779b2a18ull},
      {4, 4, 8, 3, 16, 16,
       0xcd68b17e8ba7bd4aull, 0x53bcba8855983fefull,
       0xe19176cdd7bdaf3bull, 0x2db21507da1397e6ull},
      {2, 3, 6, 1, 7, 5,
       0x3f591bfd3a0ebb83ull, 0xf197a55d8922a409ull,
       0xea46ee84f7d93cb7ull, 0x33c1564182b136e3ull},
      {4, 7, 3, 3, 2, 9,
       0x215f536b7d2c039full, 0xc5019d4eb49a17feull,
       0xa7564f3b2b075f11ull, 0xb0a67a585e7aadedull},
      {1, 6, 5, 5, 4, 4,
       0xcf7d2cff39db36d0ull, 0x1e3d4e9942868b03ull,
       0x0105f7de190fefe6ull, 0xe21e5e1656c21ec6ull},
      {3, 8, 16, 3, 8, 8,
       0x0e660c704bf6f6fbull, 0x2f08b9fbc1c7d7a2ull,
       0x4de4098aec7a437cull, 0xc0432e4d7c9a79b9ull},
  };
  std::uint64_t seed = 900;
  for (const Case& c : cases) {
    common::Rng rng(++seed);
    Conv2D conv(c.C, c.F, c.K, rng);
    Parameter* weight = conv.parameters()[0];
    Parameter* bias = conv.parameters()[1];
    for (std::size_t i = 0; i < bias->value.size(); ++i) {
      bias->value[i] = static_cast<float>(rng.normal(0, 0.5));
    }
    Tensor input({c.B, c.C, c.H, c.W});
    for (std::size_t i = 0; i < input.size(); ++i) {
      input[i] = rng.uniform() < 0.1 ? 0.0f : static_cast<float>(rng.normal(0, 1));
    }
    auto random_grad = [&]() {
      Tensor g({c.B, c.F, c.H, c.W});
      for (std::size_t i = 0; i < g.size(); ++i) {
        const double u = rng.uniform();
        g[i] = u < 1.0 / 6 ? 0.0f : u < 1.0 / 3 ? -0.0f : static_cast<float>(rng.normal(0, 1));
      }
      return g;
    };

    Digest out, grad_input, grad_weight, grad_bias;
    out.add(conv.forward(input, true));
    grad_input.add(conv.backward(random_grad()));
    grad_input.add(conv.backward(random_grad()));
    grad_weight.add(weight->grad);
    grad_bias.add(bias->grad);
    const std::string shape = "B" + std::to_string(c.B) + " C" + std::to_string(c.C) + " F" +
                              std::to_string(c.F) + " K" + std::to_string(c.K) + " " +
                              std::to_string(c.H) + "x" + std::to_string(c.W);
    EXPECT_EQ(out.value, c.out) << std::hex << "out 0x" << out.value << " " << shape;
    EXPECT_EQ(grad_input.value, c.grad_input)
        << std::hex << "grad_input 0x" << grad_input.value << " " << shape;
    EXPECT_EQ(grad_weight.value, c.grad_weight)
        << std::hex << "grad_weight 0x" << grad_weight.value << " " << shape;
    EXPECT_EQ(grad_bias.value, c.grad_bias)
        << std::hex << "grad_bias 0x" << grad_bias.value << " " << shape;
  }
}

TEST(Layers, MaxPoolHalvesAndSelectsMax) {
  MaxPool2 pool;
  Tensor input({1, 1, 2, 2});
  input[0] = 1;
  input[1] = 7;
  input[2] = 3;
  input[3] = 5;
  Tensor out = pool.forward(input, false);
  EXPECT_EQ(out.shape(), (std::vector<std::size_t>{1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(out[0], 7.0f);
}

// Random tensor: normal values, a tenth of them ±0 (half -0). With
// `specials`, another tenth are +Inf, -Inf or NaN.
Tensor random_tensor(std::vector<std::size_t> shape, common::Rng& rng, bool specials) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.size(); ++i) {
    const double u = rng.uniform();
    if (u < 0.05) {
      t[i] = 0.0f;
    } else if (u < 0.1) {
      t[i] = -0.0f;
    } else if (specials && u < 0.2) {
      const float kSpecials[] = {INFINITY, -INFINITY, NAN};
      t[i] = kSpecials[rng.uniform_index(3)];
    } else {
      t[i] = static_cast<float>(rng.normal(0, 1));
    }
  }
  return t;
}

// Random output gradient: a third of the elements ±0 (half of them -0).
Tensor random_grad(std::vector<std::size_t> shape, common::Rng& rng) {
  Tensor g(std::move(shape));
  for (std::size_t i = 0; i < g.size(); ++i) {
    const double u = rng.uniform();
    g[i] = u < 1.0 / 6 ? 0.0f : u < 1.0 / 3 ? -0.0f : static_cast<float>(rng.normal(0, 1));
  }
  return g;
}

// Gives every 2x2 pooling window of a [B, C, H, W] tensor a value above
// -1e30f, so that each window has a maximum to route its gradient to.
void give_every_window_a_max(Tensor& t, common::Rng& rng) {
  const std::size_t H = t.dim(2), W = t.dim(3);
  for (std::size_t plane = 0; plane < t.dim(0) * t.dim(1); ++plane) {
    for (std::size_t y = 0; y + 1 < H; y += 2) {
      for (std::size_t x = 0; x + 1 < W; x += 2) {
        float* r0 = t.data() + (plane * H + y) * W + x;
        float* window[4] = {r0, r0 + 1, r0 + W, r0 + W + 1};
        if (std::none_of(window, window + 4, [](const float* v) { return *v > -1e30f; })) {
          *window[rng.uniform_index(4)] = static_cast<float>(rng.normal(0, 1));
        }
      }
    }
  }
}

// Digests recorded from the per-element loops of MaxPool2, ReLU, Dense and
// Sigmoid before their forward passes went row-wise and register-tiled: each
// layer's forward (training and inference) and two backward passes on random
// shapes. MaxPool2 and ReLU see ±0, ±Inf and NaN inputs (every pooling window
// keeps a value above -1e30f); Dense sees finite inputs with ±0 and a bias
// with ±0 entries, and its gradients accumulate over both passes.
TEST(Layers, ForwardGoldenDigests) {
  struct Expect {
    std::uint64_t forward, backward;
  };
  const auto check = [](const char* what, const Digest& fwd, const Digest& bwd,
                        const Expect& expect) {
    EXPECT_EQ(fwd.value, expect.forward) << std::hex << what << " forward 0x" << fwd.value;
    EXPECT_EQ(bwd.value, expect.backward) << std::hex << what << " backward 0x" << bwd.value;
  };
  common::Rng rng(2024);

  // MaxPool2 over even and odd planes, including planes that pool to nothing.
  {
    Digest fwd, bwd;
    const std::vector<std::vector<std::size_t>> shapes = {
        {1, 1, 2, 2}, {2, 3, 5, 7}, {3, 4, 16, 16}, {6, 8, 8, 8}, {1, 2, 1, 3}, {2, 1, 9, 4}};
    for (const auto& shape : shapes) {
      MaxPool2 pool;
      Tensor input = random_tensor(shape, rng, /*specials=*/true);
      give_every_window_a_max(input, rng);
      fwd.add(pool.forward(input, false));
      const Tensor out = pool.forward(input, true);
      fwd.add(out);
      bwd.add(pool.backward(random_grad(out.shape(), rng)));
      bwd.add(pool.backward(random_grad(out.shape(), rng)));
    }
    check("maxpool2", fwd, bwd, {0x9d7ba20560fe4a1bull, 0x1f3cf307cc77e78aull});
  }

  // ReLU on rank-2 and rank-4 tensors.
  {
    Digest fwd, bwd;
    const std::vector<std::vector<std::size_t>> shapes = {
        {1, 1}, {3, 17}, {2, 3, 5, 7}, {6, 8, 16, 16}};
    for (const auto& shape : shapes) {
      ReLU relu;
      const Tensor input = random_tensor(shape, rng, /*specials=*/true);
      fwd.add(relu.forward(input, false));
      fwd.add(relu.forward(input, true));
      bwd.add(relu.backward(random_grad(shape, rng)));
      bwd.add(relu.backward(random_grad(shape, rng)));
    }
    check("relu", fwd, bwd, {0x6d1766419790acb7ull, 0x339d1ac9c129e507ull});
  }

  // Dense, including the TC localizer's two shapes at the workflow's batch.
  {
    Digest fwd, bwd;
    const std::size_t shapes[][3] = {{1, 1, 1}, {3, 7, 5}, {2, 13, 9}, {6, 256, 64}, {6, 64, 3}};
    for (const auto& [B, N, M] : shapes) {
      Dense dense(N, M, rng);
      Parameter* weight = dense.parameters()[0];
      Parameter* bias = dense.parameters()[1];
      bias->value = random_tensor({M}, rng, /*specials=*/false);
      const Tensor input = random_tensor({B, N}, rng, /*specials=*/false);
      fwd.add(dense.forward(input, false));
      fwd.add(dense.forward(input, true));
      bwd.add(dense.backward(random_grad({B, M}, rng)));
      bwd.add(dense.backward(random_grad({B, M}, rng)));
      bwd.add(weight->grad);
      bwd.add(bias->grad);
    }
    check("dense", fwd, bwd, {0x2cf94abe85da22bfull, 0xae82a985930f44d4ull});
  }

  // Sigmoid, with inputs large enough to saturate at 0 and 1.
  {
    Digest fwd, bwd;
    const std::vector<std::vector<std::size_t>> shapes = {{1, 1}, {6, 3}, {4, 33}};
    for (const auto& shape : shapes) {
      Sigmoid sigmoid;
      Tensor input = random_tensor(shape, rng, /*specials=*/false);
      for (std::size_t i = 0; i < input.size(); i += 5) input[i] *= 60.0f;
      fwd.add(sigmoid.forward(input, false));
      fwd.add(sigmoid.forward(input, true));
      bwd.add(sigmoid.backward(random_grad(shape, rng)));
      bwd.add(sigmoid.backward(random_grad(shape, rng)));
    }
    check("sigmoid", fwd, bwd, {0x7d4e582287f13063ull, 0x5614e41e562ba5f2ull});
  }
}

// A window whose values are all NaN or no greater than -1e30f pools to
// -1e30f, and in training its gradient goes to the window's own first
// element, not to another window's.
TEST(Layers, MaxPoolBackwardStaysInItsWindow) {
  const std::size_t B = 2, C = 2, H = 4, W = 6;
  Tensor input({B, C, H, W});
  for (std::size_t i = 0; i < input.size(); ++i) input[i] = static_cast<float>(i % 7) - 3.0f;
  // Windows (y, x) of image 1, channel 1 with no value above -1e30f.
  const float kLow[][4] = {{NAN, NAN, NAN, NAN},
                           {-INFINITY, -INFINITY, -INFINITY, -INFINITY},
                           {-2e30f, NAN, -1e30f, -INFINITY}};
  const std::size_t kWindows[][2] = {{0, 0}, {0, 2}, {1, 1}};
  for (std::size_t k = 0; k < 3; ++k) {
    const std::size_t y = 2 * kWindows[k][0], x = 2 * kWindows[k][1];
    for (std::size_t i = 0; i < 4; ++i) input.at4(1, 1, y + i / 2, x + i % 2) = kLow[k][i];
  }

  MaxPool2 pool;
  const Tensor inferred = pool.forward(input, false);
  const Tensor out = pool.forward(input, true);
  EXPECT_EQ(std::memcmp(inferred.data(), out.data(), out.size() * sizeof(float)), 0);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(out.at4(1, 1, kWindows[k][0], kWindows[k][1]), -1e30f) << "window " << k;
  }

  // Output element i carries gradient i + 1, so each routed value names its
  // window.
  Tensor grad(out.shape());
  for (std::size_t i = 0; i < grad.size(); ++i) grad[i] = static_cast<float>(i + 1);
  const Tensor grad_input = pool.backward(grad);
  for (std::size_t b = 0; b < B; ++b) {
    for (std::size_t c = 0; c < C; ++c) {
      for (std::size_t y = 0; y < H; ++y) {
        for (std::size_t x = 0; x < W; ++x) {
          const float g = grad_input.at4(b, c, y, x);
          if (g == 0.0f) continue;
          const std::size_t window = ((b * C + c) * (H / 2) + y / 2) * (W / 2) + x / 2;
          EXPECT_EQ(g, grad[window]) << "b" << b << " c" << c << " y" << y << " x" << x;
        }
      }
    }
  }
  for (std::size_t k = 0; k < 3; ++k) {
    const std::size_t y = 2 * kWindows[k][0], x = 2 * kWindows[k][1];
    const std::size_t window = ((1 * C + 1) * (H / 2) + y / 2) * (W / 2) + x / 2;
    EXPECT_EQ(grad_input.at4(1, 1, y, x), grad[window]) << "window " << k;
  }
}

// The per-element Conv2D forward that the row-wise and register-tiled ones
// replaced: each output sums its bias, then every in-plane tap (c, ky, kx) in
// ascending order.
Tensor conv_forward_per_element(const Tensor& input, const Tensor& weight, const Tensor& bias) {
  const std::size_t B = input.dim(0), C = input.dim(1), H = input.dim(2), W = input.dim(3);
  const std::size_t F = weight.dim(0);
  Tensor out({B, F, H, W});
  const long k = static_cast<long>(weight.dim(2));
  const long p = k / 2;
  for (std::size_t b = 0; b < B; ++b) {
    for (std::size_t f = 0; f < F; ++f) {
      for (std::size_t y = 0; y < H; ++y) {
        for (std::size_t x = 0; x < W; ++x) {
          float acc = bias[f];
          for (std::size_t c = 0; c < C; ++c) {
            for (long ky = 0; ky < k; ++ky) {
              const long iy = static_cast<long>(y) + ky - p;
              if (iy < 0 || iy >= static_cast<long>(H)) continue;
              for (long kx = 0; kx < k; ++kx) {
                const long ix = static_cast<long>(x) + kx - p;
                if (ix < 0 || ix >= static_cast<long>(W)) continue;
                acc += input.at4(b, c, static_cast<std::size_t>(iy), static_cast<std::size_t>(ix)) *
                       weight.at4(f, c, static_cast<std::size_t>(ky), static_cast<std::size_t>(kx));
              }
            }
          }
          out.at4(b, f, y, x) = acc;
        }
      }
    }
  }
  return out;
}

// Index of the first element whose bits differ, or a.size() when equal. Two
// NaNs count as equal: when both operands of an add are NaN, x86 returns the
// first one's payload, and which operand comes first is the compiler's choice
// for a commutative +, in the per-element loop as much as in the kernel
// (IEEE 754 leaves the payload unspecified too).
std::size_t first_bit_difference(const Tensor& a, const Tensor& b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::isnan(a[i]) && std::isnan(b[i])) continue;
    if (std::memcmp(a.data() + i, b.data() + i, sizeof(float)) != 0) return i;
  }
  return a.size();
}

// Conv2D's forward against the per-element loop, bit for bit, on random
// shapes: B 1-7, C 1-9 and F 1-11 (mostly not multiples of 4), K 1/3/5,
// planes 1-19 wide and high (planes smaller than the kernel too), ±0, ±Inf
// and NaN inputs, ±0 biases and both training values.
TEST(Layers, Conv2DForwardMatchesPerElementLoop) {
  common::Rng rng(4711);
  const std::size_t kernels[] = {1, 3, 5};
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t B = 1 + rng.uniform_index(7), C = 1 + rng.uniform_index(9),
                      F = 1 + rng.uniform_index(11), K = kernels[rng.uniform_index(3)],
                      H = 1 + rng.uniform_index(19), W = 1 + rng.uniform_index(19);
    const bool training = trial % 2 == 1;
    Conv2D conv(C, F, K, rng);
    Parameter* weight = conv.parameters()[0];
    Parameter* bias = conv.parameters()[1];
    bias->value = random_tensor({F}, rng, /*specials=*/false);
    // A tap with a special input turns most outputs it reaches into ±Inf or
    // NaN, so only every third trial has them.
    const Tensor input = random_tensor({B, C, H, W}, rng, /*specials=*/trial % 3 == 0);
    const Tensor expected = conv_forward_per_element(input, weight->value, bias->value);
    const Tensor got = conv.forward(input, training);
    ASSERT_EQ(got.shape(), expected.shape());
    const std::size_t i = first_bit_difference(got, expected);
    ASSERT_EQ(i, got.size()) << "B" << B << " C" << C << " F" << F << " K" << K << " " << H
                             << "x" << W << " training " << training << ": element " << i
                             << " is " << got[i] << ", per-element loop gives " << expected[i];
  }

  // A -0 bias over -0 input planes with positive weights sums to -0 only if
  // every out-of-plane tap is skipped: adding its zero product (+0) would
  // turn the output into +0.
  for (const std::size_t K : {3, 5}) {
    for (const std::size_t W : {1, 2, 3, 5, 8, 9, 16, 17}) {
      const std::size_t B = 2, C = 3, F = 5, H = 4;
      Conv2D conv(C, F, K, rng);
      Parameter* weight = conv.parameters()[0];
      Parameter* bias = conv.parameters()[1];
      for (std::size_t i = 0; i < weight->value.size(); ++i) {
        weight->value[i] = std::fabs(weight->value[i]) + 1e-3f;
      }
      bias->value.fill(-0.0f);
      const Tensor input({B, C, H, W}, -0.0f);
      const Tensor got = conv.forward(input, W % 2 == 0);
      const Tensor expected = conv_forward_per_element(input, weight->value, bias->value);
      EXPECT_EQ(first_bit_difference(got, expected), got.size()) << "K" << K << " W" << W;
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_TRUE(got[i] == 0.0f && std::signbit(got[i]))
            << "K" << K << " W" << W << " element " << i;
      }
    }
  }
}

// The per-element Conv2D backward that the register-tiled one replaced: per
// output gradient g at (b, f, y, x), in ascending order, the bias grad adds g,
// and every in-plane tap (c, ky, kx) adds g * input to its weight grad and
// g * weight to the input grad it came from. So a weight's grad runs over
// (b, y, x) ascending and an input element's over (f, ky descending, kx
// descending), from +0.
struct ConvBackwardPerElement {
  Tensor weight, weight_grad, bias_grad;

  Tensor backward(const Tensor& input, const Tensor& grad_output) {
    const std::size_t B = input.dim(0), C = input.dim(1), H = input.dim(2), W = input.dim(3);
    const std::size_t F = weight.dim(0);
    const long k = static_cast<long>(weight.dim(2));
    const long p = k / 2;
    Tensor grad_input(input.shape());
    for (std::size_t b = 0; b < B; ++b) {
      for (std::size_t f = 0; f < F; ++f) {
        for (std::size_t y = 0; y < H; ++y) {
          for (std::size_t x = 0; x < W; ++x) {
            const float g = grad_output.at4(b, f, y, x);
            bias_grad[f] += g;
            for (std::size_t c = 0; c < C; ++c) {
              for (long ky = 0; ky < k; ++ky) {
                const long iy = static_cast<long>(y) + ky - p;
                if (iy < 0 || iy >= static_cast<long>(H)) continue;
                for (long kx = 0; kx < k; ++kx) {
                  const long ix = static_cast<long>(x) + kx - p;
                  if (ix < 0 || ix >= static_cast<long>(W)) continue;
                  const auto uy = static_cast<std::size_t>(iy), ux = static_cast<std::size_t>(ix);
                  const auto uky = static_cast<std::size_t>(ky), ukx = static_cast<std::size_t>(kx);
                  weight_grad.at4(f, c, uky, ukx) += g * input.at4(b, c, uy, ux);
                  grad_input.at4(b, c, uy, ux) += g * weight.at4(f, c, uky, ukx);
                }
              }
            }
          }
        }
      }
    }
    return grad_input;
  }
};

// Conv2D's backward against the per-element loop, bit for bit, on random
// shapes: B 1-6, C 1-9 and F 1-11 (mostly not multiples of the tiles' 4 and
// 8), K 1/3/5, planes 1-13 wide and high (planes smaller than the kernel
// too), ±0 inputs, and two accumulating passes with a third of the gradients
// ±0. Every third trial has an ±Inf or NaN weight: its product with the +0
// padding around an edge would turn input grads into NaN, so this checks
// that out-of-plane taps are skipped. backward_params() accumulates the same
// parameter grads.
TEST(Layers, Conv2DBackwardMatchesPerElementLoop) {
  common::Rng rng(4712);
  const std::size_t kernels[] = {1, 3, 5};
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t B = 1 + rng.uniform_index(6), C = 1 + rng.uniform_index(9),
                      F = 1 + rng.uniform_index(11), K = kernels[rng.uniform_index(3)],
                      H = 1 + rng.uniform_index(13), W = 1 + rng.uniform_index(13);
    Conv2D conv(C, F, K, rng), params_only(C, F, K, rng);
    Parameter* weight = conv.parameters()[0];
    Parameter* bias = conv.parameters()[1];
    if (trial % 3 == 0) {
      const float kSpecials[] = {INFINITY, -INFINITY, NAN};
      weight->value[rng.uniform_index(weight->value.size())] = kSpecials[rng.uniform_index(3)];
    }
    params_only.parameters()[0]->value = weight->value;
    ConvBackwardPerElement ref{weight->value, Tensor(weight->value.shape()), Tensor({F})};
    const Tensor input = random_tensor({B, C, H, W}, rng, /*specials=*/false);
    conv.forward(input, true);
    params_only.forward(input, true);
    const std::string shape = "B" + std::to_string(B) + " C" + std::to_string(C) + " F" +
                              std::to_string(F) + " K" + std::to_string(K) + " " +
                              std::to_string(H) + "x" + std::to_string(W);
    for (int pass = 0; pass < 2; ++pass) {
      const Tensor grad = random_grad({B, F, H, W}, rng);
      const Tensor grad_input = conv.backward(grad);
      params_only.backward_params(grad);
      const Tensor expected = ref.backward(input, grad);
      ASSERT_EQ(grad_input.shape(), expected.shape());
      ASSERT_EQ(first_bit_difference(grad_input, expected), grad_input.size())
          << shape << " grad_input, pass " << pass;
      ASSERT_EQ(first_bit_difference(weight->grad, ref.weight_grad), weight->grad.size())
          << shape << " weight grad, pass " << pass;
      ASSERT_EQ(first_bit_difference(bias->grad, ref.bias_grad), bias->grad.size())
          << shape << " bias grad, pass " << pass;
      ASSERT_EQ(first_bit_difference(params_only.parameters()[0]->grad, weight->grad),
                weight->grad.size())
          << shape << " backward_params weight grad, pass " << pass;
      ASSERT_EQ(first_bit_difference(params_only.parameters()[1]->grad, bias->grad),
                bias->grad.size())
          << shape << " backward_params bias grad, pass " << pass;
    }
  }
}

// The per-element Dense loops that the register-tiled forward and the
// row-wise backward replaced. Forward: bias, then x * w over n ascending,
// skipping x == 0. Backward: per (b, m) with g != 0, the bias, weight and
// input grads accumulate g, g * x and g * w.
struct DensePerElement {
  Tensor weight, bias, weight_grad, bias_grad;

  Tensor forward(const Tensor& input) const {
    const std::size_t B = input.dim(0), N = weight.dim(0), M = weight.dim(1);
    Tensor out({B, M});
    for (std::size_t b = 0; b < B; ++b) {
      for (std::size_t m = 0; m < M; ++m) out.at2(b, m) = bias[m];
      for (std::size_t n = 0; n < N; ++n) {
        const float x = input.at2(b, n);
        if (x == 0.0f) continue;
        for (std::size_t m = 0; m < M; ++m) out.at2(b, m) += x * weight.at2(n, m);
      }
    }
    return out;
  }

  Tensor backward(const Tensor& input, const Tensor& grad_output) {
    const std::size_t B = input.dim(0), N = weight.dim(0), M = weight.dim(1);
    Tensor grad_input({B, N});
    for (std::size_t b = 0; b < B; ++b) {
      for (std::size_t m = 0; m < M; ++m) {
        const float g = grad_output.at2(b, m);
        if (g == 0.0f) continue;
        bias_grad[m] += g;
        for (std::size_t n = 0; n < N; ++n) {
          weight_grad.at2(n, m) += g * input.at2(b, n);
          grad_input.at2(b, n) += g * weight.at2(n, m);
        }
      }
    }
    return grad_input;
  }
};

// Dense against the per-element loops on random shapes: M on and off the
// forward's register tiles, ±0 inputs and biases, ±Inf and NaN inputs in
// every fourth forward trial, and two accumulating backward passes with a
// third of the gradients ±0 (on finite inputs, as the network's are).
TEST(Layers, DenseMatchesPerElementLoop) {
  common::Rng rng(4713);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t B = 1 + rng.uniform_index(7), N = 1 + rng.uniform_index(40),
                      M = 1 + rng.uniform_index(70);
    const bool specials = trial % 4 == 0;
    Dense dense(N, M, rng);
    Parameter* weight = dense.parameters()[0];
    Parameter* bias = dense.parameters()[1];
    bias->value = random_tensor({M}, rng, /*specials=*/false);
    DensePerElement ref{weight->value, bias->value, Tensor({N, M}), Tensor({M})};
    const Tensor input = random_tensor({B, N}, rng, specials);
    const std::string shape = "B" + std::to_string(B) + " N" + std::to_string(N) + " M" +
                              std::to_string(M) + (specials ? " specials" : "");
    const Tensor inferred = dense.forward(input, false);
    ASSERT_EQ(first_bit_difference(inferred, ref.forward(input)), inferred.size()) << shape;
    const Tensor out = dense.forward(input, true);
    ASSERT_EQ(first_bit_difference(out, inferred), out.size()) << shape;
    if (specials) continue;
    for (int pass = 0; pass < 2; ++pass) {
      const Tensor grad = random_grad({B, M}, rng);
      const Tensor grad_input = dense.backward(grad);
      ASSERT_EQ(first_bit_difference(grad_input, ref.backward(input, grad)), grad_input.size())
          << shape << " grad_input, pass " << pass;
      ASSERT_EQ(first_bit_difference(weight->grad, ref.weight_grad), weight->grad.size())
          << shape << " weight grad, pass " << pass;
      ASSERT_EQ(first_bit_difference(bias->grad, ref.bias_grad), bias->grad.size())
          << shape << " bias grad, pass " << pass;
    }
  }
}

TEST(Losses, BceAtPerfectPredictionNearZero) {
  Tensor pred({1, 1});
  pred[0] = 0.9999f;
  Tensor target({1, 1});
  target[0] = 1.0f;
  Tensor grad;
  EXPECT_LT(bce_loss(pred, target, &grad), 1e-3f);
  pred[0] = 0.0001f;
  EXPECT_GT(bce_loss(pred, target, &grad), 5.0f);
}

TEST(Losses, MaskedMseIgnoresMaskedElements) {
  Tensor pred({1, 2});
  pred[0] = 1.0f;
  pred[1] = 100.0f;  // wildly wrong but masked out
  Tensor target({1, 2});
  target[0] = 0.0f;
  target[1] = 0.0f;
  Tensor mask({1, 2});
  mask[0] = 1.0f;
  mask[1] = 0.0f;
  Tensor grad;
  const float loss = mse_loss(pred, target, mask, &grad);
  EXPECT_NEAR(loss, 0.5f, 1e-5f);  // only (1-0)^2 / 2 elements
  EXPECT_FLOAT_EQ(grad[1], 0.0f);
}

TEST(Optimizers, AdamReducesLossOnToyProblem) {
  common::Rng rng(17);
  Sequential net;
  net.add(std::make_unique<Dense>(2, 8, rng))
      .add(std::make_unique<ReLU>())
      .add(std::make_unique<Dense>(8, 1, rng))
      .add(std::make_unique<Sigmoid>());
  AdamOptimizer adam(net.parameters(), 5e-2f);

  // XOR-ish binary task.
  Tensor inputs({4, 2});
  const float xs[4][2] = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  Tensor targets({4, 1});
  for (int i = 0; i < 4; ++i) {
    inputs.at2(static_cast<std::size_t>(i), 0) = xs[i][0];
    inputs.at2(static_cast<std::size_t>(i), 1) = xs[i][1];
    targets[static_cast<std::size_t>(i)] = (xs[i][0] != xs[i][1]) ? 1.0f : 0.0f;
  }
  float first_loss = 0, last_loss = 0;
  for (int epoch = 0; epoch < 300; ++epoch) {
    net.zero_grad();
    Tensor pred = net.forward(inputs, true);
    Tensor grad;
    const float loss = bce_loss(pred, targets, &grad);
    if (epoch == 0) first_loss = loss;
    last_loss = loss;
    net.backward(grad);
    adam.step();
  }
  EXPECT_LT(last_loss, first_loss * 0.3f);
  EXPECT_LT(last_loss, 0.3f);
}

TEST(Network, SaveLoadRoundTrip) {
  const std::string path = (fs::temp_directory_path() / "weights_test.bin").string();
  common::Rng rng(31);
  Sequential a;
  a.add(std::make_unique<Dense>(4, 3, rng)).add(std::make_unique<Dense>(3, 2, rng));
  ASSERT_TRUE(a.save_weights(path).ok());

  common::Rng rng2(99);
  Sequential b;
  b.add(std::make_unique<Dense>(4, 3, rng2)).add(std::make_unique<Dense>(3, 2, rng2));
  ASSERT_TRUE(b.load_weights(path).ok());

  Tensor input({1, 4});
  input.fill(0.5f);
  const Tensor pa = a.forward(input, false);
  const Tensor pb = b.forward(input, false);
  for (std::size_t i = 0; i < pa.size(); ++i) EXPECT_FLOAT_EQ(pa[i], pb[i]);

  // Architecture mismatch refuses to load.
  Sequential c;
  common::Rng rng3(1);
  c.add(std::make_unique<Dense>(4, 3, rng3));
  EXPECT_FALSE(c.load_weights(path).ok());
  fs::remove(path);
}

TEST(TcPipeline, PatchTilingCoversGrid) {
  common::Field psl(32, 48, 1013.0f), wspd(32, 48, 5.0f), vort(32, 48, 0.0f), tas(32, 48, 20.0f);
  auto patches = make_patches(psl, wspd, vort, tas, 16);
  EXPECT_EQ(patches.size(), 2u * 3u);
  EXPECT_EQ(patches[0].features.shape(), (std::vector<std::size_t>{kTcChannels, 16, 16}));
  // Feature scaling applied: psl 1013 -> 0.
  EXPECT_NEAR(patches[0].features[0], 0.0f, 1e-5f);
}

TEST(TcPipeline, LabelPatchesFindsCenters) {
  common::Field f(32, 48, 0.0f);
  auto patches = make_patches(f, f, f, f, 16);
  label_patches(patches, 16, {{20.0, 40.0}});  // inside patch (1, 2)
  int positives = 0;
  for (const TcPatch& p : patches) {
    if (p.has_tc) {
      ++positives;
      EXPECT_EQ(p.row0, 16u);
      EXPECT_EQ(p.col0, 32u);
      EXPECT_NEAR(p.center_row_frac, 4.0f / 16.0f, 1e-5f);
      EXPECT_NEAR(p.center_col_frac, 8.0f / 16.0f, 1e-5f);
    }
  }
  EXPECT_EQ(positives, 1);
}

TEST(TcPipeline, LocalizerLearnsSyntheticCyclones) {
  // Synthetic patches: a pressure dip + wind ring at a random position for
  // positives, flat noise for negatives. The CNN must learn to separate
  // them and regress the centre.
  const std::size_t patch = 16;
  common::Rng rng(41);
  auto make_sample = [&](bool positive) {
    TcPatch p;
    p.features = Tensor({kTcChannels, patch, patch});
    const double cy = 3 + rng.uniform() * (patch - 6);
    const double cx = 3 + rng.uniform() * (patch - 6);
    for (std::size_t y = 0; y < patch; ++y) {
      for (std::size_t x = 0; x < patch; ++x) {
        float psl = 1013.0f + static_cast<float>(rng.normal(0, 1.2));
        float wind = 6.0f + static_cast<float>(rng.normal(0, 1.5));
        float vort = static_cast<float>(rng.normal(0, 0.4));
        float temp = 25.0f + static_cast<float>(rng.normal(0, 0.8));
        if (positive) {
          const double r2 = ((y - cy) * (y - cy) + (x - cx) * (x - cx)) / 9.0;
          psl -= 35.0f * static_cast<float>(std::exp(-r2));
          wind += 28.0f * static_cast<float>(std::exp(-r2 / 2));
          vort += 6.0f * static_cast<float>(std::exp(-r2));
        }
        p.features[(0 * patch + y) * patch + x] = scale_feature(0, psl);
        p.features[(1 * patch + y) * patch + x] = scale_feature(1, wind);
        p.features[(2 * patch + y) * patch + x] = scale_feature(2, vort);
        p.features[(3 * patch + y) * patch + x] = scale_feature(3, temp);
      }
    }
    p.has_tc = positive;
    p.center_row_frac = static_cast<float>(cy / patch);
    p.center_col_frac = static_cast<float>(cx / patch);
    return p;
  };

  std::vector<TcPatch> train;
  for (int i = 0; i < 160; ++i) train.push_back(make_sample(i % 2 == 0));

  TcLocalizer localizer(patch, 4242);
  float loss = 0;
  for (int epoch = 0; epoch < 12; ++epoch) loss = localizer.train_epoch(train);
  EXPECT_LT(loss, 0.5f);

  // Held-out evaluation.
  int correct = 0;
  double center_err = 0;
  int positives = 0;
  std::vector<TcPatch> test;
  for (int i = 0; i < 60; ++i) test.push_back(make_sample(i % 2 == 0));
  const auto outputs = localizer.infer(test);
  for (std::size_t i = 0; i < test.size(); ++i) {
    const bool predicted = outputs[i].presence > 0.5f;
    if (predicted == test[i].has_tc) ++correct;
    if (test[i].has_tc) {
      ++positives;
      center_err += std::hypot(outputs[i].row_frac - test[i].center_row_frac,
                               outputs[i].col_frac - test[i].center_col_frac);
    }
  }
  EXPECT_GT(correct, 50);  // > 83% accuracy
  EXPECT_LT(center_err / positives, 0.25);  // within a quarter patch
}

TEST(TcPipeline, DetectEndToEndOnSyntheticField) {
  // Train quickly, then run detect() on a full field with one synthetic
  // cyclone imprinted, checking geo-referencing.
  const std::size_t patch = 16;
  common::LatLonGrid grid(32, 48);
  common::Field psl(grid, 1013.0f), wspd(grid, 5.0f), vort(grid, 0.0f), tas(grid, 24.0f);
  const std::size_t cy = 12, cx = 30;
  for (std::size_t y = 0; y < 32; ++y) {
    for (std::size_t x = 0; x < 48; ++x) {
      const double r2 =
          ((y - static_cast<double>(cy)) * (y - static_cast<double>(cy)) +
           (x - static_cast<double>(cx)) * (x - static_cast<double>(cx))) / 6.0;
      psl.at(y, x) -= 38.0f * static_cast<float>(std::exp(-r2));
      wspd.at(y, x) += 30.0f * static_cast<float>(std::exp(-r2 / 2));
      vort.at(y, x) += 7.0f * static_cast<float>(std::exp(-r2));
    }
  }

  // Training patches from shifted copies of the same pattern.
  TcLocalizer localizer(patch, 7);
  std::vector<TcPatch> train;
  common::Rng rng(3);
  for (int i = 0; i < 120; ++i) {
    const bool positive = i % 2 == 0;
    common::Field p2(patch, patch, 1013.0f), w2(patch, patch, 5.0f), v2(patch, patch, 0.0f),
        t2(patch, patch, 24.0f);
    const double py = 3 + rng.uniform() * 10, px = 3 + rng.uniform() * 10;
    for (std::size_t y = 0; y < patch; ++y) {
      for (std::size_t x = 0; x < patch; ++x) {
        double r2 = ((y - py) * (y - py) + (x - px) * (x - px)) / 6.0;
        if (positive) {
          p2.at(y, x) -= 38.0f * static_cast<float>(std::exp(-r2));
          w2.at(y, x) += 30.0f * static_cast<float>(std::exp(-r2 / 2));
          v2.at(y, x) += 7.0f * static_cast<float>(std::exp(-r2));
        }
        p2.at(y, x) += static_cast<float>(rng.normal(0, 1.0));
        w2.at(y, x) += static_cast<float>(rng.normal(0, 1.0));
      }
    }
    auto patches = make_patches(p2, w2, v2, t2, patch);
    patches[0].has_tc = positive;
    patches[0].center_row_frac = static_cast<float>(py / patch);
    patches[0].center_col_frac = static_cast<float>(px / patch);
    train.push_back(std::move(patches[0]));
  }
  for (int epoch = 0; epoch < 12; ++epoch) localizer.train_epoch(train);

  const auto detections =
      localizer.detect(psl, wspd, vort, tas, TcTiling::native(grid, patch), 0.5);
  ASSERT_GE(detections.size(), 1u);
  // Nearest detection to the imprinted centre.
  const double true_lat = grid.lat(cy);
  const double true_lon = grid.lon(cx);
  double best = 1e18;
  for (const TcDetection& d : detections) {
    best = std::min(best, common::great_circle_km(d.lat, d.lon, true_lat, true_lon));
  }
  // One cell of this very coarse 32x48 test grid spans ~600 km; require the
  // centre within a few cells.
  EXPECT_LT(best, 2200.0);
}

// Seeded random patches with random labels (not learnable; only the bits of
// the arithmetic matter here).
std::vector<TcPatch> random_patches(std::size_t count, std::uint64_t seed) {
  const std::size_t patch = 16;
  common::Rng rng(seed);
  std::vector<TcPatch> patches(count);
  for (TcPatch& p : patches) {
    p.features = Tensor({kTcChannels, patch, patch});
    for (std::size_t i = 0; i < p.features.size(); ++i) {
      p.features[i] = static_cast<float>(rng.normal(0, 1));
    }
    p.has_tc = rng.bernoulli(0.5);
    p.center_row_frac = static_cast<float>(rng.uniform());
    p.center_col_frac = static_cast<float>(rng.uniform());
  }
  return patches;
}

void add_outputs(Digest& digest, const std::vector<TcLocalizer::Output>& outputs) {
  for (const TcLocalizer::Output& o : outputs) {
    digest.add(o.presence);
    digest.add(o.row_frac);
    digest.add(o.col_frac);
  }
}

// Digests recorded from the per-element Conv2D loops: every parameter after
// two epochs on 300 patches, and the trained network's outputs on 100 more
// (two inference chunks).
TEST(TcLocalizer, GoldenWeightsAfterTraining) {
  TcLocalizer localizer(16, 4242);
  const std::vector<TcPatch> train = random_patches(300, 77);
  for (int epoch = 0; epoch < 2; ++epoch) localizer.train_epoch(train);
  Digest weights;
  for (Parameter* p : localizer.net().parameters()) weights.add(p->value);
  Digest outputs;
  add_outputs(outputs, localizer.infer(random_patches(100, 78)));
  EXPECT_EQ(weights.value, 0xcfda9367ee6c6a2eull) << std::hex << "weights 0x" << weights.value;
  EXPECT_EQ(outputs.value, 0x9146e9a9d10d1a68ull) << std::hex << "outputs 0x" << outputs.value;
}

// The workflow shares one localizer across runtime workers, so inference
// must not write layer state: concurrent calls match serial ones bitwise.
TEST(TcLocalizer, ConcurrentInferenceMatchesSerial) {
  TcLocalizer localizer(16, 5);
  localizer.train_epoch(random_patches(32, 6));
  const std::vector<TcPatch> patches = random_patches(12, 8);
  Digest serial;
  add_outputs(serial, localizer.infer(patches));

  constexpr int kThreads = 4;
  constexpr int kCalls = 50;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCalls; ++i) {
        Digest d;
        add_outputs(d, localizer.infer(patches));
        if (d.value != serial.value) ++mismatches[t];
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << "thread " << t;
}

Field random_field(const LatLonGrid& grid, double mean, double sd, common::Rng& rng) {
  Field field(grid);
  for (std::size_t i = 0; i < field.size(); ++i) {
    field[i] = static_cast<float>(rng.normal(mean, sd));
  }
  return field;
}

std::vector<TcTiling> both_tilings(const LatLonGrid& grid) {
  return {TcTiling::native(grid, 16), TcTiling::half_resolution(grid, 16)};
}

TEST(TcTiling, GridsOfTheTwoTilings) {
  const LatLonGrid grid(72, 104);
  const TcTiling native = TcTiling::native(grid, 16);
  EXPECT_EQ(native.nlat(), 72u);
  EXPECT_EQ(native.nlon(), 104u);
  const TcTiling half = TcTiling::half_resolution(grid, 16);
  EXPECT_EQ(half.nlat(), 32u);  // 36 rounded down to whole patches
  EXPECT_EQ(half.nlon(), 48u);  // 52 likewise
  EXPECT_EQ(half.patch(), 16u);
}

TEST(TcTiling, LatLonAndRowColRoundTrip) {
  const LatLonGrid grid(64, 96);
  common::Rng rng(90);
  for (const TcTiling& tiling : both_tilings(grid)) {
    const auto nlat = static_cast<double>(tiling.nlat());
    const auto nlon = static_cast<double>(tiling.nlon());
    for (int i = 0; i < 500; ++i) {
      const double lat = rng.uniform(-90.0, 90.0);
      const double lon = rng.uniform(0.0, 360.0);
      const auto [row, col] = tiling.row_col(lat, lon);
      const auto [lat2, lon2] = tiling.lat_lon(row, col);
      EXPECT_NEAR(lat2, lat, 1e-9);
      EXPECT_NEAR(lon2, lon, 1e-9);

      const double r = rng.uniform(-0.5, nlat - 0.5);
      const double c = rng.uniform(-0.5, nlon - 0.5);
      const auto [lat3, lon3] = tiling.lat_lon(r, c);
      const auto [r2, c2] = tiling.row_col(lat3, lon3);
      EXPECT_NEAR(r2, r, 1e-9);
      EXPECT_NEAR(c2, c, 1e-9);
    }
  }
  // On the native tiling, whole rows are the model grid's latitude centres.
  // (Columns are not: LatLonGrid centres column j at j * dlon, the tiling at
  // (j + 0.5) * dlon; ROADMAP item 1 tracks the half-cell offset.)
  const TcTiling native = TcTiling::native(grid, 16);
  for (std::size_t r = 0; r < grid.nlat(); ++r) {
    EXPECT_NEAR(native.row_col(grid.lat(r), 0.0).first, static_cast<double>(r), 1e-9);
  }
}

// detect() must equal the pipeline spelled out with the grid primitives:
// bilinear regrid onto the tiled grid (when it differs from the model grid),
// make_patches, infer, and each predicted centre mapped back to lat/lon.
TEST(TcTiling, DetectIsRegridTileInferGeoreference) {
  const LatLonGrid grid(64, 96);
  common::Rng rng(91);
  const Field psl = random_field(grid, 1010.0, 8.0, rng);
  const Field wspd = random_field(grid, 8.0, 4.0, rng);
  const Field vort = random_field(grid, 0.0, 2.0, rng);
  const Field tas = random_field(grid, 20.0, 6.0, rng);
  TcLocalizer localizer(16, 5);
  localizer.train_epoch(random_patches(32, 6));

  for (const TcTiling& tiling : both_tilings(grid)) {
    const bool regrid = tiling.nlat() != grid.nlat() || tiling.nlon() != grid.nlon();
    auto on_grid = [&](const Field& f) {
      return regrid ? common::regrid_bilinear(f, tiling.nlat(), tiling.nlon()) : f;
    };
    const std::vector<TcPatch> patches =
        make_patches(on_grid(psl), on_grid(wspd), on_grid(vort), on_grid(tas), 16);
    ASSERT_EQ(patches.size(), (tiling.nlat() / 16) * (tiling.nlon() / 16));
    const std::vector<TcPatch> tiled = tiling.tile(psl, wspd, vort, tas);
    ASSERT_EQ(tiled.size(), patches.size());
    for (std::size_t i = 0; i < patches.size(); ++i) {
      EXPECT_EQ(tiled[i].row0, patches[i].row0);
      EXPECT_EQ(tiled[i].col0, patches[i].col0);
      ASSERT_EQ(0, std::memcmp(tiled[i].features.data(), patches[i].features.data(),
                               patches[i].features.size() * sizeof(float)));
    }

    const std::vector<TcLocalizer::Output> outputs = localizer.infer(patches);
    // A threshold at the median presence keeps some patches and drops others.
    std::vector<float> presence;
    for (const TcLocalizer::Output& o : outputs) presence.push_back(o.presence);
    std::nth_element(presence.begin(), presence.begin() + presence.size() / 2, presence.end());
    const double threshold = presence[presence.size() / 2];

    std::vector<TcDetection> expected;
    for (std::size_t i = 0; i < patches.size(); ++i) {
      if (outputs[i].presence < threshold) continue;
      const double row = static_cast<double>(patches[i].row0) +
                         static_cast<double>(outputs[i].row_frac) * 16.0;
      const double col = static_cast<double>(patches[i].col0) +
                         static_cast<double>(outputs[i].col_frac) * 16.0;
      expected.push_back({-90.0 + (row + 0.5) * 180.0 / static_cast<double>(tiling.nlat()),
                          (col + 0.5) * 360.0 / static_cast<double>(tiling.nlon()),
                          outputs[i].presence});
    }
    ASSERT_GT(expected.size(), 0u);
    ASSERT_LT(expected.size(), patches.size());

    const std::vector<TcDetection> detections =
        localizer.detect(psl, wspd, vort, tas, tiling, threshold);
    ASSERT_EQ(detections.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(detections[i].lat, expected[i].lat);
      EXPECT_EQ(detections[i].lon, expected[i].lon);
      EXPECT_EQ(detections[i].confidence, expected[i].confidence);
    }
  }
}

}  // namespace
}  // namespace climate::ml
