#include "ml/network.hpp"

#include <cmath>
#include <cstdint>
#include <fstream>

#include "obs/obs.hpp"

namespace climate::ml {

Tensor Sequential::forward(const Tensor& input, bool training) {
  if (layers_.empty()) return input;
  // Each layer reads the previous one's output; the first reads `input`
  // itself, so the batch is not copied.
  Tensor x;
  const Tensor* in = &input;
  if (obs::enabled()) {
    const std::size_t nlayers = layers_.size();
    if (hists_ready_.load(std::memory_order_acquire) != nlayers) {
      std::lock_guard<std::mutex> lock(hists_mutex_);
      if (hists_ready_.load(std::memory_order_relaxed) != nlayers) {
        layer_hists_.clear();
        for (std::size_t i = 0; i < nlayers; ++i) {
          layer_hists_.push_back(obs::MetricsRegistry::global().histogram(
              "ml.layer_forward_ns.L" + std::to_string(i) + "_" + layers_[i]->name()));
        }
        hists_ready_.store(nlayers, std::memory_order_release);
      }
    }
    for (std::size_t i = 0; i < layers_.size(); ++i) {
      const std::int64_t t0 = obs::now_ns();
      x = layers_[i]->forward(*in, training);
      in = &x;
      layer_hists_[i]->observe(static_cast<double>(obs::now_ns() - t0));
    }
    return x;
  }
  for (auto& layer : layers_) {
    x = layer->forward(*in, training);
    in = &x;
  }
  return x;
}

void Sequential::backward(const Tensor& grad_output) {
  if (layers_.empty()) return;
  Tensor g = grad_output;
  for (std::size_t i = layers_.size(); i-- > 1;) g = layers_[i]->backward(g);
  layers_.front()->backward_params(g);
}

std::vector<Parameter*> Sequential::parameters() {
  std::vector<Parameter*> params;
  for (auto& layer : layers_) {
    for (Parameter* p : layer->parameters()) params.push_back(p);
  }
  return params;
}

void Sequential::zero_grad() {
  for (Parameter* p : parameters()) p->grad.fill(0.0f);
}

Status Sequential::save_weights(const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::Unavailable("cannot write " + path);
  const auto params = parameters();
  const auto count = static_cast<std::uint32_t>(params.size());
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  for (const Parameter* p : params) {
    const auto n = static_cast<std::uint64_t>(p->value.size());
    out.write(reinterpret_cast<const char*>(&n), sizeof(n));
    out.write(reinterpret_cast<const char*>(p->value.data()),
              static_cast<std::streamsize>(n * sizeof(float)));
  }
  if (!out) return Status::DataLoss("short weight write to " + path);
  return Status::Ok();
}

Status Sequential::load_weights(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::uint32_t count = 0;
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  auto params = parameters();
  if (count != params.size()) {
    return Status::InvalidArgument("weight file has " + std::to_string(count) +
                                   " tensors, model expects " + std::to_string(params.size()));
  }
  for (Parameter* p : params) {
    std::uint64_t n = 0;
    in.read(reinterpret_cast<char*>(&n), sizeof(n));
    if (!in || n != p->value.size()) {
      return Status::InvalidArgument("weight tensor size mismatch for " + p->name);
    }
    in.read(reinterpret_cast<char*>(p->value.data()),
            static_cast<std::streamsize>(n * sizeof(float)));
    if (!in) return Status::DataLoss("truncated weight file " + path);
  }
  return Status::Ok();
}

float bce_loss(const Tensor& pred, const Tensor& target, Tensor* grad) {
  *grad = Tensor(pred.shape());
  float loss = 0.0f;
  const float eps = 1e-7f;
  const auto n = static_cast<float>(pred.size());
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const float p = std::min(1.0f - eps, std::max(eps, pred[i]));
    const float y = target[i];
    loss += -(y * std::log(p) + (1.0f - y) * std::log(1.0f - p));
    (*grad)[i] = (p - y) / (p * (1.0f - p)) / n;
  }
  return loss / n;
}

float mse_loss(const Tensor& pred, const Tensor& target, const Tensor& mask, Tensor* grad) {
  *grad = Tensor(pred.shape());
  float loss = 0.0f;
  const auto n = static_cast<float>(pred.size());
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const float d = (pred[i] - target[i]) * mask[i];
    loss += d * d;
    (*grad)[i] = 2.0f * d * mask[i] / n;
  }
  return loss / n;
}

AdamOptimizer::AdamOptimizer(std::vector<Parameter*> params, float lr, float beta1, float beta2,
                             float eps)
    : params_(std::move(params)), lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {
  for (const Parameter* p : params_) {
    m_.emplace_back(p->value.size(), 0.0f);
    v_.emplace_back(p->value.size(), 0.0f);
  }
}

void AdamOptimizer::step() {
  ++t_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  for (std::size_t k = 0; k < params_.size(); ++k) {
    Parameter* p = params_[k];
    for (std::size_t i = 0; i < p->value.size(); ++i) {
      const float g = p->grad[i];
      m_[k][i] = beta1_ * m_[k][i] + (1.0f - beta1_) * g;
      v_[k][i] = beta2_ * v_[k][i] + (1.0f - beta2_) * g * g;
      const float mhat = m_[k][i] / bc1;
      const float vhat = v_[k][i] / bc2;
      p->value[i] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
    }
  }
}

}  // namespace climate::ml
