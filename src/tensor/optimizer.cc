#include "tensor/optimizer.h"

#include <cmath>

namespace pa::tensor {

float Optimizer::ClipGradNorm(float max_norm) {
  double total = 0.0;
  for (Tensor& p : params_) {
    const float* g = p.grad_data();
    for (int64_t i = 0; i < p.numel(); ++i) {
      total += static_cast<double>(g[i]) * g[i];
    }
  }
  const float norm = static_cast<float>(std::sqrt(total));
  if (norm > max_norm && norm > 0.0f) {
    const float scale = max_norm / norm;
    for (Tensor& p : params_) {
      float* g = p.grad_data();
      for (int64_t i = 0; i < p.numel(); ++i) g[i] *= scale;
    }
  }
  return norm;
}

void Sgd::Step() {
  for (Tensor& p : params_) {
    float* w = p.data();
    const float* g = p.grad_data();
    for (int64_t i = 0; i < p.numel(); ++i) {
      float grad = g[i];
      if (weight_decay_ != 0.0f) grad += weight_decay_ * w[i];
      w[i] -= lr_ * grad;
    }
  }
}

Adam::Adam(std::vector<Tensor> params, float lr, float beta1, float beta2,
           float eps)
    : Optimizer(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const Tensor& p : params_) {
    m_.emplace_back(p.numel(), 0.0f);
    v_.emplace_back(p.numel(), 0.0f);
  }
}

void Adam::Step() {
  ++step_count_;
  const float bc1 =
      1.0f - std::pow(beta1_, static_cast<float>(step_count_));
  const float bc2 =
      1.0f - std::pow(beta2_, static_cast<float>(step_count_));
  // Locals: a float store through w, m or v could alias a float member, so
  // the loop would reload each member per element and not vectorize.
  const float beta1 = beta1_, beta2 = beta2_, lr = lr_, eps = eps_;
  for (size_t pi = 0; pi < params_.size(); ++pi) {
    Tensor& p = params_[pi];
    float* w = p.data();
    const float* g = p.grad_data();
    float* m = m_[pi].data();
    float* v = v_[pi].data();
    const int64_t n = p.numel();
    for (int64_t i = 0; i < n; ++i) {
      m[i] = beta1 * m[i] + (1.0f - beta1) * g[i];
      v[i] = beta2 * v[i] + (1.0f - beta2) * g[i] * g[i];
      const float mhat = m[i] / bc1;
      const float vhat = v[i] / bc2;
      w[i] -= lr * mhat / (std::sqrt(vhat) + eps);
    }
  }
}

}  // namespace pa::tensor
