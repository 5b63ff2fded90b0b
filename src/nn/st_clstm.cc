#include "nn/st_clstm.h"

#include "tensor/init.h"
#include "tensor/kernels/kernels.h"
#include "tensor/ops.h"

namespace pa::nn {

namespace {

using tensor::Tensor;

// 1 - x, elementwise.
Tensor OneMinus(const Tensor& x) {
  return tensor::AddScalar(tensor::Scale(x, -1.0f), 1.0f);
}

}  // namespace

StClstmCell::StClstmCell(int input_dim, int hidden_dim, util::Rng& rng)
    : input_dim_(input_dim),
      hidden_dim_(hidden_dim),
      w_x_(tensor::XavierInit({input_dim, 3 * hidden_dim}, rng)),
      w_h_(tensor::XavierInit({hidden_dim, 3 * hidden_dim}, rng)),
      b_(tensor::Tensor::Zeros({1, 3 * hidden_dim}, /*requires_grad=*/true)),
      w_xt_(tensor::XavierInit({input_dim, hidden_dim}, rng)),
      w_t_(tensor::UniformInit({1, hidden_dim}, 0.1f, rng)),
      b_t_(tensor::Tensor::Full({1, hidden_dim}, 1.0f,
                                /*requires_grad=*/true)),
      w_xd_(tensor::XavierInit({input_dim, hidden_dim}, rng)),
      w_d_(tensor::UniformInit({1, hidden_dim}, 0.1f, rng)),
      b_d_(tensor::Tensor::Full({1, hidden_dim}, 1.0f,
                                /*requires_grad=*/true)) {}

LstmState StClstmCell::Forward(const tensor::Tensor& x, const LstmState& prev,
                               float delta_t, float delta_d) const {
  const int h = hidden_dim_;
  const int batch = x.rows();
  const tensor::Shape state_shape{batch, h};
  // Shape mismatches take the tensor-op body, whose ops report them.
  if (tensor::InferenceModeScope::Active() && tensor::fusion::Enabled() &&
      x.cols() == input_dim_ && prev.h.shape() == state_shape &&
      prev.c.shape() == state_shape) {
    LstmState next{tensor::detail::MakeInferencePooled(state_shape),
                   tensor::detail::MakeInferencePooled(state_shape)};
    ForwardRows(x.data(), prev.h.data(), prev.c.data(), delta_t, delta_d,
                next.h.data(), next.c.data(), batch);
    return next;
  }
  Tensor gates = tensor::Add(
      tensor::Add(tensor::MatMul(x, w_x_), tensor::MatMul(prev.h, w_h_)), b_);
  Tensor i = tensor::Sigmoid(tensor::SliceCols(gates, 0, h));
  Tensor g = tensor::Tanh(tensor::SliceCols(gates, h, h));
  Tensor o = tensor::Sigmoid(tensor::SliceCols(gates, 2 * h, h));

  Tensor t_gate = tensor::Sigmoid(tensor::Add(
      tensor::Add(tensor::MatMul(x, w_xt_), tensor::Scale(w_t_, delta_t)),
      b_t_));
  Tensor d_gate = tensor::Sigmoid(tensor::Add(
      tensor::Add(tensor::MatMul(x, w_xd_), tensor::Scale(w_d_, delta_d)),
      b_d_));

  Tensor effective_i = tensor::Mul(tensor::Mul(i, t_gate), d_gate);
  Tensor c = tensor::Add(tensor::Mul(OneMinus(effective_i), prev.c),
                         tensor::Mul(effective_i, g));
  Tensor hh = tensor::Mul(o, tensor::Tanh(c));
  return {std::move(hh), std::move(c)};
}

void StClstmCell::ForwardRows(const float* x, const float* h_prev,
                              const float* c_prev, float delta_t,
                              float delta_d, float* h_out, float* c_out,
                              int batch) const {
  const tensor::kernels::KernelTable& kt = tensor::kernels::Active();
  const int h = hidden_dim_;
  const int width = 3 * h;
  const int64_t n = static_cast<int64_t>(batch) * width;
  const int64_t m = static_cast<int64_t>(batch) * h;
  // Zeroed products: x*W_x and h*W_h [batch, 3h], x*W_xt and x*W_xd
  // [batch, h]; then Δt·w_t and Δd·w_d, one [h] row each.
  static thread_local std::vector<float> scratch;
  scratch.assign(static_cast<size_t>(2 * n + 2 * m + 2 * h), 0.0f);
  float* gates = scratch.data();
  float* hw = gates + n;
  float* t_gate = hw + n;
  float* d_gate = t_gate + m;
  float* t_term = d_gate + m;
  float* d_term = t_term + h;
  kt.matmul_block(x, w_x_.data(), gates, input_dim_, width, 0, batch, 0,
                  width);
  kt.matmul_block(h_prev, w_h_.data(), hw, h, width, 0, batch, 0, width);
  kt.matmul_block(x, w_xt_.data(), t_gate, input_dim_, h, 0, batch, 0, h);
  kt.matmul_block(x, w_xd_.data(), d_gate, input_dim_, h, 0, batch, 0, h);
  kt.mulc(w_t_.data(), delta_t, t_term, h);
  kt.mulc(w_d_.data(), delta_d, d_term, h);
  for (int r = 0; r < batch; ++r) {
    float* row = gates + static_cast<int64_t>(r) * width;
    float* t_row = t_gate + static_cast<int64_t>(r) * h;
    float* d_row = d_gate + static_cast<int64_t>(r) * h;
    kt.add3(row, hw + static_cast<int64_t>(r) * width, b_.data(), row, width);
    kt.add3(t_row, t_term, b_t_.data(), t_row, h);
    kt.add3(d_row, d_term, b_d_.data(), d_row, h);
  }
  // Sigmoid on the input and output gates, tanh on the candidate.
  static constexpr uint8_t kActs[3] = {0, 1, 0};
  kt.gate_act(gates, gates, batch, h, kActs, 3);
  kt.sigmoid(t_gate, t_gate, m);
  kt.sigmoid(d_gate, d_gate, m);
  for (int r = 0; r < batch; ++r) {
    const float* row = gates + static_cast<int64_t>(r) * width;
    const int64_t s = static_cast<int64_t>(r) * h;
    // ĩ = (i∘T)∘D, built in the T gate's row.
    float* eff_i = t_gate + s;
    kt.mul(row, eff_i, eff_i, h);
    kt.mul(eff_i, d_gate + s, eff_i, h);
    // c = ĩ∘g + (1 - ĩ)∘c_prev, then h = o∘tanh(c).
    kt.lerp(eff_i, row + h, c_prev + s, c_out + s, h);
    kt.tanh_mul(row + 2 * h, c_out + s, h_out + s, h);
  }
}

LstmState StClstmCell::InitialState(int batch) const {
  return {tensor::Tensor::Zeros({batch, hidden_dim_}),
          tensor::Tensor::Zeros({batch, hidden_dim_})};
}

std::vector<tensor::Tensor> StClstmCell::Parameters() const {
  return {w_x_, w_h_, b_, w_xt_, w_t_, b_t_, w_xd_, w_d_, b_d_};
}

}  // namespace pa::nn
