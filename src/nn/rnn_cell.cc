#include "nn/rnn_cell.h"

#include "tensor/init.h"
#include "tensor/kernels/kernels.h"
#include "tensor/ops.h"

namespace pa::nn {

RnnCell::RnnCell(int input_dim, int hidden_dim, util::Rng& rng)
    : input_dim_(input_dim),
      hidden_dim_(hidden_dim),
      w_x_(tensor::XavierInit({input_dim, hidden_dim}, rng)),
      w_h_(tensor::XavierInit({hidden_dim, hidden_dim}, rng)),
      b_(tensor::Tensor::Zeros({1, hidden_dim}, /*requires_grad=*/true)) {}

tensor::Tensor RnnCell::Forward(const tensor::Tensor& x,
                                const tensor::Tensor& h) const {
  const tensor::Shape state_shape{x.rows(), hidden_dim_};
  // Shape mismatches take the tensor-op body, whose ops report them.
  if (tensor::InferenceModeScope::Active() && tensor::fusion::Enabled() &&
      x.cols() == input_dim_ && h.shape() == state_shape) {
    tensor::Tensor out = tensor::detail::MakeInferencePooled(state_shape);
    ForwardRows(x.data(), h.data(), out.data(), x.rows());
    return out;
  }
  return tensor::Tanh(tensor::Add(
      tensor::Add(tensor::MatMul(x, w_x_), tensor::MatMul(h, w_h_)), b_));
}

void RnnCell::ForwardRows(const float* x, const float* h_prev, float* h_out,
                          int batch) const {
  RnnForwardRows(x, h_prev, w_x_.data(), w_h_.data(), b_.data(), h_out, batch,
                 input_dim_, hidden_dim_);
}

tensor::Tensor RnnCell::InitialState(int batch) const {
  return tensor::Tensor::Zeros({batch, hidden_dim_});
}

std::vector<tensor::Tensor> RnnCell::Parameters() const {
  return {w_x_, w_h_, b_};
}

void RnnForwardRows(const float* x, const float* h_prev, const float* w_x,
                    const float* w_h, const float* b, float* h_out, int batch,
                    int input_dim, int hidden_dim) {
  const tensor::kernels::KernelTable& kt = tensor::kernels::Active();
  const int h = hidden_dim;
  const int64_t n = static_cast<int64_t>(batch) * h;
  // Two zeroed [batch, h] products, x*W_x then h*W_h, each starting from
  // zero like the tensor path's MatMul.
  static thread_local std::vector<float> scratch;
  scratch.assign(static_cast<size_t>(2 * n), 0.0f);
  float* xw = scratch.data();
  float* hw = xw + n;
  kt.matmul_block(x, w_x, xw, input_dim, h, 0, batch, 0, h);
  kt.matmul_block(h_prev, w_h, hw, h, h, 0, batch, 0, h);
  for (int r = 0; r < batch; ++r) {
    float* row = xw + static_cast<int64_t>(r) * h;
    kt.add3(row, hw + static_cast<int64_t>(r) * h, b, row, h);
  }
  kt.tanh(xw, h_out, n);
}

}  // namespace pa::nn
