#include "nn/gru_cell.h"

#include "tensor/init.h"
#include "tensor/kernels/kernels.h"
#include "tensor/ops.h"

namespace pa::nn {

namespace {

using tensor::Tensor;

Tensor OneMinus(const Tensor& x) {
  return tensor::AddScalar(tensor::Scale(x, -1.0f), 1.0f);
}

}  // namespace

GruCell::GruCell(int input_dim, int hidden_dim, util::Rng& rng)
    : input_dim_(input_dim),
      hidden_dim_(hidden_dim),
      w_x_(tensor::XavierInit({input_dim, 3 * hidden_dim}, rng)),
      w_h_(tensor::XavierInit({hidden_dim, 3 * hidden_dim}, rng)),
      b_(tensor::Tensor::Zeros({1, 3 * hidden_dim}, /*requires_grad=*/true)) {}

tensor::Tensor GruCell::Forward(const tensor::Tensor& x,
                                const tensor::Tensor& h) const {
  const int hd = hidden_dim_;
  Tensor xg = tensor::Add(tensor::MatMul(x, w_x_), b_);
  Tensor hg = tensor::MatMul(h, w_h_);

  Tensor z = tensor::Sigmoid(tensor::Add(tensor::SliceCols(xg, 0, hd),
                                         tensor::SliceCols(hg, 0, hd)));
  Tensor r = tensor::Sigmoid(tensor::Add(tensor::SliceCols(xg, hd, hd),
                                         tensor::SliceCols(hg, hd, hd)));
  // Candidate uses the reset-gated hidden state.
  Tensor n_h = tensor::MatMul(tensor::Mul(r, h),
                              tensor::SliceCols(w_h_, 2 * hd, hd));
  Tensor n =
      tensor::Tanh(tensor::Add(tensor::SliceCols(xg, 2 * hd, hd), n_h));
  return tensor::Add(tensor::Mul(OneMinus(z), n), tensor::Mul(z, h));
}

void GruCell::ForwardRows(const float* x, const float* h_prev, float* h_out,
                          int batch) const {
  const tensor::kernels::KernelTable& kt = tensor::kernels::Active();
  const int h = hidden_dim_;
  const int width = 3 * h;
  const int64_t n = static_cast<int64_t>(batch) * width;
  // Two zeroed [batch, 3h] products, x*W_x and h*W_h, then r∘h [batch, h].
  // h*W_h fills only columns [z, r]; its n columns stay zero until the
  // candidate product lands there.
  static thread_local std::vector<float> scratch;
  scratch.assign(static_cast<size_t>(2 * n + static_cast<int64_t>(batch) * h),
                 0.0f);
  float* xw = scratch.data();
  float* hw = xw + n;
  float* rh = hw + n;
  const float* b = b_.data();
  kt.matmul_block(x, w_x_.data(), xw, input_dim_, width, 0, batch, 0, width);
  kt.matmul_block(h_prev, w_h_.data(), hw, h, width, 0, batch, 0, 2 * h);
  for (int r = 0; r < batch; ++r) {
    float* row = xw + static_cast<int64_t>(r) * width;
    const int64_t s = static_cast<int64_t>(r) * h;
    // z|r = sigmoid((x*W_x + b) + h*W_h), in place over the first 2h.
    kt.add3(row, b, hw + static_cast<int64_t>(r) * width, row, 2 * h);
    kt.sigmoid(row, row, 2 * h);
    kt.mul(row + h, h_prev + s, rh + s, h);
  }
  // (r∘h) * W_h[:, 2h:3h], read in place, into hw's unused n columns.
  kt.matmul_block(rh, w_h_.data(), hw, h, width, 0, batch, 2 * h, width);
  for (int r = 0; r < batch; ++r) {
    float* row = xw + static_cast<int64_t>(r) * width;
    const int64_t s = static_cast<int64_t>(r) * h;
    float* cand = row + 2 * h;
    kt.add3(cand, b + 2 * h, hw + static_cast<int64_t>(r) * width + 2 * h,
            cand, h);
    kt.tanh(cand, cand, h);
    // h' = z∘h + (1 - z)∘n.
    kt.lerp(row, h_prev + s, cand, h_out + s, h);
  }
}

tensor::Tensor GruCell::InitialState(int batch) const {
  return tensor::Tensor::Zeros({batch, hidden_dim_});
}

std::vector<tensor::Tensor> GruCell::Parameters() const {
  return {w_x_, w_h_, b_};
}

}  // namespace pa::nn
