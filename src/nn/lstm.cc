#include "nn/lstm.h"

#include <algorithm>

#include "nn/layers.h"
#include "tensor/init.h"
#include "tensor/kernels/kernels.h"
#include "tensor/ops.h"

namespace pa::nn {

namespace {

using tensor::Tensor;

// Draws a {0,1} keep-mask tensor; 1 means "preserve the previous state".
Tensor BernoulliMask(tensor::Shape shape, float keep_prob, util::Rng& rng) {
  Tensor mask = Tensor::Zeros(shape);
  for (int64_t i = 0; i < mask.numel(); ++i) {
    mask.data()[i] = rng.Bernoulli(keep_prob) ? 1.0f : 0.0f;
  }
  return mask;
}

// blend = mask * prev + (1 - mask) * next, where mask carries no gradient.
// One fused pass (bit-identical to the old Mul/Mul/Add composition — see
// Lerp in ops.h).
Tensor ZoneoutBlend(const Tensor& mask, const Tensor& prev,
                    const Tensor& next) {
  return tensor::Lerp(mask, prev, next);
}

}  // namespace

LstmCell::LstmCell(int input_dim, int hidden_dim, util::Rng& rng)
    : input_dim_(input_dim),
      hidden_dim_(hidden_dim),
      w_x_(tensor::XavierInit({input_dim, 4 * hidden_dim}, rng)),
      w_h_(tensor::XavierInit({hidden_dim, 4 * hidden_dim}, rng)),
      b_(tensor::Tensor::Zeros({1, 4 * hidden_dim}, /*requires_grad=*/true)) {
  // Forget-gate bias starts at 1 so early training does not erase memory.
  for (int j = hidden_dim; j < 2 * hidden_dim; ++j) b_.set(0, j, 1.0f);
}

LstmState LstmCell::Forward(const tensor::Tensor& x,
                            const LstmState& prev) const {
  const int h = hidden_dim_;
  Tensor gates = tensor::Add(
      tensor::Add(tensor::MatMul(x, w_x_), tensor::MatMul(prev.h, w_h_)), b_);
  Tensor i = tensor::Sigmoid(tensor::SliceCols(gates, 0, h));
  Tensor f = tensor::Sigmoid(tensor::SliceCols(gates, h, h));
  Tensor g = tensor::Tanh(tensor::SliceCols(gates, 2 * h, h));
  Tensor o = tensor::Sigmoid(tensor::SliceCols(gates, 3 * h, h));
  Tensor c = tensor::Add(tensor::Mul(f, prev.c), tensor::Mul(i, g));
  Tensor hh = tensor::Mul(o, tensor::Tanh(c));
  // Move: h and c are dead locals, and shared_ptr copies cost a locked
  // refcount pair each — measurable next to a 24-wide cell step.
  return {std::move(hh), std::move(c)};
}

void LstmCell::ForwardRows(const float* x, const float* h_prev,
                           const float* c_prev, float* h_out, float* c_out,
                           int batch) const {
  const tensor::kernels::KernelTable& kt = tensor::kernels::Active();
  const int h = hidden_dim_;
  const int width = 4 * h;
  const int64_t n = static_cast<int64_t>(batch) * width;
  // Two zeroed [batch, 4h] products, x*W_x then h*W_h: each starts from
  // zero like the tensor path's MatMul, so their sum is the same FP value.
  static thread_local std::vector<float> scratch;
  scratch.assign(static_cast<size_t>(2 * n), 0.0f);
  float* gates = scratch.data();
  float* hw = gates + n;
  kt.matmul_block(x, w_x_.data(), gates, input_dim_, width, 0, batch, 0,
                  width);
  kt.matmul_block(h_prev, w_h_.data(), hw, h, width, 0, batch, 0, width);
  for (int r = 0; r < batch; ++r) {
    float* row = gates + static_cast<int64_t>(r) * width;
    kt.add3(row, hw + static_cast<int64_t>(r) * width, b_.data(), row, width);
  }
  // Sigmoid on the input, forget and output gates, tanh on the candidate.
  static constexpr uint8_t kActs[4] = {0, 0, 1, 0};
  kt.gate_act(gates, gates, batch, h, kActs, 4);
  for (int r = 0; r < batch; ++r) {
    const float* in = gates + static_cast<int64_t>(r) * width;
    const int64_t s = static_cast<int64_t>(r) * h;
    kt.cell_update(in + h, c_prev + s, in, in + 2 * h, c_out + s, h);
    kt.tanh_mul(in + 3 * h, c_out + s, h_out + s, h);
  }
}

LstmState LstmCell::ForwardZoneout(const tensor::Tensor& x,
                                   const LstmState& prev,
                                   const ZoneoutConfig& zoneout,
                                   util::Rng& rng) const {
  LstmState next = Forward(x, prev);
  if (zoneout.hidden_prob > 0.0f) {
    Tensor mask = BernoulliMask(next.h.shape(), zoneout.hidden_prob, rng);
    next.h = ZoneoutBlend(mask, prev.h, next.h);
  }
  if (zoneout.cell_prob > 0.0f) {
    Tensor mask = BernoulliMask(next.c.shape(), zoneout.cell_prob, rng);
    next.c = ZoneoutBlend(mask, prev.c, next.c);
  }
  return next;
}

LstmState LstmCell::InitialState(int batch) const {
  return {Tensor::Zeros({batch, hidden_dim_}),
          Tensor::Zeros({batch, hidden_dim_})};
}

std::vector<tensor::Tensor> LstmCell::Parameters() const {
  return {w_x_, w_h_, b_};
}

BiLstm::BiLstm(int input_dim, int hidden_dim, util::Rng& rng)
    : hidden_dim_(hidden_dim),
      fw_(input_dim, hidden_dim, rng),
      bw_(input_dim, hidden_dim, rng) {}

std::vector<tensor::Tensor> BiLstm::Forward(
    const std::vector<tensor::Tensor>& xs) const {
  const int n = static_cast<int>(xs.size());
  std::vector<tensor::Tensor> fw_h(n), bw_h(n);
  if (n == 0) return {};
  const int batch = xs[0].rows();

  LstmState state = fw_.InitialState(batch);
  for (int t = 0; t < n; ++t) {
    state = fw_.Forward(xs[t], state);
    fw_h[t] = state.h;
  }
  state = bw_.InitialState(batch);
  for (int t = n - 1; t >= 0; --t) {
    state = bw_.Forward(xs[t], state);
    bw_h[t] = state.h;
  }

  std::vector<tensor::Tensor> out(n);
  for (int t = 0; t < n; ++t) {
    out[t] = tensor::ConcatCols({fw_h[t], bw_h[t]});
  }
  return out;
}

std::vector<tensor::Tensor> BiLstm::Parameters() const {
  return ConcatParameters({&fw_, &bw_});
}

ResidualBiLstmStack::ResidualBiLstmStack(int input_dim, int hidden_dim,
                                         bool use_residual, util::Rng& rng)
    : use_residual_(use_residual),
      bottom_(input_dim, hidden_dim, rng),
      top_(2 * hidden_dim, 2 * hidden_dim, rng) {
  if (use_residual_ && input_dim != 2 * hidden_dim) {
    input_projection_ = std::make_unique<Linear>(input_dim, 2 * hidden_dim, rng);
  }
}

ResidualBiLstmStack::~ResidualBiLstmStack() = default;

int ResidualBiLstmStack::output_dim() const { return top_.hidden_dim(); }

std::vector<tensor::Tensor> ResidualBiLstmStack::Forward(
    const std::vector<tensor::Tensor>& xs, LstmState* final_state) const {
  std::vector<tensor::Tensor> bottom_out = bottom_.Forward(xs);
  const int n = static_cast<int>(bottom_out.size());
  std::vector<tensor::Tensor> out(n);
  if (n == 0) return out;

  LstmState state = top_.InitialState(xs[0].rows());
  for (int t = 0; t < n; ++t) {
    tensor::Tensor top_in = bottom_out[t];
    if (use_residual_) {
      tensor::Tensor skip =
          input_projection_ ? input_projection_->Forward(xs[t]) : xs[t];
      // x^1 = h^1 + x^0 (paper Eq. 3).
      top_in = tensor::Add(top_in, skip);
    }
    state = top_.Forward(top_in, state);
    out[t] = state.h;
  }
  if (final_state != nullptr) *final_state = state;
  return out;
}

void ResidualBiLstmStack::ForwardRows(const float* xs, int n, float* out,
                                      float* h_final, float* c_final) const {
  const tensor::kernels::KernelTable& kt = tensor::kernels::Active();
  const LstmCell& fw = bottom_.forward_cell();
  const LstmCell& bw = bottom_.backward_cell();
  const int in = fw.input_dim();
  const int h = fw.hidden_dim();
  const int w = top_.hidden_dim();  // 2h.
  // The BiLSTM output [n, w] (row t = [h_fw(t) ; h_bw(t)]), then a zero
  // state, the running cell state, the projected skip and the top input.
  std::vector<float> buf(static_cast<size_t>(n + 4) * w, 0.0f);
  float* bottom = buf.data();
  const float* zeros = bottom + static_cast<int64_t>(n) * w;
  float* c = bottom + static_cast<int64_t>(n + 1) * w;
  float* skip = c + w;
  float* top_in = skip + w;
  auto row = [](auto* base, int t, int width) {
    return base + static_cast<int64_t>(t) * width;
  };

  // Each direction reads its previous hidden state from the neighbouring
  // row it wrote, and steps its cell state in place.
  for (int t = 0; t < n; ++t) {
    fw.ForwardRows(row(xs, t, in), t == 0 ? zeros : row(bottom, t - 1, w), c,
                   row(bottom, t, w), c, 1);
  }
  std::fill(c, c + h, 0.0f);
  for (int t = n - 1; t >= 0; --t) {
    bw.ForwardRows(row(xs, t, in),
                   t == n - 1 ? zeros : row(bottom, t + 1, w) + h, c,
                   row(bottom, t, w) + h, c, 1);
  }

  std::fill(c, c + w, 0.0f);
  for (int t = 0; t < n; ++t) {
    const float* x = row(bottom, t, w);
    if (use_residual_) {
      // x^1 = h^1 + x^0 (paper Eq. 3), with x^0 projected when its width
      // differs.
      const float* x0 = row(xs, t, in);
      if (input_projection_) {
        input_projection_->ForwardRow(x0, skip);
        x0 = skip;
      }
      kt.add(x, x0, top_in, w);
      x = top_in;
    }
    top_.ForwardRows(x, t == 0 ? zeros : row(out, t - 1, w), c, row(out, t, w),
                     c, 1);
  }
  const float* h_last = n > 0 ? row(out, n - 1, w) : zeros;
  std::copy(h_last, h_last + w, h_final);
  std::copy(c, c + w, c_final);
}

std::vector<tensor::Tensor> ResidualBiLstmStack::Parameters() const {
  std::vector<tensor::Tensor> params = ConcatParameters({&bottom_, &top_});
  if (input_projection_) {
    for (const tensor::Tensor& p : input_projection_->Parameters()) {
      params.push_back(p);
    }
  }
  return params;
}

}  // namespace pa::nn
