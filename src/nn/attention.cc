#include "nn/attention.h"

#include <algorithm>
#include <cmath>

#include "tensor/init.h"
#include "tensor/kernels/kernels.h"
#include "tensor/ops.h"

namespace pa::nn {

using tensor::Tensor;

namespace {

// The window [begin, begin + width) around p_t = center clamped into
// [0, n), D = `half_width` positions each side where the sequence allows.
struct Window {
  int p_t;
  int begin;
  int width;
};

Window WindowAround(int center, int n, int half_width) {
  const int p_t = std::clamp(center, 0, n - 1);
  const int begin = std::max(0, p_t - half_width);
  const int end = std::min(n - 1, p_t + half_width);
  return {p_t, begin, end - begin + 1};
}

// The Gaussian prior over the window, centred on p_t with sigma = D / 2 (at
// least 1). It depends only on positions, so it carries no gradient.
void GaussianPrior(const Window& win, int half_width, float* prior) {
  const float sigma = std::max(1.0f, static_cast<float>(half_width) / 2.0f);
  for (int s = 0; s < win.width; ++s) {
    const float d = static_cast<float>(win.begin + s - win.p_t);
    prior[s] = std::exp(-(d * d) / (2.0f * sigma * sigma));
  }
}

}  // namespace

LocalAttention::LocalAttention(int decoder_dim, int encoder_dim, int window,
                               util::Rng& rng)
    : decoder_dim_(decoder_dim),
      encoder_dim_(encoder_dim),
      window_(window),
      w_a_(tensor::XavierInit({decoder_dim, encoder_dim}, rng)),
      combine_(decoder_dim + encoder_dim, decoder_dim, rng) {}

LocalAttention::Output LocalAttention::Forward(
    const tensor::Tensor& h_t,
    const std::vector<tensor::Tensor>& encoder_states, int center) const {
  const Window win =
      WindowAround(center, static_cast<int>(encoder_states.size()), window_);

  // Stack the windowed encoder states into [width, encoder_dim].
  std::vector<Tensor> rows(encoder_states.begin() + win.begin,
                           encoder_states.begin() + win.begin + win.width);
  Tensor window_states = tensor::ConcatRows(rows);

  // General score: h_t W_a H_win^T -> [1, width].
  Tensor query = tensor::MatMul(h_t, w_a_);  // [1, encoder_dim]
  Tensor scores = tensor::MatMul(query, tensor::Transpose(window_states));
  Tensor align = tensor::Softmax(scores);

  Tensor gauss = Tensor::Zeros({1, win.width});
  GaussianPrior(win, window_, gauss.data());
  Tensor weights = tensor::Mul(align, gauss);

  Output out;
  out.window_begin = win.begin;
  out.weights = weights;
  out.context = tensor::MatMul(weights, window_states);  // [1, encoder_dim]
  out.attentional_hidden =
      tensor::Tanh(combine_.Forward(tensor::ConcatCols({out.context, h_t})));
  return out;
}

void LocalAttention::ForwardRow(const float* h_t, const float* states, int n,
                                int center, float* out) const {
  const tensor::kernels::KernelTable& kt = tensor::kernels::Active();
  const Window win = WindowAround(center, n, window_);
  const int e = encoder_dim_;
  const float* window_states = states + static_cast<int64_t>(win.begin) * e;
  // Zeroed like MatMul's outputs: the query [e], the window transposed
  // [e, width], the scores (then weights) [width], the prior [width] and
  // [context ; h_t] [e + decoder_dim].
  std::vector<float> buf(
      static_cast<size_t>(e + (e + 2) * win.width + e + decoder_dim_), 0.0f);
  float* query = buf.data();
  float* keys = query + e;
  float* weights = keys + static_cast<int64_t>(e) * win.width;
  float* prior = weights + win.width;
  float* joined = prior + win.width;

  kt.matmul_block(h_t, w_a_.data(), query, decoder_dim_, e, 0, 1, 0, e);
  for (int s = 0; s < win.width; ++s) {
    for (int j = 0; j < e; ++j) {
      keys[static_cast<int64_t>(j) * win.width + s] =
          window_states[static_cast<int64_t>(s) * e + j];
    }
  }
  kt.matmul_block(query, keys, weights, e, win.width, 0, 1, 0, win.width);
  kt.softmax(weights, weights, 1, win.width);
  GaussianPrior(win, window_, prior);
  kt.mul(weights, prior, weights, win.width);
  kt.matmul_block(weights, window_states, joined, win.width, e, 0, 1, 0, e);
  std::copy(h_t, h_t + decoder_dim_, joined + e);
  combine_.ForwardRow(joined, out);
  kt.tanh(out, out, decoder_dim_);
}

std::vector<tensor::Tensor> LocalAttention::Parameters() const {
  std::vector<tensor::Tensor> params = {w_a_};
  for (const tensor::Tensor& p : combine_.Parameters()) params.push_back(p);
  return params;
}

}  // namespace pa::nn
