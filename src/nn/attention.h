#ifndef PA_NN_ATTENTION_H_
#define PA_NN_ATTENTION_H_

#include <memory>
#include <vector>

#include "nn/layers.h"
#include "nn/module.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace pa::nn {

/// Luong-style *local* attention with a Gaussian window (paper §III-D,
/// Eq. 4), used by the PA-Seq2Seq decoder.
///
/// When imputing the missing check-in at position t, the alignment centre
/// p_t is placed at the last check-in, and only encoder states inside the
/// window [p_t - D, p_t + D] participate. The alignment weight of source
/// position s is
///
///     a_t(s) = softmax_s(h_t^T W_a h_s) * exp(-(s - p_t)^2 / (2 sigma^2))
///
/// with sigma = D / 2 (Luong et al., 2015). The context vector c_t is the
/// a_t-weighted sum of windowed encoder states, and the attentional hidden
/// state is tanh(W_c [c_t ; h_t]).
class LocalAttention : public Module {
 public:
  /// `window` is the half-width D; the paper sets D = 10.
  LocalAttention(int decoder_dim, int encoder_dim, int window, util::Rng& rng);

  struct Output {
    tensor::Tensor context;             // [1, encoder_dim]
    tensor::Tensor weights;             // [1, window size actually used]
    tensor::Tensor attentional_hidden;  // [1, decoder_dim]
    int window_begin = 0;               // First source index in the window.
  };

  /// `h_t` is `[1, decoder_dim]`; `encoder_states[s]` is `[1, encoder_dim]`.
  /// `center` is p_t, clamped into the valid source range internally.
  Output Forward(const tensor::Tensor& h_t,
                 const std::vector<tensor::Tensor>& encoder_states,
                 int center) const;

  /// The explicit inference forward of `Forward(...).attentional_hidden` on
  /// raw rows: h_t `[decoder_dim]`, `states` `[n, encoder_dim]` (row s is
  /// encoder state s, n >= 1), out `[decoder_dim]`. h_t W_a, the window
  /// scores and the context run through the table's matmul_block (the
  /// window read in place), then softmax, the same Gaussian prior, mul,
  /// `combine_.ForwardRow` and tanh: Forward's kernels per element in the
  /// same order, so the two agree bit for bit within one kernel table. No
  /// autograd; `out` must not overlap the inputs.
  void ForwardRow(const float* h_t, const float* states, int n, int center,
                  float* out) const;

  std::vector<tensor::Tensor> Parameters() const override;

  int window() const { return window_; }

 private:
  int decoder_dim_;
  int encoder_dim_;
  int window_;
  tensor::Tensor w_a_;  // [decoder_dim, encoder_dim], general score.
  Linear combine_;      // [decoder_dim + encoder_dim] -> decoder_dim.
};

}  // namespace pa::nn

#endif  // PA_NN_ATTENTION_H_
