#ifndef PA_NN_ST_CLSTM_H_
#define PA_NN_ST_CLSTM_H_

#include <vector>

#include "nn/lstm.h"
#include "nn/module.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace pa::nn {

/// Spatio-temporal coupled LSTM cell (Zhao et al., 2018) — the strongest
/// baseline in the paper's Tables I–II.
///
/// Two modifications to the standard cell:
///  * *coupled* input/forget gates (Greff et al.): the forget gate is
///    1 - effective input gate, halving gate parameters and tying memory
///    retention to admission;
///  * *time and distance gates*: sigmoidal gates driven by the Δt and Δd
///    intervals between consecutive check-ins that modulate how much of the
///    new candidate enters the cell,
///
///      T_t = sigmoid(x W_xt + Δt · w_t + b_t)
///      D_t = sigmoid(x W_xd + Δd · w_d + b_d)
///      ĩ_t = i_t ∘ T_t ∘ D_t
///      c_t = (1 - ĩ_t) ∘ c_{t-1} + ĩ_t ∘ g_t
///      h_t = o_t ∘ tanh(c_t)
class StClstmCell : public Module {
 public:
  StClstmCell(int input_dim, int hidden_dim, util::Rng& rng);

  /// One step. `delta_t` and `delta_d` are the (normalized) time and
  /// distance intervals from the previous check-in to this one. This is the
  /// graph (training) path, built from tensor ops; `ForwardRows` is the
  /// inference path and gives the same bits within one kernel table.
  LstmState Forward(const tensor::Tensor& x, const LstmState& prev,
                    float delta_t, float delta_d) const;

  /// The explicit inference step over raw rows: x `[batch, input_dim]`,
  /// h_prev / c_prev in and h_out / c_out out, each `[batch, hidden_dim]`.
  /// x*W_x and h*W_h over [i, g, o], x*W_xt and x*W_xd run through the
  /// active table's matmul_block on the calling thread into a zeroed
  /// per-thread scratch; mulc scales w_t by Δt and w_d by Δd; three add3
  /// calls, gate_act over [i, g, o] and sigmoid on the T and D gates; two
  /// mul calls give ĩ, then lerp(ĩ, g, c_prev) and tanh_mul. Per element
  /// that is the tensor-op body's exact FP sequence. h_out and c_out may
  /// alias h_prev and c_prev exactly, but not x. No autograd.
  void ForwardRows(const float* x, const float* h_prev, const float* c_prev,
                   float delta_t, float delta_d, float* h_out, float* c_out,
                   int batch) const;

  LstmState InitialState(int batch) const;

  std::vector<tensor::Tensor> Parameters() const override;

  int input_dim() const { return input_dim_; }
  int hidden_dim() const { return hidden_dim_; }

 private:
  int input_dim_;
  int hidden_dim_;
  tensor::Tensor w_x_;   // [input_dim, 3 * hidden] for i, g, o.
  tensor::Tensor w_h_;   // [hidden, 3 * hidden]
  tensor::Tensor b_;     // [1, 3 * hidden]
  tensor::Tensor w_xt_;  // [input_dim, hidden] time-gate input weights.
  tensor::Tensor w_t_;   // [1, hidden] time-interval weights.
  tensor::Tensor b_t_;   // [1, hidden]
  tensor::Tensor w_xd_;  // [input_dim, hidden] distance-gate input weights.
  tensor::Tensor w_d_;   // [1, hidden]
  tensor::Tensor b_d_;   // [1, hidden]
};

}  // namespace pa::nn

#endif  // PA_NN_ST_CLSTM_H_
