#ifndef PA_NN_GRU_CELL_H_
#define PA_NN_GRU_CELL_H_

#include <vector>

#include "nn/module.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace pa::nn {

/// Gated recurrent unit (Cho et al., 2014) — the other recurrent family the
/// paper's related work builds on (e.g. the CARA line adds contextual gates
/// to a GRU). Provided so downstream users can swap recurrent cores.
///
///   z = sigmoid(x W_xz + h W_hz + b_z)      (update gate)
///   r = sigmoid(x W_xr + h W_hr + b_r)      (reset gate)
///   n = tanh(x W_xn + (r ∘ h) W_hn + b_n)   (candidate)
///   h' = (1 - z) ∘ n + z ∘ h
class GruCell : public Module {
 public:
  GruCell(int input_dim, int hidden_dim, util::Rng& rng);

  /// x is `[batch, input_dim]`, h is `[batch, hidden_dim]`. This is the
  /// graph (training) path, built from tensor ops; `ForwardRows` is the
  /// inference path and gives the same bits within one kernel table.
  tensor::Tensor Forward(const tensor::Tensor& x,
                         const tensor::Tensor& h) const;

  /// The explicit inference step over raw rows: x `[batch, input_dim]`,
  /// h_prev and h_out `[batch, hidden_dim]`. x*W_x over [z, r, n] and
  /// h*W_h over [z, r] run through the active table's matmul_block on the
  /// calling thread into a zeroed per-thread scratch; add3 and sigmoid give
  /// z|r; (r∘h)*W_h reads W_h's n block in place through matmul_block's
  /// column range; then add3, tanh and lerp(z, h, n). Per element that is
  /// the tensor-op body's exact FP sequence. h_out may alias h_prev exactly,
  /// but not x. No autograd.
  void ForwardRows(const float* x, const float* h_prev, float* h_out,
                   int batch) const;

  tensor::Tensor InitialState(int batch) const;

  std::vector<tensor::Tensor> Parameters() const override;

  int input_dim() const { return input_dim_; }
  int hidden_dim() const { return hidden_dim_; }

 private:
  int input_dim_;
  int hidden_dim_;
  tensor::Tensor w_x_;  // [input_dim, 3 * hidden] for z, r, n.
  tensor::Tensor w_h_;  // [hidden, 3 * hidden]
  tensor::Tensor b_;    // [1, 3 * hidden]
};

}  // namespace pa::nn

#endif  // PA_NN_GRU_CELL_H_
