#ifndef PA_NN_RNN_CELL_H_
#define PA_NN_RNN_CELL_H_

#include <vector>

#include "nn/module.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace pa::nn {

/// Vanilla (Elman) recurrent cell: h' = tanh(x W_x + h W_h + b). The "RNN"
/// baseline of the paper's Tables I–II.
class RnnCell : public Module {
 public:
  RnnCell(int input_dim, int hidden_dim, util::Rng& rng);

  /// x is `[batch, input_dim]`, h is `[batch, hidden_dim]`. This is the
  /// graph (training) path, built from tensor ops; `ForwardRows` is the
  /// inference path and gives the same bits within one kernel table.
  tensor::Tensor Forward(const tensor::Tensor& x,
                         const tensor::Tensor& h) const;

  /// The explicit inference step over raw rows (`RnnForwardRows` with this
  /// cell's weights). h_out may alias h_prev exactly. No autograd.
  void ForwardRows(const float* x, const float* h_prev, float* h_out,
                   int batch) const;

  tensor::Tensor InitialState(int batch) const;

  std::vector<tensor::Tensor> Parameters() const override;

  int input_dim() const { return input_dim_; }
  int hidden_dim() const { return hidden_dim_; }

 private:
  int input_dim_;
  int hidden_dim_;
  tensor::Tensor w_x_;
  tensor::Tensor w_h_;
  tensor::Tensor b_;
};

/// The RNN / ST-RNN inference step over raw rows, shared by `RnnCell` and
/// `StRnnCell` (which passes the weights of its bucket pair):
/// h_out = tanh((x*w_x + h_prev*w_h) + b), for x `[batch, input_dim]`,
/// h_prev and h_out `[batch, hidden_dim]`, w_x `[input_dim, hidden_dim]`,
/// w_h `[hidden_dim, hidden_dim]` and b `[hidden_dim]`. Both products run
/// through the active table's matmul_block on the calling thread into a
/// zeroed per-thread scratch, then add3 and tanh: per element the tensor-op
/// body's exact FP sequence. h_out may alias h_prev exactly, but not x.
void RnnForwardRows(const float* x, const float* h_prev, const float* w_x,
                    const float* w_h, const float* b, float* h_out, int batch,
                    int input_dim, int hidden_dim);

}  // namespace pa::nn

#endif  // PA_NN_RNN_CELL_H_
