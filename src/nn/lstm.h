#ifndef PA_NN_LSTM_H_
#define PA_NN_LSTM_H_

#include <memory>
#include <vector>

#include "nn/module.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace pa::nn {

/// Hidden and cell state of one LSTM layer at one timestep.
struct LstmState {
  tensor::Tensor h;
  tensor::Tensor c;
};

/// Zoneout configuration (Krueger et al., 2016), the regularizer the paper
/// applies during PA-Seq2Seq training (§III-E): at each step, each hidden /
/// cell unit is kept at its *previous* value with the given probability.
/// In the check-in context this randomly "removes" part of the check-in
/// information, teaching the model to cope with unobserved check-ins.
struct ZoneoutConfig {
  float hidden_prob = 0.0f;  // Probability of preserving h units.
  float cell_prob = 0.0f;    // Probability of preserving c units.
};

/// Single LSTM layer (Hochreiter & Schmidhuber, 1997) with optional zoneout.
///
/// Gate layout in the fused weight matrices is [input, forget, candidate,
/// output]. The forget-gate bias is initialized to 1, the standard trick for
/// long-range gradient flow.
class LstmCell : public Module {
 public:
  LstmCell(int input_dim, int hidden_dim, util::Rng& rng);

  /// Plain step: x is `[batch, input_dim]`, returns the next state. This is
  /// the graph (training) path, built from tensor ops; `ForwardRows` is the
  /// inference path and gives the same bits within one kernel table.
  LstmState Forward(const tensor::Tensor& x, const LstmState& prev) const;

  /// The explicit inference step over raw rows: x `[batch, input_dim]`,
  /// h_prev / c_prev in and h_out / c_out out, each `[batch, hidden_dim]`.
  /// x*W_x and h*W_h run through the active table's matmul_block on the
  /// calling thread (no pool fan-out), then add3 with the bias, gate_act in
  /// place over [i, f, g, o], cell_update and tanh_mul. Per element that is
  /// the tensor-op body's exact FP sequence, so the two agree bit for bit.
  /// Allocates nothing once the thread's scratch buffer has grown; h_out and
  /// c_out may alias h_prev and c_prev exactly (a session steps its own
  /// state in place), but no output may alias x. No autograd.
  void ForwardRows(const float* x, const float* h_prev, const float* c_prev,
                   float* h_out, float* c_out, int batch) const;

  /// Training step with zoneout: units are preserved by Bernoulli masks
  /// drawn from `rng`. (Inference uses the expectation, a convex blend of
  /// previous and new state, mirroring the train/eval asymmetry of
  /// dropout; PaSeq2Seq's decoder applies it to the rows `ForwardRows`
  /// returns.)
  LstmState ForwardZoneout(const tensor::Tensor& x, const LstmState& prev,
                           const ZoneoutConfig& zoneout,
                           util::Rng& rng) const;

  /// Zero state for a batch of the given size.
  LstmState InitialState(int batch) const;

  std::vector<tensor::Tensor> Parameters() const override;

  int input_dim() const { return input_dim_; }
  int hidden_dim() const { return hidden_dim_; }

 private:
  int input_dim_;
  int hidden_dim_;
  tensor::Tensor w_x_;  // [input_dim, 4 * hidden_dim]
  tensor::Tensor w_h_;  // [hidden_dim, 4 * hidden_dim]
  tensor::Tensor b_;    // [1, 4 * hidden_dim]
};

/// Bi-directional LSTM layer: a forward cell reading c_1..c_n and a backward
/// cell reading c_n..c_1 (paper Eq. 1). Per-timestep outputs are the
/// concatenation `[h_fw, h_bw]` of both direction's hidden states.
class BiLstm : public Module {
 public:
  BiLstm(int input_dim, int hidden_dim, util::Rng& rng);

  /// xs[t] is `[batch, input_dim]`; returns one `[batch, 2 * hidden_dim]`
  /// tensor per timestep.
  std::vector<tensor::Tensor> Forward(
      const std::vector<tensor::Tensor>& xs) const;

  std::vector<tensor::Tensor> Parameters() const override;

  int output_dim() const { return 2 * hidden_dim_; }
  const LstmCell& forward_cell() const { return fw_; }
  const LstmCell& backward_cell() const { return bw_; }

 private:
  int hidden_dim_;
  LstmCell fw_;
  LstmCell bw_;
};

/// The paper's stacked encoder body (Fig. 4): a BiLSTM first layer stacked
/// with a uni-directional LSTM, joined by a *residual* connection
/// x_t^1 = h_t^1 + x_t^0 (Eq. 3) rather than a direct one (Eq. 2). Because
/// the BiLSTM output width (2H) generally differs from the raw input width,
/// the residual path projects the input with a learned linear map first —
/// the standard treatment when GNMT-style residuals meet a width change.
class ResidualBiLstmStack : public Module {
 public:
  /// `use_residual=false` reproduces the plain stacking of Eq. 2, which the
  /// residual ablation benchmark compares against.
  ResidualBiLstmStack(int input_dim, int hidden_dim, bool use_residual,
                      util::Rng& rng);
  ~ResidualBiLstmStack() override;

  /// Returns the top-layer hidden state per timestep, each
  /// `[batch, 2 * hidden_dim]`, plus the final top-layer state through
  /// `final_state` if non-null.
  std::vector<tensor::Tensor> Forward(const std::vector<tensor::Tensor>& xs,
                                      LstmState* final_state = nullptr) const;

  /// The explicit inference forward of one sequence over raw rows: xs
  /// `[n, input_dim]` in, the top layer's hidden state per timestep out
  /// `[n, 2 * hidden_dim]`, and its final state through `h_final` / `c_final`
  /// (each `[2 * hidden_dim]`; zero when n is 0). Every cell steps through
  /// `LstmCell::ForwardRows` and the residual sum is `Linear::ForwardRow`
  /// then the table's `add`: the kernels `Forward` runs, per element in the
  /// same order, so the two agree bit for bit within one kernel table. No
  /// autograd; no output may overlap `xs`.
  void ForwardRows(const float* xs, int n, float* out, float* h_final,
                   float* c_final) const;

  std::vector<tensor::Tensor> Parameters() const override;

  bool use_residual() const { return use_residual_; }
  int output_dim() const;

 private:
  bool use_residual_;
  BiLstm bottom_;
  LstmCell top_;
  // Projects raw inputs onto the BiLSTM output width for the residual sum;
  // null when the widths already match.
  std::unique_ptr<class Linear> input_projection_;
};

}  // namespace pa::nn

#endif  // PA_NN_LSTM_H_
