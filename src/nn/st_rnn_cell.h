#ifndef PA_NN_ST_RNN_CELL_H_
#define PA_NN_ST_RNN_CELL_H_

#include <vector>

#include "nn/module.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace pa::nn {

/// ST-RNN cell (Liu et al., 2016), as described in the paper's §II-A: a
/// recurrent cell whose "standard weight matrix is replaced with
/// time-specific and distance-specific transition matrices".
///
/// This implementation discretizes the (normalized) time interval Δt and
/// distance interval Δd into a small number of buckets and learns one input
/// matrix per distance bucket and one recurrent matrix per time bucket:
///
///   h' = tanh( x · W_x[bucket_d(Δd)] + h · W_h[bucket_t(Δt)] + b )
///
/// Buckets are equal-width over [0, max_interval] with the final bucket
/// absorbing everything larger (the original interpolates between bucket
/// matrices; hard assignment keeps the cell simple and testable while
/// preserving the interval-conditioned-transition idea).
class StRnnCell : public Module {
 public:
  StRnnCell(int input_dim, int hidden_dim, util::Rng& rng,
            int time_buckets = 4, int distance_buckets = 4,
            float max_interval = 4.0f);

  /// One step; `delta_t` / `delta_d` are normalized intervals (the same
  /// scale `poi::FeatureScale` produces). This is the graph (training) path,
  /// built from tensor ops; `ForwardRows` is the inference path and gives
  /// the same bits within one kernel table.
  tensor::Tensor Forward(const tensor::Tensor& x, const tensor::Tensor& h,
                         float delta_t, float delta_d) const;

  /// The explicit inference step over raw rows: `RnnForwardRows` with the
  /// weights of the intervals' bucket pair. h_out may alias h_prev exactly.
  /// No autograd.
  void ForwardRows(const float* x, const float* h_prev, float delta_t,
                   float delta_d, float* h_out, int batch) const;

  tensor::Tensor InitialState(int batch) const;

  std::vector<tensor::Tensor> Parameters() const override;

  /// Bucket index for an interval; exposed for tests.
  int TimeBucket(float delta_t) const;
  int DistanceBucket(float delta_d) const;

  int hidden_dim() const { return hidden_dim_; }

 private:
  int Bucket(float value, int buckets) const;

  int input_dim_;
  int hidden_dim_;
  int time_buckets_;
  int distance_buckets_;
  float max_interval_;
  std::vector<tensor::Tensor> w_x_;  // One [input, hidden] per d-bucket.
  std::vector<tensor::Tensor> w_h_;  // One [hidden, hidden] per t-bucket.
  tensor::Tensor b_;
};

}  // namespace pa::nn

#endif  // PA_NN_ST_RNN_CELL_H_
