#include "nn/st_rnn_cell.h"

#include <algorithm>

#include "nn/rnn_cell.h"
#include "tensor/init.h"
#include "tensor/ops.h"

namespace pa::nn {

StRnnCell::StRnnCell(int input_dim, int hidden_dim, util::Rng& rng,
                     int time_buckets, int distance_buckets,
                     float max_interval)
    : input_dim_(input_dim),
      hidden_dim_(hidden_dim),
      time_buckets_(std::max(1, time_buckets)),
      distance_buckets_(std::max(1, distance_buckets)),
      max_interval_(max_interval),
      b_(tensor::Tensor::Zeros({1, hidden_dim}, /*requires_grad=*/true)) {
  w_x_.reserve(static_cast<size_t>(distance_buckets_));
  for (int k = 0; k < distance_buckets_; ++k) {
    w_x_.push_back(tensor::XavierInit({input_dim, hidden_dim}, rng));
  }
  w_h_.reserve(static_cast<size_t>(time_buckets_));
  for (int k = 0; k < time_buckets_; ++k) {
    w_h_.push_back(tensor::XavierInit({hidden_dim, hidden_dim}, rng));
  }
}

int StRnnCell::Bucket(float value, int buckets) const {
  if (value <= 0.0f) return 0;
  if (value >= max_interval_) return buckets - 1;
  return std::min(buckets - 1,
                  static_cast<int>(value / max_interval_ * buckets));
}

int StRnnCell::TimeBucket(float delta_t) const {
  return Bucket(delta_t, time_buckets_);
}

int StRnnCell::DistanceBucket(float delta_d) const {
  return Bucket(delta_d, distance_buckets_);
}

tensor::Tensor StRnnCell::Forward(const tensor::Tensor& x,
                                  const tensor::Tensor& h, float delta_t,
                                  float delta_d) const {
  const tensor::Tensor& wx = w_x_[static_cast<size_t>(DistanceBucket(delta_d))];
  const tensor::Tensor& wh = w_h_[static_cast<size_t>(TimeBucket(delta_t))];
  return tensor::Tanh(tensor::Add(
      tensor::Add(tensor::MatMul(x, wx), tensor::MatMul(h, wh)), b_));
}

void StRnnCell::ForwardRows(const float* x, const float* h_prev,
                            float delta_t, float delta_d, float* h_out,
                            int batch) const {
  RnnForwardRows(x, h_prev,
                 w_x_[static_cast<size_t>(DistanceBucket(delta_d))].data(),
                 w_h_[static_cast<size_t>(TimeBucket(delta_t))].data(),
                 b_.data(), h_out, batch, input_dim_, hidden_dim_);
}

tensor::Tensor StRnnCell::InitialState(int batch) const {
  return tensor::Tensor::Zeros({batch, hidden_dim_});
}

std::vector<tensor::Tensor> StRnnCell::Parameters() const {
  std::vector<tensor::Tensor> params = w_x_;
  params.insert(params.end(), w_h_.begin(), w_h_.end());
  params.push_back(b_);
  return params;
}

}  // namespace pa::nn
