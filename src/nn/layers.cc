#include "nn/layers.h"

#include <algorithm>

#include "tensor/init.h"
#include "tensor/kernels/kernels.h"
#include "tensor/ops.h"

namespace pa::nn {

Linear::Linear(int in_dim, int out_dim, util::Rng& rng)
    : in_dim_(in_dim),
      out_dim_(out_dim),
      weight_(tensor::XavierInit({in_dim, out_dim}, rng)),
      bias_(tensor::Tensor::Zeros({1, out_dim}, /*requires_grad=*/true)) {}

tensor::Tensor Linear::Forward(const tensor::Tensor& x) const {
  return tensor::Add(tensor::MatMul(x, weight_), bias_);
}

void Linear::ForwardRow(const float* x, float* out) const {
  const tensor::kernels::KernelTable& kt = tensor::kernels::Active();
  std::fill(out, out + out_dim_, 0.0f);
  kt.matmul_block(x, weight_.data(), out, in_dim_, out_dim_, 0, 1, 0, out_dim_);
  kt.add(out, bias_.data(), out, out_dim_);
}

std::vector<tensor::Tensor> Linear::Parameters() const {
  return {weight_, bias_};
}

Embedding::Embedding(int vocab_size, int dim, util::Rng& rng)
    : vocab_size_(vocab_size),
      dim_(dim),
      table_(tensor::NormalInit({vocab_size, dim}, 0.1f, rng)) {}

tensor::Tensor Embedding::Forward(const std::vector<int>& ids) const {
  return tensor::Rows(table_, ids);
}

std::vector<tensor::Tensor> Embedding::Parameters() const { return {table_}; }

}  // namespace pa::nn
