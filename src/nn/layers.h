#ifndef PA_NN_LAYERS_H_
#define PA_NN_LAYERS_H_

#include <vector>

#include "nn/module.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace pa::nn {

/// Affine map y = x W + b with W `[in, out]`, b `[1, out]`.
class Linear : public Module {
 public:
  Linear(int in_dim, int out_dim, util::Rng& rng);

  /// x is `[batch, in]`; returns `[batch, out]`.
  tensor::Tensor Forward(const tensor::Tensor& x) const;

  /// Inference forward of one row into a caller buffer: `out[0, out)` =
  /// `x[0, in)` W + b, with no tensor node or pool traffic. The active
  /// table's `matmul_block`, then its `add` for the bias, as MatMul and Add
  /// run them, so it is bitwise Forward on a `[1, in]` input.
  void ForwardRow(const float* x, float* out) const;

  std::vector<tensor::Tensor> Parameters() const override;

  int in_dim() const { return in_dim_; }
  int out_dim() const { return out_dim_; }
  const tensor::Tensor& weight() const { return weight_; }
  const tensor::Tensor& bias() const { return bias_; }

 private:
  int in_dim_;
  int out_dim_;
  tensor::Tensor weight_;
  tensor::Tensor bias_;
};

/// Lookup table mapping token ids to dense vectors.
///
/// The PA-Seq2Seq vocabulary is the POI set plus one *missing check-in*
/// token (the paper places it at index `|POIs|` in the one-hot table), so
/// callers typically construct this with `vocab = num_pois + 1`.
class Embedding : public Module {
 public:
  Embedding(int vocab_size, int dim, util::Rng& rng);

  /// Returns `[ids.size(), dim]`, row i = table[ids[i]].
  tensor::Tensor Forward(const std::vector<int>& ids) const;

  std::vector<tensor::Tensor> Parameters() const override;

  int vocab_size() const { return vocab_size_; }
  int dim() const { return dim_; }
  const tensor::Tensor& table() const { return table_; }

 private:
  int vocab_size_;
  int dim_;
  tensor::Tensor table_;
};

}  // namespace pa::nn

#endif  // PA_NN_LAYERS_H_
