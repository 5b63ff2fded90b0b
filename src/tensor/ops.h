#ifndef PA_TENSOR_OPS_H_
#define PA_TENSOR_OPS_H_

#include <vector>

#include "tensor/tensor.h"

namespace pa::tensor {

/// Differentiable matrix operations. Every op builds an autograd node, so a
/// scalar produced by composing these supports `Backward()`.
///
/// Broadcasting rules are deliberately minimal: binary elementwise ops accept
/// either identical shapes, or a `[1, n]` right operand broadcast across the
/// rows of an `[m, n]` left operand (the bias-add pattern), or a `[1, 1]`
/// right operand broadcast everywhere.

/// Elementwise a + b.
Tensor Add(const Tensor& a, const Tensor& b);
/// Elementwise a - b.
Tensor Sub(const Tensor& a, const Tensor& b);
/// Elementwise (Hadamard) a * b.
Tensor Mul(const Tensor& a, const Tensor& b);
/// a * alpha for a compile-time-known scalar.
Tensor Scale(const Tensor& a, float alpha);
/// a + alpha elementwise.
Tensor AddScalar(const Tensor& a, float alpha);

/// Fused convex blend: `a*mask + b*(1 - mask)` elementwise, all three the
/// same shape (no broadcasting). Bit-identical to
/// `Add(Mul(a, mask), Mul(b, AddScalar(Scale(mask, -1), 1)))` — negation is
/// exact and FP add/mul commute bitwise — but a single pass with no
/// temporaries. Differentiable in all three arguments
/// (da = mask·dy, db = (1-mask)·dy, dmask = (a-b)·dy).
Tensor Lerp(const Tensor& mask, const Tensor& a, const Tensor& b);

/// Matrix product of `[m, k]` and `[k, n]`.
Tensor MatMul(const Tensor& a, const Tensor& b);
/// Matrix transpose.
Tensor Transpose(const Tensor& a);

/// Elementwise nonlinearities.
Tensor Sigmoid(const Tensor& a);
Tensor Tanh(const Tensor& a);
Tensor Relu(const Tensor& a);
Tensor Exp(const Tensor& a);
/// Natural log; input values must be strictly positive.
Tensor Log(const Tensor& a);
/// Elementwise square.
Tensor Square(const Tensor& a);

/// Row-wise softmax / log-softmax over the column dimension. Zero-width
/// inputs (`[m, 0]`) are well-defined no-ops.
Tensor Softmax(const Tensor& a);
Tensor LogSoftmax(const Tensor& a);

/// Mean negative log likelihood. `log_probs` is `[batch, classes]` of
/// log-probabilities (e.g. from LogSoftmax); `targets[i]` is the class index
/// of row i. Returns a `[1, 1]` scalar.
Tensor NllLoss(const Tensor& log_probs, const std::vector<int>& targets);
/// Convenience: NllLoss(LogSoftmax(logits), targets).
Tensor CrossEntropyLoss(const Tensor& logits, const std::vector<int>& targets);

/// Concatenates tensors with equal row counts along columns.
Tensor ConcatCols(const std::vector<Tensor>& parts);
/// Concatenates tensors with equal column counts along rows.
Tensor ConcatRows(const std::vector<Tensor>& parts);
/// Contiguous column slice [start, start + len).
Tensor SliceCols(const Tensor& a, int start, int len);
/// Contiguous row slice [start, start + len).
Tensor SliceRows(const Tensor& a, int start, int len);

/// Gathers rows of `table` by index: result row i is `table[indices[i]]`.
/// This is the embedding-lookup primitive; the backward pass scatter-adds
/// into the gathered rows only.
Tensor Rows(const Tensor& table, const std::vector<int>& indices);

/// Sum / mean of all elements; both return `[1, 1]`.
Tensor Sum(const Tensor& a);
Tensor Mean(const Tensor& a);
/// Per-row sum: `[m, n]` -> `[m, 1]`.
Tensor SumRows(const Tensor& a);

}  // namespace pa::tensor

#endif  // PA_TENSOR_OPS_H_
