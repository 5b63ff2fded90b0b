#include "tensor/tensor.h"

#include <vector>

#include <gtest/gtest.h>

#include "tensor/ops.h"

namespace pa::tensor {
namespace {

TEST(TensorTest, ZerosHasShapeAndValue) {
  Tensor t = Tensor::Zeros({2, 3});
  EXPECT_EQ(t.rows(), 2);
  EXPECT_EQ(t.cols(), 3);
  EXPECT_EQ(t.numel(), 6);
  for (int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t.data()[i], 0.0f);
  EXPECT_FALSE(t.requires_grad());
}

TEST(TensorTest, FullFillsValue) {
  Tensor t = Tensor::Full({3, 2}, 1.5f);
  for (int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t.data()[i], 1.5f);
}

TEST(TensorTest, FromDataRowMajorLayout) {
  Tensor t = Tensor::FromData({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t.at(0, 0), 1.0f);
  EXPECT_EQ(t.at(0, 1), 2.0f);
  EXPECT_EQ(t.at(1, 0), 3.0f);
  EXPECT_EQ(t.at(1, 1), 4.0f);
}

TEST(TensorTest, ScalarItem) {
  Tensor t = Tensor::Scalar(2.75f);
  EXPECT_FLOAT_EQ(t.item(), 2.75f);
}

TEST(TensorTest, SetUpdatesValue) {
  Tensor t = Tensor::Zeros({2, 2});
  t.set(1, 0, 7.0f);
  EXPECT_EQ(t.at(1, 0), 7.0f);
}

TEST(TensorTest, CopiesAliasStorage) {
  Tensor a = Tensor::Zeros({1, 2});
  Tensor b = a;
  b.set(0, 0, 3.0f);
  EXPECT_EQ(a.at(0, 0), 3.0f);
}

TEST(TensorTest, DetachCopiesData) {
  Tensor a = Tensor::FromData({1, 2}, {1, 2}, /*requires_grad=*/true);
  Tensor d = a.Detach();
  EXPECT_FALSE(d.requires_grad());
  d.set(0, 0, 9.0f);
  EXPECT_EQ(a.at(0, 0), 1.0f);  // Detach is a copy, not a view.
}

TEST(TensorTest, BackwardThroughSingleOp) {
  Tensor a = Tensor::Scalar(3.0f, /*requires_grad=*/true);
  Tensor b = Tensor::Scalar(4.0f, /*requires_grad=*/true);
  Tensor y = Mul(a, b);
  y.Backward();
  EXPECT_FLOAT_EQ(a.grad_at(0, 0), 4.0f);
  EXPECT_FLOAT_EQ(b.grad_at(0, 0), 3.0f);
}

TEST(TensorTest, BackwardAccumulatesAcrossCalls) {
  Tensor a = Tensor::Scalar(2.0f, /*requires_grad=*/true);
  Tensor y1 = Scale(a, 3.0f);
  y1.Backward();
  Tensor y2 = Scale(a, 5.0f);
  y2.Backward();
  EXPECT_FLOAT_EQ(a.grad_at(0, 0), 8.0f);  // 3 + 5.
}

TEST(TensorTest, ZeroGradClears) {
  Tensor a = Tensor::Scalar(2.0f, /*requires_grad=*/true);
  Scale(a, 3.0f).Backward();
  a.ZeroGrad();
  EXPECT_FLOAT_EQ(a.grad_at(0, 0), 0.0f);
}

// Diamond-shaped graph: y = (a*b) + (a*c). dy/da must combine both paths.
TEST(TensorTest, BackwardDiamondGraph) {
  Tensor a = Tensor::Scalar(2.0f, /*requires_grad=*/true);
  Tensor b = Tensor::Scalar(3.0f, /*requires_grad=*/true);
  Tensor c = Tensor::Scalar(5.0f, /*requires_grad=*/true);
  Tensor y = Add(Mul(a, b), Mul(a, c));
  EXPECT_FLOAT_EQ(y.item(), 16.0f);
  y.Backward();
  EXPECT_FLOAT_EQ(a.grad_at(0, 0), 8.0f);  // b + c.
  EXPECT_FLOAT_EQ(b.grad_at(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(c.grad_at(0, 0), 2.0f);
}

// Reusing the same tensor twice in one op (y = a * a).
TEST(TensorTest, BackwardSelfProduct) {
  Tensor a = Tensor::Scalar(3.0f, /*requires_grad=*/true);
  Tensor y = Mul(a, a);
  y.Backward();
  EXPECT_FLOAT_EQ(a.grad_at(0, 0), 6.0f);  // 2a.
}

// A long chain exercises the iterative (non-recursive) topological sort.
TEST(TensorTest, BackwardDeepChainDoesNotOverflow) {
  Tensor a = Tensor::Scalar(1.0f, /*requires_grad=*/true);
  Tensor y = a;
  for (int i = 0; i < 20000; ++i) y = AddScalar(y, 0.0f);
  y.Backward();
  EXPECT_FLOAT_EQ(a.grad_at(0, 0), 1.0f);
}

TEST(TensorTest, NoGradInputsProduceNoGraph) {
  Tensor a = Tensor::Scalar(1.0f);
  Tensor b = Tensor::Scalar(2.0f);
  Tensor y = Add(a, b);
  EXPECT_FALSE(y.requires_grad());
}

TEST(TensorTest, GradFlowsThroughInteriorNodes) {
  Tensor a = Tensor::Scalar(2.0f, /*requires_grad=*/true);
  Tensor interior = Scale(a, 2.0f);   // Interior node, not a leaf.
  Tensor y = Mul(interior, interior);  // y = 4a^2, dy/da = 8a = 16.
  y.Backward();
  EXPECT_FLOAT_EQ(a.grad_at(0, 0), 16.0f);
}

// The node contract: an op's node owns its operands as `parents`, so its
// backward closure can read them however many outside handles are left.

// w's loss through a chain of ops that read their operands' values in
// backward (MatMul, Tanh, Mul, Lerp, Square). With `keep` null every
// temporary's last outside handle dies here, so the graph alone holds them;
// otherwise `keep` holds them all.
Tensor LossThroughTemporaries(const Tensor& w, std::vector<Tensor>* keep) {
  std::vector<Tensor> held;
  Tensor x = Tensor::FromData({2, 3}, {0.5f, -1.0f, 2.0f, 1.5f, 0.25f, -0.75f});
  Tensor h = Tanh(MatMul(x, w));
  Tensor mask = Tensor::FromData({2, 2}, {0.25f, 1.0f, 0.0f, 0.5f});
  Tensor blend = Lerp(mask, h, Square(h));
  Tensor loss = Sum(Mul(blend, Scale(h, 3.0f)));
  if (keep != nullptr) *keep = {x, h, mask, blend};
  return loss;
}

TEST(TensorNodeTest, OperandsHeldOnlyByTheGraphGetExactGradients) {
  const std::vector<float> w0 = {0.1f, -0.2f, 0.3f, 0.4f, -0.5f, 0.6f};
  Tensor kept_w = Tensor::FromData({3, 2}, w0, /*requires_grad=*/true);
  std::vector<Tensor> keep;
  LossThroughTemporaries(kept_w, &keep).Backward();
  Tensor w = Tensor::FromData({3, 2}, w0, /*requires_grad=*/true);
  LossThroughTemporaries(w, nullptr).Backward();
  EXPECT_EQ(w.grad_vector(), kept_w.grad_vector());

  // d/da of Sum(a * (a + b)) = 2a + b, with a and b dropped by the caller.
  Tensor leaf = Tensor::FromData({1, 2}, {3.0f, -2.0f}, /*requires_grad=*/true);
  Tensor loss;
  {
    Tensor a = Scale(leaf, 2.0f);  // Interior: 6, -4.
    Tensor b = Tensor::FromData({1, 2}, {0.5f, 0.25f});
    loss = Sum(Mul(a, Add(a, b)));
  }
  loss.Backward();
  EXPECT_EQ(leaf.grad_at(0, 0), 2.0f * (2.0f * 6.0f + 0.5f));
  EXPECT_EQ(leaf.grad_at(0, 1), 2.0f * (2.0f * -4.0f + 0.25f));
}

// Five parts, more than a node keeps inline; part 1 appears twice and part
// 4 needs no gradient. Each part's gradient is its slice of the weights.
TEST(TensorNodeTest, ConcatOfFivePartsBackpropagatesExactly) {
  std::vector<Tensor> parts;
  for (int k = 0; k < 4; ++k) {
    parts.push_back(Tensor::Full({2, 1 + k % 2}, 1.0f, /*requires_grad=*/true));
  }
  parts.push_back(Tensor::Full({2, 1}, 1.0f));
  const std::vector<Tensor> cols_parts = {parts[0], parts[1], parts[2],
                                          parts[1], parts[4]};
  Tensor cols = ConcatCols(cols_parts);
  ASSERT_EQ(cols.shape(), (Shape{2, 7}));
  std::vector<float> wc(14);
  for (int i = 0; i < 14; ++i) wc[i] = static_cast<float>(i + 1);
  Sum(Mul(cols, Tensor::FromData({2, 7}, wc))).Backward();
  // Row r of ConcatCols is [p0 | p1 (2) | p2 | p1 (2) | p4]; weights 1..14.
  EXPECT_EQ(parts[0].grad_vector(), (std::vector<float>{1, 8}));
  EXPECT_EQ(parts[1].grad_vector(),
            (std::vector<float>{2 + 5, 3 + 6, 9 + 12, 10 + 13}));
  EXPECT_EQ(parts[2].grad_vector(), (std::vector<float>{4, 11}));

  for (Tensor& p : parts) p.ZeroGrad();
  std::vector<Tensor> row_parts;
  for (int k = 0; k < 5; ++k) {
    row_parts.push_back(
        k == 4 ? Tensor::Full({1 + k % 2, 3}, 1.0f)
               : Tensor::Full({1 + k % 2, 3}, 1.0f, /*requires_grad=*/true));
  }
  row_parts[3] = row_parts[1];
  Tensor rows = ConcatRows(row_parts);
  ASSERT_EQ(rows.shape(), (Shape{7, 3}));
  std::vector<float> wr(21);
  for (int i = 0; i < 21; ++i) wr[i] = static_cast<float>(i + 1);
  Sum(Mul(rows, Tensor::FromData({7, 3}, wr))).Backward();
  // Rows: p0 (1) | p1 (2) | p2 (1) | p1 (2) | p4 (1); weights 1..21.
  EXPECT_EQ(row_parts[0].grad_vector(), (std::vector<float>{1, 2, 3}));
  EXPECT_EQ(row_parts[1].grad_vector(),
            (std::vector<float>{4 + 13, 5 + 14, 6 + 15, 7 + 16, 8 + 17,
                                9 + 18}));
  EXPECT_EQ(row_parts[2].grad_vector(), (std::vector<float>{10, 11, 12}));
}

// Backward frees an interior node's gradient once its closure has run; the
// root and the leaves keep theirs, and leaves accumulate across graphs.
TEST(TensorNodeTest, BackwardFreesInteriorGradientsAndKeepsLeafOnes) {
  Tensor a = Tensor::FromData({1, 2}, {2.0f, 5.0f}, /*requires_grad=*/true);
  for (int call = 1; call <= 2; ++call) {
    Tensor interior = Scale(a, 3.0f);
    Tensor product = Mul(interior, a);
    Tensor loss = Sum(product);
    loss.Backward();
    EXPECT_TRUE(interior.impl()->grad.empty()) << "call " << call;
    EXPECT_EQ(interior.impl()->grad.capacity(), 0u) << "call " << call;
    EXPECT_TRUE(product.impl()->grad.empty()) << "call " << call;
    EXPECT_EQ(loss.impl()->grad, std::vector<float>{1.0f}) << "call " << call;
    // d/da of 3a^2 is 6a, once per call.
    EXPECT_EQ(a.grad_vector(),
              (std::vector<float>{call * 12.0f, call * 30.0f}))
        << "call " << call;
  }
}

TEST(TensorDeathTest, AccessorsOnUndefinedTensorAbortWithMessage) {
  // A default-constructed Tensor has no impl; the accessors must die with a
  // diagnostic rather than dereference null (raw UB).
  Tensor t;
  ASSERT_FALSE(t.defined());
  EXPECT_DEATH(t.shape(), "default-constructed");
  EXPECT_DEATH(t.rows(), "default-constructed");
  EXPECT_DEATH(t.cols(), "default-constructed");
  EXPECT_DEATH(t.numel(), "default-constructed");
  EXPECT_DEATH(t.requires_grad(), "default-constructed");
  EXPECT_DEATH(t.data(), "default-constructed");
}

TEST(TensorDeathTest, TransposedDataOutsideBackwardAborts) {
  // The transposed operands live only for one Backward walk; a request
  // from anywhere else is a programming error.
  Tensor w = Tensor::Zeros({2, 3});
  EXPECT_DEATH(internal::TransposedData(*w.impl()), "outside Tensor::Backward");
}

TEST(ShapeTest, EqualityAndToString) {
  Shape a{2, 3}, b{2, 3}, c{3, 2};
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  EXPECT_EQ(a.ToString(), "[2, 3]");
}

}  // namespace
}  // namespace pa::tensor
