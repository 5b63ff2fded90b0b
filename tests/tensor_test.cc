#include "tensor/tensor.h"

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
