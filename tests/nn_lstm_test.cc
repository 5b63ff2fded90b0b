#include "nn/lstm.h"

#include <cmath>

#include <gtest/gtest.h>

#include "tensor/gradcheck.h"
#include "tensor/init.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace pa::nn {
namespace {

using tensor::Tensor;

TEST(LstmCellTest, StateShapes) {
  util::Rng rng(1);
  LstmCell cell(3, 4, rng);
  LstmState s = cell.InitialState(2);
  EXPECT_EQ(s.h.rows(), 2);
  EXPECT_EQ(s.h.cols(), 4);
  LstmState next = cell.Forward(Tensor::Zeros({2, 3}), s);
  EXPECT_EQ(next.h.rows(), 2);
  EXPECT_EQ(next.h.cols(), 4);
  EXPECT_EQ(next.c.cols(), 4);
}

TEST(LstmCellTest, HiddenStateBounded) {
  util::Rng rng(2);
  LstmCell cell(3, 4, rng);
  LstmState s = cell.InitialState(1);
  Tensor x = tensor::UniformInit({1, 3}, 5.0f, rng);
  for (int t = 0; t < 10; ++t) s = cell.Forward(x, s);
  for (int j = 0; j < 4; ++j) {
    EXPECT_LE(std::fabs(s.h.at(0, j)), 1.0f);  // o * tanh(c) is in [-1, 1].
  }
}

TEST(LstmCellTest, GradCheckThroughTwoSteps) {
  util::Rng rng(3);
  LstmCell cell(2, 3, rng);
  Tensor x1 = tensor::UniformInit({1, 2}, 1.0f, rng);
  Tensor x2 = tensor::UniformInit({1, 2}, 1.0f, rng);
  auto loss = [&] {
    LstmState s = cell.InitialState(1);
    s = cell.Forward(x1, s);
    s = cell.Forward(x2, s);
    return tensor::Sum(tensor::Square(s.h));
  };
  std::vector<Tensor> inputs = cell.Parameters();
  inputs.push_back(x1);
  inputs.push_back(x2);
  auto result = tensor::CheckGradients(loss, inputs);
  EXPECT_TRUE(result.ok) << result.worst_location
                         << " rel=" << result.max_rel_error;
}

TEST(LstmCellTest, ZoneoutDisabledIsPlainForward) {
  util::Rng rng(4);
  LstmCell cell(2, 3, rng);
  Tensor x = tensor::UniformInit({1, 2}, 1.0f, rng);
  LstmState s0 = cell.InitialState(1);
  LstmState a = cell.Forward(x, s0);
  LstmState b = cell.ForwardZoneout(x, s0, ZoneoutConfig{}, rng);
  for (int j = 0; j < 3; ++j) EXPECT_FLOAT_EQ(a.h.at(0, j), b.h.at(0, j));
}

TEST(LstmCellTest, ZoneoutTrainingPreservesUnitsStatistically) {
  util::Rng rng(6);
  const int hidden = 64;
  LstmCell cell(2, hidden, rng);
  Tensor x = tensor::UniformInit({1, 2}, 1.0f, rng);
  LstmState prev = cell.InitialState(1);
  prev.h = Tensor::Full({1, hidden}, 123.0f);  // Marker value.
  ZoneoutConfig z{0.5f, 0.0f};
  int preserved = 0;
  const int trials = 20;
  for (int t = 0; t < trials; ++t) {
    LstmState next = cell.ForwardZoneout(x, prev, z, rng);
    for (int j = 0; j < hidden; ++j) {
      if (next.h.at(0, j) == 123.0f) ++preserved;
    }
  }
  const double frac = static_cast<double>(preserved) / (trials * hidden);
  EXPECT_NEAR(frac, 0.5, 0.08);
}

TEST(BiLstmTest, OutputConcatenatesBothDirections) {
  util::Rng rng(7);
  BiLstm bi(2, 3, rng);
  std::vector<Tensor> xs = {Tensor::Zeros({1, 2}), Tensor::Zeros({1, 2})};
  auto out = bi.Forward(xs);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].cols(), 6);
  EXPECT_EQ(bi.output_dim(), 6);
}

TEST(BiLstmTest, BackwardHalfSeesFutureTokens) {
  // The backward direction's state at position 0 must depend on the last
  // input; changing only the final input must change out[0]'s second half.
  util::Rng rng(8);
  BiLstm bi(2, 3, rng);
  std::vector<Tensor> xs1 = {tensor::Tensor::FromData({1, 2}, {1, 0}),
                             tensor::Tensor::FromData({1, 2}, {0, 0})};
  std::vector<Tensor> xs2 = {tensor::Tensor::FromData({1, 2}, {1, 0}),
                             tensor::Tensor::FromData({1, 2}, {5, -5})};
  auto out1 = bi.Forward(xs1);
  auto out2 = bi.Forward(xs2);
  // Forward half at t=0 identical...
  for (int j = 0; j < 3; ++j) {
    EXPECT_FLOAT_EQ(out1[0].at(0, j), out2[0].at(0, j));
  }
  // ...backward half differs.
  float diff = 0.0f;
  for (int j = 3; j < 6; ++j) {
    diff += std::fabs(out1[0].at(0, j) - out2[0].at(0, j));
  }
  EXPECT_GT(diff, 1e-4f);
}

TEST(BiLstmTest, EmptySequenceYieldsEmptyOutput) {
  util::Rng rng(9);
  BiLstm bi(2, 3, rng);
  EXPECT_TRUE(bi.Forward({}).empty());
}

TEST(ResidualStackTest, OutputDims) {
  util::Rng rng(10);
  ResidualBiLstmStack stack(5, 4, /*use_residual=*/true, rng);
  std::vector<Tensor> xs = {Tensor::Zeros({1, 5}), Tensor::Zeros({1, 5}),
                            Tensor::Zeros({1, 5})};
  LstmState final_state;
  auto out = stack.Forward(xs, &final_state);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].cols(), 8);  // 2 * hidden.
  EXPECT_EQ(final_state.h.cols(), 8);
}

TEST(ResidualStackTest, ResidualChangesOutput) {
  // With and without residual are different functions even for the same
  // seed (the residual path adds the projected input).
  util::Rng rng1(11), rng2(11);
  ResidualBiLstmStack with(3, 4, true, rng1);
  ResidualBiLstmStack without(3, 4, false, rng2);
  std::vector<Tensor> xs = {tensor::Tensor::Full({1, 3}, 0.7f)};
  auto a = with.Forward(xs);
  auto b = without.Forward(xs);
  float diff = 0.0f;
  for (int j = 0; j < 8; ++j) diff += std::fabs(a[0].at(0, j) - b[0].at(0, j));
  EXPECT_GT(diff, 1e-5f);
}

TEST(ResidualStackTest, NoProjectionWhenWidthsMatch) {
  util::Rng rng(12);
  // input_dim == 2 * hidden_dim -> identity skip: the residual stack has
  // exactly the same parameters as the plain stack.
  ResidualBiLstmStack with_residual(8, 4, true, rng);
  util::Rng rng2(12);
  ResidualBiLstmStack without_residual(8, 4, false, rng2);
  EXPECT_EQ(with_residual.NumParameters(), without_residual.NumParameters());

  // Mismatched widths add a learned projection on the skip path.
  util::Rng rng3(12), rng4(12);
  ResidualBiLstmStack projected(5, 4, true, rng3);
  ResidualBiLstmStack plain(5, 4, false, rng4);
  EXPECT_EQ(projected.NumParameters(),
            plain.NumParameters() + 5 * 8 + 8);
}

TEST(ResidualStackTest, GradCheckSmall) {
  util::Rng rng(13);
  ResidualBiLstmStack stack(2, 2, true, rng);
  Tensor x0 = tensor::UniformInit({1, 2}, 1.0f, rng);
  Tensor x1 = tensor::UniformInit({1, 2}, 1.0f, rng);
  auto loss = [&] {
    auto out = stack.Forward({x0, x1});
    return tensor::Sum(tensor::Square(out[1]));
  };
  std::vector<Tensor> inputs = {x0, x1};
  auto result = tensor::CheckGradients(loss, inputs, 1e-2f, 5e-2f);
  EXPECT_TRUE(result.ok) << result.worst_location
                         << " rel=" << result.max_rel_error;
}

TEST(LstmCellTest, ForgetBiasInitializedToOne) {
  util::Rng rng(14);
  LstmCell cell(2, 3, rng);
  const Tensor& b = cell.Parameters()[2];
  for (int j = 3; j < 6; ++j) EXPECT_FLOAT_EQ(b.at(0, j), 1.0f);
  for (int j = 0; j < 3; ++j) EXPECT_FLOAT_EQ(b.at(0, j), 0.0f);
}

}  // namespace
}  // namespace pa::nn
