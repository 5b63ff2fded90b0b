#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/kernels/kernels.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace pa::tensor {
namespace {

TEST(OpsTest, AddSameShape) {
  Tensor a = Tensor::FromData({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::FromData({2, 2}, {10, 20, 30, 40});
  Tensor y = Add(a, b);
  EXPECT_FLOAT_EQ(y.at(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(y.at(1, 1), 44.0f);
}

TEST(OpsTest, AddRowBroadcast) {
  Tensor a = Tensor::FromData({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor bias = Tensor::FromData({1, 3}, {10, 20, 30});
  Tensor y = Add(a, bias);
  EXPECT_FLOAT_EQ(y.at(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(y.at(1, 2), 36.0f);
}

TEST(OpsTest, AddRowBroadcastBackwardSumsRows) {
  Tensor a = Tensor::Zeros({3, 2}, /*requires_grad=*/true);
  Tensor bias = Tensor::Zeros({1, 2}, /*requires_grad=*/true);
  Sum(Add(a, bias)).Backward();
  EXPECT_FLOAT_EQ(bias.grad_at(0, 0), 3.0f);  // One per row.
  EXPECT_FLOAT_EQ(bias.grad_at(0, 1), 3.0f);
}

TEST(OpsTest, AddScalarBroadcast) {
  Tensor a = Tensor::FromData({2, 2}, {1, 2, 3, 4});
  Tensor s = Tensor::Scalar(5.0f);
  Tensor y = Add(a, s);
  EXPECT_FLOAT_EQ(y.at(1, 0), 8.0f);
}

TEST(OpsTest, SubAndMul) {
  Tensor a = Tensor::FromData({1, 3}, {4, 6, 8});
  Tensor b = Tensor::FromData({1, 3}, {1, 2, 3});
  Tensor d = Sub(a, b);
  Tensor m = Mul(a, b);
  EXPECT_FLOAT_EQ(d.at(0, 2), 5.0f);
  EXPECT_FLOAT_EQ(m.at(0, 1), 12.0f);
}

TEST(OpsTest, MatMulKnownResult) {
  Tensor a = Tensor::FromData({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromData({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor y = MatMul(a, b);
  EXPECT_EQ(y.rows(), 2);
  EXPECT_EQ(y.cols(), 2);
  EXPECT_FLOAT_EQ(y.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(y.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(y.at(1, 1), 154.0f);
}

TEST(OpsTest, TransposeRoundTrip) {
  Tensor a = Tensor::FromData({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor t = Transpose(a);
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 2);
  EXPECT_FLOAT_EQ(t.at(2, 1), 6.0f);
  Tensor tt = Transpose(t);
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 3; ++j) EXPECT_FLOAT_EQ(tt.at(i, j), a.at(i, j));
  }
}

TEST(OpsTest, SigmoidTanhReluValues) {
  Tensor x = Tensor::FromData({1, 3}, {-1.0f, 0.0f, 2.0f});
  Tensor s = Sigmoid(x);
  EXPECT_NEAR(s.at(0, 0), 0.26894f, 1e-4);
  EXPECT_NEAR(s.at(0, 1), 0.5f, 1e-6);
  Tensor t = Tanh(x);
  EXPECT_NEAR(t.at(0, 2), std::tanh(2.0f), 1e-6);
  Tensor r = Relu(x);
  EXPECT_FLOAT_EQ(r.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(r.at(0, 2), 2.0f);
}

TEST(OpsTest, ExpLogSquare) {
  Tensor x = Tensor::FromData({1, 2}, {1.0f, 2.0f});
  EXPECT_NEAR(Exp(x).at(0, 1), std::exp(2.0f), 1e-4);
  EXPECT_NEAR(Log(x).at(0, 1), std::log(2.0f), 1e-6);
  EXPECT_FLOAT_EQ(Square(x).at(0, 1), 4.0f);
}

TEST(OpsTest, SoftmaxRowsSumToOne) {
  Tensor x = Tensor::FromData({2, 3}, {1, 2, 3, -1, 0, 1});
  Tensor y = Softmax(x);
  for (int i = 0; i < 2; ++i) {
    float sum = 0.0f;
    for (int j = 0; j < 3; ++j) {
      sum += y.at(i, j);
      EXPECT_GT(y.at(i, j), 0.0f);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5);
  }
  // Monotone in the logits.
  EXPECT_LT(y.at(0, 0), y.at(0, 2));
}

TEST(OpsTest, SoftmaxIsShiftInvariant) {
  Tensor x = Tensor::FromData({1, 3}, {1, 2, 3});
  Tensor x_shifted = Tensor::FromData({1, 3}, {1001, 1002, 1003});
  Tensor a = Softmax(x);
  Tensor b = Softmax(x_shifted);
  for (int j = 0; j < 3; ++j) EXPECT_NEAR(a.at(0, j), b.at(0, j), 1e-5);
}

TEST(OpsTest, LogSoftmaxMatchesLogOfSoftmax) {
  Tensor x = Tensor::FromData({1, 4}, {0.5f, -1.0f, 2.0f, 0.0f});
  Tensor ls = LogSoftmax(x);
  Tensor s = Softmax(x);
  for (int j = 0; j < 4; ++j) {
    EXPECT_NEAR(ls.at(0, j), std::log(s.at(0, j)), 1e-5);
  }
}

TEST(OpsTest, NllLossPicksTargets) {
  Tensor logp = Tensor::FromData({2, 2}, {std::log(0.25f), std::log(0.75f),
                                          std::log(0.5f), std::log(0.5f)});
  Tensor loss = NllLoss(logp, {1, 0});
  EXPECT_NEAR(loss.item(), -(std::log(0.75f) + std::log(0.5f)) / 2.0f, 1e-5);
}

TEST(OpsTest, CrossEntropyOfUniformLogitsIsLogN) {
  Tensor logits = Tensor::Zeros({3, 8});
  Tensor loss = CrossEntropyLoss(logits, {0, 3, 7});
  EXPECT_NEAR(loss.item(), std::log(8.0f), 1e-5);
}

TEST(OpsTest, CrossEntropyGradientIsSoftmaxMinusOneHot) {
  Tensor logits = Tensor::FromData({1, 3}, {1, 2, 3}, /*requires_grad=*/true);
  CrossEntropyLoss(logits, {2}).Backward();
  Tensor p = Softmax(Tensor::FromData({1, 3}, {1, 2, 3}));
  EXPECT_NEAR(logits.grad_at(0, 0), p.at(0, 0), 1e-5);
  EXPECT_NEAR(logits.grad_at(0, 1), p.at(0, 1), 1e-5);
  EXPECT_NEAR(logits.grad_at(0, 2), p.at(0, 2) - 1.0f, 1e-5);
}

TEST(OpsTest, ConcatColsLayout) {
  Tensor a = Tensor::FromData({2, 1}, {1, 2});
  Tensor b = Tensor::FromData({2, 2}, {3, 4, 5, 6});
  Tensor y = ConcatCols({a, b});
  EXPECT_EQ(y.cols(), 3);
  EXPECT_FLOAT_EQ(y.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 3.0f);
  EXPECT_FLOAT_EQ(y.at(1, 2), 6.0f);
}

TEST(OpsTest, ConcatRowsLayout) {
  Tensor a = Tensor::FromData({1, 2}, {1, 2});
  Tensor b = Tensor::FromData({2, 2}, {3, 4, 5, 6});
  Tensor y = ConcatRows({a, b});
  EXPECT_EQ(y.rows(), 3);
  EXPECT_FLOAT_EQ(y.at(0, 1), 2.0f);
  EXPECT_FLOAT_EQ(y.at(2, 0), 5.0f);
}

TEST(OpsTest, SliceColsAndBackwardScatter) {
  Tensor a = Tensor::FromData({2, 4}, {1, 2, 3, 4, 5, 6, 7, 8},
                              /*requires_grad=*/true);
  Tensor y = SliceCols(a, 1, 2);
  EXPECT_EQ(y.cols(), 2);
  EXPECT_FLOAT_EQ(y.at(1, 0), 6.0f);
  Sum(y).Backward();
  EXPECT_FLOAT_EQ(a.grad_at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(a.grad_at(0, 1), 1.0f);
  EXPECT_FLOAT_EQ(a.grad_at(1, 2), 1.0f);
  EXPECT_FLOAT_EQ(a.grad_at(1, 3), 0.0f);
}

TEST(OpsTest, SliceRows) {
  Tensor a = Tensor::FromData({3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor y = SliceRows(a, 1, 2);
  EXPECT_EQ(y.rows(), 2);
  EXPECT_FLOAT_EQ(y.at(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(y.at(1, 1), 6.0f);
}

TEST(OpsTest, RowsGatherAndScatterAdd) {
  Tensor table = Tensor::FromData({3, 2}, {1, 2, 3, 4, 5, 6},
                                  /*requires_grad=*/true);
  Tensor y = Rows(table, {2, 0, 2});
  EXPECT_EQ(y.rows(), 3);
  EXPECT_FLOAT_EQ(y.at(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(y.at(1, 1), 2.0f);
  Sum(y).Backward();
  EXPECT_FLOAT_EQ(table.grad_at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(table.grad_at(1, 0), 0.0f);
  EXPECT_FLOAT_EQ(table.grad_at(2, 0), 2.0f);  // Gathered twice.
}

TEST(OpsTest, SumMeanSumRows) {
  Tensor a = Tensor::FromData({2, 2}, {1, 2, 3, 4});
  EXPECT_FLOAT_EQ(Sum(a).item(), 10.0f);
  EXPECT_FLOAT_EQ(Mean(a).item(), 2.5f);
  Tensor r = SumRows(a);
  EXPECT_EQ(r.cols(), 1);
  EXPECT_FLOAT_EQ(r.at(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(r.at(1, 0), 7.0f);
}

TEST(OpsTest, ScaleAndAddScalar) {
  Tensor a = Tensor::FromData({1, 2}, {2, 4});
  EXPECT_FLOAT_EQ(Scale(a, 0.5f).at(0, 1), 2.0f);
  EXPECT_FLOAT_EQ(AddScalar(a, 1.0f).at(0, 0), 3.0f);
}

// --- MatMul's input gradient. For Y = A B, dA = dY B^T runs as the forward
// kernel over a transposed copy of B that Tensor::Backward builds once per
// walk. These tests pin its bits against the contract, under every kernel
// table, and pin the transposed copy's lifetime.

std::vector<const kernels::KernelTable*> AllTables() {
  std::vector<const kernels::KernelTable*> tables = {
      &kernels::ScalarTable(), &kernels::GenericTable()};
  if (const kernels::KernelTable* t = kernels::Avx2Table()) tables.push_back(t);
  if (const kernels::KernelTable* t = kernels::Avx512Table()) {
    tables.push_back(t);
  }
  return tables;
}

// Pins `table` for the scope's life, then restores the PA_SIMD choice.
class DispatchOverride {
 public:
  explicit DispatchOverride(const kernels::KernelTable* table) {
    kernels::SetDispatchOverride(table);
  }
  ~DispatchOverride() { kernels::SetDispatchOverride(nullptr); }
  DispatchOverride(const DispatchOverride&) = delete;
  DispatchOverride& operator=(const DispatchOverride&) = delete;
};

// Deterministic values in [-10, 10), with exact zeros of either sign at
// about `zero_rate`.
std::vector<float> Values(int64_t n, float zero_rate, uint32_t salt) {
  std::vector<float> v(static_cast<size_t>(n));
  uint32_t state = 0x9e3779b9u ^ (salt * 2654435761u);
  auto next = [&state] {
    state = state * 1664525u + 1013904223u;
    return static_cast<float>(state >> 8) / static_cast<float>(1u << 24);
  };
  for (float& x : v) {
    const float u = next();
    x = u < zero_rate ? (u < zero_rate / 2 ? -0.0f : 0.0f)
                      : (next() - 0.5f) * 20.0f;
  }
  return v;
}

// dA as MatMul's backward defines it, for A [m, k], B [k, n]: each
// dA[i, p] is +0 plus dY[i, j] * B[p, j] over ascending j, skipping every
// exact-zero dY[i, j], and is then added into dA once.
std::vector<float> ReferenceInputGrad(const std::vector<float>& dy,
                                      const std::vector<float>& b,
                                      std::vector<float> da, int m, int k,
                                      int n) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t p = 0; p < k; ++p) {
      float acc = 0.0f;
      for (int64_t j = 0; j < n; ++j) {
        const float g = dy[i * n + j];
        if (g == 0.0f) continue;
        acc += g * b[p * n + j];
      }
      da[i * k + p] += acc;
    }
  }
  return da;
}

void ExpectSameBits(const std::vector<float>& want,
                    const std::vector<float>& got, const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  if (std::memcmp(want.data(), got.data(), want.size() * sizeof(float)) == 0) {
    return;
  }
  size_t i = 0;
  while (std::memcmp(&want[i], &got[i], sizeof(float)) == 0) ++i;
  ADD_FAILURE() << what << ": first difference at " << i << ": want "
                << want[i] << ", got " << got[i];
}

void SetGrad(Tensor t, const std::vector<float>& g) {
  ASSERT_EQ(static_cast<int64_t>(g.size()), t.numel());
  std::memcpy(t.grad_data(), g.data(), g.size() * sizeof(float));
}

// A scalar that reads `y` through a zero-width slice: Backward walks y's
// node but adds nothing to its gradient, so dY is exactly what SetGrad put
// there, -0 included (a gradient summed by the graph starts at +0).
Tensor ReadsNothing(const Tensor& y) { return Sum(SliceCols(y, 0, 0)); }

// A's gradient after one Backward through MatMul(a, b) with dY = `dy`,
// starting from `da0`.
std::vector<float> InputGrad(const std::vector<float>& a_data, const Tensor& b,
                             const std::vector<float>& dy,
                             const std::vector<float>& da0) {
  const int m = static_cast<int>(a_data.size()) / b.rows();
  Tensor a = Tensor::FromData({m, b.rows()}, a_data, /*requires_grad=*/true);
  SetGrad(a, da0);
  Tensor y = MatMul(a, b);
  SetGrad(y, dy);
  ReadsNothing(y).Backward();
  return a.grad_vector();
}

std::string ShapeName(const kernels::KernelTable* table, int m, int k,
                      int n) {
  return std::string(table->name) + " m=" + std::to_string(m) +
         " k=" + std::to_string(k) + " n=" + std::to_string(n);
}

TEST(MatMulInputGradTest, MatchesReferenceUnderEveryTable) {
  uint32_t salt = 0;
  // k lands on every rung of the 32-, 48- and 96-column ladders.
  for (int k : {1, 3, 4, 7, 8, 9, 15, 16, 17, 24, 47, 48, 49, 95, 96, 97,
                192}) {
    for (int n : {1, 7, 33, 96, 2600}) {
      for (int m : {1, 3}) {
        ++salt;
        const std::vector<float> a = Values(int64_t{m} * k, 0.1f, salt);
        const std::vector<float> b = Values(int64_t{k} * n, 0.05f, ~salt);
        // About 30% of dY is ±0, so the skip fires; dA starts nonzero.
        const std::vector<float> dy = Values(int64_t{m} * n, 0.3f, salt * 7u);
        const std::vector<float> da0 = Values(int64_t{m} * k, 0.0f, salt * 13u);
        const std::vector<float> want = ReferenceInputGrad(dy, b, da0, m, k, n);
        const Tensor bt = Tensor::FromData({k, n}, b);
        for (const kernels::KernelTable* table : AllTables()) {
          DispatchOverride pin(table);
          ExpectSameBits(want, InputGrad(a, bt, dy, da0),
                         ShapeName(table, m, k, n));
        }
      }
    }
  }
}

// A ±inf or NaN in B contributes nothing where dY is exactly zero: the
// zero term is skipped, as the forward skips exact-zero A terms, instead
// of summing 0 * inf = NaN into dA.
TEST(MatMulInputGradTest, SkipsNonFiniteBWhereDyIsZero) {
  const int m = 2, k = 5, n = 9;
  constexpr float kInf = std::numeric_limits<float>::infinity();
  std::vector<float> b = Values(int64_t{k} * n, 0.0f, 77);
  std::vector<float> dy = Values(int64_t{m} * n, 0.0f, 78);
  // Column 3: dY is +0 and -0, and B holds +inf, -inf and NaN.
  dy[0 * n + 3] = 0.0f;
  dy[1 * n + 3] = -0.0f;
  b[0 * n + 3] = kInf;
  b[1 * n + 3] = -kInf;
  b[2 * n + 3] = std::numeric_limits<float>::quiet_NaN();
  // Column 6: B[4, 6] is +inf, and only row 0 of dY is nonzero there.
  dy[0 * n + 6] = 1.5f;
  dy[1 * n + 6] = 0.0f;
  b[4 * n + 6] = kInf;
  const std::vector<float> da0 = Values(int64_t{m} * k, 0.0f, 79);
  const std::vector<float> want = ReferenceInputGrad(dy, b, da0, m, k, n);
  for (int i = 0; i < m; ++i) {
    for (int p = 0; p < k; ++p) {
      const float v = want[static_cast<size_t>(i * k + p)];
      if (i == 0 && p == 4) {
        EXPECT_EQ(v, kInf);
      } else {
        EXPECT_TRUE(std::isfinite(v)) << "dA[" << i << ", " << p << "]";
      }
    }
  }
  const Tensor bt = Tensor::FromData({k, n}, b);
  for (const kernels::KernelTable* table : AllTables()) {
    DispatchOverride pin(table);
    ExpectSameBits(want, InputGrad(Values(int64_t{m} * k, 0.0f, 80), bt, dy,
                                   da0),
                   ShapeName(table, m, k, n));
  }
}

// Three nodes read one leaf W in one graph, and a fourth reads an interior
// B (W transposed by the Transpose op): each A gets its own dY's gradient.
TEST(MatMulInputGradTest, NodesReadingOneWeightInOneGraph) {
  const int k = 48, n = 130;
  const std::vector<float> w_data = Values(int64_t{k} * n, 0.05f, 90);
  std::vector<float> wt_data(w_data.size());
  for (int p = 0; p < k; ++p) {
    for (int j = 0; j < n; ++j) wt_data[j * k + p] = w_data[p * n + j];
  }
  const Tensor w = Tensor::FromData({k, n}, w_data, /*requires_grad=*/true);
  for (const kernels::KernelTable* table : AllTables()) {
    DispatchOverride pin(table);
    std::vector<Tensor> xs, ys;
    std::vector<std::vector<float>> want;
    Tensor loss = Tensor::Scalar(0.0f);
    for (int r = 0; r < 4; ++r) {
      const bool reads_transpose = r == 3;
      const int m = 1 + r % 2, inner = reads_transpose ? n : k;
      const int cols = reads_transpose ? k : n;
      const uint32_t salt = 100u + static_cast<uint32_t>(r);
      const std::vector<float> dy = Values(int64_t{m} * cols, 0.2f, salt);
      const std::vector<float> da0 = Values(int64_t{m} * inner, 0.0f, ~salt);
      xs.push_back(Tensor::FromData({m, inner},
                                    Values(int64_t{m} * inner, 0.0f, salt * 3u),
                                    /*requires_grad=*/true));
      SetGrad(xs.back(), da0);
      ys.push_back(MatMul(xs.back(), reads_transpose ? Transpose(w) : w));
      SetGrad(ys.back(), dy);
      loss = Add(loss, ReadsNothing(ys.back()));
      want.push_back(ReferenceInputGrad(dy, reads_transpose ? wt_data : w_data,
                                        da0, m, inner, cols));
    }
    loss.Backward();
    for (int r = 0; r < 4; ++r) {
      ExpectSameBits(want[r], xs[r].grad_vector(),
                     std::string(table->name) + " reader " + std::to_string(r));
    }
  }
}

// The transposed copy lives for one Backward: after W is edited in place,
// the next Backward's dA follows the new W.
TEST(MatMulInputGradTest, FollowsAWeightEditedBetweenBackwardCalls) {
  const int m = 1, k = 24, n = 600;
  const std::vector<float> before = Values(int64_t{k} * n, 0.05f, 200);
  const std::vector<float> after = Values(int64_t{k} * n, 0.05f, 201);
  const std::vector<float> a = Values(int64_t{m} * k, 0.0f, 202);
  const std::vector<float> dy = Values(int64_t{m} * n, 0.2f, 203);
  const std::vector<float> da0(static_cast<size_t>(m) * k, 0.0f);
  Tensor w = Tensor::FromData({k, n}, before, /*requires_grad=*/true);
  for (const kernels::KernelTable* table : AllTables()) {
    DispatchOverride pin(table);
    std::memcpy(w.data(), before.data(), before.size() * sizeof(float));
    ExpectSameBits(ReferenceInputGrad(dy, before, da0, m, k, n),
                   InputGrad(a, w, dy, da0),
                   std::string(table->name) + " before the edit");
    std::memcpy(w.data(), after.data(), after.size() * sizeof(float));
    ExpectSameBits(ReferenceInputGrad(dy, after, da0, m, k, n),
                   InputGrad(a, w, dy, da0),
                   std::string(table->name) + " after the edit");
  }
}

// Two threads run Backward at once over graphs that share one W, each
// with its gradients redirected as mini-batch training does: each walk
// builds its own transposed copy, and W is only read.
TEST(MatMulInputGradTest, ConcurrentBackwardsShareOneWeight) {
  const int m = 1, k = 48, n = 600;
  const Tensor w = Tensor::FromData({k, n}, Values(int64_t{k} * n, 0.05f, 300),
                                    /*requires_grad=*/true);
  const std::vector<float> w_data(w.data(), w.data() + w.numel());
  struct Item {
    std::vector<float> a, dy, da0, want;
    bool same = true;
  };
  for (const kernels::KernelTable* table : AllTables()) {
    DispatchOverride pin(table);
    Item items[2];
    for (uint32_t t = 0; t < 2; ++t) {
      Item& it = items[t];
      it.a = Values(int64_t{m} * k, 0.0f, 310 + t);
      it.dy = Values(int64_t{m} * n, 0.2f, 320 + t);
      it.da0 = Values(int64_t{m} * k, 0.0f, 330 + t);
      it.want = ReferenceInputGrad(it.dy, w_data, it.da0, m, k, n);
    }
    auto run = [&w](Item* it) {
      for (int rep = 0; rep < 20; ++rep) {
        GradRedirectScope redirect({w});
        const std::vector<float> got = InputGrad(it->a, w, it->dy, it->da0);
        it->same = it->same && std::memcmp(got.data(), it->want.data(),
                                           got.size() * sizeof(float)) == 0;
      }
    };
    std::thread first(run, &items[0]);
    std::thread second(run, &items[1]);
    first.join();
    second.join();
    EXPECT_TRUE(items[0].same) << table->name << " thread 0";
    EXPECT_TRUE(items[1].same) << table->name << " thread 1";
  }
}

// Add, Sub and Mul's backward for every broadcast of b: a [m, n] against b
// [m, n], [1, n] and [1, 1]. Each b element's gradient is its starting
// value plus (Add, Mul) or minus (Sub) its terms in ascending i, one
// rounding per step, as a plain per-element loop gives it. dY holds +0, -0
// and NaN, and b's gradient starts at a mix of values and zeros of either
// sign, so a reordered or regrouped sum shows in the bits.
TEST(BroadcastBackwardTest, MatchesPerElementReferenceBitwise) {
  const int m = 5, n = 7;
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  enum class Op { kAdd, kSub, kMul };
  for (const Shape bshape : {Shape{m, n}, Shape{1, n}, Shape{1, 1}}) {
    for (const Op op : {Op::kAdd, Op::kSub, Op::kMul}) {
      for (const bool with_nan : {false, true}) {
        const uint32_t salt = 400u + static_cast<uint32_t>(op) * 7u +
                              static_cast<uint32_t>(bshape.numel());
        const std::vector<float> a_data = Values(int64_t{m} * n, 0.2f, salt);
        const std::vector<float> b_data = Values(bshape.numel(), 0.2f, ~salt);
        std::vector<float> dy = Values(int64_t{m} * n, 0.3f, salt * 3u);
        if (with_nan) dy[static_cast<size_t>(n + 2)] = kNan;
        const std::vector<float> da0 = Values(int64_t{m} * n, 0.3f, salt * 5u);
        const std::vector<float> db0 = Values(bshape.numel(), 0.4f, salt * 9u);
        std::vector<float> want_a = da0, want_b = db0;
        for (int64_t i = 0; i < int64_t{m} * n; ++i) {
          const int64_t j = bshape.rows == m ? i : bshape.cols == n ? i % n : 0;
          switch (op) {
            case Op::kAdd:
              want_a[i] += dy[i];
              want_b[j] += dy[i];
              break;
            case Op::kSub:
              want_a[i] += dy[i];
              want_b[j] -= dy[i];
              break;
            case Op::kMul:
              want_a[i] += dy[i] * b_data[j];
              want_b[j] += dy[i] * a_data[i];
              break;
          }
        }
        Tensor a = Tensor::FromData({m, n}, a_data, /*requires_grad=*/true);
        Tensor b = Tensor::FromData(bshape, b_data, /*requires_grad=*/true);
        SetGrad(a, da0);
        SetGrad(b, db0);
        Tensor y = op == Op::kAdd   ? Add(a, b)
                   : op == Op::kSub ? Sub(a, b)
                                    : Mul(a, b);
        SetGrad(y, dy);
        ReadsNothing(y).Backward();
        const std::string what =
            std::string(op == Op::kAdd ? "Add" : op == Op::kSub ? "Sub" : "Mul") +
            " b " + bshape.ToString() + (with_nan ? " NaN in dY" : "");
        ExpectSameBits(want_a, a.grad_vector(), what + ", dA");
        ExpectSameBits(want_b, b.grad_vector(), what + ", dB");
      }
    }
  }
}

}  // namespace
}  // namespace pa::tensor
