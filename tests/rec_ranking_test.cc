// The ranking contract shared by every recommender's TopK: rec::SelectTopK
// against a full stable sort (ties, signed zeros, NaN, every edge k), its
// agreement with the partial_sort ranking it replaced on tie-free rows, and
// the raw-row output projection the neural sessions score with, bitwise
// against nn::Linear::Forward under every kernel table.

#include "rec/ranking.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "nn/layers.h"
#include "tensor/kernels/kernels.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace pa::rec {
namespace {

namespace kernels = tensor::kernels;

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

// The contract written as a full sort: score descending with NaN last;
// stability keeps equal scores (and NaNs) in ascending id order.
std::vector<int32_t> ReferenceTopK(const std::vector<float>& scores, int k) {
  const int n = static_cast<int>(scores.size());
  std::vector<int32_t> ids(scores.size());
  std::iota(ids.begin(), ids.end(), 0);
  std::stable_sort(ids.begin(), ids.end(), [&](int32_t a, int32_t b) {
    const float sa = scores[static_cast<size_t>(a)];
    const float sb = scores[static_cast<size_t>(b)];
    if (std::isnan(sa)) return false;
    return std::isnan(sb) || sa > sb;
  });
  ids.resize(static_cast<size_t>(std::clamp(k, 0, n)));
  return ids;
}

// The ranking the neural sessions used before SelectTopK, kept verbatim as
// the reference it must reproduce wherever the old order was defined.
std::vector<int32_t> PartialSortTopK(const float* logits, int n, int k) {
  std::vector<int32_t> ids(static_cast<size_t>(n));
  std::iota(ids.begin(), ids.end(), 0);
  const int kk = std::min(k, n);
  std::partial_sort(
      ids.begin(), ids.begin() + kk, ids.end(),
      [logits](int32_t a, int32_t b) { return logits[a] > logits[b]; });
  ids.resize(static_cast<size_t>(kk));
  return ids;
}

std::vector<int> EdgeKs(int n) { return {0, 1, 10, n - 1, n, n + 5}; }

std::vector<float> RandomRow(int n, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> row(static_cast<size_t>(n));
  for (float& v : row) v = static_cast<float>(rng.Normal(0.0, 3.0));
  return row;
}

void ExpectContract(const std::vector<float>& row, const char* what) {
  const int n = static_cast<int>(row.size());
  for (const int k : EdgeKs(n)) {
    EXPECT_EQ(SelectTopK(row.data(), n, k), ReferenceTopK(row, k))
        << what << ", n=" << n << ", k=" << k;
  }
}

TEST(SelectTopKTest, RandomRowsMatchFullSort) {
  for (const int n : {1, 2, 7, 64, 257, 2600}) {
    ExpectContract(RandomRow(n, static_cast<uint64_t>(n)), "random");
  }
}

TEST(SelectTopKTest, TiesBreakByAscendingId) {
  for (const int n : {5, 40, 300}) {
    util::Rng rng(static_cast<uint64_t>(n) + 11);
    std::vector<float> row(static_cast<size_t>(n));
    for (float& v : row) v = static_cast<float>(rng.RandInt(0, 3));
    ExpectContract(row, "ties");
  }
  const std::vector<float> flat(50, 1.5f);
  ExpectContract(flat, "all equal");
  std::vector<int32_t> first_ten(10);
  std::iota(first_ten.begin(), first_ten.end(), 0);
  EXPECT_EQ(SelectTopK(flat.data(), 50, 10), first_ten);
}

TEST(SelectTopKTest, SignedZerosAreOneScore) {
  std::vector<float> row = {-0.0f, 0.0f, -1.0f, -0.0f, 0.0f, 2.0f, 0.0f};
  ExpectContract(row, "signed zeros");
  EXPECT_EQ(SelectTopK(row.data(), 7, 4), (std::vector<int32_t>{5, 0, 1, 3}));
}

TEST(SelectTopKTest, NaNRanksLast) {
  std::vector<float> row = {kNaN, 1.0f, kNaN, -5.0f, 3.0f, kNaN, 0.0f};
  ExpectContract(row, "nan");
  EXPECT_EQ(SelectTopK(row.data(), 7, 7),
            (std::vector<int32_t>{4, 1, 6, 3, 0, 2, 5}));

  const std::vector<float> all_nan(9, kNaN);
  ExpectContract(all_nan, "all nan");

  // NaNs spread through a long row, including where the buffer fills.
  std::vector<float> mixed = RandomRow(500, 3);
  for (size_t i = 0; i < mixed.size(); i += 7) mixed[i] = kNaN;
  mixed[1] = kNaN;
  ExpectContract(mixed, "mixed nan");
  // Infinities are ordinary scores.
  mixed[20] = std::numeric_limits<float>::infinity();
  mixed[30] = -std::numeric_limits<float>::infinity();
  ExpectContract(mixed, "nan and inf");
}

TEST(SelectTopKTest, DegenerateSizes) {
  const std::vector<float> row = {1.0f, 2.0f};
  EXPECT_TRUE(SelectTopK(row.data(), 2, -3).empty());
  EXPECT_TRUE(SelectTopK(row.data(), 0, 5).empty());
  EXPECT_TRUE(SelectTopK(nullptr, 0, 0).empty());
}

TEST(SelectTopKTest, TieFreeRowsMatchThePartialSortRanking) {
  for (const int n : {1, 3, 10, 100, 2600}) {
    // Distinct scores: a shuffled ramp, so no two entries compare equal.
    std::vector<float> row(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) row[static_cast<size_t>(i)] = 0.25f * i - 7.0f;
    util::Rng rng(static_cast<uint64_t>(n) * 31);
    rng.Shuffle(row);
    for (const int k : EdgeKs(n)) {
      EXPECT_EQ(SelectTopK(row.data(), n, k), PartialSortTopK(row.data(), n, k))
          << "n=" << n << ", k=" << k;
    }
    const std::vector<float> random = RandomRow(n, static_cast<uint64_t>(n) + 5);
    EXPECT_EQ(SelectTopK(random.data(), n, 10),
              PartialSortTopK(random.data(), n, 10))
        << "n=" << n;
  }
}

// --- the raw-row projection the neural sessions score with ---

std::vector<const kernels::KernelTable*> AllTables() {
  std::vector<const kernels::KernelTable*> tables = {&kernels::ScalarTable(),
                                                     &kernels::GenericTable()};
  if (const kernels::KernelTable* avx2 = kernels::Avx2Table()) {
    tables.push_back(avx2);
  }
  if (const kernels::KernelTable* avx512 = kernels::Avx512Table()) {
    tables.push_back(avx512);
  }
  return tables;
}

class DispatchOverride {
 public:
  explicit DispatchOverride(const kernels::KernelTable* table) {
    kernels::SetDispatchOverride(table);
  }
  ~DispatchOverride() { kernels::SetDispatchOverride(nullptr); }
};

TEST(LinearForwardRowTest, BitwiseLinearForwardUnderEveryTable) {
  // The serving shape (hidden 24 x a 2,600-POI catalogue), a wider one
  // (hidden 64) and an odd small one.
  const int shapes[][2] = {{24, 2600}, {64, 2600}, {13, 37}};
  for (const kernels::KernelTable* table : AllTables()) {
    const DispatchOverride dispatch(table);
    for (const auto& shape : shapes) {
      const int in = shape[0], out = shape[1];
      util::Rng rng(static_cast<uint64_t>(in * out));
      const nn::Linear layer(in, out, rng);
      std::vector<float> x = RandomRow(in, static_cast<uint64_t>(out));
      x[0] = 0.0f;  // The matmul kernel's exact-zero skip is exercised too.
      for (const bool inference : {true, false}) {
        tensor::Tensor expected;
        if (inference) {
          const tensor::InferenceModeScope scope;
          expected = layer.Forward(tensor::Tensor::FromData({1, in}, x));
        } else {
          expected = layer.Forward(tensor::Tensor::FromData({1, in}, x));
        }
        std::vector<float> row(static_cast<size_t>(out), kNaN);
        layer.ForwardRow(x.data(), row.data());
        ASSERT_EQ(std::memcmp(row.data(), expected.data(),
                              row.size() * sizeof(float)),
                  0)
            << table->name << " [" << in << "x" << out << "]"
            << (inference ? " inference" : " graph");
      }
    }
  }
}

}  // namespace
}  // namespace pa::rec
