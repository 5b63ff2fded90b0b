// The contract of the parallel execution layer: results are bit-identical
// whatever the thread count. Each test runs the same computation with the
// global pool sized 1 and 4 and compares outputs with exact equality — no
// tolerances anywhere in this file, that is the point.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "augment/pa_seq2seq.h"
#include "eval/hr_metric.h"
#include "poi/synthetic.h"
#include "rec/fpmc_lr.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace pa {
namespace {

class ParallelDeterminismTest : public ::testing::Test {
 protected:
  ~ParallelDeterminismTest() override { util::SetThreadCount(0); }
};

poi::LbsnProfile TinyProfile() {
  poi::LbsnProfile p = poi::GowallaProfile();
  p.num_users = 10;
  p.num_pois = 120;
  p.num_cities = 2;
  p.min_visits = 24;
  p.max_visits = 32;
  return p;
}

TEST_F(ParallelDeterminismTest, SyntheticGenerationThreadCountInvariant) {
  util::SetThreadCount(1);
  util::Rng rng1(123);
  poi::SyntheticLbsn a = poi::GenerateLbsn(TinyProfile(), rng1);

  util::SetThreadCount(4);
  util::Rng rng4(123);
  poi::SyntheticLbsn b = poi::GenerateLbsn(TinyProfile(), rng4);

  ASSERT_EQ(a.true_visits.size(), b.true_visits.size());
  for (size_t u = 0; u < a.true_visits.size(); ++u) {
    ASSERT_EQ(a.true_visits[u].size(), b.true_visits[u].size()) << "user " << u;
    for (size_t i = 0; i < a.true_visits[u].size(); ++i) {
      EXPECT_EQ(a.true_visits[u][i].poi, b.true_visits[u][i].poi);
      EXPECT_EQ(a.true_visits[u][i].timestamp, b.true_visits[u][i].timestamp);
    }
    EXPECT_EQ(a.observed_mask[u], b.observed_mask[u]) << "user " << u;
    ASSERT_EQ(a.observed.sequences[u].size(), b.observed.sequences[u].size());
    for (size_t i = 0; i < a.observed.sequences[u].size(); ++i) {
      EXPECT_EQ(a.observed.sequences[u][i].poi, b.observed.sequences[u][i].poi);
    }
  }
}

TEST_F(ParallelDeterminismTest, EvaluateHrThreadCountInvariant) {
  // Fit once (training is sequential for FPMC-LR), then evaluate the same
  // fitted model with a 1-thread and a 4-thread pool. HR@{1,5,10} and the
  // MRR double sum must match exactly — the merge order is user order, not
  // thread order. FPMC-LR also exercises the lazily built region cache and
  // spatial index under concurrent sessions.
  util::SetThreadCount(1);
  util::Rng rng(7);
  poi::SyntheticLbsn lbsn = poi::GenerateLbsn(TinyProfile(), rng);

  std::vector<poi::CheckinSequence> warmup(lbsn.observed.sequences.size());
  std::vector<poi::CheckinSequence> test(lbsn.observed.sequences.size());
  for (size_t u = 0; u < lbsn.observed.sequences.size(); ++u) {
    const auto& seq = lbsn.observed.sequences[u];
    const size_t cut = seq.size() * 4 / 5;
    warmup[u].assign(seq.begin(), seq.begin() + cut);
    test[u].assign(seq.begin() + cut, seq.end());
  }

  rec::FpmcLrConfig config;
  config.epochs = 2;
  rec::FpmcLr model(config);
  model.Fit(warmup, lbsn.observed.pois);

  util::SetThreadCount(1);
  eval::HrResult r1 = eval::EvaluateHr(model, warmup, test);
  eval::HrResult r4a = [&] {
    util::SetThreadCount(4);
    return eval::EvaluateHr(model, warmup, test);
  }();
  // Repeat at 4 threads: also no run-to-run scheduling sensitivity.
  eval::HrResult r4b = eval::EvaluateHr(model, warmup, test);

  EXPECT_GT(r1.num_cases, 0);
  for (const eval::HrResult* r : {&r4a, &r4b}) {
    EXPECT_EQ(r1.num_cases, r->num_cases);
    EXPECT_EQ(r1.hr1, r->hr1);
    EXPECT_EQ(r1.hr5, r->hr5);
    EXPECT_EQ(r1.hr10, r->hr10);
    EXPECT_EQ(r1.mrr10, r->mrr10);
  }
}

std::vector<std::vector<float>> Snapshot(
    const std::vector<tensor::Tensor>& params) {
  std::vector<std::vector<float>> out;
  out.reserve(params.size());
  for (const tensor::Tensor& p : params) {
    out.emplace_back(p.data(), p.data() + p.numel());
  }
  return out;
}

TEST_F(ParallelDeterminismTest, PaSeq2SeqTrainingStepThreadCountInvariant) {
  // One stage-3 epoch of data-parallel (batch_size = 4) mask training:
  // per-item gradients merge in item order, so the updated parameters are
  // bit-identical however many threads carried the items.
  util::SetThreadCount(1);
  util::Rng rng(11);
  poi::SyntheticLbsn lbsn = poi::GenerateLbsn(TinyProfile(), rng);

  augment::PaSeq2SeqConfig config;
  config.embedding_dim = 6;
  config.hidden_dim = 8;
  config.attention_window = 4;
  config.stage1_epochs = 0;
  config.stage2_epochs = 0;
  config.stage3_epochs = 1;
  config.max_seq_len = 16;
  config.batch_size = 4;

  auto train_once = [&](int threads) {
    util::SetThreadCount(threads);
    augment::PaSeq2Seq model(lbsn.observed.pois, config);
    model.Fit(lbsn.observed.sequences);
    return Snapshot(model.Parameters());
  };

  const auto params1 = train_once(1);
  const auto params4 = train_once(4);

  ASSERT_EQ(params1.size(), params4.size());
  for (size_t p = 0; p < params1.size(); ++p) {
    ASSERT_EQ(params1[p].size(), params4[p].size());
    for (size_t j = 0; j < params1[p].size(); ++j) {
      ASSERT_EQ(params1[p][j], params4[p][j])
          << "param " << p << " element " << j;
    }
  }
}

TEST_F(ParallelDeterminismTest, MatMulForwardBackwardThreadCountInvariant) {
  // MatMul runs on the calling thread, so the pool size must not reach it;
  // 64*96*80 ≈ 491k multiply-adds, with gradients flowing to both operands
  // through the dispatched backward kernels.
  const int m = 64, k = 96, n = 80;
  util::Rng rng(3);
  std::vector<float> a_data(static_cast<size_t>(m) * k);
  std::vector<float> b_data(static_cast<size_t>(k) * n);
  for (float& v : a_data) v = static_cast<float>(rng.Normal(0.0, 1.0));
  for (float& v : b_data) v = static_cast<float>(rng.Normal(0.0, 1.0));

  auto run = [&](int threads) {
    util::SetThreadCount(threads);
    tensor::Tensor a = tensor::Tensor::FromData({m, k}, a_data, true);
    tensor::Tensor b = tensor::Tensor::FromData({k, n}, b_data, true);
    tensor::Tensor y = tensor::MatMul(a, b);
    tensor::Tensor loss = tensor::Mean(tensor::Square(y));
    loss.Backward();
    struct Out {
      std::vector<float> y, da, db;
    } out;
    out.y.assign(y.data(), y.data() + y.numel());
    out.da = a.grad_vector();
    out.db = b.grad_vector();
    return out;
  };

  const auto r1 = run(1);
  const auto r4 = run(4);
  EXPECT_EQ(r1.y, r4.y);
  EXPECT_EQ(r1.da, r4.da);
  EXPECT_EQ(r1.db, r4.db);
}

}  // namespace
}  // namespace pa
