// Training golden test: fits the LSTM recommender and PA-Seq2Seq on a tiny
// seeded snapshot and compares an FNV-1a hash of every trained parameter
// with committed constants. Any change to the numerics of training (the
// forward kernels, a backward closure, the graph walk's visit order, the
// optimizer, the mini-batch merge) moves a hash and fails here, so a change
// that claims to keep training bit for bit has to prove it. The fitted
// PA-Seq2Seq then imputes every user's ground-truth masked timeline, and
// those POI ids are pinned the same way: a change
// to decoding or to the localized-region candidate sets fails here too.
// Those argmaxes see only the logits of a 2 km candidate set, so the same
// parameters also rank each user's next POI with `RankNext` (the top 10 at
// 2 km, and every POI with no restriction) and impute with no restriction:
// a top-10 list depends on every logit that could enter it, a full ranking
// on the order of all of them, and an unrestricted argmax on every logit
// of the row.
//
// There is one set of constants for the scalar table and one for the SIMD
// tables, which share every bit (kernels.h). The test selects each table
// itself through SetDispatchOverride, so it needs no PA_SIMD setting, and
// it runs every fit at pool sizes 1 and 4: the result must not depend on
// the thread count.
//
// The constants were generated with gcc 12.2 and glibc 2.36 on x86-64. The
// scalar table calls libm's expf, and another compiler may order or
// contract the float code differently, so another toolchain may
// legitimately produce other hashes. Report such a difference; never
// replace a hash with a tolerance.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "augment/imputation_eval.h"
#include "augment/pa_seq2seq.h"
#include "poi/synthetic.h"
#include "rec/neural_recommender.h"
#include "tensor/kernels/kernels.h"
#include "tensor/tensor.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace pa {
namespace {

struct GoldenHashes {
  uint64_t lstm_recommender;
  uint64_t pa_seq2seq;
  uint64_t pa_seq2seq_batch4;
  uint64_t impute;  // Of the batch_size 1 fit.
  // Of the batch_size 1 fit's parameters: RankNext's top 10 at 2 km, its
  // ranking of every POI with no candidate restriction, and Impute with no
  // candidate restriction.
  uint64_t rank_next;
  uint64_t rank_next_all;
  uint64_t impute_all;
};

constexpr GoldenHashes kScalarGolden = {
    0xe612586d2006dea4ull, 0x231ac1674bac10ecull, 0x42a132280352671dull,
    0x51a0610845ca85f9ull, 0x2e1cc7e583bb3f02ull, 0x3b23e2b4a9ba883dull,
    0xef6ef95406c79758ull};
constexpr GoldenHashes kSimdGolden = {
    0xbb4b68bfc26c633aull, 0xd6c4f3790adffe9aull, 0xd73139c3db531c93ull,
    0x51a0610845ca85f9ull, 0x2e1cc7e583bb3f02ull, 0xfe7a701664cdf865ull,
    0xef6ef95406c79758ull};

class TrainingGoldenTest : public ::testing::Test {
 protected:
  ~TrainingGoldenTest() override {
    tensor::kernels::SetDispatchOverride(nullptr);
    util::SetThreadCount(0);
  }
};

uint64_t Fnv1a(const void* data, size_t size, uint64_t hash) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// 2,100 POIs put both output projections ([1, 32] x [32, 2100]) above the
// 65,536 multiply-adds at which MatMul once tiled across the pool, so these
// constants also pin that removing the tiling changed no bit.
poi::SyntheticLbsn TinySnapshot() {
  poi::LbsnProfile p = poi::GowallaProfile();
  p.num_users = 12;
  p.num_pois = 2100;
  p.num_cities = 2;
  p.min_visits = 24;
  p.max_visits = 32;
  util::Rng rng(1);
  return poi::GenerateLbsn(p, rng);
}

// The serialized model: a header, then every parameter in Fit's order.
uint64_t FitLstmRecommender(const poi::SyntheticLbsn& lbsn) {
  rec::NeuralRecConfig config;
  config.cell = rec::NeuralRecConfig::Cell::kLstm;
  config.embedding_dim = 8;
  config.hidden_dim = 32;
  config.epochs = 2;
  config.max_seq_len = 24;
  rec::NeuralRecommender model(config);
  model.Fit(lbsn.observed.sequences, lbsn.observed.pois);
  std::ostringstream os;
  EXPECT_TRUE(model.Save(os));
  const std::string bytes = os.str();
  return Fnv1a(bytes.data(), bytes.size(), kFnvOffset);
}

struct PaSeq2SeqHashes {
  uint64_t params = kFnvOffset;
  uint64_t impute = kFnvOffset;
  uint64_t rank_next = kFnvOffset;
  uint64_t rank_next_all = kFnvOffset;
  uint64_t impute_all = kFnvOffset;
};

uint64_t HashIds(const std::vector<int32_t>& ids, uint64_t hash) {
  return Fnv1a(ids.data(), sizeof(int32_t) * ids.size(), hash);
}

// Every parameter in Parameters() order, then the POI ids Impute returns
// for each user's ground-truth timeline, and RankNext's top 10 after each
// user's observed sequence. A second model with no candidate radius, given
// the fitted parameters, ranks every POI after the same sequences and
// imputes the same timelines.
PaSeq2SeqHashes FitPaSeq2Seq(const poi::SyntheticLbsn& lbsn, int batch_size) {
  augment::PaSeq2SeqConfig config;
  config.embedding_dim = 8;
  config.hidden_dim = 16;
  config.attention_window = 4;
  config.stage1_epochs = 1;
  config.stage2_epochs = 1;
  config.stage3_epochs = 2;
  config.max_seq_len = 20;
  config.batch_size = batch_size;
  // Fit never reads the candidate radius. Near untrained, the model ranks a
  // city's most popular POI first almost everywhere, so at the default
  // 15 km nearly every imputation is that POI; at 2 km the candidate sets
  // decide most argmaxes, and these hashes pin how the sets are built.
  config.candidate_radius_km = 2.0;
  augment::PaSeq2Seq model(lbsn.observed.pois, config);
  model.Fit(lbsn.observed.sequences);
  PaSeq2SeqHashes hashes;
  for (const tensor::Tensor& p : model.Parameters()) {
    hashes.params = Fnv1a(
        p.data(), sizeof(float) * static_cast<size_t>(p.numel()),
        hashes.params);
  }
  config.candidate_radius_km = 0.0;
  augment::PaSeq2Seq unrestricted(lbsn.observed.pois, config);
  const std::vector<tensor::Tensor> fitted = model.Parameters();
  std::vector<tensor::Tensor> copies = unrestricted.Parameters();
  for (size_t i = 0; i < fitted.size(); ++i) {
    std::copy(fitted[i].data(), fitted[i].data() + fitted[i].numel(),
              copies[i].data());
  }
  for (int32_t u = 0; u < lbsn.observed.num_users(); ++u) {
    const augment::MaskedSequence masked =
        augment::MakeGroundTruthMasked(lbsn, u);
    hashes.impute = HashIds(model.Impute(masked), hashes.impute);
    hashes.impute_all = HashIds(unrestricted.Impute(masked),
                                hashes.impute_all);
    const poi::CheckinSequence& history = lbsn.observed.sequences[u];
    if (history.empty()) continue;
    const int64_t next = history.back().timestamp + 3 * 3600;
    hashes.rank_next =
        HashIds(model.RankNext(history, next, 10), hashes.rank_next);
    hashes.rank_next_all = HashIds(
        unrestricted.RankNext(history, next, lbsn.observed.pois.size()),
        hashes.rank_next_all);
  }
  return hashes;
}

void ExpectGolden(const tensor::kernels::KernelTable& table,
                  const GoldenHashes& golden) {
  tensor::kernels::SetDispatchOverride(&table);
  const poi::SyntheticLbsn lbsn = TinySnapshot();
  for (int threads : {1, 4}) {
    util::SetThreadCount(threads);
    const std::string where =
        std::string(table.name) + " at " + std::to_string(threads) +
        " threads: ";
    const uint64_t lstm = FitLstmRecommender(lbsn);
    EXPECT_EQ(lstm, golden.lstm_recommender)
        << where << "LSTM recommender hash " << Hex(lstm);
    const PaSeq2SeqHashes pa = FitPaSeq2Seq(lbsn, 1);
    EXPECT_EQ(pa.params, golden.pa_seq2seq)
        << where << "PA-Seq2Seq hash " << Hex(pa.params);
    EXPECT_EQ(pa.impute, golden.impute)
        << where << "Impute hash " << Hex(pa.impute);
    EXPECT_EQ(pa.rank_next, golden.rank_next)
        << where << "RankNext hash " << Hex(pa.rank_next);
    EXPECT_EQ(pa.rank_next_all, golden.rank_next_all)
        << where << "full RankNext hash " << Hex(pa.rank_next_all);
    EXPECT_EQ(pa.impute_all, golden.impute_all)
        << where << "unrestricted Impute hash " << Hex(pa.impute_all);
    const uint64_t pa4 = FitPaSeq2Seq(lbsn, 4).params;
    EXPECT_EQ(pa4, golden.pa_seq2seq_batch4)
        << where << "PA-Seq2Seq batch_size 4 hash " << Hex(pa4);
  }
}

TEST_F(TrainingGoldenTest, ScalarTableMatchesGoldenHashes) {
  ExpectGolden(tensor::kernels::ScalarTable(), kScalarGolden);
}

TEST_F(TrainingGoldenTest, GenericTableMatchesGoldenHashes) {
  ExpectGolden(tensor::kernels::GenericTable(), kSimdGolden);
}

TEST_F(TrainingGoldenTest, Avx2TableMatchesGoldenHashes) {
  const tensor::kernels::KernelTable* avx2 = tensor::kernels::Avx2Table();
  if (avx2 == nullptr) GTEST_SKIP() << "no AVX2 table on this build or CPU";
  ExpectGolden(*avx2, kSimdGolden);
}

TEST_F(TrainingGoldenTest, Avx512TableMatchesGoldenHashes) {
  const tensor::kernels::KernelTable* avx512 = tensor::kernels::Avx512Table();
  if (avx512 == nullptr) {
    GTEST_SKIP() << "no AVX-512 table on this build or CPU";
  }
  ExpectGolden(*avx512, kSimdGolden);
}

}  // namespace
}  // namespace pa
