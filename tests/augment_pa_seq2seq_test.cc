#include "augment/pa_seq2seq.h"

#include <limits>
#include <stdexcept>

#include <gtest/gtest.h>

#include "augment/imputation_eval.h"
#include "poi/synthetic.h"
#include "util/rng.h"

namespace pa::augment {
namespace {

constexpr int64_t kHour = 3600;

// A tiny world: 6 POIs around a point; every user deterministically cycles
// 0 -> 1 -> 2 -> 0 -> ... every 3 hours.
poi::PoiTable CyclePois() {
  std::vector<geo::LatLng> coords;
  for (int i = 0; i < 6; ++i) {
    coords.push_back({40.0 + 0.01 * i, -100.0 + 0.005 * i});
  }
  return poi::PoiTable(std::move(coords));
}

std::vector<poi::CheckinSequence> CycleTrainingData(int users, int length) {
  std::vector<poi::CheckinSequence> train(users);
  for (int u = 0; u < users; ++u) {
    for (int i = 0; i < length; ++i) {
      train[u].push_back({u, i % 3, i * 3 * kHour, false});
    }
  }
  return train;
}

PaSeq2SeqConfig FastConfig() {
  PaSeq2SeqConfig config;
  config.embedding_dim = 8;
  config.hidden_dim = 8;
  config.stage1_epochs = 1;
  config.stage2_epochs = 1;
  config.stage3_epochs = 6;
  config.candidate_radius_km = 0.0;  // Tiny vocab; no restriction needed.
  config.seed = 5;
  return config;
}

TEST(PaSeq2SeqTest, MissingTokenIsVocabEnd) {
  poi::PoiTable pois = CyclePois();
  PaSeq2Seq model(pois, FastConfig());
  EXPECT_EQ(model.missing_token(), 6);
}

TEST(PaSeq2SeqTest, ParameterCountPositiveAndStable) {
  poi::PoiTable pois = CyclePois();
  PaSeq2Seq model(pois, FastConfig());
  EXPECT_GT(model.NumParameters(), 1000);
  EXPECT_EQ(static_cast<int64_t>(model.Parameters().size() > 0), 1);
}

TEST(PaSeq2SeqTest, TrainingLossDecreasesWithinStages) {
  poi::PoiTable pois = CyclePois();
  PaSeq2SeqConfig config = FastConfig();
  config.stage3_epochs = 8;
  PaSeq2Seq model(pois, config);
  model.Fit(CycleTrainingData(4, 60));
  const auto& stats = model.train_stats();
  ASSERT_EQ(stats.stage1.size(), 1u);
  ASSERT_EQ(stats.stage2.size(), 1u);
  ASSERT_EQ(stats.stage3.size(), 8u);
  // Mask training must make clear progress on a deterministic pattern.
  EXPECT_LT(stats.stage3.back(), stats.stage3.front());
  EXPECT_LT(stats.stage3.back(), 1.0f);  // Far below ln(6) ≈ 1.79 uniform.
}

TEST(PaSeq2SeqTest, ImputesDeterministicCycleAccurately) {
  poi::PoiTable pois = CyclePois();
  PaSeq2SeqConfig config = FastConfig();
  config.stage3_epochs = 10;
  PaSeq2Seq model(pois, config);
  model.Fit(CycleTrainingData(4, 60));

  // Observed: cycle with every third check-in dropped (a 6-hour gap).
  poi::CheckinSequence observed;
  std::vector<int32_t> truth_missing;
  for (int i = 0; i < 30; ++i) {
    if (i % 3 == 2 && i + 1 < 30) {
      truth_missing.push_back(i % 3 == 2 ? 2 : i % 3);
      continue;  // Dropped.
    }
    observed.push_back({0, i % 3, i * 3 * kHour, false});
  }
  MaskedSequence masked = MakeMaskedSequence(observed, 3 * kHour);
  ASSERT_EQ(static_cast<size_t>(poi::CountMissing(masked.timeline)),
            truth_missing.size());
  auto imputed = model.Impute(masked);
  int correct = 0;
  for (size_t i = 0; i < imputed.size(); ++i) {
    if (imputed[i] == truth_missing[i]) ++correct;
  }
  // The pattern is fully determined; a trained model should recover most.
  EXPECT_GT(static_cast<double>(correct) / imputed.size(), 0.7);
}

TEST(PaSeq2SeqTest, ImputeReturnsOneValuePerMissingSlot) {
  poi::PoiTable pois = CyclePois();
  PaSeq2Seq model(pois, FastConfig());  // Untrained is fine for the contract.
  poi::CheckinSequence observed = {{0, 0, 0, false},
                                   {0, 1, 9 * kHour, false},
                                   {0, 2, 12 * kHour, false},
                                   {0, 0, 24 * kHour, false}};
  MaskedSequence masked = MakeMaskedSequence(observed, 3 * kHour);
  auto imputed = model.Impute(masked);
  EXPECT_EQ(static_cast<int>(imputed.size()),
            poi::CountMissing(masked.timeline));
  for (int32_t poi_id : imputed) {
    EXPECT_GE(poi_id, 0);
    EXPECT_LT(poi_id, pois.size());  // Never the missing token.
  }
}

TEST(PaSeq2SeqTest, MissingFirstSlotImputesARealPoi) {
  // Decoding starts at slot 1, so a missing first slot is never predicted;
  // its answer must still be a POI id, never the missing token.
  poi::PoiTable pois = CyclePois();
  MaskedSequence masked;
  masked.observed = {{0, 4, 3 * kHour, false}, {0, 2, 9 * kHour, false}};
  masked.timeline = {{0, -1}, {3 * kHour, 0}, {6 * kHour, -1},
                     {9 * kHour, 1}};
  for (double radius_km : {0.0, 20.0}) {
    PaSeq2SeqConfig config = FastConfig();
    config.candidate_radius_km = radius_km;
    PaSeq2Seq model(pois, config);
    const std::vector<int32_t> imputed = model.Impute(masked);
    ASSERT_EQ(imputed.size(), 2u);
    for (int32_t poi_id : imputed) {
      EXPECT_GE(poi_id, 0) << "radius " << radius_km;
      EXPECT_LT(poi_id, pois.size()) << "radius " << radius_km;
    }
  }
}

TEST(PaSeq2SeqTest, SingleMissingSlotTimelineImputesARealPoi) {
  // A one-slot timeline is too short to decode; its slot gets the fallback
  // (the first observed POI, else 0), with or without an observed check-in
  // and whatever the candidate radius.
  poi::PoiTable pois = CyclePois();
  for (const poi::CheckinSequence& observed :
       {poi::CheckinSequence{}, poi::CheckinSequence{{0, 4, 0, false}}}) {
    MaskedSequence masked;
    masked.observed = observed;
    masked.timeline = {{3 * kHour, -1}};
    for (double radius_km : {0.0, 20.0}) {
      PaSeq2SeqConfig config = FastConfig();
      config.candidate_radius_km = radius_km;
      PaSeq2Seq model(pois, config);
      const std::vector<int32_t> imputed = model.Impute(masked);
      ASSERT_EQ(imputed.size(), 1u);
      EXPECT_GE(imputed[0], 0) << "radius " << radius_km;
      EXPECT_LT(imputed[0], pois.size()) << "radius " << radius_km;
    }
  }
}

TEST(PaSeq2SeqTest, OutOfRangeTokenIsATypedError) {
  // The decode checks every token against the embedding table and reports
  // a bad one as std::out_of_range. A one-check-in history at radius 0
  // reaches the check without any coordinate lookup.
  poi::PoiTable pois = CyclePois();
  PaSeq2Seq model(pois, FastConfig());
  for (int32_t bad : {-1, 7, 1000}) {  // 6 is the missing-check-in token.
    EXPECT_THROW(model.RankNext({{0, bad, 0, false}}, 3 * kHour, 3),
                 std::out_of_range)
        << bad;
  }

  // At 15 km, two check-ins with one outside the table: the check runs
  // before the Δd features and the radius queries read any coordinate. POI
  // 6 is the missing-check-in token, which the embedding check accepts.
  PaSeq2SeqConfig config = FastConfig();
  config.candidate_radius_km = 15.0;
  PaSeq2Seq local(pois, config);
  for (int32_t bad : {-1, 6, 7, 1000}) {
    for (const poi::CheckinSequence& observed :
         {poi::CheckinSequence{{0, 0, 0, false}, {0, bad, 9 * kHour, false}},
          poi::CheckinSequence{{0, bad, 0, false}, {0, 0, 9 * kHour, false}}}) {
      EXPECT_THROW(local.Impute(MakeMaskedSequence(observed, 3 * kHour)),
                   std::out_of_range)
          << bad;
      EXPECT_THROW(local.RankNext(observed, 12 * kHour, 3), std::out_of_range)
          << bad;
    }
  }
}

TEST(PaSeq2SeqTest, EmptyCandidateSetScoresTheWholeCatalogue) {
  // A NaN radius meets no POI, so every candidate set is empty and each
  // slot scores the whole catalogue, as at radius 0 (which queries
  // nothing), even though every gap has its brackets. A radius that meets
  // every POI scores each of them too, through the packed projection.
  poi::PoiTable pois = CyclePois();
  poi::CheckinSequence observed = {{0, 0, 0, false},
                                   {0, 1, 9 * kHour, false},
                                   {0, 5, 12 * kHour, false},
                                   {0, 3, 24 * kHour, false}};
  const MaskedSequence masked = MakeMaskedSequence(observed, 3 * kHour);
  auto impute_at = [&](double radius_km) {
    PaSeq2SeqConfig config = FastConfig();
    config.candidate_radius_km = radius_km;
    return PaSeq2Seq(pois, config).Impute(masked);
  };
  const std::vector<int32_t> whole = impute_at(0.0);
  ASSERT_EQ(static_cast<int>(whole.size()), poi::CountMissing(masked.timeline));
  // The fallback (the first observed POI) must not explain the answer.
  EXPECT_NE(whole, std::vector<int32_t>(whole.size(), observed[0].poi));
  EXPECT_EQ(impute_at(std::numeric_limits<double>::quiet_NaN()), whole);
  EXPECT_EQ(impute_at(-1.0), whole);
  EXPECT_EQ(impute_at(std::numeric_limits<double>::infinity()), whole);
}

TEST(PaSeq2SeqTest, CandidateRestrictionKeepsImputationsLocal) {
  // Two far-apart clusters; all observations in cluster A. With the
  // localized-candidate radius on, imputations must stay in cluster A.
  std::vector<geo::LatLng> coords;
  for (int i = 0; i < 5; ++i) coords.push_back({40.0 + 0.01 * i, -100.0});
  for (int i = 0; i < 5; ++i) coords.push_back({45.0 + 0.01 * i, -90.0});
  poi::PoiTable pois{std::move(coords)};
  PaSeq2SeqConfig config = FastConfig();
  config.candidate_radius_km = 20.0;
  config.stage3_epochs = 2;
  PaSeq2Seq model(pois, config);
  std::vector<poi::CheckinSequence> train(2);
  for (int i = 0; i < 40; ++i) {
    train[0].push_back({0, i % 5, i * 3 * kHour, false});
    train[1].push_back({1, 5 + i % 5, i * 3 * kHour, false});
  }
  model.Fit(train);
  poi::CheckinSequence observed = {{0, 0, 0, false},
                                   {0, 1, 9 * kHour, false}};
  auto imputed = model.Impute(MakeMaskedSequence(observed, 3 * kHour));
  ASSERT_EQ(imputed.size(), 2u);  // round(9h / 3h) - 1 missing slots.
  for (int32_t p_id : imputed) EXPECT_LT(p_id, 5);  // Cluster A only.
}

TEST(PaSeq2SeqTest, EmptyTimelineImputesNothing) {
  poi::PoiTable pois = CyclePois();
  PaSeq2Seq model(pois, FastConfig());
  poi::CheckinSequence dense = {{0, 0, 0, false}, {0, 1, 3 * kHour, false}};
  auto imputed = model.Impute(MakeMaskedSequence(dense, 3 * kHour));
  EXPECT_TRUE(imputed.empty());
}

TEST(PaSeq2SeqTest, AblationConfigsStillTrain) {
  poi::PoiTable pois = CyclePois();
  for (const auto& [residual, attention] :
       std::vector<std::pair<bool, bool>>{{false, true}, {true, false},
                                          {false, false}}) {
    PaSeq2SeqConfig config = FastConfig();
    config.use_residual = residual;
    config.use_attention = attention;
    config.stage3_epochs = 3;
    PaSeq2Seq model(pois, config);
    model.Fit(CycleTrainingData(2, 40));
    EXPECT_EQ(model.train_stats().stage3.size(), 3u);
    EXPECT_GT(model.train_stats().stage3.back(), 0.0f);
  }
}

TEST(PaSeq2SeqTest, FitOnEmptyDataIsNoOp) {
  poi::PoiTable pois = CyclePois();
  PaSeq2Seq model(pois, FastConfig());
  model.Fit({});
  EXPECT_TRUE(model.train_stats().stage1.empty());
}

TEST(ImputationEvalTest, OracleScoresPerfect) {
  // An augmenter that reads the ground truth must get accuracy 1.0.
  util::Rng rng(3);
  poi::LbsnProfile profile = poi::GowallaProfile();
  profile.num_users = 4;
  profile.num_pois = 60;
  profile.min_visits = 30;
  profile.max_visits = 40;
  poi::SyntheticLbsn lbsn = poi::GenerateLbsn(profile, rng);

  class Oracle : public Augmenter {
   public:
    explicit Oracle(const poi::SyntheticLbsn& lbsn) : lbsn_(lbsn) {}
    std::string name() const override { return "Oracle"; }
    std::vector<int32_t> Impute(const MaskedSequence& masked) const override {
      std::vector<int32_t> out;
      const auto& visits = lbsn_.true_visits[masked.user];
      for (size_t i = 0; i < masked.timeline.size(); ++i) {
        if (masked.timeline[i].missing()) out.push_back(visits[i].poi);
      }
      return out;
    }

   private:
    const poi::SyntheticLbsn& lbsn_;
  };

  Oracle oracle(lbsn);
  ImputationMetrics metrics = EvaluateImputation(oracle, lbsn);
  EXPECT_GT(metrics.num_tasks, 0);
  EXPECT_DOUBLE_EQ(metrics.accuracy, 1.0);
  EXPECT_DOUBLE_EQ(metrics.mean_error_km, 0.0);
}

TEST(ImputationEvalTest, ConstantWrongAugmenterScoresPoorly) {
  util::Rng rng(4);
  poi::LbsnProfile profile = poi::GowallaProfile();
  profile.num_users = 4;
  profile.num_pois = 60;
  profile.min_visits = 30;
  profile.max_visits = 40;
  poi::SyntheticLbsn lbsn = poi::GenerateLbsn(profile, rng);

  class Constant : public Augmenter {
   public:
    std::string name() const override { return "Constant"; }
    std::vector<int32_t> Impute(const MaskedSequence& masked) const override {
      return std::vector<int32_t>(
          static_cast<size_t>(poi::CountMissing(masked.timeline)), 0);
    }
  };
  Constant constant;
  ImputationMetrics metrics = EvaluateImputation(constant, lbsn);
  EXPECT_LT(metrics.accuracy, 0.2);
  EXPECT_FALSE(metrics.ToString().empty());
}

}  // namespace
}  // namespace pa::augment
