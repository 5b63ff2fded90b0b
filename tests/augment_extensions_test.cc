// Tests for the PA-Seq2Seq extensions: checkpointing.

#include <gtest/gtest.h>

#include "augment/pa_seq2seq.h"

namespace pa::augment {
namespace {

constexpr int64_t kHour = 3600;

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
  config.stage3_epochs = 8;
  config.candidate_radius_km = 0.0;
  config.seed = 5;
  return config;
}

MaskedSequence DroppedCycle() {
  poi::CheckinSequence observed;
  for (int i = 0; i < 24; ++i) {
    if (i % 3 == 2 && i + 1 < 24) continue;  // Drop every POI-2 visit.
    observed.push_back({0, i % 3, i * 3 * kHour, false});
  }
  return MakeMaskedSequence(observed, 3 * kHour);
}

TEST(CheckpointTest, SaveLoadRoundTripPreservesBehaviour) {
  poi::PoiTable pois = CyclePois();
  PaSeq2SeqConfig config = FastConfig();
  config.stage3_epochs = 6;
  PaSeq2Seq trained(pois, config);
  trained.Fit(CycleTrainingData(3, 50));

  const std::string path = ::testing::TempDir() + "/pa_seq2seq.ckpt";
  ASSERT_TRUE(trained.SaveToFile(path));

  PaSeq2Seq restored(pois, config);  // Fresh random weights.
  ASSERT_TRUE(restored.LoadFromFile(path));

  MaskedSequence masked = DroppedCycle();
  // Zoneout evaluation path is deterministic, so both must agree exactly.
  EXPECT_EQ(trained.Impute(masked), restored.Impute(masked));
}

TEST(CheckpointTest, LoadRejectsMismatchedArchitecture) {
  poi::PoiTable pois = CyclePois();
  PaSeq2SeqConfig config = FastConfig();
  PaSeq2Seq small(pois, config);
  const std::string path = ::testing::TempDir() + "/pa_small.ckpt";
  ASSERT_TRUE(small.SaveToFile(path));
  config.hidden_dim = 12;
  PaSeq2Seq bigger(pois, config);
  EXPECT_FALSE(bigger.LoadFromFile(path));
}

}  // namespace
}  // namespace pa::augment
