#include "rec/neural_recommender.h"

#include <algorithm>
#include <set>
#include <stdexcept>

#include <gtest/gtest.h>

#include "rec/registry.h"

namespace pa::rec {
namespace {

constexpr int64_t kHour = 3600;

poi::PoiTable SmallPois() {
  std::vector<geo::LatLng> coords;
  for (int i = 0; i < 8; ++i) coords.push_back({40.0 + 0.01 * i, -100.0});
  return poi::PoiTable(std::move(coords));
}

// Users share a global deterministic cycle 0 -> 1 -> 2 -> 3 -> 0 ...
std::vector<poi::CheckinSequence> CycleData(int users, int length) {
  std::vector<poi::CheckinSequence> train(users);
  for (int u = 0; u < users; ++u) {
    for (int i = 0; i < length; ++i) {
      train[u].push_back({u, i % 4, i * 3 * kHour, false});
    }
  }
  return train;
}

NeuralRecConfig FastConfig(NeuralRecConfig::Cell cell) {
  NeuralRecConfig config;
  config.cell = cell;
  config.embedding_dim = 8;
  config.hidden_dim = 12;
  config.epochs = 14;
  config.learning_rate = 0.02f;
  return config;
}

class NeuralRecommenderParamTest
    : public ::testing::TestWithParam<NeuralRecConfig::Cell> {};

TEST_P(NeuralRecommenderParamTest, LossDecreases) {
  poi::PoiTable pois = SmallPois();
  NeuralRecommender model(FastConfig(GetParam()));
  model.Fit(CycleData(3, 60), pois);
  const auto& losses = model.epoch_losses();
  ASSERT_EQ(losses.size(), 14u);
  EXPECT_LT(losses.back(), losses.front());
}

TEST_P(NeuralRecommenderParamTest, LearnsGlobalCycle) {
  poi::PoiTable pois = SmallPois();
  NeuralRecommender model(FastConfig(GetParam()));
  auto train = CycleData(3, 60);
  model.Fit(train, pois);

  auto session = model.NewSession(0);
  // Warm up with one cycle, then every next step is determined.
  int hits = 0, cases = 0;
  for (int i = 0; i < 20; ++i) {
    poi::Checkin c{0, i % 4, i * 3 * kHour, false};
    if (i >= 4) {
      auto top = session->TopK(1, c.timestamp);
      ASSERT_EQ(top.size(), 1u);
      if (top[0] == c.poi) ++hits;
      ++cases;
    }
    session->Observe(c);
  }
  EXPECT_GT(static_cast<double>(hits) / cases, 0.85)
      << "cell=" << static_cast<int>(GetParam());
}

TEST_P(NeuralRecommenderParamTest, TopKOrderingContainsNoDuplicates) {
  poi::PoiTable pois = SmallPois();
  NeuralRecommender model(FastConfig(GetParam()));
  model.Fit(CycleData(2, 30), pois);
  auto session = model.NewSession(0);
  session->Observe({0, 0, 0, false});
  auto top = session->TopK(8, 3 * kHour);
  EXPECT_EQ(top.size(), 8u);
  std::set<int32_t> unique(top.begin(), top.end());
  EXPECT_EQ(unique.size(), top.size());
}

// A POI outside the table is refused with a typed error before anything
// reads a row or a coordinate, as the first check-in and after one, and
// leaves the session as it was: its ranking afterwards equals that of a
// session that never saw the bad id.
TEST_P(NeuralRecommenderParamTest, ObserveRefusesPoiOutsideTable) {
  poi::PoiTable pois = SmallPois();
  NeuralRecommender model(FastConfig(GetParam()));
  model.Fit(CycleData(2, 30), pois);
  const poi::Checkin first{0, 1, 0, false};
  const poi::Checkin second{0, 2, 3 * kHour, false};
  const int64_t next_ts = 6 * kHour;
  for (int32_t bad : {-1, pois.size()}) {
    for (bool after_first : {false, true}) {
      auto clean = model.NewSession(0);
      auto session = model.NewSession(0);
      if (after_first) {
        clean->Observe(first);
        session->Observe(first);
      }
      EXPECT_THROW(session->Observe({0, bad, kHour, false}), std::out_of_range)
          << "poi " << bad << (after_first ? " after a check-in" : " first");
      EXPECT_EQ(session->TopK(8, next_ts), clean->TopK(8, next_ts));
      clean->Observe(second);
      session->Observe(second);
      EXPECT_EQ(session->TopK(8, next_ts), clean->TopK(8, next_ts))
          << "poi " << bad << (after_first ? " after a check-in" : " first");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cells, NeuralRecommenderParamTest,
    ::testing::Values(NeuralRecConfig::Cell::kRnn,
                      NeuralRecConfig::Cell::kLstm,
                      NeuralRecConfig::Cell::kGru,
                      NeuralRecConfig::Cell::kStRnn,
                      NeuralRecConfig::Cell::kStClstm),
    [](const ::testing::TestParamInfo<NeuralRecConfig::Cell>& info) {
      switch (info.param) {
        case NeuralRecConfig::Cell::kRnn:
          return std::string("Rnn");
        case NeuralRecConfig::Cell::kLstm:
          return std::string("Lstm");
        case NeuralRecConfig::Cell::kGru:
          return std::string("Gru");
        case NeuralRecConfig::Cell::kStRnn:
          return std::string("StRnn");
        case NeuralRecConfig::Cell::kStClstm:
          return std::string("StClstm");
      }
      return std::string("Unknown");
    });

TEST(RegistryTest, StandardNamesMatchPaperRows) {
  auto names = StandardRecommenderNames();
  ASSERT_EQ(names.size(), 5u);
  EXPECT_EQ(names[0], "FPMC-LR");
  EXPECT_EQ(names[4], "ST-CLSTM");
}

TEST(RegistryTest, FactoryBuildsEveryStandardName) {
  for (const std::string& name : StandardRecommenderNames()) {
    auto rec = MakeRecommender(name);
    ASSERT_NE(rec, nullptr) << name;
    EXPECT_EQ(rec->name(), name);
  }
}

TEST(RegistryTest, GruExtensionAvailableButNotStandard) {
  auto gru = MakeRecommender("GRU");
  ASSERT_NE(gru, nullptr);
  EXPECT_EQ(gru->name(), "GRU");
  const auto names = StandardRecommenderNames();
  EXPECT_EQ(std::count(names.begin(), names.end(), "GRU"), 0);
}

TEST(RegistryTest, UnknownNameReturnsNull) {
  EXPECT_EQ(MakeRecommender("DeepFM"), nullptr);
}

TEST(RegistryTest, EpochScaleNeverDropsBelowOne) {
  auto rec = MakeRecommender("LSTM", 7, 0.0001);
  EXPECT_NE(rec, nullptr);  // Construction succeeds with >= 1 epoch.
}

}  // namespace
}  // namespace pa::rec
