#include "serve/engine.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "rec/registry.h"

namespace pa::serve {
namespace {

constexpr int64_t kHour = 3600;

std::vector<poi::CheckinSequence> CycleData(int users, int length) {
  std::vector<poi::CheckinSequence> train(users);
  for (int u = 0; u < users; ++u) {
    for (int i = 0; i < length; ++i) {
      train[u].push_back({u, i % 4, i * 3 * kHour, false});
    }
  }
  return train;
}

std::shared_ptr<const LoadedModel> FittedModel(const std::string& method,
                                               uint64_t seed = 7) {
  auto loaded = std::make_shared<LoadedModel>();
  std::vector<geo::LatLng> coords;
  for (int i = 0; i < 8; ++i) coords.push_back({40.0 + 0.01 * i, -100.0});
  loaded->pois = std::make_shared<poi::PoiTable>(std::move(coords));
  auto model = rec::MakeRecommender(method, seed, 0.2);
  model->Fit(CycleData(3, 40), *loaded->pois);
  loaded->name = model->name();
  loaded->model = std::move(model);
  return loaded;
}

TEST(EngineTest, TopKMatchesDirectSession) {
  auto model = FittedModel("LSTM");
  Engine engine(model);

  auto direct = model->model->NewSession(0);
  for (int i = 0; i < 6; ++i) {
    const poi::Checkin c{0, i % 4, i * 3 * kHour, false};
    engine.Observe(c);
    direct->Observe(c);
  }
  const int64_t next = 6 * 3 * kHour;
  const TopKResponse response = engine.TopK({0, 10, next});
  ASSERT_EQ(response.status, RequestStatus::kOk);
  EXPECT_EQ(response.pois, direct->TopK(10, next));
  EXPECT_GT(response.latency_micros, 0.0);
}

TEST(EngineTest, ZeroDeadlineFailsEveryRequestWithTypedError) {
  auto model = FittedModel("FPMC-LR");
  EngineConfig config;
  config.deadline_ms = 0;
  Engine engine(model, config);

  const TopKResponse sync = engine.TopK({0, 5, 0});
  EXPECT_EQ(sync.status, RequestStatus::kDeadlineExceeded);
  EXPECT_TRUE(sync.pois.empty());

  EXPECT_EQ(engine.TopK({0, 5, 0}).status, RequestStatus::kDeadlineExceeded);
  EXPECT_EQ(engine.TopK({1, 5, 0}).status, RequestStatus::kDeadlineExceeded);

  const EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.timeouts, 3u);
}

TEST(EngineTest, InvalidKIsATypedError) {
  auto model = FittedModel("FPMC-LR");
  Engine engine(model);
  const TopKResponse response = engine.TopK({0, 0, 0});
  EXPECT_EQ(response.status, RequestStatus::kInvalidArgument);
  EXPECT_TRUE(response.pois.empty());
}

TEST(EngineTest, StatsTrackRequestsAndPercentiles) {
  auto model = FittedModel("FPMC-LR");
  Engine engine(model);
  for (int i = 0; i < 20; ++i) engine.TopK({i % 3, 5, 0});

  const EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.requests, 20u);
  EXPECT_EQ(stats.timeouts, 0u);
  EXPECT_GT(stats.p50_micros, 0.0);
  EXPECT_GE(stats.p95_micros, stats.p50_micros);
  EXPECT_GE(stats.p99_micros, stats.p95_micros);
  EXPECT_EQ(stats.session_misses, 3u);  // Users 0, 1, 2.

  // The JSON view carries the same numbers.
  const std::string json = stats.ToJson();
  EXPECT_NE(json.find("\"requests\":20"), std::string::npos) << json;
  EXPECT_NE(json.find("\"timeouts\":0"), std::string::npos) << json;
}

TEST(EngineTest, SwapModelClearsSessionsAndServesNewModel) {
  auto lstm = FittedModel("LSTM");
  auto fpmc = FittedModel("FPMC-LR");
  Engine engine(lstm);
  EXPECT_EQ(engine.model_name(), "LSTM");
  for (int i = 0; i < 6; ++i) engine.Observe({0, i % 4, i * 3 * kHour, false});
  ASSERT_GT(engine.Stats().live_sessions, 0u);

  engine.SwapModel(fpmc);
  EXPECT_EQ(engine.model_name(), "FPMC-LR");
  EXPECT_EQ(engine.Stats().live_sessions, 0u);

  // Post-swap requests answer from the new model, fresh state.
  auto direct = fpmc->model->NewSession(0);
  const TopKResponse response = engine.TopK({0, 5, 0});
  ASSERT_EQ(response.status, RequestStatus::kOk);
  EXPECT_EQ(response.pois, direct->TopK(5, 0));
}

}  // namespace
}  // namespace pa::serve
