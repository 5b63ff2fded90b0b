#include "serve/session_store.h"

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

/// Builds a small fitted model shared by all tests in this file.
std::shared_ptr<const LoadedModel> FittedModel() {
  auto loaded = std::make_shared<LoadedModel>();
  std::vector<geo::LatLng> coords;
  for (int i = 0; i < 8; ++i) coords.push_back({40.0 + 0.01 * i, -100.0});
  loaded->pois = std::make_shared<poi::PoiTable>(std::move(coords));
  auto model = rec::MakeRecommender("LSTM", 7, 0.2);
  model->Fit(CycleData(3, 40), *loaded->pois);
  loaded->name = model->name();
  loaded->model = std::move(model);
  return loaded;
}

SessionStoreConfig TinyCapacity(size_t sessions) {
  SessionStoreConfig config;
  config.approx_session_bytes = 1024;
  config.memory_cap_bytes = sessions * config.approx_session_bytes;
  return config;
}

TEST(SessionStoreTest, CapacityDerivesFromMemoryCap) {
  auto model = FittedModel();
  SessionStore store(model, TinyCapacity(3));
  EXPECT_EQ(store.capacity(), 3u);

  SessionStoreConfig zero;
  zero.memory_cap_bytes = 0;
  SessionStore at_least_one(model, zero);
  EXPECT_EQ(at_least_one.capacity(), 1u);  // Never zero.
}

TEST(SessionStoreTest, CountsHitsAndMisses) {
  auto model = FittedModel();
  SessionStore store(model, TinyCapacity(8));

  store.Observe({0, 0, 0, false});          // miss (creates user 0)
  store.Observe({0, 1, kHour, false});      // hit
  store.TopK(0, 5, 2 * kHour);              // hit
  store.TopK(1, 5, 0);                      // miss (creates user 1)

  const SessionStoreStats stats = store.Stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.live_sessions, 2u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(SessionStoreTest, EvictsLeastRecentlyUsed) {
  auto model = FittedModel();
  SessionStore store(model, TinyCapacity(2));

  store.TopK(0, 5, 0);  // LRU after the next two.
  store.TopK(1, 5, 0);
  store.TopK(2, 5, 0);  // Evicts user 0.

  SessionStoreStats stats = store.Stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.live_sessions, 2u);

  store.TopK(1, 5, 0);  // Still resident → hit.
  EXPECT_EQ(store.Stats().hits, 1u);
  store.TopK(0, 5, 0);  // Was evicted → miss + rebuild.
  EXPECT_EQ(store.Stats().misses, 4u);
}

TEST(SessionStoreTest, RebuildAfterEvictionMatchesUnevictedSession) {
  auto model = FittedModel();
  // History to replay: user 0 walks one and a half cycles.
  std::vector<poi::Checkin> history;
  for (int i = 0; i < 6; ++i) {
    history.push_back({0, i % 4, i * 3 * kHour, false});
  }

  // Reference: a roomy store that never evicts.
  SessionStore roomy(model, TinyCapacity(8));
  for (const auto& c : history) roomy.Observe(c);

  // Capacity-1 store: user 0's session is evicted by traffic on user 1.
  SessionStore tight(model, TinyCapacity(1));
  for (const auto& c : history) tight.Observe(c);
  tight.TopK(1, 5, 0);  // Evicts user 0.
  ASSERT_GE(tight.Stats().evictions, 1u);

  // The rebuilt session answers identically: history <= max_history, so
  // the replay reconstructs the full state.
  const int64_t next = 6 * 3 * kHour;
  EXPECT_EQ(tight.TopK(0, 5, next), roomy.TopK(0, 5, next));
}

TEST(SessionStoreTest, ClearDropsSessionsAndHistory) {
  auto model = FittedModel();
  SessionStore store(model, TinyCapacity(4));
  store.Observe({0, 1, 0, false});
  store.Observe({0, 2, kHour, false});
  ASSERT_GT(store.Stats().hits, 0u);
  store.Clear(model);

  // The reset zeroes the counters too, like a freshly built store.
  const SessionStoreStats cleared = store.Stats();
  EXPECT_EQ(cleared.live_sessions, 0u);
  EXPECT_EQ(cleared.hits, 0u);
  EXPECT_EQ(cleared.misses, 0u);
  EXPECT_EQ(cleared.evictions, 0u);
  EXPECT_FALSE(store.HasHistory(0));
  // A fresh session after Clear behaves like a brand-new user (history is
  // gone too): identical to a store that never saw the observes.
  SessionStore fresh(model, TinyCapacity(4));
  EXPECT_EQ(store.TopK(0, 5, 2 * kHour), fresh.TopK(0, 5, 2 * kHour));
}

TEST(SessionStoreTest, HistoryIsCappedAtMaxHistory) {
  auto model = FittedModel();
  SessionStoreConfig config = TinyCapacity(1);
  config.max_history = 4;
  SessionStore store(model, config);

  // 12 observes, then eviction + rebuild: only the last 4 replay. Compare
  // with a session fed exactly those last 4 from scratch.
  for (int i = 0; i < 12; ++i) store.Observe({0, i % 4, i * 3 * kHour, false});
  store.TopK(1, 5, 0);  // Evicts user 0.

  SessionStore reference(model, config);
  for (int i = 8; i < 12; ++i) {
    reference.Observe({0, i % 4, i * 3 * kHour, false});
  }

  const int64_t next = 12 * 3 * kHour;
  EXPECT_EQ(store.TopK(0, 5, next), reference.TopK(0, 5, next));
}

}  // namespace
}  // namespace pa::serve
