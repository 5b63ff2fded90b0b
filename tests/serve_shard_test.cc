// The in-process sharded serving layer: consistent-hash ring stability and
// minimal K→K+1 redistribution, per-shard session isolation, typed shed
// responses under overload, zero-downtime cross-shard model flips, and the
// wire boundary: out-of-range request fields and unknown POIs come back as
// typed bad_request replies while the shards keep serving.

#include "net/sharded_engine.h"

#include <atomic>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/ndjson_protocol.h"
#include "rec/registry.h"
#include "serve/json.h"

namespace pa::net {
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

std::shared_ptr<const serve::LoadedModel> FittedModel(
    const std::string& method, uint64_t seed = 7) {
  auto loaded = std::make_shared<serve::LoadedModel>();
  std::vector<geo::LatLng> coords;
  for (int i = 0; i < 8; ++i) coords.push_back({40.0 + 0.01 * i, -100.0});
  loaded->pois = std::make_shared<poi::PoiTable>(std::move(coords));
  auto model = rec::MakeRecommender(method, seed, 0.2);
  model->Fit(CycleData(3, 40), *loaded->pois);
  loaded->name = model->name();
  loaded->model = std::move(model);
  return loaded;
}

TEST(ShardRingTest, AssignmentIsStableAndCoversAllShards) {
  const ShardRing a(4), b(4);
  std::set<int> seen;
  for (int32_t user = 0; user < 5000; ++user) {
    const int shard = a.ShardForUser(user);
    ASSERT_GE(shard, 0);
    ASSERT_LT(shard, 4);
    // Two independently built rings with the same parameters agree: the
    // mapping is a pure function of (num_shards, vnodes), never of
    // construction order or process state.
    EXPECT_EQ(shard, b.ShardForUser(user));
    seen.insert(shard);
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(ShardRingTest, ShardAssignmentIsRoughlyBalanced) {
  const ShardRing ring(4);
  std::vector<int> counts(4, 0);
  const int users = 20000;
  for (int32_t user = 0; user < users; ++user) {
    ++counts[static_cast<size_t>(ring.ShardForUser(user))];
  }
  for (int shard = 0; shard < 4; ++shard) {
    // 64 vnodes/shard keeps every shard within a loose 2x band of fair
    // share — enough that no shard's SessionStore sees pathological load.
    EXPECT_GT(counts[shard], users / 8) << "shard " << shard;
    EXPECT_LT(counts[shard], users / 2) << "shard " << shard;
  }
}

TEST(ShardRingTest, GrowingTheRingMovesFewUsers) {
  const ShardRing before(4), after(5);
  const int users = 20000;
  int moved = 0;
  for (int32_t user = 0; user < users; ++user) {
    if (before.ShardForUser(user) != after.ShardForUser(user)) ++moved;
  }
  // Consistent hashing: growing 4→5 shards should move ~1/5 of the users;
  // modulo hashing would move ~4/5. The bound splits the difference with
  // slack for vnode variance.
  EXPECT_LT(moved, users * 2 / 5);
  EXPECT_GT(moved, 0);
}

TEST(ShardedEngineTest, TopKMatchesDirectSession) {
  auto model = FittedModel("LSTM");
  ShardedEngineConfig config;
  config.num_shards = 2;
  ShardedEngine engine(model, config);

  auto direct = model->model->NewSession(0);
  for (int i = 0; i < 6; ++i) {
    const poi::Checkin c{0, i % 4, i * 3 * kHour, false};
    ASSERT_EQ(engine.Observe(c), serve::RequestStatus::kOk);
    direct->Observe(c);
  }
  const int64_t next = 6 * 3 * kHour;
  const serve::TopKResponse response = engine.TopK({0, 10, next});
  ASSERT_EQ(response.status, serve::RequestStatus::kOk);
  EXPECT_EQ(response.pois, direct->TopK(10, next));
}

TEST(ShardedEngineTest, SessionsLiveOnlyOnTheOwningShard) {
  auto model = FittedModel("FPMC-LR");
  ShardedEngineConfig config;
  config.num_shards = 4;
  ShardedEngine engine(model, config);

  const int users = 32;
  std::vector<int> expected(4, 0);
  for (int32_t user = 0; user < users; ++user) {
    ++expected[static_cast<size_t>(engine.ShardForUser(user))];
    engine.Observe({user, 1, kHour, false});
  }
  uint64_t total = 0;
  for (int shard = 0; shard < 4; ++shard) {
    const ShardStats stats = engine.StatsForShard(shard);
    // Every user's session sits on exactly the ring-assigned shard: the
    // per-shard stores are fully isolated partitions, not caches of a
    // shared pool.
    EXPECT_EQ(stats.engine.live_sessions,
              static_cast<uint64_t>(expected[shard]))
        << "shard " << shard;
    total += stats.engine.live_sessions;
  }
  EXPECT_EQ(total, static_cast<uint64_t>(users));
}

TEST(ShardedEngineTest, StrictTopKOnColdUserReturnsUnknownUser) {
  auto model = FittedModel("FPMC-LR");
  ShardedEngineConfig config;
  config.num_shards = 2;
  ShardedEngine engine(model, config);

  serve::TopKRequest request;
  request.user = 77;
  request.k = 5;
  request.strict = true;
  const serve::TopKResponse response = engine.TopK(request);
  EXPECT_EQ(response.status, serve::RequestStatus::kUnknownUser);
  EXPECT_TRUE(response.pois.empty());
  // A strict miss must not have instantiated a session for the cold user.
  EXPECT_EQ(engine.Stats().engine.live_sessions, 0u);

  // The same request without strict answers from the model prior.
  request.strict = false;
  EXPECT_EQ(engine.TopK(request).status, serve::RequestStatus::kOk);
}

TEST(ShardedEngineTest, OverloadShedsWithTypedStatusAndNothingIsLost) {
  auto model = FittedModel("LSTM");
  ShardedEngineConfig config;
  config.num_shards = 1;
  config.queue_capacity = 2;  // Tiny on purpose: force the shed path.
  ShardedEngine engine(model, config);
  engine.Observe({0, 1, kHour, false});

  // Blast requests far faster than one worker can drain a 2-deep queue:
  // a model forward costs 100s of microseconds, the enqueue costs ~1.
  const int total = 200;
  std::atomic<int> ok{0}, overloaded{0}, other{0}, done{0};
  for (int i = 0; i < total; ++i) {
    serve::TopKRequest request;
    request.user = 0;
    request.k = 5;
    request.next_timestamp = 2 * kHour;
    engine.TopKAsync(request, [&](serve::TopKResponse response) {
      switch (response.status) {
        case serve::RequestStatus::kOk: ok.fetch_add(1); break;
        case serve::RequestStatus::kOverloaded: overloaded.fetch_add(1); break;
        default: other.fetch_add(1); break;
      }
      done.fetch_add(1);
    });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (done.load() < total && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // Exactly one callback per request — shed or served, never silently
  // dropped, never double-fired.
  ASSERT_EQ(done.load(), total);
  EXPECT_EQ(ok.load() + overloaded.load() + other.load(), total);
  EXPECT_GT(overloaded.load(), 0) << "a 2-deep queue must shed under a blast";
  EXPECT_GT(ok.load(), 0) << "admitted requests must still be served";
  EXPECT_EQ(other.load(), 0);

  const ShardStats stats = engine.Stats();
  EXPECT_EQ(stats.shed, static_cast<uint64_t>(overloaded.load()));
  // +1: the warm-up Observe was dispatched through the same queue.
  EXPECT_EQ(stats.dispatched + stats.shed, static_cast<uint64_t>(total) + 1);
}

TEST(ShardedEngineTest, ModelFlipUnderTrafficDropsNothing) {
  // Different methods so the flip is observable through model_name().
  auto before = FittedModel("LSTM");
  auto after = FittedModel("FPMC-LR");
  ShardedEngineConfig config;
  config.num_shards = 2;
  config.queue_capacity = 4096;  // Roomy: this test is about the flip...
  config.deadline_ms = 60'000;   // ...not about shedding or timeouts.
  ShardedEngine engine(before, config);
  ASSERT_EQ(engine.model_name(), before->name);

  std::atomic<bool> running{true};
  std::atomic<int> sent{0}, answered{0}, failed{0};
  std::thread traffic([&] {
    int32_t user = 0;
    while (running.load()) {
      serve::TopKRequest request;
      request.user = user++ % 8;
      request.k = 5;
      request.next_timestamp = 2 * kHour;
      sent.fetch_add(1);
      engine.TopKAsync(request, [&](serve::TopKResponse response) {
        if (response.status == serve::RequestStatus::kOk) {
          answered.fetch_add(1);
        } else {
          failed.fetch_add(1);
        }
      });
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  // Let traffic flow, flip mid-stream, keep flowing.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  engine.SwapModel(after);
  EXPECT_EQ(engine.model_name(), after->name);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  running.store(false);
  traffic.join();

  // Drain: every in-flight callback fires before the engine dies.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (answered.load() + failed.load() < sent.load() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(answered.load() + failed.load(), sent.load());
  // Zero-downtime contract: a flip never drops or fails a request — every
  // request is answered kOk against whichever model owned its moment.
  EXPECT_EQ(failed.load(), 0);
  EXPECT_GT(answered.load(), 0);

  // After the flip the sharded engine serves the new model's rankings.
  auto direct = after->model->NewSession(3);
  const serve::TopKResponse response = engine.TopK({3, 5, 2 * kHour});
  ASSERT_EQ(response.status, serve::RequestStatus::kOk);
  EXPECT_EQ(response.pois, direct->TopK(5, 2 * kHour));
}

TEST(ShardedEngineTest, PerShardMetricsRegisterUnderShardPrefixes) {
  auto model = FittedModel("FPMC-LR");
  ShardedEngineConfig config;
  config.num_shards = 2;
  {
    ShardedEngine engine(model, config);
    engine.Observe({0, 1, kHour, false});
    engine.TopK({0, 5, 2 * kHour});
    const auto snapshot = obs::MetricRegistry::Global().TakeSnapshot();
    for (const char* name :
         {"serve.shard0.requests", "serve.shard1.requests",
          "net.shard0.dispatched", "net.shard1.dispatched",
          "net.shard0.shed", "net.shard1.shed"}) {
      EXPECT_TRUE(snapshot.counters.count(name)) << "missing " << name;
    }
    EXPECT_TRUE(snapshot.gauges.count("net.shard0.queue_depth"));
    EXPECT_TRUE(snapshot.histograms.count("serve.shard0.latency_us"));
  }
  // Destruction unregisters: no dangling instrument pointers remain.
  const auto snapshot = obs::MetricRegistry::Global().TakeSnapshot();
  EXPECT_FALSE(snapshot.counters.count("serve.shard0.requests"));
  EXPECT_FALSE(snapshot.counters.count("net.shard0.dispatched"));
}

TEST(ShardedEngineTest, SingleShardKeepsUnshardedMetricNames) {
  auto model = FittedModel("FPMC-LR");
  ShardedEngineConfig config;
  config.num_shards = 1;
  ShardedEngine engine(model, config);
  engine.Observe({0, 1, kHour, false});
  engine.TopK({0, 5, 2 * kHour});
  const auto snapshot = obs::MetricRegistry::Global().TakeSnapshot();
  // Scrape compatibility: one shard serves under the classic names, so
  // moving the stdin loop behind the router changed no dashboards.
  EXPECT_TRUE(snapshot.counters.count("serve.requests"));
  EXPECT_TRUE(snapshot.histograms.count("serve.latency_us"));
  EXPECT_FALSE(snapshot.counters.count("serve.shard0.requests"));
}

TEST(ShardedEngineTest, ObserveOfUnknownPoiIsRejectedBeforeTheHistory) {
  for (const char* method : {"LSTM", "FPMC-LR", "PRME-G"}) {
    auto model = FittedModel(method);  // An 8-POI table.
    ShardedEngineConfig config;
    config.num_shards = 2;
    ShardedEngine engine(model, config);
    for (const int32_t poi :
         {8, 999999, -1, std::numeric_limits<int32_t>::min()}) {
      EXPECT_EQ(engine.Observe({5, poi, kHour, false}),
                serve::RequestStatus::kInvalidArgument)
          << method << " poi " << poi;
    }
    // Nothing reached the history: the user is still cold.
    const serve::TopKRequest strict{5, 5, 2 * kHour, true};
    EXPECT_EQ(engine.TopK(strict).status, serve::RequestStatus::kUnknownUser)
        << method;
    // And the owning shard keeps serving that user.
    EXPECT_EQ(engine.Observe({5, 7, kHour, false}), serve::RequestStatus::kOk);
    const serve::TopKResponse response = engine.TopK(strict);
    EXPECT_EQ(response.status, serve::RequestStatus::kOk) << method;
    EXPECT_EQ(response.pois.size(), 5u) << method;
  }
}

std::map<std::string, serve::JsonValue> ParseReply(const std::string& line) {
  std::map<std::string, serve::JsonValue> reply;
  std::string error;
  EXPECT_TRUE(serve::ParseFlatObject(line, &reply, &error))
      << error << ": " << line;
  return reply;
}

TEST(NdjsonDispatcherTest, OutOfRangeFieldsAreTypedBadRequests) {
  auto model = FittedModel("LSTM");
  ShardedEngineConfig config;
  config.num_shards = 2;
  ShardedEngine engine(model, config);
  NdjsonDispatcher dispatcher(&engine);

  const char* const bad_lines[] = {
      // A POI the model's table does not hold (this used to abort).
      R"({"op":"observe","user":1,"poi":999999,"timestamp":5})",
      R"({"op":"observe","user":1,"poi":-1,"timestamp":5})",
      // Non-integral, out-of-range or mistyped integer fields.
      R"({"op":"observe","user":1,"poi":1.5,"timestamp":5})",
      R"({"op":"observe","user":2147483648,"poi":1,"timestamp":5})",
      R"({"op":"observe","user":1,"poi":"3","timestamp":5})",
      R"({"op":"observe","user":1,"poi":1,"timestamp":1e300})",
      R"({"op":"observe","user":1,"poi":1,"timestamp":"5"})",
      R"({"op":"observe","poi":1})",
      R"({"op":"topk","user":1e300,"k":5,"timestamp":5,"id":1e300})",
      R"({"op":"topk","user":-2147483649,"k":5})",
      R"({"op":"topk","user":1,"k":1e10})",
      R"({"op":"topk","user":1,"k":0.5})",
      R"({"op":"topk","user":1,"k":0})",
      R"({"op":"topk","user":1,"timestamp":1e17})",
      R"({"op":"topk","user":true})",
      R"({"op":"topk"})",
  };
  for (const char* line : bad_lines) {
    bool quit = true;
    auto reply = ParseReply(dispatcher.HandleLine(line, &quit));
    EXPECT_FALSE(quit);
    EXPECT_FALSE(reply["ok"].boolean) << line;
    EXPECT_EQ(reply["code"].string, "bad_request") << line;
  }

  // The shards are still up and answer the same user.
  bool quit = false;
  auto observed = ParseReply(dispatcher.HandleLine(
      R"({"op":"observe","user":1,"poi":3,"timestamp":5})", &quit));
  EXPECT_TRUE(observed["ok"].boolean);
  const std::string topk = dispatcher.HandleLine(
      R"({"op":"topk","user":1,"k":5,"timestamp":3605,"strict":true})", &quit);
  EXPECT_NE(topk.find("\"ok\":true"), std::string::npos) << topk;
  EXPECT_NE(topk.find("\"pois\":["), std::string::npos) << topk;
}

TEST(NdjsonDispatcherTest, IdsBeyondInt64EchoAsDoubles) {
  auto model = FittedModel("FPMC-LR");
  ShardedEngine engine(model);
  NdjsonDispatcher dispatcher(&engine);
  auto echo = [&dispatcher](const std::string& id) {
    const std::string line =
        dispatcher.HandleLine(R"({"op":"nope","id":)" + id + "}", nullptr);
    EXPECT_EQ(ParseReply(line)["code"].string, "bad_request") << line;
    const size_t at = line.find("\"id\":");
    EXPECT_NE(at, std::string::npos) << line;
    return line.substr(at + 5, line.find_first_of(",}", at) - at - 5);
  };
  EXPECT_EQ(echo("42"), "42");
  EXPECT_EQ(echo("-9223372036854775808"), "-9223372036854775808");
  EXPECT_EQ(echo("2.5"), "2.5");
  // 2^63 and beyond do not fit int64: they come back as the double they
  // parsed to, never as a wrapped integer.
  EXPECT_EQ(echo("9223372036854775808"), "9.2233720368547758e+18");
  EXPECT_EQ(echo("1e300"), "1.0000000000000001e+300");
}

}  // namespace
}  // namespace pa::net
