// serve_warm and serve_churn: the real `pa_serve listen` binary as a child
// process, with this benchmark as its only client.

#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "bench.h"
#include "net/ndjson_protocol.h"
#include "net/sharded_engine.h"
#include "nn/layers.h"
#include "nn/lstm.h"
#include "poi/synthetic.h"
#include "rec/registry.h"
#include "serve/engine.h"
#include "serve/model_store.h"
#include "stats.h"
#include "tensor/init.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace pa;

struct ServeSpec {
  std::string name;
  int users = 0;
  bool churn = false;
  double zipf = 0.0;  // Churn: user activity skew.
};

ServeSpec SpecFor(const std::string& workload) {
  if (workload == "serve_churn") return {"serve_churn", 3000, true, 0.8};
  return {"serve_warm", 200, false, 0.0};
}

// The served LSTM only has to be identical run to run: it is trained
// briefly on the seeded histories of the first kTrainUsers users.
constexpr int kTrainUsers = 40;
constexpr double kTrainEpochsScale = 0.25;  // 2 of the default 8 epochs.
constexpr int kTrainReps = 3;               // train_s is their median.
constexpr int kSetupReps = 3;               // setup_s is their median.
constexpr const char* kModel = "LSTM";
// The SessionStore's default per-user history cap; seeded histories stay
// within it so a rebuilt session equals the live one.
constexpr size_t kMaxHistory = 64;
constexpr double kWarmupSeconds = 0.5;
// throughput_rps is the median over windows of this length.
constexpr double kWindowSeconds = 0.5;

std::string ObserveLine(const poi::Checkin& c) {
  return "{\"op\":\"observe\",\"user\":" + std::to_string(c.user) +
         ",\"poi\":" + std::to_string(c.poi) +
         ",\"timestamp\":" + std::to_string(c.timestamp) + "}";
}

std::string TopKLine(int32_t user, int64_t timestamp) {
  return "{\"op\":\"topk\",\"user\":" + std::to_string(user) +
         ",\"k\":" + std::to_string(kTopK) +
         ",\"timestamp\":" + std::to_string(timestamp) + "}";
}

// Tags carry what a response is checked against: the user, the visit's
// true POI (churn) and whether the request was a topk.
uint64_t Tag(int32_t user, int32_t poi, bool topk) {
  return (static_cast<uint64_t>(user) << 33) |
         (static_cast<uint64_t>(static_cast<uint32_t>(poi)) << 1) |
         (topk ? 1u : 0u);
}
int32_t TagUser(uint64_t tag) { return static_cast<int32_t>(tag >> 33); }
int32_t TagPoi(uint64_t tag) {
  return static_cast<int32_t>((tag >> 1) & 0xffffffffu);
}
bool TagTopK(uint64_t tag) { return (tag & 1u) != 0; }

struct ServeInputs {
  ServeSpec spec;
  uint64_t seed = 0;
  int num_pois = 0;
  std::vector<poi::CheckinSequence> sequences;  // Observed, per user.
  std::vector<poi::CheckinSequence> history;    // Seeded, ≤ kMaxHistory.
  std::vector<poi::Checkin> next;               // The check-in after it.
  // Observe lines per connection. User u's requests always travel on
  // connection u % kConnections, so each user's requests stay in order.
  std::vector<std::vector<std::string>> seed_lines;
  std::string store_dir;
  std::vector<double> train_s;
};

/// Untimed input preparation: data, `train_reps` fits of the served LSTM
/// (all identical) and the published artifact.
bool PrepareInputs(const ServeSpec& spec, const Options& options,
                   int train_reps, ServeInputs* in, Result& result) {
  in->spec = spec;
  in->seed = options.seed;
  poi::LbsnProfile profile = poi::GowallaProfile();
  profile.num_users = spec.users;
  util::Rng rng(options.seed);
  poi::SyntheticLbsn lbsn = poi::GenerateLbsn(profile, rng);
  in->num_pois = lbsn.observed.num_pois();
  in->sequences = std::move(lbsn.observed.sequences);

  in->seed_lines.assign(kConnections, {});
  for (int32_t u = 0; u < spec.users; ++u) {
    const poi::CheckinSequence& seq = in->sequences[u];
    if (seq.size() < 2) {
      result.Fail("user " + std::to_string(u) + " has under 2 check-ins");
      return false;
    }
    const size_t h = std::min(kMaxHistory, seq.size() - 1);
    in->history.emplace_back(seq.begin(), seq.begin() + h);
    in->next.push_back(seq[h]);
    for (const poi::Checkin& c : in->history.back()) {
      in->seed_lines[u % kConnections].push_back(ObserveLine(c));
    }
  }

  const std::vector<poi::CheckinSequence> train(
      in->history.begin(),
      in->history.begin() + std::min(kTrainUsers, spec.users));
  std::unique_ptr<rec::Recommender> model;
  for (int rep = 0; rep < train_reps; ++rep) {
    model = rec::MakeRecommender(kModel, options.seed, kTrainEpochsScale);
    const Clock::time_point t0 = Clock::now();
    model->Fit(train, lbsn.observed.pois);
    in->train_s.push_back(MicrosBetween(t0, Clock::now()) / 1e6);
  }

  in->store_dir = options.work_dir + "/" + spec.name + "-s" +
                  std::to_string(options.seed) + "-p" +
                  std::to_string(getpid());
  std::filesystem::remove_all(in->store_dir);
  serve::ModelStore store(in->store_dir);
  std::string error;
  if (store.Publish(*model, lbsn.observed.pois, &error) < 0) {
    result.Fail("publish: " + error);
    return false;
  }
  return true;
}

/// The request stream, deterministic in the seed and the salt. serve_warm:
/// topks uniform over the users. serve_churn: per visit, a topk followed
/// by an observe of the true check-in, users drawn by Zipf rank.
class Stream {
 public:
  Stream(const ServeInputs& in, uint64_t salt)
      : in_(in), cursor_(in.spec.users, 0), pending_(kConnections) {
    for (int c = 0; c < kConnections; ++c) {
      rngs_.emplace_back(in.seed * 1000003u + salt * 7919u + c);
    }
    for (int32_t u = 0; u < in.spec.users; ++u) {
      warm_lines_.push_back(TopKLine(u, in.next[u].timestamp));
    }
    if (!in.spec.churn) return;
    // Activity rank → user through a seeded permutation, so the heaviest
    // users are not simply the lowest ids. Each connection draws its own
    // users by Zipf rank.
    util::Rng perm_rng(in.seed ^ 0x5eedULL);
    std::vector<int32_t> order(in.spec.users);
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    perm_rng.Shuffle(order);
    users_.assign(kConnections, {});
    for (int32_t u : order) users_[u % kConnections].push_back(u);
    for (const auto& users : users_) samplers_.emplace_back(users.size(),
                                                            in.spec.zipf);
  }

  void Next(int conn, std::string* line, uint64_t* tag) {
    util::Rng& rng = rngs_[conn];
    if (!in_.spec.churn) {
      const int32_t user = rng.RandInt(0, in_.spec.users - 1);
      *line = warm_lines_[user];
      *tag = Tag(user, 0, true);
      return;
    }
    std::optional<poi::Checkin>& pending = pending_[conn];
    if (pending) {
      *line = ObserveLine(*pending);
      *tag = Tag(pending->user, pending->poi, false);
      pending.reset();
      return;
    }
    const int32_t user = users_[conn][samplers_[conn].Sample(rng)];
    pending = NextVisit(user);
    *line = TopKLine(user, pending->timestamp);
    *tag = Tag(user, pending->poi, true);
  }

 private:
  // The user's check-ins after the seeded history, cycling through the
  // whole sequence with timestamps shifted one span per lap.
  poi::Checkin NextVisit(int32_t user) {
    const poi::CheckinSequence& seq = in_.sequences[user];
    const size_t j = in_.history[user].size() + cursor_[user]++;
    const int64_t lap =
        seq.back().timestamp - seq.front().timestamp + 3 * 3600;
    poi::Checkin c = seq[j % seq.size()];
    c.timestamp += static_cast<int64_t>(j / seq.size()) * lap;
    return c;
  }

  const ServeInputs& in_;
  std::vector<size_t> cursor_;
  std::vector<std::optional<poi::Checkin>> pending_;
  std::vector<util::Rng> rngs_;
  std::vector<std::string> warm_lines_;
  std::vector<std::vector<int32_t>> users_;
  std::vector<ZipfSampler> samplers_;
};

/// A running child with its client.
struct Server {
  ServerProcess process;
  WireClient client;
  double setup_s = 0.0;
  double seed_s = 0.0;
};

/// Spawns a child and seeds every history over the wire; times both.
bool StartSeeded(const ServeInputs& in, const std::vector<std::string>& env,
                 const Options& options, Server* server, std::string* error) {
  const Clock::time_point t0 = Clock::now();
  const std::vector<std::string> args = {"--store", in.store_dir,
                                         "--model", kModel,
                                         "--shards", std::to_string(kShards)};
  if (!server->process.Start(options.pa_serve, args, env, 60'000, error)) {
    return false;
  }
  const Clock::time_point t_listen = Clock::now();
  if (!server->client.Connect(server->process.port(), kConnections, error)) {
    return false;
  }
  std::vector<size_t> next(kConnections, 0);
  uint64_t bad = 0;
  const bool ok = server->client.Run(
      kWindow,
      [&](int conn, std::string* line, uint64_t* tag) {
        const auto& lines = in.seed_lines[conn];
        if (next[conn] >= lines.size()) return false;
        *line = lines[next[conn]++];
        *tag = 0;
        return true;
      },
      [&](const WireClient::Response& r) { bad += IsOk(r.line) ? 0 : 1; },
      Clock::time_point::max(), error);
  if (!ok) return false;
  if (bad != 0) {
    *error = std::to_string(bad) + " seeding observes failed";
    return false;
  }
  const Clock::time_point t_seeded = Clock::now();
  server->setup_s = MicrosBetween(t0, t_seeded) / 1e6;
  server->seed_s = MicrosBetween(t_listen, t_seeded) / 1e6;
  return true;
}

/// The server's own counters from the stats op: the aggregate, plus
/// `dispatched` per shard.
struct ServerCounters {
  std::vector<uint64_t> dispatched;
  uint64_t shed = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
};

uint64_t JsonUint(const std::string& text, const std::string& key,
                  size_t from = 0) {
  const size_t at = text.find("\"" + key + "\":", from);
  if (at == std::string::npos) return 0;
  return std::strtoull(text.c_str() + at + key.size() + 3, nullptr, 10);
}

bool ReadCounters(Server& server, ServerCounters* out, std::string* error) {
  std::string r;
  if (!server.client.Call("{\"op\":\"stats\"}", &r, error)) return false;
  if (!IsOk(r)) {
    *error = "stats op failed: " + r;
    return false;
  }
  // "stats" is the aggregate; "per_shard" lists one digest per shard.
  const size_t stats = r.find("\"stats\":");
  out->shed = JsonUint(r, "shed", stats);
  out->hits = JsonUint(r, "session_hits", stats);
  out->misses = JsonUint(r, "session_misses", stats);
  out->evictions = JsonUint(r, "session_evictions", stats);
  out->dispatched.clear();
  for (size_t at = r.find("\"per_shard\":");
       (at = r.find("\"dispatched\":", at)) != std::string::npos; ++at) {
    out->dispatched.push_back(JsonUint(r, "dispatched", at));
  }
  out->pool_hits = JsonUint(r, "tensor.pool.hits");
  out->pool_misses = JsonUint(r, "tensor.pool.misses");
  return true;
}

/// What one closed-loop phase of the stream saw.
struct Phase {
  std::vector<double> rtt_us;
  std::vector<double> window_rps;
  uint64_t sent = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  uint64_t overloaded = 0;
  uint64_t topk = 0;
  uint64_t topk_hits = 0;            // Truth within the top-k.
  std::map<int32_t, bool> user_hit;  // Per user, last response.
};

using Reference = std::vector<std::vector<int32_t>>;

/// Runs the stream for `seconds` over the first `connections` connections,
/// `window` in flight each, checking every response (against `reference`
/// when given). With `span` set and spans enabled, records one span per
/// request, on one track per in-flight slot.
bool RunPhase(const ServeInputs& in, Server& server, Stream& stream,
              double seconds, int connections, int window,
              const Reference* reference, const char* span, Phase* phase,
              std::string* error) {
  Spans& spans = Spans::Global();
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point stop_at =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  std::vector<uint64_t> per_window(
      static_cast<size_t>(std::max(1.0, seconds / kWindowSeconds)), 0);
  std::vector<int32_t> pois;
  const bool ok = server.client.Run(
      window,
      [&](int conn, std::string* line, uint64_t* tag) {
        if (conn >= connections) return false;
        ++phase->sent;
        stream.Next(conn, line, tag);
        return true;
      },
      [&](const WireClient::Response& r) {
        phase->rtt_us.push_back(MicrosBetween(r.sent, r.received));
        if (span != nullptr) {
          spans.Record(span, r.sent, r.received, 1 + r.conn * window + r.slot);
        }
        const size_t w = static_cast<size_t>(
            std::chrono::duration<double>(r.received - t0).count() /
            kWindowSeconds);
        if (w < per_window.size()) ++per_window[w];
        if (!IsOk(r.line)) {
          ++phase->failed;
          if (ErrorCode(r.line) == "overloaded") ++phase->overloaded;
          return;
        }
        if (!TagTopK(r.tag)) return;
        ++phase->topk;
        const int32_t user = TagUser(r.tag);
        // k distinct POI ids of the catalogue.
        bool well_formed = ParseTopKPois(r.line, &pois) &&
                           static_cast<int>(pois.size()) == kTopK;
        for (auto it = pois.begin(); well_formed && it != pois.end(); ++it) {
          well_formed = *it >= 0 && *it < in.num_pois &&
                        std::find(pois.begin(), it, *it) == it;
        }
        if (!well_formed) {
          ++phase->failed;
          return;
        }
        if (reference != nullptr && pois != (*reference)[user]) {
          ++phase->failed;
          ++phase->mismatches;
          return;
        }
        const int32_t truth =
            in.spec.churn ? TagPoi(r.tag) : in.next[user].poi;
        const bool hit =
            std::find(pois.begin(), pois.end(), truth) != pois.end();
        phase->topk_hits += hit ? 1 : 0;
        phase->user_hit[user] = hit;
      },
      stop_at, error);
  for (uint64_t count : per_window) {
    phase->window_rps.push_back(static_cast<double>(count) / kWindowSeconds);
  }
  return ok;
}

/// Top-10 per user from the same artifact and seeded history, in process.
bool BuildReference(const ServeInputs& in, Reference* reference,
                    std::string* error) {
  serve::ModelStore store(in.store_dir);
  serve::LoadedModel loaded;
  if (!store.LoadActive(kModel, &loaded, error)) return false;
  const tensor::InferenceModeScope inference;
  for (int32_t u = 0; u < in.spec.users; ++u) {
    std::unique_ptr<rec::RecSession> session = loaded.model->NewSession(u);
    for (const poi::Checkin& c : in.history[u]) session->Observe(c);
    reference->push_back(session->TopK(kTopK, in.next[u].timestamp));
  }
  return true;
}

// ---------------------------------------------------------------------------
// Per-layer replays (traced run)

/// A captured prefix of the stream, as lines and as structured requests.
struct Replayed {
  std::vector<std::string> lines;
  std::vector<bool> is_topk;
  std::vector<poi::Checkin> checkin;  // Observes; a topk's user and time.
};

Replayed CaptureStream(const ServeInputs& in, size_t n) {
  Stream stream(in, /*salt=*/99);
  Replayed r;
  std::string line;
  uint64_t tag = 0;
  for (size_t i = 0; i < n; ++i) {
    stream.Next(static_cast<int>(i % kConnections), &line, &tag);
    poi::Checkin c;
    c.user = TagUser(tag);
    c.poi = TagPoi(tag);
    c.timestamp = std::strtoll(
        line.c_str() + line.find("\"timestamp\":") + 12, nullptr, 10);
    r.lines.push_back(line);
    r.is_topk.push_back(TagTopK(tag));
    r.checkin.push_back(c);
  }
  return r;
}

/// Seeds a sharded engine's histories without a blocking round trip per
/// check-in: at most `kInFlight` observes are queued at a time, well under
/// one shard's queue capacity, so admission never sheds them.
bool SeedSharded(net::ShardedEngine& engine,
                 const std::vector<poi::CheckinSequence>& histories) {
  constexpr size_t kInFlight = 128;
  std::mutex mu;
  std::condition_variable cv;
  size_t pending = 0;
  bool all_ok = true;
  for (const auto& h : histories) {
    for (const poi::Checkin& c : h) {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return pending < kInFlight; });
        ++pending;
      }
      engine.ObserveAsync(c, [&](serve::RequestStatus status) {
        std::lock_guard<std::mutex> lock(mu);
        all_ok = all_ok && status == serve::RequestStatus::kOk;
        --pending;
        cv.notify_all();
      });
    }
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return pending == 0; });
  return all_ok;
}

serve::TopKRequest TopKRequestFor(const poi::Checkin& c) {
  serve::TopKRequest request;
  request.user = c.user;
  request.k = kTopK;
  request.next_timestamp = c.timestamp;
  return request;
}

struct RttDigest {
  double mean = 0.0;
  double p50 = 0.0;
  size_t samples = 0;
};

RttDigest Digest(const Phase& phase) {
  std::vector<double> sorted = phase.rtt_us;
  std::sort(sorted.begin(), sorted.end());
  return RttDigest{Mean(sorted), Percentile(sorted, 0.5), sorted.size()};
}

/// The traced run over one set of inputs; `seconds` is the length of each
/// loaded phase.
void TraceServe(const ServeInputs& in, const Options& options, double seconds,
                bool auxiliary, Result& result) {
  Spans& spans = Spans::Global();
  std::string error;
  // The default child, and one with per-request tracing switched off.
  Server server, untraced;
  std::vector<double> seed_s;
  bool ok = StartSeeded(in, {}, options, &server, &error);
  seed_s.push_back(server.seed_s);
  ok = ok && StartSeeded(in, {"PA_TRACE_REQUESTS=off"}, options, &untraced,
                         &error);
  seed_s.push_back(untraced.seed_s);

  Stream stream(in, /*salt=*/1), off_stream(in, /*salt=*/1);
  Phase warmup, loaded, no_trace, traced, serial;
  ServerCounters before, after;
  ok = ok &&
       RunPhase(in, server, stream, kWarmupSeconds, kConnections, kWindow,
                nullptr, nullptr, &warmup, &error) &&
       RunPhase(in, untraced, off_stream, kWarmupSeconds, kConnections,
                kWindow, nullptr, nullptr, &warmup, &error) &&
       ReadCounters(server, &before, &error);
  // Loaded phases rotate so that host drift lands on all three alike: the
  // default child, the child without request tracing, and the default
  // child again with a benchmark span around every wire request.
  // CPU each child thread burns over the loaded phases: which of the poll
  // thread and the shard workers saturates first.
  std::map<pid_t, double> busy_s;
  double loaded_s = 0.0;
  for (int round = 0; ok && round < 2; ++round) {
    const auto cpu0 = ThreadCpuSeconds(server.process.pid());
    const Clock::time_point t0 = Clock::now();
    ok = RunPhase(in, server, stream, seconds / 2, kConnections, kWindow,
                  nullptr, nullptr, &loaded, &error);
    loaded_s += MicrosBetween(t0, Clock::now()) / 1e6;
    for (const auto& [tid, cpu] : ThreadCpuSeconds(server.process.pid())) {
      busy_s[tid] += cpu - (cpu0.count(tid) ? cpu0.at(tid) : 0.0);
    }
    ok = ok && RunPhase(in, untraced, off_stream, seconds / 2, kConnections,
                        kWindow, nullptr, nullptr, &no_trace, &error);
    spans.set_enabled(true);
    ok = ok && RunPhase(in, server, stream, seconds / 2, kConnections,
                        kWindow, nullptr, "wire.request", &traced, &error);
    spans.set_enabled(false);
  }
  ok = ok && ReadCounters(server, &after, &error) &&
       untraced.process.Stop(10'000, &error);
  // Serial: one connection, one request in flight.
  spans.set_enabled(true);
  ok = ok && RunPhase(in, server, stream, seconds / 2, 1, 1, nullptr,
                      "wire.serial", &serial, &error);
  spans.set_enabled(false);
  const double rss = PeakRssMb(server.process.pid());
  ok = ok && server.process.Stop(10'000, &error);
  if (!ok) {
    result.Fail(error);
    return;
  }
  for (const Phase* p : {&loaded, &no_trace, &traced, &serial}) {
    result.attempted += p->sent;
    result.failed += p->failed;
  }

  // In-process replays of one captured stream.
  spans.set_enabled(true);
  const size_t n = auxiliary ? 20'000 : 40'000;
  const Replayed replay = CaptureStream(in, n);
  serve::ModelStore store(in.store_dir);
  std::vector<double> load_s;
  auto model = std::make_shared<serve::LoadedModel>();
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point t0 = Clock::now();
    if (!store.LoadActive(kModel, model.get(), &error)) {
      result.Fail(error);
      return;
    }
    const Clock::time_point t1 = Clock::now();
    spans.Record("serve.ModelStore::LoadActive", t0, t1);
    load_s.push_back(MicrosBetween(t0, t1) / 1e6);
  }

  // Four stacks, each seeded with the same histories: the protocol over a
  // sharded engine, a sharded engine alone, one serve::Engine per shard
  // routed like the server routes (each with its shard's slice of the
  // session budget), and bare sessions that are never evicted.
  net::ShardedEngineConfig sharded_config;
  sharded_config.num_shards = kShards;
  net::ShardedEngine protocol_engine(model, sharded_config);
  net::NdjsonDispatcher dispatcher(&protocol_engine);
  net::ShardedEngine sharded(model, sharded_config);
  const net::ShardRing ring(kShards);
  std::vector<std::unique_ptr<serve::Engine>> engines;
  for (int s = 0; s < kShards; ++s) {
    serve::EngineConfig config;
    config.sessions.memory_cap_bytes /= kShards;
    config.metric_prefix = "perfbench.shard" + std::to_string(s) + ".";
    engines.push_back(std::make_unique<serve::Engine>(model, config));
  }
  auto engine_for = [&](int32_t user) -> serve::Engine& {
    return *engines[ring.ShardForUser(user)];
  };
  if (!SeedSharded(protocol_engine, in.history) ||
      !SeedSharded(sharded, in.history)) {
    result.Fail("seeding an in-process sharded engine shed observes");
    return;
  }
  std::vector<const poi::Checkin*> seeds;
  for (const auto& h : in.history) {
    for (const poi::Checkin& c : h) {
      engine_for(c.user).Observe(c);
      seeds.push_back(&c);
    }
  }
  const tensor::InferenceModeScope inference;
  std::unordered_map<int32_t, std::unique_ptr<rec::RecSession>> sessions;
  for (int32_t u = 0; u < in.spec.users; ++u) {
    sessions[u] = model->model->NewSession(u);
  }
  const double observe_us = ReplayMeanUs(
      "rec.RecSession::Observe", seeds.size(),
      [&](size_t i) { sessions[seeds[i]->user]->Observe(*seeds[i]); });

  // The levels replay the stream in turns of kChunk calls, so that host
  // drift lands on every level alike and their differences stay clean.
  double line_total = 0.0, sharded_total = 0.0, engine_total = 0.0,
         rec_total = 0.0, topk_total = 0.0;
  uint64_t topk_calls = 0;
  constexpr size_t kChunk = 1000;
  for (size_t begin = 0; begin < n; begin += kChunk) {
    const size_t end = std::min(n, begin + kChunk);
    line_total += ReplayUs("net.NdjsonDispatcher::HandleLine", begin, end,
                           [&](size_t i) {
                             bool quit = false;
                             dispatcher.HandleLine(replay.lines[i], &quit);
                           });
    sharded_total += ReplayUs("net.ShardedEngine", begin, end, [&](size_t i) {
      if (replay.is_topk[i]) {
        sharded.TopK(TopKRequestFor(replay.checkin[i]));
      } else {
        sharded.Observe(replay.checkin[i]);
      }
    });
    engine_total += ReplayUs("serve.Engine", begin, end, [&](size_t i) {
      serve::Engine& engine = engine_for(replay.checkin[i].user);
      if (replay.is_topk[i]) {
        engine.TopK(TopKRequestFor(replay.checkin[i]));
      } else {
        engine.Observe(replay.checkin[i]);
      }
    });
    rec_total += ReplayUs("rec.RecSession", begin, end, [&](size_t i) {
      const poi::Checkin& c = replay.checkin[i];
      if (!replay.is_topk[i]) {
        sessions[c.user]->Observe(c);
        return;
      }
      const Clock::time_point t0 = Clock::now();
      sessions[c.user]->TopK(kTopK, c.timestamp);
      topk_total += MicrosBetween(t0, Clock::now());
      ++topk_calls;
    });
  }
  const double line_us = line_total / n, sharded_us = sharded_total / n,
               engine_us = engine_total / n, rec_us = rec_total / n;
  const double topk_us = topk_calls ? topk_total / topk_calls : 0.0;

  // Rebuild: a fresh session replaying the capped history.
  const size_t rebuilds = std::min<size_t>(in.history.size(), 1000);
  const double rebuild_us =
      ReplayMeanUs("rec.rebuild", rebuilds, [&](size_t u) {
        std::unique_ptr<rec::RecSession> s = model->model->NewSession(u);
        for (const poi::Checkin& c : in.history[u]) s->Observe(c);
      });
  // The two nn layers a serving request runs, at serving dims.
  util::Rng rng(in.seed);
  constexpr int kHidden = 24, kEmbedding = 16;
  constexpr size_t kNnCalls = 40'000;
  nn::Linear projection(kHidden, in.num_pois, rng);
  const tensor::Tensor h = tensor::NormalInit({1, kHidden}, 1.0f, rng);
  const double project_us =
      ReplayMeanUs("nn.Linear::Forward[1,24]", kNnCalls,
                   [&](size_t) { projection.Forward(h); });
  nn::LstmCell cell(kEmbedding, kHidden, rng);
  const tensor::Tensor x = tensor::NormalInit({1, kEmbedding}, 1.0f, rng);
  nn::LstmState state = cell.InitialState(1);
  const double lstm_us =
      ReplayMeanUs("nn.LstmCell::Forward", kNnCalls,
                   [&](size_t) { state = cell.Forward(x, state); });
  spans.set_enabled(false);

  const RttDigest l = Digest(loaded), t = Digest(traced), s = Digest(serial),
                  o = Digest(no_trace);
  uint64_t dispatched = 0, dispatched_max = 0;
  for (size_t i = 0; i < after.dispatched.size(); ++i) {
    const uint64_t d = after.dispatched[i] - before.dispatched[i];
    dispatched += d;
    dispatched_max = std::max(dispatched_max, d);
  }
  const uint64_t hits = after.hits - before.hits;
  const uint64_t lookups = hits + after.misses - before.misses;
  result.Add("net.frontend_us", SelfTime(s.mean, line_us), "us", s.samples);
  result.Add("net.wait_us", SelfTime(l.mean, s.mean), "us", l.samples);
  result.Add("net.protocol_us", SelfTime(line_us, sharded_us), "us", n);
  result.Add("net.handoff_us", SelfTime(sharded_us, engine_us), "us", n);
  result.Add("net.shard_skew",
             Ratio(dispatched_max * after.dispatched.size(), dispatched),
             "ratio", dispatched);
  result.Add("net.shed", after.shed - before.shed + loaded.overloaded,
             "count", loaded.sent);
  result.Add("serve.engine_us", SelfTime(engine_us, rec_us), "us", n);
  result.Add("serve.hit_ratio", Ratio(hits, lookups), "ratio", lookups);
  result.Add("serve.evictions", after.evictions - before.evictions, "count",
             lookups);
  result.Add("serve.load_s", Median(load_s), "s", load_s.size());
  result.Add("serve.seed_s", Median(seed_s), "s", seed_s.size());
  result.Add("rec.topk_us", topk_us, "us", topk_calls);
  result.Add("rec.select_us", SelfTime(topk_us, project_us), "us",
             topk_calls);
  result.Add("rec.observe_us", observe_us, "us", seeds.size());
  result.Add("rec.rebuild_us", rebuild_us, "us", rebuilds);
  result.Add("nn.project_us", project_us, "us", kNnCalls);
  result.Add("nn.lstm_step_us", lstm_us, "us", kNnCalls);
  result.Add("obs.request_trace_us", SelfTime(l.mean, o.mean), "us",
             o.samples);
  if (!auxiliary) {
    const uint64_t pool_hits = after.pool_hits - before.pool_hits;
    const uint64_t pool_all =
        pool_hits + after.pool_misses - before.pool_misses;
    result.Add("tensor.pool_hit_ratio", Ratio(pool_hits, pool_all), "ratio",
               pool_all);
    result.Add("obs.bench_overhead", l.p50 > 0 ? t.p50 / l.p50 : 0.0, "ratio",
               t.samples);
    result.notes.push_back("child peak RSS " + std::to_string(rss) + " MB");
  }
  // pa_serve listen starts its shard workers before the poll thread, and
  // thread ids grow in creation order; the first id is the main thread.
  std::string threads = "child CPU share while loaded, by thread:";
  int index = 0;
  for (const auto& [tid, cpu] : busy_s) {
    const char* role = index == 0                ? "main"
                       : index <= kShards        ? "shard worker"
                       : index == kShards + 1    ? "poll thread"
                                                 : "other";
    char share[64];
    std::snprintf(share, sizeof(share), " %s %.2f;", role, cpu / loaded_s);
    threads += share;
    ++index;
  }
  result.notes.push_back(threads);
  char line[320];
  std::snprintf(line, sizeof(line),
                "%s loaded: mean RTT %.1f us, p50 %.1f us (%zu samples); "
                "serial mean RTT %.1f us; replays per call: HandleLine %.2f, "
                "ShardedEngine %.2f, Engine %.2f, RecSession %.2f us",
                in.spec.name.c_str(), l.mean, l.p50, l.samples, s.mean,
                line_us, sharded_us, engine_us, rec_us);
  result.notes.push_back(line);
}

}  // namespace

void TraceServeLayers(const Options& options, bool auxiliary,
                      Result& result) {
  const ServeSpec spec = SpecFor(auxiliary ? "serve_warm" : options.workload);
  ServeInputs in;
  if (!PrepareInputs(spec, options, 1, &in, result)) return;
  TraceServe(in, options, auxiliary ? 1.0 : options.seconds / 2, auxiliary,
             result);
  std::filesystem::remove_all(in.store_dir);
}

Result RunServeWorkload(const Options& options) {
  Result result;
  const ServeSpec spec = SpecFor(options.workload);
  if (options.trace) {
    TraceServeLayers(options, false, result);
    return result;
  }
  ServeInputs in;
  if (!PrepareInputs(spec, options, kTrainReps, &in, result)) return result;
  std::string error;

  // Guard: every serve_warm user must fit its shard's session budget, so
  // the workload never rebuilds a session.
  if (!spec.churn) {
    const serve::SessionStoreConfig defaults;
    const size_t budget = defaults.memory_cap_bytes / kShards /
                          defaults.approx_session_bytes;
    const net::ShardRing ring(kShards);
    std::vector<size_t> owned(kShards, 0);
    for (int32_t u = 0; u < spec.users; ++u) ++owned[ring.ShardForUser(u)];
    std::string line = "users per shard:";
    for (size_t count : owned) line += " " + std::to_string(count);
    result.notes.push_back(line + " (budget " + std::to_string(budget) + ")");
    if (*std::max_element(owned.begin(), owned.end()) > budget) {
      result.Fail("a shard owns more users than its session budget");
      return result;
    }
  }
  Reference reference;
  if (!spec.churn && !BuildReference(in, &reference, &error)) {
    result.Fail(error);
    return result;
  }

  // Set up several times; the last server stays up for the timed phase.
  std::vector<double> setup_s, seed_s;
  auto server = std::make_unique<Server>();
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (rep > 0) {
      if (!server->process.Stop(10'000, &error)) {
        result.Fail(error);
        return result;
      }
      server = std::make_unique<Server>();
    }
    if (!StartSeeded(in, {}, options, server.get(), &error)) {
      result.Fail(error);
      return result;
    }
    setup_s.push_back(server->setup_s);
    seed_s.push_back(server->seed_s);
  }

  Stream stream(in, /*salt=*/1);
  Phase warmup, timed;
  ServerCounters before, after;
  const Reference* ref = spec.churn ? nullptr : &reference;
  if (!RunPhase(in, *server, stream, kWarmupSeconds, kConnections, kWindow,
                ref, nullptr, &warmup, &error) ||
      !ReadCounters(*server, &before, &error) ||
      !RunPhase(in, *server, stream, options.seconds, kConnections, kWindow,
                ref, nullptr, &timed, &error) ||
      !ReadCounters(*server, &after, &error)) {
    result.Fail(error);
    return result;
  }
  const double rss = PeakRssMb(server->process.pid());
  if (!server->process.Stop(10'000, &error)) result.Fail(error);
  std::filesystem::remove_all(in.store_dir);

  result.attempted = timed.sent;
  result.failed = timed.failed;
  if (timed.failed != 0) {
    result.Fail(std::to_string(timed.failed) + " failed responses (" +
                std::to_string(timed.mismatches) + " reference mismatches)");
  }
  const uint64_t hits = after.hits - before.hits;
  const uint64_t misses = after.misses - before.misses;
  const uint64_t shed = after.shed - before.shed + timed.overloaded;
  if (!spec.churn && (misses != 0 || shed != 0)) {
    result.Fail("serve_warm must never rebuild or shed: " +
                std::to_string(misses) + " session misses, " +
                std::to_string(shed) + " shed");
  }
  // serve_warm: each user's top-10 is fixed, so hr10 is per user and
  // repeats exactly at a seed. serve_churn: online HR@10 per topk.
  double hr10 = Ratio(timed.topk_hits, timed.topk);
  if (!spec.churn) {
    uint64_t user_hits = 0;
    for (const auto& [user, hit] : timed.user_hit) user_hits += hit ? 1 : 0;
    hr10 = Ratio(user_hits, timed.user_hit.size());
  }

  std::vector<double> windows = timed.window_rps;
  std::sort(windows.begin(), windows.end());
  result.Add("throughput_rps", Percentile(windows, 0.5), "1/s",
             windows.size());
  AddLatency(result, timed.rtt_us, "client round trip");
  result.Add("success_ratio", Ratio(timed.sent - timed.failed, timed.sent),
             "ratio", timed.sent);
  result.Add("setup_s", Median(setup_s), "s", setup_s.size());
  result.Add("peak_rss_mb", rss, "MB", 1);
  result.Add("train_s", Median(in.train_s), "s", in.train_s.size());
  result.Info("hr10", hr10, "ratio",
              spec.churn ? timed.topk : timed.user_hit.size());

  char line[256];
  std::snprintf(line, sizeof(line),
                "throughput over %zu windows of %.1f s: min %.0f, quartiles "
                "%.0f / %.0f / %.0f, max %.0f 1/s",
                windows.size(), kWindowSeconds, windows.front(),
                Percentile(windows, 0.25), Percentile(windows, 0.5),
                Percentile(windows, 0.75), windows.back());
  result.notes.push_back(line);
  std::snprintf(line, sizeof(line),
                "timed phase: %llu requests, %llu topk; session hit ratio "
                "%.4f (%llu misses, %llu evictions); shed %llu; seed_s %.3f",
                static_cast<unsigned long long>(timed.sent),
                static_cast<unsigned long long>(timed.topk),
                Ratio(hits, hits + misses),
                static_cast<unsigned long long>(misses),
                static_cast<unsigned long long>(after.evictions -
                                                before.evictions),
                static_cast<unsigned long long>(shed), Median(seed_s));
  result.notes.push_back(line);
  if (spec.churn) {
    // An observe follows its topk on the same shard within a few requests
    // and finds the session the topk just built: misses are topk misses.
    std::snprintf(line, sizeof(line),
                  "topk miss share %.4f (Zipf(%.1f) over %d users)",
                  Ratio(misses, timed.topk), spec.zipf, spec.users);
    result.notes.push_back(line);
  }
  return result;
}

}  // namespace perfbench
