// Serving load generator: trains a small LSTM on a Gowalla-profile
// synthetic snapshot, publishes it through a temporary serve::ModelStore,
// loads it back the way a serving process would, and drives the full
// serving stack through four arms:
//
//   1. sharded   — the query stream through net::ShardedEngine at K=1 and
//                  K=--shards, measuring the router's scaling. The >=2x
//                  speedup gate is hardware-aware: it only fires when the
//                  host actually has >= --shards cores.
//   2. net       — NdjsonServer + dispatcher over a K-shard engine, driven
//                  by pipelined TCP clients, with a zero-downtime model
//                  flip (activate to a freshly published version) in the
//                  middle of the replay. Gates: zero dropped/failed
//                  responses, server-side p99 within the deadline.
//   3. overload  — paced traffic at 2x the measured sustainable rate
//                  against a bounded-queue engine. Gates: sheds are typed
//                  `overloaded`, and the p99 of *accepted* requests stays
//                  within the deadline (admission control protects the
//                  tail instead of letting the queue collapse it).
//   4. tracing   — a frozen topk-only stream replayed serially over one
//                  connection twice, request tracing off then on. Topk
//                  never mutates session state, so the two passes must
//                  return byte-identical poi arrays; the timing gate is
//                  that always-on trace capture costs <= 5% at the
//                  client-observed p99 (plus a 500us absolute floor so
//                  scheduler jitter on a sub-millisecond baseline cannot
//                  fail the build).
//
// The numbers are written to BENCH_serving.json (working directory, or
// $PA_BENCH_DIR) as schema_version 3 JSON so CI can track them and
// `bench_compare.py --schema` can validate the shape. `--smoke` shrinks
// the workload and skips the timing-sensitive gates (structure gates —
// zero drops, typed errors — still apply) so sanitized or single-core CI
// can exercise every arm quickly.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "net/ndjson_protocol.h"
#include "net/ndjson_server.h"
#include "net/sharded_engine.h"
#include "net/socket_util.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/slow_trace.h"
#include "poi/synthetic.h"
#include "rec/registry.h"
#include "serve/engine.h"
#include "serve/model_store.h"
#include "util/rng.h"

namespace pa {
namespace {

namespace fs = std::filesystem;

double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

std::string BenchOutputPath(const char* filename) {
  if (const char* dir = std::getenv("PA_BENCH_DIR")) {
    return (fs::path(dir) / filename).string();
  }
  return filename;
}

struct Options {
  bool smoke = false;
  int shards = 4;
};

// Per-user split of the snapshot into serving history (first 80%) and the
// replayed query tail, built once and reused by every arm so they all see
// the same traffic.
struct UserStream {
  std::vector<poi::Checkin> warm;
  std::vector<poi::Checkin> tail;
};

std::vector<UserStream> SplitStreams(const poi::SyntheticLbsn& lbsn) {
  std::vector<UserStream> streams;
  for (const poi::CheckinSequence& seq : lbsn.observed.sequences) {
    if (seq.size() < 10) continue;
    const size_t cut = seq.size() * 4 / 5;
    UserStream s;
    s.warm.assign(seq.begin(), seq.begin() + cut);
    s.tail.assign(seq.begin() + cut, seq.end());
    streams.push_back(std::move(s));
  }
  return streams;
}

// Round-robin interleave of the per-user tails: adjacent queries hit
// different users (hence different shards), the shape a real frontend
// produces and the one that lets shards actually run in parallel.
std::vector<poi::Checkin> InterleaveTails(
    const std::vector<UserStream>& streams) {
  std::vector<poi::Checkin> out;
  for (size_t i = 0;; ++i) {
    bool any = false;
    for (const UserStream& s : streams) {
      if (i < s.tail.size()) {
        out.push_back(s.tail[i]);
        any = true;
      }
    }
    if (!any) break;
  }
  return out;
}

// Counting semaphore bounding the number of in-flight async requests, so
// the driver models a windowed client rather than dumping the whole stream
// into the shard queues at once.
class InflightLimiter {
 public:
  explicit InflightLimiter(size_t limit) : limit_(limit) {}
  void Acquire() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return inflight_ < limit_; });
    ++inflight_;
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      --inflight_;
    }
    cv_.notify_one();
  }
  void WaitIdle() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return inflight_ == 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t inflight_ = 0;
  size_t limit_;
};

struct ReplayCounts {
  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> overloaded{0};
  std::atomic<uint64_t> deadline_exceeded{0};
  std::atomic<uint64_t> other{0};

  void Count(serve::RequestStatus status) {
    switch (status) {
      case serve::RequestStatus::kOk: ++ok; break;
      case serve::RequestStatus::kOverloaded: ++overloaded; break;
      case serve::RequestStatus::kDeadlineExceeded: ++deadline_exceeded; break;
      default: ++other; break;
    }
  }
};

void WarmEngine(net::ShardedEngine& engine,
                const std::vector<UserStream>& streams) {
  for (const UserStream& s : streams) {
    for (const poi::Checkin& c : s.warm) engine.Observe(c);
  }
}

// Drives the interleaved query stream through TopKAsync/ObserveAsync with a
// bounded window; returns the measured wall-clock seconds.
double ReplayAsync(net::ShardedEngine& engine,
                   const std::vector<poi::Checkin>& queries, int window,
                   ReplayCounts& counts) {
  InflightLimiter inflight(static_cast<size_t>(window));
  const auto t0 = std::chrono::steady_clock::now();
  for (const poi::Checkin& c : queries) {
    inflight.Acquire();
    serve::TopKRequest request;
    request.user = c.user;
    request.k = 10;
    request.next_timestamp = c.timestamp;
    engine.TopKAsync(request, [&](serve::TopKResponse response) {
      counts.Count(response.status);
      inflight.Release();
    });
    engine.ObserveAsync(c);
  }
  inflight.WaitIdle();
  return Seconds(std::chrono::steady_clock::now() - t0);
}

// --- Networked arm ----------------------------------------------------------

struct NetClientResult {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;
};

// Pipelined NDJSON client: keeps up to `window` requests on the wire,
// reading responses as they come back. Counts `"ok":true` lines.
NetClientResult RunNetClient(uint16_t port,
                             const std::vector<std::string>& lines,
                             size_t window) {
  NetClientResult result;
  std::string error;
  const int fd = net::ConnectTcp(port, &error);
  if (fd < 0) {
    std::fprintf(stderr, "net client connect failed: %s\n", error.c_str());
    result.failed = lines.size();
    return result;
  }
  size_t sent = 0, received = 0;
  std::string buf;
  char chunk[4096];
  while (received < lines.size()) {
    while (sent < lines.size() && sent - received < window) {
      if (!net::SendAll(fd, lines[sent].data(), lines[sent].size())) {
        close(fd);
        result.failed += lines.size() - received;
        return result;
      }
      ++sent;
      ++result.sent;
    }
    size_t nl;
    while ((nl = buf.find('\n')) == std::string::npos) {
      const ssize_t n = ::read(fd, chunk, sizeof(chunk));
      if (n <= 0) {
        close(fd);
        result.failed += lines.size() - received;
        return result;
      }
      buf.append(chunk, static_cast<size_t>(n));
    }
    const std::string line = buf.substr(0, nl);
    buf.erase(0, nl + 1);
    ++received;
    if (line.find("\"ok\":true") != std::string::npos) {
      ++result.ok;
    } else {
      ++result.failed;
    }
  }
  close(fd);
  return result;
}

std::string TopKLine(const poi::Checkin& c) {
  obs::JsonWriter w;
  w.BeginObject()
      .Field("op", "topk")
      .Field("user", int64_t{c.user})
      .Field("k", int64_t{10})
      .Field("timestamp", c.timestamp)
      .EndObject();
  return w.str() + "\n";
}

// --- Tracing arm ------------------------------------------------------------

// The "pois":[...] payload of a topk response, so two arms' scoring can be
// compared byte-for-byte regardless of envelope fields (the tracing-on pass
// adds `"trace":"<hex>"` to the envelope, which must not count as a diff).
std::string PoisPayload(const std::string& line) {
  const size_t at = line.find("\"pois\":[");
  if (at == std::string::npos) return {};
  const size_t end = line.find(']', at);
  if (end == std::string::npos) return {};
  return line.substr(at, end + 1 - at);
}

struct TraceArmStats {
  double p50_micros = 0.0;
  double p99_micros = 0.0;
  uint64_t failed = 0;
  uint64_t echoed = 0;  // Responses carrying a "trace" envelope field.
  std::vector<std::string> pois;
};

// Serial request/response replay over one connection, timing each round
// trip client-side so the measurement covers the whole traced path: parse,
// queue, compute, serialize, and the write-side trace End/publish.
bool RunTraceArm(uint16_t port, const std::vector<std::string>& lines,
                 TraceArmStats* out) {
  std::string error;
  const int fd = net::ConnectTcp(port, &error);
  if (fd < 0) {
    std::fprintf(stderr, "tracing arm connect failed: %s\n", error.c_str());
    return false;
  }
  std::vector<double> latencies;
  latencies.reserve(lines.size());
  std::string buf;
  char chunk[4096];
  for (const std::string& line : lines) {
    const auto t0 = std::chrono::steady_clock::now();
    if (!net::SendAll(fd, line.data(), line.size())) {
      close(fd);
      return false;
    }
    size_t nl;
    while ((nl = buf.find('\n')) == std::string::npos) {
      const ssize_t n = ::read(fd, chunk, sizeof(chunk));
      if (n <= 0) {
        close(fd);
        return false;
      }
      buf.append(chunk, static_cast<size_t>(n));
    }
    latencies.push_back(std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - t0)
                            .count());
    const std::string response = buf.substr(0, nl);
    buf.erase(0, nl + 1);
    if (response.find("\"ok\":true") == std::string::npos) ++out->failed;
    if (response.find("\"trace\":\"") != std::string::npos) ++out->echoed;
    out->pois.push_back(PoisPayload(response));
  }
  close(fd);
  std::sort(latencies.begin(), latencies.end());
  auto percentile = [&](double p) {
    if (latencies.empty()) return 0.0;
    const size_t at = std::min(latencies.size() - 1,
                               static_cast<size_t>(p * latencies.size()));
    return latencies[at];
  };
  out->p50_micros = percentile(0.50);
  out->p99_micros = percentile(0.99);
  return true;
}

}  // namespace

int Run(const Options& opt) {
  // --- Train a quick LSTM on a Gowalla-shaped snapshot. -------------------
  poi::LbsnProfile profile = poi::GowallaProfile();
  profile.num_users = opt.smoke ? 12 : 32;
  profile.num_pois = opt.smoke ? 200 : 500;
  profile.min_visits = opt.smoke ? 60 : 100;
  profile.max_visits = opt.smoke ? 80 : 140;

  util::Rng rng(20260806);
  std::printf("generating synthetic LBSN (%d users / %d POIs)...\n",
              profile.num_users, profile.num_pois);
  poi::SyntheticLbsn lbsn = poi::GenerateLbsn(profile, rng);

  std::unique_ptr<rec::Recommender> model =
      rec::MakeRecommender("LSTM", 7, 0.25);
  std::printf("training %s...\n", model->name().c_str());
  model->Fit(lbsn.observed.sequences, lbsn.observed.pois);

  // --- Publish + reload through the store (the real serving path). --------
  const fs::path store_dir =
      fs::temp_directory_path() / "pa_bench_serving_store";
  fs::remove_all(store_dir);
  serve::ModelStore store(store_dir);
  std::string error;
  const int version = store.Publish(*model, lbsn.observed.pois, &error);
  if (version < 0) {
    std::fprintf(stderr, "publish failed: %s\n", error.c_str());
    return 1;
  }
  serve::LoadedModel loaded;
  if (!store.LoadActive(model->name(), &loaded, &error)) {
    std::fprintf(stderr, "load failed: %s\n", error.c_str());
    return 1;
  }
  auto shared_model =
      std::make_shared<const serve::LoadedModel>(std::move(loaded));
  std::printf("published and reloaded %s v%d\n", shared_model->name.c_str(),
              version);

  const std::vector<UserStream> streams = SplitStreams(lbsn);
  const std::vector<poi::Checkin> queries = InterleaveTails(streams);
  const unsigned hardware_threads =
      std::max(1u, std::thread::hardware_concurrency());
  std::printf("replaying %zu queries per arm (%u hardware threads, %d "
              "shards)...\n",
              queries.size(), hardware_threads, opt.shards);

  const int64_t deadline_ms = net::ShardedEngineConfig{}.deadline_ms;
  const double deadline_us = static_cast<double>(deadline_ms) * 1000.0;

  bool gate_failed = false;
  auto gate = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "FAIL: %s\n", what);
      gate_failed = true;
    }
  };

  // --- Arm 1: ShardedEngine at K=1 and K=--shards. ------------------------
  // Scoped so each engine's instruments unregister before the next arm
  // registers the same names.
  const int replay_window = 64;
  double single_qps = 0.0, sharded_qps = 0.0;
  uint64_t sharded_failed = 0;
  {
    net::ShardedEngineConfig config;
    config.num_shards = 1;
    config.deadline_ms = deadline_ms;
    config.queue_capacity = 1 << 14;  // Throughput arm: never shed.
    net::ShardedEngine engine(shared_model, config);
    WarmEngine(engine, streams);
    ReplayCounts counts;
    const double elapsed = ReplayAsync(engine, queries, replay_window, counts);
    single_qps = elapsed > 0 ? double(queries.size()) / elapsed : 0.0;
    sharded_failed += counts.overloaded + counts.deadline_exceeded +
                      counts.other;
    std::printf("[shard K1] %.0f topk/s\n", single_qps);
  }
  {
    net::ShardedEngineConfig config;
    config.num_shards = opt.shards;
    config.deadline_ms = deadline_ms;
    config.queue_capacity = 1 << 14;
    net::ShardedEngine engine(shared_model, config);
    WarmEngine(engine, streams);
    ReplayCounts counts;
    const double elapsed = ReplayAsync(engine, queries, replay_window, counts);
    sharded_qps = elapsed > 0 ? double(queries.size()) / elapsed : 0.0;
    sharded_failed += counts.overloaded + counts.deadline_exceeded +
                      counts.other;
    std::printf("[shard K%d] %.0f topk/s\n", opt.shards, sharded_qps);
  }
  const double shard_speedup = single_qps > 0 ? sharded_qps / single_qps : 0.0;
  gate(sharded_failed == 0, "sharded arms shed or failed requests");
  std::string shard_gate;
  if (opt.smoke) {
    shard_gate = "skipped (smoke)";
  } else if (hardware_threads < static_cast<unsigned>(opt.shards)) {
    // Shards are threads: on a host with fewer cores than shards the
    // speedup is physically unreachable, so the gate records the result
    // instead of failing the build.
    char msg[96];
    std::snprintf(msg, sizeof(msg), "skipped (%u cores < %d shards)",
                  hardware_threads, opt.shards);
    shard_gate = msg;
  } else if (shard_speedup >= 2.0) {
    shard_gate = "pass";
  } else {
    shard_gate = "fail";
    char msg[96];
    std::snprintf(msg, sizeof(msg),
                  "K=%d speedup %.2fx < 2.0x over single shard", opt.shards,
                  shard_speedup);
    gate(false, msg);
  }
  std::printf("[shard]    speedup %.2fx (gate: %s)\n", shard_speedup,
              shard_gate.c_str());

  // --- Arm 2: networked replay over NdjsonServer + live model flip. -------
  double net_qps = 0.0, net_p99_micros = 0.0;
  uint64_t net_failed = 0, flip_dropped = 0;
  int flip_version = -1;
  const int net_connections = 2;
  {
    net::ShardedEngineConfig config;
    config.num_shards = opt.shards;
    config.deadline_ms = deadline_ms;
    config.queue_capacity = 1 << 14;
    net::ShardedEngine engine(shared_model, config);
    WarmEngine(engine, streams);
    net::NdjsonDispatcher dispatcher(&engine);

    net::NdjsonServer server;
    net::NdjsonServerConfig server_config;  // Ephemeral port.
    if (!server.Start(
            server_config,
            [&](uint64_t conn, uint64_t seq, std::string line) {
              dispatcher.HandleLineAsync(
                  std::move(line),
                  [conn, seq, &server](std::string response) {
                    server.Reply(conn, seq, std::move(response));
                  });
            },
            &error)) {
      std::fprintf(stderr, "net arm listen failed: %s\n", error.c_str());
      return 1;
    }

    // Split the stream across pipelined connections.
    std::vector<std::vector<std::string>> conn_lines(net_connections);
    for (size_t i = 0; i < queries.size(); ++i) {
      conn_lines[i % net_connections].push_back(TopKLine(queries[i]));
    }

    // Republish the same weights as a fresh version and flip to it midway
    // through the replay: the acceptance bar is zero dropped requests
    // while every shard warms and swaps under live traffic.
    const int v2 = store.Publish(*model, lbsn.observed.pois, &error);
    serve::LoadedModel reloaded;
    if (v2 < 0 || !store.Load(model->name(), v2, &reloaded, &error)) {
      std::fprintf(stderr, "flip publish/load failed: %s\n", error.c_str());
      return 1;
    }
    auto flip_model =
        std::make_shared<const serve::LoadedModel>(std::move(reloaded));
    flip_version = v2;

    std::vector<NetClientResult> results(net_connections);
    std::vector<std::thread> clients;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < net_connections; ++i) {
      clients.emplace_back([&, i] {
        results[i] = RunNetClient(server.port(), conn_lines[i], 32);
      });
    }
    // Let the replay get going, then flip. SwapModel returns only after
    // every shard has warmed and switched, all while the clients keep
    // streaming requests.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    engine.SwapModel(flip_model);
    for (std::thread& t : clients) t.join();
    const double elapsed = Seconds(std::chrono::steady_clock::now() - t0);

    uint64_t net_ok = 0, net_sent = 0;
    for (const NetClientResult& r : results) {
      net_ok += r.ok;
      net_sent += r.sent;
      net_failed += r.failed;
    }
    flip_dropped = queries.size() - net_ok;
    net_qps = elapsed > 0 ? double(net_ok) / elapsed : 0.0;
    net_p99_micros = engine.Stats().engine.p99_micros;
    std::printf("[net]      %.0f topk/s over %d conns  p99 %.1f us  "
                "flip v%d dropped %llu\n",
                net_qps, net_connections, net_p99_micros, flip_version,
                static_cast<unsigned long long>(flip_dropped));
    server.Stop();
  }
  gate(net_failed == 0, "networked arm had failed responses");
  gate(flip_dropped == 0, "model flip dropped requests");
  if (!opt.smoke) {
    gate(net_p99_micros <= deadline_us,
         "networked arm p99 exceeded the deadline");
  }

  // --- Arm 3: 2x overload against a bounded queue. ------------------------
  double overload_target_qps = 0.0, overload_p99_micros = 0.0;
  uint64_t overload_sent = 0;
  ReplayCounts overload;
  {
    net::ShardedEngineConfig config;
    config.num_shards = opt.shards;
    config.deadline_ms = deadline_ms;
    config.queue_capacity = 64;  // Small queue: shedding is the point.
    net::ShardedEngine engine(shared_model, config);
    WarmEngine(engine, streams);

    // Pace arrivals at twice the rate the sharded arm actually sustained.
    const double base_qps = std::max(sharded_qps, 1.0);
    overload_target_qps = 2.0 * base_qps;
    const auto interval = std::chrono::duration_cast<
        std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(1.0 / overload_target_qps));
    const double run_seconds = opt.smoke ? 0.3 : 1.0;
    const uint64_t to_send = std::max<uint64_t>(
        64, static_cast<uint64_t>(overload_target_qps * run_seconds));

    std::atomic<uint64_t> done{0};
    std::mutex done_mu;
    std::condition_variable done_cv;
    const auto t0 = std::chrono::steady_clock::now();
    auto next = t0;
    for (uint64_t i = 0; i < to_send; ++i) {
      std::this_thread::sleep_until(next);
      next += interval;
      const poi::Checkin& c = queries[i % queries.size()];
      serve::TopKRequest request;
      request.user = c.user;
      request.k = 10;
      request.next_timestamp = c.timestamp;
      engine.TopKAsync(request, [&](serve::TopKResponse response) {
        overload.Count(response.status);
        if (++done == to_send) {
          std::lock_guard<std::mutex> lock(done_mu);
          done_cv.notify_one();
        }
      });
      ++overload_sent;
    }
    {
      std::unique_lock<std::mutex> lock(done_mu);
      done_cv.wait(lock, [&] { return done.load() == to_send; });
    }
    // The engine histogram only sees *accepted* requests — sheds bounce at
    // admission — so its p99 is exactly the accepted-traffic tail the
    // acceptance criterion is about.
    overload_p99_micros = engine.Stats().engine.p99_micros;
    std::printf("[overload] sent %llu @ %.0f/s: ok %llu, shed %llu, "
                "deadline %llu, other %llu; accepted p99 %.1f us\n",
                static_cast<unsigned long long>(overload_sent),
                overload_target_qps,
                static_cast<unsigned long long>(overload.ok.load()),
                static_cast<unsigned long long>(overload.overloaded.load()),
                static_cast<unsigned long long>(
                    overload.deadline_exceeded.load()),
                static_cast<unsigned long long>(overload.other.load()),
                overload_p99_micros);
  }
  gate(overload.other.load() == 0, "overload arm saw untyped failures");
  if (!opt.smoke) {
    gate(overload.overloaded.load() > 0,
         "2x overload produced no typed overloaded sheds");
    gate(overload_p99_micros <= deadline_us,
         "overload arm: accepted-request p99 exceeded the deadline");
  }

  // --- Arm 4: request-tracing attribution overhead. -----------------------
  TraceArmStats trace_off, trace_on;
  uint64_t trace_requests = 0, trace_mismatches = 0, trace_echo_missing = 0;
  uint64_t trace_captured = 0;
  std::string trace_gate = "skipped (smoke)";
  {
    net::ShardedEngineConfig config;
    config.num_shards = opt.shards;
    config.deadline_ms = deadline_ms;
    config.queue_capacity = 1 << 14;
    net::ShardedEngine engine(shared_model, config);
    WarmEngine(engine, streams);
    net::NdjsonDispatcher dispatcher(&engine);

    net::NdjsonServer server;
    net::NdjsonServerConfig server_config;  // Ephemeral port.
    if (!server.Start(
            server_config,
            [&](uint64_t conn, uint64_t seq, std::string line) {
              dispatcher.HandleLineAsync(
                  std::move(line),
                  [conn, seq, &server](std::string response) {
                    server.Reply(conn, seq, std::move(response));
                  });
            },
            &error)) {
      std::fprintf(stderr, "tracing arm listen failed: %s\n", error.c_str());
      return 1;
    }

    // A frozen stream: topk only, no observes, so session state never moves
    // and both passes must score identically.
    const size_t trace_n =
        std::min<size_t>(queries.size(), opt.smoke ? 64 : 512);
    std::vector<std::string> trace_lines;
    trace_lines.reserve(trace_n);
    for (size_t i = 0; i < trace_n; ++i) {
      trace_lines.push_back(TopKLine(queries[i]));
    }
    trace_requests = trace_n;

    // Untimed warm-up so neither measured pass pays the cold-start cost
    // (first connection, cold instruction cache); otherwise the off pass,
    // running first, would absorb it and slacken the overhead gate.
    obs::SetRequestTracingEnabled(false);
    {
      TraceArmStats warmup;
      RunTraceArm(server.port(), trace_lines, &warmup);
    }
    const bool off_ok = RunTraceArm(server.port(), trace_lines, &trace_off);
    obs::SetRequestTracingEnabled(true);
    obs::SlowTraceReservoir::Global().Clear();
    const bool on_ok = RunTraceArm(server.port(), trace_lines, &trace_on);
    trace_captured = obs::SlowTraceReservoir::Global().WorstTraces().size();
    server.Stop();

    gate(off_ok && on_ok, "tracing arm client failed");
    gate(trace_off.failed == 0 && trace_on.failed == 0,
         "tracing arm had failed responses");
    // Scoring must be bit-identical: tracing observes the request path, it
    // must never perturb it.
    if (off_ok && on_ok) {
      for (size_t i = 0; i < trace_n; ++i) {
        if (trace_off.pois[i].empty() ||
            trace_off.pois[i] != trace_on.pois[i]) {
          ++trace_mismatches;
        }
      }
    }
    gate(trace_mismatches == 0, "tracing changed the scoring output");
    trace_echo_missing = trace_requests - std::min(trace_requests,
                                                   trace_on.echoed);
    gate(trace_echo_missing == 0,
         "tracing-on responses missing the trace envelope field");
    gate(trace_off.echoed == 0,
         "tracing-off responses still echoed trace ids");
    gate(trace_captured > 0, "reservoir captured no traces while tracing on");

    if (!opt.smoke) {
      // 5% relative plus a 500us absolute floor: on a sub-millisecond
      // serial baseline a single scheduler preemption is worth more than
      // 5%, and the floor keeps that noise from failing the build while
      // still catching any real per-request cost.
      if (trace_on.p99_micros <=
          trace_off.p99_micros * 1.05 + 500.0) {
        trace_gate = "pass";
      } else {
        trace_gate = "fail";
        char msg[128];
        std::snprintf(msg, sizeof(msg),
                      "tracing-on p99 %.1f us exceeds off p99 %.1f us "
                      "* 1.05 + 500",
                      trace_on.p99_micros, trace_off.p99_micros);
        gate(false, msg);
      }
    }
    const double ratio = trace_off.p99_micros > 0
                             ? trace_on.p99_micros / trace_off.p99_micros
                             : 0.0;
    std::printf("[tracing]  %llu reqs  p99 off %.1f us / on %.1f us "
                "(%.2fx)  captured %llu  gate: %s\n",
                static_cast<unsigned long long>(trace_requests),
                trace_off.p99_micros, trace_on.p99_micros, ratio,
                static_cast<unsigned long long>(trace_captured),
                trace_gate.c_str());
  }

  // --- Machine-readable summary (schema_version 3). -----------------------
  obs::JsonWriter w;
  w.BeginObject()
      .Field("bench", "serving")
      .Field("schema_version", 3)
      .Field("model", shared_model->name)
      .Field("version", version)
      .Field("smoke", opt.smoke)
      .Field("shards", int64_t{opt.shards})
      .Field("hardware_threads", int64_t{hardware_threads})
      .Field("num_queries", static_cast<uint64_t>(queries.size()))
      .Field("deadline_ms", deadline_ms)
      .Field("single_shard_qps", single_qps)
      .Field("sharded_qps", sharded_qps)
      .Field("shard_speedup", shard_speedup)
      .Field("shard_gate", shard_gate)
      .Field("net_qps", net_qps)
      .Field("net_p99_micros", net_p99_micros)
      .Field("net_connections", int64_t{net_connections})
      .Field("net_failed", net_failed)
      .Field("flip_version", int64_t{flip_version})
      .Field("flip_dropped", flip_dropped)
      .Field("overload_target_qps", overload_target_qps)
      .Field("overload_sent", overload_sent)
      .Field("overload_ok", overload.ok.load())
      .Field("overload_shed", overload.overloaded.load())
      .Field("overload_deadline_exceeded", overload.deadline_exceeded.load())
      .Field("overload_other", overload.other.load())
      .Field("overload_p99_micros", overload_p99_micros)
      .Field("trace_requests", trace_requests)
      .Field("trace_off_p50_micros", trace_off.p50_micros)
      .Field("trace_off_p99_micros", trace_off.p99_micros)
      .Field("trace_on_p50_micros", trace_on.p50_micros)
      .Field("trace_on_p99_micros", trace_on.p99_micros)
      .Field("trace_overhead_ratio",
             trace_off.p99_micros > 0
                 ? trace_on.p99_micros / trace_off.p99_micros
                 : 0.0)
      .Field("trace_gate", trace_gate)
      .Field("trace_mismatches", trace_mismatches)
      .Field("trace_echo_missing", trace_echo_missing)
      .Field("trace_captured", trace_captured)
      .RawField("metrics", obs::MetricRegistry::Global().SnapshotJson())
      .EndObject();
  const std::string out_path = BenchOutputPath("BENCH_serving.json");
  std::ofstream out(out_path);
  out << w.str() << "\n";
  std::printf("wrote %s\n", out_path.c_str());

  fs::remove_all(store_dir);
  if (gate_failed) return 1;
  std::printf("all serving gates passed%s\n",
              opt.smoke ? " (smoke: timing gates skipped)" : "");
  return 0;
}

}  // namespace pa

int main(int argc, char** argv) {
  pa::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg.rfind("--shards=", 0) == 0) {
      opt.shards = std::atoi(arg.c_str() + 9);
      if (opt.shards < 1) opt.shards = 1;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--shards=K]\n", argv[0]);
      return 2;
    }
  }
  return pa::Run(opt);
}
