// pa_serve — offline-first serving frontend for trained POI recommenders.
//
// Subcommands:
//
//   pa_serve publish --store DIR --method LSTM [--csv FILE] [--seed N]
//                    [--epochs-scale X] [--users N] [--pois N]
//                    [--profile gowalla|brightkite]
//     Trains `--method` (on a CSV dataset, or on a synthetic snapshot when
//     no CSV is given) and publishes it to the model store as the next
//     version, marking it active.
//
//   pa_serve list --store DIR
//     Prints models, versions and the active version as JSON.
//
//   pa_serve activate --store DIR --model LSTM --version N
//     Repoints ACTIVE (rollback / roll-forward).
//
//   pa_serve serve --store DIR --model LSTM [--version N] [--deadline-ms N]
//                  [--shards K] [--queue-capacity N] [--metrics-port N]
//     Loads the model and answers newline-delimited JSON requests on stdin,
//     one response line per request on stdout:
//
//       {"op":"observe","user":3,"poi":17,"timestamp":7200}
//       {"op":"topk","user":3,"k":5,"timestamp":10800}
//       {"op":"topk","user":3,"k":5,"timestamp":10800,"strict":true}
//       {"op":"stats"}
//       {"op":"activate","version":2}
//       {"op":"quit"}
//
//     Responses are a structured envelope (DESIGN.md "Networked serving"):
//     {"ok":true,"status":"ok",...} on success, {"ok":false,"code":
//     "bad_request|overloaded|deadline_exceeded|unknown_user","error":...}
//     on failure; an "id" field in the request is echoed back. The stats
//     reply carries the aggregate + per-shard digests and a full
//     obs::MetricRegistry snapshot.
//
//     Request traffic stays on stdin/stdout; `--metrics-port N` (0 = an
//     ephemeral port, printed to stderr) additionally starts the loopback
//     HTTP exposition server with GET /metrics (Prometheus text), /varz
//     (registry JSON), /healthz (component health, 503 on FAILED) and
//     /slowz (the K worst-latency request traces) so a scraper can watch a
//     long-lived loop. The bound port is also surfaced as the stats op's
//     "metrics_port" field and the obs.exposition.port gauge.
//
//   pa_serve listen --store DIR --model LSTM [--version N] [--port N]
//                   [--shards K] [--deadline-ms N] [--queue-capacity N]
//                   [--idle-timeout-ms N] [--metrics-port N]
//     The networked front-end: a poll-driven loopback TCP server speaking
//     the same NDJSON protocol as `serve` (one request line in, one
//     response line out, pipelining allowed — responses come back in
//     request order per connection), dispatching into K shard workers that
//     each own a consistent-hash partition of the user space. --port 0
//     binds an ephemeral port; the bound port is announced on stderr as
//     "listening on 127.0.0.1:PORT". Overload is shed per shard with a
//     typed "overloaded" envelope. {"op":"activate","version":N} flips all
//     shards to a new model version with zero dropped requests; {"op":
//     "quit"}, SIGINT or SIGTERM drain gracefully (responses for admitted
//     requests are flushed before exit).
//
//   pa_serve slowz --port N
//     Fetches GET /slowz from a running server's metrics exposition port
//     and prints the JSON body: the K worst-latency request traces
//     captured so far, each with its full span tree (net.parse,
//     net.queue_wait, serve.compute, net.serialize, net.write_wait and
//     everything that ran under them). Pair with the "trace":"<hex>" id
//     echoed in every NDJSON response envelope to look up a specific slow
//     request, and scripts/trace_summary.py --trace <hex> for the
//     critical-path view.
//
//   pa_serve stats --store DIR [--model LSTM] [--version N] [--probe N]
//     Loads the model, drives a small probe workload (N users each observe
//     a couple of check-ins, then ask for one top-k) through a fresh
//     one-shard engine, and prints one NDJSON line with the full
//     metric-registry snapshot —
//     a self-contained health check covering serving, session-store and
//     thread-pool metrics. "probe_delta" carries only what
//     the probe itself contributed (snapshot-before/after delta), so the
//     probe is separable from whatever the process counted before it.
//
// Each subcommand accepts exactly the flags listed for it above; any other
// flag exits 2 before any work ("pa_serve: unknown flag --x for publish"),
// and so does a numeric value out of range:
//
//   --users            [1, 1000000]       (publish)
//   --pois             [1, 1000000]       (publish)
//   --version          [1, 2147483647]    (activate, serve, listen, stats)
//   --shards           [1, 256]           (serve, listen)
//   --deadline-ms      [0, 86400000]      (serve, listen)
//   --idle-timeout-ms  [0, 86400000]      (listen; 0 never times out)
//   --probe            [1, 100000]        (stats)
//
// All long-lived subcommands honor PA_OBS_TIMESERIES=<path> (+ optional
// PA_OBS_SAMPLE_PERIOD_MS): a background sampler appends one NDJSON
// registry snapshot per period with delta-encoded counters.

#include <errno.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/ndjson_protocol.h"
#include "net/ndjson_server.h"
#include "net/sharded_engine.h"
#include "net/socket_util.h"
#include "obs/health.h"
#include "obs/http_exposition.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/slow_trace.h"
#include "obs/telemetry_sampler.h"
#include "obs/trace.h"
#include "poi/csv.h"
#include "poi/synthetic.h"
#include "rec/registry.h"
#include "serve/engine.h"
#include "serve/model_store.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace pa;

// Exits with the same diagnostic style ParseFlags uses for malformed
// arguments; std::stol/std::stod would otherwise throw an uncaught
// exception on values like `--version abc`.
[[noreturn]] void BadFlagValue(const std::string& key,
                               const std::string& value) {
  std::fprintf(stderr, "pa_serve: bad value for --%s: \"%s\"\n", key.c_str(),
               value.c_str());
  std::exit(2);
}

// Bounds of the numeric flags (listed in the header above). Each shard is
// a thread, and 256 is far past any core count this serves on; a day
// bounds the deadline, so enqueue + deadline cannot overflow the clock's
// nanosecond count, and the idle timeout alike. The publish sizes and the
// probe are far past any snapshot this trains or probes, and each fits the
// `int` it is narrowed to, as does a version.
constexpr long kMaxUsers = 1'000'000;
constexpr long kMaxPois = 1'000'000;
constexpr long kMaxVersion = std::numeric_limits<int>::max();
constexpr long kMaxShards = 256;
constexpr long kMaxDeadlineMs = 86'400'000;
constexpr long kMaxIdleTimeoutMs = 86'400'000;
constexpr long kMaxProbeUsers = 100'000;

struct Flags {
  std::map<std::string, std::string> values;

  std::string Get(const std::string& key, const std::string& def = "") const {
    auto it = values.find(key);
    return it == values.end() ? def : it->second;
  }
  long GetInt(const std::string& key, long def) const {
    auto it = values.find(key);
    if (it == values.end()) return def;
    try {
      size_t pos = 0;
      const long value = std::stol(it->second, &pos);
      if (pos != it->second.size()) BadFlagValue(key, it->second);
      return value;
    } catch (const std::exception&) {
      BadFlagValue(key, it->second);
    }
  }
  /// GetInt that refuses a value outside [lo, hi] the way a malformed one
  /// is refused: exit 2, before any work.
  long GetIntInRange(const std::string& key, long def, long lo,
                     long hi) const {
    const long value = GetInt(key, def);
    if (value < lo || value > hi) {
      std::fprintf(stderr, "pa_serve: --%s must be in [%ld, %ld], got %ld\n",
                   key.c_str(), lo, hi, value);
      std::exit(2);
    }
    return value;
  }
  double GetDouble(const std::string& key, double def) const {
    auto it = values.find(key);
    if (it == values.end()) return def;
    try {
      size_t pos = 0;
      const double value = std::stod(it->second, &pos);
      if (pos != it->second.size()) BadFlagValue(key, it->second);
      return value;
    } catch (const std::exception&) {
      BadFlagValue(key, it->second);
    }
  }
};

bool ParseFlags(int argc, char** argv, int first, Flags* flags) {
  for (int i = first; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--", 2) != 0) {
      std::fprintf(stderr, "pa_serve: bad argument \"%s\"\n", arg);
      return false;
    }
    // Both --key value and --key=value.
    if (const char* eq = std::strchr(arg + 2, '=')) {
      flags->values[std::string(arg + 2, eq)] = eq + 1;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "pa_serve: missing value for \"%s\"\n", arg);
      return false;
    }
    flags->values[arg + 2] = argv[++i];
  }
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: pa_serve <publish|list|activate|serve|listen|stats|"
               "slowz> --store DIR [options]\n(see the header of "
               "src/serve/pa_serve_main.cc)\n");
  return 2;
}

int CmdPublish(const Flags& flags) {
  const std::string method = flags.Get("method", "LSTM");
  const std::string csv = flags.Get("csv");
  const int num_users =
      static_cast<int>(flags.GetIntInRange("users", 32, 1, kMaxUsers));
  const int num_pois =
      static_cast<int>(flags.GetIntInRange("pois", 500, 1, kMaxPois));

  poi::Dataset dataset;
  if (!csv.empty()) {
    std::string why;
    if (!poi::LoadCheckinsCsvFile(csv, &dataset, &why)) {
      std::fprintf(stderr, "pa_serve: cannot load %s: %s\n", csv.c_str(),
                   why.c_str());
      return 1;
    }
  } else {
    poi::LbsnProfile profile = flags.Get("profile", "gowalla") == "brightkite"
                                   ? poi::BrightkiteProfile()
                                   : poi::GowallaProfile();
    profile.num_users = num_users;
    profile.num_pois = num_pois;
    util::Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 7)));
    dataset = poi::GenerateLbsn(profile, rng).observed;
  }

  std::unique_ptr<rec::Recommender> model = rec::MakeRecommender(
      method, static_cast<uint64_t>(flags.GetInt("seed", 7)),
      flags.GetDouble("epochs-scale", 1.0));
  if (!model) {
    std::fprintf(stderr, "pa_serve: unknown recommender \"%s\" (known: %s)\n",
                 method.c_str(), rec::KnownRecommenderNamesString().c_str());
    return 1;
  }

  std::fprintf(stderr, "pa_serve: training %s on %d users / %d POIs...\n",
               model->name().c_str(), dataset.num_users(), dataset.num_pois());
  model->Fit(dataset.sequences, dataset.pois);

  serve::ModelStore store(flags.Get("store", "model_store"));
  std::string error;
  const int version = store.Publish(*model, dataset.pois, &error);
  if (version < 0) {
    std::fprintf(stderr, "pa_serve: publish failed: %s\n", error.c_str());
    return 1;
  }

  obs::JsonWriter w;
  w.BeginObject()
      .Field("model", model->name())
      .Field("version", version)
      .Field("path", store.ArtifactPath(model->name(), version).string())
      .EndObject();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

int CmdList(const Flags& flags) {
  serve::ModelStore store(flags.Get("store", "model_store"));
  obs::JsonWriter w;
  w.BeginObject().BeginArray("models");
  for (const std::string& name : store.ListModels()) {
    w.BeginObject().Field("name", name).Field("active",
                                              store.ActiveVersion(name));
    w.BeginArray("versions");
    for (const int v : store.ListVersions(name)) w.Element(int64_t{v});
    w.EndArray().EndObject();
  }
  w.EndArray().EndObject();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

/// --version when given (refused outside [1, kMaxVersion]), else -1.
int VersionFlag(const Flags& flags) {
  if (!flags.values.count("version")) return -1;
  return static_cast<int>(flags.GetIntInRange("version", -1, 1, kMaxVersion));
}

int CmdActivate(const Flags& flags) {
  const int version = VersionFlag(flags);
  serve::ModelStore store(flags.Get("store", "model_store"));
  std::string error;
  if (!store.SetActive(flags.Get("model"), version, &error)) {
    std::fprintf(stderr, "pa_serve: %s\n", error.c_str());
    return 1;
  }
  return 0;
}

void Reply(const std::string& json) {
  std::fputs(json.c_str(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);  // A line-oriented peer must see the line now.
}

/// Loads the model named by --model at `version` (the VersionFlag value;
/// the active version when it is -1). Returns nullptr after printing a
/// diagnostic.
std::shared_ptr<const serve::LoadedModel> LoadServingModel(
    const serve::ModelStore& store, const Flags& flags, int version) {
  const std::string name = flags.Get("model", "LSTM");
  serve::LoadedModel loaded;
  std::string error;
  const bool ok = version > 0 ? store.Load(name, version, &loaded, &error)
                              : store.LoadActive(name, &loaded, &error);
  if (!ok) {
    std::fprintf(stderr, "pa_serve: cannot load \"%s\": %s\n", name.c_str(),
                 error.c_str());
    return nullptr;
  }
  return std::make_shared<const serve::LoadedModel>(std::move(loaded));
}

net::ShardedEngineConfig ShardConfigFromFlags(const Flags& flags) {
  net::ShardedEngineConfig config;
  config.num_shards =
      static_cast<int>(flags.GetIntInRange("shards", 1, 1, kMaxShards));
  config.deadline_ms =
      flags.GetIntInRange("deadline-ms", 250, 0, kMaxDeadlineMs);
  config.queue_capacity =
      static_cast<size_t>(std::max(1L, flags.GetInt("queue-capacity", 256)));
  return config;
}

/// Starts the metrics exposition server when --metrics-port is present.
/// Returns false on bind failure (diagnostic already printed).
bool MaybeStartExposition(const Flags& flags,
                          obs::ExpositionServer* exposition) {
  if (!flags.values.count("metrics-port")) return true;
  const long port = flags.GetInt("metrics-port", 0);
  if (port < 0 || port > 65535 ||
      !exposition->Start(static_cast<uint16_t>(port))) {
    std::fprintf(stderr, "pa_serve: cannot bind metrics port %ld\n", port);
    return false;
  }
  // Machine-parseable (tier1 smoke reads this line to find an ephemeral
  // port).
  std::fprintf(stderr, "pa_serve: metrics listening on http://127.0.0.1:%u\n",
               static_cast<unsigned>(exposition->port()));
  return true;
}

/// What a transport gets from the shared setup: the engine, the dispatcher
/// options (model store, default model, metrics port) and the model's POI
/// count. It returns the exit code.
using Transport = std::function<int(net::ShardedEngine& engine,
                                    net::NdjsonDispatcher::Options options,
                                    int num_pois)>;

/// The setup `serve` and `listen` share; they differ only in transport.
/// Loads the model, starts the sharded engine and the metrics exposition,
/// and holds the serve.model health entry while the transport runs.
int RunServing(const Flags& flags, const Transport& transport) {
  const net::ShardedEngineConfig config = ShardConfigFromFlags(flags);
  const int version = VersionFlag(flags);
  serve::ModelStore store(flags.Get("store", "model_store"));
  std::shared_ptr<const serve::LoadedModel> loaded =
      LoadServingModel(store, flags, version);
  if (!loaded) return 1;

  net::ShardedEngine engine(loaded, config);
  obs::ExpositionServer exposition;
  if (!MaybeStartExposition(flags, &exposition)) return 1;

  net::NdjsonDispatcher::Options options;
  options.store = &store;
  options.default_model = flags.Get("model", "LSTM");
  options.metrics_port = exposition.port();
  obs::HealthRegistry::Global().Set("serve.model", obs::HealthStatus::kOk,
                                    engine.model_name());
  const int code = transport(engine, std::move(options), loaded->pois->size());
  obs::HealthRegistry::Global().Remove("serve.model");
  return code;
}

int CmdServe(const Flags& flags) {
  return RunServing(flags, [](net::ShardedEngine& engine,
                              net::NdjsonDispatcher::Options options,
                              int num_pois) {
    std::fprintf(stderr,
                 "pa_serve: serving %s (%d POIs, %d shard%s); reading "
                 "NDJSON\n",
                 engine.model_name().c_str(), num_pois, engine.num_shards(),
                 engine.num_shards() == 1 ? "" : "s");
    net::NdjsonDispatcher dispatcher(&engine, std::move(options));
    std::string line;
    while (std::getline(std::cin, line)) {
      if (line.empty()) continue;
      bool quit = false;
      // One trace per stdin line, mirroring the TCP front-end: minted here,
      // installed around the blocking dispatch, ended once the response is
      // in hand (write-wait is meaningless on a blocking stdout).
      const obs::TraceContext trace =
          obs::SlowTraceReservoir::Global().Begin();
      std::string response;
      {
        const obs::TraceContextScope scope(trace);
        response = dispatcher.HandleLine(line, &quit);
      }
      obs::SlowTraceReservoir::Global().End(trace);
      Reply(response);
      if (quit) break;
    }
    return 0;
  });
}

// SIGINT/SIGTERM → graceful drain of the active listener. A plain pointer
// set before the handlers are installed; RequestShutdown is
// async-signal-safe by contract.
net::NdjsonServer* g_listen_server = nullptr;

void HandleListenSignal(int) {
  if (g_listen_server) g_listen_server->RequestShutdown();
}

int CmdListen(const Flags& flags) {
  const int idle_timeout_ms = static_cast<int>(
      flags.GetIntInRange("idle-timeout-ms", 60'000, 0, kMaxIdleTimeoutMs));
  return RunServing(flags, [&flags, idle_timeout_ms](
                               net::ShardedEngine& engine,
                               net::NdjsonDispatcher::Options options,
                               int num_pois) {
    net::NdjsonServer server;
    options.on_quit = [&server] { server.RequestShutdown(); };
    net::NdjsonDispatcher dispatcher(&engine, std::move(options));

    net::NdjsonServerConfig server_config;
    const long port = flags.GetInt("port", 0);
    if (port < 0 || port > 65535) {
      std::fprintf(stderr, "pa_serve: bad --port %ld\n", port);
      return 1;
    }
    server_config.port = static_cast<uint16_t>(port);
    server_config.idle_timeout_ms = idle_timeout_ms;

    std::string error;
    if (!server.Start(server_config,
                      [&dispatcher, &server](uint64_t conn, uint64_t seq,
                                             std::string line) {
                        dispatcher.HandleLineAsync(
                            std::move(line),
                            [conn, seq, &server](std::string response) {
                              server.Reply(conn, seq, std::move(response));
                            });
                      },
                      &error)) {
      std::fprintf(stderr, "pa_serve: cannot listen: %s\n", error.c_str());
      return 1;
    }

    g_listen_server = &server;
    std::signal(SIGINT, HandleListenSignal);
    std::signal(SIGTERM, HandleListenSignal);

    // Machine-parseable (tier1 listen smoke and perfbench read this line
    // to find the ephemeral port).
    std::fprintf(stderr,
                 "pa_serve: listening on 127.0.0.1:%u (%s, %d POIs, %d "
                 "shard%s)\n",
                 static_cast<unsigned>(server.port()),
                 engine.model_name().c_str(), num_pois, engine.num_shards(),
                 engine.num_shards() == 1 ? "" : "s");
    std::fflush(stderr);

    server.Wait();
    g_listen_server = nullptr;
    std::fprintf(stderr, "pa_serve: drained, shutting down\n");
    return 0;
  });
}

int CmdSlowz(const Flags& flags) {
  const long port = flags.GetInt("port", 0);
  if (port <= 0 || port > 65535) {
    std::fprintf(stderr,
                 "pa_serve: slowz requires --port N (the server's "
                 "--metrics-port; with --metrics-port=0 read the bound port "
                 "from the stats op's \"metrics_port\" field)\n");
    return 2;
  }
  std::string error;
  const int fd = net::ConnectTcp(static_cast<uint16_t>(port), &error);
  if (fd < 0) {
    std::fprintf(stderr, "pa_serve: cannot connect to 127.0.0.1:%ld: %s\n",
                 port, error.c_str());
    return 1;
  }
  const std::string request =
      "GET /slowz HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n";
  if (!net::SendAll(fd, request.data(), request.size())) {
    std::fprintf(stderr, "pa_serve: cannot send request to 127.0.0.1:%ld\n",
                 port);
    close(fd);
    return 1;
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = read(fd, buf, sizeof(buf));
    if (n > 0) {
      response.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;  // EOF (Connection: close) or error; either way we have the body.
  }
  close(fd);

  const size_t header_end = response.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    std::fprintf(stderr, "pa_serve: malformed HTTP response from port %ld\n",
                 port);
    return 1;
  }
  const std::string status_line =
      response.substr(0, response.find("\r\n"));
  if (status_line.find(" 200 ") == std::string::npos) {
    std::fprintf(stderr, "pa_serve: /slowz answered \"%s\"\n",
                 status_line.c_str());
    return 1;
  }
  std::fputs(response.c_str() + header_end + 4, stdout);
  return 0;
}

int CmdStats(const Flags& flags) {
  const int probe_users =
      static_cast<int>(flags.GetIntInRange("probe", 4, 1, kMaxProbeUsers));
  const int version = VersionFlag(flags);
  serve::ModelStore store(flags.Get("store", "model_store"));
  std::shared_ptr<const serve::LoadedModel> loaded =
      LoadServingModel(store, flags, version);
  if (!loaded) return 1;

  const int num_pois = loaded->pois->size();
  // The probe runs through a one-shard router, as `serve` does by default,
  // so its instruments carry the unsharded serve.* names.
  net::ShardedEngine engine(loaded);
  // Only the pool's constructor registers the util.pool.* instruments, and
  // nothing on the probe path constructs it.
  util::GlobalPool();

  // Drive a tiny deterministic probe workload so every serving-side
  // instrument (request counters, latency histogram, session gauges)
  // reflects real traffic rather than printing an
  // all-zero snapshot. The before-snapshot separates the probe's own
  // contribution from pre-existing counts (a warm registry, ...):
  // "registry" is the absolute after-state, "probe_delta" is just the
  // probe.
  const obs::MetricRegistry::Snapshot before =
      obs::MetricRegistry::Global().TakeSnapshot();
  for (int user = 0; user < probe_users; ++user) {
    for (int step = 0; step < 2; ++step) {
      poi::Checkin checkin;
      checkin.user = user;
      checkin.poi = (user * 7 + step * 3) % std::max(1, num_pois);
      checkin.timestamp = 3600 * (step + 1);
      engine.Observe(checkin);
    }
  }
  for (int user = 0; user < probe_users; ++user) {
    serve::TopKRequest request;
    request.user = user;
    request.k = 5;
    request.next_timestamp = 3600 * 3;
    engine.TopK(request);
  }

  const obs::MetricRegistry::Snapshot after =
      obs::MetricRegistry::Global().TakeSnapshot();
  obs::JsonWriter w;
  w.BeginObject()
      .Field("ok", true)
      .Field("model", engine.model_name())
      .Field("probe_users", int64_t{probe_users})
      .RawField("stats", engine.Stats().engine.ToJson())
      .RawField("registry", obs::SnapshotToJson(after))
      .RawField("probe_delta", obs::SnapshotDeltaJson(before, after))
      .EndObject();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

/// A subcommand and every flag it reads.
struct Command {
  const char* name;
  int (*run)(const Flags&);
  std::vector<std::string> flags;
};

const std::vector<Command>& Commands() {
  static const std::vector<Command> commands = {
      {"publish", CmdPublish,
       {"store", "method", "csv", "seed", "epochs-scale", "users", "pois",
        "profile"}},
      {"list", CmdList, {"store"}},
      {"activate", CmdActivate, {"store", "model", "version"}},
      {"serve", CmdServe,
       {"store", "model", "version", "deadline-ms", "shards",
        "queue-capacity", "metrics-port"}},
      {"listen", CmdListen,
       {"store", "model", "version", "port", "shards", "deadline-ms",
        "queue-capacity", "idle-timeout-ms", "metrics-port"}},
      {"slowz", CmdSlowz, {"port"}},
      {"stats", CmdStats, {"store", "model", "version", "probe"}},
  };
  return commands;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string name = argv[1];
  const auto& commands = Commands();
  const auto command =
      std::find_if(commands.begin(), commands.end(),
                   [&name](const Command& c) { return name == c.name; });
  if (command == commands.end()) return Usage();
  Flags flags;
  if (!ParseFlags(argc, argv, 2, &flags)) return 2;
  for (const auto& [key, value] : flags.values) {
    if (std::find(command->flags.begin(), command->flags.end(), key) ==
        command->flags.end()) {
      std::fprintf(stderr, "pa_serve: unknown flag --%s for %s\n",
                   key.c_str(), command->name);
      return 2;
    }
  }
  // PA_OBS_TIMESERIES=<path>: continuous registry sampling for any
  // subcommand (most useful under `serve`, but `publish` training runs
  // produce a time series too).
  obs::TelemetrySampler::MaybeStartFromEnv();
  return command->run(flags);
}
