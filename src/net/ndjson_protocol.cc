#include "net/ndjson_protocol.h"

#include <chrono>
#include <future>
#include <map>
#include <utility>

#include "obs/trace.h"
#include "serve/json.h"
#include "util/thread_pool.h"

namespace pa::net {

namespace {

// Parse/serialize stage attribution; registry-owned so dispatchers can come
// and go (tests) while the histograms accumulate.
struct DispatchInstruments {
  obs::Histogram& parse_us;
  obs::Histogram& serialize_us;

  static DispatchInstruments& Get() {
    static DispatchInstruments instruments{
        obs::MetricRegistry::Global().GetHistogram("net.parse_us"),
        obs::MetricRegistry::Global().GetHistogram("net.serialize_us")};
    return instruments;
  }
};

// Elapsed µs against an explicit start (stage histograms record whether or
// not any tracing switch is on).
double MicrosSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// The echoed correlation id, if the request carried one. Kept as the raw
// JsonValue so a string id comes back as a string and a numeric id as a
// number: an integer when it fits int64, else the double it parsed as.
void EchoId(serve::JsonWriter& w, const serve::JsonValue& id) {
  int64_t integral = 0;
  switch (id.type) {
    case serve::JsonValue::Type::kString:
      w.Field("id", id.string);
      break;
    case serve::JsonValue::Type::kNumber:
      if (id.ToInt(&integral)) {
        w.Field("id", integral);
      } else {
        w.Field("id", id.number);
      }
      break;
    default:
      break;  // No id (or an unechoable bool/null): omit the field.
  }
}

// Reads integer request field `key` through JsonValue::ToInt. An absent or
// null optional field leaves `*out` at its default; a present one must be
// an integral number within Int's range. False means bad_request.
template <typename Int>
bool IntField(const std::map<std::string, serve::JsonValue>& request,
              const char* key, bool required, Int* out) {
  const auto it = request.find(key);
  if (it == request.end() || it->second.type == serve::JsonValue::Type::kNull) {
    return !required;
  }
  return it->second.ToInt(out);
}

// Timestamps must also lie within ±2^53 s: each such integer is exact in
// the double the parser read, and no difference between two of them (the
// models take Δt) can overflow int64.
bool TimestampField(const std::map<std::string, serve::JsonValue>& request,
                    int64_t* out) {
  constexpr int64_t kMaxTimestamp = int64_t{1} << 53;
  return IntField(request, "timestamp", /*required=*/false, out) &&
         *out >= -kMaxTimestamp && *out <= kMaxTimestamp;
}

// Every envelope echoes the request's trace id ("trace":"<hex>") when one
// is active on the building thread — the shard worker restores the minted
// context before completion callbacks run, so a client-observed outlier can
// be looked up directly on /slowz.
void EchoTrace(serve::JsonWriter& w) {
  const obs::TraceContext ctx = obs::CurrentTraceContext();
  if (ctx.active()) w.Field("trace", obs::TraceIdHex(ctx.trace_id));
}

std::string ErrorLine(const char* code, const std::string& detail,
                      const serve::JsonValue& id) {
  serve::JsonWriter w;
  w.BeginObject().Field("ok", false).Field("code", code).Field("error",
                                                               detail);
  EchoId(w, id);
  EchoTrace(w);
  w.EndObject();
  return w.str();
}

std::string StatusErrorLine(serve::RequestStatus status,
                            const serve::JsonValue& id) {
  return ErrorLine(serve::RequestStatusCode(status),
                   serve::RequestStatusName(status), id);
}

std::string OkLine(const serve::JsonValue& id) {
  serve::JsonWriter w;
  w.BeginObject().Field("ok", true).Field("status", "ok");
  EchoId(w, id);
  EchoTrace(w);
  w.EndObject();
  return w.str();
}

std::string ShardStatsJson(const ShardStats& stats) {
  serve::JsonWriter w;
  w.BeginObject()
      .Field("dispatched", stats.dispatched)
      .Field("shed", stats.shed)
      .Field("queue_depth", static_cast<uint64_t>(stats.queue_depth))
      .Field("ewma_service_us", stats.ewma_service_us)
      .RawField("engine", stats.engine.ToJson())
      .EndObject();
  return w.str();
}

}  // namespace

NdjsonDispatcher::NdjsonDispatcher(ShardedEngine* engine)
    : NdjsonDispatcher(engine, Options()) {}

NdjsonDispatcher::NdjsonDispatcher(ShardedEngine* engine, Options options)
    : engine_(engine), options_(std::move(options)) {}

void NdjsonDispatcher::HandleLineAsync(
    std::string line, std::function<void(std::string)> done) {
  std::map<std::string, serve::JsonValue> request;
  std::string parse_error;
  bool parsed;
  {
    const obs::TraceSpan parse("net.parse");
    const auto t0 = std::chrono::steady_clock::now();
    parsed = serve::ParseFlatObject(line, &request, &parse_error);
    DispatchInstruments::Get().parse_us.RecordWithExemplar(MicrosSince(t0),
                                                           parse.id());
  }
  if (!parsed) {
    done(ErrorLine("bad_request", "bad request: " + parse_error,
                   serve::JsonValue{}));
    return;
  }
  const serve::JsonValue id = request["id"];
  const std::string op = request["op"].string;

  if (op == "quit") {
    done(OkLine(id));
    if (options_.on_quit) options_.on_quit();
    return;
  }

  if (op == "observe") {
    poi::Checkin checkin;
    if (!IntField(request, "user", /*required=*/true, &checkin.user) ||
        !IntField(request, "poi", /*required=*/true, &checkin.poi) ||
        !TimestampField(request, &checkin.timestamp)) {
      done(ErrorLine("bad_request",
                     "observe requires int32 user and poi, and an integer "
                     "timestamp within +-2^53 if given",
                     id));
      return;
    }
    engine_->ObserveAsync(
        checkin, [id, done = std::move(done)](serve::RequestStatus status) {
          done(status == serve::RequestStatus::kOk ? OkLine(id)
                                                   : StatusErrorLine(status, id));
        });
    return;
  }

  if (op == "topk") {
    serve::TopKRequest topk;
    if (!IntField(request, "user", /*required=*/true, &topk.user) ||
        !IntField(request, "k", /*required=*/false, &topk.k) ||
        !TimestampField(request, &topk.next_timestamp)) {
      done(ErrorLine("bad_request",
                     "topk requires an int32 user, and an int32 k and an "
                     "integer timestamp within +-2^53 if given",
                     id));
      return;
    }
    topk.strict = request["strict"].boolean;
    engine_->TopKAsync(
        topk, [id, done = std::move(done)](serve::TopKResponse response) {
          if (response.status != serve::RequestStatus::kOk) {
            done(StatusErrorLine(response.status, id));
            return;
          }
          // Build the line inside the serialize span's scope and invoke the
          // completion after it closes: `done` may End() the trace, and an
          // End must never race a still-open span.
          std::string line;
          {
            const obs::TraceSpan serialize("net.serialize");
            const auto t0 = std::chrono::steady_clock::now();
            serve::JsonWriter w;
            w.BeginObject()
                .Field("ok", true)
                .Field("status", "ok")
                .Field("latency_micros", response.latency_micros);
            EchoId(w, id);
            EchoTrace(w);
            w.BeginArray("pois");
            for (const int32_t poi : response.pois) w.Element(int64_t{poi});
            w.EndArray().EndObject();
            line = w.str();
            DispatchInstruments::Get().serialize_us.RecordWithExemplar(
                MicrosSince(t0), serialize.id());
          }
          done(std::move(line));
        });
    return;
  }

  if (op == "stats") {
    serve::JsonWriter w;
    w.BeginObject()
        .Field("ok", true)
        .Field("status", "ok")
        .Field("model", engine_->model_name())
        .Field("shards", int64_t{engine_->num_shards()})
        .Field("metrics_port", int64_t{options_.metrics_port});
    EchoId(w, id);
    EchoTrace(w);
    w.RawField("stats", ShardStatsJson(engine_->Stats()));
    w.BeginArray("per_shard");
    for (int i = 0; i < engine_->num_shards(); ++i) {
      w.RawElement(ShardStatsJson(engine_->StatsForShard(i)));
    }
    w.EndArray();
    w.RawField("registry", obs::MetricRegistry::Global().SnapshotJson());
    w.EndObject();
    done(w.str());
    return;
  }

  if (op == "activate") {
    if (options_.store == nullptr) {
      done(ErrorLine("bad_request", "activate is not enabled (no model store)",
                     id));
      return;
    }
    const std::string model = request["model"].is_string()
                                  ? request["model"].string
                                  : options_.default_model;
    int version = -1;
    if (!IntField(request, "version", /*required=*/false, &version)) {
      done(ErrorLine("bad_request", "activate version must be an int32", id));
      return;
    }
    // Artifact loading reads and deserializes from disk — off the transport
    // thread. (With PA_THREADS=1 Submit degrades to inline execution; the
    // listener stalls for the load but stays correct.)
    serve::ModelStore* store = options_.store;
    ShardedEngine* engine = engine_;
    util::GlobalPool().Submit([store, engine, model, version, id,
                               done = std::move(done)] {
      serve::LoadedModel loaded;
      std::string error;
      const bool ok = version > 0
                          ? store->Load(model, version, &loaded, &error)
                          : store->LoadActive(model, &loaded, &error);
      if (!ok) {
        done(ErrorLine("bad_request", "cannot load \"" + model + "\": " + error,
                       id));
        return;
      }
      const int resolved =
          version > 0 ? version : store->ActiveVersion(model);
      engine->SwapModel(
          std::make_shared<const serve::LoadedModel>(std::move(loaded)));
      serve::JsonWriter w;
      w.BeginObject()
          .Field("ok", true)
          .Field("status", "ok")
          .Field("model", model)
          .Field("version", int64_t{resolved});
      EchoId(w, id);
      EchoTrace(w);
      w.EndObject();
      done(w.str());
    });
    return;
  }

  done(ErrorLine("bad_request",
                 "unknown op \"" + op +
                     "\" (observe, topk, stats, activate, quit)",
                 id));
}

std::string NdjsonDispatcher::HandleLine(const std::string& line, bool* quit) {
  if (quit) *quit = false;
  std::map<std::string, serve::JsonValue> probe;
  // Cheap pre-parse purely to detect quit without relying on the async
  // callback ordering; malformed lines fall through to the async path's
  // error envelope.
  if (serve::ParseFlatObject(line, &probe) && probe["op"].string == "quit" &&
      quit) {
    *quit = true;
  }
  std::promise<std::string> promise;
  std::future<std::string> future = promise.get_future();
  HandleLineAsync(line, [&promise](std::string response) {
    promise.set_value(std::move(response));
  });
  return future.get();
}

}  // namespace pa::net
