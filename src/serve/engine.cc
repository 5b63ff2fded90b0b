#include "serve/engine.h"

#include "obs/json.h"
#include "obs/trace.h"

namespace pa::serve {

const char* RequestStatusName(RequestStatus status) {
  switch (status) {
    case RequestStatus::kOk: return "ok";
    case RequestStatus::kDeadlineExceeded: return "deadline_exceeded";
    case RequestStatus::kInvalidArgument: return "invalid_argument";
    case RequestStatus::kOverloaded: return "overloaded";
    case RequestStatus::kUnknownUser: return "unknown_user";
  }
  return "unknown";
}

const char* RequestStatusCode(RequestStatus status) {
  if (status == RequestStatus::kInvalidArgument) return "bad_request";
  return RequestStatusName(status);
}

std::string EngineStats::ToJson() const {
  obs::JsonWriter w;
  w.BeginObject()
      .Field("requests", requests)
      .Field("timeouts", timeouts)
      .Field("session_hits", session_hits)
      .Field("session_misses", session_misses)
      .Field("session_evictions", session_evictions)
      .Field("live_sessions", live_sessions)
      .Field("p50_micros", p50_micros)
      .Field("p95_micros", p95_micros)
      .Field("p99_micros", p99_micros)
      .EndObject();
  return w.str();
}

Engine::Engine(std::shared_ptr<const LoadedModel> model, EngineConfig config)
    : model_(std::move(model)),
      config_(config),
      sessions_(model_, config_.sessions) {
  // Expose this engine's instruments process-wide. The session gauges are
  // callbacks, sampled at snapshot time from the store's atomics.
  auto& registry = obs::MetricRegistry::Global();
  const std::string& prefix = config_.metric_prefix;
  registry.RegisterCounter(prefix + "requests", &requests_);
  registry.RegisterCounter(prefix + "timeouts", &timeouts_);
  registry.RegisterHistogram(prefix + "latency_us", &latency_);
  auto session_stat = [this](uint64_t SessionStoreStats::*field) {
    return [this, field] {
      return static_cast<double>(sessions_.Stats().*field);
    };
  };
  registry.RegisterCallbackGauge(prefix + "sessions.live", this,
                                 session_stat(&SessionStoreStats::live_sessions));
  registry.RegisterCallbackGauge(prefix + "sessions.hits", this,
                                 session_stat(&SessionStoreStats::hits));
  registry.RegisterCallbackGauge(prefix + "sessions.misses", this,
                                 session_stat(&SessionStoreStats::misses));
  registry.RegisterCallbackGauge(prefix + "sessions.evictions", this,
                                 session_stat(&SessionStoreStats::evictions));
}

Engine::~Engine() {
  auto& registry = obs::MetricRegistry::Global();
  const std::string& prefix = config_.metric_prefix;
  registry.Unregister(prefix + "requests", &requests_);
  registry.Unregister(prefix + "timeouts", &timeouts_);
  registry.Unregister(prefix + "latency_us", &latency_);
  registry.Unregister(prefix + "sessions.live", this);
  registry.Unregister(prefix + "sessions.hits", this);
  registry.Unregister(prefix + "sessions.misses", this);
  registry.Unregister(prefix + "sessions.evictions", this);
}

RequestStatus Engine::Observe(const poi::Checkin& checkin) {
  PA_TRACE_SPAN("serve.observe");
  // Every model indexes its tables by POI id; an id the table does not
  // hold must never reach the history a session is rebuilt from.
  if (checkin.poi < 0 || checkin.poi >= model_->pois->size()) {
    return RequestStatus::kInvalidArgument;
  }
  sessions_.Observe(checkin);
  return RequestStatus::kOk;
}

TopKResponse Engine::TopKAt(const TopKRequest& request,
                            Clock::time_point enqueue) {
  // Named span (not PA_TRACE_SPAN): its id feeds the latency histogram as
  // an exemplar, so a p99 in `pa_serve stats` or /metrics links back to
  // this request's span in the PA_OBS_TRACE dump. id() is 0 when tracing
  // is off, which degrades to a plain Record.
  const obs::TraceSpan span("serve.request");
  const auto deadline =
      enqueue + std::chrono::milliseconds(config_.deadline_ms);
  TopKResponse response;
  requests_.Increment();

  auto finish = [&](Clock::time_point now) {
    response.latency_micros =
        std::chrono::duration<double, std::micro>(now - enqueue).count();
    latency_.RecordWithExemplar(response.latency_micros, span.id());
  };

  if (request.k <= 0) {
    response.status = RequestStatus::kInvalidArgument;
    finish(Clock::now());
    return response;
  }
  // Skip check: still queued past the deadline → fail fast, don't occupy
  // the session (the expensive part) at all.
  if (Clock::now() >= deadline) {
    response.status = RequestStatus::kDeadlineExceeded;
    timeouts_.Increment();
    finish(Clock::now());
    return response;
  }
  if (request.strict && !sessions_.HasHistory(request.user)) {
    response.status = RequestStatus::kUnknownUser;
    finish(Clock::now());
    return response;
  }
  std::vector<int32_t> pois =
      sessions_.TopK(request.user, request.k, request.next_timestamp);

  const auto now = Clock::now();
  if (now > deadline) {
    // Finished late: the work ran to completion (deadlines are checked,
    // never interrupt), but the caller contract is "answer by the deadline
    // or admit you didn't".
    response.status = RequestStatus::kDeadlineExceeded;
    timeouts_.Increment();
  } else {
    response.status = RequestStatus::kOk;
    response.pois = std::move(pois);
  }
  finish(now);
  return response;
}

TopKResponse Engine::TopK(const TopKRequest& request) {
  return TopKAt(request, Clock::now());
}

void Engine::SwapModel(std::shared_ptr<const LoadedModel> model) {
  model_ = std::move(model);
  sessions_.Clear(model_);
}

EngineStats Engine::Stats() const {
  EngineStats stats;
  stats.requests = requests_.value();
  stats.timeouts = timeouts_.value();
  const SessionStoreStats s = sessions_.Stats();
  stats.session_hits = s.hits;
  stats.session_misses = s.misses;
  stats.session_evictions = s.evictions;
  stats.live_sessions = s.live_sessions;
  // One consistent digest: count and percentiles from the same bucket
  // snapshot (the old two-counter design could be observed torn mid-Reset).
  const obs::HistogramStats latency = latency_.Stats();
  stats.p50_micros = latency.p50;
  stats.p95_micros = latency.p95;
  stats.p99_micros = latency.p99;
  return stats;
}

}  // namespace pa::serve
