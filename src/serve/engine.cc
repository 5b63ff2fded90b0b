#include "serve/engine.h"

#include "obs/trace.h"
#include "serve/json.h"
#include "tensor/buffer_pool.h"
#include "tensor/tensor.h"
#include "util/thread_pool.h"

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
  JsonWriter w;
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
      sessions_(std::make_shared<SessionStore>(model_, config_.sessions)) {
  // Expose this engine's instruments process-wide. The session gauges read
  // through the current store (callbacks run at snapshot time, so they
  // follow model swaps automatically).
  auto& registry = obs::MetricRegistry::Global();
  const std::string& prefix = config_.metric_prefix;
  registry.RegisterCounter(prefix + "requests", &requests_);
  registry.RegisterCounter(prefix + "timeouts", &timeouts_);
  registry.RegisterHistogram(prefix + "latency_us", &latency_);
  auto session_stat = [this](uint64_t SessionStoreStats::*field) {
    std::shared_ptr<SessionStore> sessions;
    {
      std::lock_guard<std::mutex> lock(swap_mu_);
      sessions = sessions_;
    }
    return static_cast<double>(sessions->Stats().*field);
  };
  registry.RegisterCallbackGauge(
      prefix + "sessions.live", this,
      [session_stat] { return session_stat(&SessionStoreStats::live_sessions); });
  registry.RegisterCallbackGauge(
      prefix + "sessions.hits", this,
      [session_stat] { return session_stat(&SessionStoreStats::hits); });
  registry.RegisterCallbackGauge(
      prefix + "sessions.misses", this,
      [session_stat] { return session_stat(&SessionStoreStats::misses); });
  registry.RegisterCallbackGauge(
      prefix + "sessions.evictions", this,
      [session_stat] { return session_stat(&SessionStoreStats::evictions); });
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

std::string Engine::model_name() const {
  std::lock_guard<std::mutex> lock(swap_mu_);
  return model_->name;
}

RequestStatus Engine::Observe(const poi::Checkin& checkin) {
  PA_TRACE_SPAN("serve.observe");
  // Serving never backpropagates: model forwards under this request run on
  // the tensor engine's graph-free fast path.
  const tensor::InferenceModeScope inference;
  std::shared_ptr<const LoadedModel> model;
  std::shared_ptr<SessionStore> sessions;
  {
    std::lock_guard<std::mutex> lock(swap_mu_);
    model = model_;
    sessions = sessions_;
  }
  // Every model indexes its tables by POI id; an id the table does not
  // hold must never reach the history a session is rebuilt from.
  if (checkin.poi < 0 || checkin.poi >= model->pois->size()) {
    return RequestStatus::kInvalidArgument;
  }
  sessions->Observe(checkin);
  return RequestStatus::kOk;
}

TopKResponse Engine::Run(const TopKRequest& request,
                         Clock::time_point enqueue) {
  // Named span (not PA_TRACE_SPAN): its id feeds the latency histogram as
  // an exemplar, so a p99 in `pa_serve stats` or /metrics links back to
  // this request's span in the PA_OBS_TRACE dump. id() is 0 when tracing
  // is off, which degrades to a plain Record.
  const obs::TraceSpan span("serve.request");
  // Run executes on whatever thread carries the request (caller, pool
  // worker via TopKBatch/TopKAsync); the scope is per-thread, so it is
  // entered here rather than at the batch fan-out.
  const tensor::InferenceModeScope inference;
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

  std::shared_ptr<SessionStore> sessions;
  {
    std::lock_guard<std::mutex> lock(swap_mu_);
    sessions = sessions_;
  }
  if (request.strict && !sessions->HasHistory(request.user)) {
    response.status = RequestStatus::kUnknownUser;
    finish(Clock::now());
    return response;
  }
  std::vector<int32_t> pois =
      sessions->TopK(request.user, request.k, request.next_timestamp);

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
  // The model forward above drew from this thread's buffer pool; publish
  // the per-thread tallies (a handful of relaxed adds against cached
  // registry handles — see BufferPool::FlushStatsToRegistry).
  tensor::internal::ThisThreadPool().FlushStatsToRegistry();
  return response;
}

TopKResponse Engine::TopK(const TopKRequest& request) {
  return Run(request, Clock::now());
}

TopKResponse Engine::TopKAt(const TopKRequest& request,
                            Clock::time_point enqueue) {
  return Run(request, enqueue);
}

std::vector<TopKResponse> Engine::TopKBatch(
    const std::vector<TopKRequest>& requests) {
  const auto enqueue = Clock::now();
  std::vector<TopKResponse> responses(requests.size());
  util::GlobalPool().ParallelFor(
      0, static_cast<int64_t>(requests.size()), 1, [&](int64_t i) {
        responses[static_cast<size_t>(i)] =
            Run(requests[static_cast<size_t>(i)], enqueue);
      });
  return responses;
}

std::future<TopKResponse> Engine::TopKAsync(const TopKRequest& request) {
  const auto enqueue = Clock::now();
  auto task = std::make_shared<std::packaged_task<TopKResponse()>>(
      [this, request, enqueue] { return Run(request, enqueue); });
  std::future<TopKResponse> future = task->get_future();
  util::GlobalPool().Submit([task] { (*task)(); });
  return future;
}

void Engine::SwapModel(std::shared_ptr<const LoadedModel> model) {
  auto sessions =
      std::make_shared<SessionStore>(model, config_.sessions);
  std::lock_guard<std::mutex> lock(swap_mu_);
  model_ = std::move(model);
  sessions_ = std::move(sessions);
  // The old SessionStore dies when its last in-flight request releases it;
  // each live entry pins the old LoadedModel until then.
}

EngineStats Engine::Stats() const {
  EngineStats stats;
  stats.requests = requests_.value();
  stats.timeouts = timeouts_.value();
  std::shared_ptr<SessionStore> sessions;
  {
    std::lock_guard<std::mutex> lock(swap_mu_);
    sessions = sessions_;
  }
  const SessionStoreStats s = sessions->Stats();
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
