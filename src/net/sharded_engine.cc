#include "net/sharded_engine.h"

#include <algorithm>
#include <future>

#include "obs/trace.h"
#include "tensor/tensor.h"
#include "util/thread_pool.h"

namespace pa::net {

namespace {

// Ring-point hash for (shard, vnode): mixing the pair through SplitMix64
// gives points that are stable across runs and uncorrelated across shards.
uint64_t RingPoint(int shard, int vnode) {
  return util::SplitMix64((static_cast<uint64_t>(shard) << 32) |
                          static_cast<uint32_t>(vnode));
}

uint64_t UserPoint(int32_t user) {
  // Salted so the user ring and the vnode ring draw from different streams.
  return util::SplitMix64(static_cast<uint64_t>(static_cast<uint32_t>(user)) +
                          0xA5C3D2E1B4F69788ULL);
}

// Stage attribution (DESIGN.md "Request tracing"): queue wait and model
// compute per dequeued task, as registry-owned histograms (immortal — shard
// engines come and go in tests) with the stage span as exemplar.
struct StageInstruments {
  obs::Histogram& queue_wait_us;
  obs::Histogram& compute_us;

  static StageInstruments& Get() {
    static StageInstruments instruments{
        obs::MetricRegistry::Global().GetHistogram("net.queue_wait_us"),
        obs::MetricRegistry::Global().GetHistogram("serve.compute_us")};
    return instruments;
  }
};

// The queue-wait stage: synthesized from the enqueue stamp (caller thread)
// and now (worker thread) — no RAII scope can straddle that boundary.
void RecordQueueWait(const obs::TraceContext& trace,
                     std::chrono::steady_clock::time_point enqueue,
                     std::chrono::steady_clock::time_point dequeue) {
  const uint64_t span = obs::RecordStageSpan(
      "net.queue_wait", obs::ToTraceNs(enqueue), obs::ToTraceNs(dequeue),
      trace);
  StageInstruments::Get().queue_wait_us.RecordWithExemplar(
      std::chrono::duration<double, std::micro>(dequeue - enqueue).count(),
      span);
}

}  // namespace

ShardRing::ShardRing(int num_shards, int vnodes_per_shard)
    : num_shards_(std::max(1, num_shards)) {
  const int vnodes = std::max(1, vnodes_per_shard);
  ring_.reserve(static_cast<size_t>(num_shards_) * vnodes);
  for (int s = 0; s < num_shards_; ++s) {
    for (int v = 0; v < vnodes; ++v) {
      ring_.emplace_back(RingPoint(s, v), s);
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

int ShardRing::ShardForUser(int32_t user) const {
  const uint64_t h = UserPoint(user);
  // First ring point clockwise from h (wrap to the start past the end).
  auto it = std::upper_bound(ring_.begin(), ring_.end(),
                             std::make_pair(h, num_shards_));
  if (it == ring_.end()) it = ring_.begin();
  return it->second;
}

ShardedEngine::ShardedEngine(std::shared_ptr<const serve::LoadedModel> model,
                             ShardedEngineConfig config)
    : config_(config),
      ring_(std::max(1, config.num_shards), config.vnodes_per_shard) {
  const int num_shards = ring_.num_shards();
  // The session memory budget is process-wide: each shard's store gets an
  // equal slice, so K shards hold about as many live sessions in total as
  // one unsharded engine under the same config.
  serve::EngineConfig engine_config;
  engine_config.deadline_ms = config_.deadline_ms;
  engine_config.sessions = config_.sessions;
  engine_config.sessions.memory_cap_bytes = std::max<size_t>(
      config_.sessions.approx_session_bytes,
      config_.sessions.memory_cap_bytes / static_cast<size_t>(num_shards));

  auto& registry = obs::MetricRegistry::Global();
  shards_.reserve(static_cast<size_t>(num_shards));
  for (int i = 0; i < num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    // A single-shard deployment is metrically indistinguishable from the
    // plain engine ("serve.requests", ...); only real sharding fans the
    // names out per shard. Scrape configs written against the unsharded
    // serve loop keep working when it moves behind a 1-shard router.
    engine_config.metric_prefix =
        num_shards == 1 ? "serve." : "serve.shard" + std::to_string(i) + ".";
    shard->engine = std::make_unique<serve::Engine>(model, engine_config);
    shard->metric_prefix = "net.shard" + std::to_string(i) + ".";
    registry.RegisterCounter(shard->metric_prefix + "dispatched",
                             &shard->dispatched);
    registry.RegisterCounter(shard->metric_prefix + "shed", &shard->shed);
    registry.RegisterGauge(shard->metric_prefix + "queue_depth",
                           &shard->queue_depth);
    shards_.push_back(std::move(shard));
  }
  for (auto& shard : shards_) {
    shard->worker = std::thread(&ShardedEngine::WorkerLoop, this,
                                std::ref(*shard));
  }
}

ShardedEngine::~ShardedEngine() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->stop = true;
    shard->cv.notify_all();
  }
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
  auto& registry = obs::MetricRegistry::Global();
  for (auto& shard : shards_) {
    registry.Unregister(shard->metric_prefix + "dispatched",
                        &shard->dispatched);
    registry.Unregister(shard->metric_prefix + "shed", &shard->shed);
    registry.Unregister(shard->metric_prefix + "queue_depth",
                        &shard->queue_depth);
  }
}

bool ShardedEngine::Admit(Shard& shard, Task&& task, bool control_plane) {
  std::lock_guard<std::mutex> lock(shard.mu);
  if (!control_plane) {
    if (shard.stop) return false;
    const size_t depth = shard.queue.size();
    if (depth >= config_.queue_capacity) return false;
    if (task.kind == Task::Kind::kTopK) {
      // Deadline-aware rejection: if the requests already queued are
      // predicted to eat the whole deadline, this one would only be
      // dequeued to fail — shed it now, for free, instead.
      const double predicted_wait_us =
          static_cast<double>(depth) *
          shard.ewma_service_us.load(std::memory_order_relaxed);
      if (predicted_wait_us >
          static_cast<double>(config_.deadline_ms) * 1000.0) {
        return false;
      }
    }
  }
  shard.queue.push_back(std::move(task));
  shard.queue_depth.Set(static_cast<double>(shard.queue.size()));
  shard.cv.notify_one();
  return true;
}

void ShardedEngine::WorkerLoop(Shard& shard) {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(shard.mu);
      shard.cv.wait(lock,
                    [&] { return shard.stop || !shard.queue.empty(); });
      if (shard.queue.empty()) return;  // stop && drained
      task = std::move(shard.queue.front());
      shard.queue.pop_front();
      shard.queue_depth.Set(static_cast<double>(shard.queue.size()));
    }
    switch (task.kind) {
      case Task::Kind::kTopK: {
        // Restore the request's trace for everything this task does —
        // compute, the engine's own serve.request span, and the completion
        // callback (which serializes the response) all link under it.
        const obs::TraceContextScope trace_scope(task.trace);
        const auto t0 = Clock::now();
        RecordQueueWait(task.trace, task.enqueue, t0);
        serve::TopKResponse response;
        {
          const obs::TraceSpan compute("serve.compute");
          response = shard.engine->TopKAt(task.topk, task.enqueue);
          const double service_us =
              std::chrono::duration<double, std::micro>(Clock::now() - t0)
                  .count();
          StageInstruments::Get().compute_us.RecordWithExemplar(service_us,
                                                               compute.id());
          // EWMA with 1/8 gain: reacts within ~a dozen requests, stays
          // stable against one slow outlier. First sample seeds it directly.
          const double prev =
              shard.ewma_service_us.load(std::memory_order_relaxed);
          shard.ewma_service_us.store(
              prev == 0.0 ? service_us : prev + (service_us - prev) / 8.0,
              std::memory_order_relaxed);
        }
        if (task.topk_done) task.topk_done(std::move(response));
        break;
      }
      case Task::Kind::kObserve: {
        const obs::TraceContextScope trace_scope(task.trace);
        RecordQueueWait(task.trace, task.enqueue, Clock::now());
        serve::RequestStatus status;
        {
          const obs::TraceSpan compute("serve.compute");
          status = shard.engine->Observe(task.checkin);
        }
        if (task.observe_done) task.observe_done(status);
        break;
      }
      case Task::Kind::kSwap: {
        PA_TRACE_SPAN("net.shard.swap");
        {
          // Warm the incoming model on this worker before the flip: one
          // throwaway forward pays the lazy one-time costs (POI index
          // build, buffer-pool growth) outside any user request.
          const tensor::InferenceModeScope inference;
          std::unique_ptr<rec::RecSession> warm =
              task.model->model->NewSession(0);
          warm->TopK(1, 0);
        }
        shard.engine->SwapModel(task.model);
        if (task.swap_done) task.swap_done();
        break;
      }
    }
  }
}

void ShardedEngine::TopKAsync(const serve::TopKRequest& request,
                              TopKCallback done) {
  Shard& shard = *shards_[static_cast<size_t>(ring_.ShardForUser(request.user))];
  Task task;
  task.kind = Task::Kind::kTopK;
  task.topk = request;
  task.topk_done = std::move(done);
  task.enqueue = Clock::now();
  task.trace = obs::CurrentTraceContext();
  if (!Admit(shard, std::move(task), /*control_plane=*/false)) {
    // Rejected: `task` was not consumed, its callback is still ours.
    shard.shed.Increment();
    serve::TopKResponse response;
    response.status = serve::RequestStatus::kOverloaded;
    if (task.topk_done) task.topk_done(std::move(response));
    return;
  }
  shard.dispatched.Increment();
}

void ShardedEngine::ObserveAsync(const poi::Checkin& checkin,
                                 ObserveCallback done) {
  Shard& shard = *shards_[static_cast<size_t>(ring_.ShardForUser(checkin.user))];
  Task task;
  task.kind = Task::Kind::kObserve;
  task.checkin = checkin;
  task.observe_done = std::move(done);
  task.enqueue = Clock::now();
  task.trace = obs::CurrentTraceContext();
  if (!Admit(shard, std::move(task), /*control_plane=*/false)) {
    shard.shed.Increment();
    if (task.observe_done) task.observe_done(serve::RequestStatus::kOverloaded);
    return;
  }
  shard.dispatched.Increment();
}

serve::TopKResponse ShardedEngine::TopK(const serve::TopKRequest& request) {
  std::promise<serve::TopKResponse> promise;
  std::future<serve::TopKResponse> future = promise.get_future();
  TopKAsync(request, [&promise](serve::TopKResponse response) {
    promise.set_value(std::move(response));
  });
  return future.get();
}

serve::RequestStatus ShardedEngine::Observe(const poi::Checkin& checkin) {
  std::promise<serve::RequestStatus> promise;
  std::future<serve::RequestStatus> future = promise.get_future();
  ObserveAsync(checkin, [&promise](serve::RequestStatus status) {
    promise.set_value(status);
  });
  return future.get();
}

void ShardedEngine::SwapModel(
    std::shared_ptr<const serve::LoadedModel> model) {
  PA_TRACE_SPAN("net.swap_model");
  std::mutex done_mu;
  std::condition_variable done_cv;
  size_t remaining = shards_.size();
  for (auto& shard : shards_) {
    Task task;
    task.kind = Task::Kind::kSwap;
    task.model = model;
    task.swap_done = [&done_mu, &done_cv, &remaining] {
      std::lock_guard<std::mutex> lock(done_mu);
      --remaining;
      done_cv.notify_one();
    };
    // Control plane: never shed — an activation must not fail because the
    // data plane is busy (it is exactly then that a rollback matters).
    Admit(*shard, std::move(task), /*control_plane=*/true);
  }
  std::unique_lock<std::mutex> lock(done_mu);
  done_cv.wait(lock, [&] { return remaining == 0; });
}

std::string ShardedEngine::model_name() const {
  return shards_.front()->engine->model_name();
}

ShardStats ShardedEngine::StatsForShard(int shard_index) const {
  const Shard& shard = *shards_[static_cast<size_t>(shard_index)];
  ShardStats stats;
  stats.engine = shard.engine->Stats();
  stats.dispatched = shard.dispatched.value();
  stats.shed = shard.shed.value();
  stats.ewma_service_us =
      shard.ewma_service_us.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    stats.queue_depth = shard.queue.size();
  }
  return stats;
}

ShardStats ShardedEngine::Stats() const {
  ShardStats total;
  for (int i = 0; i < num_shards(); ++i) {
    const ShardStats s = StatsForShard(i);
    total.engine.requests += s.engine.requests;
    total.engine.timeouts += s.engine.timeouts;
    total.engine.session_hits += s.engine.session_hits;
    total.engine.session_misses += s.engine.session_misses;
    total.engine.session_evictions += s.engine.session_evictions;
    total.engine.live_sessions += s.engine.live_sessions;
    total.engine.p50_micros = std::max(total.engine.p50_micros, s.engine.p50_micros);
    total.engine.p95_micros = std::max(total.engine.p95_micros, s.engine.p95_micros);
    total.engine.p99_micros = std::max(total.engine.p99_micros, s.engine.p99_micros);
    total.dispatched += s.dispatched;
    total.shed += s.shed;
    total.queue_depth += s.queue_depth;
    total.ewma_service_us = std::max(total.ewma_service_us, s.ewma_service_us);
  }
  return total;
}

}  // namespace pa::net
