#ifndef PA_SERVE_ENGINE_H_
#define PA_SERVE_ENGINE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "serve/session_store.h"

namespace pa::serve {

/// Typed request outcome. Errors are values, not exceptions: a timed-out
/// request returns `kDeadlineExceeded` with an empty ranking and the caller
/// decides what to degrade to.
enum class RequestStatus {
  kOk = 0,
  kDeadlineExceeded,
  kInvalidArgument,
  /// Shed by admission control before reaching a worker (bounded shard
  /// queue full, or the predicted queue wait already exceeds the deadline).
  kOverloaded,
  /// A strict request named a user with no observed history.
  kUnknownUser,
};

const char* RequestStatusName(RequestStatus status);

/// The wire error code for the NDJSON response envelope (DESIGN.md
/// "Networked serving"): identical to RequestStatusName except that
/// kInvalidArgument maps to "bad_request" — the protocol does not
/// distinguish a malformed field from a malformed request line.
const char* RequestStatusCode(RequestStatus status);

struct TopKRequest {
  int32_t user = 0;
  int k = 10;
  int64_t next_timestamp = 0;
  /// Strict requests fail with kUnknownUser instead of answering a cold
  /// user from the model prior (and never instantiate a session for them).
  bool strict = false;
};

struct TopKResponse {
  RequestStatus status = RequestStatus::kOk;
  std::vector<int32_t> pois;  // Best first; empty unless kOk.
  double latency_micros = 0.0;
};

struct EngineConfig {
  /// Budget per request, measured from enqueue. A request that is still
  /// queued past its deadline is skipped (fails fast without touching the
  /// session); one that finishes late is reported as timed out. 0 fails
  /// everything — useful for drain tests.
  int64_t deadline_ms = 250;
  SessionStoreConfig sessions;
  /// Prefix for this engine's registered instrument names ("serve." →
  /// serve.requests, serve.latency_us, ...). A sharded deployment gives
  /// every shard engine its own prefix ("serve.shard0.", ...), so per-shard
  /// counters and latency histograms coexist in one registry.
  std::string metric_prefix = "serve.";
};

struct EngineStats {
  uint64_t requests = 0;
  uint64_t timeouts = 0;
  uint64_t session_hits = 0;
  uint64_t session_misses = 0;
  uint64_t session_evictions = 0;
  uint64_t live_sessions = 0;
  double p50_micros = 0.0;
  double p95_micros = 0.0;
  double p99_micros = 0.0;

  std::string ToJson() const;
};

/// The serving engine: request-level API over one active model.
///
/// Single owner, no locks: `Observe`, `TopK`, `TopKAt` and `SwapModel` run
/// on one thread at a time — a `net::ShardedEngine` shard worker, or a
/// caller that owns the engine outright. `Stats()` and the registered
/// instruments (`serve.requests`, `serve.latency_us`, the
/// `serve.sessions.*` gauges, ...) may be read from any thread: they are
/// relaxed atomics. Concurrency, admission and cross-thread model
/// activation live in `net::ShardedEngine`.
///
/// Deadlines are *checked*, at dequeue and at completion, never enforced
/// by interruption: a slow model call runs to completion and is then
/// reported as timed out.
class Engine {
 public:
  Engine(std::shared_ptr<const LoadedModel> model, EngineConfig config = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Name of the active model (owner thread only: a swap replaces it).
  const std::string& model_name() const { return model_->name; }

  /// Feeds a check-in into the user's session (and serving history).
  /// A POI outside the model's table is kInvalidArgument, rejected before
  /// anything is appended.
  RequestStatus Observe(const poi::Checkin& checkin);

  /// Answers one request synchronously.
  TopKResponse TopK(const TopKRequest& request);

  /// Like TopK, but the deadline is measured from `enqueue` rather than
  /// from the call — the entry point for external queues (shard workers)
  /// whose requests spent time waiting before reaching the engine. A
  /// request dequeued past its deadline fails fast without touching the
  /// session.
  TopKResponse TopKAt(const TopKRequest& request,
                      std::chrono::steady_clock::time_point enqueue);

  /// Switches to `model`. Sessions, histories and session counters are
  /// reset in place: state built against the old parameters is meaningless
  /// against the new ones.
  void SwapModel(std::shared_ptr<const LoadedModel> model);

  /// Safe from any thread (see the class comment).
  EngineStats Stats() const;

 private:
  using Clock = std::chrono::steady_clock;

  std::shared_ptr<const LoadedModel> model_;
  EngineConfig config_;
  SessionStore sessions_;

  // Per-engine instruments (tests rely on a fresh engine starting at zero),
  // registered with the process-wide obs::MetricRegistry under the
  // "serve.*" names so `pa_serve stats` and bench snapshots see them.
  // Last-constructed engine wins the names; the destructor unregisters.
  obs::Counter requests_;
  obs::Counter timeouts_;
  obs::Histogram latency_;
};

}  // namespace pa::serve

#endif  // PA_SERVE_ENGINE_H_
