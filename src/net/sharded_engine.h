#ifndef PA_NET_SHARDED_ENGINE_H_
#define PA_NET_SHARDED_ENGINE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/engine.h"

namespace pa::net {

/// Consistent-hash ring mapping user ids onto shard indices.
///
/// Each shard owns kVnodesPerShard points on a 64-bit ring (SplitMix64 of
/// the (shard, vnode) pair — stable across processes and runs); a user
/// hashes to the first point clockwise from its own hash. Growing K→K+1
/// shards therefore moves only ~1/(K+1) of the users, and which shard owns
/// a user never depends on request order, arrival time, or store state.
class ShardRing {
 public:
  static constexpr int kVnodesPerShard = 64;

  explicit ShardRing(int num_shards);

  int ShardForUser(int32_t user) const;
  int num_shards() const { return num_shards_; }

 private:
  int num_shards_;
  // (ring point, shard) sorted by point.
  std::vector<std::pair<uint64_t, int>> ring_;
};

struct ShardedEngineConfig {
  int num_shards = 1;
  /// Bounded per-shard queue: requests arriving when the owning shard
  /// already holds this many are shed with kOverloaded.
  size_t queue_capacity = 256;
  /// Forwarded to every shard engine, and used by admission control: a
  /// request whose predicted queue wait (depth × EWMA service time)
  /// already exceeds the deadline is shed instead of queued — it would
  /// only time out after wasting a worker slot.
  int64_t deadline_ms = 250;
  serve::SessionStoreConfig sessions;
};

/// Per-shard view for tests and the stats op.
struct ShardStats {
  serve::EngineStats engine;
  uint64_t dispatched = 0;
  uint64_t shed = 0;
  size_t queue_depth = 0;
  double ewma_service_us = 0.0;
};

/// The in-process horizontal layer, and serving's one concurrency model: N
/// shard workers, each the single owner of a private serve::Engine (its own
/// SessionStore + LRU + instruments under "serve.shard<i>."), fed by
/// bounded queues behind a consistent-hash router.
///
/// Ownership invariant: a user's session state lives on exactly one shard
/// (ShardRing::ShardForUser), and only that shard's worker thread ever
/// calls into its engine, which therefore holds no lock; shards scale
/// across cores with zero shared write state on the request path. The
/// only cross-thread reads of an engine are `Stats()` (here, through
/// StatsForShard/Stats) and its registered instruments, all relaxed
/// atomics. The methods here may be called from any thread, except that
/// the blocking ones must not run on a shard worker.
///
/// Admission control happens on the caller's thread at enqueue: a full
/// queue, or a predicted wait beyond the deadline, sheds the request with
/// a typed kOverloaded response instead of letting the tail collapse.
/// Callbacks run on the owning shard's worker thread (or inline on the
/// caller for shed requests) — they must be cheap and must not call back
/// into blocking ShardedEngine methods.
///
/// Model activation (`SwapModel`) is zero-downtime: the new model is
/// enqueued as a control task on every shard (never shed), each worker
/// warms the model with a throwaway forward and flips its engine between
/// two requests; traffic keeps flowing on not-yet-flipped shards against
/// the old version. SwapModel returns once every shard has flipped.
class ShardedEngine {
 public:
  using TopKCallback = std::function<void(serve::TopKResponse)>;
  using ObserveCallback = std::function<void(serve::RequestStatus)>;

  ShardedEngine(std::shared_ptr<const serve::LoadedModel> model,
                ShardedEngineConfig config = {});
  /// Drains every shard queue (running the remaining tasks) and joins the
  /// workers.
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// Routes to the owning shard's queue; `done` fires on the shard worker,
  /// or inline with kOverloaded when the request is shed.
  void TopKAsync(const serve::TopKRequest& request, TopKCallback done);

  /// Routes an observe; `done` (optional) fires with the engine's status
  /// once applied (kOk, or kInvalidArgument for a POI outside the model's
  /// table), or inline with kOverloaded when shed by the bounded queue.
  void ObserveAsync(const poi::Checkin& checkin, ObserveCallback done = {});

  /// Blocking conveniences for tests and the stdin serve loop. Must not be
  /// called from a shard worker thread (they would wait on themselves).
  serve::TopKResponse TopK(const serve::TopKRequest& request);
  serve::RequestStatus Observe(const poi::Checkin& checkin);

  /// Zero-downtime activation; see the class comment. Blocks until every
  /// shard runs on `model`. Must not be called from a shard worker.
  void SwapModel(std::shared_ptr<const serve::LoadedModel> model);

  /// The model the latest SwapModel activated (the constructor's before
  /// any): every shard runs it once that SwapModel returns.
  std::string model_name() const;
  int num_shards() const { return static_cast<int>(shards_.size()); }
  int ShardForUser(int32_t user) const { return ring_.ShardForUser(user); }

  ShardStats StatsForShard(int shard) const;
  /// Aggregate across shards: sums for counters, max for percentiles (a
  /// conservative tail estimate), total queue depth.
  ShardStats Stats() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Task {
    enum class Kind { kObserve, kTopK, kSwap };
    Kind kind = Kind::kTopK;
    poi::Checkin checkin{};
    serve::TopKRequest topk{};
    TopKCallback topk_done;
    ObserveCallback observe_done;
    std::shared_ptr<const serve::LoadedModel> model;
    std::function<void()> swap_done;
    Clock::time_point enqueue{};
    /// Captured from the caller at enqueue, restored around execution on
    /// the shard worker — the trace follows the request across the queue.
    obs::TraceContext trace{};
  };

  struct Shard {
    std::unique_ptr<serve::Engine> engine;
    std::string metric_prefix;  // "net.shard<i>."
    mutable std::mutex mu;
    std::condition_variable cv;
    std::deque<Task> queue;
    bool stop = false;
    std::thread worker;
    /// EWMA of per-request service time on this shard (µs), written only
    /// by the worker, read by admission control.
    std::atomic<double> ewma_service_us{0.0};
    obs::Counter dispatched;
    obs::Counter shed;
    obs::Gauge queue_depth;
  };

  void WorkerLoop(Shard& shard);
  /// Enqueues under admission control; returns false when shed, leaving
  /// `task` intact so the caller can still fire its callback.
  bool Admit(Shard& shard, Task&& task, bool control_plane);

  ShardedEngineConfig config_;
  ShardRing ring_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Serializes SwapModel's enqueues, so concurrent activations reach every
  /// shard queue in one order, and guards model_name_.
  mutable std::mutex swap_mu_;
  std::string model_name_;
};

}  // namespace pa::net

#endif  // PA_NET_SHARDED_ENGINE_H_
