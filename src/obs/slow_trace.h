#ifndef PA_OBS_SLOW_TRACE_H_
#define PA_OBS_SLOW_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace pa::obs {

/// Always-on capture of the K worst-latency completed request traces.
///
/// The request front-ends mint a trace per request line (`Begin`), every
/// span recorded under that trace's context is collected into a small
/// per-trace buffer, and `End` completes the trace with its wall time. A
/// completed trace enters the reservoir only if it is slower than the
/// current K-th worst — so steady-state traffic pays one relaxed load
/// against the floor and nothing else, while a genuine tail outlier's full
/// span tree (parse, queue wait, compute, serialize, write wait, and every
/// engine/tensor span that ran under it) is retained for `GET /slowz` and
/// `pa_serve slowz`, no matter whether anyone was watching when it
/// happened.
///
/// Concurrency: in-flight traces live in a fixed pool of slots (trace id ≡
/// slot index mod kSlots); appends take the owning slot's uncontended
/// mutex. The completed-trace reservoir is a small array under one mutex:
/// only a trace slower than the floor takes it (the floor check is a
/// relaxed load), and /slowz readers copy the `shared_ptr`s out under it.
///
/// Request tracing is on by default in every binary that links this layer;
/// `PA_TRACE_REQUESTS=off` (or `0`/`false`) disables minting, which turns
/// the whole subsystem into a single relaxed load per request line.
struct CompletedTrace {
  uint64_t trace_id = 0;
  uint64_t root_span = 0;
  /// Trace-epoch nanoseconds of request start / total wall time.
  uint64_t start_ns = 0;
  uint64_t total_ns = 0;
  /// Span tree, in completion order; includes the synthesized root span
  /// (named at Begin, default "net.request") covering the whole request.
  std::vector<TraceEvent> spans;
  /// Spans this trace lost to the per-trace cap.
  uint64_t spans_dropped = 0;
};

bool RequestTracingEnabled();
void SetRequestTracingEnabled(bool on);

class SlowTraceReservoir {
 public:
  /// K: completed traces retained (the K worst by total wall time).
  static constexpr int kWorst = 8;
  /// Concurrent in-flight traces; Begin past this returns an inactive
  /// context (counted on obs.trace.slots_busy_total) rather than blocking.
  static constexpr uint32_t kSlots = 64;
  /// Spans captured per trace; beyond this they are counted, not stored.
  static constexpr size_t kMaxSpansPerTrace = 96;

  static SlowTraceReservoir& Global();

  SlowTraceReservoir();
  SlowTraceReservoir(const SlowTraceReservoir&) = delete;
  SlowTraceReservoir& operator=(const SlowTraceReservoir&) = delete;

  /// Mints a new trace: claims an in-flight slot, allocates the trace id
  /// and a root span id, and returns the context to install/propagate
  /// (parent_span = the root span). Returns an inactive context when
  /// request tracing is disabled or every slot is in flight. `root_name`
  /// must be a string literal (it is stored by pointer).
  TraceContext Begin(const char* root_name = "net.request");

  /// Collects one completed span into the in-flight trace. Called from
  /// internal::RecordSpan for every span carrying a trace id; spans from a
  /// previous occupant of the slot (a trace that already ended) are
  /// silently discarded.
  void Append(uint64_t trace_id, const TraceEvent& event);

  /// Completes the trace at `end_ns` (0 = now): records the root span,
  /// frees the slot, and publishes the trace into the K-worst reservoir if
  /// it beats the current floor. No-op on inactive contexts and repeated
  /// Ends.
  void End(const TraceContext& ctx, uint64_t end_ns = 0);

  /// Frees the slot without considering the trace for the reservoir (the
  /// connection died before the response flushed).
  void Abort(const TraceContext& ctx);

  /// The retained traces, worst first, copied out under the reservoir lock.
  std::vector<std::shared_ptr<const CompletedTrace>> WorstTraces() const;

  /// The retained trace with this id, or null.
  std::shared_ptr<const CompletedTrace> Find(uint64_t trace_id) const;

  /// The /slowz body: {"k":K,"floor_us":...,"traces":[...]} with full span
  /// trees, worst first.
  std::string Json() const;

  /// Drops retained traces and resets the floor. For tests and bench arms.
  void Clear();

  /// Current reservoir floor in nanoseconds (0 until kWorst traces are
  /// retained): a completed trace at least this fast cannot enter.
  uint64_t floor_ns() const {
    return floor_ns_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    /// 0 = free, 1 = being claimed, else the owning trace id.
    std::atomic<uint64_t> owner{0};
    /// Completed claims of this slot; only the claimer writes it.
    uint64_t generation = 0;
    std::mutex mu;  // Guards everything below.
    const char* root_name = "net.request";
    uint64_t root_span = 0;
    uint64_t start_ns = 0;
    uint64_t dropped = 0;
    std::vector<TraceEvent> spans;
  };

  Slot& SlotFor(uint64_t trace_id) { return slots_[trace_id % kSlots]; }
  /// Retains `trace` in an empty entry, or in place of the fastest
  /// retained trace if `trace` is slower.
  void Publish(std::shared_ptr<const CompletedTrace> trace);
  /// Republishes floor_ns_ from worst_; the caller holds worst_mu_.
  void RecomputeFloorLocked();

  Slot slots_[kSlots];
  std::atomic<uint32_t> next_slot_{0};
  mutable std::mutex worst_mu_;  // Guards worst_.
  std::shared_ptr<const CompletedTrace> worst_[kWorst];
  std::atomic<uint64_t> floor_ns_{0};
};

}  // namespace pa::obs

#endif  // PA_OBS_SLOW_TRACE_H_
