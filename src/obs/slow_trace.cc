#include "obs/slow_trace.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "obs/json.h"
#include "obs/metrics.h"

namespace pa::obs {

namespace {

// Minting volume and capture outcomes as registry counters, so a scrape can
// tell "no slow traces" apart from "tracing disabled / slots exhausted".
struct ReservoirInstruments {
  Counter& started;
  Counter& captured;
  Counter& slots_busy;

  static ReservoirInstruments& Get() {
    static ReservoirInstruments instruments{
        MetricRegistry::Global().GetCounter("obs.trace.requests_total"),
        MetricRegistry::Global().GetCounter("obs.trace.slow_captured_total"),
        MetricRegistry::Global().GetCounter("obs.trace.slots_busy_total")};
    return instruments;
  }
};

bool RequestTracingDefault() {
  const char* env = std::getenv("PA_TRACE_REQUESTS");
  if (env == nullptr) return true;
  return !(std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0 ||
           std::strcmp(env, "false") == 0);
}

std::atomic<bool>& RequestTracingFlag() {
  static std::atomic<bool> flag{RequestTracingDefault()};
  return flag;
}

}  // namespace

bool RequestTracingEnabled() {
  return RequestTracingFlag().load(std::memory_order_relaxed);
}

void SetRequestTracingEnabled(bool on) {
  RequestTracingFlag().store(on, std::memory_order_relaxed);
}

SlowTraceReservoir::SlowTraceReservoir() = default;

SlowTraceReservoir& SlowTraceReservoir::Global() {
  // Leaked: spans may be recorded from worker threads during static
  // teardown (same lifetime rule as the trace ring buffers).
  static SlowTraceReservoir* reservoir = new SlowTraceReservoir;
  return *reservoir;
}

TraceContext SlowTraceReservoir::Begin(const char* root_name) {
  if (!RequestTracingEnabled()) return {};
  const uint32_t start = next_slot_.fetch_add(1, std::memory_order_relaxed);
  for (uint32_t i = 0; i < kSlots; ++i) {
    const uint32_t index = (start + i) % kSlots;
    Slot& slot = slots_[index];
    uint64_t expected = 0;
    // Claim with a sentinel first: the trace id embeds the per-slot
    // generation, which only the claimer may advance.
    if (!slot.owner.compare_exchange_strong(expected, 1,
                                            std::memory_order_acq_rel)) {
      continue;
    }
    // generation >= 1 keeps every trace id >= kSlots (> the sentinel).
    const uint64_t trace_id = ++slot.generation * kSlots + index;
    const uint64_t root = internal::NextSpanId();
    {
      std::lock_guard<std::mutex> lock(slot.mu);
      slot.root_name = root_name;
      slot.root_span = root;
      slot.start_ns = internal::NowNs();
      slot.dropped = 0;
      slot.spans.clear();
    }
    slot.owner.store(trace_id, std::memory_order_release);
    ReservoirInstruments::Get().started.Increment();
    return TraceContext{trace_id, root};
  }
  ReservoirInstruments::Get().slots_busy.Increment();
  return {};
}

void SlowTraceReservoir::Append(uint64_t trace_id, const TraceEvent& event) {
  Slot& slot = SlotFor(trace_id);
  std::lock_guard<std::mutex> lock(slot.mu);
  // Stale spans — work that outlived its request's End — are discarded
  // rather than polluting the slot's next occupant.
  if (slot.owner.load(std::memory_order_acquire) != trace_id) return;
  if (slot.spans.size() >= kMaxSpansPerTrace) {
    ++slot.dropped;
    return;
  }
  slot.spans.push_back(event);
}

void SlowTraceReservoir::End(const TraceContext& ctx, uint64_t end_ns) {
  if (!ctx.active()) return;
  Slot& slot = SlotFor(ctx.trace_id);
  const char* root_name = nullptr;
  uint64_t start_ns = 0;
  uint64_t root_span = 0;
  {
    std::lock_guard<std::mutex> lock(slot.mu);
    if (slot.owner.load(std::memory_order_acquire) != ctx.trace_id) return;
    root_name = slot.root_name;
    start_ns = slot.start_ns;
    root_span = slot.root_span;
  }
  if (end_ns == 0) end_ns = internal::NowNs();
  // The root span goes through the normal record path so it reaches the
  // ring buffers too; Append routes its trace copy into this slot.
  internal::RecordSpan(root_name, start_ns, end_ns, root_span, ctx.trace_id,
                       /*parent_id=*/0);

  const uint64_t total_ns = end_ns >= start_ns ? end_ns - start_ns : 0;
  const uint64_t floor = floor_ns_.load(std::memory_order_relaxed);
  std::shared_ptr<CompletedTrace> trace;
  {
    std::lock_guard<std::mutex> lock(slot.mu);
    if (slot.owner.load(std::memory_order_acquire) != ctx.trace_id) return;
    if (floor == 0 || total_ns > floor) {
      // Slow enough to matter: harvest the span tree before freeing.
      trace = std::make_shared<CompletedTrace>();
      trace->spans = std::move(slot.spans);
      trace->spans_dropped = slot.dropped;
    }
    slot.spans.clear();
    slot.owner.store(0, std::memory_order_release);
  }
  if (!trace) return;  // Fast reject: faster than the K-th worst.
  trace->trace_id = ctx.trace_id;
  trace->root_span = root_span;
  trace->start_ns = start_ns;
  trace->total_ns = total_ns;
  Publish(std::move(trace));
}

void SlowTraceReservoir::Abort(const TraceContext& ctx) {
  if (!ctx.active()) return;
  Slot& slot = SlotFor(ctx.trace_id);
  std::lock_guard<std::mutex> lock(slot.mu);
  if (slot.owner.load(std::memory_order_acquire) != ctx.trace_id) return;
  slot.spans.clear();
  slot.owner.store(0, std::memory_order_release);
}

void SlowTraceReservoir::Publish(std::shared_ptr<const CompletedTrace> trace) {
  std::lock_guard<std::mutex> lock(worst_mu_);
  // The first empty entry, else the fastest retained trace.
  int victim = 0;
  for (int i = 0; i < kWorst; ++i) {
    if (!worst_[i]) {
      victim = i;
      break;
    }
    if (worst_[i]->total_ns < worst_[victim]->total_ns) victim = i;
  }
  if (worst_[victim] && trace->total_ns <= worst_[victim]->total_ns) return;
  worst_[victim] = std::move(trace);
  ReservoirInstruments::Get().captured.Increment();
  RecomputeFloorLocked();
}

void SlowTraceReservoir::RecomputeFloorLocked() {
  uint64_t floor = UINT64_MAX;
  for (int i = 0; i < kWorst; ++i) {
    if (!worst_[i]) return;  // Not warm yet: every completed trace enters.
    floor = std::min(floor, worst_[i]->total_ns);
  }
  // End reads the floor without the lock. A stale (lower) value only lets
  // an extra candidate through to Publish, which re-checks under the lock.
  floor_ns_.store(floor, std::memory_order_relaxed);
}

std::vector<std::shared_ptr<const CompletedTrace>>
SlowTraceReservoir::WorstTraces() const {
  std::vector<std::shared_ptr<const CompletedTrace>> traces;
  traces.reserve(kWorst);
  {
    std::lock_guard<std::mutex> lock(worst_mu_);
    for (const auto& entry : worst_) {
      if (entry) traces.push_back(entry);
    }
  }
  std::sort(traces.begin(), traces.end(),
            [](const auto& a, const auto& b) {
              return a->total_ns != b->total_ns ? a->total_ns > b->total_ns
                                                : a->trace_id < b->trace_id;
            });
  return traces;
}

std::shared_ptr<const CompletedTrace> SlowTraceReservoir::Find(
    uint64_t trace_id) const {
  std::lock_guard<std::mutex> lock(worst_mu_);
  for (const auto& entry : worst_) {
    if (entry && entry->trace_id == trace_id) return entry;
  }
  return nullptr;
}

std::string SlowTraceReservoir::Json() const {
  const auto traces = WorstTraces();
  JsonWriter w;
  w.BeginObject()
      .Field("k", kWorst)
      .FieldMicros("floor_us", floor_ns())
      .BeginArray("traces");
  for (const auto& trace : traces) {
    w.BeginObject()
        .Field("trace", TraceIdHex(trace->trace_id))
        .Field("root", trace->root_span)
        .FieldMicros("start_us", trace->start_ns)
        .FieldMicros("total_us", trace->total_ns)
        .Field("spans_dropped", trace->spans_dropped)
        .BeginArray("spans");
    for (const TraceEvent& e : trace->spans) {
      w.BeginObject()
          .Field("name", e.name != nullptr ? e.name : "?")
          .FieldMicros("ts_us", e.start_ns)
          .FieldMicros("dur_us", e.dur_ns)
          .Field("tid", uint64_t{e.tid})
          .Field("id", e.id)
          .Field("parent", e.parent_id)
          .EndObject();
    }
    w.EndArray().EndObject();
  }
  w.EndArray().EndObject();
  return w.str();
}

void SlowTraceReservoir::Clear() {
  std::lock_guard<std::mutex> lock(worst_mu_);
  floor_ns_.store(0, std::memory_order_relaxed);
  for (auto& entry : worst_) entry = nullptr;
}

}  // namespace pa::obs
