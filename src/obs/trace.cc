#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/slow_trace.h"

namespace pa::obs {

namespace internal {
std::atomic<bool> g_tracing{false};
}  // namespace internal

namespace {

// Most recent spans kept per thread; older spans are overwritten (ring).
// 64Ki events * 48 bytes = 3 MiB per tracing thread, bounded.
constexpr size_t kMaxEventsPerThread = size_t{1} << 16;

struct ThreadTraceBuffer {
  std::mutex mu;
  std::vector<TraceEvent> events;  // Ring once it reaches the cap.
  size_t next = 0;                 // Overwrite cursor when full.
  uint64_t overwritten = 0;
  uint32_t tid = 0;
};

// All trace globals are leaked on purpose: the PA_OBS_TRACE dump runs from
// atexit, after static destructors of later-initialized translation units
// may already have run, and exited threads' buffers must survive into the
// final drain.
std::mutex& BuffersMutex() {
  static std::mutex* mu = new std::mutex;
  return *mu;
}

std::vector<std::shared_ptr<ThreadTraceBuffer>>& Buffers() {
  static auto* buffers = new std::vector<std::shared_ptr<ThreadTraceBuffer>>;
  return *buffers;
}

std::atomic<uint64_t> g_dropped_after_teardown{0};

// Ring overflow surfaced as registry instruments (satellite of the request
// tracing work): `obs.trace.dropped_total` mirrors TraceEventsDropped() and
// `obs.trace.ring_high_water` is the largest per-thread ring occupancy seen.
// Registry-owned instruments are immortal, so drop accounting keeps working
// during static teardown.
struct TraceInstruments {
  Counter& dropped;
  Gauge& ring_high_water;

  static TraceInstruments& Get() {
    static TraceInstruments instruments{
        MetricRegistry::Global().GetCounter("obs.trace.dropped_total"),
        MetricRegistry::Global().GetGauge("obs.trace.ring_high_water")};
    return instruments;
  }
};

// Teardown-safe thread-local pointer (same pattern as
// tensor::internal::t_buffer_pool): null before first span and after
// thread_local destructors; spans in either window are dropped, not
// recorded into a half-dead buffer.
thread_local ThreadTraceBuffer* t_trace_buffer = nullptr;
thread_local bool t_trace_torn_down = false;

struct TraceBufferOwner {
  std::shared_ptr<ThreadTraceBuffer> buffer;
  TraceBufferOwner() : buffer(std::make_shared<ThreadTraceBuffer>()) {
    std::lock_guard<std::mutex> lock(BuffersMutex());
    buffer->tid = static_cast<uint32_t>(Buffers().size());
    Buffers().push_back(buffer);
    t_trace_buffer = buffer.get();
  }
  ~TraceBufferOwner() {
    t_trace_buffer = nullptr;
    t_trace_torn_down = true;
    // The global Buffers() vector keeps the buffer itself alive for the
    // final drain.
  }
};

ThreadTraceBuffer* ThisThreadBuffer() {
  ThreadTraceBuffer* buf = t_trace_buffer;
  if (buf != nullptr) return buf;
  if (t_trace_torn_down) return nullptr;
  thread_local TraceBufferOwner owner;
  return owner.buffer.get();
}

std::chrono::steady_clock::time_point TraceEpoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

// Force the epoch anchor before any span math happens.
[[maybe_unused]] const auto g_epoch_anchor = TraceEpoch();

}  // namespace

namespace internal {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - TraceEpoch())
          .count());
}

uint64_t NextSpanId() {
  static std::atomic<uint64_t> g_next_span_id{1};
  return g_next_span_id.fetch_add(1, std::memory_order_relaxed);
}

void RecordSpan(const char* name, uint64_t start_ns, uint64_t end_ns,
                uint64_t id, uint64_t trace_id, uint64_t parent_id) {
  ThreadTraceBuffer* buf = ThisThreadBuffer();

  TraceEvent event;
  event.name = name;
  event.start_ns = start_ns;
  event.dur_ns = end_ns >= start_ns ? end_ns - start_ns : 0;
  event.tid = buf != nullptr ? buf->tid : 0;
  event.id = id;
  event.trace_id = trace_id;
  event.parent_id = parent_id;

  // Request-trace capture first: it must see the span even when the ring
  // buffers are off (the always-on slow-request reservoir rides on it).
  if (trace_id != 0) SlowTraceReservoir::Global().Append(trace_id, event);

  if (!g_tracing.load(std::memory_order_relaxed)) return;
  if (buf == nullptr) {
    g_dropped_after_teardown.fetch_add(1, std::memory_order_relaxed);
    TraceInstruments::Get().dropped.Increment();
    return;
  }
  std::lock_guard<std::mutex> lock(buf->mu);
  if (buf->events.size() < kMaxEventsPerThread) {
    buf->events.push_back(event);
    TraceInstruments::Get().ring_high_water.UpdateMax(
        static_cast<double>(buf->events.size()));
  } else {
    buf->events[buf->next] = event;
    buf->next = (buf->next + 1) % kMaxEventsPerThread;
    ++buf->overwritten;
    TraceInstruments::Get().dropped.Increment();
  }
}

}  // namespace internal

void SetTracingEnabled(bool on) {
  internal::g_tracing.store(on, std::memory_order_relaxed);
}

uint64_t TraceClockNs() { return internal::NowNs(); }

uint64_t ToTraceNs(std::chrono::steady_clock::time_point tp) {
  const auto since_epoch = tp - TraceEpoch();
  if (since_epoch.count() < 0) return 0;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(since_epoch)
          .count());
}

uint64_t RecordStageSpan(const char* name, uint64_t start_ns, uint64_t end_ns,
                         const TraceContext& ctx) {
  if (ctx.trace_id == 0 &&
      !internal::g_tracing.load(std::memory_order_relaxed)) {
    return 0;
  }
  const uint64_t id = internal::NextSpanId();
  internal::RecordSpan(name, start_ns, end_ns, id, ctx.trace_id,
                       ctx.parent_span);
  return id;
}

std::vector<TraceEvent> DrainTraceEvents() {
  std::vector<std::shared_ptr<ThreadTraceBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(BuffersMutex());
    buffers = Buffers();
  }
  std::vector<TraceEvent> events;
  for (const auto& buf : buffers) {
    std::lock_guard<std::mutex> lock(buf->mu);
    // Ring order: oldest surviving event first.
    for (size_t i = 0; i < buf->events.size(); ++i) {
      events.push_back(buf->events[(buf->next + i) % buf->events.size()]);
    }
    buf->events.clear();
    buf->next = 0;
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                              : a.dur_ns > b.dur_ns;
            });
  return events;
}

uint64_t TraceEventsDropped() {
  uint64_t dropped = g_dropped_after_teardown.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(BuffersMutex());
  for (const auto& buf : Buffers()) {
    std::lock_guard<std::mutex> buf_lock(buf->mu);
    dropped += buf->overwritten;
  }
  return dropped;
}

std::string TraceIdHex(uint64_t trace_id) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llx",
                static_cast<unsigned long long>(trace_id));
  return buf;
}

std::string ChromeTraceJson(const std::vector<TraceEvent>& events) {
  JsonWriter w;
  w.BeginObject().BeginArray("traceEvents");
  for (const TraceEvent& e : events) {
    w.BeginObject()
        .Field("name", e.name != nullptr ? e.name : "?")
        .Field("cat", "pa")
        .Field("ph", "X")
        .FieldMicros("ts", e.start_ns)
        .FieldMicros("dur", e.dur_ns)
        .Field("pid", 1)
        .Field("tid", uint64_t{e.tid})
        // Top-level (non-standard) fields; chrome://tracing ignores unknown
        // keys. trace/parent appear only on spans linked into a request
        // trace.
        .Field("id", e.id);
    if (e.trace_id != 0) {
      w.Field("trace", TraceIdHex(e.trace_id)).Field("parent", e.parent_id);
    }
    w.EndObject();
  }
  w.EndArray().Field("displayTimeUnit", "ms").EndObject();
  return w.str();
}

std::string TraceNdjson(const std::vector<TraceEvent>& events) {
  std::string out;
  for (const TraceEvent& e : events) {
    JsonWriter w;
    w.BeginObject()
        .Field("name", e.name != nullptr ? e.name : "?")
        .FieldMicros("ts_us", e.start_ns)
        .FieldMicros("dur_us", e.dur_ns)
        .Field("tid", uint64_t{e.tid})
        .Field("id", e.id);
    if (e.trace_id != 0) {
      w.Field("trace", TraceIdHex(e.trace_id)).Field("parent", e.parent_id);
    }
    w.EndObject();
    out += w.str();
    out += '\n';
  }
  return out;
}

bool WriteTraceFile(const std::string& path) {
  const std::vector<TraceEvent> events = DrainTraceEvents();
  const bool ndjson =
      path.size() >= 7 && path.compare(path.size() - 7, 7, ".ndjson") == 0;
  const std::string body =
      ndjson ? TraceNdjson(events) : ChromeTraceJson(events);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const size_t written = std::fwrite(body.data(), 1, body.size(), f);
  const int close_rc = std::fclose(f);
  return written == body.size() && close_rc == 0;
}

namespace {

// PA_OBS_TRACE=<path>: tracing on from process start, trace dumped at exit.
// Lives here (not in a runtime init function) so every binary that links
// any instrumented layer gets the switch for free.
std::string* g_exit_trace_path = nullptr;

void DumpTraceAtExit() {
  if (g_exit_trace_path == nullptr) return;
  if (!WriteTraceFile(*g_exit_trace_path)) {
    std::fprintf(stderr, "obs: cannot write PA_OBS_TRACE file %s\n",
                 g_exit_trace_path->c_str());
  }
}

struct TraceEnvInit {
  TraceEnvInit() {
    const char* path = std::getenv("PA_OBS_TRACE");
    if (path == nullptr || *path == '\0') return;
    g_exit_trace_path = new std::string(path);
    SetTracingEnabled(true);
    std::atexit(DumpTraceAtExit);
  }
};
TraceEnvInit g_trace_env_init;

}  // namespace

}  // namespace pa::obs
