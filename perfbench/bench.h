#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "wire.h"

namespace perfbench {

/// Settings every workload shares (see README.md "Shared settings").
inline constexpr int kShards = 2;
inline constexpr int kConnections = 2;
inline constexpr int kWindow = 16;  // Requests in flight per connection.
inline constexpr int kTopK = 10;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string pa_serve;  // Path of the pa_serve binary.
  std::string work_dir;  // Where model stores are published.
  std::string trace_dir;  // Where traced runs write chrome-trace JSON.
};

/// One reported metric: a per-call mean (or a total, ratio, count) with the
/// number of calls or samples behind it.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  uint64_t calls = 0;
  /// Gated metrics are the ones BENCHMARK.json lists; the others are
  /// printed and saved with the result but carry no bound.
  bool gated = true;
};

/// What one workload run produced.
struct Result {
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // Extra report lines (p99, guards, ...).
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::string problem;  // Why the run is not correct (empty when it is).

  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t calls = 0) {
    metrics.push_back(Metric{name, value, unit, calls, true});
  }
  void Info(const std::string& name, double value, const std::string& unit,
            uint64_t calls = 0) {
    metrics.push_back(Metric{name, value, unit, calls, false});
  }
  void Fail(const std::string& why) {
    correct = false;
    if (problem.empty()) problem = why;
  }
};

/// Spans recorded by the benchmark's own code in a traced run, around each
/// wire request and each call into a layer's public function. Kept in
/// memory and written as chrome-trace JSON at exit. Only the main
/// thread records, so no locking.
class Spans {
 public:
  static Spans& Global();
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  void Record(const char* name, Clock::time_point begin, Clock::time_point end,
              int tid = 0);
  bool WriteChromeTrace(const std::string& path, std::string* error) const;
  size_t size() const { return events_.size(); }

 private:
  struct Event {
    const char* name;
    Clock::time_point begin;
    Clock::time_point end;
    int tid;
  };
  bool enabled_ = false;
  std::deque<Event> events_;  // Grows without copying what it holds.
  uint64_t dropped_ = 0;
};

/// Calls `fn(i)` for i in [begin, end), one span per call; returns the
/// total µs. Every layer replay is timed this way.
template <typename F>
double ReplayUs(const char* span, size_t begin, size_t end, F&& fn) {
  Spans& spans = Spans::Global();
  double total = 0.0;
  for (size_t i = begin; i < end; ++i) {
    const Clock::time_point t0 = Clock::now();
    fn(i);
    const Clock::time_point t1 = Clock::now();
    total += MicrosBetween(t0, t1);
    if (spans.enabled()) spans.Record(span, t0, t1);
  }
  return total;
}

/// Mean µs per call of `fn(i)` over i in [0, n).
template <typename F>
double ReplayMeanUs(const char* span, size_t n, F&& fn) {
  return n == 0 ? 0.0 : ReplayUs(span, 0, n, fn) / static_cast<double>(n);
}

/// Latency digest of exact per-request samples: median plus the highest
/// percentile with at least ten samples beyond it.
void AddLatency(Result& result, std::vector<double> samples_us,
                const std::string& what);

Result RunServeWorkload(const Options& options);
Result RunAugmentWorkload(const Options& options);

/// The per-layer replays of the traced run. A traced run of workload W
/// replays W's own layers on W's inputs, and the other family's layers on
/// a reduced input of the same seed, so every traced run reports every
/// per-layer metric.
void TraceServeLayers(const Options& options, bool auxiliary, Result& result);
void TraceAugmentLayers(const Options& options, bool auxiliary, Result& result);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
