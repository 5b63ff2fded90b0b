// perfbench: runs one workload and prints its metrics. Normally
// started by perfbench/run.py, which builds it and pins the environment.
//
//   perfbench --workload serve_warm|serve_churn|augment_offline
//             --seed N --seconds S --trace 0|1 --pa-serve PATH
//             --work-dir DIR --trace-dir DIR [--commit ID]
//
// The last stdout line is one JSON object {"correct","attempted","failed",
// "metrics"}: the end-to-end metrics when --trace 0, the per-layer metrics
// when --trace 1. The line before it, "result {...}", is the full result
// with the configuration stamp; the lines above are the report.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>

#include "bench.h"
#include "stats.h"
#include "tensor/kernels/kernels.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

Spans& Spans::Global() {
  static Spans spans;
  return spans;
}

void Spans::Record(const char* name, Clock::time_point begin,
                   Clock::time_point end, int tid) {
  if (!enabled_) return;
  // Bounded so a long traced run cannot exhaust memory; drops are reported.
  if (events_.size() >= (size_t{1} << 22)) {
    ++dropped_;
    return;
  }
  events_.push_back(Event{name, begin, end, tid});
}

bool Spans::WriteChromeTrace(const std::string& path,
                             std::string* error) const {
  std::ofstream out(path);
  if (!out) {
    *error = "cannot write " + path;
    return false;
  }
  const Clock::time_point epoch =
      events_.empty() ? Clock::now() : events_.front().begin;
  out << "{\"traceEvents\":[";
  char buf[256];
  for (size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                  "\"pid\":1,\"tid\":%d,\"id\":%zu}",
                  i ? ",\n" : "\n", e.name, MicrosBetween(epoch, e.begin),
                  MicrosBetween(e.begin, e.end), e.tid, i + 1);
    out << buf;
  }
  out << "\n],\"dropped\":" << dropped_ << "}\n";
  return static_cast<bool>(out);
}

void AddLatency(Result& result, std::vector<double> samples_us,
                const std::string& what) {
  std::sort(samples_us.begin(), samples_us.end());
  result.Add("latency_p50_us", Percentile(samples_us, 0.5), "us",
             samples_us.size());
  // Printed with its sample count, never gated: the tail of a shared host
  // moves too much between runs to bound.
  result.Info("latency_p99_us", Percentile(samples_us, 0.99), "us",
              samples_us.size());
  const auto tail = HighestSupportedPercentile(samples_us);
  char line[256];
  std::snprintf(line, sizeof(line),
                "%s latency: highest percentile with 10 samples beyond it: "
                "%s = %.3f us (%zu of %zu samples beyond)",
                what.c_str(), tail ? tail->label.c_str() : "none",
                tail ? tail->value : 0.0, tail ? tail->beyond : size_t{0},
                samples_us.size());
  result.notes.push_back(line);
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

// Every digit, as measured.
std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Stamp(const std::string& commit) {
  const char* threads = std::getenv("PA_THREADS");
  std::string compiler = "unknown";
#if defined(__clang__)
  compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  compiler = std::string("gcc ") + __VERSION__;
#endif
  return "{\"nproc\":" +
         std::to_string(std::thread::hardware_concurrency()) +
         ",\"kernels\":" + JsonString(pa::tensor::kernels::Active().name) +
         ",\"pa_threads\":" + JsonString(threads ? threads : "") +
         ",\"shards\":" + std::to_string(kShards) +
         ",\"build_type\":" + JsonString(PERFBENCH_BUILD_TYPE) +
         ",\"compiler\":" + JsonString(compiler) +
         ",\"commit\":" + JsonString(commit) + "}";
}

std::string MetricJson(const Metric& m, bool full) {
  std::string json = JsonString(m.name) + ": {\"value\": " + Number(m.value) +
                     ", \"unit\": " + JsonString(m.unit);
  if (full) {
    json += ", \"calls\": " + std::to_string(m.calls) +
            ", \"gated\": " + (m.gated ? "true" : "false");
  }
  return json + "}";
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve_warm|serve_churn|"
               "augment_offline --seed N --seconds S --trace 0|1 "
               "--pa-serve PATH --work-dir DIR --trace-dir DIR "
               "[--commit ID]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::map<std::string, std::string> flags;
  if (argc % 2 != 1) return Usage();
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return Usage();
    flags[argv[i] + 2] = argv[i + 1];
  }
  Options options;
  options.workload = flags["workload"];
  options.seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
  options.seconds = std::strtod(flags["seconds"].c_str(), nullptr);
  options.trace = flags["trace"] == "1";
  options.pa_serve = flags["pa-serve"];
  options.work_dir = flags["work-dir"];
  options.trace_dir = flags["trace-dir"];
  const std::set<std::string> workloads = {"serve_warm", "serve_churn",
                                           "augment_offline"};
  if (!workloads.count(options.workload) || options.seconds <= 0 ||
      options.pa_serve.empty() || options.work_dir.empty() ||
      options.trace_dir.empty()) {
    return Usage();
  }
  std::filesystem::create_directories(options.work_dir);
  std::filesystem::create_directories(options.trace_dir);

  const bool augment = options.workload == "augment_offline";
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  const std::string stamp = Stamp(flags["commit"]);
  std::printf("stamp %s\n", stamp.c_str());
  std::fflush(stdout);

  Result result =
      augment ? RunAugmentWorkload(options) : RunServeWorkload(options);
  if (options.trace && result.correct) {
    // The other family's layers, on a reduced input of the same seed.
    if (augment) {
      TraceServeLayers(options, true, result);
    } else {
      TraceAugmentLayers(options, true, result);
    }
    const std::string path = options.trace_dir + "/" + options.workload +
                             "-s" + std::to_string(options.seed) + ".json";
    std::string error;
    if (Spans::Global().WriteChromeTrace(path, &error)) {
      result.notes.push_back(std::to_string(Spans::Global().size()) +
                             " spans: python3 scripts/trace_summary.py " +
                             path);
    } else {
      result.Fail(error);
    }
  }
  if (result.attempted == 0) result.attempted = 1;

  for (const Metric& m : result.metrics) {
    std::printf("  %-24s %18.6f %-6s (%llu %s)%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.calls),
                options.trace ? "calls" : "samples",
                m.gated ? "" : "  ungated");
  }
  for (const std::string& note : result.notes) {
    std::printf("  %s\n", note.c_str());
  }
  if (!result.correct) {
    std::printf("  NOT CORRECT: %s\n", result.problem.c_str());
  }

  std::string gated, full;
  for (const Metric& m : result.metrics) {
    if (m.gated) gated += (gated.empty() ? "" : ", ") + MetricJson(m, false);
    full += (full.empty() ? "" : ", ") + MetricJson(m, true);
  }
  const std::string head =
      "\"correct\": " + std::string(result.correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(result.attempted) +
      ", \"failed\": " + std::to_string(result.failed);
  std::printf("result {\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
              "\"stamp\": %s, %s, \"metrics\": {%s}}\n",
              JsonString(options.workload).c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0, stamp.c_str(), head.c_str(),
              full.c_str());
  std::printf("{%s, \"metrics\": {%s}}\n", head.c_str(), gated.c_str());
  return result.correct ? 0 : 1;
}
