// Measures the parallel HR@K evaluation hot path: wall-clock for a full
// EvaluateHr sweep at 1 thread vs N threads (PA_THREADS or hardware
// concurrency), and verifies that HR@{1,5,10} / MRR@10 are bit-identical
// across thread counts — the determinism contract of the execution layer.
//
// On a multicore box the N-thread run should come in at >=2x the 1-thread
// throughput for the FPMC-LR scoring workload; on a single-core box the
// numbers simply confirm the overhead of the pool is small. Either way the
// bit-identity check is the hard gate and the binary exits non-zero if it
// fails.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "eval/hr_metric.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "poi/synthetic.h"
#include "rec/fpmc_lr.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace pa {
namespace {

double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

struct TimedResult {
  eval::HrResult hr;
  double seconds = 0.0;
};

TimedResult TimeEvaluate(const rec::Recommender& model,
                         const std::vector<poi::CheckinSequence>& warmup,
                         const std::vector<poi::CheckinSequence>& test,
                         int threads, int reps) {
  util::SetThreadCount(threads);
  TimedResult out;
  out.seconds = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    out.hr = eval::EvaluateHr(model, warmup, test);
    const auto t1 = std::chrono::steady_clock::now();
    out.seconds = std::min(out.seconds, Seconds(t1 - t0));
  }
  return out;
}

int Run() {
  poi::LbsnProfile profile = poi::GowallaProfile();
  profile.num_users = 48;
  profile.num_pois = 600;
  profile.min_visits = 120;
  profile.max_visits = 160;

  util::Rng rng(20260806);
  std::printf("generating synthetic LBSN (%d users)...\n", profile.num_users);
  poi::SyntheticLbsn lbsn = poi::GenerateLbsn(profile, rng);

  std::vector<poi::CheckinSequence> warmup(lbsn.observed.sequences.size());
  std::vector<poi::CheckinSequence> test(lbsn.observed.sequences.size());
  for (size_t u = 0; u < lbsn.observed.sequences.size(); ++u) {
    const auto& seq = lbsn.observed.sequences[u];
    const size_t cut = seq.size() * 4 / 5;
    warmup[u].assign(seq.begin(), seq.begin() + cut);
    test[u].assign(seq.begin() + cut, seq.end());
  }

  rec::FpmcLrConfig config;
  config.epochs = 3;
  rec::FpmcLr model(config);
  std::printf("fitting FPMC-LR...\n");
  model.Fit(warmup, lbsn.observed.pois);

  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int wide = std::max(util::ThreadCount(), std::max(hw, 4));
  const int reps = 3;

  std::printf("timing EvaluateHr (best of %d reps per config)...\n", reps);
  const TimedResult serial = TimeEvaluate(model, warmup, test, 1, reps);
  const TimedResult parallel = TimeEvaluate(model, warmup, test, wide, reps);
  util::SetThreadCount(0);

  std::printf("\n  threads  seconds    speedup   %s\n",
              "HR@1 / HR@5 / HR@10 / MRR@10");
  std::printf("  %7d  %8.4f  %8s   %.6f / %.6f / %.6f / %.6f\n", 1,
              serial.seconds, "1.00x", serial.hr.hr1, serial.hr.hr5,
              serial.hr.hr10, serial.hr.mrr10);
  std::printf("  %7d  %8.4f  %7.2fx   %.6f / %.6f / %.6f / %.6f\n", wide,
              parallel.seconds, serial.seconds / parallel.seconds,
              parallel.hr.hr1, parallel.hr.hr5, parallel.hr.hr10,
              parallel.hr.mrr10);
  std::printf("  (hardware_concurrency = %d)\n\n", hw);

  const bool identical = serial.hr.num_cases == parallel.hr.num_cases &&
                         serial.hr.hr1 == parallel.hr.hr1 &&
                         serial.hr.hr5 == parallel.hr.hr5 &&
                         serial.hr.hr10 == parallel.hr.hr10 &&
                         serial.hr.mrr10 == parallel.hr.mrr10;
  std::printf("bit-identical across thread counts: %s\n",
              identical ? "YES" : "NO");

  // Machine-readable summary for CI tracking (working directory, or
  // $PA_BENCH_DIR when set).
  obs::JsonWriter w;
  w.BeginObject()
      .Field("bench", "parallel_eval")
      .Field("schema_version", 1)
      .Field("threads_wide", wide)
      .Field("hardware_concurrency", hw)
      .Field("serial_seconds", serial.seconds)
      .Field("parallel_seconds", parallel.seconds)
      .Field("speedup", serial.seconds / parallel.seconds)
      .Field("hr10", serial.hr.hr10)
      .Field("mrr10", serial.hr.mrr10)
      .Field("bit_identical", identical)
      .RawField("metrics", obs::MetricRegistry::Global().SnapshotJson())
      .EndObject();
  std::string out_path = "BENCH_parallel_eval.json";
  if (const char* dir = std::getenv("PA_BENCH_DIR")) {
    out_path = (std::filesystem::path(dir) / out_path).string();
  }
  std::ofstream out(out_path);
  out << w.str() << "\n";
  std::printf("wrote %s\n", out_path.c_str());

  return identical ? 0 : 1;
}

}  // namespace
}  // namespace pa

int main() { return pa::Run(); }
