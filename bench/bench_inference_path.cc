// Measures the graph-free inference fast path against graph-building
// forward on the recurrent workloads this library actually serves:
//
//   * lstm_forward      — per-step ns/op for an LSTM-shaped rollout
//                         (embedding -> LstmCell -> detach) at the production
//                         NeuralRecConfig shape (embedding 16, hidden 24).
//                         The gated workload: graph-free must be >= 2x, and
//                         the fused path (the LSTM's explicit forward)
//                         >= 1.3x over the unfused graph-free path.
//   * st_clstm_forward  — the same rollout through the ST-CLSTM cell.
//   * lstm_forward_h128 — informational larger-hidden variant, where raw
//                         MatMul flops start to amortise the graph overhead.
//   * topk              — end-to-end QPS of session Observe + TopK on a
//                         trained LSTM recommender (output layer + ranking
//                         included), graph vs graph-free.
//   * obs_overhead      — the same graph-free rollout with per-step
//                         observability instrumentation (disabled trace span
//                         + counter bump, tracing off); the gate keeps the
//                         instrumented/plain ratio within 3%.
//
// Every forward arm additionally runs with the kernel dispatch pinned to the
// scalar reference table (SetDispatchOverride), interleaved with the SIMD
// passes so host drift cancels; *_simd_speedup is scalar-ns / simd-ns, and
// the non-smoke gate requires >= 1.5x on the lstm/st_clstm fast paths. All
// other arms are pinned to the SIMD table PA_SIMD resolves to (auto: the
// best the CPU supports; avx2 or generic to time that table instead), and
// the JSON stamps it as `simd_table`. PA_SIMD=scalar is refused (exit 2):
// its *_simd_speedup gates would time the scalar table against itself.
//
// Schema v3 adds the operator-fusion arm: `nograph` runs under
// ScopedFusionDisable (the cells' tensor-op bodies on the graph-free path,
// so its history stays comparable across PRs), and a fourth interleaved
// `fused` arm runs the default path: each cell's explicit fused forward
// (`LstmCell::ForwardRows`, `StClstmCell::ForwardRows`).
// *_fused_speedup is nograph-ns / fused-ns, gated >= 1.3x on lstm and
// st_clstm in full mode; the fused rollout must stay bit-identical to the
// unfused one (same dispatch table — the fused kernels reuse each table's
// own sigmoid/tanh bodies).
//
// The graph-building reference runs under
// tensor::internal::ScopedInferenceDisable, which turns the wired-in
// InferenceModeScopes into no-ops — the exact pre-fast-path behaviour.
// Bit-identity between the two modes is the hard gate (exit 1 on mismatch);
// in full mode the >= 2x lstm_forward speedup is also enforced.
//
// Schema v4 stamps the host, `simd_table` and `hardware_concurrency`;
// bench_compare.py refuses to diff two files whose stamps differ.
//
// Writes BENCH_inference.json (flat JSON, $PA_BENCH_DIR honoured) in the
// schema shared with bench_serving / bench_parallel_eval:
// {"bench": ..., "schema_version": 4, <metric>: number, ...} where tracked
// metric suffixes are _ns_op (lower is better), _qps and _speedup (higher
// is better) — see scripts/bench_compare.py.
//
// Usage: bench_inference_path [--smoke]   (--smoke: reduced iterations for
// the tier-1 schema check; timings meaningless, gates limited to identity).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "nn/layers.h"
#include "nn/lstm.h"
#include "nn/st_clstm.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "poi/synthetic.h"
#include "rec/registry.h"
#include "serve/json.h"
#include "tensor/buffer_pool.h"
#include "tensor/kernels/kernels.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace pa {
namespace {

using tensor::Tensor;

double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

struct RolloutResult {
  double ns_per_step = 0.0;
  std::vector<float> final_h;  // For the bit-identity gate.
};

// One timed pass: `rollouts` rollouts of `steps` cell steps. `step(state, t)
// -> state` performs embedding lookup + cell forward (+ detach on the graph
// path, matching the production session loop).
template <typename InitFn, typename StepFn>
void OneArmPass(InitFn& init, StepFn& step, int steps, int rollouts,
                RolloutResult* out) {
  const auto t0 = std::chrono::steady_clock::now();
  nn::LstmState state;
  for (int it = 0; it < rollouts; ++it) {
    state = init();
    for (int t = 0; t < steps; ++t) state = step(state, t);
  }
  const auto t1 = std::chrono::steady_clock::now();
  out->ns_per_step =
      std::min(out->ns_per_step,
               Seconds(t1 - t0) * 1e9 / (static_cast<double>(rollouts) * steps));
  out->final_h.assign(state.h.data(), state.h.data() + state.h.numel());
}

struct ModePair {
  RolloutResult graph;
  RolloutResult nograph;         // Fast path, fusion disabled (PR 3/6 arm).
  RolloutResult nograph_scalar;  // Fast path, scalar reference kernels.
  RolloutResult fused;           // Default path: explicit forward/replay.
  double speedup() const {
    return nograph.ns_per_step > 0.0 ? graph.ns_per_step / nograph.ns_per_step
                                     : 0.0;
  }
  double simd_speedup() const {
    return nograph.ns_per_step > 0.0
               ? nograph_scalar.ns_per_step / nograph.ns_per_step
               : 0.0;
  }
  double fused_speedup() const {
    return fused.ns_per_step > 0.0
               ? nograph.ns_per_step / fused.ns_per_step
               : 0.0;
  }
  bool identical() const {
    return graph.final_h == nograph.final_h &&
           nograph.final_h == fused.final_h;
  }
};

// Best-of-`reps` for all arms, with the arms *interleaved* per rep: slow
// drift in host speed (frequency scaling, noisy neighbours) then biases both
// numerators and denominators alike instead of skewing the ratio. One
// untimed warmup pass per arm populates the thread's buffer/node pools and
// faults in the weight pages — the first rollout in a fresh process
// otherwise reads ~20% slow. The graph and fast arms run on the best SIMD
// table; a third fast-path arm pins the scalar reference table, feeding the
// *_simd_speedup gate. Identity is only compared between same-dispatch arms
// (the SIMD tables' expf carries a documented ~2 ulp tolerance).
template <typename InitFn, typename GraphFn, typename FastFn>
ModePair TimeModePair(InitFn init, GraphFn step_graph, FastFn step_fast,
                      int steps, int rollouts, int reps) {
  // Run() has pinned the SIMD table for the whole run.
  const tensor::kernels::KernelTable& simd = tensor::kernels::Active();
  const tensor::kernels::KernelTable& scalar = tensor::kernels::ScalarTable();
  ModePair pair;
  pair.graph.ns_per_step = 1e300;
  pair.nograph.ns_per_step = 1e300;
  pair.nograph_scalar.ns_per_step = 1e300;
  pair.fused.ns_per_step = 1e300;
  for (int r = -1; r < reps; ++r) {
    RolloutResult warmup_sink{1e300, {}};
    {
      tensor::internal::ScopedInferenceDisable disable;
      tensor::InferenceModeScope scope;  // Disabled: graph-building reference.
      OneArmPass(init, step_graph, steps, rollouts,
                 r < 0 ? &warmup_sink : &pair.graph);
    }
    {
      // The pre-fusion fast path: fusion off keeps this arm's history
      // comparable with the PR 3/6 numbers it gated on.
      tensor::fusion::ScopedFusionDisable no_fusion;
      tensor::InferenceModeScope scope;
      OneArmPass(init, step_fast, steps, rollouts,
                 r < 0 ? &warmup_sink : &pair.nograph);
    }
    {
      tensor::fusion::ScopedFusionDisable no_fusion;
      tensor::kernels::SetDispatchOverride(&scalar);
      tensor::InferenceModeScope scope;
      OneArmPass(init, step_fast, steps, rollouts,
                 r < 0 ? &warmup_sink : &pair.nograph_scalar);
      tensor::kernels::SetDispatchOverride(&simd);
    }
    {
      // Default path: the cell's explicit fused forward. The warmup rep
      // grows its per-thread scratch, so the timed reps allocate nothing
      // beyond the pooled outputs.
      tensor::InferenceModeScope scope;
      OneArmPass(init, step_fast, steps, rollouts,
                 r < 0 ? &warmup_sink : &pair.fused);
    }
  }
  return pair;
}

// LSTM-shaped rollout at a given hidden size: embedding(vocab, dim) ->
// LstmCell(dim, hidden), detached each step exactly like NeuralRecSession.
ModePair BenchLstmForward(int dim, int hidden, int steps, int rollouts,
                          int reps) {
  const int vocab = 500;
  util::Rng rng(42);
  nn::Embedding embedding(vocab, dim, rng);
  nn::LstmCell cell(dim, hidden, rng);
  std::vector<int> ids(1);
  auto init = [&] { return cell.InitialState(1); };
  auto step_graph = [&](const nn::LstmState& state, int t) {
    ids[0] = (t * 31) % vocab;
    nn::LstmState next = cell.Forward(embedding.Forward(ids), state);
    next.h = next.h.Detach();
    next.c = next.c.Detach();
    return next;
  };
  auto step_fast = [&](const nn::LstmState& state, int t) {
    ids[0] = (t * 31) % vocab;
    return cell.Forward(embedding.Forward(ids), state);
  };
  return TimeModePair(init, step_graph, step_fast, steps, rollouts, reps);
}

ModePair BenchStClstmForward(int dim, int hidden, int steps, int rollouts,
                             int reps) {
  const int vocab = 500;
  util::Rng rng(43);
  nn::Embedding embedding(vocab, dim, rng);
  nn::StClstmCell cell(dim, hidden, rng);
  std::vector<int> ids(1);
  auto init = [&] { return cell.InitialState(1); };
  auto step_graph = [&](const nn::LstmState& state, int t) {
    ids[0] = (t * 17) % vocab;
    nn::LstmState next = cell.Forward(embedding.Forward(ids), state,
                                      0.25f + 0.01f * (t % 7),
                                      0.5f + 0.02f * (t % 5));
    next.h = next.h.Detach();
    next.c = next.c.Detach();
    return next;
  };
  auto step_fast = [&](const nn::LstmState& state, int t) {
    ids[0] = (t * 17) % vocab;
    return cell.Forward(embedding.Forward(ids), state,
                        0.25f + 0.01f * (t % 7), 0.5f + 0.02f * (t % 5));
  };
  return TimeModePair(init, step_graph, step_fast, steps, rollouts, reps);
}

struct OverheadResult {
  double plain_ns = 0.0;  // Best-of across reps (reporting only).
  double instr_ns = 0.0;
  double ratio = 0.0;     // Median of per-rep instr/plain ratios (the gate).
};

// Instrumented-but-disabled overhead: the exact graph-free LSTM rollout,
// once plain and once with the per-step instrumentation budget the real hot
// paths carry (one trace span and one counter bump), with tracing forced
// off. A disabled span must cost one relaxed load and a branch, a counter
// one relaxed add; the non-smoke gate holds the ratio within 3%. The
// continuous-telemetry layer (TelemetrySampler, ExpositionServer) is linked
// into this binary but never started, which is exactly the idle state the
// gate certifies: neither touches any hot path until Start().
//
// 3% is inside this host's run-to-run noise, so the gate metric is the
// median over many *paired single-rollout samples* rather than a ratio of
// best-ofs: each sample times one plain rollout against one instrumented
// rollout back to back (~100 µs apart, order alternating), so frequency
// drift cancels inside each ratio, and with hundreds of samples the median
// shrugs off the preempted windows that skew any best-of or mean. The
// reported plain/instr ns are best-of across samples, matching the other
// rows.
OverheadResult BenchObsOverhead(int steps, int rollouts, int reps) {
  const int vocab = 500;
  util::Rng rng(44);
  nn::Embedding embedding(vocab, 16, rng);
  nn::LstmCell cell(16, 24, rng);
  std::vector<int> ids(1);
  auto init = [&] { return cell.InitialState(1); };
  auto step_plain = [&](const nn::LstmState& state, int t) {
    ids[0] = (t * 31) % vocab;
    return cell.Forward(embedding.Forward(ids), state);
  };
  obs::Counter& bench_steps =
      obs::MetricRegistry::Global().GetCounter("bench.obs_overhead.steps");
  auto step_instr = [&](const nn::LstmState& state, int t) {
    PA_TRACE_SPAN("bench.step");
    bench_steps.Increment();
    ids[0] = (t * 31) % vocab;
    return cell.Forward(embedding.Forward(ids), state);
  };

  const bool was_tracing = obs::TracingEnabled();
  obs::SetTracingEnabled(false);
  OverheadResult out;
  out.plain_ns = 1e300;
  out.instr_ns = 1e300;
  const int samples = reps * rollouts;
  std::vector<double> ratios;
  ratios.reserve(static_cast<size_t>(samples));
  for (int s = -4; s < samples; ++s) {  // Negative samples: untimed warmup.
    RolloutResult pass_plain{1e300, {}};
    RolloutResult pass_instr{1e300, {}};
    tensor::InferenceModeScope scope;
    if ((s & 1) == 0) {
      OneArmPass(init, step_plain, steps, /*rollouts=*/1, &pass_plain);
      OneArmPass(init, step_instr, steps, /*rollouts=*/1, &pass_instr);
    } else {
      OneArmPass(init, step_instr, steps, /*rollouts=*/1, &pass_instr);
      OneArmPass(init, step_plain, steps, /*rollouts=*/1, &pass_plain);
    }
    if (s < 0) continue;
    out.plain_ns = std::min(out.plain_ns, pass_plain.ns_per_step);
    out.instr_ns = std::min(out.instr_ns, pass_instr.ns_per_step);
    ratios.push_back(pass_instr.ns_per_step / pass_plain.ns_per_step);
  }
  obs::SetTracingEnabled(was_tracing);

  std::sort(ratios.begin(), ratios.end());
  const size_t n = ratios.size();
  if (n > 0) {
    out.ratio = n % 2 == 1 ? ratios[n / 2]
                           : 0.5 * (ratios[n / 2 - 1] + ratios[n / 2]);
  }
  return out;
}

struct TopKResult {
  double qps = 0.0;
  std::vector<std::vector<int32_t>> rankings;  // Identity gate.
};

TopKResult TimeTopK(const rec::Recommender& model,
                    const std::vector<poi::CheckinSequence>& warmup,
                    const std::vector<poi::CheckinSequence>& test, int reps) {
  TopKResult out;
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    out.rankings.clear();
    int calls = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (size_t u = 0; u < warmup.size(); ++u) {
      auto session = model.NewSession(static_cast<int32_t>(u));
      for (const poi::Checkin& c : warmup[u]) session->Observe(c);
      for (const poi::Checkin& c : test[u]) {
        out.rankings.push_back(session->TopK(10, c.timestamp));
        session->Observe(c);
        ++calls;
      }
    }
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, Seconds(t1 - t0) / std::max(1, calls));
  }
  out.qps = best > 0.0 ? 1.0 / best : 0.0;
  return out;
}

int Run(bool smoke) {
  const int steps = 64;
  const int rollouts = smoke ? 2 : 60;
  const int reps = smoke ? 1 : 3;

  // Pin kernel dispatch for the whole run to the table PA_SIMD resolves to
  // (read before any override is installed); the scalar arms pin the
  // reference table explicitly.
  const tensor::kernels::KernelTable& simd = tensor::kernels::Active();
  if (&simd == &tensor::kernels::ScalarTable()) {
    std::fprintf(stderr,
                 "bench_inference_path: PA_SIMD=scalar leaves no SIMD table "
                 "to time against the scalar reference; use auto, avx2 or "
                 "generic\n");
    return 2;
  }
  tensor::kernels::SetDispatchOverride(&simd);

  std::printf("inference fast path vs graph-building forward%s\n",
              smoke ? " (smoke)" : "");
  std::printf("  kernel dispatch: simd=%s scalar=%s\n", simd.name,
              tensor::kernels::ScalarTable().name);

  const ModePair lstm = BenchLstmForward(16, 24, steps, rollouts, reps);
  const ModePair st_clstm = BenchStClstmForward(16, 24, steps, rollouts, reps);
  const ModePair lstm_big =
      BenchLstmForward(64, 128, steps, smoke ? 1 : 20, reps);
  // reps * rollouts paired samples feed the 3% gate's median (540 in full
  // mode — see BenchObsOverhead for why a median over pairs, not best-of).
  const OverheadResult obs_overhead =
      BenchObsOverhead(steps, rollouts, smoke ? 1 : 9);

  auto report = [](const char* name, const ModePair& p) {
    std::printf("  %-18s graph %9.1f ns/op   graph-free %9.1f ns/op   "
                "%5.2fx   bit-identical: %s   simd %5.2fx (scalar %9.1f)   "
                "fused %9.1f ns/op %5.2fx\n",
                name, p.graph.ns_per_step, p.nograph.ns_per_step, p.speedup(),
                p.identical() ? "YES" : "NO", p.simd_speedup(),
                p.nograph_scalar.ns_per_step, p.fused.ns_per_step,
                p.fused_speedup());
  };
  report("lstm_forward", lstm);
  report("st_clstm_forward", st_clstm);
  report("lstm_forward_h128", lstm_big);
  std::printf("  %-18s plain %9.1f ns/op   instrumented %7.1f ns/op   "
              "ratio %.3f (tracing off)\n",
              "obs_overhead", obs_overhead.plain_ns, obs_overhead.instr_ns,
              obs_overhead.ratio);

  // End-to-end: trained LSTM recommender, Observe + TopK over a small world.
  poi::LbsnProfile profile = poi::GowallaProfile();
  profile.num_users = smoke ? 4 : 16;
  profile.num_pois = 300;
  profile.min_visits = smoke ? 20 : 60;
  profile.max_visits = smoke ? 25 : 80;
  util::Rng rng(20260806);
  poi::SyntheticLbsn lbsn = poi::GenerateLbsn(profile, rng);
  std::vector<poi::CheckinSequence> warmup(lbsn.observed.sequences.size());
  std::vector<poi::CheckinSequence> test(lbsn.observed.sequences.size());
  for (size_t u = 0; u < lbsn.observed.sequences.size(); ++u) {
    const auto& seq = lbsn.observed.sequences[u];
    const size_t cut = seq.size() * 4 / 5;
    warmup[u].assign(seq.begin(), seq.begin() + cut);
    test[u].assign(seq.begin() + cut, seq.end());
  }
  std::printf("fitting LSTM recommender for the TopK workload...\n");
  auto model = rec::MakeRecommender("LSTM", 7, smoke ? 0.125 : 0.25);
  model->Fit(warmup, lbsn.observed.pois);

  TopKResult topk_graph;
  {
    tensor::internal::ScopedInferenceDisable disable;
    topk_graph = TimeTopK(*model, warmup, test, reps);
  }
  const TopKResult topk_fast = TimeTopK(*model, warmup, test, reps);
  const double topk_speedup =
      topk_graph.qps > 0.0 ? topk_fast.qps / topk_graph.qps : 0.0;
  const bool topk_identical = topk_graph.rankings == topk_fast.rankings;
  std::printf("  %-18s graph %9.0f qps     graph-free %9.0f qps     "
              "%5.2fx   identical rankings: %s\n",
              "topk", topk_graph.qps, topk_fast.qps, topk_speedup,
              topk_identical ? "YES" : "NO");

  const auto& pool_stats = tensor::internal::BufferPool::ThisThread().stats();
  const double reuse_rate =
      pool_stats.acquires > 0
          ? static_cast<double>(pool_stats.reuses) / pool_stats.acquires
          : 0.0;
  std::printf("  pool: %llu acquires, %.1f%% served from freelist\n",
              static_cast<unsigned long long>(pool_stats.acquires),
              100.0 * reuse_rate);

  const bool identical = lstm.identical() && st_clstm.identical() &&
                         lstm_big.identical() && topk_identical;

  serve::JsonWriter w;
  w.BeginObject()
      .Field("bench", "inference_path")
      .Field("schema_version", 4)
      .Field("smoke", smoke)
      .Field("simd_table", simd.name)
      .Field("hardware_concurrency",
             int64_t{std::thread::hardware_concurrency()})
      .Field("fusion_enabled", tensor::fusion::Enabled())
      .Field("lstm_forward_graph_ns_op", lstm.graph.ns_per_step)
      .Field("lstm_forward_nograph_ns_op", lstm.nograph.ns_per_step)
      .Field("lstm_forward_speedup", lstm.speedup())
      .Field("lstm_forward_scalar_ns_op", lstm.nograph_scalar.ns_per_step)
      .Field("lstm_forward_simd_speedup", lstm.simd_speedup())
      .Field("lstm_forward_fused_ns_op", lstm.fused.ns_per_step)
      .Field("lstm_forward_fused_speedup", lstm.fused_speedup())
      .Field("st_clstm_forward_graph_ns_op", st_clstm.graph.ns_per_step)
      .Field("st_clstm_forward_nograph_ns_op", st_clstm.nograph.ns_per_step)
      .Field("st_clstm_forward_speedup", st_clstm.speedup())
      .Field("st_clstm_forward_scalar_ns_op",
             st_clstm.nograph_scalar.ns_per_step)
      .Field("st_clstm_forward_simd_speedup", st_clstm.simd_speedup())
      .Field("st_clstm_forward_fused_ns_op", st_clstm.fused.ns_per_step)
      .Field("st_clstm_forward_fused_speedup", st_clstm.fused_speedup())
      .Field("lstm_forward_h128_graph_ns_op", lstm_big.graph.ns_per_step)
      .Field("lstm_forward_h128_nograph_ns_op", lstm_big.nograph.ns_per_step)
      .Field("lstm_forward_h128_speedup", lstm_big.speedup())
      .Field("lstm_forward_h128_scalar_ns_op",
             lstm_big.nograph_scalar.ns_per_step)
      .Field("lstm_forward_h128_simd_speedup", lstm_big.simd_speedup())
      .Field("lstm_forward_h128_fused_ns_op", lstm_big.fused.ns_per_step)
      .Field("lstm_forward_h128_fused_speedup", lstm_big.fused_speedup())
      .Field("topk_graph_qps", topk_graph.qps)
      .Field("topk_nograph_qps", topk_fast.qps)
      .Field("topk_speedup", topk_speedup)
      .Field("pool_acquires", pool_stats.acquires)
      .Field("pool_reuse_rate", reuse_rate)
      // "ratio" is deliberately not a tracked bench_compare suffix: the
      // overhead gate is enforced in-binary below, not as a regression diff.
      .Field("obs_overhead_plain_ns_op", obs_overhead.plain_ns)
      .Field("obs_overhead_instr_ns_op", obs_overhead.instr_ns)
      .Field("obs_overhead_ratio", obs_overhead.ratio)
      .Field("bit_identical", identical)
      .RawField("metrics", obs::MetricRegistry::Global().SnapshotJson())
      .EndObject();
  std::string out_path = "BENCH_inference.json";
  if (const char* dir = std::getenv("PA_BENCH_DIR")) {
    out_path = (std::filesystem::path(dir) / out_path).string();
  }
  std::ofstream out(out_path);
  out << w.str() << "\n";
  std::printf("wrote %s\n", out_path.c_str());

  if (!identical) {
    std::fprintf(stderr, "FAIL: graph-free forward diverged from the "
                         "graph-building path\n");
    return 1;
  }
  if (!smoke && lstm.speedup() < 2.0) {
    std::fprintf(stderr, "FAIL: lstm_forward graph-free speedup %.2fx < 2x\n",
                 lstm.speedup());
    return 1;
  }
  if (!smoke && lstm.simd_speedup() < 1.5) {
    std::fprintf(stderr,
                 "FAIL: lstm_forward SIMD kernels %.2fx < 1.5x over scalar\n",
                 lstm.simd_speedup());
    return 1;
  }
  if (!smoke && st_clstm.simd_speedup() < 1.5) {
    std::fprintf(
        stderr,
        "FAIL: st_clstm_forward SIMD kernels %.2fx < 1.5x over scalar\n",
        st_clstm.simd_speedup());
    return 1;
  }
  // Fused-path gates only apply when fusion is actually on (the PA_FUSION
  // escape hatch turns the fused arm into a second unfused pass).
  if (!smoke && tensor::fusion::Enabled() && lstm.fused_speedup() < 1.3) {
    std::fprintf(stderr,
                 "FAIL: lstm_forward fused forward %.2fx < 1.3x over the "
                 "unfused fast path\n",
                 lstm.fused_speedup());
    return 1;
  }
  if (!smoke && tensor::fusion::Enabled() && st_clstm.fused_speedup() < 1.3) {
    std::fprintf(stderr,
                 "FAIL: st_clstm_forward fused replay %.2fx < 1.3x over the "
                 "unfused fast path\n",
                 st_clstm.fused_speedup());
    return 1;
  }
  if (!smoke && obs_overhead.ratio > 1.03) {
    std::fprintf(stderr,
                 "FAIL: instrumented-but-disabled rollout is %.1f%% slower "
                 "than plain (budget: 3%%)\n",
                 100.0 * (obs_overhead.ratio - 1.0));
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace pa

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  return pa::Run(smoke);
}
