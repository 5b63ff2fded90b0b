// Fusion-layer suite: the fused kernels (add3/lerp/axpby/cell_update/
// tanh_mul/gate_act), the Lerp/Axpby ops, the strided slice views, the
// CompiledStep record-and-replay path the RNN, GRU, ST-RNN and ST-CLSTM
// cells run through, and the LSTM's explicit fused forward.
//
// The contracts under test, from kernels.h, compiled_step.h and lstm.h:
//
//   * Every fused kernel is bit-identical, per table, to the composition of
//     that same table's primitive kernels it replaces (gate_act/tanh_mul
//     call the table's own SigmoidK/TanhK, so this holds even for the
//     expf-based entries).
//   * A compiled-step replay, and the LSTM's explicit forward at any batch
//     size, are bit-identical to running the same cell body unfused
//     (ScopedFusionDisable) and to the graph-building path
//     (ScopedInferenceDisable), serial and with PA_THREADS > 1; so is a
//     served LSTM session stepping its own state in place.
//   * The per-thread program cache discriminates on input shape and on
//     StepSite identity, and falls back (never miscompiles) on batch > 1.
//
// The suite must also pass under PA_FUSION=off (tier1.sh reruns it that
// way), so every assertion that fusion actually engaged is gated on
// fusion::Enabled().

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "augment/pa_seq2seq.h"
#include "nn/gru_cell.h"
#include "nn/lstm.h"
#include "nn/rnn_cell.h"
#include "nn/st_clstm.h"
#include "nn/st_rnn_cell.h"
#include "rec/neural_recommender.h"
#include "tensor/compiled_step.h"
#include "tensor/gradcheck.h"
#include "tensor/init.h"
#include "tensor/kernels/kernels.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace pa {
namespace {

using tensor::Shape;
using tensor::Tensor;
namespace fusion = tensor::fusion;
namespace kernels = tensor::kernels;

// ---------------------------------------------------------------------------
// Fused kernels vs their primitive compositions, per table.

std::vector<const kernels::KernelTable*> AllTables() {
  std::vector<const kernels::KernelTable*> tables = {&kernels::ScalarTable(),
                                                     &kernels::GenericTable()};
  if (const kernels::KernelTable* avx2 = kernels::Avx2Table()) {
    tables.push_back(avx2);
  }
  return tables;
}

// Deterministic spread over sign / magnitude / fractions; finite, since the
// compositions under test only ever see gate pre-activations and states.
std::vector<float> TestInput(int64_t n, uint32_t salt) {
  std::vector<float> v(static_cast<size_t>(n));
  uint32_t state = 0x9e3779b9u + salt;
  for (int64_t i = 0; i < n; ++i) {
    state = state * 1664525u + 1013904223u;
    const float u = static_cast<float>(state >> 8) /
                    static_cast<float>(1u << 24);  // [0, 1)
    v[static_cast<size_t>(i)] = (u - 0.5f) * 12.0f;
  }
  return v;
}

bool BitEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Length deliberately not a multiple of any vector width.
constexpr int64_t kN = 259;

TEST(FusedKernelTest, Add3MatchesChainedAdds) {
  const auto a = TestInput(kN, 1), b = TestInput(kN, 2), c = TestInput(kN, 3);
  for (const kernels::KernelTable* kt : AllTables()) {
    std::vector<float> fused(kN), ref(kN), tmp(kN);
    kt->add3(a.data(), b.data(), c.data(), fused.data(), kN);
    kt->add(a.data(), b.data(), tmp.data(), kN);
    kt->add(tmp.data(), c.data(), ref.data(), kN);
    EXPECT_TRUE(BitEqual(fused, ref)) << kt->name;
  }
}

TEST(FusedKernelTest, LerpMatchesOneMinusComposition) {
  const auto a = TestInput(kN, 4), b = TestInput(kN, 5);
  auto mask = TestInput(kN, 6);
  for (float& m : mask) m = 1.0f / (1.0f + std::exp(-m));  // masks in (0, 1)
  for (const kernels::KernelTable* kt : AllTables()) {
    std::vector<float> fused(kN), ref(kN), om(kN), t(kN);
    kt->lerp(mask.data(), a.data(), b.data(), fused.data(), kN);
    // The unfused form the rewriter matches: (mask * -1 + 1) ⊙ b + mask ⊙ a.
    kt->mulc(mask.data(), -1.0f, om.data(), kN);
    kt->addc(om.data(), 1.0f, om.data(), kN);
    kt->mul(om.data(), b.data(), om.data(), kN);
    kt->mul(mask.data(), a.data(), t.data(), kN);
    kt->add(om.data(), t.data(), ref.data(), kN);
    EXPECT_TRUE(BitEqual(fused, ref)) << kt->name;
  }
}

TEST(FusedKernelTest, AxpbyMatchesScaleAddComposition) {
  const auto a = TestInput(kN, 7), b = TestInput(kN, 8);
  for (const kernels::KernelTable* kt : AllTables()) {
    std::vector<float> fused(kN), ref(kN), t(kN);
    kt->axpby(a.data(), 0.3f, b.data(), 0.7f, fused.data(), kN);
    kt->mulc(a.data(), 0.3f, t.data(), kN);
    kt->mulc(b.data(), 0.7f, ref.data(), kN);
    kt->add(t.data(), ref.data(), ref.data(), kN);
    EXPECT_TRUE(BitEqual(fused, ref)) << kt->name;
  }
}

TEST(FusedKernelTest, CellUpdateMatchesMulMulAdd) {
  const auto f = TestInput(kN, 9), c = TestInput(kN, 10);
  const auto i = TestInput(kN, 11), g = TestInput(kN, 12);
  for (const kernels::KernelTable* kt : AllTables()) {
    std::vector<float> fused(kN), ref(kN), t(kN);
    kt->cell_update(f.data(), c.data(), i.data(), g.data(), fused.data(), kN);
    kt->mul(f.data(), c.data(), t.data(), kN);
    kt->mul(i.data(), g.data(), ref.data(), kN);
    kt->add(t.data(), ref.data(), ref.data(), kN);
    EXPECT_TRUE(BitEqual(fused, ref)) << kt->name;
  }
}

TEST(FusedKernelTest, TanhMulMatchesSameTableTanhThenMul) {
  const auto o = TestInput(kN, 13), c = TestInput(kN, 14);
  for (const kernels::KernelTable* kt : AllTables()) {
    std::vector<float> fused(kN), ref(kN), t(kN);
    kt->tanh_mul(o.data(), c.data(), fused.data(), kN);
    kt->tanh(c.data(), t.data(), kN);
    kt->mul(o.data(), t.data(), ref.data(), kN);
    EXPECT_TRUE(BitEqual(fused, ref)) << kt->name;
  }
}

TEST(FusedKernelTest, GateActMatchesPerSliceActivationsAndAliasesInPlace) {
  constexpr int kH = 37;
  constexpr int kSlices = 4;
  const uint8_t acts[kSlices] = {0, 0, 1, 0};  // [i, f, g, o] LSTM layout.
  const auto gates = TestInput(kH * kSlices, 15);
  for (const kernels::KernelTable* kt : AllTables()) {
    std::vector<float> fused(gates.size()), ref(gates.size());
    kt->gate_act(gates.data(), fused.data(), /*m=*/1, kH, acts, kSlices);
    for (int s = 0; s < kSlices; ++s) {
      const float* in = gates.data() + s * kH;
      float* out = ref.data() + s * kH;
      if (acts[s] == 0) {
        kt->sigmoid(in, out, kH);
      } else {
        kt->tanh(in, out, kH);
      }
    }
    EXPECT_TRUE(BitEqual(fused, ref)) << kt->name;
    // Exact aliasing (out == gates) is the form compiled replay emits.
    std::vector<float> inplace = gates;
    kt->gate_act(inplace.data(), inplace.data(), /*m=*/1, kH, acts, kSlices);
    EXPECT_TRUE(BitEqual(inplace, ref)) << kt->name << " in-place";
  }
}

// ---------------------------------------------------------------------------
// Lerp / Axpby ops: forward composition identity + gradients.

TEST(LerpAxpbyOpTest, ForwardMatchesCompositionBitwise) {
  util::Rng rng(21);
  Tensor mask = tensor::Sigmoid(tensor::UniformInit({1, 33}, 2.0f, rng));
  Tensor a = tensor::UniformInit({1, 33}, 3.0f, rng);
  Tensor b = tensor::UniformInit({1, 33}, 3.0f, rng);
  tensor::InferenceModeScope scope;
  Tensor lerp = tensor::Lerp(mask, a, b);
  Tensor lerp_ref = tensor::Add(
      tensor::Mul(tensor::AddScalar(tensor::Scale(mask, -1.0f), 1.0f), b),
      tensor::Mul(mask, a));
  ASSERT_EQ(lerp.shape(), lerp_ref.shape());
  EXPECT_EQ(std::memcmp(lerp.data(), lerp_ref.data(),
                        sizeof(float) * static_cast<size_t>(lerp.numel())),
            0);

  Tensor axpby = tensor::Axpby(a, 0.25f, b, 0.75f);
  Tensor axpby_ref =
      tensor::Add(tensor::Scale(a, 0.25f), tensor::Scale(b, 0.75f));
  EXPECT_EQ(std::memcmp(axpby.data(), axpby_ref.data(),
                        sizeof(float) * static_cast<size_t>(axpby.numel())),
            0);
}

TEST(LerpAxpbyOpTest, GradientsPassFiniteDifferences) {
  util::Rng rng(22);
  Tensor mask = tensor::UniformInit({2, 5}, 0.4f, rng);
  Tensor a = tensor::UniformInit({2, 5}, 1.0f, rng);
  Tensor b = tensor::UniformInit({2, 5}, 1.0f, rng);
  auto lerp_res = tensor::CheckGradients(
      [=] { return tensor::Sum(tensor::Lerp(mask, a, b)); }, {mask, a, b});
  EXPECT_TRUE(lerp_res.ok) << lerp_res.worst_location;
  auto axpby_res = tensor::CheckGradients(
      [=] { return tensor::Sum(tensor::Axpby(a, 0.6f, b, -1.2f)); }, {a, b});
  EXPECT_TRUE(axpby_res.ok) << axpby_res.worst_location;
}

// ---------------------------------------------------------------------------
// Strided slice views.

TEST(StridedViewTest, ViewsMatchCopyingSlices) {
  util::Rng rng(23);
  Tensor a = tensor::UniformInit({5, 12}, 2.0f, rng);
  tensor::InferenceModeScope scope;

  tensor::StridedView cols = tensor::SliceColsView(a, 3, 4);
  Tensor cols_copy = tensor::SliceCols(a, 3, 4);
  ASSERT_EQ(cols.rows, 5);
  ASSERT_EQ(cols.cols, 4);
  EXPECT_FALSE(cols.contiguous());  // 5 rows with row_stride 12 != 4.
  for (int r = 0; r < cols.rows; ++r) {
    EXPECT_EQ(std::memcmp(cols.row(r), cols_copy.data() + r * 4,
                          4 * sizeof(float)),
              0)
        << "row " << r;
  }

  tensor::StridedView rows = tensor::SliceRowsView(a, 1, 3);
  Tensor rows_copy = tensor::SliceRows(a, 1, 3);
  ASSERT_EQ(rows.rows, 3);
  ASSERT_EQ(rows.cols, 12);
  EXPECT_TRUE(rows.contiguous());
  EXPECT_EQ(std::memcmp(rows.data, rows_copy.data(), 3 * 12 * sizeof(float)),
            0);

  // Single-row column slice is contiguous — the case replay reads in place.
  Tensor one = tensor::UniformInit({1, 8}, 1.0f, rng);
  tensor::StridedView v = tensor::SliceColsView(one, 2, 5);
  EXPECT_TRUE(v.contiguous());
  EXPECT_EQ(v.data, one.data() + 2);
}

// ---------------------------------------------------------------------------
// Cell-level fused vs unfused vs graph parity.

std::vector<float> Flat(const Tensor& t) {
  return std::vector<float>(t.data(), t.data() + t.numel());
}

// Runs `step` T times, threading the state through, and returns every
// output element of every step concatenated.
template <typename StepFn>
std::vector<float> Rollout(int steps, const StepFn& step) {
  std::vector<float> all;
  for (int t = 0; t < steps; ++t) {
    std::vector<float> out = step(t);
    all.insert(all.end(), out.begin(), out.end());
  }
  return all;
}

// Deterministic [1, d] input for step t.
Tensor StepInput(int d, int t, uint32_t salt) {
  return Tensor::FromData({1, d},
                          TestInput(d, salt * 131u + static_cast<uint32_t>(t)));
}

// How a cell's fused run executes: compiled replay through RunStep (RNN,
// GRU, ST-RNN, ST-CLSTM), or the LSTM's explicit forward, which never
// enters RunStep and so records, replays and falls back on nothing.
enum class FusedPath { kReplay, kExplicit };

// Three-way parity harness: fused (default inference), unfused
// (ScopedFusionDisable), and graph (ScopedInferenceDisable) rollouts of the
// same step function must be bitwise identical. When fusion is enabled a
// kReplay cell's fused run must have gone through compiled replay; a
// kExplicit cell must leave the RunStep counters untouched either way.
template <typename RolloutFn>
void ExpectThreeWayParity(const RolloutFn& run, const char* what,
                          FusedPath path = FusedPath::kReplay) {
  const fusion::FusionStats before = fusion::ThisThreadStats();
  std::vector<float> fused;
  {
    tensor::InferenceModeScope scope;
    fused = run();
  }
  const fusion::FusionStats after = fusion::ThisThreadStats();
  std::vector<float> unfused;
  {
    tensor::InferenceModeScope scope;
    fusion::ScopedFusionDisable no_fusion;
    unfused = run();
  }
  std::vector<float> graph;
  {
    tensor::internal::ScopedInferenceDisable disable;
    graph = run();
  }
  EXPECT_TRUE(BitEqual(fused, unfused)) << what << ": fused vs unfused";
  EXPECT_TRUE(BitEqual(fused, graph)) << what << ": fused vs graph";
  if (path == FusedPath::kExplicit) {
    EXPECT_EQ(after.recorded, before.recorded) << what;
    EXPECT_EQ(after.replayed, before.replayed) << what;
    EXPECT_EQ(after.fallback, before.fallback) << what;
  } else if (fusion::Enabled()) {
    EXPECT_GT(after.recorded, before.recorded) << what;
    EXPECT_GT(after.replayed, before.replayed) << what;
  }
}

constexpr int kSteps = 8;

TEST(CompiledStepTest, LstmThreeWayParity) {
  util::Rng rng(31);
  nn::LstmCell cell(12, 16, rng);
  ExpectThreeWayParity(
      [&] {
        nn::LstmState state = cell.InitialState(1);
        return Rollout(kSteps, [&](int t) {
          state = cell.Forward(StepInput(12, t, 1), state);
          std::vector<float> out = Flat(state.h);
          const std::vector<float> c = Flat(state.c);
          out.insert(out.end(), c.begin(), c.end());
          return out;
        });
      },
      "lstm", FusedPath::kExplicit);
}

TEST(CompiledStepTest, LstmZoneoutEvalThreeWayParity) {
  util::Rng rng(32);
  nn::LstmCell cell(10, 12, rng);
  nn::ZoneoutConfig zoneout;
  zoneout.hidden_prob = 0.1f;
  zoneout.cell_prob = 0.05f;
  util::Rng step_rng(1);
  ExpectThreeWayParity(
      [&] {
        nn::LstmState state = cell.InitialState(1);
        return Rollout(kSteps, [&](int t) {
          state = cell.ForwardZoneout(StepInput(10, t, 2), state, zoneout,
                                      /*training=*/false, step_rng);
          std::vector<float> out = Flat(state.h);
          const std::vector<float> c = Flat(state.c);
          out.insert(out.end(), c.begin(), c.end());
          return out;
        });
      },
      "lstm_zoneout_eval", FusedPath::kExplicit);
}

TEST(CompiledStepTest, StClstmThreeWayParity) {
  util::Rng rng(33);
  nn::StClstmCell cell(12, 16, rng);
  ExpectThreeWayParity(
      [&] {
        nn::LstmState state = cell.InitialState(1);
        return Rollout(kSteps, [&](int t) {
          // Vary Δt/Δd per step so scalar discrimination has to bind them.
          state = cell.Forward(StepInput(12, t, 3), state,
                               0.25f + 0.01f * static_cast<float>(t % 7),
                               0.5f + 0.02f * static_cast<float>(t % 5));
          std::vector<float> out = Flat(state.h);
          const std::vector<float> c = Flat(state.c);
          out.insert(out.end(), c.begin(), c.end());
          return out;
        });
      },
      "st_clstm");
}

TEST(CompiledStepTest, GruThreeWayParity) {
  util::Rng rng(34);
  nn::GruCell cell(12, 16, rng);
  ExpectThreeWayParity(
      [&] {
        Tensor h = cell.InitialState(1);
        return Rollout(kSteps, [&](int t) {
          h = cell.Forward(StepInput(12, t, 4), h);
          return Flat(h);
        });
      },
      "gru");
}

TEST(CompiledStepTest, RnnThreeWayParity) {
  util::Rng rng(35);
  nn::RnnCell cell(12, 16, rng);
  ExpectThreeWayParity(
      [&] {
        Tensor h = cell.InitialState(1);
        return Rollout(kSteps, [&](int t) {
          h = cell.Forward(StepInput(12, t, 5), h);
          return Flat(h);
        });
      },
      "rnn");
}

TEST(CompiledStepTest, StRnnThreeWayParityAcrossBucketVariants) {
  util::Rng rng(36);
  nn::StRnnCell cell(12, 16, rng, /*time_buckets=*/3, /*distance_buckets=*/3);
  ExpectThreeWayParity(
      [&] {
        Tensor h = cell.InitialState(1);
        // Sweep bucket pairs so several `variant` programs get compiled.
        return Rollout(2 * kSteps, [&](int t) {
          const float dt = 0.5f + 1.2f * static_cast<float>(t % 3);
          const float dd = 0.3f + 1.5f * static_cast<float>(t % 2);
          h = cell.Forward(StepInput(12, t, 6), h, dt, dd);
          return Flat(h);
        });
      },
      "st_rnn");
}

// PA_THREADS > 1 at a large hidden size: every path runs each product whole
// on the calling thread, so the pool size must not move a bit.
TEST(CompiledStepTest, LstmThreadedParityAtLargeHidden) {
  util::Rng rng(37);
  nn::LstmCell cell(64, 160, rng);
  util::SetThreadCount(4);
  ExpectThreeWayParity(
      [&] {
        nn::LstmState state = cell.InitialState(1);
        return Rollout(kSteps, [&](int t) {
          state = cell.Forward(StepInput(64, t, 7), state);
          std::vector<float> out = Flat(state.h);
          const std::vector<float> c = Flat(state.c);
          out.insert(out.end(), c.begin(), c.end());
          return out;
        });
      },
      "lstm_threaded", FusedPath::kExplicit);
  util::SetThreadCount(0);
}

// ---------------------------------------------------------------------------
// Cache behavior: shape keying, batch fallback, site independence.

TEST(CompiledStepTest, BatchGreaterThanOneFallsBackAndStaysCorrect) {
  util::Rng rng(41);
  nn::GruCell cell(8, 12, rng);
  const fusion::FusionStats before = fusion::ThisThreadStats();
  std::vector<float> fast, graph;
  {
    tensor::InferenceModeScope scope;
    Tensor h = Tensor::Zeros({3, 12});
    for (int t = 0; t < 4; ++t) {
      h = cell.Forward(Tensor::FromData({3, 8}, TestInput(24, 50 + t)), h);
    }
    fast = Flat(h);
  }
  const fusion::FusionStats after = fusion::ThisThreadStats();
  {
    tensor::internal::ScopedInferenceDisable disable;
    Tensor h = Tensor::Zeros({3, 12});
    for (int t = 0; t < 4; ++t) {
      h = cell.Forward(Tensor::FromData({3, 8}, TestInput(24, 50 + t)), h);
    }
    graph = Flat(h);
  }
  EXPECT_TRUE(BitEqual(fast, graph));
  if (fusion::Enabled()) {
    // Batched steps must not record or replay — rows == 1 is the contract.
    EXPECT_EQ(after.recorded, before.recorded);
    EXPECT_EQ(after.replayed, before.replayed);
    EXPECT_GT(after.fallback, before.fallback);
  }
}

TEST(CompiledStepTest, ShapeChangeCompilesSeparatePrograms) {
  // One site, driven directly, with two different input widths: each shape
  // must get its own cached program and replay correctly.
  fusion::StepSite site;
  util::Rng rng(42);
  Tensor w8 = tensor::UniformInit({8, 8}, 0.5f, rng);
  Tensor w16 = tensor::UniformInit({16, 16}, 0.5f, rng);
  auto step = [&](const Tensor& x) {
    const Tensor& w = x.cols() == 8 ? w8 : w16;
    std::vector<Tensor> out = fusion::RunStep(
        site, /*variant=*/0, {x}, {}, [&]() -> std::vector<Tensor> {
          return {tensor::Tanh(tensor::MatMul(x, w))};
        });
    return std::move(out[0]);
  };
  const fusion::FusionStats before = fusion::ThisThreadStats();
  tensor::InferenceModeScope scope;
  std::vector<std::vector<float>> got;
  for (int round = 0; round < 4; ++round) {
    for (int width : {8, 16}) {
      got.push_back(
          Flat(step(Tensor::FromData({1, width}, TestInput(width, 60)))));
    }
  }
  const fusion::FusionStats after = fusion::ThisThreadStats();
  // Same input every round: rounds 1..3 must reproduce round 0 exactly.
  for (size_t i = 2; i < got.size(); ++i) {
    EXPECT_TRUE(BitEqual(got[i], got[i % 2])) << "round output " << i;
  }
  if (fusion::Enabled()) {
    // Two shapes -> (at least) two recorded traces and replays for both.
    EXPECT_GE(after.recorded - before.recorded, 2u);
    EXPECT_GE(after.replayed - before.replayed, 2u);
  }
}

TEST(CompiledStepTest, DistinctCellInstancesDoNotShareAnything) {
  util::Rng rng_a(43), rng_b(44);
  nn::RnnCell cell_a(6, 10, rng_a);
  nn::RnnCell cell_b(6, 10, rng_b);  // Different weights, same shapes.
  auto roll = [&](const nn::RnnCell& cell, uint32_t salt) {
    Tensor h = cell.InitialState(1);
    return Rollout(kSteps, [&](int t) {
      h = cell.Forward(StepInput(6, t, salt), h);
      return Flat(h);
    });
  };
  std::vector<float> a_fused, b_fused, a_ref, b_ref;
  {
    tensor::InferenceModeScope scope;
    // Interleave the two cells so a shared/stale program would cross wires.
    for (int round = 0; round < 2; ++round) {
      a_fused = roll(cell_a, 70);
      b_fused = roll(cell_b, 71);
    }
  }
  {
    tensor::InferenceModeScope scope;
    fusion::ScopedFusionDisable no_fusion;
    a_ref = roll(cell_a, 70);
    b_ref = roll(cell_b, 71);
  }
  EXPECT_TRUE(BitEqual(a_fused, a_ref));
  EXPECT_TRUE(BitEqual(b_fused, b_ref));
  EXPECT_FALSE(BitEqual(a_fused, b_fused));  // Sanity: weights do differ.
}

TEST(FusionEnabledTest, ScopedDisableTogglesEnabledOnThisThread) {
  const bool env_on = fusion::Enabled();
  {
    fusion::ScopedFusionDisable off;
    EXPECT_FALSE(fusion::Enabled());
    {
      fusion::ScopedFusionDisable nested;
      EXPECT_FALSE(fusion::Enabled());
    }
    EXPECT_FALSE(fusion::Enabled());
  }
  EXPECT_EQ(fusion::Enabled(), env_on);
}

// ---------------------------------------------------------------------------
// PA-Seq2Seq decoder: fused vs unfused decode-only entry points.

constexpr int64_t kHour = 3600;

TEST(CompiledStepTest, PaSeq2SeqDecodeParity) {
  poi::PoiTable pois = [] {
    std::vector<geo::LatLng> coords;
    for (int i = 0; i < 6; ++i) {
      coords.push_back({40.0 + 0.01 * i, -100.0 + 0.005 * i});
    }
    return poi::PoiTable(std::move(coords));
  }();
  augment::PaSeq2SeqConfig config;
  config.embedding_dim = 8;
  config.hidden_dim = 8;
  config.stage1_epochs = 1;
  config.stage2_epochs = 1;
  config.stage3_epochs = 2;
  config.candidate_radius_km = 0.0;
  config.seed = 5;
  augment::PaSeq2Seq model(pois, config);
  std::vector<poi::CheckinSequence> train(3);
  for (int u = 0; u < 3; ++u) {
    for (int i = 0; i < 40; ++i) {
      train[u].push_back({u, i % 3, i * 3 * kHour, false});
    }
  }
  model.Fit(train);

  poi::CheckinSequence history;
  for (int i = 0; i < 12; ++i) {
    history.push_back({0, i % 3, i * 3 * kHour, false});
  }
  const int64_t next_ts = 12 * 3 * kHour;

  const fusion::FusionStats before = fusion::ThisThreadStats();
  const auto rank_fused = model.RankNext(history, next_ts, 6);
  const fusion::FusionStats after = fusion::ThisThreadStats();
  std::vector<int32_t> rank_unfused;
  {
    fusion::ScopedFusionDisable no_fusion;
    rank_unfused = model.RankNext(history, next_ts, 6);
  }
  EXPECT_EQ(rank_fused, rank_unfused);
  EXPECT_FALSE(rank_fused.empty());
  // The encoder and decoder are LstmCells: their explicit forward records
  // nothing and never enters RunStep.
  EXPECT_EQ(after.recorded, before.recorded);
  EXPECT_EQ(after.replayed, before.replayed);
  EXPECT_EQ(after.fallback, before.fallback);
}

// ---------------------------------------------------------------------------
// The LSTM's explicit forward beyond one row, and a served LSTM session
// stepping its own state in place.

TEST(ExplicitLstmTest, BatchThreeMatchesGraphPath) {
  constexpr int kBatch = 3, kIn = 12, kHidden = 16;
  util::Rng rng(38);
  nn::LstmCell cell(kIn, kHidden, rng);
  auto input = [](int t) {
    return Tensor::FromData(
        {kBatch, kIn}, TestInput(kBatch * kIn, 900u + static_cast<uint32_t>(t)));
  };
  ExpectThreeWayParity(
      [&] {
        nn::LstmState state = cell.InitialState(kBatch);
        return Rollout(kSteps, [&](int t) {
          state = cell.Forward(input(t), state);
          std::vector<float> out = Flat(state.h);
          const std::vector<float> c = Flat(state.c);
          out.insert(out.end(), c.begin(), c.end());
          return out;
        });
      },
      "lstm_batch3", FusedPath::kExplicit);

  // ForwardRows stepping one h/c pair in place equals the graph rollout.
  std::vector<float> h(kBatch * kHidden, 0.0f), c(kBatch * kHidden, 0.0f);
  for (int t = 0; t < kSteps; ++t) {
    const Tensor x = input(t);
    cell.ForwardRows(x.data(), h.data(), c.data(), h.data(), c.data(), kBatch);
  }
  tensor::internal::ScopedInferenceDisable graph_mode;
  nn::LstmState state = cell.InitialState(kBatch);
  for (int t = 0; t < kSteps; ++t) state = cell.Forward(input(t), state);
  EXPECT_TRUE(BitEqual(h, Flat(state.h)));
  EXPECT_TRUE(BitEqual(c, Flat(state.c)));
}

TEST(ExplicitLstmTest, ServedSessionRebuildMatchesStepPath) {
  // A [1, 24] x [24, 3000] projection, checked at one and four threads.
  constexpr int kPois = 3000;
  std::vector<geo::LatLng> coords;
  for (int i = 0; i < kPois; ++i) {
    coords.push_back({40.0 + 0.001 * (i % 60), -100.0 + 0.001 * (i / 60)});
  }
  const poi::PoiTable pois(std::move(coords));
  rec::NeuralRecConfig config;
  config.cell = rec::NeuralRecConfig::Cell::kLstm;
  config.epochs = 1;
  rec::NeuralRecommender model(config);
  std::vector<poi::CheckinSequence> train(4);
  for (int u = 0; u < 4; ++u) {
    for (int i = 0; i < 24; ++i) {
      train[u].push_back({u, (u * 37 + i * 11) % kPois, i * 3 * kHour, false});
    }
  }
  model.Fit(train, pois);

  poi::CheckinSequence history;
  for (int i = 0; i < 64; ++i) {
    history.push_back({9, (i * i * 7 + i) % kPois, i * 2 * kHour, false});
  }
  const int64_t next_ts = 64 * 2 * kHour;
  auto rebuild_and_rank = [&] {
    std::unique_ptr<rec::RecSession> session = model.NewSession(9);
    for (const poi::Checkin& c : history) session->Observe(c);
    return session->TopK(kPois, next_ts);
  };

  for (const kernels::KernelTable* table :
       {&kernels::ScalarTable(), &kernels::BestSimdTable()}) {
    kernels::SetDispatchOverride(table);
    std::vector<int32_t> first;
    for (int threads : {1, 4}) {
      util::SetThreadCount(threads);
      const std::string what =
          std::string(table->name) + " threads=" + std::to_string(threads);
      const std::vector<int32_t> in_place = rebuild_and_rank();
      std::vector<int32_t> unfused, graph;
      {
        fusion::ScopedFusionDisable no_fusion;
        unfused = rebuild_and_rank();
      }
      {
        tensor::internal::ScopedInferenceDisable graph_mode;
        graph = rebuild_and_rank();
      }
      EXPECT_EQ(in_place.size(), static_cast<size_t>(kPois)) << what;
      EXPECT_EQ(in_place, unfused) << what;
      EXPECT_EQ(in_place, graph) << what;
      if (first.empty()) first = in_place;
      EXPECT_EQ(in_place, first) << what << " vs threads=1";
    }
  }
  util::SetThreadCount(0);
  kernels::SetDispatchOverride(nullptr);
}

}  // namespace
}  // namespace pa
