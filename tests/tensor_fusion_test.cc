// Fusion-layer suite: the fused kernels (add3/lerp/axpby/cell_update/
// tanh_mul/gate_act), the Lerp op, the explicit fused forwards
// (`ForwardRows`) of the RNN, ST-RNN, GRU, LSTM and ST-CLSTM cells, and the
// raw-row forwards of the residual BiLSTM encoder and local attention.
//
// The contracts under test, from kernels.h and the cell headers:
//
//   * Every fused kernel is bit-identical, per table, to the composition of
//     that same table's primitive kernels it replaces (gate_act/tanh_mul
//     call the table's own SigmoidK/TanhK, so this holds even for the
//     expf-based entries).
//   * Each cell's explicit forward (the inference path), at batch 1 and 3,
//     stepping one h/c pair in place the way a session steps its state, is
//     bit-identical to the cell's graph `Forward` (the training path),
//     serial and with PA_THREADS > 1; so is a served session of every cell
//     against a graph rollout over modules restored from its model's
//     payload.

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nn/attention.h"
#include "nn/gru_cell.h"
#include "nn/lstm.h"
#include "nn/rnn_cell.h"
#include "nn/st_clstm.h"
#include "nn/st_rnn_cell.h"
#include "poi/poi_table.h"
#include "rec/neural_recommender.h"
#include "tensor/gradcheck.h"
#include "tensor/init.h"
#include "tensor/kernels/kernels.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"
#include "util/thread_pool.h"

#include "neural_graph_reference.h"

namespace pa {
namespace {

using tensor::Shape;
using tensor::Tensor;
namespace kernels = tensor::kernels;

// ---------------------------------------------------------------------------
// Fused kernels vs their primitive compositions, per table.

std::vector<const kernels::KernelTable*> AllTables() {
  std::vector<const kernels::KernelTable*> tables = {&kernels::ScalarTable(),
                                                     &kernels::GenericTable()};
  if (const kernels::KernelTable* avx2 = kernels::Avx2Table()) {
    tables.push_back(avx2);
  }
  if (const kernels::KernelTable* avx512 = kernels::Avx512Table()) {
    tables.push_back(avx512);
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
    // The unfused form it replaces: (mask * -1 + 1) ⊙ b + mask ⊙ a.
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
    // Exact aliasing (out == gates) is the form the cell forwards use.
    std::vector<float> inplace = gates;
    kt->gate_act(inplace.data(), inplace.data(), /*m=*/1, kH, acts, kSlices);
    EXPECT_TRUE(BitEqual(inplace, ref)) << kt->name << " in-place";
  }
}

// ---------------------------------------------------------------------------
// Lerp op: forward composition identity + gradients.

TEST(LerpOpTest, ForwardMatchesCompositionBitwise) {
  util::Rng rng(21);
  Tensor mask = tensor::Sigmoid(tensor::UniformInit({1, 33}, 2.0f, rng));
  Tensor a = tensor::UniformInit({1, 33}, 3.0f, rng);
  Tensor b = tensor::UniformInit({1, 33}, 3.0f, rng);
  Tensor lerp = tensor::Lerp(mask, a, b);
  Tensor lerp_ref = tensor::Add(
      tensor::Mul(tensor::AddScalar(tensor::Scale(mask, -1.0f), 1.0f), b),
      tensor::Mul(mask, a));
  ASSERT_EQ(lerp.shape(), lerp_ref.shape());
  EXPECT_EQ(std::memcmp(lerp.data(), lerp_ref.data(),
                        sizeof(float) * static_cast<size_t>(lerp.numel())),
            0);
}

TEST(LerpOpTest, GradientsPassFiniteDifferences) {
  util::Rng rng(22);
  Tensor mask = tensor::UniformInit({2, 5}, 0.4f, rng);
  Tensor a = tensor::UniformInit({2, 5}, 1.0f, rng);
  Tensor b = tensor::UniformInit({2, 5}, 1.0f, rng);
  auto lerp_res = tensor::CheckGradients(
      [=] { return tensor::Sum(tensor::Lerp(mask, a, b)); }, {mask, a, b});
  EXPECT_TRUE(lerp_res.ok) << lerp_res.worst_location;
}

// ---------------------------------------------------------------------------
// Cell-level explicit forward vs graph Forward parity.

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

// Deterministic [batch, d] input for step t.
Tensor StepInput(int d, int t, uint32_t salt, int batch = 1) {
  return Tensor::FromData(
      {batch, d},
      TestInput(static_cast<int64_t>(batch) * d,
                salt * 131u + static_cast<uint32_t>(t)));
}

constexpr int kSteps = 8;

// All five cells behind one interface, for the checks that sweep them.

enum class CellKind { kRnn, kStRnn, kGru, kLstm, kStClstm };
constexpr CellKind kAllCells[] = {CellKind::kRnn, CellKind::kStRnn,
                                  CellKind::kGru, CellKind::kLstm,
                                  CellKind::kStClstm};

std::string CellName(CellKind kind) {
  switch (kind) {
    case CellKind::kRnn:
      return "rnn";
    case CellKind::kStRnn:
      return "st_rnn";
    case CellKind::kGru:
      return "gru";
    case CellKind::kLstm:
      return "lstm";
    case CellKind::kStClstm:
      return "st_clstm";
  }
  return "?";
}

// Interval schedule for the spatio-temporal cells: it walks ST-RNN across
// all six of its bucket pairs (3 x 3 buckets over [0, 4)) and gives
// ST-CLSTM another Δt and Δd at every step.
float DeltaT(int t) { return 0.5f + 1.2f * static_cast<float>(t % 3); }
float DeltaD(int t) { return 0.3f + 1.5f * static_cast<float>(t % 2); }

// One cell of each kind at the same widths. Both rollouts start from the
// zero state and return every step's h then c (the RNN family leaves c at
// zero): `ForwardRollout` steps through the graph Forward, `RowsRollout`
// through ForwardRows on one raw h/c pair whose outputs alias its inputs,
// the way a session steps its own state.
class AllCells {
 public:
  AllCells(int input_dim, int hidden, uint64_t seed)
      : input_dim_(input_dim),
        hidden_(hidden),
        rng_(seed),
        rnn_(input_dim, hidden, rng_),
        st_rnn_(input_dim, hidden, rng_, /*time_buckets=*/3,
                /*distance_buckets=*/3),
        gru_(input_dim, hidden, rng_),
        lstm_(input_dim, hidden, rng_),
        st_clstm_(input_dim, hidden, rng_) {}

  std::vector<float> ForwardRollout(CellKind kind, int batch,
                                    uint32_t salt) const {
    nn::LstmState s{Tensor::Zeros({batch, hidden_}),
                    Tensor::Zeros({batch, hidden_})};
    return Rollout(kSteps, [&](int t) {
      const Tensor x = StepInput(input_dim_, t, salt, batch);
      switch (kind) {
        case CellKind::kRnn:
          s.h = rnn_.Forward(x, s.h);
          break;
        case CellKind::kStRnn:
          s.h = st_rnn_.Forward(x, s.h, DeltaT(t), DeltaD(t));
          break;
        case CellKind::kGru:
          s.h = gru_.Forward(x, s.h);
          break;
        case CellKind::kLstm:
          s = lstm_.Forward(x, s);
          break;
        case CellKind::kStClstm:
          s = st_clstm_.Forward(x, s, DeltaT(t), DeltaD(t));
          break;
      }
      std::vector<float> out = Flat(s.h);
      const std::vector<float> c = Flat(s.c);
      out.insert(out.end(), c.begin(), c.end());
      return out;
    });
  }

  std::vector<float> RowsRollout(CellKind kind, int batch,
                                 uint32_t salt) const {
    std::vector<float> h(static_cast<size_t>(batch) * hidden_, 0.0f);
    std::vector<float> c(h.size(), 0.0f);
    return Rollout(kSteps, [&](int t) {
      const Tensor x = StepInput(input_dim_, t, salt, batch);
      switch (kind) {
        case CellKind::kRnn:
          rnn_.ForwardRows(x.data(), h.data(), h.data(), batch);
          break;
        case CellKind::kStRnn:
          st_rnn_.ForwardRows(x.data(), h.data(), DeltaT(t), DeltaD(t),
                              h.data(), batch);
          break;
        case CellKind::kGru:
          gru_.ForwardRows(x.data(), h.data(), h.data(), batch);
          break;
        case CellKind::kLstm:
          lstm_.ForwardRows(x.data(), h.data(), c.data(), h.data(), c.data(),
                            batch);
          break;
        case CellKind::kStClstm:
          st_clstm_.ForwardRows(x.data(), h.data(), c.data(), DeltaT(t),
                                DeltaD(t), h.data(), c.data(), batch);
          break;
      }
      std::vector<float> out = h;
      out.insert(out.end(), c.begin(), c.end());
      return out;
    });
  }

 private:
  int input_dim_;
  int hidden_;
  util::Rng rng_;
  nn::RnnCell rnn_;
  nn::StRnnCell st_rnn_;
  nn::GruCell gru_;
  nn::LstmCell lstm_;
  nn::StClstmCell st_clstm_;
};

// Every cell at batch 1 and 3: the explicit forwards take any batch, and a
// ForwardRows rollout stepping one h/c pair in place matches the graph path.
TEST(FusedCellTest, RowsMatchGraphForwardAtBatchOneAndThree) {
  const AllCells cells(12, 16, 41);
  for (CellKind kind : kAllCells) {
    for (int batch : {1, 3}) {
      EXPECT_TRUE(BitEqual(cells.RowsRollout(kind, batch, 50),
                           cells.ForwardRollout(kind, batch, 50)))
          << CellName(kind) << " batch " << batch;
    }
  }
}

// PA_THREADS > 1 at a large hidden size: both paths run each product whole
// on the calling thread, so the pool size must not move a bit.
TEST(FusedCellTest, ThreadedParityAtLargeHidden) {
  const AllCells cells(64, 160, 37);
  util::SetThreadCount(4);
  for (CellKind kind : kAllCells) {
    for (int batch : {1, 3}) {
      EXPECT_TRUE(BitEqual(cells.RowsRollout(kind, batch, 7),
                           cells.ForwardRollout(kind, batch, 7)))
          << CellName(kind) << " batch " << batch << " threaded";
    }
  }
  util::SetThreadCount(0);
}

TEST(FusedCellTest, DistinctCellInstancesDoNotShareAnything) {
  util::Rng rng_a(43), rng_b(44);
  nn::RnnCell cell_a(6, 10, rng_a);
  nn::RnnCell cell_b(6, 10, rng_b);  // Different weights, same shapes.
  auto rows = [&](const nn::RnnCell& cell, uint32_t salt) {
    std::vector<float> h(10, 0.0f);
    return Rollout(kSteps, [&](int t) {
      cell.ForwardRows(StepInput(6, t, salt).data(), h.data(), h.data(), 1);
      return h;
    });
  };
  auto graph = [&](const nn::RnnCell& cell, uint32_t salt) {
    Tensor h = cell.InitialState(1);
    return Rollout(kSteps, [&](int t) {
      h = cell.Forward(StepInput(6, t, salt), h);
      return Flat(h);
    });
  };
  // Interleave the two cells so a shared scratch would cross wires.
  std::vector<float> a_rows, b_rows;
  for (int round = 0; round < 2; ++round) {
    a_rows = rows(cell_a, 70);
    b_rows = rows(cell_b, 71);
  }
  EXPECT_TRUE(BitEqual(a_rows, graph(cell_a, 70)));
  EXPECT_TRUE(BitEqual(b_rows, graph(cell_b, 71)));
  EXPECT_FALSE(BitEqual(a_rows, b_rows));  // Sanity: weights do differ.
}

// ---------------------------------------------------------------------------
// The module forwards PA-Seq2Seq's inference decode runs over raw rows,
// against the graph path under every kernel table.

// [n, d] inputs in (-1.5, 1.5), as one flat buffer.
std::vector<float> SmallInput(int n, int d, uint32_t salt) {
  std::vector<float> v = TestInput(static_cast<int64_t>(n) * d, salt);
  for (float& x : v) x *= 0.25f;
  return v;
}

// Row t of a flat [n, d] buffer as a [1, d] tensor, for every t.
std::vector<Tensor> RowTensors(const std::vector<float>& flat, int n, int d) {
  std::vector<Tensor> rows;
  for (int t = 0; t < n; ++t) {
    rows.push_back(Tensor::FromData(
        {1, d}, std::vector<float>(flat.begin() + t * d,
                                   flat.begin() + (t + 1) * d)));
  }
  return rows;
}

TEST(ExplicitModuleTest, ResidualBiLstmStackRowsMatchGraphForward) {
  // 8 hidden per direction makes the stack 16 wide: a 10-wide input takes
  // the projected skip, a 16-wide one the identity skip.
  constexpr int kHidden = 8, kWidth = 2 * kHidden, kSteps = 9;
  struct Case {
    int input_dim;
    bool residual;
    const char* what;
  };
  for (const kernels::KernelTable* table : AllTables()) {
    kernels::SetDispatchOverride(table);
    for (const Case& c : {Case{10, true, "projected skip"},
                          Case{10, false, "no residual"},
                          Case{kWidth, true, "identity skip"}}) {
      util::Rng rng(61);
      const nn::ResidualBiLstmStack stack(c.input_dim, kHidden, c.residual,
                                          rng);
      const std::vector<float> xs = SmallInput(kSteps, c.input_dim, 62);
      // Every step's output, then the final h and c.
      std::vector<float> rows(static_cast<size_t>(kSteps + 2) * kWidth);
      float* h_final = rows.data() + kSteps * kWidth;
      stack.ForwardRows(xs.data(), kSteps, rows.data(), h_final,
                        h_final + kWidth);
      std::vector<float> graph;
      nn::LstmState final_state;
      for (const Tensor& h : stack.Forward(RowTensors(xs, kSteps, c.input_dim),
                                           &final_state)) {
        const std::vector<float> row = Flat(h);
        graph.insert(graph.end(), row.begin(), row.end());
      }
      for (const Tensor& t : {final_state.h, final_state.c}) {
        const std::vector<float> row = Flat(t);
        graph.insert(graph.end(), row.begin(), row.end());
      }
      EXPECT_TRUE(BitEqual(rows, graph)) << table->name << ", " << c.what;
    }
  }
  kernels::SetDispatchOverride(nullptr);
}

TEST(ExplicitModuleTest, LocalAttentionRowMatchesGraphForward) {
  constexpr int kDecoder = 12, kEncoder = 16, kHalfWindow = 3;
  util::Rng rng(63);
  const nn::LocalAttention attention(kDecoder, kEncoder, kHalfWindow, rng);
  const std::vector<float> h_t = SmallInput(1, kDecoder, 64);
  for (const kernels::KernelTable* table : AllTables()) {
    kernels::SetDispatchOverride(table);
    // At n = 10 a centre window is whole and the end ones are cut; at n = 5
    // every window is cut, since n < 2D + 1.
    for (int n : {10, 5}) {
      const std::vector<float> states = SmallInput(n, kEncoder, 65);
      for (int center : {0, n / 2, n - 1}) {
        std::vector<float> row(kDecoder);
        attention.ForwardRow(h_t.data(), states.data(), n, center,
                             row.data());
        const std::vector<float> graph =
            Flat(attention
                     .Forward(Tensor::FromData({1, kDecoder}, h_t),
                              RowTensors(states, n, kEncoder), center)
                     .attentional_hidden);
        EXPECT_TRUE(BitEqual(row, graph))
            << table->name << ", n " << n << ", centre " << center;
      }
    }
  }
  kernels::SetDispatchOverride(nullptr);
}

// ---------------------------------------------------------------------------
// Served sessions of every cell step flat h/c rows in place through
// ForwardRows. Rebuilding a session from its history and ranking every POI
// must give the list a graph rollout gives over the modules restored from
// the model's payload (neural_graph_reference.h), which never touches a
// session, under the scalar and best SIMD tables, at one and four threads.
// The history's check-ins come at irregular times and places, so the ST
// cells see real Δt/Δd, and ST-CLSTM's TopK takes its phantom step.

constexpr int64_t kHour = 3600;

TEST(FusedCellTest, ServedSessionRebuildMatchesStepPath) {
  // A [1, 24] x [24, 3000] projection.
  constexpr int kPois = 3000;
  std::vector<geo::LatLng> coords;
  for (int i = 0; i < kPois; ++i) {
    coords.push_back({40.0 + 0.001 * (i % 60), -100.0 + 0.001 * (i / 60)});
  }
  const poi::PoiTable pois(std::move(coords));
  std::vector<poi::CheckinSequence> train(4);
  for (int u = 0; u < 4; ++u) {
    for (int i = 0; i < 24; ++i) {
      train[u].push_back({u, (u * 37 + i * 11) % kPois, i * 3 * kHour, false});
    }
  }
  poi::CheckinSequence history;
  int64_t ts = 0;
  for (int i = 0; i < 64; ++i) {
    ts += kHour + (i * i % 7) * 1200;
    history.push_back({9, (i * i * 7 + i) % kPois, ts, false});
  }
  const int64_t next_ts = ts + 5 * kHour;

  using Cell = rec::NeuralRecConfig::Cell;
  for (Cell cell : {Cell::kRnn, Cell::kStRnn, Cell::kGru, Cell::kLstm,
                    Cell::kStClstm}) {
    rec::NeuralRecConfig config;
    config.cell = cell;
    config.epochs = 1;
    rec::NeuralRecommender model(config);
    model.Fit(train, pois);
    const testref::NeuralGraphReference reference(model, pois);
    ASSERT_TRUE(reference.ok()) << reference.error();

    for (const kernels::KernelTable* table :
         {&kernels::ScalarTable(), &kernels::BestSimdTable()}) {
      kernels::SetDispatchOverride(table);
      testref::NeuralGraphReference::Session graph = reference.NewSession();
      for (const poi::Checkin& c : history) graph.Observe(c);
      const std::vector<int32_t> expected = graph.TopK(kPois, next_ts);
      EXPECT_EQ(expected.size(), static_cast<size_t>(kPois));
      for (int threads : {1, 4}) {
        util::SetThreadCount(threads);
        std::unique_ptr<rec::RecSession> session = model.NewSession(9);
        for (const poi::Checkin& c : history) session->Observe(c);
        EXPECT_EQ(session->TopK(kPois, next_ts), expected)
            << model.name() << " " << table->name
            << " threads=" << threads;
      }
    }
  }
  util::SetThreadCount(0);
  kernels::SetDispatchOverride(nullptr);
}

}  // namespace
}  // namespace pa
