// Session-versus-graph equivalence for all seven recommenders. A neural
// recommender's session steps flat h/c rows through its cell's
// `ForwardRows`; every ranking it gives must equal the ranking of a graph
// rollout over the embedding, cell and output modules restored from the
// model's `Save` payload (neural_graph_reference.h), which never touches a
// session. FPMC-LR and PRME-G score with plain float arithmetic and have no
// graph path. For all seven, an FNV-1a hash of every deep ranking and of
// `EvaluateHr`'s HR@{1,5,10} and MRR is pinned by constants, under the
// scalar table and under the best SIMD table, at PA_THREADS 1 and 4.
//
// As in training_golden_test, the constants were generated with gcc 12.2
// and glibc 2.36 on x86-64, where the sessions' rankings equal the graph
// rollout's; another toolchain may legitimately produce other hashes.
// Report such a difference; never replace a hash with a tolerance.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "eval/hr_metric.h"
#include "poi/synthetic.h"
#include "rec/neural_recommender.h"
#include "rec/recommender.h"
#include "rec/registry.h"
#include "tensor/kernels/kernels.h"
#include "util/rng.h"
#include "util/thread_pool.h"

#include "neural_graph_reference.h"

namespace pa {
namespace {

struct World {
  poi::SyntheticLbsn lbsn;
  std::vector<poi::CheckinSequence> warmup;
  std::vector<poi::CheckinSequence> test;
};

const World& SharedWorld() {
  static const World* world = [] {
    auto* w = new World();
    poi::LbsnProfile profile = poi::GowallaProfile();
    profile.num_users = 10;
    profile.num_pois = 60;
    profile.min_visits = 30;
    profile.max_visits = 40;
    util::Rng rng(99);
    w->lbsn = poi::GenerateLbsn(profile, rng);
    const auto& seqs = w->lbsn.observed.sequences;
    w->warmup.resize(seqs.size());
    w->test.resize(seqs.size());
    for (size_t u = 0; u < seqs.size(); ++u) {
      const size_t cut = seqs[u].size() * 3 / 4;
      w->warmup[u].assign(seqs[u].begin(), seqs[u].begin() + cut);
      w->test[u].assign(seqs[u].begin() + cut, seqs[u].end());
    }
    return w;
  }();
  return *world;
}

// Replays a user's warmup and collects a deep ranking (k = 30, half the
// vocabulary) at each test step, so any single-bit divergence in a forward
// reorders a list or is at least confined to exactly tied scores.
// `new_session(user)` returns a pointer to a rec::RecSession or to a
// graph-reference session.
template <typename NewSessionFn>
std::vector<std::vector<int32_t>> CollectRankings(
    const World& world, const NewSessionFn& new_session) {
  std::vector<std::vector<int32_t>> rankings;
  for (size_t u = 0; u < world.warmup.size(); ++u) {
    auto session = new_session(static_cast<int32_t>(u));
    for (const poi::Checkin& c : world.warmup[u]) session->Observe(c);
    for (const poi::Checkin& c : world.test[u]) {
      rankings.push_back(session->TopK(30, c.timestamp));
      session->Observe(c);
    }
  }
  return rankings;
}

uint64_t Fnv1a(const void* data, size_t size, uint64_t hash) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

uint64_t HashRankingsAndHr(const std::vector<std::vector<int32_t>>& rankings,
                           const eval::HrResult& hr) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const std::vector<int32_t>& list : rankings) {
    const uint64_t size = list.size();
    hash = Fnv1a(&size, sizeof(size), hash);
    hash = Fnv1a(list.data(), list.size() * sizeof(int32_t), hash);
  }
  const int64_t cases = hr.num_cases;
  hash = Fnv1a(&cases, sizeof(cases), hash);
  for (double v : {hr.hr1, hr.hr5, hr.hr10, hr.mrr10}) {
    hash = Fnv1a(&v, sizeof(v), hash);
  }
  return hash;
}

struct Golden {
  const char* name;
  uint64_t scalar;
  uint64_t simd;
};

// The top-30 lists and HR of most models do not move with the tables'
// ~2 ulp expf difference; ST-RNN's do.
constexpr Golden kGolden[] = {
    {"FPMC-LR", 0xc19ec226664fc06full, 0xc19ec226664fc06full},
    {"PRME-G", 0x3595150f2e7f9a37ull, 0x3595150f2e7f9a37ull},
    {"RNN", 0x787abf6a2d1adacaull, 0x787abf6a2d1adacaull},
    {"LSTM", 0xa1a14f589da877fbull, 0xa1a14f589da877fbull},
    {"GRU", 0x398992ba849c869aull, 0x398992ba849c869aull},
    {"ST-RNN", 0x9dce9bd8b48d0c85ull, 0xddf340fb05f842f5ull},
    {"ST-CLSTM", 0x3dec729d97c55fe1ull, 0x3dec729d97c55fe1ull}};

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llxull",
                static_cast<unsigned long long>(v));
  return buf;
}

class InferenceEquivalenceTest : public ::testing::TestWithParam<Golden> {
 protected:
  ~InferenceEquivalenceTest() override {
    tensor::kernels::SetDispatchOverride(nullptr);
    util::SetThreadCount(0);
  }
};

TEST_P(InferenceEquivalenceTest, SessionsMatchGraphPathAndPinnedHashes) {
  const World& world = SharedWorld();
  const Golden& golden = GetParam();
  for (const tensor::kernels::KernelTable* table :
       {&tensor::kernels::ScalarTable(), &tensor::kernels::BestSimdTable()}) {
    tensor::kernels::SetDispatchOverride(table);
    const std::string what = std::string(golden.name) + " " + table->name;
    std::unique_ptr<rec::Recommender> model =
        rec::MakeRecommender(golden.name, /*seed=*/7, /*epochs_scale=*/0.25);
    ASSERT_NE(model, nullptr);
    model->Fit(world.warmup, world.lbsn.observed.pois);
    auto new_session = [&](int32_t user) { return model->NewSession(user); };

    // The neural sessions against a graph rollout that never touches one;
    // only the five neural recommenders have a graph path.
    std::unique_ptr<testref::NeuralGraphReference> reference;
    std::vector<std::vector<int32_t>> graph;
    if (const auto* neural =
            dynamic_cast<const rec::NeuralRecommender*>(model.get())) {
      reference = std::make_unique<testref::NeuralGraphReference>(
          *neural, world.lbsn.observed.pois);
      ASSERT_TRUE(reference->ok()) << what << ": " << reference->error();
      graph = CollectRankings(world, [&](int32_t) {
        return std::make_unique<testref::NeuralGraphReference::Session>(
            reference->NewSession());
      });
    }
    const std::string name = golden.name;
    EXPECT_EQ(reference != nullptr, name != "FPMC-LR" && name != "PRME-G")
        << what;

    const uint64_t want =
        table == &tensor::kernels::ScalarTable() ? golden.scalar : golden.simd;
    for (int threads : {1, 4}) {
      util::SetThreadCount(threads);
      const std::string at = what + " threads=" + std::to_string(threads);
      const auto rankings = CollectRankings(world, new_session);
      if (reference) {
        ASSERT_EQ(rankings.size(), graph.size()) << at;
        for (size_t i = 0; i < rankings.size(); ++i) {
          EXPECT_EQ(rankings[i], graph[i]) << at << ", case " << i;
        }
      }
      const eval::HrResult hr =
          eval::EvaluateHr(*model, world.warmup, world.test);
      EXPECT_GT(hr.num_cases, 0) << at;
      const uint64_t got = HashRankingsAndHr(rankings, hr);
      EXPECT_EQ(got, want) << at << ": got " << Hex(got);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllRecommenders, InferenceEquivalenceTest,
                         ::testing::ValuesIn(kGolden),
                         [](const auto& info) {
                           std::string name = info.param.name;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace pa
