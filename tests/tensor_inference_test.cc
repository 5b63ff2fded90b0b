// The graph-free inference fast path: InferenceModeScope semantics,
// bit-identity of every op against the graph-building path (including the
// packed MatMul and the exact-zero skip), buffer-pool recycling and
// full-overwrite discipline (NaN poison), eager graph release after
// Backward(), and thread-safety of the thread-local pool under the shared
// worker pool.

#include <array>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "nn/layers.h"
#include "nn/lstm.h"
#include "obs/metrics.h"
#include "tensor/buffer_pool.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace pa::tensor {
namespace {

Tensor RandomTensor(Shape shape, util::Rng& rng, bool requires_grad = false,
                    bool with_zeros = false) {
  std::vector<float> data(static_cast<size_t>(shape.numel()));
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<float>(rng.Uniform() * 2.0 - 1.0);
    // Exact zeros exercise the MatMul zero-skip on both paths.
    if (with_zeros && i % 5 == 0) data[i] = 0.0f;
  }
  return Tensor::FromData(shape, std::move(data), requires_grad);
}

Tensor PositiveTensor(Shape shape, util::Rng& rng) {
  std::vector<float> data(static_cast<size_t>(shape.numel()));
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<float>(rng.Uniform() + 0.1);
  }
  return Tensor::FromData(shape, std::move(data));
}

::testing::AssertionResult BitIdentical(const Tensor& a, const Tensor& b) {
  if (!(a.shape() == b.shape())) {
    return ::testing::AssertionFailure()
           << "shape mismatch " << a.shape().ToString() << " vs "
           << b.shape().ToString();
  }
  if (std::memcmp(a.data(), b.data(),
                  static_cast<size_t>(a.numel()) * sizeof(float)) != 0) {
    return ::testing::AssertionFailure() << "data bits differ";
  }
  return ::testing::AssertionSuccess();
}

TEST(InferenceModeScopeTest, ActivationAndNesting) {
  EXPECT_FALSE(InferenceModeScope::Active());
  {
    InferenceModeScope outer;
    EXPECT_TRUE(InferenceModeScope::Active());
    {
      InferenceModeScope inner;  // Nested scope is a no-op, not a crash.
      EXPECT_TRUE(InferenceModeScope::Active());
    }
    EXPECT_TRUE(InferenceModeScope::Active());
  }
  EXPECT_FALSE(InferenceModeScope::Active());
}

TEST(InferenceModeScopeTest, ScopeIsPerThread) {
  InferenceModeScope scope;
  ASSERT_TRUE(InferenceModeScope::Active());
  bool active_on_worker = true;
  std::thread probe([&] { active_on_worker = InferenceModeScope::Active(); });
  probe.join();
  EXPECT_FALSE(active_on_worker);
}

TEST(InferenceModeScopeTest, ResultsCarryNoGraph) {
  util::Rng rng(1);
  Tensor a = RandomTensor({3, 4}, rng, /*requires_grad=*/true);
  Tensor b = RandomTensor({3, 4}, rng, /*requires_grad=*/true);
  InferenceModeScope scope;
  Tensor c = Add(a, b);
  EXPECT_FALSE(c.requires_grad());
  EXPECT_TRUE(c.impl()->parents.empty());
  EXPECT_EQ(c.impl()->backward_fn, nullptr);
  EXPECT_TRUE(c.impl()->pooled);
  // Backward through an inference-mode scalar is a no-op, not a crash.
  Tensor s = Sum(c);
  s.Backward();
  EXPECT_EQ(a.grad_vector(), std::vector<float>(12, 0.0f));
}

// Every op, graph path vs inference path, bit for bit. The inference pass
// runs with NaN poison on acquired buffers and is repeated so the second
// round consumes recycled (previously dirtied) capacity: any element an op
// failed to overwrite would surface as a NaN mismatch.
TEST(InferenceOpsTest, AllOpsBitIdenticalToGraphPath) {
  util::Rng rng(7);
  Tensor a = RandomTensor({4, 6}, rng, /*requires_grad=*/true,
                          /*with_zeros=*/true);
  Tensor b = RandomTensor({4, 6}, rng, false, true);
  Tensor row = RandomTensor({1, 6}, rng);
  Tensor scalar = RandomTensor({1, 1}, rng);
  Tensor pos = PositiveTensor({4, 6}, rng);
  Tensor m1 = RandomTensor({1, 5}, rng, false, true);
  Tensor m4 = RandomTensor({4, 5}, rng, false, true);
  Tensor k5 = RandomTensor({5, 7}, rng, false, true);
  Tensor mask = RandomTensor({4, 6}, rng, false, true);
  const std::vector<int> targets = {1, 0, 5, 2};
  const std::vector<int> indices = {3, 0, 3, 1};

  auto run_all = [&]() {
    std::vector<Tensor> outs;
    outs.push_back(Add(a, b));
    outs.push_back(Add(a, row));
    outs.push_back(Add(a, scalar));
    outs.push_back(Sub(a, b));
    outs.push_back(Mul(a, row));
    outs.push_back(Scale(a, 1.7f));
    outs.push_back(AddScalar(a, -0.3f));
    outs.push_back(Lerp(mask, a, b));
    outs.push_back(MatMul(m1, k5));  // m == 1: zeroed-buffer tile path.
    outs.push_back(MatMul(m4, k5));  // m >= 2: packed fast path.
    outs.push_back(Transpose(a));
    outs.push_back(Sigmoid(a));
    outs.push_back(Tanh(a));
    outs.push_back(Relu(a));
    outs.push_back(Exp(a));
    outs.push_back(Log(pos));
    outs.push_back(Square(a));
    outs.push_back(Softmax(a));
    outs.push_back(LogSoftmax(a));
    outs.push_back(NllLoss(LogSoftmax(a), targets));
    outs.push_back(CrossEntropyLoss(a, targets));
    outs.push_back(ConcatCols({a, b}));
    outs.push_back(ConcatRows({a, b}));
    outs.push_back(SliceCols(a, 1, 3));
    outs.push_back(SliceRows(a, 1, 2));
    outs.push_back(Rows(a, indices));
    outs.push_back(Sum(a));
    outs.push_back(Mean(a));
    outs.push_back(SumRows(a));
    return outs;
  };

  const std::vector<Tensor> reference = run_all();
  internal::BufferPool::ThisThread().set_debug_poison(true);
  for (int round = 0; round < 2; ++round) {
    std::vector<Tensor> fast;
    {
      InferenceModeScope scope;
      fast = run_all();
    }
    ASSERT_EQ(reference.size(), fast.size());
    for (size_t i = 0; i < reference.size(); ++i) {
      EXPECT_TRUE(BitIdentical(reference[i], fast[i]))
          << "op #" << i << " round " << round;
      EXPECT_FALSE(fast[i].requires_grad()) << "op #" << i;
      EXPECT_TRUE(fast[i].impl()->parents.empty()) << "op #" << i;
    }
    // `fast` dies here: its pooled buffers go back to the freelist so round
    // 1 re-acquires dirtied capacity.
  }
  internal::BufferPool::ThisThread().set_debug_poison(false);
}

TEST(InferenceOpsTest, PackedMatMulMatchesAcrossShapes) {
  util::Rng rng(11);
  internal::BufferPool::ThisThread().set_debug_poison(true);
  // k values straddle the 8-float pack stride; zeros exercise the skip.
  for (const auto& [m, k, n] : std::vector<std::array<int, 3>>{
           {2, 3, 4}, {3, 8, 5}, {4, 13, 9}, {8, 16, 24}, {5, 1, 7}}) {
    Tensor a = RandomTensor({m, k}, rng, false, /*with_zeros=*/true);
    Tensor b = RandomTensor({k, n}, rng, false, true);
    Tensor reference = MatMul(a, b);
    Tensor fast;
    {
      InferenceModeScope scope;
      fast = MatMul(a, b);
    }
    EXPECT_TRUE(BitIdentical(reference, fast))
        << "m=" << m << " k=" << k << " n=" << n;
  }
  internal::BufferPool::ThisThread().set_debug_poison(false);
}

TEST(InferenceOpsTest, FactoriesPoolUnderScope) {
  InferenceModeScope scope;
  Tensor z = Tensor::Zeros({2, 3});
  EXPECT_TRUE(z.impl()->pooled);
  for (int64_t i = 0; i < z.numel(); ++i) EXPECT_EQ(z.data()[i], 0.0f);
  Tensor f = Tensor::Full({2, 3}, 2.5f);
  EXPECT_TRUE(f.impl()->pooled);
  for (int64_t i = 0; i < f.numel(); ++i) EXPECT_EQ(f.data()[i], 2.5f);
  // Trainable leaves are never pooled, even inside a scope.
  Tensor w = Tensor::Zeros({2, 2}, /*requires_grad=*/true);
  EXPECT_FALSE(w.impl()->pooled);
}

TEST(BufferPoolTest, RecyclesCapacityAcrossForwardPasses) {
  util::Rng rng(3);
  Tensor a = RandomTensor({8, 8}, rng);
  Tensor b = RandomTensor({8, 8}, rng);
  internal::BufferPool& pool = internal::BufferPool::ThisThread();
  pool.Trim();
  const uint64_t reuses_before = pool.stats().reuses;
  const uint64_t acquires_before = pool.stats().acquires;
  {
    InferenceModeScope scope;
    for (int i = 0; i < 10; ++i) {
      // Add and Tanh each acquire one pooled buffer.
      Tensor c = Tanh(Add(a, b));
    }
  }
  EXPECT_EQ(pool.stats().acquires - acquires_before, 20u);
  // After the first iteration every acquire is served from the freelist.
  EXPECT_GE(pool.stats().reuses - reuses_before, 18u);
  EXPECT_GT(pool.cached_buffers(), 0u);
  pool.Trim();
  EXPECT_EQ(pool.cached_buffers(), 0u);
  EXPECT_EQ(pool.cached_bytes(), 0u);
}

// FlushStatsToRegistry publishes deltas-since-last-flush: recycling done
// between two flushes must show up in the process-wide counters exactly
// once, and a flush with no intervening pool activity must add nothing.
TEST(BufferPoolTest, FlushStatsPublishesDeltasToRegistry) {
  auto& registry = obs::MetricRegistry::Global();
  internal::BufferPool& pool = internal::BufferPool::ThisThread();
  pool.FlushStatsToRegistry();  // Drain tallies from earlier tests.

  auto counter_at = [&registry](const char* name) -> uint64_t {
    const auto snap = registry.TakeSnapshot();
    auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  };
  const uint64_t hits0 = counter_at("tensor.pool.hits");
  const uint64_t misses0 = counter_at("tensor.pool.misses");
  const uint64_t releases0 = counter_at("tensor.pool.releases");

  util::Rng rng(5);
  Tensor a = RandomTensor({8, 8}, rng);
  Tensor b = RandomTensor({8, 8}, rng);
  pool.Trim();  // Next acquire must miss; the following nine recycle.
  {
    InferenceModeScope scope;
    for (int i = 0; i < 10; ++i) {
      Tensor c = Tanh(Add(a, b));
    }
  }

  // The tallies stay thread-local until flushed.
  EXPECT_EQ(counter_at("tensor.pool.hits"), hits0);
  pool.FlushStatsToRegistry();
  EXPECT_GE(counter_at("tensor.pool.hits") - hits0, 9u);
  EXPECT_GE(counter_at("tensor.pool.misses") - misses0, 1u);
  EXPECT_GE(counter_at("tensor.pool.releases") - releases0, 10u);
  const auto snap = registry.TakeSnapshot();
  ASSERT_EQ(snap.gauges.count("tensor.pool.high_water_bytes"), 1u);
  EXPECT_GT(snap.gauges.at("tensor.pool.high_water_bytes"), 0.0);

  // Idempotent when nothing happened in between.
  const uint64_t hits1 = counter_at("tensor.pool.hits");
  const uint64_t misses1 = counter_at("tensor.pool.misses");
  pool.FlushStatsToRegistry();
  EXPECT_EQ(counter_at("tensor.pool.hits"), hits1);
  EXPECT_EQ(counter_at("tensor.pool.misses"), misses1);
}

TEST(BufferPoolTest, OversizedReleaseIsDiscarded) {
  internal::BufferPool& pool = internal::BufferPool::ThisThread();
  pool.Trim();
  const uint64_t discards_before = pool.stats().discards;
  // 5M floats = 20 MiB > the 16 MiB per-thread cap.
  std::vector<float> huge = pool.Acquire(size_t{5} << 20);
  pool.Release(std::move(huge));
  EXPECT_EQ(pool.stats().discards, discards_before + 1);
  EXPECT_EQ(pool.cached_buffers(), 0u);
}

TEST(EagerReleaseTest, InteriorNodeExpiresAfterBackward) {
  Tensor w = Tensor::FromData({1, 1}, {2.0f}, /*requires_grad=*/true);
  Tensor interior = Square(w);
  Tensor loss = Sum(interior);
  std::weak_ptr<internal::TensorImpl> watch = interior.impl();
  loss.Backward();
  EXPECT_FLOAT_EQ(w.grad_at(0, 0), 4.0f);
  EXPECT_EQ(loss.impl()->backward_fn, nullptr);
  EXPECT_TRUE(loss.impl()->parents.empty());
  // The root is still alive; only our direct handle keeps `interior` now,
  // because Backward() dropped the loss -> interior edge.
  interior = Tensor();
  EXPECT_TRUE(watch.expired());
}

TEST(EagerReleaseTest, DeepChainTeardownAfterBackwardIsIterative) {
  Tensor x = Tensor::FromData({1, 1}, {0.5f}, /*requires_grad=*/true);
  Tensor y = x;
  for (int i = 0; i < 50000; ++i) y = AddScalar(y, 1.0f);
  y.Backward();
  EXPECT_FLOAT_EQ(x.grad_at(0, 0), 1.0f);
  // With edges already dropped, releasing the root must not recurse down a
  // 50000-deep parent chain (it has none left).
  y = Tensor();
}

TEST(EagerReleaseTest, GradientsStillAccumulateAcrossRebuiltGraphs) {
  Tensor w = Tensor::FromData({1, 1}, {3.0f}, /*requires_grad=*/true);
  for (int i = 0; i < 2; ++i) {
    Tensor loss = Square(w);
    loss.Backward();
  }
  EXPECT_FLOAT_EQ(w.grad_at(0, 0), 12.0f);  // 2 * (2 * w).
}

// Thread-local pools + per-worker scopes under the shared util::ThreadPool:
// every worker runs an LSTM-shaped forward over shared read-only weights and
// must reproduce the serial inference result bit for bit. Run under TSan in
// scripts/tier1.sh.
TEST(InferenceConcurrencyTest, PerWorkerScopesAreRaceFreeAndDeterministic) {
  util::Rng rng(17);
  nn::LstmCell cell(12, 16, rng);
  nn::Linear head(16, 30, rng);
  const int kItems = 24;
  std::vector<std::vector<int>> inputs(kItems);
  for (int i = 0; i < kItems; ++i) {
    for (int t = 0; t < 6; ++t) inputs[i].push_back((i * 7 + t * 3) % 30);
  }
  util::Rng emb_rng(23);
  nn::Embedding embedding(30, 12, emb_rng);

  auto forward_item = [&](int i) {
    nn::LstmState state = cell.InitialState(1);
    for (int id : inputs[i]) {
      state = cell.Forward(embedding.Forward({id}), state);
    }
    Tensor logits = head.Forward(state.h);
    return std::vector<float>(logits.data(), logits.data() + logits.numel());
  };

  std::vector<std::vector<float>> expected(kItems);
  {
    InferenceModeScope scope;
    for (int i = 0; i < kItems; ++i) expected[i] = forward_item(i);
  }

  util::SetThreadCount(4);
  std::vector<std::vector<float>> parallel = util::GlobalPool().ParallelMap(
      int64_t{0}, int64_t{kItems}, /*grain=*/1, [&](int64_t i) {
        // Scopes are thread-local: each worker enters its own.
        InferenceModeScope scope;
        return forward_item(static_cast<int>(i));
      });
  util::SetThreadCount(0);

  for (int i = 0; i < kItems; ++i) {
    EXPECT_EQ(expected[i], parallel[i]) << "item " << i;
  }
}

// Pooled tensors created on workers may be destroyed on the main thread (and
// vice versa); the storage must simply migrate between thread-local pools.
TEST(InferenceConcurrencyTest, PooledTensorsMigrateBetweenThreads) {
  util::Rng rng(29);
  Tensor a = RandomTensor({6, 6}, rng);
  util::SetThreadCount(3);
  std::vector<Tensor> results = util::GlobalPool().ParallelMap(
      int64_t{0}, int64_t{32}, /*grain=*/1, [&](int64_t i) {
        InferenceModeScope scope;
        return Scale(Tanh(a), static_cast<float>(i));
      });
  util::SetThreadCount(0);
  for (auto& t : results) EXPECT_TRUE(t.impl()->pooled);
  results.clear();  // Worker-created buffers released into this thread's pool.
  EXPECT_GE(internal::BufferPool::ThisThread().stats().releases, 1u);
}

}  // namespace
}  // namespace pa::tensor
