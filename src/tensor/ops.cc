#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <type_traits>

#include "tensor/buffer_pool.h"
#include "tensor/kernels/kernels.h"

namespace pa::tensor {

namespace {

using internal::TensorImpl;

[[noreturn]] void Fatal(const std::string& msg) {
  std::fprintf(stderr, "pa::tensor::ops fatal: %s\n", msg.c_str());
  std::abort();
}

// A node needs a gradient if it is a leaf the user marked as trainable or an
// interior node gradients must flow through.
bool NeedsGrad(const TensorImpl& impl) {
  return impl.requires_grad || impl.backward_fn != nullptr;
}

// An op's operands are Tensors, or a list of them (the Concats); a node's
// parents are its operands in argument order, each list in its own order.
bool NeedsGrad(const Tensor& t) { return NeedsGrad(*t.impl()); }
bool NeedsGrad(const std::vector<Tensor>& ts) {
  return std::any_of(ts.begin(), ts.end(),
                     [](const Tensor& t) { return NeedsGrad(t); });
}
size_t OperandCount(const Tensor&) { return 1; }
size_t OperandCount(const std::vector<Tensor>& ts) { return ts.size(); }
void SetParents(TensorImpl& node, size_t& k, const Tensor& t) {
  node.parents.Set(k++, t.impl());
}
void SetParents(TensorImpl& node, size_t& k, const std::vector<Tensor>& ts) {
  for (const Tensor& t : ts) node.parents.Set(k++, t.impl());
}

// Creates the result node of an op over `operands`. When some operand needs
// a gradient, the node owns the operands as its parents, exactly sized, and
// gets `backward`, which reads operand k as `*y.parents[k]`: the parents
// keep every operand alive until Backward releases the node.
template <typename... Operands>
Tensor MakeNode(Shape shape, std::vector<float> data,
                std::function<void(TensorImpl&)> backward,
                const Operands&... operands) {
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = shape;
  impl->data = std::move(data);
  if ((NeedsGrad(operands) || ...)) {
    impl->requires_grad = true;
    impl->parents.Resize((OperandCount(operands) + ...));
    size_t k = 0;
    (SetParents(*impl, k, operands), ...);
    impl->backward_fn = std::move(backward);
  }
  return Tensor::FromImpl(std::move(impl));
}

// MakeNode for a closure that captures only scalars, which std::function
// stores inline. NllLoss and Rows, whose closures carry an index list, call
// MakeNode themselves.
template <typename Backward, typename... Operands>
Tensor MakeResult(Shape shape, std::vector<float> data, Backward backward,
                  const Operands&... operands) {
  static_assert(sizeof(Backward) <= 16 &&
                    std::is_trivially_copyable_v<Backward>,
                "a backward closure captures scalars only and reads its "
                "operands as y.parents[k]");
  return MakeNode(shape, std::move(data), backward, operands...);
}

// Result node on the graph-free inference path: no parents, no backward
// closure, no requires_grad propagation. The storage came from the
// thread-local BufferPool and returns there when the node dies; the node
// allocation itself recycles through the thread-local node-block pool.
Tensor MakeInferenceResult(Shape shape, std::vector<float> data) {
  auto impl = std::allocate_shared<TensorImpl>(
      internal::NodeBlockAllocator<TensorImpl>());
  impl->shape = shape;
  impl->data = std::move(data);
  impl->pooled = true;
  return Tensor::FromImpl(std::move(impl));
}

// Output storage for an op's forward pass: recycled pool capacity under
// inference mode, a plain allocation otherwise. Contents are unspecified —
// every caller fully overwrites all `n` elements before the tensor escapes.
std::vector<float> ForwardBuffer(int64_t n, bool inference) {
  if (inference) {
    return internal::ThisThreadPool().Acquire(static_cast<size_t>(n));
  }
  return std::vector<float>(static_cast<size_t>(n));
}

// Zero-initialised variant for accumulate-style kernels (`+=` into out).
std::vector<float> ZeroedForwardBuffer(int64_t n, bool inference) {
  if (inference) {
    return internal::ThisThreadPool().AcquireZeroed(
        static_cast<size_t>(n));
  }
  return std::vector<float>(static_cast<size_t>(n), 0.0f);
}

// Accumulates `g(i)` into element i of `dst`'s gradient buffer if it needs
// one. All parent-gradient writes go through internal::GradBuffer so
// data-parallel training can redirect them into thread-private buffers (see
// GradRedirectScope in tensor.h). `g` is a template parameter so each
// closure's loop inlines.
template <typename ElementGrad>
void Accumulate(TensorImpl& dst, const ElementGrad& g) {
  if (!NeedsGrad(dst)) return;
  float* grad = internal::GradBuffer(dst).data();
  const int64_t n = dst.shape.numel();
  for (int64_t i = 0; i < n; ++i) grad[i] += g(i);
}

enum class BroadcastKind { kSame, kRow, kScalar };

BroadcastKind CheckBroadcast(const Tensor& a, const Tensor& b,
                             const char* op) {
  if (a.shape() == b.shape()) return BroadcastKind::kSame;
  if (b.rows() == 1 && b.cols() == a.cols()) return BroadcastKind::kRow;
  if (b.rows() == 1 && b.cols() == 1) return BroadcastKind::kScalar;
  Fatal(std::string(op) + ": incompatible shapes " + a.shape().ToString() +
        " and " + b.shape().ToString());
}

// Calls f(i, j) for every element i of a `numel`-element left operand, in
// ascending i, with j the element of the right operand it broadcasts from:
// one loop per kind, so no element pays for an index switch or an `i % cols`.
template <typename F>
void ForEachBroadcast(BroadcastKind kind, int64_t numel, int cols, F f) {
  switch (kind) {
    case BroadcastKind::kSame:
      for (int64_t i = 0; i < numel; ++i) f(i, i);
      break;
    case BroadcastKind::kRow: {
      const int64_t rows = cols > 0 ? numel / cols : 0;
      for (int64_t r = 0; r < rows; ++r) {
        for (int c = 0; c < cols; ++c) f(r * cols + c, int64_t{c});
      }
      break;
    }
    case BroadcastKind::kScalar:
      for (int64_t i = 0; i < numel; ++i) f(i, int64_t{0});
      break;
  }
}

// The right operand's gradient: `step(acc, i)` folds element i of y into
// the accumulator of the b-element it broadcasts from. Each b element gets
// its steps in ascending i, as one per-element loop gives them; under kScalar
// they run as one chain in a register.
template <typename Step>
void AccumulateBroadcast(TensorImpl& b, BroadcastKind kind, int64_t numel,
                         int cols, const Step& step) {
  if (!NeedsGrad(b)) return;
  float* bgrad = internal::GradBuffer(b).data();
  if (kind == BroadcastKind::kScalar) {
    float acc = bgrad[0];
    for (int64_t i = 0; i < numel; ++i) step(acc, i);
    bgrad[0] = acc;
    return;
  }
  ForEachBroadcast(kind, numel, cols,
                   [&](int64_t i, int64_t j) { step(bgrad[j], i); });
}

// The vector-vector and vector-scalar kernel pair implementing one binary
// op (e.g. {add, addc}), pulled from the active dispatch table per call.
struct BinaryKernels {
  void (*vv)(const float* a, const float* b, float* out, int64_t n);
  void (*vs)(const float* a, float c, float* out, int64_t n);
};

// Forward of the elementwise binary ops, specialised per broadcast kind on
// top of the dispatched kernels.
void BinaryForward(const float* a, const float* b, float* out, int64_t numel,
                   int cols, BroadcastKind kind, const BinaryKernels& bk) {
  switch (kind) {
    case BroadcastKind::kSame:
      bk.vv(a, b, out, numel);
      break;
    case BroadcastKind::kRow: {
      const int64_t rows = cols > 0 ? numel / cols : 0;
      for (int64_t r = 0; r < rows; ++r) {
        bk.vv(a + r * cols, b, out + r * cols, cols);
      }
      break;
    }
    case BroadcastKind::kScalar:
      bk.vs(a, b[0], out, numel);
      break;
  }
}

// `make_backward(kind, cols)` returns the op's closure over y = op(a, b).
template <typename MakeBackward>
Tensor BinaryOp(const char* name, const Tensor& a, const Tensor& b,
                const BinaryKernels& bk, MakeBackward make_backward) {
  const BroadcastKind kind = CheckBroadcast(a, b, name);
  const int cols = a.cols();
  const int64_t numel = a.numel();
  if (internal::InferenceModeActive()) {
    std::vector<float> out = ForwardBuffer(numel, true);
    BinaryForward(a.data(), b.data(), out.data(), numel, cols, kind, bk);
    return MakeInferenceResult(a.shape(), std::move(out));
  }
  std::vector<float> out = ForwardBuffer(numel, false);
  BinaryForward(a.data(), b.data(), out.data(), numel, cols, kind, bk);
  return MakeResult(a.shape(), std::move(out), make_backward(kind, cols), a,
                    b);
}

auto AddBackward(BroadcastKind kind, int cols) {
  return [kind, cols](TensorImpl& y) {
    const float* g = y.grad.data();
    Accumulate(*y.parents[0], [g](int64_t i) { return g[i]; });
    AccumulateBroadcast(*y.parents[1], kind, y.shape.numel(), cols,
                        [g](float& acc, int64_t i) { acc += g[i]; });
  };
}

auto SubBackward(BroadcastKind kind, int cols) {
  return [kind, cols](TensorImpl& y) {
    const float* g = y.grad.data();
    Accumulate(*y.parents[0], [g](int64_t i) { return g[i]; });
    AccumulateBroadcast(*y.parents[1], kind, y.shape.numel(), cols,
                        [g](float& acc, int64_t i) { acc -= g[i]; });
  };
}

// Kernel pair for one binary op, pulled from the active dispatch table.
BinaryKernels AddKernels() {
  const kernels::KernelTable& kt = kernels::Active();
  return {kt.add, kt.addc};
}
BinaryKernels SubKernels() {
  const kernels::KernelTable& kt = kernels::Active();
  return {kt.sub, kt.subc};
}
BinaryKernels MulKernels() {
  const kernels::KernelTable& kt = kernels::Active();
  return {kt.mul, kt.mulc};
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  return BinaryOp("Add", a, b, AddKernels(), AddBackward);
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  return BinaryOp("Sub", a, b, SubKernels(), SubBackward);
}

namespace {

// Mul's backward reads the *parents'* forward values, so under a graph a
// parent's buffer must survive untouched until Backward().
auto MulBackward(BroadcastKind kind, int cols) {
  return [kind, cols](TensorImpl& y) {
    TensorImpl& a = *y.parents[0];
    TensorImpl& b = *y.parents[1];
    const float* g = y.grad.data();
    const int64_t numel = y.shape.numel();
    if (NeedsGrad(a)) {
      float* agrad = internal::GradBuffer(a).data();
      const float* bd = b.data.data();
      ForEachBroadcast(kind, numel, cols, [&](int64_t i, int64_t j) {
        agrad[i] += g[i] * bd[j];
      });
    }
    const float* ad = a.data.data();
    AccumulateBroadcast(b, kind, numel, cols, [g, ad](float& acc, int64_t i) {
      acc += g[i] * ad[i];
    });
  };
}

}  // namespace

Tensor Mul(const Tensor& a, const Tensor& b) {
  return BinaryOp("Mul", a, b, MulKernels(), MulBackward);
}

namespace {

// Fused blends. Same-shape only: these exist for the recurrent-cell state
// updates, where everything is the step's row vector. One kernel pass,
// values bit-identical to the op compositions they replace (kernels.h).

void CheckSameShape3(const char* name, const Tensor& x, const Tensor& y,
                     const Tensor& z) {
  if (!(x.shape() == y.shape()) || !(y.shape() == z.shape())) {
    Fatal(std::string(name) + ": shapes must match, got " +
          x.shape().ToString() + ", " + y.shape().ToString() + ", " +
          z.shape().ToString());
  }
}

}  // namespace

Tensor Lerp(const Tensor& mask, const Tensor& a, const Tensor& b) {
  CheckSameShape3("Lerp", mask, a, b);
  const int64_t numel = a.numel();
  const kernels::KernelTable& kt = kernels::Active();
  if (internal::InferenceModeActive()) {
    std::vector<float> out = ForwardBuffer(numel, true);
    kt.lerp(mask.data(), a.data(), b.data(), out.data(), numel);
    return MakeInferenceResult(a.shape(), std::move(out));
  }
  std::vector<float> out = ForwardBuffer(numel, false);
  kt.lerp(mask.data(), a.data(), b.data(), out.data(), numel);
  return MakeResult(
      a.shape(), std::move(out),
      [](TensorImpl& y) {
        const float* g = y.grad.data();
        const float* md = y.parents[0]->data.data();
        const float* ad = y.parents[1]->data.data();
        const float* bd = y.parents[2]->data.data();
        Accumulate(*y.parents[1], [&](int64_t i) { return g[i] * md[i]; });
        Accumulate(*y.parents[2],
                   [&](int64_t i) { return g[i] * (1.0f - md[i]); });
        Accumulate(*y.parents[0],
                   [&](int64_t i) { return g[i] * (ad[i] - bd[i]); });
      },
      mask, a, b);
}

// The whole product runs on the calling thread: parallelism lives at coarser
// grains (users in EvaluateHr, items in mini-batch training, shards in
// serving). Forward and backward are dispatched kernels whose sums run in a
// fixed order, so the table choice never changes a bit (kernels.h).
//
// dA = dY B^T runs as the forward kernel over B transposed (built once per
// Backward walk and shared by every node that reads B) into a zeroed
// scratch, which is then added to dA. So each dA[i, p] is still +0 plus
// dY[i, j] * B[p, j] over ascending j, added into dA once. The forward
// kernel skips exact-zero dY[i, j] terms; a ±0 term cannot change a sum that
// starts at +0, so this gives the same bits unless B holds ±inf or NaN in a
// column where dY is zero (DESIGN.md, "MatMul's backward").
Tensor MatMul(const Tensor& a, const Tensor& b) {
  if (a.cols() != b.rows()) {
    Fatal("MatMul: inner dims mismatch " + a.shape().ToString() + " x " +
          b.shape().ToString());
  }
  const int m = a.rows(), k = a.cols(), n = b.cols();
  const kernels::KernelTable& kt = kernels::Active();
  if (internal::InferenceModeActive()) {
    const int64_t numel = static_cast<int64_t>(m) * n;
    std::vector<float> out = ZeroedForwardBuffer(numel, true);
    kt.matmul_block(a.data(), b.data(), out.data(), k, n, 0, m, 0, n);
    return MakeInferenceResult({m, n}, std::move(out));
  }
  std::vector<float> out(static_cast<size_t>(m) * n, 0.0f);
  kt.matmul_block(a.data(), b.data(), out.data(), k, n, 0, m, 0, n);
  return MakeResult(
      {m, n}, std::move(out),
      [m, k, n](TensorImpl& y) {
        TensorImpl& a = *y.parents[0];
        TensorImpl& b = *y.parents[1];
        const kernels::KernelTable& bk = kernels::Active();
        if (NeedsGrad(a)) {
          thread_local std::vector<float> scratch;
          scratch.assign(static_cast<size_t>(m) * k, 0.0f);
          bk.matmul_block(y.grad.data(), internal::TransposedData(b),
                          scratch.data(), n, k, 0, m, 0, k);
          float* da = internal::GradBuffer(a).data();
          bk.add(da, scratch.data(), da, static_cast<int64_t>(m) * k);
        }
        if (NeedsGrad(b)) {
          bk.matmul_grad_b(a.data.data(), y.grad.data(),
                           internal::GradBuffer(b).data(), m, k, n);
        }
      },
      a, b);
}

Tensor Transpose(const Tensor& a) {
  const int m = a.rows(), n = a.cols();
  const bool inference = internal::InferenceModeActive();
  std::vector<float> out = ForwardBuffer(a.numel(), inference);
  const float* ad = a.data();
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) out[j * m + i] = ad[i * n + j];
  }
  if (inference) return MakeInferenceResult({n, m}, std::move(out));
  return MakeResult(
      {n, m}, std::move(out),
      [m, n](TensorImpl& y) {
        TensorImpl& a = *y.parents[0];
        if (!NeedsGrad(a)) return;
        float* agrad = internal::GradBuffer(a).data();
        const float* g = y.grad.data();
        for (int i = 0; i < m; ++i) {
          for (int j = 0; j < n; ++j) agrad[i * n + j] += g[j * m + i];
        }
      },
      a);
}

namespace {

// The closure of an elementwise unary op: dA[i] += dY[i] * d(x, y), with x
// and y the op's input and output at i.
template <typename BwdFn>
auto UnaryBackward(BwdFn bwd_from_in_out) {
  return [bwd_from_in_out](TensorImpl& y) {
    const float* g = y.grad.data();
    const float* xd = y.parents[0]->data.data();
    const float* yd = y.data.data();
    Accumulate(*y.parents[0], [&](int64_t i) {
      return g[i] * bwd_from_in_out(xd[i], yd[i]);
    });
  };
}

// Shared implementation for elementwise unary ops whose derivative is a
// function of the *output* value (sigmoid, tanh, exp) or *input* value.
// The forward loop is a dispatched kernel.
template <typename BwdFn>
Tensor UnaryKernelOp(const Tensor& a,
                     void (*kernel)(const float*, float*, int64_t),
                     BwdFn bwd_from_in_out) {
  const int64_t numel = a.numel();
  const bool inference = internal::InferenceModeActive();
  std::vector<float> out = ForwardBuffer(numel, inference);
  kernel(a.data(), out.data(), numel);
  if (inference) return MakeInferenceResult(a.shape(), std::move(out));
  return MakeResult(a.shape(), std::move(out), UnaryBackward(bwd_from_in_out),
                    a);
}

// Same shape for the scalar-parameter ops (Scale, AddScalar), which reuse
// the binary tables' broadcast-scalar kernels.
template <typename BwdFn>
Tensor UnaryScalarKernelOp(const Tensor& a, float c,
                           void (*kernel)(const float*, float, float*,
                                          int64_t),
                           BwdFn bwd_from_in_out) {
  const int64_t numel = a.numel();
  const bool inference = internal::InferenceModeActive();
  std::vector<float> out = ForwardBuffer(numel, inference);
  kernel(a.data(), c, out.data(), numel);
  if (inference) return MakeInferenceResult(a.shape(), std::move(out));
  return MakeResult(a.shape(), std::move(out), UnaryBackward(bwd_from_in_out),
                    a);
}

}  // namespace

Tensor Sigmoid(const Tensor& a) {
  return UnaryKernelOp(a, kernels::Active().sigmoid,
                       [](float /*x*/, float y) { return y * (1.0f - y); });
}

Tensor Tanh(const Tensor& a) {
  return UnaryKernelOp(a, kernels::Active().tanh,
                       [](float /*x*/, float y) { return 1.0f - y * y; });
}

Tensor Relu(const Tensor& a) {
  return UnaryKernelOp(
      a, kernels::Active().relu,
      [](float x, float /*y*/) { return x > 0.0f ? 1.0f : 0.0f; });
}

Tensor Scale(const Tensor& a, float alpha) {
  return UnaryScalarKernelOp(
      a, alpha, kernels::Active().mulc,
      [alpha](float /*x*/, float /*y*/) { return alpha; });
}

Tensor AddScalar(const Tensor& a, float alpha) {
  return UnaryScalarKernelOp(a, alpha, kernels::Active().addc,
                             [](float /*x*/, float /*y*/) { return 1.0f; });
}

Tensor Exp(const Tensor& a) {
  return UnaryKernelOp(a, kernels::Active().exp,
                       [](float /*x*/, float y) { return y; });
}

Tensor Log(const Tensor& a) {
  return UnaryKernelOp(a, kernels::Active().log,
                       [](float x, float /*y*/) { return 1.0f / x; });
}

Tensor Square(const Tensor& a) {
  return UnaryKernelOp(a, kernels::Active().square,
                       [](float x, float /*y*/) { return 2.0f * x; });
}

Tensor Softmax(const Tensor& a) {
  const int m = a.rows(), n = a.cols();
  const bool inference = internal::InferenceModeActive();
  const kernels::KernelTable& kt = kernels::Active();
  // The kernel's n <= 0 guard makes a zero-width input a no-op instead of
  // the old out-of-bounds row[0] read.
  std::vector<float> out = ForwardBuffer(a.numel(), inference);
  kt.softmax(a.data(), out.data(), m, n);
  if (inference) return MakeInferenceResult(a.shape(), std::move(out));
  return MakeResult(
      a.shape(), std::move(out),
      [m, n](TensorImpl& y) {
        TensorImpl& a = *y.parents[0];
        if (!NeedsGrad(a)) return;
        float* agrad = internal::GradBuffer(a).data();
        for (int i = 0; i < m; ++i) {
          const float* yrow = y.data.data() + i * n;
          const float* grow = y.grad.data() + i * n;
          float dot = 0.0f;
          for (int j = 0; j < n; ++j) dot += yrow[j] * grow[j];
          for (int j = 0; j < n; ++j) {
            agrad[i * n + j] += yrow[j] * (grow[j] - dot);
          }
        }
      },
      a);
}

namespace {

// Rows handled side by side by RowSums.
constexpr int kRowBlock = 8;

// sums[r] = x[r, 0] + x[r, 1] + ... for the first `rows` (at most kRowBlock)
// rows of the [rows, n] matrix x, each an ascending-j chain from +0. A full
// block runs its eight chains side by side, so the additions of one row wait
// on each other but not on the other rows'; every row gets the additions a
// row at a time would give it.
void RowSums(const float* x, int rows, int n, float* sums) {
  if (rows == kRowBlock) {
    float acc[kRowBlock] = {};
    for (int j = 0; j < n; ++j) {
      for (int r = 0; r < kRowBlock; ++r) {
        acc[r] += x[static_cast<int64_t>(r) * n + j];
      }
    }
    for (int r = 0; r < kRowBlock; ++r) sums[r] = acc[r];
    return;
  }
  for (int r = 0; r < rows; ++r) {
    const float* row = x + static_cast<int64_t>(r) * n;
    float acc = 0.0f;
    for (int j = 0; j < n; ++j) acc += row[j];
    sums[r] = acc;
  }
}

}  // namespace

Tensor LogSoftmax(const Tensor& a) {
  const int m = a.rows(), n = a.cols();
  const bool inference = internal::InferenceModeActive();
  const kernels::KernelTable& kt = kernels::Active();
  std::vector<float> out = ForwardBuffer(a.numel(), inference);
  kt.log_softmax(a.data(), out.data(), m, n);
  if (inference) return MakeInferenceResult(a.shape(), std::move(out));
  return MakeResult(
      a.shape(), std::move(out),
      [m, n](TensorImpl& y) {
        TensorImpl& a = *y.parents[0];
        if (!NeedsGrad(a)) return;
        float* agrad = internal::GradBuffer(a).data();
        const float* yd = y.data.data();
        const float* gd = y.grad.data();
        float gsum[kRowBlock];
        for (int i0 = 0; i0 < m; i0 += kRowBlock) {
          const int rows = std::min(kRowBlock, m - i0);
          RowSums(gd + static_cast<int64_t>(i0) * n, rows, n, gsum);
          for (int r = 0; r < rows; ++r) {
            const int64_t off = static_cast<int64_t>(i0 + r) * n;
            for (int j = 0; j < n; ++j) {
              agrad[off + j] += gd[off + j] - std::exp(yd[off + j]) * gsum[r];
            }
          }
        }
      },
      a);
}

Tensor NllLoss(const Tensor& log_probs, const std::vector<int>& targets) {
  const int m = log_probs.rows(), n = log_probs.cols();
  if (static_cast<int>(targets.size()) != m) {
    Fatal("NllLoss: expected " + std::to_string(m) + " targets, got " +
          std::to_string(targets.size()));
  }
  float loss = 0.0f;
  for (int i = 0; i < m; ++i) {
    const int t = targets[i];
    if (t < 0 || t >= n) Fatal("NllLoss: target out of range");
    loss -= log_probs.at(i, t);
  }
  loss /= static_cast<float>(m);
  if (internal::InferenceModeActive()) {
    std::vector<float> out = ForwardBuffer(1, true);
    out[0] = loss;
    return MakeInferenceResult({1, 1}, std::move(out));
  }
  return MakeNode(
      {1, 1}, {loss},
      [targets, m, n](TensorImpl& y) {
        TensorImpl& lp = *y.parents[0];
        if (!NeedsGrad(lp)) return;
        float* lgrad = internal::GradBuffer(lp).data();
        const float g = y.grad[0] / static_cast<float>(m);
        for (int i = 0; i < m; ++i) lgrad[i * n + targets[i]] -= g;
      },
      log_probs);
}

Tensor CrossEntropyLoss(const Tensor& logits, const std::vector<int>& targets) {
  return NllLoss(LogSoftmax(logits), targets);
}

Tensor ConcatCols(const std::vector<Tensor>& parts) {
  if (parts.empty()) Fatal("ConcatCols: empty input");
  const int m = parts[0].rows();
  int total = 0;
  for (const Tensor& p : parts) {
    if (p.rows() != m) Fatal("ConcatCols: row mismatch");
    total += p.cols();
  }
  const bool inference = internal::InferenceModeActive();
  std::vector<float> out =
      ForwardBuffer(static_cast<int64_t>(m) * total, inference);
  int off = 0;
  for (const Tensor& p : parts) {
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < p.cols(); ++j) {
        out[i * total + off + j] = p.at(i, j);
      }
    }
    off += p.cols();
  }
  if (inference) return MakeInferenceResult({m, total}, std::move(out));
  return MakeResult(
      {m, total}, std::move(out),
      [m, total](TensorImpl& y) {
        int off2 = 0;
        for (const auto& part : y.parents) {
          const int pc = part->shape.cols;
          if (NeedsGrad(*part)) {
            float* pgrad = internal::GradBuffer(*part).data();
            for (int i = 0; i < m; ++i) {
              for (int j = 0; j < pc; ++j) {
                pgrad[i * pc + j] += y.grad[i * total + off2 + j];
              }
            }
          }
          off2 += pc;
        }
      },
      parts);
}

Tensor ConcatRows(const std::vector<Tensor>& parts) {
  if (parts.empty()) Fatal("ConcatRows: empty input");
  const int n = parts[0].cols();
  int total = 0;
  for (const Tensor& p : parts) {
    if (p.cols() != n) Fatal("ConcatRows: col mismatch");
    total += p.rows();
  }
  const bool inference = internal::InferenceModeActive();
  std::vector<float> out =
      ForwardBuffer(static_cast<int64_t>(total) * n, inference);
  size_t off = 0;
  for (const Tensor& p : parts) {
    const size_t cnt = static_cast<size_t>(p.numel());
    std::copy(p.data(), p.data() + cnt, out.begin() + off);
    off += cnt;
  }
  if (inference) return MakeInferenceResult({total, n}, std::move(out));
  return MakeResult(
      {total, n}, std::move(out),
      [](TensorImpl& y) {
        int64_t off2 = 0;
        for (const auto& part : y.parents) {
          const int64_t cnt = part->shape.numel();
          if (NeedsGrad(*part)) {
            float* pgrad = internal::GradBuffer(*part).data();
            for (int64_t i = 0; i < cnt; ++i) pgrad[i] += y.grad[off2 + i];
          }
          off2 += cnt;
        }
      },
      parts);
}

Tensor SliceCols(const Tensor& a, int start, int len) {
  const int m = a.rows(), n = a.cols();
  if (start < 0 || len < 0 || start + len > n) Fatal("SliceCols: out of range");
  const bool inference = internal::InferenceModeActive();
  std::vector<float> out =
      ForwardBuffer(static_cast<int64_t>(m) * len, inference);
  const float* ad = a.data();
  for (int i = 0; i < m; ++i) {
    const float* arow = ad + static_cast<int64_t>(i) * n + start;
    for (int j = 0; j < len; ++j) out[i * len + j] = arow[j];
  }
  if (inference) return MakeInferenceResult({m, len}, std::move(out));
  return MakeResult(
      {m, len}, std::move(out),
      [start, len, m, n](TensorImpl& y) {
        TensorImpl& a = *y.parents[0];
        if (!NeedsGrad(a)) return;
        float* agrad = internal::GradBuffer(a).data();
        for (int i = 0; i < m; ++i) {
          for (int j = 0; j < len; ++j) {
            agrad[i * n + start + j] += y.grad[i * len + j];
          }
        }
      },
      a);
}

Tensor SliceRows(const Tensor& a, int start, int len) {
  const int m = a.rows(), n = a.cols();
  if (start < 0 || len < 0 || start + len > m) Fatal("SliceRows: out of range");
  const bool inference = internal::InferenceModeActive();
  std::vector<float> out =
      ForwardBuffer(static_cast<int64_t>(len) * n, inference);
  std::copy(a.data() + static_cast<size_t>(start) * n,
            a.data() + static_cast<size_t>(start + len) * n, out.begin());
  if (inference) return MakeInferenceResult({len, n}, std::move(out));
  return MakeResult(
      {len, n}, std::move(out),
      [start, len, n](TensorImpl& y) {
        TensorImpl& a = *y.parents[0];
        if (!NeedsGrad(a)) return;
        float* agrad = internal::GradBuffer(a).data();
        for (int64_t i = 0; i < static_cast<int64_t>(len) * n; ++i) {
          agrad[static_cast<int64_t>(start) * n + i] += y.grad[i];
        }
      },
      a);
}

Tensor Rows(const Tensor& table, const std::vector<int>& indices) {
  const int v = table.rows(), d = table.cols();
  const int b = static_cast<int>(indices.size());
  const bool inference = internal::InferenceModeActive();
  std::vector<float> out =
      ForwardBuffer(static_cast<int64_t>(b) * d, inference);
  const float* td = table.data();
  for (int i = 0; i < b; ++i) {
    const int idx = indices[i];
    if (idx < 0 || idx >= v) Fatal("Rows: index out of range");
    const float* trow = td + static_cast<int64_t>(idx) * d;
    for (int j = 0; j < d; ++j) out[i * d + j] = trow[j];
  }
  if (inference) return MakeInferenceResult({b, d}, std::move(out));
  return MakeNode(
      {b, d}, std::move(out),
      [indices, b, d](TensorImpl& y) {
        TensorImpl& t = *y.parents[0];
        if (!NeedsGrad(t)) return;
        float* tgrad = internal::GradBuffer(t).data();
        for (int i = 0; i < b; ++i) {
          float* row = tgrad + indices[i] * d;
          for (int j = 0; j < d; ++j) row[j] += y.grad[i * d + j];
        }
      },
      table);
}

Tensor Sum(const Tensor& a) {
  const int64_t numel = a.numel();
  const float* ad = a.data();
  float total = 0.0f;
  for (int64_t i = 0; i < numel; ++i) total += ad[i];
  if (internal::InferenceModeActive()) {
    std::vector<float> out = ForwardBuffer(1, true);
    out[0] = total;
    return MakeInferenceResult({1, 1}, std::move(out));
  }
  return MakeResult(
      {1, 1}, {total},
      [](TensorImpl& y) {
        const float g = y.grad[0];
        Accumulate(*y.parents[0], [g](int64_t) { return g; });
      },
      a);
}

Tensor Mean(const Tensor& a) {
  const int64_t numel = a.numel();
  const float inv = 1.0f / static_cast<float>(numel);
  const float* ad = a.data();
  float total = 0.0f;
  for (int64_t i = 0; i < numel; ++i) total += ad[i];
  if (internal::InferenceModeActive()) {
    std::vector<float> out = ForwardBuffer(1, true);
    out[0] = total * inv;
    return MakeInferenceResult({1, 1}, std::move(out));
  }
  return MakeResult(
      {1, 1}, {total * inv},
      [inv](TensorImpl& y) {
        const float g = y.grad[0];
        Accumulate(*y.parents[0], [g, inv](int64_t) { return g * inv; });
      },
      a);
}

Tensor SumRows(const Tensor& a) {
  const int m = a.rows(), n = a.cols();
  const bool inference = internal::InferenceModeActive();
  std::vector<float> out = ZeroedForwardBuffer(m, inference);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) out[i] += a.at(i, j);
  }
  if (inference) return MakeInferenceResult({m, 1}, std::move(out));
  return MakeResult(
      {m, 1}, std::move(out),
      [m, n](TensorImpl& y) {
        TensorImpl& a = *y.parents[0];
        if (!NeedsGrad(a)) return;
        float* agrad = internal::GradBuffer(a).data();
        for (int i = 0; i < m; ++i) {
          for (int j = 0; j < n; ++j) agrad[i * n + j] += y.grad[i];
        }
      },
      a);
}

}  // namespace pa::tensor
