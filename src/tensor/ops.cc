#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

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

bool NeedsGrad(const Tensor& t) { return NeedsGrad(*t.impl()); }

// Creates the result node of an op. `parents` are recorded for topological
// ordering; `backward` is installed only if some parent needs a gradient.
Tensor MakeResult(Shape shape, std::vector<float> data,
                  std::vector<Tensor> parents,
                  std::function<void(TensorImpl&)> backward) {
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = shape;
  impl->data = std::move(data);
  bool any = false;
  for (const Tensor& p : parents) any = any || NeedsGrad(p);
  if (any) {
    impl->requires_grad = true;
    for (const Tensor& p : parents) impl->parents.push_back(p.impl());
    impl->backward_fn = std::move(backward);
  }
  return Tensor::FromImpl(std::move(impl));
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
void Accumulate(const std::shared_ptr<TensorImpl>& dst,
                const ElementGrad& g) {
  if (!NeedsGrad(*dst)) return;
  std::vector<float>& grad = internal::GradBuffer(*dst);
  const int64_t n = dst->shape.numel();
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

// Index of the b-element matching flat index i of a under broadcasting.
int64_t BIndex(BroadcastKind kind, int64_t i, int cols) {
  switch (kind) {
    case BroadcastKind::kSame:
      return i;
    case BroadcastKind::kRow:
      return i % cols;
    case BroadcastKind::kScalar:
      return 0;
  }
  return 0;
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

Tensor BinaryOp(const char* name, const Tensor& a, const Tensor& b,
                const BinaryKernels& bk,
                std::function<void(TensorImpl&)> (*make_backward)(
                    std::shared_ptr<TensorImpl>, std::shared_ptr<TensorImpl>,
                    BroadcastKind, int)) {
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
  return MakeResult(a.shape(), std::move(out), {a, b},
                    make_backward(a.impl(), b.impl(), kind, cols));
}

std::function<void(TensorImpl&)> AddBackward(std::shared_ptr<TensorImpl> ai,
                                             std::shared_ptr<TensorImpl> bi,
                                             BroadcastKind kind, int cols) {
  return [ai, bi, kind, cols](TensorImpl& y) {
    Accumulate(ai, [&](int64_t i) { return y.grad[i]; });
    if (NeedsGrad(*bi)) {
      std::vector<float>& bgrad = internal::GradBuffer(*bi);
      for (int64_t i = 0; i < y.shape.numel(); ++i) {
        bgrad[BIndex(kind, i, cols)] += y.grad[i];
      }
    }
  };
}

std::function<void(TensorImpl&)> SubBackward(std::shared_ptr<TensorImpl> ai,
                                             std::shared_ptr<TensorImpl> bi,
                                             BroadcastKind kind, int cols) {
  return [ai, bi, kind, cols](TensorImpl& y) {
    Accumulate(ai, [&](int64_t i) { return y.grad[i]; });
    if (NeedsGrad(*bi)) {
      std::vector<float>& bgrad = internal::GradBuffer(*bi);
      for (int64_t i = 0; i < y.shape.numel(); ++i) {
        bgrad[BIndex(kind, i, cols)] -= y.grad[i];
      }
    }
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
std::function<void(TensorImpl&)> MulBackward(std::shared_ptr<TensorImpl> ai,
                                             std::shared_ptr<TensorImpl> bi,
                                             BroadcastKind kind, int cols) {
  return [ai, bi, kind, cols](TensorImpl& y) {
    Accumulate(ai, [&](int64_t i) {
      return y.grad[i] * bi->data[BIndex(kind, i, cols)];
    });
    if (NeedsGrad(*bi)) {
      std::vector<float>& bgrad = internal::GradBuffer(*bi);
      for (int64_t i = 0; i < y.shape.numel(); ++i) {
        bgrad[BIndex(kind, i, cols)] += y.grad[i] * ai->data[i];
      }
    }
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
  auto mi = mask.impl();
  auto ai = a.impl();
  auto bi = b.impl();
  return MakeResult(a.shape(), std::move(out), {mask, a, b},
                    [mi, ai, bi](TensorImpl& y) {
                      Accumulate(ai, [&](int64_t i) {
                        return y.grad[i] * mi->data[i];
                      });
                      Accumulate(bi, [&](int64_t i) {
                        return y.grad[i] * (1.0f - mi->data[i]);
                      });
                      Accumulate(mi, [&](int64_t i) {
                        return y.grad[i] * (ai->data[i] - bi->data[i]);
                      });
                    });
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
  auto ai = a.impl();
  auto bi = b.impl();
  return MakeResult(
      {m, n}, std::move(out), {a, b}, [ai, bi, m, k, n](TensorImpl& y) {
        const kernels::KernelTable& bk = kernels::Active();
        if (NeedsGrad(*ai)) {
          thread_local std::vector<float> scratch;
          scratch.assign(static_cast<size_t>(m) * k, 0.0f);
          bk.matmul_block(y.grad.data(), internal::TransposedData(*bi),
                          scratch.data(), n, k, 0, m, 0, k);
          float* da = internal::GradBuffer(*ai).data();
          bk.add(da, scratch.data(), da, static_cast<int64_t>(m) * k);
        }
        if (NeedsGrad(*bi)) {
          bk.matmul_grad_b(ai->data.data(), y.grad.data(),
                           internal::GradBuffer(*bi).data(), m, k, n);
        }
      });
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
  auto ai = a.impl();
  return MakeResult({n, m}, std::move(out), {a}, [ai, m, n](TensorImpl& y) {
    if (!NeedsGrad(*ai)) return;
    std::vector<float>& agrad = internal::GradBuffer(*ai);
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < n; ++j) agrad[i * n + j] += y.grad[j * m + i];
    }
  });
}

namespace {

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
  auto ai = a.impl();
  return MakeResult(a.shape(), std::move(out), {a},
                    [ai, bwd_from_in_out](TensorImpl& y) {
                      Accumulate(ai, [&](int64_t i) {
                        return y.grad[i] *
                               bwd_from_in_out(ai->data[i], y.data[i]);
                      });
                    });
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
  auto ai = a.impl();
  return MakeResult(a.shape(), std::move(out), {a},
                    [ai, bwd_from_in_out](TensorImpl& y) {
                      Accumulate(ai, [&](int64_t i) {
                        return y.grad[i] *
                               bwd_from_in_out(ai->data[i], y.data[i]);
                      });
                    });
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
  auto ai = a.impl();
  return MakeResult(a.shape(), std::move(out), {a}, [ai, m, n](TensorImpl& y) {
    if (!NeedsGrad(*ai)) return;
    std::vector<float>& agrad = internal::GradBuffer(*ai);
    for (int i = 0; i < m; ++i) {
      const float* yrow = y.data.data() + i * n;
      const float* grow = y.grad.data() + i * n;
      float dot = 0.0f;
      for (int j = 0; j < n; ++j) dot += yrow[j] * grow[j];
      for (int j = 0; j < n; ++j) {
        agrad[i * n + j] += yrow[j] * (grow[j] - dot);
      }
    }
  });
}

Tensor LogSoftmax(const Tensor& a) {
  const int m = a.rows(), n = a.cols();
  const bool inference = internal::InferenceModeActive();
  const kernels::KernelTable& kt = kernels::Active();
  std::vector<float> out = ForwardBuffer(a.numel(), inference);
  kt.log_softmax(a.data(), out.data(), m, n);
  if (inference) return MakeInferenceResult(a.shape(), std::move(out));
  auto ai = a.impl();
  return MakeResult(a.shape(), std::move(out), {a}, [ai, m, n](TensorImpl& y) {
    if (!NeedsGrad(*ai)) return;
    std::vector<float>& agrad = internal::GradBuffer(*ai);
    for (int i = 0; i < m; ++i) {
      const float* yrow = y.data.data() + i * n;
      const float* grow = y.grad.data() + i * n;
      float gsum = 0.0f;
      for (int j = 0; j < n; ++j) gsum += grow[j];
      for (int j = 0; j < n; ++j) {
        agrad[i * n + j] += grow[j] - std::exp(yrow[j]) * gsum;
      }
    }
  });
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
  auto li = log_probs.impl();
  return MakeResult({1, 1}, {loss}, {log_probs},
                    [li, targets, m, n](TensorImpl& y) {
                      if (!NeedsGrad(*li)) return;
                      std::vector<float>& lgrad = internal::GradBuffer(*li);
                      const float g = y.grad[0] / static_cast<float>(m);
                      for (int i = 0; i < m; ++i) {
                        lgrad[i * n + targets[i]] -= g;
                      }
                    });
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
  std::vector<std::shared_ptr<TensorImpl>> impls;
  impls.reserve(parts.size());
  for (const Tensor& p : parts) impls.push_back(p.impl());
  return MakeResult({m, total}, std::move(out), parts,
                    [impls, m, total](TensorImpl& y) {
                      int off2 = 0;
                      for (const auto& pi : impls) {
                        const int pc = pi->shape.cols;
                        if (NeedsGrad(*pi)) {
                          std::vector<float>& pgrad =
                              internal::GradBuffer(*pi);
                          for (int i = 0; i < m; ++i) {
                            for (int j = 0; j < pc; ++j) {
                              pgrad[i * pc + j] +=
                                  y.grad[i * total + off2 + j];
                            }
                          }
                        }
                        off2 += pc;
                      }
                    });
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
  std::vector<std::shared_ptr<TensorImpl>> impls;
  impls.reserve(parts.size());
  for (const Tensor& p : parts) impls.push_back(p.impl());
  return MakeResult({total, n}, std::move(out), parts,
                    [impls, n](TensorImpl& y) {
                      int64_t off2 = 0;
                      for (const auto& pi : impls) {
                        const int64_t cnt = pi->shape.numel();
                        if (NeedsGrad(*pi)) {
                          std::vector<float>& pgrad =
                              internal::GradBuffer(*pi);
                          for (int64_t i = 0; i < cnt; ++i) {
                            pgrad[i] += y.grad[off2 + i];
                          }
                        }
                        off2 += cnt;
                      }
                    });
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
  auto ai = a.impl();
  return MakeResult({m, len}, std::move(out), {a},
                    [ai, start, len, m, n](TensorImpl& y) {
                      if (!NeedsGrad(*ai)) return;
                      std::vector<float>& agrad = internal::GradBuffer(*ai);
                      for (int i = 0; i < m; ++i) {
                        for (int j = 0; j < len; ++j) {
                          agrad[i * n + start + j] += y.grad[i * len + j];
                        }
                      }
                    });
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
  auto ai = a.impl();
  return MakeResult({len, n}, std::move(out), {a},
                    [ai, start, len, n](TensorImpl& y) {
                      if (!NeedsGrad(*ai)) return;
                      std::vector<float>& agrad = internal::GradBuffer(*ai);
                      for (int64_t i = 0; i < static_cast<int64_t>(len) * n;
                           ++i) {
                        agrad[static_cast<int64_t>(start) * n + i] +=
                            y.grad[i];
                      }
                    });
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
  auto ti = table.impl();
  return MakeResult({b, d}, std::move(out), {table},
                    [ti, indices, b, d](TensorImpl& y) {
                      if (!NeedsGrad(*ti)) return;
                      std::vector<float>& tgrad = internal::GradBuffer(*ti);
                      for (int i = 0; i < b; ++i) {
                        float* row = tgrad.data() + indices[i] * d;
                        for (int j = 0; j < d; ++j) {
                          row[j] += y.grad[i * d + j];
                        }
                      }
                    });
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
  auto ai = a.impl();
  return MakeResult({1, 1}, {total}, {a}, [ai](TensorImpl& y) {
    Accumulate(ai, [&](int64_t) { return y.grad[0]; });
  });
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
  auto ai = a.impl();
  return MakeResult({1, 1}, {total * inv}, {a}, [ai, inv](TensorImpl& y) {
    Accumulate(ai, [&](int64_t) { return y.grad[0] * inv; });
  });
}

Tensor SumRows(const Tensor& a) {
  const int m = a.rows(), n = a.cols();
  const bool inference = internal::InferenceModeActive();
  std::vector<float> out = ZeroedForwardBuffer(m, inference);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) out[i] += a.at(i, j);
  }
  if (inference) return MakeInferenceResult({m, 1}, std::move(out));
  auto ai = a.impl();
  return MakeResult({m, 1}, std::move(out), {a}, [ai, m, n](TensorImpl& y) {
    if (!NeedsGrad(*ai)) return;
    std::vector<float>& agrad = internal::GradBuffer(*ai);
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < n; ++j) agrad[i * n + j] += y.grad[i];
    }
  });
}

}  // namespace pa::tensor
