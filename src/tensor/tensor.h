#ifndef PA_TENSOR_TENSOR_H_
#define PA_TENSOR_TENSOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace pa::tensor {

/// Shape of a 2-D tensor. The autograd engine in this library is
/// deliberately restricted to dense 2-D float matrices: every quantity a
/// recurrent model needs — parameter matrices, hidden states `[batch, dim]`,
/// logits `[batch, vocab]`, scalar losses `[1, 1]` — is a matrix, and the
/// restriction keeps every kernel simple enough to verify by hand and by
/// numerical gradient check.
struct Shape {
  int rows = 0;
  int cols = 0;

  int64_t numel() const { return static_cast<int64_t>(rows) * cols; }
  bool operator==(const Shape& other) const = default;
  std::string ToString() const;
};

namespace internal {

struct TensorImpl;

/// A node's parents: up to three in place (every op but the Concats), more
/// in one exactly sized heap array.
class ParentList {
 public:
  using Ptr = std::shared_ptr<TensorImpl>;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const Ptr& operator[](size_t k) const { return data()[k]; }
  const Ptr* begin() const { return data(); }
  const Ptr* end() const { return data() + size_; }

  /// Sizes an empty list for exactly `n` parents, which `Set` then fills.
  void Resize(size_t n) {
    if (n > kInline) spill_.resize(n);
    size_ = n;
  }
  void Set(size_t k, Ptr p) {
    (size_ > kInline ? spill_.data() : inline_)[k] = std::move(p);
  }
  void clear() {
    for (Ptr& p : inline_) p.reset();
    std::vector<Ptr>().swap(spill_);
    size_ = 0;
  }

 private:
  static constexpr size_t kInline = 3;
  const Ptr* data() const { return size_ > kInline ? spill_.data() : inline_; }

  Ptr inline_[kInline];
  std::vector<Ptr> spill_;
  size_t size_ = 0;
};

/// Reference-counted tensor storage plus its position in the autograd graph.
///
/// An op's result node owns its operands as `parents`, in the op's argument
/// order, and a closure that, given the node's accumulated output gradient,
/// accumulates gradients into the parents. The closure reads operand k as
/// `*y.parents[k]` and captures only scalars (NllLoss and Rows also carry
/// their index lists), so the parents alone keep the operands alive until
/// `Tensor::Backward` releases the node. Backward runs the closures in
/// reverse topological order and frees each interior node's gradient once
/// its closure has run: afterwards only leaves and the root hold gradients.
struct TensorImpl {
  Shape shape;
  std::vector<float> data;
  // Lazily sized to `data.size()` on first use; an interior node's is freed
  // by Backward once its closure has run.
  std::vector<float> grad;
  bool requires_grad = false;
  // True when `data` came from the thread-local BufferPool (inference mode);
  // the destructor then recycles the storage instead of freeing it.
  bool pooled = false;
  // Set by Backward's graph walk on interior nodes (those with a
  // `backward_fn`) only: leaves may be shared across training threads.
  // Backward releases every node it walks, so the flag is never reset.
  bool visited = false;
  ParentList parents;
  std::function<void(TensorImpl&)> backward_fn;

  TensorImpl() = default;
  ~TensorImpl();
  TensorImpl(const TensorImpl&) = delete;
  TensorImpl& operator=(const TensorImpl&) = delete;

  void EnsureGrad() {
    if (grad.size() != data.size()) grad.assign(data.size(), 0.0f);
  }
};

/// Gradient buffer the current thread should accumulate into for `impl`:
/// the thread-local redirect buffer while a `GradRedirectScope` on this
/// thread covers `impl` (data-parallel training), else `impl.grad`. All op
/// backward closures route their parent-gradient writes through this.
std::vector<float>& GradBuffer(TensorImpl& impl);

/// `impl.data` transposed: row-major [cols, rows]. The copy is built on the
/// first request during the `Tensor::Backward()` running on this thread,
/// shared by every later request for `impl` in that walk (MatMul's backward
/// asks once per node that reads `impl` as its B), and freed when Backward
/// returns, so data edited between two Backward calls is never read stale.
/// Each thread's walk has its own copies; `impl` itself is only read.
/// Aborts when no Backward is running on this thread.
const float* TransposedData(const TensorImpl& impl);

/// True while the calling thread is inside at least one `InferenceModeScope`.
/// Ops consult this once per call to pick the graph-free path.
bool InferenceModeActive();

}  // namespace internal

/// Value-semantic handle to a node in a dynamically built autograd graph.
///
/// Copies are shallow (they alias the same storage and graph node), which is
/// what makes it cheap to return tensors from ops and to hold parameter
/// lists. A default-constructed Tensor is "undefined" and may only be
/// queried via `defined()`.
class Tensor {
 public:
  Tensor() = default;

  /// Creates a tensor filled with zeros.
  static Tensor Zeros(Shape shape, bool requires_grad = false);
  /// Creates a tensor where every element is `value`.
  static Tensor Full(Shape shape, float value, bool requires_grad = false);
  /// Creates a tensor from a row-major flat buffer; `data.size()` must equal
  /// `shape.numel()`.
  static Tensor FromData(Shape shape, std::vector<float> data,
                         bool requires_grad = false);
  /// Creates a `[1, 1]` scalar tensor.
  static Tensor Scalar(float value, bool requires_grad = false);

  bool defined() const { return impl_ != nullptr; }
  const Shape& shape() const {
    CheckDefined("shape()");
    return impl_->shape;
  }
  int rows() const {
    CheckDefined("rows()");
    return impl_->shape.rows;
  }
  int cols() const {
    CheckDefined("cols()");
    return impl_->shape.cols;
  }
  int64_t numel() const {
    CheckDefined("numel()");
    return impl_->shape.numel();
  }
  bool requires_grad() const {
    CheckDefined("requires_grad()");
    return impl_->requires_grad;
  }

  float* data() {
    CheckDefined("data()");
    return impl_->data.data();
  }
  const float* data() const {
    CheckDefined("data()");
    return impl_->data.data();
  }

  /// Element access (bounds-checked in debug builds only through asserts).
  float at(int r, int c) const { return impl_->data[Index(r, c)]; }
  void set(int r, int c, float v) { impl_->data[Index(r, c)] = v; }

  /// Value of a `[1, 1]` tensor; aborts on any other shape.
  float item() const;

  /// Gradient buffer (allocated on demand). Only meaningful after
  /// `Backward()` has run on a graph containing this tensor, and then only
  /// for a leaf or the root: Backward frees every interior node's gradient
  /// once that node's closure has used it.
  float* grad_data();
  const std::vector<float>& grad_vector() const;
  float grad_at(int r, int c) const;

  /// Zeroes this tensor's gradient buffer.
  void ZeroGrad();

  /// Returns a new leaf tensor sharing no graph history; the data is copied.
  Tensor Detach() const;

  /// Runs reverse-mode differentiation from this tensor, which must be a
  /// `[1, 1]` scalar (a loss). Gradients *accumulate* into the `grad`
  /// buffers of all reachable leaves with `requires_grad`. Afterwards only
  /// leaves and this root hold gradients, and the graph below the root is
  /// released: a second call adds to the root's gradient only.
  void Backward();

  /// In-place SGD-style update helper used by optimizers: data -= lr * delta.
  void AxpyInPlace(float alpha, const std::vector<float>& delta);

  std::string ToString() const;

  const std::shared_ptr<internal::TensorImpl>& impl() const { return impl_; }

  /// Wraps an existing impl; used by op implementations.
  static Tensor FromImpl(std::shared_ptr<internal::TensorImpl> impl);

 private:
  int Index(int r, int c) const { return r * impl_->shape.cols + c; }

  // Aborts with a clear message instead of dereferencing a null impl_ (raw
  // UB) when an accessor is called on a default-constructed Tensor.
  void CheckDefined(const char* accessor) const {
    if (impl_ == nullptr) DieUndefined(accessor);
  }
  [[noreturn]] static void DieUndefined(const char* accessor);

  std::shared_ptr<internal::TensorImpl> impl_;
};

/// Thread-local RAII switch that puts every tensor op on this thread onto the
/// graph-free inference fast path: ops skip parent recording, backward
/// closures, and `requires_grad` propagation entirely, and draw their output
/// storage from the thread-local `BufferPool` instead of the allocator.
///
/// Invariants:
///  - Forward values are bit-identical to the graph-building path (the ops
///    run the exact same floating-point sequence; only bookkeeping differs).
///  - Tensors created under the scope never require grad and are permanent
///    leaves; calling `Backward()` through them is a no-op beyond the root.
///  - Scopes nest freely (a depth counter — inner scopes are no-ops) and are
///    strictly per-thread: pool worker threads must enter their own scope.
///  - Pooled tensors may outlive the scope; their storage returns to the
///    pool of whichever thread drops the last reference.
///
/// No production path enters a scope: every inference path steps explicit
/// row forwards (`ForwardRows`, `ForwardRow`, `DecodeRows`) over flat
/// buffers. The scope stays for the repository benchmark's layer replays,
/// which still time tensor-op forwards under it.
class InferenceModeScope {
 public:
  InferenceModeScope();
  ~InferenceModeScope();
  InferenceModeScope(const InferenceModeScope&) = delete;
  InferenceModeScope& operator=(const InferenceModeScope&) = delete;

  /// Equivalent to `internal::InferenceModeActive()`.
  static bool Active();
};

/// Redirects gradient accumulation for a set of leaf tensors (parameters)
/// into private per-scope buffers on the *constructing thread*.
///
/// This is what makes data-parallel training deterministic: each work item
/// runs forward + `Backward()` inside its own scope on its own thread, so
/// shared parameters never see concurrent `grad` writes, and the caller
/// merges the per-item buffers into the real `grad` vectors in item order —
/// a fixed floating-point reduction order whatever the thread count.
///
/// Scopes must not nest on one thread, and a scope must be destroyed on the
/// thread that created it. Interior (non-covered) nodes are untouched: their
/// gradients live in the per-item graph, which is thread-private anyway.
class GradRedirectScope {
 public:
  explicit GradRedirectScope(const std::vector<Tensor>& leaves);
  ~GradRedirectScope();

  GradRedirectScope(const GradRedirectScope&) = delete;
  GradRedirectScope& operator=(const GradRedirectScope&) = delete;

  /// The captured gradients, aligned with the constructor's `leaves`.
  /// (A leaf listed twice gets all its gradient in its first buffer.)
  std::vector<std::vector<float>> TakeBuffers() { return std::move(buffers_); }

 private:
  std::vector<std::vector<float>> buffers_;
};

}  // namespace pa::tensor

#endif  // PA_TENSOR_TENSOR_H_
