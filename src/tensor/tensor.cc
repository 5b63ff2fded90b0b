#include "tensor/tensor.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <unordered_map>

#include "tensor/buffer_pool.h"

namespace pa::tensor {

std::string Shape::ToString() const {
  std::ostringstream os;
  os << "[" << rows << ", " << cols << "]";
  return os.str();
}

namespace {

[[noreturn]] void Fatal(const std::string& msg) {
  std::fprintf(stderr, "pa::tensor fatal: %s\n", msg.c_str());
  std::abort();
}

// Inference-mode nesting depth for this thread (see InferenceModeScope).
thread_local int t_inference_depth = 0;

}  // namespace

namespace internal {

TensorImpl::~TensorImpl() {
  if (pooled) ReleaseToThreadPool(std::move(data));
}

bool InferenceModeActive() { return t_inference_depth > 0; }

}  // namespace internal

InferenceModeScope::InferenceModeScope() { ++t_inference_depth; }

InferenceModeScope::~InferenceModeScope() { --t_inference_depth; }

bool InferenceModeScope::Active() { return internal::InferenceModeActive(); }

void Tensor::DieUndefined(const char* accessor) {
  Fatal(std::string("Tensor::") + accessor +
        " called on a default-constructed (undefined) Tensor; check "
        "defined() first");
}

Tensor Tensor::Zeros(Shape shape, bool requires_grad) {
  return Full(shape, 0.0f, requires_grad);
}

Tensor Tensor::Full(Shape shape, float value, bool requires_grad) {
  if (shape.rows < 0 || shape.cols < 0) Fatal("negative shape");
  const bool inference = !requires_grad && internal::InferenceModeActive();
  auto impl = inference
                  ? std::allocate_shared<internal::TensorImpl>(
                        internal::NodeBlockAllocator<internal::TensorImpl>())
                  : std::make_shared<internal::TensorImpl>();
  impl->shape = shape;
  const size_t n = static_cast<size_t>(shape.numel());
  if (inference) {
    // Transient fill tensors (initial hidden states, masks) recycle pool
    // capacity like any other inference-mode intermediate.
    impl->data = internal::ThisThreadPool().Acquire(n);
    impl->data.assign(n, value);
    impl->pooled = true;
  } else {
    impl->data.assign(n, value);
  }
  impl->requires_grad = requires_grad;
  return FromImpl(std::move(impl));
}

Tensor Tensor::FromData(Shape shape, std::vector<float> data,
                        bool requires_grad) {
  if (static_cast<int64_t>(data.size()) != shape.numel()) {
    Fatal("FromData: buffer size " + std::to_string(data.size()) +
          " does not match shape " + shape.ToString());
  }
  auto impl = std::make_shared<internal::TensorImpl>();
  impl->shape = shape;
  impl->data = std::move(data);
  impl->requires_grad = requires_grad;
  return FromImpl(std::move(impl));
}

Tensor Tensor::Scalar(float value, bool requires_grad) {
  return FromData({1, 1}, {value}, requires_grad);
}

Tensor Tensor::FromImpl(std::shared_ptr<internal::TensorImpl> impl) {
  Tensor t;
  t.impl_ = std::move(impl);
  return t;
}

float Tensor::item() const {
  if (shape().rows != 1 || shape().cols != 1) {
    Fatal("item() called on non-scalar tensor of shape " + shape().ToString());
  }
  return impl_->data[0];
}

float* Tensor::grad_data() {
  impl_->EnsureGrad();
  return impl_->grad.data();
}

const std::vector<float>& Tensor::grad_vector() const {
  impl_->EnsureGrad();
  return impl_->grad;
}

float Tensor::grad_at(int r, int c) const {
  impl_->EnsureGrad();
  return impl_->grad[Index(r, c)];
}

void Tensor::ZeroGrad() {
  impl_->grad.assign(impl_->data.size(), 0.0f);
}

Tensor Tensor::Detach() const {
  const bool inference = internal::InferenceModeActive();
  auto impl = inference
                  ? std::allocate_shared<internal::TensorImpl>(
                        internal::NodeBlockAllocator<internal::TensorImpl>())
                  : std::make_shared<internal::TensorImpl>();
  impl->shape = impl_->shape;
  if (inference) {
    impl->data = internal::ThisThreadPool().Acquire(impl_->data.size());
    impl->data.assign(impl_->data.begin(), impl_->data.end());
    impl->pooled = true;
  } else {
    impl->data = impl_->data;
  }
  impl->requires_grad = false;
  return FromImpl(std::move(impl));
}

void Tensor::AxpyInPlace(float alpha, const std::vector<float>& delta) {
  if (delta.size() != impl_->data.size()) Fatal("AxpyInPlace: size mismatch");
  for (size_t i = 0; i < delta.size(); ++i) {
    impl_->data[i] += alpha * delta[i];
  }
}

namespace {

// Iterative post-order topological sort over the root and the interior
// nodes below it. Recursion is avoided because sequence models routinely
// build graphs tens of thousands of nodes deep (one LSTM step per check-in
// per layer). Leaves are skipped: they have no backward_fn to run and no
// edges to release, and they are never marked. The root needs no mark
// either, because no path in a DAG leads back to it.
void TopoSort(internal::TensorImpl* root,
              std::vector<internal::TensorImpl*>* order) {
  struct Frame {
    internal::TensorImpl* node;
    size_t next_parent;
  };
  std::vector<Frame> stack;
  stack.push_back({root, 0});
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next_parent < frame.node->parents.size()) {
      internal::TensorImpl* parent =
          frame.node->parents[frame.next_parent++].get();
      if (parent->backward_fn != nullptr && !parent->visited) {
        parent->visited = true;
        stack.push_back({parent, 0});
      }
    } else {
      order->push_back(frame.node);
      stack.pop_back();
    }
  }
}

// The transposed operands of the Backward walk running on this thread (see
// internal::TransposedData), keyed by node. Every node stays alive until
// the walk ends, so no key can be reused while its table is published.
using TransposeTable =
    std::unordered_map<const internal::TensorImpl*, std::vector<float>>;
thread_local TransposeTable* t_transposed = nullptr;

// Publishes one walk's table to the backward closures and restores the
// previous pointer on every exit path.
class TransposeTableScope {
 public:
  TransposeTableScope() : prev_(t_transposed) { t_transposed = &table_; }
  ~TransposeTableScope() { t_transposed = prev_; }
  TransposeTableScope(const TransposeTableScope&) = delete;
  TransposeTableScope& operator=(const TransposeTableScope&) = delete;

 private:
  TransposeTable table_;
  TransposeTable* prev_;
};

// out[j, i] = in[i, j] for in [rows, cols], in square blocks whose reads and
// writes each stay within a few cache lines; a row-at-a-time transpose of
// PA-Seq2Seq's [48, 2,600] output weight writes a new line per element.
void BlockedTranspose(const float* in, float* out, int rows, int cols) {
  constexpr int kBlock = 16;
  for (int i0 = 0; i0 < rows; i0 += kBlock) {
    const int i1 = std::min(i0 + kBlock, rows);
    for (int j0 = 0; j0 < cols; j0 += kBlock) {
      const int j1 = std::min(j0 + kBlock, cols);
      for (int j = j0; j < j1; ++j) {
        float* orow = out + static_cast<int64_t>(j) * rows;
        for (int i = i0; i < i1; ++i) {
          orow[i] = in[static_cast<int64_t>(i) * cols + j];
        }
      }
    }
  }
}

}  // namespace

void Tensor::Backward() {
  if (shape().rows != 1 || shape().cols != 1) {
    Fatal("Backward() must start from a scalar loss; got shape " +
          shape().ToString());
  }
  std::vector<internal::TensorImpl*> order;
  TopoSort(impl_.get(), &order);

  impl_->EnsureGrad();
  impl_->grad[0] += 1.0f;

  // Post-order yields parents before children; reverse iteration visits each
  // node only after all of its consumers have contributed its gradient. So
  // once a node's closure has run nothing adds to its gradient again, and
  // an interior node's buffer is freed there; the root keeps its own.
  {
    TransposeTableScope transposed;
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      internal::TensorImpl* node = *it;
      if (node->backward_fn) {
        node->EnsureGrad();
        node->backward_fn(*node);
        if (node != impl_.get()) std::vector<float>().swap(node->grad);
      }
    }
  }

  // Eager graph release: no caller retains a graph for a second Backward()
  // over the same nodes (leaf gradients accumulate across *rebuilt* graphs),
  // so drop every edge and closure now. This caps peak memory at one graph's
  // tensors; the parent lists are the graph's only edges (closures capture
  // no node), so nothing in it keeps a node alive afterwards. Iterating
  // `order` forward (parents before consumers) means a node whose only
  // owners are its consumers' parent lists is destroyed only after its own
  // slot has been processed, and with its parent list already empty — so
  // teardown is iterative, never a deep destructor recursion.
  for (internal::TensorImpl* node : order) {
    node->parents.clear();
    node->backward_fn = nullptr;
  }
}

namespace {

// Active gradient redirection on this thread: leaf impl -> private buffer.
thread_local std::unordered_map<internal::TensorImpl*, std::vector<float>*>*
    t_grad_redirect = nullptr;

}  // namespace

namespace internal {

std::vector<float>& GradBuffer(TensorImpl& impl) {
  if (t_grad_redirect != nullptr) {
    auto it = t_grad_redirect->find(&impl);
    if (it != t_grad_redirect->end()) return *it->second;
  }
  impl.EnsureGrad();
  return impl.grad;
}

const float* TransposedData(const TensorImpl& impl) {
  if (t_transposed == nullptr) {
    Fatal("TransposedData: called outside Tensor::Backward()");
  }
  auto [it, inserted] = t_transposed->try_emplace(&impl);
  if (inserted) {
    it->second.resize(impl.data.size());
    BlockedTranspose(impl.data.data(), it->second.data(), impl.shape.rows,
                     impl.shape.cols);
  }
  return it->second.data();
}

}  // namespace internal

GradRedirectScope::GradRedirectScope(const std::vector<Tensor>& leaves) {
  if (t_grad_redirect != nullptr) {
    Fatal("GradRedirectScope: scopes must not nest on one thread");
  }
  buffers_.resize(leaves.size());
  auto* map =
      new std::unordered_map<internal::TensorImpl*, std::vector<float>*>();
  map->reserve(leaves.size());
  for (size_t i = 0; i < leaves.size(); ++i) {
    buffers_[i].assign(leaves[i].impl()->data.size(), 0.0f);
    // emplace: a duplicated leaf keeps accumulating into its first buffer.
    map->emplace(leaves[i].impl().get(), &buffers_[i]);
  }
  t_grad_redirect = map;
}

GradRedirectScope::~GradRedirectScope() {
  delete t_grad_redirect;
  t_grad_redirect = nullptr;
}

std::string Tensor::ToString() const {
  std::ostringstream os;
  os << "Tensor" << shape().ToString() << " [";
  const int64_t n = numel();
  const int64_t show = n > 8 ? 8 : n;
  for (int64_t i = 0; i < show; ++i) {
    if (i) os << ", ";
    os << impl_->data[static_cast<size_t>(i)];
  }
  if (show < n) os << ", ...";
  os << "]";
  return os.str();
}

}  // namespace pa::tensor
