#include "tensor/compiled_step.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>

#include "tensor/buffer_pool.h"
#include "tensor/kernels/kernels.h"
#include "tensor/ops.h"

namespace pa::tensor::fusion {

namespace ti = pa::tensor::internal;

using internal::ImplPtr;
using internal::OpKind;

// ---------------------------------------------------------------------------
// Gate + site identity + stats.

namespace {

bool EnvEnabled() {
  static const bool on = [] {
    const char* v = std::getenv("PA_FUSION");
    if (v == nullptr) return true;
    return std::strcmp(v, "off") != 0 && std::strcmp(v, "0") != 0 &&
           std::strcmp(v, "false") != 0;
  }();
  return on;
}

// PA_FUSION_DEBUG=1 logs every compile bail-out to stderr — the first stop
// when a site that should replay keeps falling back.
bool DebugEnabled() {
  static const bool on = std::getenv("PA_FUSION_DEBUG") != nullptr;
  return on;
}

#define PA_FUSION_LOG(...)                             \
  do {                                                 \
    if (DebugEnabled()) {                              \
      std::fprintf(stderr, "pa-fusion: " __VA_ARGS__); \
      std::fputc('\n', stderr);                        \
    }                                                  \
  } while (0)

thread_local int t_disable_depth = 0;

std::atomic<uint64_t> g_next_site_id{1};

thread_local FusionStats t_stats;

}  // namespace

bool Enabled() { return t_disable_depth == 0 && EnvEnabled(); }

ScopedFusionDisable::ScopedFusionDisable() { ++t_disable_depth; }
ScopedFusionDisable::~ScopedFusionDisable() { --t_disable_depth; }

StepSite::StepSite()
    : id(g_next_site_id.fetch_add(1, std::memory_order_relaxed)) {}

const FusionStats& ThisThreadStats() { return t_stats; }

// ---------------------------------------------------------------------------
// Trace: the SSA value graph one recorded body produces.

namespace {

struct TVal {
  Shape shape;
  enum Kind : uint8_t { kInput, kConst, kOp } kind = kOp;
  int index = -1;  // input slot / defining op index (consts resolve by hold)
  ImplPtr hold;    // kConst: keeps the parameter impl alive in the program
};

struct TOp {
  OpKind kind = OpKind::kUnsupported;
  int a = -1, b = -1, c = -1, d = -1;  // operand value ids
  int out = -1;                        // produced value id
  float f0 = 0.0f, f1 = 0.0f;          // immediates (Scale/AddScalar/Axpby)
  int i0 = 0, i1 = 0;                  // SliceCols start/len; GateAct h/nslices
  uint8_t acts[8] = {0};               // GateAct per-slice activation codes
};

struct Trace {
  std::vector<TVal> vals;
  std::vector<TOp> ops;
  std::vector<int> outputs;    // value ids the body returned, in order
  std::vector<float> scalars;  // declared per-step floats at record time
  bool invalid = false;
};

// ---------------------------------------------------------------------------
// Recorder: receives the ops-layer hooks while a body runs.

struct Recorder {
  Trace trace;
  std::unordered_map<ti::TensorImpl*, int> val_of;

  void DeclareInput(const Tensor& t, int slot) {
    trace.vals.push_back({t.shape(), TVal::kInput, slot, nullptr});
    val_of[t.impl().get()] = static_cast<int>(trace.vals.size()) - 1;
  }

  // SSA id of an operand. Unknown impls must be non-pooled (parameters /
  // long-lived user tensors — bound as live-read constants); a pooled
  // unknown was produced by an op the recorder never saw, so the trace
  // cannot be replayed.
  int ValueOf(const ImplPtr& impl) {
    auto it = val_of.find(impl.get());
    if (it != val_of.end()) return it->second;
    if (impl->pooled) {
      trace.invalid = true;
      return -1;
    }
    trace.vals.push_back({impl->shape, TVal::kConst, -1, impl});
    const int id = static_cast<int>(trace.vals.size()) - 1;
    val_of[impl.get()] = id;
    return id;
  }

  // Registers an op result. In-place ops pass out == some operand; the new
  // id simply shadows the old one in the map (SSA).
  int Out(const ImplPtr& impl) {
    trace.vals.push_back(
        {impl->shape, TVal::kOp, static_cast<int>(trace.ops.size()), nullptr});
    const int id = static_cast<int>(trace.vals.size()) - 1;
    val_of[impl.get()] = id;
    return id;
  }
};

thread_local Recorder* t_rec = nullptr;

}  // namespace

// ---------------------------------------------------------------------------
// Ops-layer hooks.

namespace internal {

thread_local bool t_recording = false;

void RecordBinary(OpKind kind, const ImplPtr& a, const ImplPtr& b,
                  const ImplPtr& out) {
  Recorder* r = t_rec;
  if (r == nullptr || r->trace.invalid) return;
  if (!(a->shape == b->shape)) {  // replayer models no broadcasting
    r->trace.invalid = true;
    return;
  }
  TOp op;
  op.kind = kind;
  op.a = r->ValueOf(a);
  op.b = r->ValueOf(b);
  if (r->trace.invalid) return;
  op.out = r->Out(out);
  r->trace.ops.push_back(op);
}

void RecordUnary(OpKind kind, const ImplPtr& a, const ImplPtr& out) {
  Recorder* r = t_rec;
  if (r == nullptr || r->trace.invalid) return;
  if (kind == OpKind::kUnsupported) {
    r->trace.invalid = true;
    return;
  }
  TOp op;
  op.kind = kind;
  op.a = r->ValueOf(a);
  if (r->trace.invalid) return;
  op.out = r->Out(out);
  r->trace.ops.push_back(op);
}

void RecordScalarOp(OpKind kind, const ImplPtr& a, float c,
                    const ImplPtr& out) {
  Recorder* r = t_rec;
  if (r == nullptr || r->trace.invalid) return;
  TOp op;
  op.kind = kind;
  op.f0 = c;
  op.a = r->ValueOf(a);
  if (r->trace.invalid) return;
  op.out = r->Out(out);
  r->trace.ops.push_back(op);
}

void RecordMatMul(const ImplPtr& a, const ImplPtr& b, const ImplPtr& out) {
  Recorder* r = t_rec;
  if (r == nullptr || r->trace.invalid) return;
  TOp op;
  op.kind = OpKind::kMatMul;
  op.a = r->ValueOf(a);
  op.b = r->ValueOf(b);
  if (r->trace.invalid) return;
  op.out = r->Out(out);
  r->trace.ops.push_back(op);
}

void RecordSlice(const ImplPtr& a, int start, int len, const ImplPtr& out) {
  Recorder* r = t_rec;
  if (r == nullptr || r->trace.invalid) return;
  TOp op;
  op.kind = OpKind::kSliceCols;
  op.i0 = start;
  op.i1 = len;
  op.a = r->ValueOf(a);
  if (r->trace.invalid) return;
  op.out = r->Out(out);
  r->trace.ops.push_back(op);
}

void RecordLerp(const ImplPtr& mask, const ImplPtr& a, const ImplPtr& b,
                const ImplPtr& out) {
  Recorder* r = t_rec;
  if (r == nullptr || r->trace.invalid) return;
  TOp op;
  op.kind = OpKind::kLerp;
  op.a = r->ValueOf(a);
  op.b = r->ValueOf(b);
  op.c = r->ValueOf(mask);
  if (r->trace.invalid) return;
  op.out = r->Out(out);
  r->trace.ops.push_back(op);
}

void RecordAxpby(const ImplPtr& a, float alpha, const ImplPtr& b, float beta,
                 const ImplPtr& out) {
  Recorder* r = t_rec;
  if (r == nullptr || r->trace.invalid) return;
  TOp op;
  op.kind = OpKind::kAxpby;
  op.f0 = alpha;
  op.f1 = beta;
  op.a = r->ValueOf(a);
  op.b = r->ValueOf(b);
  if (r->trace.invalid) return;
  op.out = r->Out(out);
  r->trace.ops.push_back(op);
}

void RecordUnsupported() {
  Recorder* r = t_rec;
  if (r != nullptr) r->trace.invalid = true;
}

void NoteFreshResult(ti::TensorImpl* node) {
  Recorder* r = t_rec;
  if (r != nullptr) r->val_of.erase(node);
}

}  // namespace internal

// ---------------------------------------------------------------------------
// Program: the compiled, replayable form of a trace.

namespace {

struct BufRef {
  enum Kind : uint8_t { kNone, kInput, kConst, kFolded, kArena, kOutput };
  Kind kind = kNone;
  int idx = 0;
  int64_t off = 0;
};

struct Instr {
  OpKind kind = OpKind::kUnsupported;
  BufRef a, b, c, d, out;
  int64_t n = 0;            // elementwise element count
  int mm_k = 0, mm_n = 0;   // MatMul inner/output dims (m is always 1)
  float f0 = 0.0f, f1 = 0.0f;
  uint8_t acts[8] = {0};
  int h = 0, nslices = 0;
};

struct ProgBind {
  int instr = 0;
  int field = 0;  // 0 -> f0, 1 -> f1
  int scalar = 0;
};

struct Program {
  std::vector<Instr> instrs;
  std::vector<ImplPtr> consts;             // live-read parameter bindings
  std::vector<std::vector<float>> folded;  // compile-time folded constants
  std::vector<std::vector<float>> arena;   // persistent interior temporaries
  std::vector<Shape> out_shapes;
  std::vector<ProgBind> binds;
};

// ---------------------------------------------------------------------------
// Structural comparison + scalar discrimination between the two recorded
// traces. Immediates are excluded from the structural check; they are
// classified afterwards as genuine constants (equal in both traces) or
// per-step scalars (tracking exactly one declared scalar in both).

bool SameStructure(const Trace& x, const Trace& y) {
  if (x.vals.size() != y.vals.size() || x.ops.size() != y.ops.size() ||
      x.outputs != y.outputs || x.scalars.size() != y.scalars.size()) {
    return false;
  }
  for (size_t i = 0; i < x.vals.size(); ++i) {
    const TVal& a = x.vals[i];
    const TVal& b = y.vals[i];
    if (!(a.shape == b.shape) || a.kind != b.kind || a.index != b.index ||
        a.hold.get() != b.hold.get()) {
      return false;
    }
  }
  for (size_t i = 0; i < x.ops.size(); ++i) {
    const TOp& a = x.ops[i];
    const TOp& b = y.ops[i];
    if (a.kind != b.kind || a.a != b.a || a.b != b.b || a.c != b.c ||
        a.d != b.d || a.out != b.out || a.i0 != b.i0 || a.i1 != b.i1) {
      return false;
    }
  }
  return true;
}

struct ScalarBind {
  int op = 0;
  int field = 0;
  int scalar = 0;
};

enum class BindStatus { kOk, kRetry, kFail };

// Classifies every float immediate. Requires every declared scalar to have
// changed between the traces (else a constant that coincidentally equals a
// scalar value is indistinguishable -> retry with a later step).
BindStatus BindScalars(const Trace& t1, const Trace& t2,
                       std::vector<ScalarBind>* binds) {
  for (size_t k = 0; k < t1.scalars.size(); ++k) {
    if (t1.scalars[k] == t2.scalars[k]) return BindStatus::kRetry;
  }
  for (size_t i = 0; i < t1.ops.size(); ++i) {
    const float v1[2] = {t1.ops[i].f0, t1.ops[i].f1};
    const float v2[2] = {t2.ops[i].f0, t2.ops[i].f1};
    for (int f = 0; f < 2; ++f) {
      if (v1[f] == v2[f]) continue;  // unchanged -> genuine constant
      int match = -1;
      for (size_t k = 0; k < t1.scalars.size(); ++k) {
        if (t1.scalars[k] == v1[f] && t2.scalars[k] == v2[f]) {
          if (match >= 0) return BindStatus::kFail;  // ambiguous
          match = static_cast<int>(k);
        }
      }
      if (match < 0) return BindStatus::kFail;  // untracked variation
      binds->push_back({static_cast<int>(i), f, match});
    }
  }
  return BindStatus::kOk;
}

// ---------------------------------------------------------------------------
// Pattern rewrites. All passes operate on a working copy of the trace:
// ops are replaced in place or marked dead (indices stay stable so the
// scalar binds keep resolving), and slice results become views — (base
// value, column offset) aliases that lower to pointer arithmetic.

struct Rewriter {
  std::vector<TVal> vals;
  std::vector<TOp> ops;
  std::vector<char> dead;
  std::vector<int> outputs;
  std::vector<ScalarBind> binds;

  // Per-value: defining op (kOp vals), view alias, folded-constant slot.
  std::vector<int> def;
  struct View {
    int base = -1;
    int64_t off = 0;
  };
  std::vector<View> view;
  std::vector<int> folded;  // -1 or slot in folded_data
  std::vector<std::vector<float>> folded_data;

  std::vector<int> uses;      // operand references from alive ops + outputs
  std::vector<char> is_out;

  explicit Rewriter(const Trace& t)
      : vals(t.vals),
        ops(t.ops),
        dead(t.ops.size(), 0),
        outputs(t.outputs) {
    def.assign(vals.size(), -1);
    for (size_t v = 0; v < vals.size(); ++v) {
      if (vals[v].kind == TVal::kOp) def[v] = vals[v].index;
    }
    view.assign(vals.size(), View{});
    folded.assign(vals.size(), -1);
    is_out.assign(vals.size(), 0);
    for (int v : outputs) is_out[v] = 1;
  }

  void RecountUses() {
    uses.assign(vals.size(), 0);
    for (size_t i = 0; i < ops.size(); ++i) {
      if (dead[i]) continue;
      for (int v : {ops[i].a, ops[i].b, ops[i].c, ops[i].d}) {
        if (v >= 0) ++uses[v];
      }
    }
    for (int v : outputs) ++uses[v];
  }

  bool IsViewBase(int v) const {
    for (size_t u = 0; u < vals.size(); ++u) {
      if (view[u].base == v) return true;
    }
    return false;
  }

  // True when `v` is produced by alive op `kind` that nothing else reads.
  bool SoleUseProducer(int v, OpKind kind, int* op_idx) const {
    if (v < 0 || vals[v].kind != TVal::kOp || is_out[v]) return false;
    if (view[v].base >= 0) return false;
    const int d = def[v];
    if (d < 0 || dead[d] || ops[d].kind != kind || ops[d].out != v)
      return false;
    if (uses[v] != 1) return false;
    *op_idx = d;
    return true;
  }

  bool FieldBound(int op, int field) const {
    for (const ScalarBind& b : binds) {
      if (b.op == op && b.field == field) return true;
    }
    return false;
  }

  // --- Pass: column slices of single-row values become views.
  void SlicesToViews() {
    for (size_t i = 0; i < ops.size(); ++i) {
      if (dead[i] || ops[i].kind != OpKind::kSliceCols) continue;
      const int src = ops[i].a;
      if (vals[src].shape.rows != 1) continue;
      int base = src;
      int64_t off = ops[i].i0;
      if (view[src].base >= 0) {
        off += view[src].off;
        base = view[src].base;
      }
      if (folded[base] >= 0) continue;  // folded below instead
      view[ops[i].out] = {base, off};
      dead[i] = 1;
    }
    RecountUses();
  }

  // --- Pass: slices whose source is a bound constant fold at compile time
  // (e.g. GRU's strided weight-column slice becomes one dense buffer).
  void FoldConstSlices() {
    for (size_t i = 0; i < ops.size(); ++i) {
      if (dead[i] || ops[i].kind != OpKind::kSliceCols) continue;
      const int src = ops[i].a;
      const float* sdata = nullptr;
      if (vals[src].kind == TVal::kConst) {
        sdata = vals[src].hold->data.data();
      } else if (folded[src] >= 0) {
        sdata = folded_data[folded[src]].data();
      } else {
        continue;
      }
      const int m = vals[src].shape.rows, n = vals[src].shape.cols;
      const int start = ops[i].i0, len = ops[i].i1;
      std::vector<float> out(static_cast<size_t>(m) * len);
      for (int r = 0; r < m; ++r) {
        const float* srow = sdata + static_cast<int64_t>(r) * n + start;
        std::copy(srow, srow + len, out.begin() + static_cast<int64_t>(r) * len);
      }
      folded_data.push_back(std::move(out));
      folded[ops[i].out] = static_cast<int>(folded_data.size()) - 1;
      dead[i] = 1;
    }
    RecountUses();
  }

  // --- Pass: Add(Add(a, b), c) -> Add3 when the inner sum dies here.
  void FuseAdd3() {
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t j = 0; j < ops.size(); ++j) {
        if (dead[j] || ops[j].kind != OpKind::kAdd) continue;
        int inner;
        if (!SoleUseProducer(ops[j].a, OpKind::kAdd, &inner)) continue;
        TOp fused;
        fused.kind = OpKind::kAdd3;
        fused.a = ops[inner].a;
        fused.b = ops[inner].b;
        fused.c = ops[j].b;
        fused.out = ops[j].out;
        ops[j] = fused;
        dead[inner] = 1;
        changed = true;
        RecountUses();
      }
    }
  }

  // --- Pass: sigmoid/tanh over views that exactly tile one gates value
  // collapse into a single in-place GateAct.
  void FuseGateAct() {
    for (size_t s = 0; s < vals.size(); ++s) {
      if (vals[s].kind != TVal::kOp || vals[s].shape.rows != 1) continue;
      if (dead.size() <= static_cast<size_t>(def[s]) || def[s] < 0 ||
          dead[def[s]]) {
        continue;
      }
      if (uses[s] != 0 || is_out[s]) continue;  // only read through views
      // Collect the activation ops reading views of s.
      struct Piece {
        int64_t off;
        int len;
        int act_op;
      };
      std::vector<Piece> pieces;
      bool ok = true;
      for (size_t v = 0; v < vals.size() && ok; ++v) {
        if (view[v].base != static_cast<int>(s)) continue;
        if (uses[v] != 1 || is_out[v]) {
          ok = false;
          break;
        }
        int consumer = -1;
        for (size_t i = 0; i < ops.size(); ++i) {
          if (dead[i]) continue;
          for (int o : {ops[i].a, ops[i].b, ops[i].c, ops[i].d}) {
            if (o == static_cast<int>(v)) {
              consumer = static_cast<int>(i);
              break;
            }
          }
          if (consumer >= 0) break;
        }
        if (consumer < 0 || (ops[consumer].kind != OpKind::kSigmoid &&
                             ops[consumer].kind != OpKind::kTanh) ||
            ops[consumer].a != static_cast<int>(v) ||
            IsViewBase(ops[consumer].out)) {
          ok = false;
          break;
        }
        pieces.push_back({view[v].off, vals[v].shape.cols, consumer});
      }
      if (!ok || pieces.size() < 2 || pieces.size() > 8) continue;
      std::sort(pieces.begin(), pieces.end(),
                [](const Piece& a, const Piece& b) { return a.off < b.off; });
      const int h = pieces[0].len;
      const int nslices = static_cast<int>(pieces.size());
      if (h <= 0 || static_cast<int64_t>(h) * nslices != vals[s].shape.cols) {
        continue;
      }
      bool tiles = true;
      for (int p = 0; p < nslices; ++p) {
        if (pieces[p].len != h ||
            pieces[p].off != static_cast<int64_t>(p) * h) {
          tiles = false;
          break;
        }
      }
      if (!tiles) continue;
      // Lowest activation index hosts the fused op; the rest die and their
      // outputs become views of the fused result.
      int host = pieces[0].act_op;
      for (const Piece& p : pieces) host = std::min(host, p.act_op);
      vals.push_back({vals[s].shape, TVal::kOp, host, nullptr});
      const int g = static_cast<int>(vals.size()) - 1;
      def.push_back(host);
      view.push_back(View{});
      folded.push_back(-1);
      is_out.push_back(0);
      TOp fused;
      fused.kind = OpKind::kGateAct;
      fused.a = static_cast<int>(s);
      fused.out = g;
      fused.i0 = h;
      fused.i1 = nslices;
      for (int p = 0; p < nslices; ++p) {
        fused.acts[p] =
            ops[pieces[p].act_op].kind == OpKind::kTanh ? uint8_t{1}
                                                        : uint8_t{0};
      }
      for (const Piece& p : pieces) {
        view[ops[p.act_op].out] = {g, p.off};
        if (p.act_op != host) dead[p.act_op] = 1;
      }
      ops[host] = fused;
      RecountUses();
    }
  }

  // --- Pass: Add(Mul(OneMinus(m), b), Mul(m, a)) -> Lerp(m, a, b).
  // OneMinus is the AddScalar(Scale(m, -1), 1) idiom; every fused element
  // reproduces the unfused bits because negation is exact and FP add/mul
  // commute bitwise.
  void FuseLerp() {
    for (size_t j = 0; j < ops.size(); ++j) {
      if (dead[j] || ops[j].kind != OpKind::kAdd) continue;
      for (int swap = 0; swap < 2; ++swap) {
        const int x = swap == 0 ? ops[j].a : ops[j].b;  // OneMinus side
        const int y = swap == 0 ? ops[j].b : ops[j].a;  // mask side
        int mx, my;
        if (!SoleUseProducer(x, OpKind::kMul, &mx) ||
            !SoleUseProducer(y, OpKind::kMul, &my)) {
          continue;
        }
        int mask = -1, bb = -1;
        for (int side = 0; side < 2 && mask < 0; ++side) {
          const int om = side == 0 ? ops[mx].a : ops[mx].b;
          const int other = side == 0 ? ops[mx].b : ops[mx].a;
          int c1;
          if (!SoleUseProducer(om, OpKind::kAddScalar, &c1)) continue;
          if (ops[c1].f0 != 1.0f || FieldBound(c1, 0)) continue;
          int c2;
          if (!SoleUseProducer(ops[c1].a, OpKind::kScale, &c2)) continue;
          if (ops[c2].f0 != -1.0f || FieldBound(c2, 0)) continue;
          mask = ops[c2].a;
          bb = other;
          if (ops[my].a != mask && ops[my].b != mask) {
            mask = -1;  // the other Mul does not read the same mask
            continue;
          }
          const int aa = ops[my].a == mask ? ops[my].b : ops[my].a;
          TOp fused;
          fused.kind = OpKind::kLerp;
          fused.a = aa;
          fused.b = bb;
          fused.c = mask;
          fused.out = ops[j].out;
          dead[mx] = 1;
          dead[my] = 1;
          dead[c1] = 1;
          dead[c2] = 1;
          ops[j] = fused;
          RecountUses();
        }
        if (ops[j].kind == OpKind::kLerp) break;
      }
    }
  }

  // --- Pass: Add(Mul(f, cp), Mul(i, g)) -> CellUpdate (after FuseLerp so
  // the coupled-gate form gets the tighter rewrite first).
  void FuseCellUpdate() {
    for (size_t j = 0; j < ops.size(); ++j) {
      if (dead[j] || ops[j].kind != OpKind::kAdd) continue;
      int mx, my;
      if (!SoleUseProducer(ops[j].a, OpKind::kMul, &mx) ||
          !SoleUseProducer(ops[j].b, OpKind::kMul, &my)) {
        continue;
      }
      TOp fused;
      fused.kind = OpKind::kCellUpdate;
      fused.a = ops[mx].a;
      fused.b = ops[mx].b;
      fused.c = ops[my].a;
      fused.d = ops[my].b;
      fused.out = ops[j].out;
      dead[mx] = 1;
      dead[my] = 1;
      ops[j] = fused;
      RecountUses();
    }
  }

  // --- Pass: Add(Scale(a, alpha), Scale(b, beta)) -> Axpby; scalar binds
  // on the dying Scale immediates move to the fused op's f0/f1.
  void FuseAxpby() {
    for (size_t j = 0; j < ops.size(); ++j) {
      if (dead[j] || ops[j].kind != OpKind::kAdd) continue;
      int sx, sy;
      if (!SoleUseProducer(ops[j].a, OpKind::kScale, &sx) ||
          !SoleUseProducer(ops[j].b, OpKind::kScale, &sy)) {
        continue;
      }
      TOp fused;
      fused.kind = OpKind::kAxpby;
      fused.a = ops[sx].a;
      fused.b = ops[sy].a;
      fused.f0 = ops[sx].f0;
      fused.f1 = ops[sy].f0;
      fused.out = ops[j].out;
      for (ScalarBind& bind : binds) {
        if (bind.op == sx && bind.field == 0) {
          bind.op = static_cast<int>(j);
          bind.field = 0;
        } else if (bind.op == sy && bind.field == 0) {
          bind.op = static_cast<int>(j);
          bind.field = 1;
        }
      }
      dead[sx] = 1;
      dead[sy] = 1;
      ops[j] = fused;
      RecountUses();
    }
  }

  // --- Pass: Mul(o, Tanh(c)) -> TanhMul (either operand order; FP mul
  // commutes bitwise).
  void FuseTanhMul() {
    for (size_t j = 0; j < ops.size(); ++j) {
      if (dead[j] || ops[j].kind != OpKind::kMul) continue;
      for (int swap = 0; swap < 2; ++swap) {
        const int t = swap == 0 ? ops[j].b : ops[j].a;
        const int o = swap == 0 ? ops[j].a : ops[j].b;
        int th;
        if (!SoleUseProducer(t, OpKind::kTanh, &th)) continue;
        TOp fused;
        fused.kind = OpKind::kTanhMul;
        fused.a = o;
        fused.b = ops[th].a;
        fused.out = ops[j].out;
        dead[th] = 1;
        ops[j] = fused;
        RecountUses();
        break;
      }
    }
  }

  // --- Pass: drop alive ops whose result nothing reads. `uses` only counts
  // direct operand references, so a value read exclusively through views
  // (the GateAct result, whose activation outputs alias into it) is kept
  // alive by checking the view chains of every live value.
  void Dce() {
    bool changed = true;
    while (changed) {
      changed = false;
      std::vector<char> viewed(vals.size(), 0);
      for (size_t v = 0; v < vals.size(); ++v) {
        if (uses[v] == 0 && !is_out[v]) continue;
        for (int b = view[v].base; b >= 0; b = view[b].base) viewed[b] = 1;
      }
      for (size_t i = ops.size(); i-- > 0;) {
        if (dead[i]) continue;
        const int out = ops[i].out;
        if (uses[out] == 0 && !is_out[out] && !viewed[out]) {
          dead[i] = 1;
          changed = true;
        }
      }
      if (changed) RecountUses();
    }
  }

  void Run() {
    RecountUses();
    SlicesToViews();
    FoldConstSlices();
    FuseAdd3();
    FuseGateAct();
    FuseLerp();
    FuseCellUpdate();
    FuseAxpby();
    FuseTanhMul();
    Dce();
  }
};

// ---------------------------------------------------------------------------
// Lowering: assign every value a buffer (input / live constant / folded
// constant / arena slot / output) and emit the instruction list. The
// in-placing pass generalizes the eager rvalue rule: an elementwise
// instruction whose first operand is a whole arena slot at its last
// effective use writes over that slot instead of taking a new one.

bool ElementwiseKind(OpKind k) {
  switch (k) {
    case OpKind::kAdd:
    case OpKind::kSub:
    case OpKind::kMul:
    case OpKind::kScale:
    case OpKind::kAddScalar:
    case OpKind::kSigmoid:
    case OpKind::kTanh:
    case OpKind::kLerp:
    case OpKind::kAxpby:
    case OpKind::kAdd3:
    case OpKind::kCellUpdate:
    case OpKind::kTanhMul:
      return true;
    default:
      return false;
  }
}

bool Lower(Rewriter& rw, Program* prog, std::vector<int>* op_to_instr) {
  const size_t nvals = rw.vals.size();

  // Ultimate (non-view) base of each value.
  std::vector<int> base(nvals);
  std::vector<int64_t> base_off(nvals, 0);
  for (size_t v = 0; v < nvals; ++v) {
    int b = static_cast<int>(v);
    int64_t off = 0;
    while (rw.view[b].base >= 0) {
      off += rw.view[b].off;
      b = rw.view[b].base;
    }
    base[v] = b;
    base_off[v] = off;
  }

  // Effective last use per base value (views charge their base); outputs
  // are pinned alive.
  std::vector<int> last_use(nvals, -1);
  for (size_t i = 0; i < rw.ops.size(); ++i) {
    if (rw.dead[i]) continue;
    for (int v : {rw.ops[i].a, rw.ops[i].b, rw.ops[i].c, rw.ops[i].d}) {
      if (v >= 0) last_use[base[v]] = static_cast<int>(i);
    }
  }
  for (int v : rw.outputs) {
    last_use[base[v]] = std::numeric_limits<int>::max();
  }

  // Duplicate outputs cannot share one fresh buffer; bail out.
  {
    std::vector<int> sorted = rw.outputs;
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
      PA_FUSION_LOG("lower: duplicate output values");
      return false;
    }
  }

  std::vector<BufRef> loc(nvals);
  std::unordered_map<ti::TensorImpl*, int> const_slot;
  std::vector<int> out_slot(nvals, -1);
  for (size_t i = 0; i < rw.outputs.size(); ++i) {
    out_slot[rw.outputs[i]] = static_cast<int>(i);
    prog->out_shapes.push_back(rw.vals[rw.outputs[i]].shape);
  }

  auto resolve_source = [&](int v) -> bool {
    const int b = base[v];
    BufRef r;
    if (rw.folded[b] >= 0) {
      r = {BufRef::kFolded, rw.folded[b], base_off[v]};
    } else if (rw.vals[b].kind == TVal::kInput) {
      r = {BufRef::kInput, rw.vals[b].index, base_off[v]};
    } else if (rw.vals[b].kind == TVal::kConst) {
      auto it = const_slot.find(rw.vals[b].hold.get());
      int slot;
      if (it != const_slot.end()) {
        slot = it->second;
      } else {
        slot = static_cast<int>(prog->consts.size());
        prog->consts.push_back(rw.vals[b].hold);
        const_slot[rw.vals[b].hold.get()] = slot;
      }
      r = {BufRef::kConst, slot, base_off[v]};
    } else if (loc[b].kind != BufRef::kNone) {
      r = loc[b];
      r.off += base_off[v];
    } else {
      PA_FUSION_LOG("lower: val %d read before definition", v);
      return false;  // read before definition — trace is inconsistent
    }
    loc[v] = r;
    return true;
  };

  std::vector<int64_t> arena_numel;
  op_to_instr->assign(rw.ops.size(), -1);

  for (size_t i = 0; i < rw.ops.size(); ++i) {
    if (rw.dead[i]) continue;
    const TOp& op = rw.ops[i];
    const TVal& ov = rw.vals[op.out];

    // Validate and resolve operands.
    for (int v : {op.a, op.b, op.c, op.d}) {
      if (v >= 0 && !resolve_source(v)) return false;
    }
    if (op.kind == OpKind::kMatMul) {
      const Shape& as = rw.vals[op.a].shape;
      const Shape& bs = rw.vals[op.b].shape;
      if (as.rows != 1 || as.cols != bs.rows ||
          !(ov.shape == Shape{1, bs.cols})) {
        PA_FUSION_LOG("lower: matmul op %zu shape mismatch", i);
        return false;
      }
    } else if (ElementwiseKind(op.kind) || op.kind == OpKind::kGateAct) {
      if (ov.shape.rows != 1) {
        PA_FUSION_LOG("lower: elementwise op %zu has %d rows", i,
                      ov.shape.rows);
        return false;
      }
      for (int v : {op.a, op.b, op.c, op.d}) {
        if (v >= 0 && !(rw.vals[v].shape == ov.shape)) {
          PA_FUSION_LOG("lower: op %zu operand %d shape mismatch", i, v);
          return false;
        }
      }
    } else {
      PA_FUSION_LOG("lower: op %zu kind %d not lowerable", i,
                    static_cast<int>(op.kind));
      return false;  // surviving SliceCols / unknown kind
    }

    // Output placement.
    BufRef outref;
    if (out_slot[op.out] >= 0) {
      outref = {BufRef::kOutput, out_slot[op.out], 0};
    } else {
      outref.kind = BufRef::kNone;
      if (ElementwiseKind(op.kind) || op.kind == OpKind::kGateAct) {
        // In-placing: overwrite the first operand's whole arena slot when
        // this is its last effective read anywhere (views included).
        const int av = op.a;
        const BufRef& ar = loc[av];
        if (ar.kind == BufRef::kArena && ar.off == 0 &&
            arena_numel[ar.idx] == ov.shape.numel() &&
            base[av] == av && last_use[av] == static_cast<int>(i)) {
          outref = ar;
        }
      }
      if (outref.kind == BufRef::kNone) {
        arena_numel.push_back(ov.shape.numel());
        outref = {BufRef::kArena,
                  static_cast<int>(arena_numel.size()) - 1, 0};
      }
    }
    loc[op.out] = outref;

    Instr ins;
    ins.kind = op.kind;
    ins.a = op.a >= 0 ? loc[op.a] : BufRef{};
    ins.b = op.b >= 0 ? loc[op.b] : BufRef{};
    ins.c = op.c >= 0 ? loc[op.c] : BufRef{};
    ins.d = op.d >= 0 ? loc[op.d] : BufRef{};
    ins.out = outref;
    ins.n = ov.shape.numel();
    ins.f0 = op.f0;
    ins.f1 = op.f1;
    if (op.kind == OpKind::kMatMul) {
      ins.mm_k = rw.vals[op.a].shape.cols;
      ins.mm_n = rw.vals[op.b].shape.cols;
    }
    if (op.kind == OpKind::kGateAct) {
      ins.h = op.i0;
      ins.nslices = op.i1;
      std::copy(std::begin(op.acts), std::end(op.acts), std::begin(ins.acts));
    }
    (*op_to_instr)[i] = static_cast<int>(prog->instrs.size());
    prog->instrs.push_back(ins);
  }

  // Every output must have been produced by an emitted instruction.
  for (int v : rw.outputs) {
    if (loc[v].kind != BufRef::kOutput) {
      PA_FUSION_LOG("lower: output val %d not produced into output slot", v);
      return false;
    }
  }

  prog->folded = std::move(rw.folded_data);
  prog->arena.reserve(arena_numel.size());
  for (int64_t n : arena_numel) {
    prog->arena.emplace_back(static_cast<size_t>(n));
  }
  return true;
}

enum class CompileStatus { kOk, kRetry, kFail };

struct CompileOutcome {
  CompileStatus status = CompileStatus::kFail;
  std::unique_ptr<Program> program;
};

CompileOutcome Compile(const Trace& t1, const Trace& t2) {
  CompileOutcome out;
  if (!SameStructure(t1, t2)) {
    PA_FUSION_LOG("compile: traces differ structurally");
    out.status = CompileStatus::kFail;
    return out;
  }
  std::vector<ScalarBind> binds;
  switch (BindScalars(t1, t2, &binds)) {
    case BindStatus::kRetry:
      out.status = CompileStatus::kRetry;
      return out;
    case BindStatus::kFail:
      PA_FUSION_LOG("compile: scalar binding ambiguous or untracked");
      out.status = CompileStatus::kFail;
      return out;
    case BindStatus::kOk:
      break;
  }
  Rewriter rw(t1);
  rw.binds = std::move(binds);
  rw.Run();
  auto prog = std::make_unique<Program>();
  std::vector<int> op_to_instr;
  if (!Lower(rw, prog.get(), &op_to_instr)) {
    out.status = CompileStatus::kFail;
    return out;
  }
  for (const ScalarBind& b : rw.binds) {
    if (b.op < 0 || op_to_instr[b.op] < 0) {  // bound immediate died
      PA_FUSION_LOG("compile: bound scalar's op was rewritten away");
      out.status = CompileStatus::kFail;
      return out;
    }
    prog->binds.push_back({op_to_instr[b.op], b.field, b.scalar});
  }
  out.status = CompileStatus::kOk;
  out.program = std::move(prog);
  return out;
}

// ---------------------------------------------------------------------------
// Replay.

std::vector<Tensor> Replay(Program& p, std::initializer_list<Tensor> inputs,
                           std::initializer_list<float> scalars) {
  for (const ProgBind& b : p.binds) {
    Instr& ins = p.instrs[b.instr];
    (b.field == 0 ? ins.f0 : ins.f1) = scalars.begin()[b.scalar];
  }
  std::vector<std::vector<float>> outs;
  outs.reserve(p.out_shapes.size());
  for (const Shape& s : p.out_shapes) {
    outs.push_back(
        ti::ThisThreadPool().Acquire(static_cast<size_t>(s.numel())));
  }
  auto ptr = [&](const BufRef& r) -> float* {
    switch (r.kind) {
      case BufRef::kInput:
        return const_cast<float*>(inputs.begin()[r.idx].data()) + r.off;
      case BufRef::kConst:
        return p.consts[r.idx]->data.data() + r.off;
      case BufRef::kFolded:
        return p.folded[r.idx].data() + r.off;
      case BufRef::kArena:
        return p.arena[r.idx].data() + r.off;
      case BufRef::kOutput:
        return outs[r.idx].data() + r.off;
      case BufRef::kNone:
        break;
    }
    return nullptr;
  };
  const kernels::KernelTable& kt = kernels::Active();
  for (const Instr& ins : p.instrs) {
    float* out = ptr(ins.out);
    const float* a = ptr(ins.a);
    const float* b = ptr(ins.b);
    const float* c = ptr(ins.c);
    const float* d = ptr(ins.d);
    switch (ins.kind) {
      case OpKind::kAdd:
        kt.add(a, b, out, ins.n);
        break;
      case OpKind::kSub:
        kt.sub(a, b, out, ins.n);
        break;
      case OpKind::kMul:
        kt.mul(a, b, out, ins.n);
        break;
      case OpKind::kScale:
        kt.mulc(a, ins.f0, out, ins.n);
        break;
      case OpKind::kAddScalar:
        kt.addc(a, ins.f0, out, ins.n);
        break;
      case OpKind::kSigmoid:
        kt.sigmoid(a, out, ins.n);
        break;
      case OpKind::kTanh:
        kt.tanh(a, out, ins.n);
        break;
      case OpKind::kMatMul:
        std::memset(out, 0, sizeof(float) * ins.mm_n);
        kt.matmul_block(a, b, out, ins.mm_k, ins.mm_n, 0, 1, 0, ins.mm_n);
        break;
      case OpKind::kLerp:
        kt.lerp(c, a, b, out, ins.n);
        break;
      case OpKind::kAxpby:
        kt.axpby(a, ins.f0, b, ins.f1, out, ins.n);
        break;
      case OpKind::kAdd3:
        kt.add3(a, b, c, out, ins.n);
        break;
      case OpKind::kCellUpdate:
        kt.cell_update(a, b, c, d, out, ins.n);
        break;
      case OpKind::kTanhMul:
        kt.tanh_mul(a, b, out, ins.n);
        break;
      case OpKind::kGateAct:
        kt.gate_act(a, out, 1, ins.h, ins.acts, ins.nslices);
        break;
      default:
        break;  // unreachable: Lower rejects everything else
    }
  }
  std::vector<Tensor> result;
  result.reserve(outs.size());
  for (size_t i = 0; i < outs.size(); ++i) {
    result.push_back(
        detail::MakeInferencePooled(p.out_shapes[i], std::move(outs[i])));
  }
  return result;
}

// ---------------------------------------------------------------------------
// Per-thread site cache.

struct SiteState {
  int attempts = 0;
  bool failed = false;
  std::unique_ptr<Trace> pending;
  std::unique_ptr<Program> program;
};

constexpr int kMaxRecordAttempts = 16;
constexpr size_t kMaxCacheEntries = 256;

using SiteCache = std::unordered_map<std::string, SiteState>;

SiteCache& Cache() {
  static thread_local SiteCache cache;
  return cache;
}

void AppendRaw(std::string* key, const void* p, size_t n) {
  key->append(reinterpret_cast<const char*>(p), n);
}

std::string MakeKey(uint64_t site, uint32_t variant,
                    std::initializer_list<Tensor> inputs, size_t nscalars) {
  std::string key;
  key.reserve(16 + inputs.size() * 8);
  AppendRaw(&key, &site, sizeof(site));
  AppendRaw(&key, &variant, sizeof(variant));
  const uint32_t ns = static_cast<uint32_t>(nscalars);
  AppendRaw(&key, &ns, sizeof(ns));
  for (const Tensor& t : inputs) {
    const int32_t dims[2] = {t.rows(), t.cols()};
    AppendRaw(&key, dims, sizeof(dims));
  }
  return key;
}

}  // namespace

std::vector<Tensor> RunStep(const StepSite& site, uint32_t variant,
                            std::initializer_list<Tensor> inputs,
                            std::initializer_list<float> scalars,
                            const std::function<std::vector<Tensor>()>& body) {
  if (!ti::InferenceModeActive() || !Enabled() || internal::t_recording) {
    ++t_stats.fallback;
    return body();
  }
  for (const Tensor& t : inputs) {
    if (!t.defined() || t.rows() != 1) {
      ++t_stats.fallback;
      return body();
    }
  }
  SiteCache& cache = Cache();
  std::string key = MakeKey(site.id, variant, inputs, scalars.size());
  auto it = cache.find(key);
  if (it == cache.end()) {
    // Bounded cache: a full reset on overflow keeps eviction trivial and
    // thread-local; sites that survive a model hot-swap just recompile.
    if (cache.size() >= kMaxCacheEntries) cache.clear();
    it = cache.emplace(std::move(key), SiteState{}).first;
  }
  SiteState& ss = it->second;
  if (ss.program != nullptr) {
    ++t_stats.replayed;
    return Replay(*ss.program, inputs, scalars);
  }
  if (ss.failed || ss.attempts >= kMaxRecordAttempts) {
    ++t_stats.fallback;
    return body();
  }
  ++ss.attempts;

  Recorder rec;
  {
    int slot = 0;
    for (const Tensor& t : inputs) rec.DeclareInput(t, slot++);
  }
  rec.trace.scalars.assign(scalars.begin(), scalars.end());
  t_rec = &rec;
  internal::t_recording = true;
  std::vector<Tensor> result = body();
  internal::t_recording = false;
  t_rec = nullptr;
  ++t_stats.recorded;

  for (const Tensor& t : result) {
    if (!t.defined()) {
      rec.trace.invalid = true;
      break;
    }
    auto vit = rec.val_of.find(t.impl().get());
    if (vit == rec.val_of.end() ||
        rec.trace.vals[vit->second].kind != TVal::kOp) {
      rec.trace.invalid = true;
      break;
    }
    rec.trace.outputs.push_back(vit->second);
  }

  if (rec.trace.invalid) {
    PA_FUSION_LOG("record: site %llu trace invalid (unsupported op, pooled "
                  "foreign value, or non-op output)",
                  static_cast<unsigned long long>(site.id));
    ss.failed = true;
    ss.pending.reset();
    return result;
  }
  if (ss.pending == nullptr) {
    ss.pending = std::make_unique<Trace>(std::move(rec.trace));
    return result;
  }
  CompileOutcome oc = Compile(*ss.pending, rec.trace);
  switch (oc.status) {
    case CompileStatus::kOk:
      ss.program = std::move(oc.program);
      ss.pending.reset();
      ++t_stats.compiled;
      break;
    case CompileStatus::kRetry:
      break;  // scalars not yet discriminated; the attempts cap bounds this
    case CompileStatus::kFail:
      ss.failed = true;
      ss.pending.reset();
      break;
  }
  return result;
}

}  // namespace pa::tensor::fusion
