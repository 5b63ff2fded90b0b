#ifndef PA_TENSOR_KERNELS_KERNELS_H_
#define PA_TENSOR_KERNELS_KERNELS_H_

#include <cstdint>

namespace pa::tensor::kernels {

/// Table of the elementwise / row-reduction / GEMM inner kernels behind
/// every tensor op hot loop, in the spirit of THTensor's generic/simd
/// split: the same kernel source is compiled once as the scalar reference
/// and once per SIMD target (plain auto-vectorized baseline, and AVX2 and
/// AVX-512 translation units on x86-64), and one table is selected at
/// startup by `Active()`.
///
/// Contracts shared by every entry:
///  * Buffers are dense row-major float32. `n` is an element count (or the
///    column count for the row reductions).
///  * For the elementwise entries, `out` may alias `a` or `b` *exactly*
///    (same base pointer) — every element is read before the same index is
///    written. Partial overlap is not allowed.
///  * The row reductions (`softmax`, `log_softmax`) allow `out` to alias
///    `a` exactly, and treat `n <= 0` as a no-op: this is the shared
///    empty-row guard — callers never read `row[0]` of a zero-width row.
///  * `matmul_block` and `matmul_grad_b` require their output disjoint
///    from the inputs.
///
/// Bit-identity contract (asserted by tests/tensor_kernels_test.cc):
///  * add/sub/mul/addc/subc/mulc/relu/square/matmul_block/matmul_grad_b
///    are bit-identical across all tables: the
///    per-element arithmetic is the same source compiled without FMA
///    contraction, so lane width never changes a result.
///  * sigmoid/tanh/exp/softmax/log_softmax route through expf. The scalar
///    table keeps libm `std::exp` (bit-identical to the pre-SIMD engine);
///    the SIMD tables substitute a branchless polynomial exp (see
///    `kernel_impl.inc`) with ~2 ulp relative error against libm, so these
///    entries carry a small documented tolerance vs. the scalar table while
///    remaining bit-identical *between* the SIMD tables.
///  * `log` is libm in every table (cold op, never vectorized).
struct KernelTable {
  const char* name;  // "scalar" | "generic" | "avx2" | "avx512"

  // Elementwise binary (vector-vector) and scalar-broadcast forms.
  void (*add)(const float* a, const float* b, float* out, int64_t n);
  void (*sub)(const float* a, const float* b, float* out, int64_t n);
  void (*mul)(const float* a, const float* b, float* out, int64_t n);
  void (*addc)(const float* a, float c, float* out, int64_t n);
  void (*subc)(const float* a, float c, float* out, int64_t n);
  void (*mulc)(const float* a, float c, float* out, int64_t n);

  // Elementwise unary.
  void (*sigmoid)(const float* a, float* out, int64_t n);
  void (*tanh)(const float* a, float* out, int64_t n);
  void (*relu)(const float* a, float* out, int64_t n);
  void (*exp)(const float* a, float* out, int64_t n);
  void (*log)(const float* a, float* out, int64_t n);
  void (*square)(const float* a, float* out, int64_t n);

  // Row reductions over an [m, n] matrix (n == 0 rows are a no-op).
  void (*softmax)(const float* a, float* out, int m, int n);
  void (*log_softmax)(const float* a, float* out, int m, int n);

  // GEMM tile: out[i, j] += sum_p a[i, p] * b[p, j] for rows [row_lo,
  // row_hi) and columns [col_lo, col_hi) of A (rows x k) * B (k x n), each
  // element an ascending-p accumulation with an exact-zero skip on a[i, p]
  // — the semantics the tensor engine has always had, so tiling and lane
  // width never change a bit.
  void (*matmul_block)(const float* a, const float* b, float* out, int k,
                       int n, int row_lo, int row_hi, int col_lo, int col_hi);

  // dB half of MatMul's backward for Y = A B, A [m, k], B [k, n], dY
  // [m, n]: db[p, j] += a[i, p] * dy[i, j] in ascending i, skipping every i
  // where a[i, p] is exactly zero — the exact sequence of the engine's
  // original closure loop. (The dA half is `matmul_block` over a transposed
  // B; see MatMul in ops.cc.)
  void (*matmul_grad_b)(const float* a, const float* dy, float* db, int m,
                        int k, int n);

  // --- Fused single-pass entries for the recurrent-cell hot chains. Each
  // one computes, per element, the *exact* FP sequence of the unfused op
  // composition it replaces (the equivalences rest on bitwise-exact
  // identities: FP add/mul are commutative bitwise, negation is exact, so
  // e.g. `(m * -1) + 1 == 1 - m` and `a + b == b + a` bit-for-bit). The
  // elementwise aliasing contract is unchanged: `out` may alias any input
  // *exactly*. add3/lerp/axpby/cell_update are bit-identical across all
  // tables; tanh_mul and gate_act route through expf and carry the same
  // scalar-vs-SIMD tolerance as sigmoid/tanh.

  // out = (a + b) + c — the `Add(Add(xW, hW), bias)` pre-activation chain.
  void (*add3)(const float* a, const float* b, const float* c, float* out,
               int64_t n);
  // out = a*mask + b*(1 - mask) — the zoneout blend
  // `Add(Mul(a, mask), Mul(b, OneMinus(mask)))` and the coupled-gate /
  // GRU-style convex state updates.
  void (*lerp)(const float* mask, const float* a, const float* b, float* out,
               int64_t n);
  // out = a*alpha + b*beta — the expected-zoneout blend
  // `Add(Scale(a, alpha), Scale(b, beta))`.
  void (*axpby)(const float* a, float alpha, const float* b, float beta,
                float* out, int64_t n);
  // out = f*c_prev + i*g — the LSTM cell update
  // `Add(Mul(f, c_prev), Mul(i, g))`.
  void (*cell_update)(const float* f, const float* c_prev, const float* i,
                      const float* g, float* out, int64_t n);
  // out = o * tanh(c) — the hidden-state tail `Mul(o, Tanh(c))`, with the
  // same one-expf FastTanh formula as the `tanh` entry.
  void (*tanh_mul)(const float* o, const float* c, float* out, int64_t n);
  // Per-slice activations over an [m, nslices*h] gates matrix read in
  // place: acts[s] == 0 applies sigmoid, == 1 applies tanh to columns
  // [s*h, (s+1)*h) of every row. Replaces the SliceCols-copy-then-activate
  // chain; `out` may alias `gates` exactly.
  void (*gate_act)(const float* gates, float* out, int m, int h,
                   const uint8_t* acts, int nslices);
};

/// The table the process dispatches through: a test/bench override if one
/// is installed, else the PA_SIMD-resolved choice (computed once).
///   PA_SIMD=scalar   scalar reference table (pre-SIMD bit-exact engine)
///   PA_SIMD=auto     best SIMD table the CPU supports (default)
/// `generic` and `avx2` are also accepted for targeted debugging; an
/// unknown value aborts loudly like any other bad configuration.
const KernelTable& Active();

/// Individual tables, for the equivalence tests and the bench's
/// scalar-vs-SIMD arms.
const KernelTable& ScalarTable();
const KernelTable& GenericTable();
/// AVX2 table, or null when not compiled in or the CPU lacks AVX2.
const KernelTable* Avx2Table();
/// AVX-512 table, or null when not compiled in or the CPU lacks any of
/// AVX-512F/VL/BW/DQ.
const KernelTable* Avx512Table();
/// The table `PA_SIMD=auto` resolves to on this machine.
const KernelTable& BestSimdTable();

/// Test/bench hook: while set, `Active()` returns `table` on every thread.
/// Pass nullptr to restore the PA_SIMD-resolved choice. Not for production
/// code paths; installers must not race in-flight forwards.
void SetDispatchOverride(const KernelTable* table);

#if defined(__x86_64__) || defined(__i386__)
/// Implementation details of the dispatch (defined in kernels_avx2.cc and
/// kernels_avx512.cc): the raw tables, ungated. Executing their kernels on
/// a CPU without the ISA is an illegal instruction — go through
/// Avx2Table() / Avx512Table() instead.
const KernelTable& Avx2TableUnchecked();
const KernelTable& Avx512TableUnchecked();
#endif

}  // namespace pa::tensor::kernels

#endif  // PA_TENSOR_KERNELS_KERNELS_H_
