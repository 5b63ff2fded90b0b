// Kernel-equivalence suite for the dispatched SIMD kernel layer
// (src/tensor/kernels/): every dispatch variant is run over edge-case
// inputs — NaN, +/-inf, -0, denormals, and lengths that are not a multiple
// of any vector width — and held to the contract documented in kernels.h:
//
//   * add/sub/mul/addc/subc/mulc/relu/square/matmul_block/matmul_grad_b
//     are BIT-IDENTICAL across all tables (memcmp, NaN bits included).
//   * sigmoid/tanh/exp/softmax/log_softmax: SIMD tables are bit-identical
//     to each other, and within a small documented tolerance of the scalar
//     (libm) table; edge semantics (NaN propagation, saturation) match.
//
// The suite runs under whatever PA_SIMD the harness sets, but tests tables
// explicitly via ScalarTable()/GenericTable()/Avx2Table()/Avx512Table(), so
// scripts/tier1.sh running it under several PA_SIMD values exercises the
// ops-layer wiring each way while the table-vs-table assertions stay the same.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/kernels/kernels.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace pa::tensor::kernels {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
constexpr float kDenorm = std::numeric_limits<float>::denorm_min();

// Every table compiled into this binary that the host can run.
std::vector<const KernelTable*> AllTables() {
  std::vector<const KernelTable*> tables = {&ScalarTable(), &GenericTable()};
  if (const KernelTable* avx2 = Avx2Table()) tables.push_back(avx2);
  if (const KernelTable* avx512 = Avx512Table()) tables.push_back(avx512);
  return tables;
}

std::vector<const KernelTable*> SimdTables() {
  std::vector<const KernelTable*> tables = {&GenericTable()};
  if (const KernelTable* avx2 = Avx2Table()) tables.push_back(avx2);
  if (const KernelTable* avx512 = Avx512Table()) tables.push_back(avx512);
  return tables;
}

// Edge-heavy input of length n: special values up front, then a
// deterministic pseudo-random spread covering sign, magnitude and fractions.
std::vector<float> EdgeInput(int64_t n, uint32_t salt = 0) {
  const float specials[] = {0.0f,    -0.0f,  1.0f,     -1.0f,   kInf,
                            -kInf,   kNan,   kDenorm,  -kDenorm, 88.5f,
                            -88.5f,  1e-30f, -1e-30f,  3.5f,    -2.25f};
  std::vector<float> v(static_cast<size_t>(n));
  uint32_t state = 0x9e3779b9u + salt;
  for (int64_t i = 0; i < n; ++i) {
    if (i < static_cast<int64_t>(sizeof(specials) / sizeof(specials[0]))) {
      v[static_cast<size_t>(i)] = specials[i];
      continue;
    }
    state = state * 1664525u + 1013904223u;
    const float u = static_cast<float>(state >> 8) /
                    static_cast<float>(1u << 24);  // [0, 1)
    v[static_cast<size_t>(i)] = (u - 0.5f) * 20.0f;
  }
  return v;
}

// Finite-only variant (for log / matmul accumulation checks).
std::vector<float> FiniteInput(int64_t n, uint32_t salt = 0) {
  std::vector<float> v = EdgeInput(n, salt);
  for (float& x : v) {
    if (!std::isfinite(x)) x = 0.75f;
  }
  return v;
}

// Lengths straddling the 4/8/16-lane widths plus their remainders.
const int64_t kLengths[] = {1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 100};

void ExpectBitIdentical(const std::vector<float>& a,
                        const std::vector<float>& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)))
      << what << ": outputs differ in bits";
}

void ExpectClose(const std::vector<float>& ref, const std::vector<float>& got,
                 float rel_tol, const std::string& what) {
  ASSERT_EQ(ref.size(), got.size()) << what;
  for (size_t i = 0; i < ref.size(); ++i) {
    const float r = ref[i], g = got[i];
    if (std::isnan(r)) {
      EXPECT_TRUE(std::isnan(g)) << what << " at " << i;
      continue;
    }
    if (std::isinf(r)) {
      EXPECT_EQ(r, g) << what << " at " << i;
      continue;
    }
    const float tol = rel_tol * std::max(1.0f, std::fabs(r));
    EXPECT_NEAR(r, g, tol) << what << " at " << i;
  }
}

TEST(KernelBitIdentityTest, ArithmeticAcrossAllTables) {
  for (int64_t n : kLengths) {
    const std::vector<float> a = EdgeInput(n, 1);
    const std::vector<float> b = EdgeInput(n, 2);
    const float c = 1.75f;
    const std::vector<const KernelTable*> tables = AllTables();
    for (size_t t = 1; t < tables.size(); ++t) {
      const std::string pair = std::string(tables[0]->name) + " vs " +
                               tables[t]->name + " n=" + std::to_string(n);
      struct Case {
        const char* op;
        void (*ref)(const float*, const float*, float*, int64_t);
        void (*alt)(const float*, const float*, float*, int64_t);
      };
      const Case vv_cases[] = {
          {"add", tables[0]->add, tables[t]->add},
          {"sub", tables[0]->sub, tables[t]->sub},
          {"mul", tables[0]->mul, tables[t]->mul},
      };
      for (const Case& kase : vv_cases) {
        std::vector<float> ref(a.size()), alt(a.size());
        kase.ref(a.data(), b.data(), ref.data(), n);
        kase.alt(a.data(), b.data(), alt.data(), n);
        ExpectBitIdentical(ref, alt, std::string(kase.op) + " " + pair);
      }
      struct ScalarCase {
        const char* op;
        void (*ref)(const float*, float, float*, int64_t);
        void (*alt)(const float*, float, float*, int64_t);
      };
      const ScalarCase vs_cases[] = {
          {"addc", tables[0]->addc, tables[t]->addc},
          {"subc", tables[0]->subc, tables[t]->subc},
          {"mulc", tables[0]->mulc, tables[t]->mulc},
      };
      for (const ScalarCase& kase : vs_cases) {
        std::vector<float> ref(a.size()), alt(a.size());
        kase.ref(a.data(), c, ref.data(), n);
        kase.alt(a.data(), c, alt.data(), n);
        ExpectBitIdentical(ref, alt, std::string(kase.op) + " " + pair);
      }
      for (auto [op, ref_k, alt_k] :
           {std::tuple{"relu", tables[0]->relu, tables[t]->relu},
            std::tuple{"square", tables[0]->square, tables[t]->square},
            std::tuple{"log", tables[0]->log, tables[t]->log}}) {
        // log gets finite positive input (libm everywhere, but keep the
        // comparison meaningful); relu/square take the full edge set.
        const std::vector<float>& in = a;
        std::vector<float> pos;
        const std::vector<float>* src = &in;
        if (std::string(op) == "log") {
          pos = FiniteInput(n, 3);
          for (float& x : pos) x = std::fabs(x) + 0.5f;
          src = &pos;
        }
        std::vector<float> ref(a.size()), alt(a.size());
        ref_k(src->data(), ref.data(), n);
        alt_k(src->data(), alt.data(), n);
        ExpectBitIdentical(ref, alt, std::string(op) + " " + pair);
      }
    }
  }
}

TEST(KernelBitIdentityTest, MatMulBlockAcrossAllTables) {
  const int m = 5, k = 17, n = 33;  // Non-multiple-of-width everything.
  const std::vector<float> a = FiniteInput(static_cast<int64_t>(m) * k, 4);
  const std::vector<float> b = FiniteInput(static_cast<int64_t>(k) * n, 5);
  std::vector<float> az = a;
  az[3] = 0.0f;  // Exercise the exact-zero skip.
  const std::vector<const KernelTable*> tables = AllTables();
  std::vector<float> ref(static_cast<size_t>(m) * n, 0.5f);
  tables[0]->matmul_block(az.data(), b.data(), ref.data(), k, n, 0, m, 0, n);
  for (size_t t = 1; t < tables.size(); ++t) {
    std::vector<float> alt(static_cast<size_t>(m) * n, 0.5f);
    tables[t]->matmul_block(az.data(), b.data(), alt.data(), k, n, 0, m, 0, n);
    ExpectBitIdentical(ref, alt,
                       std::string("matmul_block vs ") + tables[t]->name);
  }
  // Tiled invocation must equal one full-range call bit-for-bit.
  std::vector<float> tiled(static_cast<size_t>(m) * n, 0.5f);
  tables[0]->matmul_block(az.data(), b.data(), tiled.data(), k, n, 0, 2, 0, n);
  tables[0]->matmul_block(az.data(), b.data(), tiled.data(), k, n, 2, m, 0, 20);
  tables[0]->matmul_block(az.data(), b.data(), tiled.data(), k, n, 2, m, 20, n);
  ExpectBitIdentical(ref, tiled, "matmul_block tiled vs full");
}

// The definition matmul_block implements, one element at a time: out[i, j]
// accumulates a[i, p] * b[p, j] in ascending p onto its existing value,
// skipping every p where a[i, p] is exactly zero.
void NaiveMatMulBlock(const float* a, const float* b, float* out, int k,
                      int n, int row_lo, int row_hi, int col_lo, int col_hi) {
  for (int i = row_lo; i < row_hi; ++i) {
    for (int j = col_lo; j < col_hi; ++j) {
      float acc = out[static_cast<int64_t>(i) * n + j];
      for (int p = 0; p < k; ++p) {
        const float av = a[static_cast<int64_t>(i) * k + p];
        if (av == 0.0f) continue;
        acc += av * b[static_cast<int64_t>(p) * n + j];
      }
      out[static_cast<int64_t>(i) * n + j] = acc;
    }
  }
}

// The NaN an invalid operation (inf - inf, inf * 0) produces here. When two
// NaNs of different bits meet in an add, IEEE 754 leaves open which one
// comes out, and compilers order commutative operands freely, so a NaN
// input other than this one makes the output's NaN sign depend on codegen
// (the reference and every table then disagree in that bit alone). With
// this one as the input NaN, every NaN in the product has the same bits.
float GeneratedNan() {
  volatile float inf = kInf;
  return inf - inf;
}

// Matrix entries with ±0 at `zero_rate`, NaN, ±inf, ±denormals and an
// underflowing 1e-20 scattered at `special_rate`, and finite values else.
std::vector<float> MatMulInput(int64_t n, float zero_rate, float special_rate,
                               uint32_t salt) {
  const float specials[] = {GeneratedNan(), kInf,     -kInf,
                            kDenorm,        -kDenorm, 1e-20f};
  std::vector<float> v(static_cast<size_t>(n));
  uint32_t state = 0x85ebca6bu + salt;
  auto next = [&state] {
    state = state * 1664525u + 1013904223u;
    return static_cast<float>(state >> 8) / static_cast<float>(1u << 24);
  };
  for (float& x : v) {
    const float u = next();
    if (u < zero_rate) {
      x = (state & 0x100u) ? -0.0f : 0.0f;
    } else if (u < zero_rate + special_rate) {
      x = specials[(state >> 9) % (sizeof(specials) / sizeof(specials[0]))];
    } else {
      x = (next() - 0.5f) * 4.0f;
    }
  }
  return v;
}

TEST(KernelBitIdentityTest, MatMulBlockMatchesNaiveReference) {
  const std::vector<const KernelTable*> tables = AllTables();
  uint32_t salt = 0;
  // Widths on and around every rung of the 32-, 48- and 96-column tile
  // ladders (32/16/8/4/1, 48/16/8/4/1 and 96/48/16/8/4/1), plus the model's
  // 21-, 192-, 555- and 2,600-column products.
  for (int n : {1, 4, 7, 8, 16, 21, 31, 32, 33, 47, 48, 49, 64, 95, 96, 97,
                100, 143, 191, 192, 555, 2600}) {
    for (int k : {1, 16, 24, 48}) {
      for (int m : {1, 3, 64}) {
        ++salt;
        const std::vector<float> a =
            MatMulInput(static_cast<int64_t>(m) * k, 0.1f, 0.02f, salt);
        const std::vector<float> b =
            MatMulInput(static_cast<int64_t>(k) * n, 0.05f, 0.005f, ~salt);
        // Nonzero initial out: the tile accumulates onto what is there.
        std::vector<float> init =
            MatMulInput(static_cast<int64_t>(m) * n, 0.0f, 0.0f, salt * 7u);
        for (float& x : init) x += x < 0.0f ? -0.25f : 0.25f;
        // Whole rows, column ranges starting and ending off every tile
        // width, ranges ending on n, and a row sub-range.
        struct Range {
          int row_lo, row_hi, col_lo, col_hi;
        };
        std::vector<Range> ranges = {{0, m, 0, n}};
        if (n > 5) ranges.push_back({0, m, 5, std::min(n, 70)});
        if (n > 37) ranges.push_back({0, m, n - 37, n});
        if (n > 21) ranges.push_back({0, m, n - 21, n});
        if (n > 6) ranges.push_back({0, m, 3, n - 3});
        if (m > 1) ranges.push_back({1, m, n / 3, n});
        for (const Range& r : ranges) {
          std::vector<float> ref = init;
          NaiveMatMulBlock(a.data(), b.data(), ref.data(), k, n, r.row_lo,
                           r.row_hi, r.col_lo, r.col_hi);
          for (const KernelTable* table : tables) {
            std::vector<float> got = init;
            table->matmul_block(a.data(), b.data(), got.data(), k, n,
                                r.row_lo, r.row_hi, r.col_lo, r.col_hi);
            ExpectBitIdentical(
                ref, got,
                std::string(table->name) + " matmul_block m=" +
                    std::to_string(m) + " k=" + std::to_string(k) +
                    " n=" + std::to_string(n) + " rows [" +
                    std::to_string(r.row_lo) + ", " +
                    std::to_string(r.row_hi) + ") cols [" +
                    std::to_string(r.col_lo) + ", " +
                    std::to_string(r.col_hi) + ")");
          }
        }
      }
    }
  }
}

// MatMul's dB as the engine ran it before the kernel entry existed: the
// closure loop of ops.cc, copied verbatim (names and all), for Y = A B with
// A [m, k], B [k, n] and dY in `grad`. (dA runs through matmul_block; its
// contract is pinned at the op level in tensor_ops_test.)
void ClosureMatMulGradB(const float* adata, const float* grad, float* bgrad,
                        int m, int k, int n) {
  for (int64_t p = 0; p < k; ++p) {
    float* brow = bgrad + p * n;
    for (int i = 0; i < m; ++i) {
      const float av = adata[i * k + p];
      if (av == 0.0f) continue;
      const float* grow = grad + i * n;
      for (int j = 0; j < n; ++j) brow[j] += av * grow[j];
    }
  }
}

TEST(KernelBitIdentityTest, MatMulGradMatchesNaiveReference) {
  const std::vector<const KernelTable*> tables = AllTables();
  uint32_t salt = 1000;
  for (int k : {1, 7, 8, 9, 16, 17, 24, 48}) {
    for (int n : {1, 7, 33, 96, 2600}) {
      for (int m : {1, 3}) {
        ++salt;
        // Exact zeros in A make the dB skip fire; every operand also
        // carries ±0, ±inf, ±denormals and the generated NaN.
        const std::vector<float> a =
            MatMulInput(static_cast<int64_t>(m) * k, 0.15f, 0.02f, salt);
        const std::vector<float> dy =
            MatMulInput(static_cast<int64_t>(m) * n, 0.05f, 0.005f,
                        salt * 13u);
        // Nonzero initial gradient: the entry accumulates onto it.
        std::vector<float> db0 =
            MatMulInput(static_cast<int64_t>(k) * n, 0.0f, 0.0f, salt * 5u);
        for (float& x : db0) x += x < 0.0f ? -0.25f : 0.25f;
        std::vector<float> db_ref = db0;
        ClosureMatMulGradB(a.data(), dy.data(), db_ref.data(), m, k, n);
        const std::string shape = " m=" + std::to_string(m) +
                                  " k=" + std::to_string(k) +
                                  " n=" + std::to_string(n);
        for (const KernelTable* table : tables) {
          std::vector<float> db = db0;
          table->matmul_grad_b(a.data(), dy.data(), db.data(), m, k, n);
          ExpectBitIdentical(db_ref, db,
                             std::string(table->name) + " matmul_grad_b" +
                                 shape);
        }
      }
    }
  }
}

TEST(KernelExpFamilyTest, SimdTablesBitIdenticalToEachOther) {
  const std::vector<const KernelTable*> simd = SimdTables();
  if (simd.size() < 2) GTEST_SKIP() << "only one SIMD table on this host";
  for (size_t t = 1; t < simd.size(); ++t) {
    for (int64_t n : kLengths) {
      const std::vector<float> a = EdgeInput(n, 8);
      for (auto [op, k0, k1] :
           {std::tuple{"sigmoid", simd[0]->sigmoid, simd[t]->sigmoid},
            std::tuple{"tanh", simd[0]->tanh, simd[t]->tanh},
            std::tuple{"exp", simd[0]->exp, simd[t]->exp}}) {
        std::vector<float> r0(a.size()), r1(a.size());
        k0(a.data(), r0.data(), n);
        k1(a.data(), r1.data(), n);
        ExpectBitIdentical(r0, r1,
                           std::string(op) + " " + simd[0]->name + "-vs-" +
                               simd[t]->name + " n=" + std::to_string(n));
      }
    }
  }
}

TEST(KernelExpFamilyTest, SimdWithinToleranceOfScalarAndEdgeSemantics) {
  for (const KernelTable* table : SimdTables()) {
    for (int64_t n : kLengths) {
      const std::vector<float> a = EdgeInput(n, 9);
      std::vector<float> ref(a.size()), got(a.size());
      // ~2 ulp on exp compounds slightly through sigmoid/tanh; 4e-7
      // relative is the documented tolerance.
      ScalarTable().sigmoid(a.data(), ref.data(), n);
      table->sigmoid(a.data(), got.data(), n);
      ExpectClose(ref, got, 4e-7f, std::string("sigmoid ") + table->name);
      ScalarTable().tanh(a.data(), ref.data(), n);
      table->tanh(a.data(), got.data(), n);
      ExpectClose(ref, got, 4e-7f, std::string("tanh ") + table->name);
    }
    // Edge semantics, exact: saturation at infinity, NaN propagation,
    // signed zero preservation through tanh.
    const std::vector<float> edge = {kInf, -kInf, kNan, 0.0f, -0.0f};
    std::vector<float> sig(edge.size()), th(edge.size()), ex(edge.size());
    table->sigmoid(edge.data(), sig.data(), 5);
    table->tanh(edge.data(), th.data(), 5);
    table->exp(edge.data(), ex.data(), 5);
    EXPECT_EQ(sig[0], 1.0f) << table->name;
    // FastExpf clamps exp(+inf) to ~2.1e38 instead of overflowing, so
    // sigmoid(-inf) lands on a positive denormal rather than exact zero.
    EXPECT_TRUE(sig[1] >= 0.0f && sig[1] < 1e-37f) << table->name;
    EXPECT_TRUE(std::isnan(sig[2])) << table->name;
    EXPECT_EQ(th[0], 1.0f) << table->name;
    EXPECT_EQ(th[1], -1.0f) << table->name;
    EXPECT_TRUE(std::isnan(th[2])) << table->name;
    EXPECT_EQ(th[3], 0.0f) << table->name;
    EXPECT_TRUE(std::signbit(th[4])) << table->name << ": tanh(-0) lost sign";
    // FastExpf clamps rather than overflowing: huge positive input stays
    // finite-huge, huge negative stays positive-tiny, NaN stays NaN.
    EXPECT_TRUE(ex[0] > 1e38f) << table->name;
    EXPECT_TRUE(ex[1] >= 0.0f && ex[1] < 1e-37f) << table->name;
    EXPECT_TRUE(std::isnan(ex[2])) << table->name;
    EXPECT_EQ(ex[3], 1.0f) << table->name;
  }
}

TEST(KernelRowReductionTest, SoftmaxMatchesScalarWithinTolerance) {
  const int m = 3;
  for (int n : {1, 7, 33, 300}) {
    const std::vector<float> a = FiniteInput(static_cast<int64_t>(m) * n, 10);
    std::vector<float> ref(a.size());
    ScalarTable().softmax(a.data(), ref.data(), m, n);
    for (const KernelTable* table : SimdTables()) {
      std::vector<float> got(a.size());
      table->softmax(a.data(), got.data(), m, n);
      ExpectClose(ref, got, 2e-6f,
                  std::string("softmax ") + table->name + " n=" +
                      std::to_string(n));
    }
    std::vector<float> lref(a.size());
    ScalarTable().log_softmax(a.data(), lref.data(), m, n);
    for (const KernelTable* table : SimdTables()) {
      std::vector<float> got(a.size());
      table->log_softmax(a.data(), got.data(), m, n);
      // log_softmax is absolute-error-bounded near 0 (outputs are <= 0).
      for (size_t i = 0; i < lref.size(); ++i) {
        EXPECT_NEAR(lref[i], got[i], 2e-5f)
            << "log_softmax " << table->name << " n=" << n << " at " << i;
      }
    }
  }
}

TEST(KernelRowReductionTest, ExactAliasingMatchesOutOfPlace) {
  const int m = 2, n = 33;
  const std::vector<float> a = FiniteInput(static_cast<int64_t>(m) * n, 11);
  for (const KernelTable* table : AllTables()) {
    std::vector<float> out(a.size());
    table->softmax(a.data(), out.data(), m, n);
    std::vector<float> inplace = a;
    table->softmax(inplace.data(), inplace.data(), m, n);
    ExpectBitIdentical(out, inplace,
                       std::string("softmax aliasing ") + table->name);
    table->log_softmax(a.data(), out.data(), m, n);
    inplace = a;
    table->log_softmax(inplace.data(), inplace.data(), m, n);
    ExpectBitIdentical(out, inplace,
                       std::string("log_softmax aliasing ") + table->name);
  }
}

// Regression: the pre-kernel Softmax/LogSoftmax read row[0] before checking
// the width, walking off the end of a zero-column tensor. The kernels'
// n <= 0 guard makes the op a well-defined no-op.
TEST(KernelRowReductionTest, ZeroWidthRowsAreANoOp) {
  for (const KernelTable* table : AllTables()) {
    float sentinel = 42.0f;
    table->softmax(nullptr, &sentinel, 3, 0);
    table->log_softmax(nullptr, &sentinel, 3, 0);
    EXPECT_EQ(sentinel, 42.0f) << table->name;
  }
  // Ops-level: a [2, 0] tensor flows through without touching memory.
  Tensor empty = Tensor::Zeros({2, 0});
  Tensor s = Softmax(empty);
  Tensor ls = LogSoftmax(empty);
  EXPECT_EQ(s.rows(), 2);
  EXPECT_EQ(s.cols(), 0);
  EXPECT_EQ(ls.numel(), 0);
}

TEST(DispatchTest, OverrideAndNamesRoundTrip) {
  const KernelTable& before = Active();
  SetDispatchOverride(&ScalarTable());
  EXPECT_STREQ(Active().name, "scalar");
  SetDispatchOverride(&GenericTable());
  EXPECT_STREQ(Active().name, "generic");
  SetDispatchOverride(nullptr);
  EXPECT_STREQ(Active().name, before.name);
  EXPECT_STREQ(ScalarTable().name, "scalar");
  EXPECT_STREQ(GenericTable().name, "generic");
  if (const KernelTable* avx2 = Avx2Table()) {
    EXPECT_STREQ(avx2->name, "avx2");
  }
  if (const KernelTable* avx512 = Avx512Table()) {
    EXPECT_STREQ(avx512->name, "avx512");
    // auto prefers the widest table the CPU runs.
    EXPECT_EQ(&BestSimdTable(), avx512);
  }
}

}  // namespace
}  // namespace pa::tensor::kernels
