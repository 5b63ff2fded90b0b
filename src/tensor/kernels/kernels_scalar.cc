// Scalar reference table: libm expf, baseline target flags — the exact
// per-element math the tensor engine had before the kernel layer, kept
// bit-identical so PA_SIMD=scalar reproduces the pre-SIMD fast path.
#define PA_KERNEL_TABLE ScalarTable
#define PA_KERNEL_LABEL "scalar"
#define PA_KERNEL_TILE 32
#include "tensor/kernels/kernel_impl.inc"
