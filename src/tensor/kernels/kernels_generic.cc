// Generic SIMD table: the branchless-expf kernels compiled for the build's
// baseline target (SSE2 on x86-64) — every portable compiler still
// auto-vectorizes these loops, just at the baseline lane width.
#define PA_KERNEL_TABLE GenericTable
#define PA_KERNEL_LABEL "generic"
#define PA_KERNEL_FASTEXP 1
#define PA_KERNEL_TILE 32
#include "tensor/kernels/kernel_impl.inc"
