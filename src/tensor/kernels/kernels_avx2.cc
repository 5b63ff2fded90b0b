// AVX2 SIMD table: identical source to kernels_generic.cc, compiled with
// -mavx2 (and -ffp-contract=off like every kernel TU, so no FMA contraction
// can diverge from the other tables). Only built on x86; executing these
// kernels requires runtime AVX2 — dispatch goes through Avx2Table().
// matmul_block's 48-column tile is six ymm accumulators.
#if defined(__x86_64__) || defined(__i386__)
#define PA_KERNEL_TABLE Avx2TableUnchecked
#define PA_KERNEL_LABEL "avx2"
#define PA_KERNEL_FASTEXP 1
#define PA_KERNEL_TILE 48
#include "tensor/kernels/kernel_impl.inc"
#endif
