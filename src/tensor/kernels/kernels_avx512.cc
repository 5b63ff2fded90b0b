// AVX-512 SIMD table: identical source to kernels_avx2.cc, compiled with
// -mavx512f/vl/bw/dq and 512-bit vectors. -mavx512f makes FMA available,
// and -ffp-contract=off is what keeps it out of every kernel. Only built on
// x86; dispatch goes through Avx512Table(). matmul_block's 96-column tile
// is six zmm accumulators.
#if defined(__x86_64__) || defined(__i386__)
#define PA_KERNEL_TABLE Avx512TableUnchecked
#define PA_KERNEL_LABEL "avx512"
#define PA_KERNEL_FASTEXP 1
#define PA_KERNEL_TILE 96
#include "tensor/kernels/kernel_impl.inc"
#endif
