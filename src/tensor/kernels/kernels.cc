#include "tensor/kernels/kernels.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace pa::tensor::kernels {

namespace {

[[noreturn]] void FatalConfig(const char* value) {
  std::fprintf(stderr,
               "pa::tensor::kernels fatal: bad PA_SIMD value \"%s\" "
               "(want scalar|auto, or generic|avx2 for debugging)\n",
               value);
  std::abort();
}

#if defined(__x86_64__) || defined(__i386__)
bool Avx2Supported() { return __builtin_cpu_supports("avx2"); }

bool Avx512Supported() {
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512vl") &&
         __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512dq");
}
#endif

// Test/bench override; when set, wins on every thread.
std::atomic<const KernelTable*> g_override{nullptr};
// Lazily resolved PA_SIMD choice. Concurrent first calls may resolve twice;
// both stores write the same pointer, so the benign race is invisible.
std::atomic<const KernelTable*> g_env_choice{nullptr};

const KernelTable* ResolveFromEnv() {
  const char* env = std::getenv("PA_SIMD");
  if (env == nullptr || *env == '\0' || std::strcmp(env, "auto") == 0) {
    return &BestSimdTable();
  }
  if (std::strcmp(env, "scalar") == 0) return &ScalarTable();
  if (std::strcmp(env, "generic") == 0) return &GenericTable();
  if (std::strcmp(env, "avx2") == 0) {
    if (const KernelTable* t = Avx2Table()) return t;
    std::fprintf(stderr,
                 "pa::tensor::kernels fatal: PA_SIMD=avx2 but this "
                 "build/CPU has no AVX2 table\n");
    std::abort();
  }
  FatalConfig(env);
}

}  // namespace

const KernelTable* Avx2Table() {
#if defined(__x86_64__) || defined(__i386__)
  return Avx2Supported() ? &Avx2TableUnchecked() : nullptr;
#else
  return nullptr;
#endif
}

const KernelTable* Avx512Table() {
#if defined(__x86_64__) || defined(__i386__)
  return Avx512Supported() ? &Avx512TableUnchecked() : nullptr;
#else
  return nullptr;
#endif
}

const KernelTable& BestSimdTable() {
  if (const KernelTable* t = Avx512Table()) return *t;
  if (const KernelTable* t = Avx2Table()) return *t;
  return GenericTable();
}

const KernelTable& Active() {
  if (const KernelTable* t = g_override.load(std::memory_order_acquire)) {
    return *t;
  }
  const KernelTable* t = g_env_choice.load(std::memory_order_acquire);
  if (t == nullptr) {
    t = ResolveFromEnv();
    g_env_choice.store(t, std::memory_order_release);
  }
  return *t;
}

void SetDispatchOverride(const KernelTable* table) {
  g_override.store(table, std::memory_order_release);
}

}  // namespace pa::tensor::kernels
