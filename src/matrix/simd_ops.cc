#include "matrix/simd_ops.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(_M_X64)
#define IMGRN_KERNELS_X86_64 1
#include <immintrin.h>
#endif

// This translation unit compiles with -ffp-contract=off (see
// src/matrix/CMakeLists.txt): the scalar reference kernel below DEFINES the
// engine's Monte Carlo numeric semantics, and a compiler fusing its mul+add
// sequence into FMA would silently change every estimate and break the
// bit-identity contract with the lane-sequential SIMD kernel (simd_ops.h).

namespace imgrn {

const char* KernelBackendName(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kScalar:
      return "scalar";
    case KernelBackend::kAvx2:
      return "avx2";
  }
  return "?";
}

namespace {

void ScalarPermutedSquaredDistanceBlock(std::span<const double> xs,
                                        std::span<const double> xt,
                                        const uint32_t* idx, size_t batch,
                                        double* out) {
  const size_t l = xt.size();
  for (size_t b = 0; b < batch; ++b) {
    // Ascending-i accumulation with separate mul and add: exactly the
    // operation order of ApplyPermutation + SquaredEuclideanDistance,
    // so this fallback is bit-identical to the historical per-sample path.
    double acc = 0.0;
    for (size_t i = 0; i < l; ++i) {
      const double diff = xs[i] - xt[idx[i * batch + b]];
      acc += diff * diff;
    }
    out[b] = acc;
  }
}

constexpr KernelDispatch kScalarDispatch = {
    KernelBackend::kScalar,
    &ScalarPermutedSquaredDistanceBlock,
};

#if defined(IMGRN_KERNELS_X86_64)

// AVX2 backend. Compiled with a per-function target attribute so the rest
// of the build keeps the portable baseline ISA; only CPUID-gated dispatch
// reaches it.

__attribute__((target("avx2"))) void Avx2PermutedSquaredDistanceBlock(
    std::span<const double> xs, std::span<const double> xt,
    const uint32_t* idx, size_t batch, double* out) {
  if (batch != kPermutedDistanceBatch) {
    // Narrow tail blocks take the scalar loop (identical per-lane order).
    ScalarPermutedSquaredDistanceBlock(xs, xt, idx, batch, out);
    return;
  }
  const size_t l = xt.size();
  const double* ps = xs.data();
  const double* pt = xt.data();
  // Lane b of (acc_lo, acc_hi) accumulates permutation sample b's
  // sum_i (xs[i] - xt[perm_b[i]])^2 in ascending-i order with separate
  // mul and add — bit-identical to the scalar reference per sample.
  __m256d acc_lo = _mm256_setzero_pd();
  __m256d acc_hi = _mm256_setzero_pd();
  for (size_t i = 0; i < l; ++i) {
    const __m256i idx8 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(idx + i * kPermutedDistanceBatch));
    const __m256d xsv = _mm256_broadcast_sd(ps + i);
    const __m256d g_lo =
        _mm256_i32gather_pd(pt, _mm256_castsi256_si128(idx8), 8);
    const __m256d g_hi =
        _mm256_i32gather_pd(pt, _mm256_extracti128_si256(idx8, 1), 8);
    const __m256d d_lo = _mm256_sub_pd(xsv, g_lo);
    const __m256d d_hi = _mm256_sub_pd(xsv, g_hi);
    acc_lo = _mm256_add_pd(acc_lo, _mm256_mul_pd(d_lo, d_lo));
    acc_hi = _mm256_add_pd(acc_hi, _mm256_mul_pd(d_hi, d_hi));
  }
  _mm256_storeu_pd(out, acc_lo);
  _mm256_storeu_pd(out + 4, acc_hi);
}

constexpr KernelDispatch kAvx2Dispatch = {
    KernelBackend::kAvx2,
    &Avx2PermutedSquaredDistanceBlock,
};

#endif  // IMGRN_KERNELS_X86_64

const KernelDispatch* ProbeNativeKernels() {
#if defined(IMGRN_KERNELS_X86_64) && defined(__GNUC__)
  if (__builtin_cpu_supports("avx2")) return &kAvx2Dispatch;
#endif
  return &kScalarDispatch;
}

// The table in effect. Null until first ActiveKernels() use; the
// initialization race is benign (every thread computes the same pointer).
std::atomic<const KernelDispatch*> g_active_kernels{nullptr};

}  // namespace

bool KernelForceScalarValue(const char* value) {
  if (value == nullptr) return false;
  if (std::strcmp(value, "") == 0 || std::strcmp(value, "0") == 0 ||
      std::strcmp(value, "false") == 0 || std::strcmp(value, "off") == 0) {
    return false;
  }
  return true;
}

const KernelDispatch& ScalarKernels() { return kScalarDispatch; }

const KernelDispatch& NativeKernels() {
  static const KernelDispatch* native = ProbeNativeKernels();
  return *native;
}

const KernelDispatch& ActiveKernels() {
  const KernelDispatch* table =
      g_active_kernels.load(std::memory_order_acquire);
  if (table == nullptr) {
    table = KernelForceScalarValue(std::getenv("IMGRN_FORCE_SCALAR"))
                ? &ScalarKernels()
                : &NativeKernels();
    g_active_kernels.store(table, std::memory_order_release);
  }
  return *table;
}

KernelBackend ActiveKernelBackend() { return ActiveKernels().backend; }

ScopedKernelOverride::ScopedKernelOverride(const KernelDispatch& table)
    : previous_(&ActiveKernels()) {
  g_active_kernels.store(&table, std::memory_order_release);
}

ScopedKernelOverride::~ScopedKernelOverride() {
  g_active_kernels.store(previous_, std::memory_order_release);
}

}  // namespace imgrn
