#ifndef IMGRN_MATRIX_SIMD_OPS_H_
#define IMGRN_MATRIX_SIMD_OPS_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace imgrn {

/// Runtime-dispatched SIMD kernel for the Monte Carlo permutation estimate
/// of Eq. (4) and Lemma 2 — the one dense loop of a query that pays for a
/// vector backend. Every other dense primitive (dot products, distances,
/// Pearson correlation, standardization, permutation) is a plain scalar
/// function in vector_ops.h and does not dispatch.
///
/// The engine's headline guarantee across every subsystem is bit-exactness
/// (sharded == unsharded, disk == mem, snapshot-reopened == rebuilt), so
/// the dispatched kernel has one contract: BIT-IDENTICAL to the scalar
/// reference on every backend, for any input including NaN/Inf/denormals
/// and signed zeros. `permuted_squared_distance_block` keeps it by
/// construction: each SIMD lane accumulates exactly one permutation
/// sample's sum_i (xs[i] - xt[perm[i]])^2 in ascending-i order with
/// separate mul and add (no FMA), which is operation-for-operation the
/// scalar reference's loop. The Monte Carlo accept/reject decisions are
/// therefore identical across backends by construction, not by tolerance,
/// and so is every result the engine computes — matches, QueryStats
/// counters, inference score matrices and snapshot bytes. (The scalar
/// reference translation units compile with -ffp-contract=off so a
/// compiler cannot re-fuse the reference into FMA; see
/// src/matrix/CMakeLists.txt.)
///
/// Backend selection happens once, on first use: AVX2 via CPUID on x86-64,
/// scalar everywhere else. Setting the IMGRN_FORCE_SCALAR environment
/// variable (to anything but "", "0", "false" or "off") pins the scalar
/// reference backend — the differential CI gate (tools/ci_sanitize.sh
/// kernels) runs the test suite both ways.

/// Identifies a kernel backend implementation.
enum class KernelBackend {
  kScalar,  // Portable reference; always available; defines the semantics.
  kAvx2,    // x86-64 AVX2 (32-bit index gathers).
};

/// Human-readable backend name ("scalar", "avx2").
const char* KernelBackendName(KernelBackend backend);

/// Number of permutation samples one `permuted_squared_distance_block`
/// call evaluates at full width. PermutationCache lays its interleaved
/// index blocks out in this width; the final block of a sample set may be
/// narrower.
inline constexpr size_t kPermutedDistanceBatch = 8;

/// Table of kernel entry points for one backend. Table functions assume
/// validated inputs; their callers (permutation_cache.cc) check sizes.
struct KernelDispatch {
  KernelBackend backend;

  /// Batched Monte Carlo distance kernel. For `batch` permutation samples
  /// laid out interleaved — idx[i * batch + b] is sample b's permutation
  /// image of position i, i in [0, xt.size()), b in [0, batch) — computes
  ///   out[b] = sum_i (xs[i] - xt[idx[i * batch + b]])^2
  /// with each sample's sum accumulated in ascending-i order using
  /// separate mul/add. One call makes a single pass over the standardized
  /// columns for up to kPermutedDistanceBatch samples. Requires
  /// batch >= 1; batch != kPermutedDistanceBatch takes the scalar loop on
  /// every backend.
  void (*permuted_squared_distance_block)(std::span<const double> xs,
                                          std::span<const double> xt,
                                          const uint32_t* idx, size_t batch,
                                          double* out);
};

/// The portable scalar reference table. Its semantics define every other
/// backend's contract.
const KernelDispatch& ScalarKernels();

/// The best table this CPU supports (CPUID-probed once; == ScalarKernels()
/// when no SIMD backend applies).
const KernelDispatch& NativeKernels();

/// The table in effect: NativeKernels() unless IMGRN_FORCE_SCALAR pinned
/// the scalar reference at first use, or a ScopedKernelOverride is active.
const KernelDispatch& ActiveKernels();

/// Backend of ActiveKernels().
KernelBackend ActiveKernelBackend();

/// Parses an IMGRN_FORCE_SCALAR value: nullptr, "", "0", "false" and "off"
/// leave dispatch native; anything else forces the scalar reference.
/// Exposed for tests; the environment is consulted once, at first
/// ActiveKernels() use.
bool KernelForceScalarValue(const char* value);

/// Swaps the active dispatch table for a scope — the differential test
/// rig runs the same query under ScalarKernels() and NativeKernels() in
/// one process. Test-only: the swap is process-global, so no queries may
/// run concurrently with a scope's lifetime.
class ScopedKernelOverride {
 public:
  explicit ScopedKernelOverride(const KernelDispatch& table);
  ~ScopedKernelOverride();

  ScopedKernelOverride(const ScopedKernelOverride&) = delete;
  ScopedKernelOverride& operator=(const ScopedKernelOverride&) = delete;

 private:
  const KernelDispatch* previous_;
};

}  // namespace imgrn

#endif  // IMGRN_MATRIX_SIMD_OPS_H_
