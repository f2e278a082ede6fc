// Differential suite for the runtime-dispatched SIMD kernel: every backend
// the build can produce is held bit-for-bit to the scalar reference on ANY
// input including NaN, Inf, denormals and signed zeros (simd_ops.h). Inputs
// sweep the shapes that break vector code: every length through 65, narrow
// tail batches and adversarial special values. The dispatch machinery and
// the score matrices built on top of it are checked for backend
// invariance too.

#include "matrix/simd_ops.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "inference/measures.h"
#include "matrix/vector_ops.h"
#include "tests/test_util.h"

namespace imgrn {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kDenormal = std::numeric_limits<double>::denorm_min();

// Bitwise equality — the only meaningful comparison for the bit-identity
// contract: it distinguishes -0.0 from +0.0 and matches NaN payloads.
::testing::AssertionResult BitEqual(double a, double b) {
  if (std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " != " << b << " (bits " << std::hex
         << std::bit_cast<uint64_t>(a) << " vs "
         << std::bit_cast<uint64_t>(b) << ")";
}

// All distinct backends this binary can dispatch to (scalar always;
// native only when the CPU offers a SIMD table). Identities are asserted
// scalar-vs-table for EVERY table, so the suite degrades to a scalar
// self-check on hardware without SIMD rather than silently passing on
// nothing.
std::vector<const KernelDispatch*> AllBackends() {
  std::vector<const KernelDispatch*> backends = {&ScalarKernels()};
  if (NativeKernels().backend != KernelBackend::kScalar) {
    backends.push_back(&NativeKernels());
  }
  return backends;
}

std::string BackendLabel(const KernelDispatch* table) {
  return KernelBackendName(table->backend);
}

std::vector<double> RandomVector(size_t l, Rng* rng) {
  std::vector<double> values(l);
  for (double& value : values) value = rng->Gaussian();
  return values;
}

std::vector<uint32_t> RandomPermutation(size_t l, Rng* rng) {
  std::vector<uint32_t> perm;
  rng->Permutation(l, &perm);
  return perm;
}

// Lengths covering every residue of 4- and 8-wide vector code plus one
// deep length.
std::vector<size_t> TestLengths() {
  std::vector<size_t> lengths;
  for (size_t l = 1; l <= 65; ++l) lengths.push_back(l);
  lengths.push_back(1024);
  return lengths;
}

// Adversarial payloads: the block kernel must reproduce the scalar
// reference exactly even here.
std::vector<std::vector<double>> SpecialVectors() {
  return {
      {0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0},
      {kNan, 1.0, -kInf, kInf, kDenormal, -kDenormal, -0.0, 2.0, kNan},
      {kDenormal, kDenormal, -kDenormal, kDenormal, -kDenormal,
       kDenormal, kDenormal, -kDenormal, kDenormal, kDenormal, kDenormal},
      {1e308, -1e308, 1e308, -1e308, 1e308, -1e308, 1e308, -1e308},
      {5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0},
  };
}

// ---------------------------------------------------------------------------
// The batched Monte Carlo kernel vs the per-sample permute-then-distance
// composition of vector_ops.h.
// ---------------------------------------------------------------------------

void ExpectBlockBitIdentical(const KernelDispatch* table, size_t l,
                             size_t batch, Rng* rng) {
  const std::vector<double> xs = RandomVector(l, rng);
  const std::vector<double> xt = RandomVector(l, rng);
  // `batch` independent permutation samples, interleaved position-major
  // exactly as PermutationBlocks lays them out.
  std::vector<std::vector<uint32_t>> perms;
  std::vector<uint32_t> interleaved(l * batch);
  for (size_t b = 0; b < batch; ++b) {
    perms.push_back(RandomPermutation(l, rng));
    for (size_t i = 0; i < l; ++i) {
      interleaved[i * batch + b] = perms[b][i];
    }
  }
  std::vector<double> out(batch, -1.0);
  table->permuted_squared_distance_block(xs, xt, interleaved.data(), batch,
                                         out.data());
  std::vector<double> permuted(l);
  for (size_t b = 0; b < batch; ++b) {
    // The reference composition the batched kernel replaces.
    ApplyPermutation(xt, perms[b], permuted);
    const double reference = SquaredEuclideanDistance(xs, permuted);
    ASSERT_TRUE(BitEqual(reference, out[b]))
        << BackendLabel(table) << " length " << l << " batch " << batch
        << " sample " << b;
  }
}

TEST(SimdBatchedDistanceTest, BitIdenticalToPerSamplePathAcrossLengths) {
  Rng rng(301);
  for (const KernelDispatch* table : AllBackends()) {
    for (size_t l : TestLengths()) {
      ExpectBlockBitIdentical(table, l, kPermutedDistanceBatch, &rng);
    }
  }
}

TEST(SimdBatchedDistanceTest, BitIdenticalForNarrowTailBatches) {
  Rng rng(302);
  for (const KernelDispatch* table : AllBackends()) {
    for (size_t batch = 1; batch <= kPermutedDistanceBatch; ++batch) {
      ExpectBlockBitIdentical(table, 33, batch, &rng);
      ExpectBlockBitIdentical(table, 1, batch, &rng);
    }
  }
}

TEST(SimdBatchedDistanceTest, SpecialValuesFlowThroughBitIdentically) {
  // xs/xt carrying infinities and denormals: each lane's arithmetic is
  // the scalar reference's arithmetic, so even non-finite accumulations
  // must match bitwise (Inf - Inf produces the same NaN, etc.).
  Rng rng(303);
  for (const KernelDispatch* table : AllBackends()) {
    for (const std::vector<double>& special : SpecialVectors()) {
      const size_t l = special.size();
      const std::vector<double> xs = RandomVector(l, &rng);
      std::vector<std::vector<uint32_t>> perms;
      std::vector<uint32_t> interleaved(l * kPermutedDistanceBatch);
      for (size_t b = 0; b < kPermutedDistanceBatch; ++b) {
        perms.push_back(RandomPermutation(l, &rng));
        for (size_t i = 0; i < l; ++i) {
          interleaved[i * kPermutedDistanceBatch + b] = perms[b][i];
        }
      }
      std::vector<double> out(kPermutedDistanceBatch);
      table->permuted_squared_distance_block(
          xs, special, interleaved.data(), kPermutedDistanceBatch,
          out.data());
      std::vector<double> permuted(l);
      for (size_t b = 0; b < kPermutedDistanceBatch; ++b) {
        ApplyPermutation(special, perms[b], permuted);
        ASSERT_TRUE(BitEqual(SquaredEuclideanDistance(xs, permuted), out[b]))
            << BackendLabel(table) << " sample " << b;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Dispatch machinery.
// ---------------------------------------------------------------------------

TEST(KernelDispatchTest, ForceScalarValueParsing) {
  EXPECT_FALSE(KernelForceScalarValue(nullptr));
  EXPECT_FALSE(KernelForceScalarValue(""));
  EXPECT_FALSE(KernelForceScalarValue("0"));
  EXPECT_FALSE(KernelForceScalarValue("false"));
  EXPECT_FALSE(KernelForceScalarValue("off"));
  EXPECT_TRUE(KernelForceScalarValue("1"));
  EXPECT_TRUE(KernelForceScalarValue("true"));
  EXPECT_TRUE(KernelForceScalarValue("yes"));
  EXPECT_TRUE(KernelForceScalarValue("scalar"));
}

TEST(KernelDispatchTest, BackendNamesAreStable) {
  EXPECT_STREQ(KernelBackendName(KernelBackend::kScalar), "scalar");
  EXPECT_STREQ(KernelBackendName(KernelBackend::kAvx2), "avx2");
}

TEST(KernelDispatchTest, ScalarTableIsTheReference) {
  EXPECT_EQ(ScalarKernels().backend, KernelBackend::kScalar);
}

TEST(KernelDispatchTest, ScopedOverrideSwapsAndRestores) {
  const KernelBackend original = ActiveKernelBackend();
  {
    ScopedKernelOverride scalar(ScalarKernels());
    EXPECT_EQ(ActiveKernelBackend(), KernelBackend::kScalar);
    {
      ScopedKernelOverride native(NativeKernels());
      EXPECT_EQ(ActiveKernelBackend(), NativeKernels().backend);
    }
    EXPECT_EQ(ActiveKernelBackend(), KernelBackend::kScalar);
  }
  EXPECT_EQ(ActiveKernelBackend(), original);
}

// The reductions in vector_ops.h do not dispatch: an override leaves their
// bits alone.
TEST(KernelDispatchTest, VectorOpsReductionsStayPinnedUnderOverride) {
  Rng rng(402);
  const std::vector<double> a = RandomVector(1024, &rng);
  const std::vector<double> b = RandomVector(1024, &rng);
  const double pinned_dot = Dot(a, b);
  const double pinned_dist = SquaredEuclideanDistance(a, b);
  const double pinned_cor = PearsonCorrelation(a, b);
  for (const KernelDispatch* table : AllBackends()) {
    ScopedKernelOverride scope(*table);
    EXPECT_TRUE(BitEqual(Dot(a, b), pinned_dot)) << BackendLabel(table);
    EXPECT_TRUE(BitEqual(SquaredEuclideanDistance(a, b), pinned_dist))
        << BackendLabel(table);
    EXPECT_TRUE(BitEqual(PearsonCorrelation(a, b), pinned_cor))
        << BackendLabel(table);
  }
}

// Nor do standardization and permutation: the same bits no matter which
// backend the override selects.
TEST(KernelDispatchTest, DispatchedVectorOpsBitInvariantUnderOverride) {
  Rng rng(403);
  const std::vector<double> input = RandomVector(257, &rng);
  const std::vector<uint32_t> perm = RandomPermutation(input.size(), &rng);
  std::vector<double> standardized_ref = input;
  StandardizeInPlace(standardized_ref);
  std::vector<double> permuted_ref(input.size());
  ApplyPermutation(input, perm, permuted_ref);
  for (const KernelDispatch* table : AllBackends()) {
    ScopedKernelOverride scope(*table);
    std::vector<double> standardized = input;
    StandardizeInPlace(standardized);
    std::vector<double> permuted(input.size());
    ApplyPermutation(input, perm, permuted);
    for (size_t i = 0; i < input.size(); ++i) {
      ASSERT_TRUE(BitEqual(standardized[i], standardized_ref[i]))
          << BackendLabel(table) << " index " << i;
      ASSERT_TRUE(BitEqual(permuted[i], permuted_ref[i]))
          << BackendLabel(table) << " index " << i;
    }
  }
}

// Every inference measure's score matrix is the same bits under either
// backend: Correlation and pCorr run on the scalar Dot, MI on scalar
// histograms, and both permutation measures on the block kernel or the
// draw-ordered permutation blocks. 20 samples leave a narrow tail block.
TEST(KernelDispatchTest, ScoreMatricesBitIdenticalAcrossBackends) {
  Rng rng(404);
  const GeneMatrix matrix = testing_util::MakePlantedMatrix(
      0, 37, {{1, 2, 3}}, {4, 5, 6}, 0.9, &rng);
  ScoreOptions options;
  options.num_samples = 20;
  for (InferenceMeasure measure :
       {InferenceMeasure::kImGrn, InferenceMeasure::kCorrelation,
        InferenceMeasure::kPartialCorrelation,
        InferenceMeasure::kMutualInformation,
        InferenceMeasure::kImGrnMutualInformation}) {
    Result<DenseMatrix> scalar = [&] {
      ScopedKernelOverride scope(ScalarKernels());
      return ComputeScoreMatrix(matrix, measure, options);
    }();
    Result<DenseMatrix> native = [&] {
      ScopedKernelOverride scope(NativeKernels());
      return ComputeScoreMatrix(matrix, measure, options);
    }();
    ASSERT_TRUE(scalar.ok()) << InferenceMeasureName(measure);
    ASSERT_TRUE(native.ok()) << InferenceMeasureName(measure);
    for (size_t s = 0; s < matrix.num_genes(); ++s) {
      for (size_t t = 0; t < matrix.num_genes(); ++t) {
        EXPECT_TRUE(BitEqual(scalar->At(s, t), native->At(s, t)))
            << InferenceMeasureName(measure) << " (" << s << ", " << t
            << ")";
      }
    }
  }
}

}  // namespace
}  // namespace imgrn
