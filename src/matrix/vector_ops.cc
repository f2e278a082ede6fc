#include "matrix/vector_ops.h"

#include <cmath>

#include "common/logging.h"

// Compiled with -ffp-contract=off (see CMakeLists.txt in this directory):
// these are the engine's REFERENCE numeric semantics, and letting a
// compiler fuse mul+add into FMA would change stored results between
// builds and machines.

namespace imgrn {

namespace {

// Variance below this is treated as "constant vector" by both
// PearsonCorrelation and StandardizeInPlace.
constexpr double kZeroVarianceEpsilon = 1e-15;

// The mean / sum-of-squares reductions of standardization. Returns false
// for a (near-)constant vector, in which case the caller zero-fills.
bool StandardizeMoments(std::span<const double> values, double* mean,
                        double* scale) {
  double sum = 0.0;
  for (double v : values) sum += v;
  *mean = sum / static_cast<double>(values.size());
  double sum_sq = 0.0;
  for (double v : values) {
    const double centered = v - *mean;
    sum_sq += centered * centered;
  }
  if (sum_sq < kZeroVarianceEpsilon) return false;
  *scale = std::sqrt(static_cast<double>(values.size()) / sum_sq);
  return true;
}

}  // namespace

double Mean(std::span<const double> values) {
  IMGRN_CHECK(!values.empty());
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Variance(std::span<const double> values) {
  IMGRN_CHECK(!values.empty());
  const double mean = Mean(values);
  double sum_sq = 0.0;
  for (double v : values) {
    const double centered = v - mean;
    sum_sq += centered * centered;
  }
  return sum_sq / static_cast<double>(values.size());
}

double StdDev(std::span<const double> values) {
  return std::sqrt(Variance(values));
}

double Dot(std::span<const double> a, std::span<const double> b) {
  IMGRN_CHECK_EQ(a.size(), b.size());
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

double SquaredNorm(std::span<const double> a) {
  double sum = 0.0;
  for (double v : a) sum += v * v;
  return sum;
}

double SquaredEuclideanDistance(std::span<const double> a,
                                std::span<const double> b) {
  IMGRN_CHECK_EQ(a.size(), b.size());
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double diff = a[i] - b[i];
    sum += diff * diff;
  }
  return sum;
}

double EuclideanDistance(std::span<const double> a,
                         std::span<const double> b) {
  return std::sqrt(SquaredEuclideanDistance(a, b));
}

double PearsonCorrelation(std::span<const double> a,
                          std::span<const double> b) {
  IMGRN_CHECK_EQ(a.size(), b.size());
  IMGRN_CHECK(!a.empty());
  double sum_a = 0.0;
  double sum_b = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    sum_a += a[i];
    sum_b += b[i];
  }
  const double mean_a = sum_a / static_cast<double>(a.size());
  const double mean_b = sum_b / static_cast<double>(b.size());
  double cov = 0.0;
  double var_a = 0.0;
  double var_b = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double da = a[i] - mean_a;
    const double db = b[i] - mean_b;
    cov += da * db;
    var_a += da * da;
    var_b += db * db;
  }
  if (var_a < kZeroVarianceEpsilon || var_b < kZeroVarianceEpsilon) {
    return 0.0;
  }
  double cor = cov / (std::sqrt(var_a) * std::sqrt(var_b));
  if (cor > 1.0) cor = 1.0;
  if (cor < -1.0) cor = -1.0;
  return cor;
}

double AbsolutePearsonCorrelation(std::span<const double> a,
                                  std::span<const double> b) {
  return std::fabs(PearsonCorrelation(a, b));
}

void StandardizeInPlace(std::span<double> values) {
  IMGRN_CHECK(!values.empty());
  double mean = 0.0;
  double scale = 0.0;
  if (!StandardizeMoments(values, &mean, &scale)) {
    for (double& v : values) v = 0.0;
    return;
  }
  for (double& v : values) {
    v = (v - mean) * scale;
  }
}

std::vector<double> Standardized(std::span<const double> values) {
  std::vector<double> out(values.begin(), values.end());
  StandardizeInPlace(out);
  return out;
}

bool IsStandardized(std::span<const double> values, double tolerance) {
  if (values.empty()) return false;
  const double mean = Mean(values);
  if (std::fabs(mean) > tolerance) return false;
  const double norm_sq = SquaredNorm(values);
  // Accept the all-zero degenerate standardization of a constant vector.
  if (norm_sq < kZeroVarianceEpsilon) return true;
  return std::fabs(norm_sq - static_cast<double>(values.size())) <=
         tolerance * static_cast<double>(values.size());
}

void ApplyPermutation(std::span<const double> input,
                      std::span<const uint32_t> perm,
                      std::span<double> output) {
  IMGRN_CHECK_EQ(input.size(), perm.size());
  IMGRN_CHECK_EQ(input.size(), output.size());
  // Aliasing precondition, asserted rather than silent: output[i] =
  // input[perm[i]] reads input positions after earlier writes to output,
  // so any overlap between the two spans corrupts results. Every caller
  // permutes into a separate scratch buffer; hold them to it.
  IMGRN_CHECK(input.data() + input.size() <= output.data() ||
              output.data() + output.size() <= input.data())
      << "ApplyPermutation input and output must not overlap";
  for (size_t i = 0; i < input.size(); ++i) {
    output[i] = input[perm[i]];
  }
}

double CorrelationFromDistance(double distance, size_t length) {
  IMGRN_CHECK_GT(length, 0u);
  return 1.0 - (distance * distance) / (2.0 * static_cast<double>(length));
}

double DistanceFromCorrelation(double correlation, size_t length) {
  IMGRN_CHECK_GT(length, 0u);
  double value = 2.0 * static_cast<double>(length) * (1.0 - correlation);
  if (value < 0.0) value = 0.0;
  return std::sqrt(value);
}

}  // namespace imgrn
