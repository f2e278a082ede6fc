// Micro-benchmarks (google-benchmark) of the library's hot kernels:
// correlation, Euclidean distance, Monte Carlo edge probability, Markov
// bound, pivot pruning, R*-tree insert/search, and subgraph isomorphism.
//
// --json_out=FILE switches the binary into the SIMD-kernel comparison
// mode instead: the dispatched Monte Carlo block kernel (matrix/simd_ops.h)
// is timed under the scalar reference AND the CPU's native backend at
// l = 64, 256, 1024 and 4096, one JSON line per length appended to FILE
// (e.g. BENCH_micro_kernels.json) with ns per permutation sample for both
// backends and the speedup. The flag is intercepted before
// google-benchmark sees it (benchmark::Initialize rejects unknown flags);
// without it the binary behaves as a normal google-benchmark suite.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/stopwatch.h"
#include "embed/pivot_embedding.h"
#include "graph/subgraph_iso.h"
#include "inference/permutation_cache.h"
#include "matrix/simd_ops.h"
#include "matrix/vector_ops.h"
#include "prob/edge_probability.h"
#include "prob/markov_bound.h"
#include "rtree/rtree.h"

namespace imgrn {
namespace {

std::vector<double> RandomStandardized(size_t l, Rng* rng) {
  std::vector<double> values(l);
  for (double& value : values) value = rng->Gaussian();
  StandardizeInPlace(values);
  return values;
}

void BM_PearsonCorrelation(benchmark::State& state) {
  Rng rng(1);
  const size_t l = static_cast<size_t>(state.range(0));
  const std::vector<double> a = RandomStandardized(l, &rng);
  const std::vector<double> b = RandomStandardized(l, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(AbsolutePearsonCorrelation(a, b));
  }
}
BENCHMARK(BM_PearsonCorrelation)->Arg(40)->Arg(200)->Arg(805);

void BM_EuclideanDistance(benchmark::State& state) {
  Rng rng(2);
  const size_t l = static_cast<size_t>(state.range(0));
  const std::vector<double> a = RandomStandardized(l, &rng);
  const std::vector<double> b = RandomStandardized(l, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EuclideanDistance(a, b));
  }
}
BENCHMARK(BM_EuclideanDistance)->Arg(40)->Arg(200)->Arg(805);

void BM_EdgeProbabilityFreshPermutations(benchmark::State& state) {
  Rng rng(3);
  const std::vector<double> a = RandomStandardized(40, &rng);
  const std::vector<double> b = RandomStandardized(40, &rng);
  EdgeProbabilityEstimator estimator(
      static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.Estimate(a, b, &rng));
  }
}
BENCHMARK(BM_EdgeProbabilityFreshPermutations)->Arg(64)->Arg(128)->Arg(256);

void BM_EdgeProbabilityCachedPermutations(benchmark::State& state) {
  Rng rng(4);
  const std::vector<double> a = RandomStandardized(40, &rng);
  const std::vector<double> b = RandomStandardized(40, &rng);
  PermutationCache cache(static_cast<size_t>(state.range(0)), 5);
  cache.BlocksForLength(40);  // Pre-warm.
  for (auto _ : state) {
    benchmark::DoNotOptimize(EstimateEdgeProbabilityCached(a, b, &cache));
  }
}
BENCHMARK(BM_EdgeProbabilityCachedPermutations)->Arg(64)->Arg(128)->Arg(256);

// The cached estimator again, but with the dispatch pinned to the scalar
// reference — the delta against BM_EdgeProbabilityCachedPermutations is
// the end-to-end win of the batched SIMD Monte Carlo kernel.
void BM_EdgeProbabilityCachedScalarPinned(benchmark::State& state) {
  Rng rng(4);
  const std::vector<double> a = RandomStandardized(40, &rng);
  const std::vector<double> b = RandomStandardized(40, &rng);
  PermutationCache cache(static_cast<size_t>(state.range(0)), 5);
  cache.BlocksForLength(40);  // Pre-warm.
  ScopedKernelOverride scope(ScalarKernels());
  for (auto _ : state) {
    benchmark::DoNotOptimize(EstimateEdgeProbabilityCached(a, b, &cache));
  }
}
BENCHMARK(BM_EdgeProbabilityCachedScalarPinned)->Arg(64)->Arg(128)->Arg(256);

void BM_MarkovBound(benchmark::State& state) {
  Rng rng(6);
  const std::vector<double> a = RandomStandardized(40, &rng);
  const std::vector<double> b = RandomStandardized(40, &rng);
  const double distance = EuclideanDistance(a, b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MarkovUpperBoundClosedForm(distance, 40));
  }
}
BENCHMARK(BM_MarkovBound);

void BM_PivotPrune(benchmark::State& state) {
  Rng rng(7);
  const size_t d = static_cast<size_t>(state.range(0));
  EmbeddedPoint s, t;
  for (size_t w = 0; w < d; ++w) {
    s.x.push_back(rng.UniformDouble(0, 10));
    s.y.push_back(rng.UniformDouble(5, 10));
    t.x.push_back(rng.UniformDouble(0, 10));
    t.y.push_back(rng.UniformDouble(5, 10));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(PivotPruneEdge(s, t, 0.8));
  }
}
BENCHMARK(BM_PivotPrune)->Arg(1)->Arg(2)->Arg(4);

void BM_RTreeInsert(benchmark::State& state) {
  Rng rng(8);
  const size_t dims = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    RTreeOptions options;
    options.dims = dims;
    RTree tree(std::move(options));
    std::vector<std::vector<double>> points;
    for (int i = 0; i < 2000; ++i) {
      std::vector<double> point(dims);
      for (double& value : point) value = rng.UniformDouble(0, 100);
      points.push_back(std::move(point));
    }
    state.ResumeTiming();
    for (size_t i = 0; i < points.size(); ++i) {
      tree.Insert(points[i], i);
    }
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_RTreeInsert)->Arg(3)->Arg(5)->Arg(9)->Unit(benchmark::kMillisecond);

void BM_RTreeSearch(benchmark::State& state) {
  Rng rng(9);
  const size_t dims = 5;
  RTreeOptions options;
  options.dims = dims;
  RTree tree(std::move(options));
  for (uint64_t i = 0; i < 20000; ++i) {
    std::vector<double> point(dims);
    for (double& value : point) value = rng.UniformDouble(0, 100);
    tree.Insert(point, i);
  }
  for (auto _ : state) {
    std::vector<double> lo(dims), hi(dims);
    for (size_t d = 0; d < dims; ++d) {
      lo[d] = rng.UniformDouble(0, 90);
      hi[d] = lo[d] + 10;
    }
    size_t count = 0;
    Result<size_t> searched =
        tree.Search(Mbr::FromBounds(lo, hi), [&count](const RTreeEntry&) {
          ++count;
          return true;
        });
    benchmark::DoNotOptimize(searched);
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_RTreeSearch);

void BM_SubgraphIsomorphism(benchmark::State& state) {
  // Random labeled data graph; path query.
  Rng rng(10);
  const size_t n = static_cast<size_t>(state.range(0));
  ProbGraph data;
  for (VertexId v = 0; v < n; ++v) {
    data.AddVertex(static_cast<GeneId>(v % 10));
  }
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) {
      if (rng.Bernoulli(0.1)) data.AddEdge(u, v, 0.9);
    }
  }
  ProbGraph query;
  query.AddVertex(1);
  query.AddVertex(2);
  query.AddVertex(3);
  query.AddEdge(0, 1, 1.0);
  query.AddEdge(1, 2, 1.0);
  for (auto _ : state) {
    SubgraphIsomorphism iso(query, data);
    benchmark::DoNotOptimize(iso.Exists());
  }
}
BENCHMARK(BM_SubgraphIsomorphism)->Arg(50)->Arg(100)->Arg(200);

// ---------------------------------------------------------------------------
// --json_out mode: scalar-vs-native timing of the dispatched block kernel.
// ---------------------------------------------------------------------------

// One timed measurement: repeats the op enough times to amortize clock
// granularity, takes the best of `kRepetitions` runs (minimum filters
// scheduler noise better than the mean on a shared machine).
constexpr int kRepetitions = 5;

template <typename Op>
double BestNsPerCall(size_t iterations, const Op& op) {
  double best_seconds = 1e300;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    Stopwatch watch;
    for (size_t i = 0; i < iterations; ++i) op();
    const double seconds = watch.ElapsedSeconds();
    if (seconds < best_seconds) best_seconds = seconds;
  }
  return best_seconds * 1e9 / static_cast<double>(iterations);
}

struct KernelTiming {
  size_t length;
  double scalar_ns;
  double native_ns;
};

// Keeps kernel results alive so the timed calls cannot be dead-code
// eliminated.
volatile double g_bench_sink = 0.0;

// Times one full-width block (kPermutedDistanceBatch samples) under both
// tables; ns are normalized per permutation SAMPLE.
KernelTiming TimeBlockKernelAtLength(size_t length) {
  Rng rng(0xBEEF ^ length);
  std::vector<double> a(length);
  std::vector<double> b(length);
  for (double& v : a) v = rng.Gaussian();
  for (double& v : b) v = rng.Gaussian();
  StandardizeInPlace(a);
  StandardizeInPlace(b);
  const PermutationBlocks blocks(kPermutedDistanceBatch, length, &rng);
  double block_out[kPermutedDistanceBatch];
  // ~2M element-visits per repetition keeps every length in the same
  // few-millisecond timing regime.
  const size_t iters = std::max<size_t>(64, 2'000'000 / length);
  const auto time_table = [&](const KernelDispatch& table) {
    return BestNsPerCall(iters, [&] {
      table.permuted_squared_distance_block(a, b, blocks.block(0),
                                            kPermutedDistanceBatch, block_out);
      g_bench_sink = g_bench_sink + block_out[0];
    }) / static_cast<double>(kPermutedDistanceBatch);
  };
  const double scalar_ns = time_table(ScalarKernels());
  const double native_ns = time_table(NativeKernels());
  return {length, scalar_ns, native_ns};
}

int RunKernelComparison(const std::string& json_out) {
  std::FILE* file = nullptr;
  if (!json_out.empty()) {
    file = std::fopen(json_out.c_str(), "a");
    if (file == nullptr) {
      std::fprintf(stderr, "cannot open --json_out=%s\n", json_out.c_str());
      return 2;
    }
  }
  const auto emit = [&](const std::string& line) {
    std::printf("%s\n", line.c_str());
    if (file != nullptr) {
      std::fprintf(file, "%s\n", line.c_str());
      std::fflush(file);
    }
  };
  const char* native = KernelBackendName(NativeKernels().backend);
  for (size_t length : {64, 256, 1024, 4096}) {
    const KernelTiming t = TimeBlockKernelAtLength(length);
    char line[512];
    std::snprintf(
        line, sizeof(line),
        "{\"bench\": \"micro_kernels\", "
        "\"kernel\": \"permuted_distance_per_sample\", "
        "\"length\": %zu, \"native_backend\": \"%s\", "
        "\"scalar_ns_per_call\": %.2f, \"native_ns_per_call\": %.2f, "
        "\"speedup\": %.2f}",
        t.length, native, t.scalar_ns, t.native_ns,
        t.native_ns > 0.0 ? t.scalar_ns / t.native_ns : 0.0);
    emit(line);
  }
  if (file != nullptr) std::fclose(file);
  return 0;
}

}  // namespace
}  // namespace imgrn

int main(int argc, char** argv) {
  // Intercept --json_out before benchmark::Initialize (which exits on
  // flags it does not recognize).
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json_out=", 11) == 0) {
      return imgrn::RunKernelComparison(argv[i] + 11);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
