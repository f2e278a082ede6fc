// Figure 6(a-c): IM-GRN vs Baseline over Real / Uni / Gau data sets —
// CPU time, I/O cost (page accesses), and number of candidates.
//
// Paper shape to reproduce: IM-GRN beats Baseline by 2-3 orders of
// magnitude on CPU and I/O; IM-GRN's candidate count is ~3-4 while
// Baseline scans every matrix.
//
// IM-GRN's CPU per query is the median over kRepeats passes of the query
// workload; its I/O and candidates come from the first pass, whose buffer
// pool starts cold. --json_out=FILE appends one line per dataset to FILE
// (e.g. BENCH_query_path.json) with the spread and the build provenance:
//
//   {"bench":"fig06_vs_baseline","dataset":"Uni","matrices":200,
//    "queries":20,"repeats":5,"imgrn_cpu_ms":0.0721,
//    "imgrn_cpu_min_ms":0.0716,"imgrn_cpu_max_ms":0.0833,"io_pages":7.30,
//    "candidates":6.45,"build_type":"Release","kernel_backend":"avx2",
//    "nproc":4}

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/logging.h"
#include "matrix/simd_ops.h"
#include "query/baseline.h"

namespace imgrn {
namespace bench {
namespace {

// IM-GRN workload passes behind each CPU median.
constexpr size_t kRepeats = 5;

struct MethodRow {
  WorkloadResult imgrn;  // First (cold-pool) pass.
  Spread imgrn_cpu_seconds;
  WorkloadResult baseline;
};

MethodRow RunDataset(GeneDatabase database, const BenchDefaults& defaults,
                     const QueryParams& params) {
  // Copy for the baseline (both standardize in place, identically).
  GeneDatabase baseline_database = database;

  EngineOptions engine_options;
  engine_options.index.build_threads = 0;  // Parallel build (bit-identical).
  ImGrnEngine engine(engine_options);
  engine.LoadDatabase(std::move(database));
  IMGRN_CHECK_OK(engine.BuildIndex());
  const std::vector<ProbGraph> queries =
      MakeQueryWorkload(engine.database(), defaults);

  MethodRow row;
  std::vector<double> cpu_seconds;
  for (size_t pass = 0; pass < kRepeats; ++pass) {
    const WorkloadResult result = RunWorkload(engine, queries, params);
    if (pass == 0) row.imgrn = result;
    cpu_seconds.push_back(result.mean_cpu_seconds);
  }
  row.imgrn_cpu_seconds = Summarize(std::move(cpu_seconds));

  BaselineOptions baseline_options;
  baseline_options.num_samples = 64;
  baseline_options.seed = defaults.seed;
  BaselineMaterialization baseline(baseline_options);
  IMGRN_CHECK_OK(baseline.Build(&baseline_database));
  for (const ProbGraph& query : queries) {
    QueryStats stats;
    IMGRN_CHECK_OK(baseline.Query(query, params, &stats).status());
    row.baseline.mean_cpu_seconds += stats.total_seconds;
    row.baseline.mean_io_pages += static_cast<double>(stats.page_accesses);
    row.baseline.mean_candidates +=
        static_cast<double>(stats.candidate_matrices);
    row.baseline.mean_answers += static_cast<double>(stats.answers);
    ++row.baseline.queries;
  }
  const double n = static_cast<double>(row.baseline.queries);
  row.baseline.mean_cpu_seconds /= n;
  row.baseline.mean_io_pages /= n;
  row.baseline.mean_candidates /= n;
  row.baseline.mean_answers /= n;
  return row;
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv,
              {{"n_matrices", "200"},
               {"seed", "2017"},
               {"json_out", " | append one JSON line per dataset to this "
                            "file"}});
  BenchDefaults defaults;
  defaults.num_matrices = static_cast<size_t>(flags.GetInt("n_matrices"));
  defaults.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  QueryParams params;
  params.gamma = defaults.gamma;
  params.alpha = defaults.alpha;

  std::FILE* json_out = nullptr;
  const std::string json_path = flags.GetString("json_out");
  if (!json_path.empty()) {
    json_out = std::fopen(json_path.c_str(), "a");
    if (json_out == nullptr) {
      std::fprintf(stderr, "cannot open --json_out=%s\n", json_path.c_str());
      return 1;
    }
  }

  PrintHeader("Figure 6(a-c)",
              "IM-GRN vs Baseline: CPU / I/O / candidates on Real, Uni, Gau",
              "N=" + std::to_string(defaults.num_matrices) +
                  " gamma=0.5 alpha=0.5 n_Q=5 d=2");
  std::printf(
      "dataset, method, cpu_seconds, io_pages, candidates, answers\n");

  struct Dataset {
    const char* name;
    GeneDatabase database;
  };
  std::vector<Dataset> datasets;
  datasets.push_back({"Real", BuildRealCombinedDatabase(defaults)});
  datasets.push_back({"Uni", BuildSyntheticDatabase("Uni", defaults)});
  datasets.push_back({"Gau", BuildSyntheticDatabase("Gau", defaults)});

  for (Dataset& dataset : datasets) {
    MethodRow row =
        RunDataset(std::move(dataset.database), defaults, params);
    std::printf("%s, IM-GRN,   %.6f, %.1f, %.2f, %.2f\n", dataset.name,
                row.imgrn_cpu_seconds.median, row.imgrn.mean_io_pages,
                row.imgrn.mean_candidates, row.imgrn.mean_answers);
    std::printf("%s, Baseline, %.6f, %.1f, %.2f, %.2f\n", dataset.name,
                row.baseline.mean_cpu_seconds, row.baseline.mean_io_pages,
                row.baseline.mean_candidates, row.baseline.mean_answers);
    if (json_out != nullptr) {
      std::fprintf(
          json_out,
          "{\"bench\":\"fig06_vs_baseline\",\"dataset\":\"%s\","
          "\"matrices\":%zu,\"queries\":%zu,\"repeats\":%zu,"
          "\"imgrn_cpu_ms\":%.4f,\"imgrn_cpu_min_ms\":%.4f,"
          "\"imgrn_cpu_max_ms\":%.4f,\"io_pages\":%.2f,"
          "\"candidates\":%.2f,\"build_type\":\"%s\","
          "\"kernel_backend\":\"%s\",\"nproc\":%u}\n",
          dataset.name, defaults.num_matrices, row.imgrn.queries, kRepeats,
          1e3 * row.imgrn_cpu_seconds.median, 1e3 * row.imgrn_cpu_seconds.min,
          1e3 * row.imgrn_cpu_seconds.max, row.imgrn.mean_io_pages,
          row.imgrn.mean_candidates, IMGRN_BENCH_BUILD_TYPE,
          KernelBackendName(ActiveKernelBackend()),
          std::thread::hardware_concurrency());
      std::fflush(json_out);
    }
  }
  if (json_out != nullptr) std::fclose(json_out);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace imgrn

int main(int argc, char** argv) {
  return imgrn::bench::Main(argc, argv);
}
