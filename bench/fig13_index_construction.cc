// Figure 13(a-b): index construction time (pivot selection + embedding +
// R*-tree build) vs the genes-per-matrix range and vs the database size N.
//
// Paper shape to reproduce: construction time grows with both knobs (more
// embedded points to insert).

#include <cstdio>

#include "bench/bench_common.h"
#include "common/logging.h"

namespace imgrn {
namespace bench {
namespace {

double BuildAndTime(GeneDatabase database) {
  EngineOptions engine_options;
  engine_options.index.build_threads = 0;  // Parallel build (bit-identical).
  ImGrnEngine engine(engine_options);
  engine.LoadDatabase(std::move(database));
  IMGRN_CHECK_OK(engine.BuildIndex());
  return engine.index().build_seconds();
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv, {{"n_matrices", "200"},
                           {"scale_base", "80"},
                           {"seed", "2017"}});
  const size_t n_matrices = static_cast<size_t>(flags.GetInt("n_matrices"));
  const size_t base = static_cast<size_t>(flags.GetInt("scale_base"));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed"));

  PrintHeader("Figure 13(a)",
              "index construction time vs [n_min, n_max]",
              "N=" + std::to_string(n_matrices) + " d=2");
  std::printf("dataset, n_min, n_max, build_seconds\n");
  const std::pair<size_t, size_t> ranges[] = {
      {10, 20}, {20, 50}, {50, 100}, {100, 200}, {200, 300}};
  for (const char* dataset : {"Uni", "Gau"}) {
    for (const auto& [n_min, n_max] : ranges) {
      BenchDefaults defaults;
      defaults.num_matrices = n_matrices;
      defaults.genes_min = n_min;
      defaults.genes_max = n_max;
      defaults.seed = seed;
      const double seconds =
          BuildAndTime(BuildSyntheticDatabase(dataset, defaults));
      std::printf("%s, %zu, %zu, %.4f\n", dataset, n_min, n_max, seconds);
    }
  }

  PrintHeader("Figure 13(b)", "index construction time vs N",
              "N = " + std::to_string(base) + " x {1,2,3,4,5,10}, d=2");
  std::printf("dataset, n_matrices, build_seconds\n");
  for (const char* dataset : {"Uni", "Gau"}) {
    for (size_t ratio : {1, 2, 3, 4, 5, 10}) {
      BenchDefaults defaults;
      defaults.num_matrices = base * ratio;
      defaults.seed = seed;
      const double seconds =
          BuildAndTime(BuildSyntheticDatabase(dataset, defaults));
      std::printf("%s, %zu, %.4f\n", dataset, defaults.num_matrices,
                  seconds);
    }
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace imgrn

int main(int argc, char** argv) {
  return imgrn::bench::Main(argc, argv);
}
