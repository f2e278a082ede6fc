// The repository benchmark driver. One run of one workload:
//
//   perfbench --workload <paper_mem|cold_disk|sharded_mixed> --seed <n>
//             --seconds <s> --trace <0|1> --work_dir <dir>
//
// Prints a detail line (provenance, secondary numbers, the sample count
// behind every metric) and, last, the result line
// {"correct":..,"attempted":..,"failed":..,"metrics":{..}}. With --trace 0
// the metrics are the end-to-end ones, with --trace 1 the per-layer ones.
// perfbench/run.py builds this binary and calls it.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "%s\nusage: perfbench --workload <paper_mem|cold_disk|"
               "sharded_mixed> --seed <n> --seconds <s> --trace <0|1> "
               "--work_dir <dir>\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::WorkloadOptions options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(options.seconds > 0)) {
        return Usage("--seconds must be a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace must be 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--work_dir") {
      options.work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!perfbench::IsKnownWorkload(options.workload)) {
    return Usage("unknown or missing --workload");
  }
  if (!have_seed) return Usage("--seed must be a non-negative integer");
  if (options.work_dir.empty()) return Usage("missing --work_dir");

  const perfbench::RunResult result = perfbench::RunWorkload(options);
  std::printf("%s\n", perfbench::DetailLine(result).c_str());
  std::printf("%s\n", perfbench::ResultLine(result).c_str());
  return 0;
}
