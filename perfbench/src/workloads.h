#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "harness.h"

namespace perfbench {

struct WorkloadOptions {
  std::string workload;  // paper_mem | cold_disk | sharded_mixed
  uint64_t seed = 1;
  double seconds = 10.0;
  /// Off: the end-to-end metrics. On: the per-layer metrics, from a run
  /// whose first half repeats the untraced loop and whose second half
  /// decomposes each request into spans around the layer calls.
  bool trace = false;
  /// Directory for the run's files (disk store, span dump).
  std::string work_dir;
};

/// True when `name` is one of the workloads RunWorkload knows.
bool IsKnownWorkload(const std::string& name);

RunResult RunWorkload(const WorkloadOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
