#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "query/query_types.h"

namespace perfbench {

/// Monotonic clock in nanoseconds (steady_clock).
int64_t NowNs();

/// Nearest-rank percentile of `samples`: the smallest sample such that at
/// least a fraction `p` of all samples are <= it. `p` in (0, 1]. Every
/// reported percentile is one of the raw samples, never an interpolation
/// or a histogram bucket edge. Returns 0 for an empty set.
double Percentile(std::vector<double> samples, double p);

double Mean(const std::vector<double>& samples);

/// Order-sensitive FNV-1a digest over every bit of an answer: each match's
/// source id, the IEEE bits of its probability and its mapping. Two answers
/// have equal digests iff they are bit-identical (up to hash collisions).
uint64_t AnswerDigest(const std::vector<imgrn::QueryMatch>& matches);

/// Keeps the matches whose source id is below `num_base_sources`: the base
/// sources a workload loaded at set-up, as opposed to the ones it added
/// while running. Matches are deterministic per source, so the restricted
/// answer of an engine holding extra sources equals the answer of an engine
/// holding only the base sources.
std::vector<imgrn::QueryMatch> RestrictToBaseSources(
    std::vector<imgrn::QueryMatch> matches, size_t num_base_sources);

/// One timed interval around a call into a layer. Spans of one request
/// share `request`; `parent` is the id of the enclosing span (0 = root).
struct Span {
  uint64_t request = 0;
  uint32_t id = 0;
  uint32_t parent = 0;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Single-threaded in-memory span recorder; written out once at the end
/// of a run.
class Tracer {
 public:
  /// Opens a span and returns its id (ids start at 1).
  uint32_t Open(const char* name, uint64_t request, uint32_t parent);
  void Close(uint32_t id);

  /// Summed duration of every span called `name`, in milliseconds, divided
  /// by `num_requests` (requests without such a span count as zero).
  double MeanMsPerRequest(const std::string& name, size_t num_requests) const;

  /// Writes the spans as JSON lines. Returns false on an I/O error.
  bool Dump(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t request,
             uint32_t parent = 0)
      : tracer_(tracer), id_(tracer->Open(name, request, parent)) {}
  ~ScopedSpan() { tracer_->Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  uint32_t id_;
};

/// One reported metric with its unit and how many samples it came from.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
};

/// The run's outcome: the result line's four fields plus free-form detail
/// (provenance, sample counts, secondary numbers) printed before it.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::vector<Metric> metrics;
  std::map<std::string, std::string> details;  // key -> JSON value text

  void AddMetric(const std::string& name, double value,
                 const std::string& unit, size_t samples) {
    metrics.push_back(Metric{name, value, unit, samples});
  }
  void AddDetail(const std::string& key, double value);
  void AddDetail(const std::string& key, const std::string& text);
};

/// JSON number text with every significant digit ("null" for non-finite).
std::string JsonNumber(double value);

/// The contract's last stdout line:
/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
std::string ResultLine(const RunResult& result);

/// A JSON object with the details, and the sample count behind each metric.
std::string DetailLine(const RunResult& result);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
