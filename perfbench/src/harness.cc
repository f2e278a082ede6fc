#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

void Mix(uint64_t* hash, uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    *hash ^= (value >> (8 * byte)) & 0xffu;
    *hash *= kFnvPrime;
  }
}

}  // namespace

uint64_t AnswerDigest(const std::vector<imgrn::QueryMatch>& matches) {
  uint64_t hash = kFnvOffset;
  Mix(&hash, matches.size());
  for (const imgrn::QueryMatch& match : matches) {
    Mix(&hash, match.source);
    uint64_t bits = 0;
    std::memcpy(&bits, &match.probability, sizeof(bits));
    Mix(&hash, bits);
    Mix(&hash, match.mapping.size());
    for (const auto& [gene, column] : match.mapping) {
      Mix(&hash, (static_cast<uint64_t>(gene) << 32) | column);
    }
  }
  return hash;
}

std::vector<imgrn::QueryMatch> RestrictToBaseSources(
    std::vector<imgrn::QueryMatch> matches, size_t num_base_sources) {
  std::erase_if(matches, [num_base_sources](const imgrn::QueryMatch& m) {
    return m.source >= num_base_sources;
  });
  return matches;
}

uint32_t Tracer::Open(const char* name, uint64_t request, uint32_t parent) {
  Span span;
  span.request = request;
  span.id = static_cast<uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.name = name;
  span.start_ns = NowNs();
  spans_.push_back(span);
  return span.id;
}

void Tracer::Close(uint32_t id) {
  spans_[id - 1].end_ns = NowNs();
}

double Tracer::MeanMsPerRequest(const std::string& name,
                                size_t num_requests) const {
  if (num_requests == 0) return 0.0;
  int64_t total_ns = 0;
  for (const Span& span : spans_) {
    if (name == span.name) total_ns += span.end_ns - span.start_ns;
  }
  return static_cast<double>(total_ns) * 1e-6 /
         static_cast<double>(num_requests);
}

bool Tracer::Dump(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  for (const Span& span : spans_) {
    std::fprintf(file,
                 "{\"request\":%llu,\"id\":%u,\"parent\":%u,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 static_cast<unsigned long long>(span.request), span.id,
                 span.parent, span.name,
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns));
  }
  return std::fclose(file) == 0;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void RunResult::AddDetail(const std::string& key, double value) {
  details[key] = JsonNumber(value);
}

void RunResult::AddDetail(const std::string& key, const std::string& text) {
  details[key] = "\"" + text + "\"";
}

std::string ResultLine(const RunResult& result) {
  std::string line = "{\"correct\":";
  line += result.correct ? "true" : "false";
  line += ",\"attempted\":" + std::to_string(result.attempted);
  line += ",\"failed\":" + std::to_string(result.failed);
  line += ",\"metrics\":{";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& metric = result.metrics[i];
    if (i > 0) line += ",";
    line += "\"" + metric.name + "\":{\"value\":" + JsonNumber(metric.value) +
            ",\"unit\":\"" + metric.unit + "\"}";
  }
  line += "}}";
  return line;
}

std::string DetailLine(const RunResult& result) {
  std::string line = "{\"details\":{";
  bool first = true;
  for (const auto& [key, value] : result.details) {
    if (!first) line += ",";
    first = false;
    line += "\"" + key + "\":" + value;
  }
  line += "},\"samples\":{";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    if (i > 0) line += ",";
    line += "\"" + result.metrics[i].name +
            "\":" + std::to_string(result.metrics[i].samples);
  }
  line += "}}";
  return line;
}

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

}  // namespace perfbench
