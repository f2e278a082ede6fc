// Self-tests of the benchmark's own helpers: percentile selection, the
// answer digest and the base-source restriction. Exits non-zero on the
// first failed check; perfbench/run.py runs it before every measurement.

#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "harness.h"

namespace {

int failures = 0;

void Check(bool condition, const char* what) {
  if (!condition) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

imgrn::QueryMatch Match(imgrn::SourceId source, double probability,
                        std::vector<std::pair<imgrn::GeneId, uint32_t>> map) {
  imgrn::QueryMatch match;
  match.source = source;
  match.probability = probability;
  match.mapping = std::move(map);
  return match;
}

void TestPercentile() {
  using perfbench::Percentile;
  Check(Percentile({}, 0.5) == 0.0, "empty set reads 0");
  Check(Percentile({7.0}, 0.5) == 7.0 && Percentile({7.0}, 0.99) == 7.0,
        "single sample is every percentile");
  // Nearest rank: p50 of 1..4 is the 2nd sample, p99 the 4th, regardless
  // of input order.
  Check(Percentile({4.0, 1.0, 3.0, 2.0}, 0.5) == 2.0, "p50 of 1..4 is 2");
  Check(Percentile({4.0, 1.0, 3.0, 2.0}, 0.99) == 4.0, "p99 of 1..4 is 4");
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  Check(Percentile(hundred, 0.50) == 50.0, "p50 of 1..100 is 50");
  Check(Percentile(hundred, 0.90) == 90.0, "p90 of 1..100 is 90");
  Check(Percentile(hundred, 0.99) == 99.0, "p99 of 1..100 is 99");
  Check(Percentile(hundred, 1.0) == 100.0, "p100 is the maximum");
  // A percentile is always one of the raw samples: no interpolation.
  Check(Percentile({1.0, 2.0}, 0.75) == 2.0, "no interpolation");
  Check(Percentile({0.917, 1.1, 1.193}, 0.5) == 1.1,
        "exact sample, not a bucket edge");
}

void TestDigest() {
  using perfbench::AnswerDigest;
  const std::vector<imgrn::QueryMatch> a = {Match(3, 0.5, {{10, 1}, {11, 2}}),
                                            Match(9, 0.25, {{10, 0}})};
  std::vector<imgrn::QueryMatch> same = a;
  Check(AnswerDigest(a) == AnswerDigest(same), "equal answers, equal digest");
  Check(AnswerDigest({}) != AnswerDigest(a), "empty differs from non-empty");

  std::vector<imgrn::QueryMatch> ulp = a;
  ulp[0].probability = std::nextafter(0.5, 1.0);
  Check(AnswerDigest(ulp) != AnswerDigest(a), "one-ulp probability change");

  std::vector<imgrn::QueryMatch> column = a;
  column[1].mapping[0].second = 1;
  Check(AnswerDigest(column) != AnswerDigest(a), "mapping column change");

  std::vector<imgrn::QueryMatch> source = a;
  source[1].source = 8;
  Check(AnswerDigest(source) != AnswerDigest(a), "source id change");

  std::vector<imgrn::QueryMatch> swapped = {a[1], a[0]};
  Check(AnswerDigest(swapped) != AnswerDigest(a), "order matters");

  std::vector<imgrn::QueryMatch> shorter = a;
  shorter.pop_back();
  Check(AnswerDigest(shorter) != AnswerDigest(a), "dropped match");

  std::vector<imgrn::QueryMatch> signed_zero = {Match(1, 0.0, {})};
  std::vector<imgrn::QueryMatch> negative_zero = {Match(1, -0.0, {})};
  Check(AnswerDigest(signed_zero) != AnswerDigest(negative_zero),
        "digest sees every bit");
}

void TestRestriction() {
  using perfbench::RestrictToBaseSources;
  const std::vector<imgrn::QueryMatch> served = {
      Match(2, 0.5, {{1, 0}}), Match(399, 0.6, {{1, 1}}),
      Match(400, 0.7, {{1, 2}}), Match(405, 0.8, {{1, 3}})};
  const std::vector<imgrn::QueryMatch> restricted =
      RestrictToBaseSources(served, 400);
  Check(restricted.size() == 2, "added sources dropped");
  Check(restricted[0].source == 2 && restricted[1].source == 399,
        "base sources kept in order");
  Check(perfbench::AnswerDigest(restricted) ==
            perfbench::AnswerDigest({served[0], served[1]}),
        "restriction keeps matches bit-exact");
  Check(RestrictToBaseSources(served, 0).empty(), "no base sources");
  Check(RestrictToBaseSources(served, 1000).size() == served.size(),
        "everything is base");
}

void TestResultLine() {
  perfbench::RunResult result;
  result.attempted = 3;
  result.AddMetric("query_p50_ms", 1.25, "ms", 3);
  Check(perfbench::ResultLine(result) ==
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{"
            "\"query_p50_ms\":{\"value\":1.25,\"unit\":\"ms\"}}}",
        "result line format");
  Check(perfbench::JsonNumber(std::numeric_limits<double>::infinity()) ==
            "null",
        "non-finite numbers are null");
}

}  // namespace

int main() {
  TestPercentile();
  TestDigest();
  TestRestriction();
  TestResultLine();
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
