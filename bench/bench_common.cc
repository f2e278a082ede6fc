#include "bench/bench_common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <unordered_set>

#include "common/logging.h"
#include "common/random.h"
#include "inference/grn_inference.h"

namespace imgrn {
namespace bench {

Flags::Flags(int argc, char** argv,
             std::map<std::string, std::string> defaults_and_help)
    : values_(std::move(defaults_and_help)) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fprintf(stderr, "flags (--key=value):\n");
      for (const auto& [key, value] : values_) {
        std::fprintf(stderr, "  --%s (default: %s)\n", key.c_str(),
                     value.c_str());
      }
      std::exit(0);
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unrecognized argument: %s\n", arg.c_str());
      std::exit(1);
    }
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "flag without value: %s\n", arg.c_str());
      std::exit(1);
    }
    const std::string key = arg.substr(2, eq - 2);
    if (!values_.contains(key)) {
      std::fprintf(stderr, "unknown flag: --%s (try --help)\n", key.c_str());
      std::exit(1);
    }
    values_[key] = arg.substr(eq + 1);
  }
}

double Flags::GetDouble(const std::string& key) const {
  auto it = values_.find(key);
  IMGRN_CHECK(it != values_.end()) << "unknown flag " << key;
  return std::strtod(it->second.c_str(), nullptr);
}

int64_t Flags::GetInt(const std::string& key) const {
  auto it = values_.find(key);
  IMGRN_CHECK(it != values_.end()) << "unknown flag " << key;
  return std::strtoll(it->second.c_str(), nullptr, 10);
}

std::string Flags::GetString(const std::string& key) const {
  auto it = values_.find(key);
  IMGRN_CHECK(it != values_.end()) << "unknown flag " << key;
  // Stored defaults carry their help text ("value | help"); a value the
  // user passed replaced the whole string. Strip the suffix so a default
  // reads back as just the value — without this, a string flag left at
  // its default (e.g. --partition) hands the help text to the consumer.
  const size_t sep = it->second.find(" | ");
  return sep == std::string::npos ? it->second : it->second.substr(0, sep);
}

GeneDatabase BuildSyntheticDatabase(const std::string& distribution,
                                    const BenchDefaults& defaults) {
  SyntheticConfig config;
  config.num_matrices = defaults.num_matrices;
  config.genes_min = defaults.genes_min;
  config.genes_max = defaults.genes_max;
  config.samples_min = defaults.samples_min;
  config.samples_max = defaults.samples_max;
  config.weight_distribution = distribution == "Gau"
                                   ? EdgeWeightDistribution::kGaussian
                                   : EdgeWeightDistribution::kUniform;
  // Keep the gene universe proportional to N (as a real literature corpus
  // would be) so per-gene co-occurrence — and with it the candidate count —
  // stays flat as the database grows, matching the paper's Fig. 12 shape.
  config.gene_universe = std::max<GeneId>(
      1000, static_cast<GeneId>(defaults.num_matrices * 5 / 2));
  config.seed = defaults.seed;
  return GenerateSyntheticDatabase(config);
}

GeneDatabase BuildZipfSkewedDatabase(const std::string& distribution,
                                     const BenchDefaults& defaults,
                                     double exponent) {
  SyntheticConfig config;
  config.num_matrices = defaults.num_matrices;
  config.genes_min = defaults.genes_min;
  config.genes_max = defaults.genes_max;
  config.samples_min = defaults.samples_min;
  config.samples_max = defaults.samples_max;
  config.weight_distribution = distribution == "Gau"
                                   ? EdgeWeightDistribution::kGaussian
                                   : EdgeWeightDistribution::kUniform;
  config.gene_universe = std::max<GeneId>(
      1000, static_cast<GeneId>(defaults.num_matrices * 5 / 2));
  config.seed = defaults.seed;

  GeneDatabase database;
  Rng rng(config.seed ^ 0x21BFu);
  for (SourceId i = 0; i < config.num_matrices; ++i) {
    const double scale = std::pow(static_cast<double>(i + 1), -exponent);
    const size_t num_genes = std::max(
        config.genes_min,
        static_cast<size_t>(static_cast<double>(config.genes_max) * scale));
    const size_t num_samples =
        config.samples_min +
        rng.UniformUint64(config.samples_max - config.samples_min + 1);
    database.Add(
        GenerateSyntheticMatrix(i, num_genes, num_samples, config, &rng));
  }
  return database;
}

GeneDatabase BuildRealCombinedDatabase(const BenchDefaults& defaults,
                                       double organism_scale) {
  // One surrogate per organism; database matrices are random sub-matrices.
  const Organism organisms[] = {Organism::kEcoli, Organism::kSaureus,
                                Organism::kScerevisiae};
  std::vector<Dream5DataSet> surrogates;
  for (int o = 0; o < 3; ++o) {
    Dream5LikeConfig config;
    config.organism = organisms[o];
    config.scale = organism_scale;
    config.sample_scale = 2.0;
    config.seed = defaults.seed + static_cast<uint64_t>(o);
    surrogates.push_back(GenerateDream5Like(config));
  }

  Rng rng(defaults.seed ^ 0xFEEDu);
  GeneDatabase database;
  for (SourceId i = 0; i < defaults.num_matrices; ++i) {
    const int o = static_cast<int>(i % 3);
    const GeneMatrix& big = surrogates[static_cast<size_t>(o)].matrix;
    const size_t n = std::min<size_t>(
        big.num_genes(),
        static_cast<size_t>(rng.UniformInt(
            static_cast<int>(defaults.genes_min),
            static_cast<int>(defaults.genes_max))));
    const size_t l = std::min<size_t>(
        big.num_samples(),
        static_cast<size_t>(rng.UniformInt(
            static_cast<int>(defaults.samples_min),
            static_cast<int>(defaults.samples_max))));
    // Random column and row subsets.
    std::vector<size_t> columns(big.num_genes());
    for (size_t c = 0; c < columns.size(); ++c) columns[c] = c;
    rng.Shuffle(&columns);
    columns.resize(n);
    std::vector<size_t> rows(big.num_samples());
    for (size_t r = 0; r < rows.size(); ++r) rows[r] = r;
    rng.Shuffle(&rows);
    rows.resize(l);

    // Gene ids offset by organism so labels are globally unique.
    std::vector<GeneId> ids;
    ids.reserve(n);
    for (size_t c : columns) {
      ids.push_back(big.gene_id(c) +
                    static_cast<GeneId>(o) * 100000u);
    }
    GeneMatrix sub(i, l, std::move(ids));
    for (size_t c = 0; c < n; ++c) {
      for (size_t r = 0; r < l; ++r) {
        sub.At(r, c) = big.At(rows[r], columns[c]);
      }
    }
    database.Add(std::move(sub));
  }
  return database;
}

std::vector<ProbGraph> MakeQueryWorkload(const GeneDatabase& database,
                                         const BenchDefaults& defaults) {
  Rng rng(defaults.seed ^ 0xABCDu);
  QueryGenConfig config;
  config.num_genes = defaults.query_genes;
  config.gamma = defaults.gamma;
  std::vector<ProbGraph> queries;
  for (size_t q = 0; q < defaults.num_queries; ++q) {
    Result<GeneMatrix> matrix = ExtractQueryMatrix(database, config, &rng);
    if (!matrix.ok()) continue;
    GrnInferenceOptions options;
    options.seed = defaults.seed + q;
    ProbGraph query = InferGrn(*matrix, defaults.gamma, options);
    if (query.num_edges() == 0) continue;
    queries.push_back(std::move(query));
  }
  IMGRN_CHECK(!queries.empty())
      << "query workload generation produced no usable queries";
  return queries;
}

Spread Summarize(std::vector<double> samples) {
  IMGRN_CHECK(!samples.empty());
  std::sort(samples.begin(), samples.end());
  return {samples[samples.size() / 2], samples.front(), samples.back()};
}

WorkloadResult RunWorkload(const ImGrnEngine& engine,
                           const std::vector<ProbGraph>& queries,
                           const QueryParams& params) {
  WorkloadResult result;
  for (const ProbGraph& query : queries) {
    QueryStats stats;
    Result<std::vector<QueryMatch>> matches =
        engine.QueryWithGraph(query, params, &stats);
    IMGRN_CHECK(matches.ok()) << matches.status().ToString();
    result.mean_cpu_seconds += stats.total_seconds;
    result.mean_io_pages += static_cast<double>(stats.page_accesses);
    result.mean_candidates += static_cast<double>(stats.candidate_pairs);
    result.mean_answers += static_cast<double>(stats.answers);
    ++result.queries;
  }
  if (result.queries > 0) {
    const double n = static_cast<double>(result.queries);
    result.mean_cpu_seconds /= n;
    result.mean_io_pages /= n;
    result.mean_candidates /= n;
    result.mean_answers /= n;
  }
  return result;
}

void PrintHeader(const std::string& figure, const std::string& description,
                 const std::string& config) {
  std::printf("# %s — %s\n", figure.c_str(), description.c_str());
  std::printf("# config: %s\n", config.c_str());
}

RocSeries ComputeRocSeries(const std::string& label, const GeneMatrix& matrix,
                           const GoldStandard& gold, InferenceMeasure measure,
                           const ScoreOptions& options) {
  Result<DenseMatrix> scores = ComputeScoreMatrix(matrix, measure, options);
  IMGRN_CHECK(scores.ok()) << scores.status().ToString();
  RocCurve roc(*scores, gold, RocCurve::UniformThresholds(0.01));
  RocSeries series;
  series.label = label;
  series.points = roc.points();
  series.auc = roc.Auc();
  return series;
}

void PrintRocSeries(const std::vector<RocSeries>& series) {
  std::printf("series, threshold, fpr, tpr\n");
  for (const RocSeries& s : series) {
    for (const RocPoint& point : s.points) {
      std::printf("%s, %.2f, %.4f, %.4f\n", s.label.c_str(), point.threshold,
                  point.false_positive_rate, point.true_positive_rate);
    }
  }
  std::printf("\n# AUC summary\n");
  for (const RocSeries& s : series) {
    std::printf("# AUC %-28s %.4f\n", s.label.c_str(), s.auc);
  }
}

void ApplyNoiseTreatment(GeneMatrix* matrix, Rng* rng) {
  AddGaussianNoise(matrix, CalibratedNoiseSigma(*matrix), rng);
  AddOutlierNoise(matrix, /*rate=*/0.03, /*magnitude=*/6.0, rng);
}

double CalibratedNoiseSigma(const GeneMatrix& matrix) {
  double sum = 0.0;
  double sum_sq = 0.0;
  for (double value : matrix.data()) {
    sum += value;
    sum_sq += value * value;
  }
  const double count = static_cast<double>(matrix.data().size());
  const double mean = sum / count;
  const double variance = sum_sq / count - mean * mean;
  return 0.5 * std::sqrt(std::max(0.0, variance));
}

}  // namespace bench
}  // namespace imgrn
