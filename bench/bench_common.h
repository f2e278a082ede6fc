#ifndef IMGRN_BENCH_BENCH_COMMON_H_
#define IMGRN_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/engine.h"
#include "datagen/dream5_like.h"
#include "datagen/query_gen.h"
#include "datagen/synthetic.h"
#include "graph/prob_graph.h"
#include "inference/measures.h"
#include "inference/roc.h"
#include "query/query_types.h"

namespace imgrn {
namespace bench {

/// Tiny --key=value command-line parser. Unknown keys abort with a message
/// so typos are loud. Every bench documents its flags via --help.
class Flags {
 public:
  Flags(int argc, char** argv,
        std::map<std::string, std::string> defaults_and_help);

  double GetDouble(const std::string& key) const;
  int64_t GetInt(const std::string& key) const;
  std::string GetString(const std::string& key) const;

 private:
  std::map<std::string, std::string> values_;
};

/// The paper's Table-2 defaults, uniformly scaled down so the whole bench
/// suite finishes in minutes on a laptop (the scale-down map is documented
/// in EXPERIMENTS.md). Paper default -> bench default:
///   N      50K   -> 400        (x1/125)
///   [n_min, n_max] [50,100] (unchanged)
///   gamma / alpha / d / n_Q    (unchanged: 0.5 / 0.5 / 2 / 5)
struct BenchDefaults {
  size_t num_matrices = 400;
  size_t genes_min = 50;
  size_t genes_max = 100;
  size_t samples_min = 30;
  size_t samples_max = 50;
  size_t num_pivots = 2;
  size_t num_queries = 20;
  size_t query_genes = 5;
  double gamma = 0.5;
  double alpha = 0.5;
  uint64_t seed = 2017;
};

/// Builds a Uni or Gau synthetic database (Section 6.1).
GeneDatabase BuildSyntheticDatabase(const std::string& distribution,
                                    const BenchDefaults& defaults);

/// A Zipf-skewed variant of BuildSyntheticDatabase: matrix i has
/// max(genes_min, genes_max / (i+1)^exponent) genes, so a few giant
/// sources dominate the per-query cost (cost ~ genes^2 * samples) the way
/// a handful of large studies dominate a real literature corpus. The skew
/// shows what placement by id costs: source g lives on shard g mod K, so
/// the giants land wherever their ids fall, and the sharded engine's
/// imbalance gauge reads the result. exponent = 0 degenerates to every
/// matrix at genes_max.
GeneDatabase BuildZipfSkewedDatabase(const std::string& distribution,
                                     const BenchDefaults& defaults,
                                     double exponent);

/// Builds the paper's "Real" combined data set: N/3 random l x n
/// sub-matrices extracted from each of the three DREAM5-like organism
/// surrogates (gene ids offset per organism so labels stay global).
GeneDatabase BuildRealCombinedDatabase(const BenchDefaults& defaults,
                                       double organism_scale = 0.15);

/// Extracts `count` query GRN graphs (the paper's 20-query workload):
/// connected n_Q-gene queries inferred at `gamma` from random database
/// matrices. Queries that cannot be extracted are skipped (rare).
std::vector<ProbGraph> MakeQueryWorkload(const GeneDatabase& database,
                                         const BenchDefaults& defaults);

/// Aggregated workload metrics: what the paper's per-figure series report.
struct WorkloadResult {
  double mean_cpu_seconds = 0.0;
  double mean_io_pages = 0.0;
  double mean_candidates = 0.0;
  double mean_answers = 0.0;
  size_t queries = 0;
};

/// Median, min and max of repeated measurements (median = upper middle).
struct Spread {
  double median;
  double min;
  double max;
};
Spread Summarize(std::vector<double> samples);

/// Runs every query through the engine's IM-GRN processor and averages.
WorkloadResult RunWorkload(const ImGrnEngine& engine,
                           const std::vector<ProbGraph>& queries,
                           const QueryParams& params);

/// Prints a header comment block (figure id + configuration echo).
void PrintHeader(const std::string& figure, const std::string& description,
                 const std::string& config);

/// One ROC series of a Section-6.2-style accuracy figure.
struct RocSeries {
  std::string label;
  std::vector<RocPoint> points;
  double auc = 0.0;
};

/// Scores `matrix` with `measure` and sweeps the paper's 0..1 thresholds.
RocSeries ComputeRocSeries(const std::string& label, const GeneMatrix& matrix,
                           const GoldStandard& gold, InferenceMeasure measure,
                           const ScoreOptions& options);

/// Prints every series as "label, threshold, fpr, tpr" rows followed by an
/// AUC summary block — the data behind the paper's ROC figures.
void PrintRocSeries(const std::vector<RocSeries>& series);

/// Noise sigma used for the "+ noise" variants, calibrated to the
/// surrogate's value scale (see DESIGN.md substitution #1): half of the
/// matrix's overall standard deviation, playing the role of the paper's
/// N(0, 0.3) on raw microarray units.
double CalibratedNoiseSigma(const GeneMatrix& matrix);

/// Applies the full "+ noise" treatment of the ROC benches: calibrated
/// Gaussian noise plus sparse heavy-tailed outlier spikes (3% rate, 6 sigma)
/// modeling microarray measurement artifacts; see AddOutlierNoise.
void ApplyNoiseTreatment(GeneMatrix* matrix, Rng* rng);

}  // namespace bench
}  // namespace imgrn

#endif  // IMGRN_BENCH_BENCH_COMMON_H_
