// imgrn — the command-line prototype system the paper's Section 8
// envisions: organize gene feature data from various sources, build the
// IM-GRN index once, and serve ad-hoc IM-GRN queries.
//
// Subcommands:
//   imgrn generate --out=db.txt [--n_matrices=100] [--dist=Uni|Gau] ...
//       Generate a synthetic gene feature database (Section 6.1 model).
//   imgrn query --db=db.txt --query=q.txt
//               [--gamma=0.5] [--alpha=0.5] [--top_k=0] [--shards=1]
//               [--replicas=1]
//       Build the index in memory and run one IM-GRN query through the
//       serving engine (service/sharded_engine.h); q.txt is a gene matrix
//       file (matrix_io.h). To query a persisted, disk-backed index, use
//       `snapshot load --query`.
//       --shards=K partitions the database across K in-memory engines and
//       fans the query out; K = 1, the default, is one unpartitioned
//       engine. Source g lives on shard g mod K, and the matches are
//       identical for every K by construction. The shard load imbalance,
//       estimated from genes² × samples per source and measured as
//       sub-query busy time, goes to stderr.
//       --replicas=R > 1 mirrors every shard across R replicas
//       (service/replica_set.h): updates apply to all replicas in lock
//       step and each sub-query is served by one replica picked
//       round-robin, so the matches are identical to --replicas=1 by
//       construction. The replicas share this process's cores, so they
//       add no read throughput (R = 2 served the same qps as R = 1 within
//       5% on the sharded_mixed benchmark workload without writes) while
//       doubling build time and update latency; replica routing will be
//       deleted once that workload moves to R = 1.
//       A failed sub-query fails the whole query, as on one engine: the
//       command prints the error and exits 1.
//   imgrn snapshot save --db=db.txt --store=disk:FILE [--pivots=2]
//               [--seed=7]
//   imgrn snapshot load --store=disk:FILE [--query=q.txt] [--gamma=0.5]
//               [--alpha=0.5] [--top_k=0] [--seed=99]
//       Durable whole-system snapshots (index/snapshot.h), the one way to
//       persist a built index: `save` ingests the database, builds the
//       index and persists database + index + R*-tree pages into the
//       store with a crash-safe commit; `load` reopens the store and
//       restores everything WITHOUT re-ingesting or re-building — the
//       instant-cold-start path — then optionally answers a query against
//       the restored engine. A `save` into a file that already holds a
//       snapshot replaces it and reuses its pages, so saving again does
//       not grow the file.
//   imgrn extract-query --db=db.txt --out=q.txt [--genes=5] [--gamma=0.5]
//       Extract a connected query matrix from the database (for demos).
//   imgrn infer --matrix=m.txt [--measure=imgrn] [--gamma=0.5]
//       Infer and print the GRN of a single matrix.
//   imgrn kernels
//       Print the SIMD kernel backends (matrix/simd_ops.h): which table
//       CPUID selected for this machine, which one is active after the
//       IMGRN_FORCE_SCALAR override, and the override's raw value; then
//       the CRC32C path (common/crc32c.h), which the override does not
//       touch. Used by tools/ci_sanitize.sh to record which backend a
//       differential run actually exercised.
//
// Databases and queries are the plain-text format of matrix_io.h; a built
// index persists only as a snapshot (index/snapshot.h).
//
// Every flag is --key=value. A numeric value must parse completely and be
// in range, and counts, sizes and seeds must not be negative; otherwise
// the command exits 2 naming the flag, like an unknown flag. In range
// means: thresholds (--gamma, --alpha; infer's --gamma only for the imgrn
// measure) in [0, 1); Monte Carlo counts (--samples) in
// [1, kMaxPermutationSamples]; --genes at least 1; --pivots at least 1
// and few enough that an R*-tree node of kMinNodeCapacity entries fits a
// page; generate's minimums at least 2, each maximum at least its
// minimum, and --gene_universe from --genes_max to the largest gene id. A
// choice flag (--dist, --measure) must name one of its values.

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <string>

#include "common/crc32c.h"
#include "core/imgrn.h"
#include "matrix/simd_ops.h"
#include "service/sharded_engine.h"
#include "service/thread_pool.h"
#include "storage/storage_manager.h"

namespace imgrn {
namespace cli {
namespace {

/// --key=value parser with defaults; unknown keys and malformed numbers
/// are fatal.
class Args {
 public:
  Args(int argc, char** argv, int first,
       std::map<std::string, std::string> defaults)
      : values_(std::move(defaults)) {
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      const size_t eq = arg.find('=');
      if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
        std::fprintf(stderr, "bad argument: %s\n", arg.c_str());
        std::exit(2);
      }
      const std::string key = arg.substr(2, eq - 2);
      if (!values_.contains(key)) {
        std::fprintf(stderr, "unknown flag --%s for this subcommand\n",
                     key.c_str());
        std::exit(2);
      }
      values_[key] = arg.substr(eq + 1);
    }
  }

  std::string Get(const std::string& key) const { return values_.at(key); }

  /// The value as a finite double.
  double GetDouble(const std::string& key) const {
    const std::string& text = values_.at(key);
    char* end = nullptr;
    errno = 0;
    const double value = std::strtod(text.c_str(), &end);
    if (text.empty() || *end != '\0' || errno == ERANGE ||
        !std::isfinite(value)) {
      BadValue(key);
    }
    return value;
  }

  /// The value as a base-10 int64.
  int64_t GetInt(const std::string& key) const {
    const std::string& text = values_.at(key);
    char* end = nullptr;
    errno = 0;
    const long long value = std::strtoll(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0' || errno == ERANGE) BadValue(key);
    return value;
  }

  /// GetInt for counts, sizes and seeds: negative values are rejected too.
  uint64_t GetCount(const std::string& key) const {
    const int64_t value = GetInt(key);
    if (value < 0) BadValue(key);
    return static_cast<uint64_t>(value);
  }

  /// GetCount within [min, max].
  uint64_t GetCountIn(
      const std::string& key, uint64_t min,
      uint64_t max = std::numeric_limits<uint64_t>::max()) const {
    const uint64_t value = GetCount(key);
    if (value < min || value > max) BadValue(key);
    return value;
  }

  /// GetDouble for a probability threshold, in [0, 1).
  double GetThreshold(const std::string& key) const {
    const double value = GetDouble(key);
    if (!(value >= 0.0 && value < 1.0)) BadValue(key);
    return value;
  }

  bool Has(const std::string& key) const {
    return !values_.at(key).empty();
  }

  /// Exits 2 naming the flag: for a value out of range.
  [[noreturn]] void BadValue(const std::string& key) const {
    std::fprintf(stderr, "bad value for --%s: '%s'\n", key.c_str(),
                 values_.at(key).c_str());
    std::exit(2);
  }

 private:
  std::map<std::string, std::string> values_;
};

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int CmdGenerate(int argc, char** argv) {
  Args args(argc, argv, 2,
            {{"out", ""},
             {"n_matrices", "100"},
             {"genes_min", "50"},
             {"genes_max", "100"},
             {"samples_min", "30"},
             {"samples_max", "50"},
             {"gene_universe", "1000"},
             {"dist", "Uni"},
             {"seed", "2017"}});
  if (!args.Has("out")) {
    std::fprintf(stderr, "generate requires --out=FILE\n");
    return 2;
  }
  // The linear model needs two genes and two samples per matrix, draws
  // each size as an int, and draws a matrix's gene ids without repeats
  // from the universe.
  constexpr uint64_t kMaxSize = std::numeric_limits<int>::max();
  SyntheticConfig config;
  config.num_matrices = args.GetCount("n_matrices");
  config.genes_min = args.GetCountIn("genes_min", 2, kMaxSize);
  config.genes_max = args.GetCountIn("genes_max", config.genes_min, kMaxSize);
  config.samples_min = args.GetCountIn("samples_min", 2, kMaxSize);
  config.samples_max =
      args.GetCountIn("samples_max", config.samples_min, kMaxSize);
  config.gene_universe = static_cast<GeneId>(args.GetCountIn(
      "gene_universe", config.genes_max, std::numeric_limits<GeneId>::max()));
  const std::string dist = args.Get("dist");
  if (dist != "Uni" && dist != "Gau") {
    std::fprintf(stderr, "bad value for --dist: '%s' (Uni or Gau)\n",
                 dist.c_str());
    return 2;
  }
  config.weight_distribution = dist == "Gau"
                                   ? EdgeWeightDistribution::kGaussian
                                   : EdgeWeightDistribution::kUniform;
  config.seed = args.GetCount("seed");
  GeneDatabase database = GenerateSyntheticDatabase(config);
  Status status = SaveGeneDatabase(database, args.Get("out"));
  if (!status.ok()) return Fail(status);
  std::printf("wrote %zu matrices (%zu gene vectors) to %s\n",
              database.size(), database.TotalGeneVectors(),
              args.Get("out").c_str());
  return 0;
}

/// Shared result printer of `query` and `snapshot load`.
void PrintMatches(const std::vector<QueryMatch>& matches) {
  for (const QueryMatch& match : matches) {
    std::printf("match source=%u Pr=%.4f mapping:", match.source,
                match.probability);
    for (const auto& [gene, column] : match.mapping) {
      std::printf(" g%u->c%u", gene, column);
    }
    std::printf("\n");
  }
}

int CmdQuery(int argc, char** argv) {
  Args args(argc, argv, 2,
            {{"db", ""},
             {"query", ""},
             {"gamma", "0.5"},
             {"alpha", "0.5"},
             {"top_k", "0"},
             {"shards", "1"},
             {"replicas", "1"},
             {"seed", "99"}});
  if (!args.Has("db") || !args.Has("query")) {
    std::fprintf(stderr, "query requires --db=FILE --query=FILE\n");
    return 2;
  }
  const size_t shards = args.GetCount("shards");
  if (shards == 0) {
    std::fprintf(stderr, "--shards must be >= 1\n");
    return 2;
  }
  const size_t replicas = args.GetCount("replicas");
  if (replicas == 0) {
    std::fprintf(stderr, "--replicas must be >= 1\n");
    return 2;
  }
  Result<GeneDatabase> database = LoadGeneDatabase(args.Get("db"));
  if (!database.ok()) return Fail(database.status());
  Result<GeneMatrix> query_matrix = LoadGeneMatrix(args.Get("query"));
  if (!query_matrix.ok()) return Fail(query_matrix.status());

  QueryParams params;
  params.gamma = args.GetThreshold("gamma");
  params.alpha = args.GetThreshold("alpha");
  params.top_k = args.GetCount("top_k");
  params.seed = args.GetCount("seed");

  std::fprintf(stderr, "(%zu in-memory shards x %zu replicas)\n", shards,
               replicas);
  ThreadPool pool;
  ShardedEngineOptions options;
  options.num_shards = shards;
  options.num_replicas = replicas;
  ShardedEngine engine(options, &pool);
  engine.LoadDatabase(std::move(*database));
  Status status = engine.BuildIndex();
  if (!status.ok()) return Fail(status);
  QueryStats stats;
  Result<std::vector<QueryMatch>> matches =
      engine.Query(*query_matrix, params, &stats);
  const ShardedEngineStatsSnapshot snapshot = engine.StatsSnapshot();
  std::fprintf(stderr,
               "(shard load imbalance=%.3f measured_imbalance=%.3f, "
               "max/mean, estimated / measured)\n",
               snapshot.imbalance, snapshot.measured_imbalance);
  if (!matches.ok()) return Fail(matches.status());

  std::printf("query: %zu genes, %zu inferred edges (gamma=%.2f)\n",
              stats.query_vertices, stats.query_edges, params.gamma);
  std::printf("stats: %.4f s CPU, %llu page accesses, %zu candidates, "
              "%zu answers\n",
              stats.total_seconds,
              static_cast<unsigned long long>(stats.page_accesses),
              stats.candidate_pairs, matches->size());
  PrintMatches(*matches);
  return 0;
}

int CmdSnapshotSave(int argc, char** argv) {
  Args args(argc, argv, 3,
            {{"db", ""}, {"store", ""}, {"pivots", "2"}, {"seed", "7"}});
  if (!args.Has("db") || !args.Has("store")) {
    std::fprintf(stderr,
                 "snapshot save requires --db=FILE --store=disk:FILE\n");
    return 2;
  }
  Result<StorageOptions> store = ParseStoreSpec(args.Get("store"));
  if (!store.ok()) {
    std::fprintf(stderr, "--store: %s\n", store.status().message().c_str());
    return 2;
  }
  EngineOptions options;
  options.index.num_pivots = args.GetCountIn("pivots", 1);
  // So many pivots that no R*-tree node of their 2d+1-dimensional entries
  // fits a page is an input error too.
  if (RTreeNodeCapacity(IndexTreeOptions(options.index)) < kMinNodeCapacity) {
    args.BadValue("pivots");
  }
  options.index.seed = args.GetCount("seed");
  options.storage = *store;

  Result<GeneDatabase> database = LoadGeneDatabase(args.Get("db"));
  if (!database.ok()) return Fail(database.status());
  ImGrnEngine engine(options);
  engine.LoadDatabase(std::move(*database));
  Status status = engine.BuildIndex();
  if (!status.ok()) return Fail(status);
  status = engine.SaveSnapshot();
  if (!status.ok()) return Fail(status);
  std::printf("snapshot saved: %zu matrices, R*-tree of %zu nodes "
              "(height %d) -> %s\n",
              engine.database().size(), engine.index().rtree().num_nodes(),
              engine.index().rtree().height(), args.Get("store").c_str());
  return 0;
}

int CmdSnapshotLoad(int argc, char** argv) {
  Args args(argc, argv, 3,
            {{"store", ""},
             {"query", ""},
             {"gamma", "0.5"},
             {"alpha", "0.5"},
             {"top_k", "0"},
             {"seed", "99"}});
  if (!args.Has("store")) {
    std::fprintf(stderr, "snapshot load requires --store=disk:FILE\n");
    return 2;
  }
  Result<StorageOptions> store = ParseStoreSpec(args.Get("store"));
  if (!store.ok()) {
    std::fprintf(stderr, "--store: %s\n", store.status().message().c_str());
    return 2;
  }
  // Opening a disk store creates a missing file; a load must not leave one
  // behind for a mistyped path.
  if (store->backend == StorageBackend::kDisk &&
      !std::filesystem::exists(store->path)) {
    return Fail(Status::NotFound("no store file " + store->path));
  }
  EngineOptions options;
  options.storage = *store;
  ImGrnEngine engine(options);
  const auto start = std::chrono::steady_clock::now();
  Status status = engine.LoadSnapshot();
  if (!status.ok()) return Fail(status);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  std::printf("cold start in %.4f s: %zu matrices, R*-tree of %zu nodes "
              "(height %d) restored from %s\n",
              seconds, engine.database().size(),
              engine.index().rtree().num_nodes(),
              engine.index().rtree().height(), args.Get("store").c_str());
  if (!args.Has("query")) return 0;

  Result<GeneMatrix> query_matrix = LoadGeneMatrix(args.Get("query"));
  if (!query_matrix.ok()) return Fail(query_matrix.status());
  QueryParams params;
  params.gamma = args.GetThreshold("gamma");
  params.alpha = args.GetThreshold("alpha");
  params.top_k = args.GetCount("top_k");
  params.seed = args.GetCount("seed");
  QueryStats stats;
  Result<std::vector<QueryMatch>> matches =
      engine.Query(*query_matrix, params, &stats);
  if (!matches.ok()) return Fail(matches.status());
  std::printf("stats: %.4f s CPU, %llu page accesses, %zu candidates, "
              "%zu answers\n",
              stats.total_seconds,
              static_cast<unsigned long long>(stats.page_accesses),
              stats.candidate_pairs, matches->size());
  PrintMatches(*matches);
  return 0;
}

int CmdSnapshot(int argc, char** argv) {
  if (argc >= 3 && std::strcmp(argv[2], "save") == 0) {
    return CmdSnapshotSave(argc, argv);
  }
  if (argc >= 3 && std::strcmp(argv[2], "load") == 0) {
    return CmdSnapshotLoad(argc, argv);
  }
  std::fprintf(stderr,
               "usage: imgrn snapshot <save|load> --store=disk:FILE ...\n");
  return 2;
}

int CmdExtractQuery(int argc, char** argv) {
  Args args(argc, argv, 2,
            {{"db", ""},
             {"out", ""},
             {"genes", "5"},
             {"gamma", "0.5"},
             {"seed", "4242"}});
  if (!args.Has("db") || !args.Has("out")) {
    std::fprintf(stderr, "extract-query requires --db=FILE --out=FILE\n");
    return 2;
  }
  Result<GeneDatabase> database = LoadGeneDatabase(args.Get("db"));
  if (!database.ok()) return Fail(database.status());
  QueryGenConfig config;
  config.num_genes = args.GetCountIn("genes", 1);
  config.gamma = args.GetThreshold("gamma");
  Rng rng(args.GetCount("seed"));
  Result<GeneMatrix> query = ExtractQueryMatrix(*database, config, &rng);
  if (!query.ok()) return Fail(query.status());
  Status status = SaveGeneMatrix(*query, args.Get("out"));
  if (!status.ok()) return Fail(status);
  std::printf("wrote %zu-gene query matrix to %s (genes:", query->num_genes(),
              args.Get("out").c_str());
  for (GeneId gene : query->gene_ids()) std::printf(" %u", gene);
  std::printf(")\n");
  return 0;
}

int CmdInfer(int argc, char** argv) {
  Args args(argc, argv, 2,
            {{"matrix", ""},
             {"measure", "imgrn"},
             {"gamma", "0.5"},
             {"samples", "128"},
             {"seed", "42"}});
  if (!args.Has("matrix")) {
    std::fprintf(stderr, "infer requires --matrix=FILE\n");
    return 2;
  }
  Result<GeneMatrix> matrix = LoadGeneMatrix(args.Get("matrix"));
  if (!matrix.ok()) return Fail(matrix.status());

  if (args.Get("measure") == "imgrn") {
    const double gamma = args.GetThreshold("gamma");
    GrnInferenceOptions options;
    options.num_samples =
        args.GetCountIn("samples", 1, kMaxPermutationSamples);
    options.seed = args.GetCount("seed");
    GrnInferenceStats stats;
    const ProbGraph grn = InferGrn(*matrix, gamma, options, &stats);
    std::printf("inferred GRN: %zu vertices, %zu edges (%zu of %zu pairs "
                "pruned by Lemma 3)\n",
                grn.num_vertices(), grn.num_edges(), stats.pairs_pruned,
                stats.pairs_total);
    for (const ProbEdge& edge : grn.edges()) {
      std::printf("edge g%u g%u p=%.4f\n", grn.label(edge.u),
                  grn.label(edge.v), edge.probability);
    }
    return 0;
  }
  InferenceMeasure measure;
  if (args.Get("measure") == "correlation") {
    measure = InferenceMeasure::kCorrelation;
  } else if (args.Get("measure") == "pcorr") {
    measure = InferenceMeasure::kPartialCorrelation;
  } else if (args.Get("measure") == "mi") {
    measure = InferenceMeasure::kMutualInformation;
  } else {
    std::fprintf(stderr, "unknown measure '%s'\n",
                 args.Get("measure").c_str());
    return 2;
  }
  const double gamma = args.GetDouble("gamma");
  Result<DenseMatrix> scores = ComputeScoreMatrix(*matrix, measure);
  if (!scores.ok()) return Fail(scores.status());
  size_t edges = 0;
  for (size_t s = 0; s < matrix->num_genes(); ++s) {
    for (size_t t = s + 1; t < matrix->num_genes(); ++t) {
      if (scores->At(s, t) > gamma) {
        std::printf("edge g%u g%u score=%.4f\n", matrix->gene_id(s),
                    matrix->gene_id(t), scores->At(s, t));
        ++edges;
      }
    }
  }
  std::printf("%zu edges above %.2f (%s)\n", edges, gamma,
              InferenceMeasureName(measure));
  return 0;
}

int CmdKernels(int argc, char** argv) {
  (void)argc;
  (void)argv;
  const char* force = std::getenv("IMGRN_FORCE_SCALAR");
  std::printf("native:  %s\n", KernelBackendName(NativeKernels().backend));
  std::printf("active:  %s\n", KernelBackendName(ActiveKernelBackend()));
  std::printf("IMGRN_FORCE_SCALAR: %s (%s)\n", force != nullptr ? force : "",
              KernelForceScalarValue(force) ? "forcing scalar" : "native");
  std::printf("crc32c:  %s\n", Crc32cBackendName());
  return 0;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: imgrn <generate|extract-query|query|snapshot|infer|kernels> "
      "[--flags]\n"
      "(see the header comment of tools/imgrn_cli.cc)\n");
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const char* command = argv[1];
  if (std::strcmp(command, "generate") == 0) return CmdGenerate(argc, argv);
  if (std::strcmp(command, "query") == 0) return CmdQuery(argc, argv);
  if (std::strcmp(command, "snapshot") == 0) return CmdSnapshot(argc, argv);
  if (std::strcmp(command, "extract-query") == 0) {
    return CmdExtractQuery(argc, argv);
  }
  if (std::strcmp(command, "infer") == 0) return CmdInfer(argc, argv);
  if (std::strcmp(command, "kernels") == 0) return CmdKernels(argc, argv);
  return Usage();
}

}  // namespace
}  // namespace cli
}  // namespace imgrn

int main(int argc, char** argv) {
  return imgrn::cli::Main(argc, argv);
}
