// imgrn — the command-line prototype system the paper's Section 8
// envisions: organize gene feature data from various sources, build the
// IM-GRN index once, and serve ad-hoc IM-GRN queries.
//
// Subcommands:
//   imgrn generate --out=db.txt [--n_matrices=100] [--dist=Uni|Gau] ...
//       Generate a synthetic gene feature database (Section 6.1 model).
//   imgrn build-index --db=db.txt --out=db.idx [--pivots=2]
//       Build and persist the IM-GRN index.
//   imgrn query --db=db.txt --index=db.idx --query=q.txt
//               [--gamma=0.5] [--alpha=0.5] [--top_k=0] [--shards=1]
//               [--replicas=1] [--store=mem|disk:FILE]
//               [--partition=modulo|balanced|calibrated]
//               [--fault=SPEC] [--fault-seed=N] [--allow-partial=0|1]
//       Run one IM-GRN query; q.txt is a gene matrix file (matrix_io.h).
//       --store selects the page-store backend of the engine's index
//       (storage/storage_manager.h): "mem" (default) keeps pages in RAM;
//       "disk:FILE" puts them in a crash-safe paged file. Results are
//       bit-identical either way. Only meaningful with --shards=1 (the
//       sharded path manages its own per-shard spill files).
//   imgrn snapshot save --db=db.txt --store=disk:FILE [--pivots=2]
//   imgrn snapshot load --store=disk:FILE [--query=q.txt] [--gamma=0.5]
//       Durable whole-system snapshots (index/snapshot.h): `save` ingests
//       the database, builds the index and persists database + index +
//       R*-tree pages into the store with a crash-safe commit; `load`
//       reopens the store and restores everything WITHOUT re-ingesting or
//       re-building — the instant-cold-start path — then optionally runs
//       a query against the restored engine.
//       --shards=K > 1 partitions the database across K in-memory engines
//       and fans the query out (service/sharded_engine.h); the matches are
//       identical to --shards=1 by construction for EVERY --partition
//       strategy (modulo: source id mod K; balanced: cost-based LPT bin
//       packing; calibrated: LPT over measured-cost-blended estimates —
//       see service/partitioner.h and service/cost_model.h). Incompatible
//       with --index (per-shard indices are built in memory).
//       --replicas=R > 1 mirrors every shard across R replicas
//       (service/replica_set.h): updates apply to all replicas in lock
//       step and each sub-query is served by one replica picked
//       round-robin, so the matches are identical to --replicas=1 by
//       construction (read scaling, not a semantic knob). Implies the
//       sharded path even with --shards=1.
//       --fault= installs fault-injection rules for the run (grammar in
//       common/fault_injection.h, e.g. --fault=shard.subquery#1=n1);
//       --fault-seed seeds the probabilistic triggers. With
//       --allow-partial=1 a query that loses shards degrades instead of
//       failing: the surviving shards' matches are printed, a DEGRADED
//       line names the failed shards, and the exit code stays 0.
//   imgrn cache stats --db=db.txt --query=q.txt [--shards=2] [--replicas=1]
//               [--capacity=64] [--repeat=3] [--gamma=0.5] ...
//       Demo/diagnostic for the whole-query result cache
//       (service/result_cache.h): run the same query --repeat times
//       against a sharded engine with a --capacity-entry cache, print
//       each run's cache_hit flag and wall-clock (run 1 misses and fills,
//       the rest hit and skip the fan-out entirely), then dump the final
//       cache counters. Every run's matches are bit-identical by the
//       cache-key determinism contract.
//   imgrn rebalance --db=db.txt --query=q.txt [--shards=4] [--auto=1]
//               [--target-imbalance=1.25] [--warmup=4] ...
//       Demo/diagnostic for online rebalancing: load the database
//       modulo-sharded, report the per-shard load and imbalance (estimated
//       AND measured), migrate while the engine stays queryable, report
//       the new loads, and verify the query answers are bit-identical
//       before and after. Default mode migrates to a full balanced (LPT)
//       plan; --auto=1 instead warms the measured cost model with
//       --warmup queries and runs the minimum-movement auto-rebalance
//       (ShardedEngine::Rebalance(target)), which moves only the few
//       sources needed to bring max/mean under --target-imbalance.
//   imgrn maintenance status --db=db.txt --query=q.txt [--shards=2]
//               [--replicas=2] [--ticks=8] [--scrub-pages=64] [--fault=...]
//       Demo/diagnostic for the self-healing maintenance plane
//       (service/maintenance.h): build a sharded+replicated engine with
//       the daemon in deterministic mode, interleave --ticks maintenance
//       ticks with queries, and dump the maintenance counters — pages
//       scrubbed, corruption found, replicas rebuilt, storage reclaimed,
//       rebalance fires. --fault can inject disk corruption (e.g.
//       --fault=disk.read=p1:x1:code=dataloss) to watch the scrubber
//       detect it and the rebuild path heal the replica, with the query
//       answers verified bit-identical throughout.
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
// All file formats are the plain-text / binary formats of matrix_io.h and
// index_io.h.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "common/crc32c.h"
#include "common/fault_injection.h"
#include "core/imgrn.h"
#include "matrix/simd_ops.h"
#include "service/sharded_engine.h"
#include "service/thread_pool.h"
#include "storage/storage_manager.h"

namespace imgrn {
namespace cli {
namespace {

/// --key=value parser with defaults; unknown keys are fatal.
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
  double GetDouble(const std::string& key) const {
    return std::strtod(values_.at(key).c_str(), nullptr);
  }
  int64_t GetInt(const std::string& key) const {
    return std::strtoll(values_.at(key).c_str(), nullptr, 10);
  }
  bool Has(const std::string& key) const {
    return !values_.at(key).empty();
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
  SyntheticConfig config;
  config.num_matrices = static_cast<size_t>(args.GetInt("n_matrices"));
  config.genes_min = static_cast<size_t>(args.GetInt("genes_min"));
  config.genes_max = static_cast<size_t>(args.GetInt("genes_max"));
  config.samples_min = static_cast<size_t>(args.GetInt("samples_min"));
  config.samples_max = static_cast<size_t>(args.GetInt("samples_max"));
  config.gene_universe =
      static_cast<GeneId>(args.GetInt("gene_universe"));
  config.weight_distribution = args.Get("dist") == "Gau"
                                   ? EdgeWeightDistribution::kGaussian
                                   : EdgeWeightDistribution::kUniform;
  config.seed = static_cast<uint64_t>(args.GetInt("seed"));
  GeneDatabase database = GenerateSyntheticDatabase(config);
  Status status = SaveGeneDatabase(database, args.Get("out"));
  if (!status.ok()) return Fail(status);
  std::printf("wrote %zu matrices (%zu gene vectors) to %s\n",
              database.size(), database.TotalGeneVectors(),
              args.Get("out").c_str());
  return 0;
}

int CmdBuildIndex(int argc, char** argv) {
  Args args(argc, argv, 2,
            {{"db", ""}, {"out", ""}, {"pivots", "2"}, {"seed", "7"}});
  if (!args.Has("db") || !args.Has("out")) {
    std::fprintf(stderr, "build-index requires --db=FILE --out=FILE\n");
    return 2;
  }
  Result<GeneDatabase> database = LoadGeneDatabase(args.Get("db"));
  if (!database.ok()) return Fail(database.status());

  EngineOptions options;
  options.index.num_pivots = static_cast<size_t>(args.GetInt("pivots"));
  options.index.seed = static_cast<uint64_t>(args.GetInt("seed"));
  ImGrnEngine engine(options);
  engine.LoadDatabase(std::move(*database));
  Status status = engine.BuildIndex();
  if (!status.ok()) return Fail(status);
  status = engine.SaveIndexTo(args.Get("out"));
  if (!status.ok()) return Fail(status);
  std::printf("indexed %zu matrices in %.3f s (R*-tree: %zu points, "
              "height %d); index written to %s\n",
              engine.database().size(), engine.index().build_seconds(),
              engine.index().rtree().size(),
              engine.index().rtree().height(), args.Get("out").c_str());
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
             {"index", ""},
             {"query", ""},
             {"gamma", "0.5"},
             {"alpha", "0.5"},
             {"top_k", "0"},
             {"shards", "1"},
             {"replicas", "1"},
             {"partition", "modulo"},
             {"fault", ""},
             {"fault-seed", "1234"},
             {"allow-partial", "0"},
             {"store", "mem"},
             {"seed", "99"}});
  if (!args.Has("db") || !args.Has("query")) {
    std::fprintf(stderr, "query requires --db=FILE --query=FILE\n");
    return 2;
  }
  Result<StorageOptions> store = ParseStoreSpec(args.Get("store"));
  if (!store.ok()) {
    std::fprintf(stderr, "--store: %s\n", store.status().message().c_str());
    return 2;
  }
  const size_t shards = static_cast<size_t>(args.GetInt("shards"));
  if (shards == 0) {
    std::fprintf(stderr, "--shards must be >= 1\n");
    return 2;
  }
  const size_t replicas = static_cast<size_t>(args.GetInt("replicas"));
  if (replicas == 0) {
    std::fprintf(stderr, "--replicas must be >= 1\n");
    return 2;
  }
  Result<std::shared_ptr<const Partitioner>> partitioner =
      ParsePartitioner(args.Get("partition"));
  if (!partitioner.ok()) {
    std::fprintf(stderr, "--partition: %s\n",
                 partitioner.status().message().c_str());
    return 2;
  }
  const bool sharded_path = shards > 1 || replicas > 1;
  if (sharded_path && args.Has("index")) {
    std::fprintf(stderr,
                 "--shards > 1 / --replicas > 1 build per-shard indices in "
                 "memory and cannot use --index\n");
    return 2;
  }
  Result<GeneDatabase> database = LoadGeneDatabase(args.Get("db"));
  if (!database.ok()) return Fail(database.status());
  Result<GeneMatrix> query_matrix = LoadGeneMatrix(args.Get("query"));
  if (!query_matrix.ok()) return Fail(query_matrix.status());

  QueryParams params;
  params.gamma = args.GetDouble("gamma");
  params.alpha = args.GetDouble("alpha");
  params.top_k = static_cast<size_t>(args.GetInt("top_k"));
  params.seed = static_cast<uint64_t>(args.GetInt("seed"));
  params.allow_partial = args.GetInt("allow-partial") != 0;

  if (args.Has("fault")) {
    Result<std::vector<FaultRule>> rules = ParseFaultSpec(args.Get("fault"));
    if (!rules.ok()) {
      std::fprintf(stderr, "--fault: %s\n",
                   rules.status().message().c_str());
      return 2;
    }
    FaultInjector::Global().Seed(
        static_cast<uint64_t>(args.GetInt("fault-seed")));
    for (FaultRule& rule : *rules) {
      FaultInjector::Global().Enable(std::move(rule));
    }
    std::fprintf(stderr, "(fault injection armed: %s)\n",
                 args.Get("fault").c_str());
  }

  QueryStats stats;
  Result<std::vector<QueryMatch>> matches = std::vector<QueryMatch>{};
  if (sharded_path) {
    std::fprintf(stderr,
                 "(sharding across %zu in-memory engines x %zu replicas, "
                 "%s partitioning)\n",
                 shards, replicas, (*partitioner)->name());
    ThreadPool pool;
    ShardedEngineOptions options;
    options.num_shards = shards;
    options.num_replicas = replicas;
    options.partitioner = *partitioner;
    ShardedEngine engine(options, &pool);
    engine.LoadDatabase(std::move(*database));
    Status status = engine.BuildIndex();
    if (!status.ok()) return Fail(status);
    matches = engine.Query(*query_matrix, params, &stats);
    const ShardedEngineStatsSnapshot snapshot = engine.StatsSnapshot();
    std::fprintf(stderr,
                 "(shard load imbalance: %.3f estimated, %.3f measured "
                 "max/mean)\n",
                 snapshot.imbalance, snapshot.measured_imbalance);
  } else {
    EngineOptions engine_options;
    engine_options.storage = *store;
    if (engine_options.storage.backend == StorageBackend::kDisk) {
      std::fprintf(stderr, "(disk-backed store: %s)\n",
                   engine_options.storage.path.c_str());
    }
    ImGrnEngine engine(engine_options);
    engine.LoadDatabase(std::move(*database));
    if (args.Has("index")) {
      Status status = engine.LoadIndexFrom(args.Get("index"));
      if (!status.ok()) return Fail(status);
    } else {
      std::fprintf(stderr, "(no --index given; building in memory)\n");
      Status status = engine.BuildIndex();
      if (!status.ok()) return Fail(status);
    }
    matches = engine.Query(*query_matrix, params, &stats);
  }
  if (!matches.ok()) return Fail(matches.status());

  if (stats.degraded) {
    std::string failed;
    for (size_t shard : stats.failed_shards) {
      if (!failed.empty()) failed += ",";
      failed += std::to_string(shard);
    }
    std::printf("DEGRADED: shards %s failed (%llu retries spent); matches "
                "below cover the surviving shards only\n",
                failed.c_str(),
                static_cast<unsigned long long>(stats.shard_retries));
  }
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

// Demo/diagnostic for the whole-query result cache: run one query
// --repeat times and show the miss-then-hit pattern plus the final cache
// counters. See the header comment for the contract.
int CmdCache(int argc, char** argv) {
  if (argc < 3 || std::strcmp(argv[2], "stats") != 0) {
    std::fprintf(stderr,
                 "usage: imgrn cache stats --db=FILE --query=FILE "
                 "[--shards=2] [--replicas=1] [--capacity=64] [--repeat=3] "
                 "[--gamma=0.5] [--alpha=0.5] [--top_k=0] [--seed=99]\n");
    return 2;
  }
  Args args(argc, argv, 3,
            {{"db", ""},
             {"query", ""},
             {"shards", "2"},
             {"replicas", "1"},
             {"capacity", "64"},
             {"repeat", "3"},
             {"gamma", "0.5"},
             {"alpha", "0.5"},
             {"top_k", "0"},
             {"seed", "99"}});
  if (!args.Has("db") || !args.Has("query")) {
    std::fprintf(stderr, "cache stats requires --db=FILE --query=FILE\n");
    return 2;
  }
  const size_t shards = static_cast<size_t>(args.GetInt("shards"));
  const size_t replicas = static_cast<size_t>(args.GetInt("replicas"));
  const size_t capacity = static_cast<size_t>(args.GetInt("capacity"));
  const size_t repeat = static_cast<size_t>(args.GetInt("repeat"));
  if (shards == 0 || replicas == 0 || repeat == 0) {
    std::fprintf(stderr, "--shards/--replicas/--repeat must be >= 1\n");
    return 2;
  }
  if (capacity == 0) {
    std::fprintf(stderr, "--capacity must be >= 1 (0 disables the cache)\n");
    return 2;
  }
  Result<GeneDatabase> database = LoadGeneDatabase(args.Get("db"));
  if (!database.ok()) return Fail(database.status());
  Result<GeneMatrix> query_matrix = LoadGeneMatrix(args.Get("query"));
  if (!query_matrix.ok()) return Fail(query_matrix.status());

  QueryParams params;
  params.gamma = args.GetDouble("gamma");
  params.alpha = args.GetDouble("alpha");
  params.top_k = static_cast<size_t>(args.GetInt("top_k"));
  params.seed = static_cast<uint64_t>(args.GetInt("seed"));

  ThreadPool pool;
  ShardedEngineOptions options;
  options.num_shards = shards;
  options.num_replicas = replicas;
  options.cache.capacity = capacity;
  ShardedEngine engine(options, &pool);
  engine.LoadDatabase(std::move(*database));
  Status status = engine.BuildIndex();
  if (!status.ok()) return Fail(status);

  size_t answers = 0;
  for (size_t run = 0; run < repeat; ++run) {
    QueryStats stats;
    Result<std::vector<QueryMatch>> matches =
        engine.Query(*query_matrix, params, &stats);
    if (!matches.ok()) return Fail(matches.status());
    answers = matches->size();
    std::printf("run %zu: cache_hit=%s %.6f s, %zu answers\n", run + 1,
                stats.cache_hit ? "true" : "false", stats.total_seconds,
                matches->size());
  }
  const ResultCacheStats cache = engine.CacheStats();
  std::printf("cache: capacity=%zu size=%zu hits=%llu misses=%llu "
              "insertions=%llu evictions=%llu hit_rate=%.3f\n",
              cache.capacity, cache.size,
              static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.misses),
              static_cast<unsigned long long>(cache.insertions),
              static_cast<unsigned long long>(cache.evictions),
              cache.hit_rate());
  std::printf("answers: %zu (bit-identical across runs by the cache-key "
              "determinism contract)\n",
              answers);
  return 0;
}

int CmdRebalance(int argc, char** argv) {
  Args args(argc, argv, 2,
            {{"db", ""},
             {"query", ""},
             {"shards", "4"},
             {"auto", "0"},
             {"target-imbalance", "1.25"},
             {"warmup", "4"},
             {"gamma", "0.5"},
             {"alpha", "0.5"},
             {"top_k", "0"},
             {"seed", "99"}});
  if (!args.Has("db") || !args.Has("query")) {
    std::fprintf(stderr, "rebalance requires --db=FILE --query=FILE\n");
    return 2;
  }
  const bool auto_mode = args.GetInt("auto") != 0;
  const size_t shards = static_cast<size_t>(args.GetInt("shards"));
  if (shards == 0) {
    std::fprintf(stderr, "--shards must be >= 1\n");
    return 2;
  }
  Result<GeneDatabase> database = LoadGeneDatabase(args.Get("db"));
  if (!database.ok()) return Fail(database.status());
  Result<GeneMatrix> query_matrix = LoadGeneMatrix(args.Get("query"));
  if (!query_matrix.ok()) return Fail(query_matrix.status());

  QueryParams params;
  params.gamma = args.GetDouble("gamma");
  params.alpha = args.GetDouble("alpha");
  params.top_k = static_cast<size_t>(args.GetInt("top_k"));
  params.seed = static_cast<uint64_t>(args.GetInt("seed"));

  // Start from the worst case the balanced plan fixes: modulo placement.
  const std::vector<double> costs = EstimateSourceCosts(*database);
  ThreadPool pool;
  ShardedEngineOptions options;
  options.num_shards = shards;
  ShardedEngine engine(options, &pool);
  engine.LoadDatabase(std::move(*database));
  Status status = engine.BuildIndex();
  if (!status.ok()) return Fail(status);

  auto print_loads = [&engine](const char* tag) {
    const ShardedEngineStatsSnapshot snapshot = engine.StatsSnapshot();
    for (const ShardStats& shard : snapshot.shards) {
      std::printf("%s shard%zu: sources=%zu load=%.3g measured=%.3gs\n", tag,
                  shard.shard, shard.sources, shard.cost,
                  shard.measured_seconds);
    }
    std::printf("%s imbalance=%.3f measured_imbalance=%.3f "
                "(max/mean shard load)\n",
                tag, snapshot.imbalance, snapshot.measured_imbalance);
    return snapshot.imbalance;
  };
  if (auto_mode) {
    // Feed the measured cost model before planning: every query attributes
    // its wall-clock to the sources it touched.
    const size_t warmup = static_cast<size_t>(args.GetInt("warmup"));
    for (size_t i = 0; i < warmup; ++i) {
      Result<std::vector<QueryMatch>> r = engine.Query(*query_matrix, params);
      if (!r.ok()) return Fail(r.status());
    }
    std::printf("warmed the measured cost model with %zu queries\n", warmup);
  }
  print_loads("before");
  Result<std::vector<QueryMatch>> before = engine.Query(*query_matrix, params);
  if (!before.ok()) return Fail(before.status());

  if (auto_mode) {
    // Minimum-movement auto-rebalance over the calibrated cost model.
    const double target = args.GetDouble("target-imbalance");
    size_t moved = 0;
    status = engine.Rebalance(target, &moved);
    if (!status.ok()) return Fail(status);
    std::printf("auto-rebalance moved %zu of %zu sources "
                "(target imbalance %.2f)\n",
                moved, engine.num_sources(), target);
  } else {
    // Migrate to the LPT plan while the engine stays live (queries on
    // untouched shards would keep running throughout).
    const PartitionPlan plan = BalancedPartitioner().Partition(costs, shards);
    status = engine.Rebalance(plan);
    if (!status.ok()) return Fail(status);
  }
  print_loads("after");

  Result<std::vector<QueryMatch>> after = engine.Query(*query_matrix, params);
  if (!after.ok()) return Fail(after.status());
  if (after->size() != before->size()) {
    std::fprintf(stderr, "rebalance changed the answer count: %zu vs %zu\n",
                 before->size(), after->size());
    return 1;
  }
  for (size_t i = 0; i < before->size(); ++i) {
    if ((*after)[i].source != (*before)[i].source ||
        (*after)[i].probability != (*before)[i].probability ||
        (*after)[i].mapping != (*before)[i].mapping) {
      std::fprintf(stderr, "rebalance changed match %zu (source %u)\n", i,
                   (*before)[i].source);
      return 1;
    }
  }
  std::printf("rebalance verified: %zu matches bit-identical before and "
              "after migration\n",
              before->size());
  return 0;
}

// Demo/diagnostic for the self-healing maintenance plane: run the daemon
// in deterministic mode (driven tick by tick), interleaved with queries,
// and dump the counters. See the header comment for the contract.
int CmdMaintenance(int argc, char** argv) {
  if (argc < 3 || std::strcmp(argv[2], "status") != 0) {
    std::fprintf(stderr,
                 "usage: imgrn maintenance status --db=FILE --query=FILE "
                 "[--shards=2] [--replicas=2] [--ticks=8] [--scrub-pages=64] "
                 "[--storage-dir=DIR] [--fault=SPEC] [--fault-seed=1234] "
                 "[--gamma=0.5] [--alpha=0.5] [--top_k=0] [--seed=99]\n");
    return 2;
  }
  Args args(argc, argv, 3,
            {{"db", ""},
             {"query", ""},
             {"shards", "2"},
             {"replicas", "2"},
             {"ticks", "8"},
             {"scrub-pages", "64"},
             {"storage-dir", ""},
             {"fault", ""},
             {"fault-seed", "1234"},
             {"gamma", "0.5"},
             {"alpha", "0.5"},
             {"top_k", "0"},
             {"seed", "99"}});
  if (!args.Has("db") || !args.Has("query")) {
    std::fprintf(stderr,
                 "maintenance status requires --db=FILE --query=FILE\n");
    return 2;
  }
  const size_t shards = static_cast<size_t>(args.GetInt("shards"));
  const size_t replicas = static_cast<size_t>(args.GetInt("replicas"));
  const size_t ticks = static_cast<size_t>(args.GetInt("ticks"));
  if (shards == 0 || replicas == 0) {
    std::fprintf(stderr, "--shards/--replicas must be >= 1\n");
    return 2;
  }
  Result<GeneDatabase> database = LoadGeneDatabase(args.Get("db"));
  if (!database.ok()) return Fail(database.status());
  Result<GeneMatrix> query_matrix = LoadGeneMatrix(args.Get("query"));
  if (!query_matrix.ok()) return Fail(query_matrix.status());

  QueryParams params;
  params.gamma = args.GetDouble("gamma");
  params.alpha = args.GetDouble("alpha");
  params.top_k = static_cast<size_t>(args.GetInt("top_k"));
  params.seed = static_cast<uint64_t>(args.GetInt("seed"));

  ThreadPool pool;
  ShardedEngineOptions options;
  options.num_shards = shards;
  options.num_replicas = replicas;
  options.storage_dir = args.Get("storage-dir");
  options.maintenance.enabled = true;
  // Deterministic mode: no background thread; every tick below is driven
  // explicitly, so the output is reproducible run to run.
  options.maintenance.tick_interval_micros = 0;
  options.maintenance.scrub_pages_per_tick =
      static_cast<size_t>(args.GetInt("scrub-pages"));
  ShardedEngine engine(options, &pool);
  engine.LoadDatabase(std::move(*database));
  Status status = engine.BuildIndex();
  if (!status.ok()) return Fail(status);

  // Baseline answer before any fault is armed, to verify self-healing
  // never perturbs results.
  Result<std::vector<QueryMatch>> before = engine.Query(*query_matrix, params);
  if (!before.ok()) return Fail(before.status());

  if (args.Has("fault")) {
    Result<std::vector<FaultRule>> rules = ParseFaultSpec(args.Get("fault"));
    if (!rules.ok()) {
      std::fprintf(stderr, "--fault: %s\n",
                   rules.status().message().c_str());
      return 2;
    }
    FaultInjector::Global().Seed(
        static_cast<uint64_t>(args.GetInt("fault-seed")));
    for (FaultRule& rule : *rules) {
      FaultInjector::Global().Enable(std::move(rule));
    }
    std::fprintf(stderr, "(fault injection armed: %s)\n",
                 args.Get("fault").c_str());
  }

  MaintenanceDaemon* daemon = engine.maintenance();
  for (size_t tick = 0; tick < ticks; ++tick) {
    daemon->TickForTesting();
    Result<std::vector<QueryMatch>> now = engine.Query(*query_matrix, params);
    if (!now.ok()) return Fail(now.status());
    if (now->size() != before->size()) {
      std::fprintf(stderr,
                   "maintenance changed the answer count: %zu vs %zu\n",
                   before->size(), now->size());
      return 1;
    }
    for (size_t i = 0; i < before->size(); ++i) {
      if ((*now)[i].source != (*before)[i].source ||
          (*now)[i].probability != (*before)[i].probability ||
          (*now)[i].mapping != (*before)[i].mapping) {
        std::fprintf(stderr, "maintenance changed match %zu (source %u)\n",
                     i, (*before)[i].source);
        return 1;
      }
    }
  }
  FaultInjector::Global().Clear();

  const ShardedEngineStatsSnapshot snapshot = engine.StatsSnapshot();
  const MaintenanceStats& m = snapshot.maintenance;
  std::printf("maintenance: ticks=%llu pages_scrubbed=%llu "
              "corrupt_pages=%llu replicas_rebuilt=%llu "
              "rebuild_failures=%llu scrub_errors=%llu\n",
              static_cast<unsigned long long>(m.ticks),
              static_cast<unsigned long long>(m.pages_scrubbed),
              static_cast<unsigned long long>(m.corrupt_pages),
              static_cast<unsigned long long>(m.replicas_rebuilt),
              static_cast<unsigned long long>(m.rebuild_failures),
              static_cast<unsigned long long>(m.scrub_errors));
  std::printf("maintenance: pages_reclaimed=%llu slots_truncated=%llu "
              "rebalance_fires=%llu sources_moved=%llu\n",
              static_cast<unsigned long long>(m.pages_reclaimed),
              static_cast<unsigned long long>(m.slots_truncated),
              static_cast<unsigned long long>(m.rebalance_fires),
              static_cast<unsigned long long>(m.sources_moved));
  std::printf("imbalance: estimated=%.3f measured=%.3f (max/mean)\n",
              snapshot.imbalance, snapshot.measured_imbalance);
  std::printf("answers: %zu, bit-identical across all %zu ticks\n",
              before->size(), ticks);
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
  Result<GeneDatabase> database = LoadGeneDatabase(args.Get("db"));
  if (!database.ok()) return Fail(database.status());

  EngineOptions options;
  options.index.num_pivots = static_cast<size_t>(args.GetInt("pivots"));
  options.index.seed = static_cast<uint64_t>(args.GetInt("seed"));
  options.storage = *store;
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
  params.gamma = args.GetDouble("gamma");
  params.alpha = args.GetDouble("alpha");
  params.top_k = static_cast<size_t>(args.GetInt("top_k"));
  params.seed = static_cast<uint64_t>(args.GetInt("seed"));
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
  config.num_genes = static_cast<size_t>(args.GetInt("genes"));
  config.gamma = args.GetDouble("gamma");
  Rng rng(static_cast<uint64_t>(args.GetInt("seed")));
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
  const double gamma = args.GetDouble("gamma");

  if (args.Get("measure") == "imgrn") {
    GrnInferenceOptions options;
    options.num_samples = static_cast<size_t>(args.GetInt("samples"));
    options.seed = static_cast<uint64_t>(args.GetInt("seed"));
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
      "usage: imgrn <generate|build-index|extract-query|query|cache|"
      "rebalance|maintenance|snapshot|infer|kernels> [--flags]\n"
      "(see the header comment of tools/imgrn_cli.cc)\n");
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const char* command = argv[1];
  if (std::strcmp(command, "generate") == 0) return CmdGenerate(argc, argv);
  if (std::strcmp(command, "build-index") == 0) {
    return CmdBuildIndex(argc, argv);
  }
  if (std::strcmp(command, "query") == 0) return CmdQuery(argc, argv);
  if (std::strcmp(command, "cache") == 0) return CmdCache(argc, argv);
  if (std::strcmp(command, "rebalance") == 0) return CmdRebalance(argc, argv);
  if (std::strcmp(command, "maintenance") == 0) {
    return CmdMaintenance(argc, argv);
  }
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
