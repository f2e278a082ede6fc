// Serving throughput of the QueryService: queries/sec and tail latency
// over worker-thread and shard-count axes, on the synthetic default
// workload. Every setting serves a ShardedEngine built on that setting's
// thread pool: --shards=1 is one unpartitioned engine (one reader-writer
// lock, one buffer pool); --shards=K places source g on the g mod K-th of
// K independent engines and fans each request out on the same pool. Emits
// one JSON line per (threads, shards) setting so the serving trajectory
// can be tracked across PRs, e.g.:
//
//   {"bench":"service_throughput","threads":4,"shards":2,"replicas":1,
//    "queries":96,"qps":812.4,"qps_per_replica":812.4,"p50_ms":3.1,
//    "p95_ms":7.9,"speedup_vs_1":3.2,"imbalance":1.04}
//
// "imbalance" is max/mean estimated shard load (1.0 = perfect balance);
// the fan-out latency of a sharded request is bounded by its hottest
// shard, so qps should be read NEXT TO the imbalance it was achieved at.
// --zipf=s > 0 draws matrix sizes from a Zipf-like rank decay so a few
// giant sources dominate the load, the skewed regime where placement by
// id shows its imbalance. --json_out=FILE appends every JSON line to
// FILE (e.g. BENCH_service_throughput.json) so the perf trajectory is
// recorded across PRs.
//
// --replicas=R > 1 mirrors every shard R times with round-robin routing;
// every JSON line carries "replicas" and "qps_per_replica". In-process
// replicas share the same cores, so they add no read throughput: on the
// sharded_mixed benchmark workload without writes, R = 2 served the same
// qps as R = 1 within 5%, at twice the setup time and update latency and
// 110 against 78 MiB peak RSS. Replica routing will be deleted once that
// workload moves to R = 1. The workload replays the same query set --rounds
// times, and every replay is evaluated afresh. "p50_ms" and "p95_ms" are
// the service's latency histogram: execution time, queue wait excluded.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/stopwatch.h"
#include "datagen/query_gen.h"
#include "service/query_service.h"
#include "service/sharded_engine.h"

namespace imgrn {
namespace bench {
namespace {

std::vector<size_t> ParseCountList(const std::string& spec) {
  std::vector<size_t> counts;
  size_t value = 0;
  bool have_digit = false;
  for (char c : spec) {
    if (c >= '0' && c <= '9') {
      value = value * 10 + static_cast<size_t>(c - '0');
      have_digit = true;
    } else {
      if (have_digit && value > 0) counts.push_back(value);
      value = 0;
      have_digit = false;
    }
  }
  if (have_digit && value > 0) counts.push_back(value);
  return counts;
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv,
              {{"n_matrices", "200 | database size N"},
               {"num_queries", "24 | distinct query matrices extracted"},
               {"rounds", "4 | times the query set is replayed per setting"},
               {"threads", "1,2,4,8 | comma-separated worker counts"},
               {"shards", "1 | comma-separated shard counts (1 = unsharded)"},
               {"replicas",
                "1 | replicas per shard (adds no read throughput in-process)"},
               {"zipf",
                "0 | Zipf exponent for skewed matrix sizes (0 = uniform)"},
               {"json_out",
                " | append every JSON line to this file as well"},
               {"gamma", "0.5 | inference threshold"},
               {"alpha", "0.5 | appearance threshold"},
               {"num_samples", "1024 | Monte Carlo permutations per query"},
               {"seed", "2017 | master seed"}});

  BenchDefaults defaults;
  defaults.num_matrices = static_cast<size_t>(flags.GetInt("n_matrices"));
  defaults.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  const size_t num_queries =
      static_cast<size_t>(flags.GetInt("num_queries"));
  const size_t rounds = static_cast<size_t>(flags.GetInt("rounds"));
  const std::vector<size_t> thread_counts =
      ParseCountList(flags.GetString("threads"));
  if (thread_counts.empty()) {
    std::fprintf(stderr, "no valid worker counts in --threads=%s\n",
                 flags.GetString("threads").c_str());
    return 1;
  }
  const std::vector<size_t> shard_counts =
      ParseCountList(flags.GetString("shards"));
  if (shard_counts.empty()) {
    std::fprintf(stderr, "no valid shard counts in --shards=%s\n",
                 flags.GetString("shards").c_str());
    return 1;
  }
  const size_t num_replicas =
      static_cast<size_t>(flags.GetInt("replicas"));
  if (num_replicas < 1) {
    std::fprintf(stderr, "--replicas must be >= 1\n");
    return 1;
  }

  QueryParams params;
  params.gamma = flags.GetDouble("gamma");
  params.alpha = flags.GetDouble("alpha");
  // CPU cost per request is dominated by the Monte Carlo permutations; a
  // serving bench wants realistic (non-trivial) per-query work.
  params.query_num_samples =
      static_cast<size_t>(flags.GetInt("num_samples"));
  params.refine_num_samples = params.query_num_samples;
  params.seed = defaults.seed;

  const std::string json_out = flags.GetString("json_out");
  std::FILE* json_file = nullptr;
  if (!json_out.empty()) {
    json_file = std::fopen(json_out.c_str(), "a");
    if (json_file == nullptr) {
      std::fprintf(stderr, "cannot open --json_out=%s\n", json_out.c_str());
      return 1;
    }
  }
  const double zipf = flags.GetDouble("zipf");

  PrintHeader("service_throughput",
              "QueryService queries/sec vs worker threads (one ShardedEngine "
              "per setting, full query pipeline per request)",
              "N=" + std::to_string(defaults.num_matrices) +
                  " queries=" + std::to_string(num_queries) +
                  " rounds=" + std::to_string(rounds) +
                  " zipf=" + flags.GetString("zipf") +
                  " replicas=" + std::to_string(num_replicas));

  const GeneDatabase database =
      zipf > 0 ? BuildZipfSkewedDatabase("Uni", defaults, zipf)
               : BuildSyntheticDatabase("Uni", defaults);

  // The query workload: extracted query *matrices* (the full serving path
  // including ad-hoc inference, the part a real client pays per request).
  Rng rng(defaults.seed ^ 0xD1CEu);
  QueryGenConfig query_config;
  query_config.num_genes = defaults.query_genes;
  query_config.gamma = params.gamma;
  std::vector<GeneMatrix> queries;
  while (queries.size() < num_queries) {
    Result<GeneMatrix> query =
        ExtractQueryMatrix(database, query_config, &rng);
    if (!query.ok()) break;  // Extremely rare; run with what we have.
    queries.push_back(std::move(*query));
  }
  if (queries.empty()) {
    std::fprintf(stderr, "no query matrices could be extracted\n");
    return 1;
  }

  // Replays the workload through one service and prints the JSON line
  // (and appends it to --json_out when given).
  double qps_at_1 = 0.0;
  auto run_setting = [&](QueryService& service, size_t num_threads,
                         size_t num_shards, size_t replicas,
                         double imbalance) {
    // One warmup pass (buffer pools, first-touch) outside the clock.
    (void)service.QueryBatch(queries, params);

    Stopwatch timer;
    std::vector<QueryService::PendingQuery> pending;
    pending.reserve(queries.size() * rounds);
    for (size_t round = 0; round < rounds; ++round) {
      for (const GeneMatrix& query : queries) {
        pending.push_back(service.SubmitQuery(query, params));
      }
    }
    size_t failed = 0;
    for (QueryService::PendingQuery& request : pending) {
      if (!request.result.get().ok()) ++failed;
    }
    const double seconds = timer.ElapsedSeconds();
    const size_t total = pending.size();
    const double qps = seconds > 0 ? static_cast<double>(total) / seconds
                                   : 0.0;
    if (num_threads == 1 && num_shards == 1) qps_at_1 = qps;

    const ServiceMetricsSnapshot snapshot = service.MetricsSnapshot();
    char line[832];
    std::snprintf(
        line, sizeof(line),
        "{\"bench\":\"service_throughput\",\"threads\":%zu,\"shards\":%zu,"
        "\"replicas\":%zu,\"queries\":%zu,\"failed\":%zu,\"qps\":%.1f,"
        "\"qps_per_replica\":%.1f,"
        "\"p50_ms\":%.3f,\"p95_ms\":%.3f,\"speedup_vs_1\":%.2f,"
        "\"imbalance\":%.3f}\n",
        num_threads, num_shards, replicas, total, failed, qps,
        qps / static_cast<double>(replicas), snapshot.latency_p50_ms,
        snapshot.latency_p95_ms, qps_at_1 > 0 ? qps / qps_at_1 : 0.0,
        imbalance);
    std::fputs(line, stdout);
    std::fflush(stdout);
    if (json_file != nullptr) {
      std::fputs(line, json_file);
      std::fflush(json_file);
    }
  };

  QueryServiceOptions options;
  options.max_queue_depth = queries.size() * rounds + 1;
  for (size_t num_threads : thread_counts) {
    for (size_t num_shards : shard_counts) {
      // One pool shared by the service (request parallelism) and the
      // engine (per-request fan-out). Each setting builds its own engine
      // over a copy of the database.
      ThreadPool pool(num_threads);
      ShardedEngineOptions sharded_options;
      sharded_options.num_shards = num_shards;
      sharded_options.num_replicas = num_replicas;
      ShardedEngine engine(sharded_options, &pool);
      engine.LoadDatabase(database);
      const Status built = engine.BuildIndex();
      if (!built.ok()) {
        std::fprintf(stderr, "BuildIndex failed: %s\n",
                     built.ToString().c_str());
        return 1;
      }
      QueryService service(&engine, &pool, options);
      run_setting(service, num_threads, num_shards, num_replicas,
                  engine.StatsSnapshot().imbalance);
    }
  }
  if (json_file != nullptr) std::fclose(json_file);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace imgrn

int main(int argc, char** argv) { return imgrn::bench::Main(argc, argv); }
