#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <thread>

#include "common/random.h"
#include "core/engine.h"
#include "datagen/dream5_like.h"
#include "datagen/query_gen.h"
#include "datagen/synthetic.h"
#include "layers.h"
#include "matrix/simd_ops.h"
#include "service/query_service.h"
#include "service/sharded_engine.h"
#include "storage/page.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using imgrn::GeneDatabase;
using imgrn::GeneMatrix;
using imgrn::ImGrnEngine;
using imgrn::QueryMatch;
using imgrn::QueryParams;
using imgrn::Result;

constexpr size_t kNumMatrices = 400;
// Distinct queries per run. Per-query cost varies widely, so a large pool
// keeps the percentiles from hinging on a few heavy queries of one seed.
constexpr size_t kQueryPoolSize = 1024;
constexpr size_t kWarmUpQueries = 128;
constexpr size_t kWarmUpUpdates = 8;
constexpr size_t kSingleEngineUpdates = 100;
// One update (a RemoveSource plus an AddSource) per 40 queries: one write
// per 20 queries.
constexpr size_t kQueriesPerUpdate = 40;
constexpr size_t kProbeNodes = 128;
// Buffer pool larger than any N = 400 tree (~630 nodes): no misses.
constexpr size_t kLargePoolPages = 1024;

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }
double Millis(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

/// Section-6.1 synthetic database at the paper's bench scale (N = 400,
/// 50-100 genes, 30-50 samples, gene universe 1000).
GeneDatabase SyntheticDatabase(imgrn::EdgeWeightDistribution distribution,
                               uint64_t seed) {
  imgrn::SyntheticConfig config;
  config.num_matrices = kNumMatrices;
  config.genes_min = 50;
  config.genes_max = 100;
  config.samples_min = 30;
  config.samples_max = 50;
  config.weight_distribution = distribution;
  config.gene_universe = 1000;
  config.seed = seed;
  return imgrn::GenerateSyntheticDatabase(config);
}

/// The paper's "Real" data set: random sub-matrices of three DREAM5-shaped
/// organism surrogates, gene ids offset per organism.
GeneDatabase RealSurrogateDatabase(uint64_t seed) {
  const imgrn::Organism organisms[] = {imgrn::Organism::kEcoli,
                                       imgrn::Organism::kSaureus,
                                       imgrn::Organism::kScerevisiae};
  std::vector<imgrn::Dream5DataSet> surrogates;
  for (size_t o = 0; o < 3; ++o) {
    imgrn::Dream5LikeConfig config;
    config.organism = organisms[o];
    config.scale = 0.15;
    config.sample_scale = 2.0;
    config.seed = seed + o;
    surrogates.push_back(imgrn::GenerateDream5Like(config));
  }
  imgrn::Rng rng(seed ^ 0xFEEDu);
  GeneDatabase database;
  for (imgrn::SourceId i = 0; i < kNumMatrices; ++i) {
    const size_t o = i % 3;
    const GeneMatrix& big = surrogates[o].matrix;
    const size_t n = std::min<size_t>(big.num_genes(),
                                      static_cast<size_t>(rng.UniformInt(50, 100)));
    const size_t l = std::min<size_t>(big.num_samples(),
                                      static_cast<size_t>(rng.UniformInt(30, 50)));
    std::vector<size_t> columns(big.num_genes());
    for (size_t c = 0; c < columns.size(); ++c) columns[c] = c;
    rng.Shuffle(&columns);
    columns.resize(n);
    std::vector<size_t> rows(big.num_samples());
    for (size_t r = 0; r < rows.size(); ++r) rows[r] = r;
    rng.Shuffle(&rows);
    rows.resize(l);
    std::vector<imgrn::GeneId> ids;
    for (size_t c : columns) {
      ids.push_back(big.gene_id(c) + static_cast<imgrn::GeneId>(o) * 100000u);
    }
    GeneMatrix sub(i, l, std::move(ids));
    for (size_t c = 0; c < n; ++c) {
      for (size_t r = 0; r < l; ++r) sub.At(r, c) = big.At(rows[r], columns[c]);
    }
    database.Add(std::move(sub));
  }
  return database;
}

/// Distinct connected n_Q-gene query matrices drawn from the database.
std::vector<GeneMatrix> MakeQueryPool(const GeneDatabase& database,
                                      size_t genes, double gamma,
                                      uint64_t seed) {
  imgrn::Rng rng(seed ^ 0xD1CEu);
  imgrn::QueryGenConfig config;
  config.num_genes = genes;
  config.gamma = gamma;
  std::vector<GeneMatrix> pool;
  for (size_t attempt = 0;
       pool.size() < kQueryPoolSize && attempt < 4 * kQueryPoolSize;
       ++attempt) {
    Result<GeneMatrix> query =
        imgrn::ExtractQueryMatrix(database, config, &rng);
    if (query.ok()) pool.push_back(std::move(*query));
  }
  return pool;
}

/// A new source for an update: the first kAddedGenes genes and
/// kAddedSamples samples of a random base matrix, plus noise. Every added
/// source has the same shape, so every update does the same work.
constexpr size_t kAddedGenes = 50;
constexpr size_t kAddedSamples = 30;
GeneMatrix MakeAddedSource(const GeneDatabase& base, imgrn::SourceId id,
                           imgrn::Rng* rng) {
  const GeneMatrix& from = base.matrix(
      static_cast<imgrn::SourceId>(rng->UniformUint64(base.size())));
  std::vector<imgrn::GeneId> genes(from.gene_ids().begin(),
                                   from.gene_ids().begin() + kAddedGenes);
  GeneMatrix matrix(id, kAddedSamples, std::move(genes));
  for (size_t c = 0; c < kAddedGenes; ++c) {
    for (size_t r = 0; r < kAddedSamples; ++r) matrix.At(r, c) = from.At(r, c);
  }
  imgrn::AddGaussianNoise(&matrix, 0.05, rng);
  return matrix;
}

/// Reference answers: the digest of every pool query on an in-memory
/// single engine over the base sources.
std::vector<uint64_t> ReferenceDigests(const ImGrnEngine& reference,
                                       const std::vector<GeneMatrix>& pool,
                                       const QueryParams& params,
                                       RunResult* result) {
  std::vector<uint64_t> digests;
  double answers = 0.0;
  for (const GeneMatrix& query : pool) {
    Result<std::vector<QueryMatch>> matches = reference.Query(query, params);
    if (!matches.ok()) {
      result->correct = false;
      digests.push_back(0);
      continue;
    }
    answers += static_cast<double>(matches->size());
    digests.push_back(AnswerDigest(*matches));
  }
  result->AddDetail("reference_answers_per_query",
                    pool.empty() ? 0.0 : answers / static_cast<double>(pool.size()));
  return digests;
}

struct LatencySet {
  std::vector<double> ms;
  int64_t wall_ns = 0;
  double qps() const {
    return wall_ns > 0 ? static_cast<double>(ms.size()) / Seconds(wall_ns)
                       : 0.0;
  }
};

void AddProvenance(const WorkloadOptions& options, RunResult* result) {
  result->AddDetail("workload", options.workload);
  result->AddDetail("seed", static_cast<double>(options.seed));
  result->AddDetail("seconds", options.seconds);
  result->AddDetail("trace", options.trace ? 1.0 : 0.0);
  result->AddDetail("build_type", PERFBENCH_BUILD_TYPE);
  result->AddDetail("kernel_backend",
                    imgrn::KernelBackendName(imgrn::ActiveKernelBackend()));
  result->AddDetail("nproc",
                    static_cast<double>(std::thread::hardware_concurrency()));
}

void AddEndToEnd(const LatencySet& queries, const std::vector<double>& setup_s,
                 RunResult* result) {
  result->AddMetric("query_p50_ms", Percentile(queries.ms, 0.50), "ms",
                    queries.ms.size());
  result->AddMetric("query_p99_ms", Percentile(queries.ms, 0.99), "ms",
                    queries.ms.size());
  result->AddMetric("qps", queries.qps(), "1/s", queries.ms.size());
  result->AddMetric("setup_s", Percentile(setup_s, 0.50), "s", setup_s.size());
  result->AddMetric("peak_rss_mb", PeakRssMb(), "MiB", 1);
}

/// Per-layer metrics shared by every workload; `requests` traced requests.
void AddLayerMetrics(const Tracer& tracer, const LayerCounts& counts,
                     size_t requests, RunResult* result) {
  const auto per_request_ms = [&](const char* span) {
    return tracer.MeanMsPerRequest(span, requests);
  };
  const auto per_request = [&](const char* counter) {
    return counts.PerRequest(counter, requests);
  };
  const auto ratio = [&](const char* num, const char* den) {
    const double d = counts.Sum(den);
    return d > 0 ? counts.Sum(num) / d : 0.0;
  };
  result->AddMetric("inference.infer_ms", per_request_ms("inference.infer"),
                    "ms", requests);
  result->AddMetric("inference.pairs_estimated",
                    per_request("inference.pairs_estimated"), "count",
                    requests);
  result->AddMetric("inference.pairs_pruned",
                    per_request("inference.pairs_pruned"), "count", requests);
  result->AddMetric("inference.fill_ms", per_request_ms("inference.fill"),
                    "ms", requests);
  const double match_ms = per_request_ms("query.match");
  const double refine_ms = per_request_ms("refine.matrix");
  result->AddMetric("query.match_ms", match_ms, "ms", requests);
  result->AddMetric("query.traversal_ms", match_ms - refine_ms, "ms",
                    requests);
  for (const char* counter :
       {"query.node_pairs_examined", "query.node_pairs_pruned_signature",
        "query.node_pairs_pruned_index", "query.leaf_pairs_examined",
        "query.leaf_pairs_pruned_pivot", "query.leaf_pairs_pruned_edge",
        "query.candidate_matrices", "query.matrices_pruned_graph"}) {
    result->AddMetric(counter, per_request(counter), "count", requests);
  }
  result->AddMetric("query.index_prune_yield",
                    ratio("query.node_pairs_pruned_index",
                          "query.node_pairs_examined"),
                    "ratio", requests);
  result->AddMetric("query.answer_yield",
                    ratio("query.answers", "query.candidate_matrices"),
                    "ratio", requests);
  result->AddMetric("refine.matrix_ms", refine_ms, "ms", requests);
  result->AddMetric("refine.mc_ms", per_request_ms("refine.mc"), "ms",
                    requests);
  result->AddMetric("graph.vf2_ms", per_request_ms("graph.vf2"), "ms",
                    requests);
  const double fetches = per_request("storage.fetches");
  const double misses = per_request("storage.misses");
  result->AddMetric("storage.fetches_per_query", fetches, "count", requests);
  result->AddMetric("storage.misses_per_query", misses, "count", requests);
  result->AddMetric("storage.hit_ratio",
                    fetches > 0 ? 1.0 - misses / fetches : 0.0, "ratio",
                    requests);
}

/// Storage probe metrics; the miss share is `misses_per_query` probed misses
/// against `base_p50_ms`, the untraced query p50.
void AddStorageProbe(ImGrnEngine* engine, double misses_per_query,
                     double base_p50_ms, RunResult* result) {
  const NodeAccessTimes times = ProbeNodeAccess(engine, kProbeNodes);
  if (!times.ok) result->correct = false;
  result->AddMetric("storage.miss_us", times.miss_us, "us", times.nodes);
  result->AddMetric("storage.hit_us", times.hit_us, "us", times.nodes);
  result->AddMetric("storage.crc_us_per_page",
                    CrcMicrosPerPage(imgrn::kDefaultPageSize, 2000), "us",
                    2000);
  result->AddMetric("storage.miss_share",
                    base_p50_ms > 0
                        ? misses_per_query * times.miss_us / (base_p50_ms * 1e3)
                        : 0.0,
                    "ratio", times.nodes);
  result->AddDetail("storage.miss_share_base",
                    "misses_per_query * miss_us / untraced query_p50");
}

/// Latencies of source updates. One update retires the source the previous
/// update added (if any) and adds a new one, so the workload-added set
/// stays at one source and every sample is the same mix of work.
struct UpdateLatencies {
  std::vector<double> update_ms;
  std::vector<double> add_ms;
  std::vector<double> remove_ms;
};

/// Whole-update latency percentiles, as details: across runs they spread
/// more than any end-to-end bound allows on a shared host.
void AddUpdateDetails(const UpdateLatencies& updates, RunResult* result) {
  result->AddDetail("update_p50_ms", Percentile(updates.update_ms, 0.50));
  result->AddDetail("update_p90_ms", Percentile(updates.update_ms, 0.90));
  result->AddDetail("update_samples",
                    static_cast<double>(updates.update_ms.size()));
}

void AddUpdateMetrics(const UpdateLatencies& updates, RunResult* result) {
  AddUpdateDetails(updates, result);
  result->AddMetric("index.add_source_ms", Percentile(updates.add_ms, 0.5),
                    "ms", updates.add_ms.size());
  result->AddMetric("index.remove_source_ms",
                    Percentile(updates.remove_ms, 0.5), "ms",
                    updates.remove_ms.size());
}

void AddTraceOverhead(double untraced_p50_ms, double traced_p50_ms,
                      RunResult* result) {
  result->AddMetric("trace.overhead_pct",
                    untraced_p50_ms > 0
                        ? 100.0 * (traced_p50_ms / untraced_p50_ms - 1.0)
                        : 0.0,
                    "%", 1);
  result->AddDetail("trace.untraced_query_p50_ms", untraced_p50_ms);
  result->AddDetail("trace.traced_query_p50_ms", traced_p50_ms);
}

// ---------------------------------------------------------------------------
// paper_mem and cold_disk: one client over one ImGrnEngine.

struct SingleEngineSetup {
  std::unique_ptr<ImGrnEngine> engine;
  std::vector<double> setup_s;
};

/// paper_mem: builds the in-memory engine three times (setup_s = median
/// build). The first build serves the queries and the second is the answer
/// reference.
SingleEngineSetup BuildInMemory(const GeneDatabase& base,
                                const imgrn::EngineOptions& engine_options,
                                std::unique_ptr<ImGrnEngine>* reference,
                                RunResult* result) {
  SingleEngineSetup setup;
  for (int rep = 0; rep < 3; ++rep) {
    GeneDatabase copy = base;
    auto engine = std::make_unique<ImGrnEngine>(engine_options);
    const int64_t t0 = NowNs();
    engine->LoadDatabase(std::move(copy));
    const imgrn::Status built = engine->BuildIndex();
    setup.setup_s.push_back(Seconds(NowNs() - t0));
    if (!built.ok()) result->correct = false;
    if (rep == 0) setup.engine = std::move(engine);
    if (rep == 1) *reference = std::move(engine);
  }
  return setup;
}

/// cold_disk: builds a disk-backed engine once and snapshots it, then
/// reopens it with LoadSnapshot five times (setup_s = median reopen). The
/// last reopen serves the queries.
SingleEngineSetup ReopenFromSnapshot(const GeneDatabase& base,
                                     const imgrn::EngineOptions& engine_options,
                                     RunResult* result) {
  SingleEngineSetup setup;
  std::remove(engine_options.storage.path.c_str());
  {
    ImGrnEngine writer(engine_options);
    writer.LoadDatabase(base);
    if (!writer.BuildIndex().ok() || !writer.SaveSnapshot().ok()) {
      result->correct = false;
      return setup;
    }
  }
  for (int rep = 0; rep < 5; ++rep) {
    setup.engine.reset();  // One open handle on the store at a time.
    auto engine = std::make_unique<ImGrnEngine>(engine_options);
    const int64_t t0 = NowNs();
    const imgrn::Status loaded = engine->LoadSnapshot();
    setup.setup_s.push_back(Seconds(NowNs() - t0));
    if (!loaded.ok()) result->correct = false;
    setup.engine = std::move(engine);
  }
  return setup;
}


/// The traced loop: each request split into inference, matching and the
/// refinement replay. Latency counts inference + matching only.
LatencySet TracedSingleEngineLoop(const ImGrnEngine& engine,
                                  const std::vector<GeneMatrix>& pool,
                                  const std::vector<uint64_t>& digests,
                                  const QueryParams& params, int64_t end_ns,
                                  Tracer* tracer, LayerCounts* counts,
                                  RunResult* result) {
  LatencySet set;
  QueryParams costed = params;
  costed.collect_source_costs = true;  // Lists the candidate sources.
  const int64_t start = NowNs();
  for (uint64_t request = 1; NowNs() < end_ns; ++request) {
    const size_t q = request % pool.size();
    ScopedSpan root(tracer, "request", request);
    const int64_t t0 = NowNs();
    const imgrn::ProbGraph graph =
        TracedInferGrn(pool[q], params, tracer, request, root.id(), counts);
    imgrn::QueryStats stats;
    Result<std::vector<QueryMatch>> matches = std::vector<QueryMatch>{};
    {
      ScopedSpan span(tracer, "query.match", request, root.id());
      matches = engine.QueryWithGraph(graph, costed, &stats);
    }
    set.ms.push_back(Millis(NowNs() - t0));
    ++result->attempted;
    if (!matches.ok() || AnswerDigest(*matches) != digests[q]) {
      ++result->failed;
      continue;
    }
    CountQueryStats(stats, counts);
    std::vector<imgrn::SourceId> candidates;
    for (const imgrn::SourceCostSample& sample : stats.source_costs) {
      candidates.push_back(sample.source);
    }
    if (!ReplayRefinement(engine, graph, params, candidates, *matches,
                          stats.matrices_pruned_graph, tracer, request,
                          root.id())) {
      result->correct = false;
      result->AddDetail("replay_mismatch_request",
                        static_cast<double>(request));
    }
  }
  set.wall_ns = NowNs() - start;
  return set;
}

/// Runs one update through `add` / `remove` and records its latencies.
template <typename AddFn, typename RemoveFn>
void TimedUpdate(const GeneDatabase& base, imgrn::SourceId next_id,
                 std::optional<imgrn::SourceId>* previous, imgrn::Rng* rng,
                 AddFn add, RemoveFn remove, UpdateLatencies* latencies,
                 RunResult* result) {
  GeneMatrix matrix = MakeAddedSource(base, next_id, rng);
  const int64_t t0 = NowNs();
  if (previous->has_value()) {
    const imgrn::Status removed = remove(**previous);
    latencies->remove_ms.push_back(Millis(NowNs() - t0));
    ++result->attempted;
    if (!removed.ok()) ++result->failed;
  }
  const int64_t t1 = NowNs();
  const imgrn::Status added = add(std::move(matrix));
  const int64_t t2 = NowNs();
  latencies->add_ms.push_back(Millis(t2 - t1));
  latencies->update_ms.push_back(Millis(t2 - t0));
  ++result->attempted;
  if (!added.ok()) ++result->failed;
  *previous = next_id;
}

/// Updates against one engine; the workload-added set stays at one source.
/// The single-engine workloads send them to the in-memory reference engine
/// once it has produced the reference answers: the queried index never
/// changes, cold_disk's query path stays read-only, and with a pool larger
/// than the tree an update costs its index work rather than a
/// seed-dependent number of buffer-pool misses.
class SingleEngineUpdater {
 public:
  SingleEngineUpdater(ImGrnEngine* engine, const GeneDatabase* base,
                      uint64_t seed)
      : engine_(engine), base_(base), rng_(seed ^ 0xADDu) {}

  void Update(RunResult* result) {
    TimedUpdate(
        *base_, static_cast<imgrn::SourceId>(engine_->database().size()),
        &previous_, &rng_,
        [this](GeneMatrix m) { return engine_->AddMatrix(std::move(m)); },
        [this](imgrn::SourceId s) { return engine_->RemoveMatrix(s); },
        &latencies_, result);
  }

  const UpdateLatencies& latencies() const { return latencies_; }
  void ClearLatencies() { latencies_ = UpdateLatencies(); }

 private:
  ImGrnEngine* engine_;
  const GeneDatabase* base_;
  imgrn::Rng rng_;
  std::optional<imgrn::SourceId> previous_;
  UpdateLatencies latencies_;
};

/// The closed loop: one client, one query at a time, until `end_ns`.
LatencySet SingleEngineLoop(const ImGrnEngine& engine,
                            const std::vector<GeneMatrix>& pool,
                            const std::vector<uint64_t>& digests,
                            const QueryParams& params, int64_t end_ns,
                            RunResult* result) {
  LatencySet set;
  const int64_t start = NowNs();
  for (size_t i = 0; NowNs() < end_ns; ++i) {
    const size_t q = i % pool.size();
    const int64_t t0 = NowNs();
    Result<std::vector<QueryMatch>> matches = engine.Query(pool[q], params);
    set.ms.push_back(Millis(NowNs() - t0));
    ++result->attempted;
    if (!matches.ok() || AnswerDigest(*matches) != digests[q]) {
      ++result->failed;
    }
  }
  set.wall_ns = NowNs() - start;
  return set;
}

RunResult RunSingleEngine(const WorkloadOptions& options, bool disk) {
  RunResult result;
  AddProvenance(options, &result);
  QueryParams params;  // gamma = alpha = 0.5, 128 Monte Carlo samples.
  params.seed = options.seed;

  const GeneDatabase base = SyntheticDatabase(
      disk ? imgrn::EdgeWeightDistribution::kGaussian
           : imgrn::EdgeWeightDistribution::kUniform,
      options.seed);
  imgrn::EngineOptions engine_options;
  std::unique_ptr<ImGrnEngine> reference;
  SingleEngineSetup setup;
  if (disk) {
    engine_options.index.buffer_pool_pages = 32;
    engine_options.storage.backend = imgrn::StorageBackend::kDisk;
    engine_options.storage.path = options.work_dir + "/cold_disk-" +
                                  std::to_string(options.seed) + ".pages";
    setup = ReopenFromSnapshot(base, engine_options, &result);
    imgrn::EngineOptions reference_options;
    reference_options.index.buffer_pool_pages = kLargePoolPages;
    reference = std::make_unique<ImGrnEngine>(reference_options);
    reference->LoadDatabase(base);
    if (!reference->BuildIndex().ok()) result.correct = false;
  } else {
    engine_options.index.buffer_pool_pages = kLargePoolPages;
    setup = BuildInMemory(base, engine_options, &reference, &result);
  }
  result.AddDetail("buffer_pool_pages",
                   static_cast<double>(engine_options.index.buffer_pool_pages));
  if (setup.engine == nullptr || !setup.engine->has_index() ||
      !reference->has_index()) {
    result.correct = false;
    return result;
  }
  ImGrnEngine& engine = *setup.engine;
  result.AddDetail("tree_nodes",
                   static_cast<double>(engine.index().rtree().num_nodes()));

  const std::vector<GeneMatrix> pool =
      MakeQueryPool(base, /*genes=*/5, params.gamma, options.seed);
  if (pool.size() < kQueryPoolSize / 2) {
    result.correct = false;
    return result;
  }
  const std::vector<uint64_t> digests =
      ReferenceDigests(*reference, pool, params, &result);

  // Warm-up, checked, outside the clock: fills the buffer pool and finishes
  // lazy set-up.
  for (size_t q = 0; q < kWarmUpQueries; ++q) {
    Result<std::vector<QueryMatch>> matches = engine.Query(pool[q], params);
    if (!matches.ok() || AnswerDigest(*matches) != digests[q]) {
      result.correct = false;
    }
  }
  result.AddDetail("query_pool", static_cast<double>(pool.size()));

  // When tracing, the first half of the run repeats the untraced loop.
  const int64_t loop_ns = static_cast<int64_t>(options.seconds * 1e9);
  const LatencySet untraced = SingleEngineLoop(
      engine, pool, digests, params,
      NowNs() + (options.trace ? loop_ns / 2 : loop_ns), &result);

  if (!options.trace) {
    AddEndToEnd(untraced, setup.setup_s, &result);
  } else {
    Tracer tracer;
    LayerCounts counts;
    const LatencySet traced =
        TracedSingleEngineLoop(engine, pool, digests, params,
                               NowNs() + loop_ns / 2, &tracer, &counts,
                               &result);
    const double untraced_p50 = Percentile(untraced.ms, 0.5);
    AddLayerMetrics(tracer, counts, traced.ms.size(), &result);
    AddStorageProbe(&engine,
                    counts.PerRequest("storage.misses", traced.ms.size()),
                    untraced_p50, &result);
    // One engine, no serving layer: the degenerate one-shard values.
    const double match_ms =
        tracer.MeanMsPerRequest("query.match", traced.ms.size());
    result.AddMetric("service.shard_ms_max", match_ms, "ms", traced.ms.size());
    result.AddMetric("service.shard_ms_sum", match_ms, "ms", traced.ms.size());
    result.AddMetric("service.fanout_overhead_ms", 0.0, "ms", 1);
    result.AddMetric("service.queue_ms", 0.0, "ms", 1);
    result.AddMetric("service.imbalance", 1.0, "ratio", 1);
    result.AddMetric("service.retries", 0.0, "count", 1);
    result.AddMetric("service.failovers", 0.0, "count", 1);
    // Updates go to the reference engine (see SingleEngineUpdater), after
    // warm-up updates that fill its lazy caches.
    SingleEngineUpdater updater(reference.get(), &base, options.seed);
    RunResult warm_up;
    for (size_t u = 0; u < kWarmUpUpdates; ++u) updater.Update(&warm_up);
    if (warm_up.failed > 0) result.correct = false;
    updater.ClearLatencies();
    for (size_t u = 0; u < kSingleEngineUpdates; ++u) updater.Update(&result);
    AddUpdateMetrics(updater.latencies(), &result);
    AddTraceOverhead(untraced_p50, Percentile(traced.ms, 0.5), &result);
    result.AddDetail("trace.untraced_qps", untraced.qps());
    result.AddDetail("trace.traced_qps", traced.qps());
    if (!tracer.Dump(options.work_dir + "/spans-" + options.workload + ".jsonl")) {
      result.correct = false;
    }
  }
  setup.engine.reset();
  if (disk) std::remove(engine_options.storage.path.c_str());
  return result;
}

// ---------------------------------------------------------------------------
// sharded_mixed: QueryService over ShardedEngine{K=4, R=2} on a shared
// pool, one client keeping a fixed window of queries in flight, one update
// per kQueriesPerUpdate queries.

constexpr size_t kShards = 4;
constexpr size_t kReplicas = 2;

QueryParams ShardedParams(uint64_t seed) {
  QueryParams params;
  params.gamma = 0.3;
  params.alpha = 0.05;
  params.query_num_samples = 1024;
  params.refine_num_samples = 1024;
  params.seed = seed;
  return params;
}

RunResult RunShardedMixed(const WorkloadOptions& options) {
  RunResult result;
  AddProvenance(options, &result);
  const QueryParams params = ShardedParams(options.seed);
  const size_t workers = std::clamp<size_t>(
      std::thread::hardware_concurrency(), 1, 4);
  const size_t window = workers;
  result.AddDetail("workers", static_cast<double>(workers));
  result.AddDetail("window", static_cast<double>(window));

  const GeneDatabase base = RealSurrogateDatabase(options.seed);
  imgrn::ThreadPool thread_pool(workers);
  imgrn::ShardedEngineOptions sharded_options;
  sharded_options.num_shards = kShards;
  sharded_options.num_replicas = kReplicas;

  // Five set-ups: a build's time is the makespan of 8 replica builds over
  // the pool, which lands in one of two modes run by run.
  std::vector<double> setup_s;
  std::unique_ptr<imgrn::ShardedEngine> sharded;
  for (int rep = 0; rep < 5; ++rep) {
    sharded.reset();
    GeneDatabase copy = base;
    auto engine =
        std::make_unique<imgrn::ShardedEngine>(sharded_options, &thread_pool);
    const int64_t t0 = NowNs();
    engine->LoadDatabase(std::move(copy));
    const imgrn::Status built = engine->BuildIndex();
    setup_s.push_back(Seconds(NowNs() - t0));
    if (!built.ok()) {
      result.correct = false;
      return result;
    }
    sharded = std::move(engine);
  }

  ImGrnEngine reference;
  reference.LoadDatabase(base);
  if (!reference.BuildIndex().ok()) {
    result.correct = false;
    return result;
  }
  const std::vector<GeneMatrix> pool =
      MakeQueryPool(base, /*genes=*/6, params.gamma, options.seed);
  if (pool.size() < kQueryPoolSize / 2) {
    result.correct = false;
    return result;
  }
  const std::vector<uint64_t> digests =
      ReferenceDigests(reference, pool, params, &result);
  result.AddDetail("query_pool", static_cast<double>(pool.size()));

  imgrn::QueryServiceOptions service_options;
  service_options.max_queue_depth = window + 1;
  imgrn::QueryService service(sharded.get(), &thread_pool, service_options);
  const auto check = [&](const Result<std::vector<QueryMatch>>& matches,
                         size_t q) {
    return matches.ok() &&
           AnswerDigest(RestrictToBaseSources(*matches, kNumMatrices)) ==
               digests[q];
  };

  // Warm-up, checked, outside the clock.
  for (size_t q = 0; q < kWarmUpQueries; ++q) {
    if (!check(service.SubmitQuery(pool[q], params).result.get(), q)) {
      result.correct = false;
    }
  }

  imgrn::Rng update_rng(options.seed ^ 0xADDu);
  std::optional<imgrn::SourceId> previous;
  UpdateLatencies updates;
  const auto update = [&] {
    TimedUpdate(
        base, static_cast<imgrn::SourceId>(sharded->num_sources()), &previous,
        &update_rng,
        [&service](GeneMatrix m) { return service.AddMatrix(std::move(m)); },
        [&service](imgrn::SourceId s) { return service.RemoveMatrix(s); },
        &updates, &result);
  };

  for (size_t u = 0; u < kWarmUpUpdates; ++u) update();
  updates = UpdateLatencies();

  // The closed loop with `window` queries in flight. Completions are
  // taken in submission order.
  struct InFlight {
    std::future<imgrn::QueryService::QueryResult> result;
    int64_t submitted_ns;
    size_t query;
  };
  const int64_t loop_ns = static_cast<int64_t>(options.seconds * 1e9);
  const int64_t start = NowNs();
  const int64_t loop_end = start + (options.trace ? loop_ns / 2 : loop_ns);
  size_t cursor = 0;
  std::deque<InFlight> in_flight;
  const auto submit = [&] {
    const size_t q = cursor++ % pool.size();
    const int64_t t0 = NowNs();
    in_flight.push_back({service.SubmitQuery(pool[q], params).result, t0, q});
  };
  LatencySet queries;
  while (in_flight.size() < window) submit();
  size_t completed = 0;
  while (!in_flight.empty()) {
    InFlight next = std::move(in_flight.front());
    in_flight.pop_front();
    const Result<std::vector<QueryMatch>> matches = next.result.get();
    queries.ms.push_back(Millis(NowNs() - next.submitted_ns));
    ++result.attempted;
    if (!check(matches, next.query)) ++result.failed;
    ++completed;
    if (NowNs() < loop_end) {
      if (completed % kQueriesPerUpdate == 0) update();
      submit();
    }
  }
  queries.wall_ns = NowNs() - start;

  if (!options.trace) {
    AddEndToEnd(queries, setup_s, &result);
    AddUpdateDetails(updates, &result);
    return result;
  }

  // Traced half: one request at a time, each decomposed.
  Tracer tracer;
  LayerCounts counts;
  std::vector<double> single_ms;  // Service latency with one in flight.
  std::vector<double> traced_ms;  // Inference + fan-out, traced.
  std::vector<double> fanout_overhead_ms;
  std::vector<double> shard_max_ms;
  std::vector<double> shard_sum_ms;
  double retries = 0.0;
  double failovers = 0.0;
  QueryParams costed = params;
  costed.collect_source_costs = true;
  for (uint64_t request = 1; NowNs() < start + loop_ns; ++request) {
    const size_t q = cursor++ % pool.size();
    int64_t t0 = NowNs();
    const bool served_ok =
        check(service.SubmitQuery(pool[q], params).result.get(), q);
    single_ms.push_back(Millis(NowNs() - t0));
    ++result.attempted;
    if (!served_ok) ++result.failed;

    ScopedSpan root(&tracer, "request", request);
    t0 = NowNs();
    const imgrn::ProbGraph graph =
        TracedInferGrn(pool[q], params, &tracer, request, root.id(), &counts);
    imgrn::QueryStats stats;
    Result<std::vector<QueryMatch>> fanned = std::vector<QueryMatch>{};
    int64_t fanout_ns = 0;
    {
      ScopedSpan span(&tracer, "service.fanout", request, root.id());
      const int64_t f0 = NowNs();
      fanned = sharded->QueryWithGraph(graph, params, &stats);
      fanout_ns = NowNs() - f0;
    }
    traced_ms.push_back(Millis(NowNs() - t0));
    if (!check(fanned, q)) {
      result.correct = false;
      continue;
    }
    CountQueryStats(stats, &counts);
    retries += static_cast<double>(stats.shard_retries);
    failovers += static_cast<double>(stats.replica_failovers);

    int64_t max_ns = 0;
    int64_t sum_ns = 0;
    for (size_t s = 0; s < kShards; ++s) {
      ScopedSpan span(&tracer, "service.shard", request, root.id());
      const int64_t s0 = NowNs();
      const bool shard_ok = sharded->QueryShard(s, graph, params).ok();
      const int64_t elapsed = NowNs() - s0;
      if (!shard_ok) result.correct = false;
      max_ns = std::max(max_ns, elapsed);
      sum_ns += elapsed;
    }
    shard_max_ms.push_back(Millis(max_ns));
    shard_sum_ms.push_back(Millis(sum_ns));
    fanout_overhead_ms.push_back(Millis(fanout_ns - max_ns));

    // Matching and refinement on the reference engine (one index to
    // replay against), checked against the served answer.
    imgrn::QueryStats reference_stats;
    Result<std::vector<QueryMatch>> matched = std::vector<QueryMatch>{};
    {
      ScopedSpan span(&tracer, "query.match", request, root.id());
      matched = reference.QueryWithGraph(graph, costed, &reference_stats);
    }
    if (!matched.ok() || AnswerDigest(*matched) != digests[q]) {
      result.correct = false;
      continue;
    }
    std::vector<imgrn::SourceId> candidates;
    for (const imgrn::SourceCostSample& sample :
         reference_stats.source_costs) {
      candidates.push_back(sample.source);
    }
    if (!ReplayRefinement(reference, graph, params, candidates, *matched,
                          reference_stats.matrices_pruned_graph, &tracer,
                          request, root.id())) {
      result.correct = false;
      result.AddDetail("replay_mismatch_request",
                       static_cast<double>(request));
    }
  }
  const size_t requests = traced_ms.size();
  AddLayerMetrics(tracer, counts, requests, &result);
  AddStorageProbe(&reference, counts.PerRequest("storage.misses", requests),
                  Percentile(queries.ms, 0.5), &result);
  const imgrn::ShardedEngineStatsSnapshot snapshot = sharded->StatsSnapshot();
  result.AddMetric("service.shard_ms_max", Mean(shard_max_ms), "ms", requests);
  result.AddMetric("service.shard_ms_sum", Mean(shard_sum_ms), "ms", requests);
  result.AddMetric("service.fanout_overhead_ms",
                   Percentile(fanout_overhead_ms, 0.5), "ms", requests);
  result.AddMetric("service.queue_ms",
                   Percentile(queries.ms, 0.5) - Percentile(single_ms, 0.5),
                   "ms", single_ms.size());
  result.AddMetric("service.imbalance", snapshot.measured_imbalance, "ratio",
                   1);
  result.AddMetric("service.retries", retries, "count", requests);
  result.AddMetric("service.failovers", failovers, "count", requests);
  result.AddDetail("service.estimated_imbalance", snapshot.imbalance);
  AddUpdateMetrics(updates, &result);
  AddTraceOverhead(Percentile(single_ms, 0.5), Percentile(traced_ms, 0.5),
                   &result);
  result.AddDetail("trace.window_query_p50_ms", Percentile(queries.ms, 0.5));
  result.AddDetail("trace.window_qps", queries.qps());
  if (!tracer.Dump(options.work_dir + "/spans-" + options.workload + ".jsonl")) {
    result.correct = false;
  }
  return result;
}

}  // namespace

bool IsKnownWorkload(const std::string& name) {
  return name == "paper_mem" || name == "cold_disk" || name == "sharded_mixed";
}

RunResult RunWorkload(const WorkloadOptions& options) {
  if (options.workload == "sharded_mixed") return RunShardedMixed(options);
  return RunSingleEngine(options, options.workload == "cold_disk");
}

}  // namespace perfbench
