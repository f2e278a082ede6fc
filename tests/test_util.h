#ifndef IMGRN_TESTS_TEST_UTIL_H_
#define IMGRN_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/engine.h"
#include "graph/prob_graph.h"
#include "matrix/gene_matrix.h"
#include "query/query_types.h"
#include "service/sharded_engine.h"

namespace imgrn {
namespace testing_util {

/// Builds an l x n matrix with *planted correlation clusters*: genes inside
/// one cluster share a latent factor (pairwise correlation ~ strength^2),
/// genes in different clusters (and singletons) are independent. This gives
/// tests precise control over which gene pairs the IM-GRN measure should
/// connect.
inline GeneMatrix MakePlantedMatrix(
    SourceId source, size_t num_samples,
    const std::vector<std::vector<GeneId>>& clusters,
    const std::vector<GeneId>& singleton_genes, double strength, Rng* rng) {
  std::vector<GeneId> all_genes;
  for (const auto& cluster : clusters) {
    all_genes.insert(all_genes.end(), cluster.begin(), cluster.end());
  }
  all_genes.insert(all_genes.end(), singleton_genes.begin(),
                   singleton_genes.end());
  GeneMatrix matrix(source, num_samples, all_genes);
  const double noise = std::sqrt(std::max(0.0, 1.0 - strength * strength));
  size_t column = 0;
  for (const auto& cluster : clusters) {
    std::vector<double> factor(num_samples);
    for (double& value : factor) value = rng->Gaussian();
    for (size_t g = 0; g < cluster.size(); ++g) {
      for (size_t j = 0; j < num_samples; ++j) {
        matrix.At(j, column) = strength * factor[j] + noise * rng->Gaussian();
      }
      ++column;
    }
  }
  for (size_t g = 0; g < singleton_genes.size(); ++g) {
    for (size_t j = 0; j < num_samples; ++j) {
      matrix.At(j, column) = rng->Gaussian();
    }
    ++column;
  }
  return matrix;
}

/// A labeled path query g0 - g1 - ... - g_{k-1} with edge probabilities 1.
inline ProbGraph MakePathQuery(const std::vector<GeneId>& genes) {
  ProbGraph query;
  for (GeneId gene : genes) query.AddVertex(gene);
  for (VertexId v = 0; v + 1 < genes.size(); ++v) {
    query.AddEdge(v, v + 1, 1.0);
  }
  return query;
}

// --- Shared cluster-database scaffolding ---------------------------------
//
// The service-layer differential suites (sharded_engine_test,
// partition_invariance_test, fault_injection_test, shard_stress_test,
// replication_test, result_cache_test) all build the same shape of
// database: cluster {1, 2, 3} planted in every source (so every source
// answers the cluster query) plus per-source filler genes. They differ
// only in seeds, sample-count formulas, and filler gene ids — and those
// differences are part of each suite's pinned expectations, so the
// generator is parameterized rather than unified. Changing a config
// changes what a suite's goldens mean; the defaults below reproduce the
// historical partition_invariance_test matrices bit-for-bit.

struct ClusterDatabaseConfig {
  /// Source s draws from Rng(seed_base + s).
  uint64_t seed_base = 900;

  /// Sample count of source s: samples_base + samples_step * (s %
  /// samples_mod); samples_mod == 0 means a fixed samples_base for every
  /// source. Varying counts exercise several permutation-cache lengths.
  size_t samples_base = 28;
  size_t samples_step = 2;
  size_t samples_mod = 5;

  /// Source s carries filler (singleton) genes filler_base + 10 * s + g
  /// for g in [0, num_fillers).
  GeneId filler_base = 50;
  size_t num_fillers = 2;

  double strength = 0.97;
};

inline size_t ClusterSampleCount(const ClusterDatabaseConfig& config,
                                 SourceId source) {
  if (config.samples_mod == 0) return config.samples_base;
  return config.samples_base + config.samples_step * (source % config.samples_mod);
}

/// One source of the planted-cluster database described by `config`.
inline GeneMatrix MakeClusterMatrix(const ClusterDatabaseConfig& config,
                                    SourceId source) {
  Rng rng(config.seed_base + source);
  std::vector<GeneId> fillers;
  for (size_t g = 0; g < config.num_fillers; ++g) {
    fillers.push_back(
        static_cast<GeneId>(config.filler_base + 10 * source + g));
  }
  return MakePlantedMatrix(source, ClusterSampleCount(config, source),
                           {{1, 2, 3}}, fillers, config.strength, &rng);
}

inline GeneDatabase MakeClusterDatabase(const ClusterDatabaseConfig& config,
                                        size_t num_sources) {
  GeneDatabase database;
  for (SourceId i = 0; i < num_sources; ++i) {
    database.Add(MakeClusterMatrix(config, i));
  }
  return database;
}

/// The matching query: the {1, 2, 3} cluster alone, seeded independently
/// of every database source.
inline GeneMatrix MakeClusterQueryMatrix(uint64_t seed,
                                         size_t num_samples = 32) {
  Rng rng(seed);
  return MakePlantedMatrix(0, num_samples, {{1, 2, 3}}, {}, 0.97, &rng);
}

/// The QueryParams every cluster-database suite runs with.
inline QueryParams DefaultClusterParams() {
  QueryParams params;
  params.gamma = 0.5;
  params.alpha = 0.3;
  return params;
}

// --- Shared engine scaffolding -------------------------------------------

/// ShardedEngineOptions builder covering the axes the suites sweep. The
/// remaining knobs keep their defaults; callers adjust them on the result.
inline ShardedEngineOptions MakeShardedOptions(size_t num_shards,
                                               size_t num_replicas = 1,
                                               size_t cache_capacity = 0,
                                               std::string storage_dir = "") {
  ShardedEngineOptions options;
  options.num_shards = num_shards;
  options.num_replicas = num_replicas;
  options.cache.capacity = cache_capacity;
  options.storage_dir = std::move(storage_dir);
  return options;
}

/// A ShardedEngine loaded with the config's database and indexed, ready to
/// serve. EXPECTs the index build to succeed.
inline std::unique_ptr<ShardedEngine> MakeLoadedShardedEngine(
    const ClusterDatabaseConfig& config, size_t num_sources,
    ShardedEngineOptions options, ThreadPool* pool = nullptr) {
  auto engine = std::make_unique<ShardedEngine>(std::move(options), pool);
  engine->LoadDatabase(MakeClusterDatabase(config, num_sources));
  EXPECT_TRUE(engine->BuildIndex().ok());
  return engine;
}

/// Feeds `engine`'s measured cost model work counts instead of wall-clock
/// seconds (ShardedEngine::SetCostMeterForTesting), for tests that assert
/// on measured imbalance. A source is charged one microsecond per
/// candidate gene pair the traversal surfaced for it: the pairs drive its
/// refinement and carry its share of the traversal. The shard's
/// permutation-fill bucket is charged nothing; that overhead belongs to no
/// source, and in wall-clock form its noise decided these tests.
inline void UseCandidatePairCostMeter(ShardedEngine* engine) {
  engine->SetCostMeterForTesting(
      [](const SourceCostSample& sample) {
        return 1e-6 * static_cast<double>(sample.candidate_pairs);
      },
      [](const QueryStats&) { return 0.0; });
}

/// Byte-exact match comparison — the differential suites' core assertion.
/// EXPECT_EQ on the probability doubles on purpose: sharding, replication,
/// partitioning, and caching must not perturb a single bit.
inline void ExpectIdenticalMatches(const std::vector<QueryMatch>& actual,
                                   const std::vector<QueryMatch>& expected,
                                   const std::string& context) {
  ASSERT_EQ(actual.size(), expected.size()) << context;
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].source, expected[i].source)
        << context << " [" << i << "]";
    EXPECT_EQ(actual[i].probability, expected[i].probability)
        << context << " [" << i << "]";
    EXPECT_EQ(actual[i].mapping, expected[i].mapping)
        << context << " [" << i << "]";
  }
}

/// Fixture base holding the unsharded reference engine the differential
/// suites compare against.
class ReferenceEngineFixture : public ::testing::Test {
 protected:
  void BuildReference(GeneDatabase database) {
    reference_.LoadDatabase(std::move(database));
    ASSERT_TRUE(reference_.BuildIndex().ok());
  }

  std::vector<QueryMatch> ReferenceQuery(const GeneMatrix& query,
                                         const QueryParams& params) {
    Result<std::vector<QueryMatch>> result = reference_.Query(query, params);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return *result;
  }

  ImGrnEngine reference_;
};

}  // namespace testing_util
}  // namespace imgrn

#endif  // IMGRN_TESTS_TEST_UTIL_H_
