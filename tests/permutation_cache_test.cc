#include "inference/permutation_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/engine.h"
#include "matrix/vector_ops.h"
#include "prob/edge_probability.h"
#include "service/sharded_engine.h"
#include "service/thread_pool.h"
#include "test_util.h"

namespace imgrn {
namespace {

std::vector<double> RandomStandardized(size_t l, Rng* rng) {
  std::vector<double> values(l);
  for (double& value : values) value = rng->Gaussian();
  StandardizeInPlace(values);
  return values;
}

// Sample s of `blocks`: block s / 8, lane s % 8 of the interleaved layout.
std::vector<uint32_t> Sample(const PermutationBlocks& blocks, size_t s) {
  const size_t k = s / kPermutedDistanceBatch;
  const size_t b = s % kPermutedDistanceBatch;
  const size_t width = blocks.block_width(k);
  std::vector<uint32_t> perm(blocks.length());
  for (size_t i = 0; i < blocks.length(); ++i) {
    perm[i] = blocks.block(k)[i * width + b];
  }
  return perm;
}

std::vector<std::vector<uint32_t>> AllSamples(const PermutationBlocks& blocks) {
  std::vector<std::vector<uint32_t>> samples;
  for (size_t s = 0; s < blocks.num_samples(); ++s) {
    samples.push_back(Sample(blocks, s));
  }
  return samples;
}

TEST(PermutationCacheTest, GeneratesRequestedCount) {
  PermutationCache cache(32, 1);
  const PermutationBlocks& blocks = cache.BlocksForLength(10);
  EXPECT_EQ(blocks.num_samples(), 32u);
  EXPECT_EQ(blocks.num_blocks(), 4u);
}

TEST(PermutationCacheTest, EntriesAreValidPermutations) {
  PermutationCache cache(16, 2);
  for (const auto& perm : AllSamples(cache.BlocksForLength(9))) {
    std::vector<uint32_t> sorted = perm;
    std::sort(sorted.begin(), sorted.end());
    for (uint32_t i = 0; i < 9; ++i) {
      EXPECT_EQ(sorted[i], i);
    }
  }
}

TEST(PermutationCacheTest, RepeatLookupReturnsSameObject) {
  PermutationCache cache(8, 3);
  const auto* first = &cache.BlocksForLength(5);
  const auto* second = &cache.BlocksForLength(5);
  EXPECT_EQ(first, second);
}

TEST(PermutationCacheTest, DifferentLengthsIndependent) {
  PermutationCache cache(8, 4);
  EXPECT_EQ(cache.BlocksForLength(5).length(), 5u);
  EXPECT_EQ(cache.BlocksForLength(7).length(), 7u);
}

TEST(PermutationCacheTest, DeterministicBySeed) {
  PermutationCache a(8, 42);
  PermutationCache b(8, 42);
  EXPECT_EQ(AllSamples(a.BlocksForLength(6)), AllSamples(b.BlocksForLength(6)));
}

// Block k, lane b holds the (8k + b)-th Rng::Permutation draw of the
// stream, including the lanes of a narrow final block (20 samples: two
// full blocks and one of width 4).
TEST(PermutationCacheTest, BlocksHoldDrawsInOrder) {
  Rng block_rng(7);
  const PermutationBlocks blocks(20, 9, &block_rng);
  ASSERT_EQ(blocks.num_blocks(), 3u);
  EXPECT_EQ(blocks.block_width(2), 4u);
  Rng draw_rng(7);
  std::vector<uint32_t> draw;
  for (size_t s = 0; s < blocks.num_samples(); ++s) {
    draw_rng.Permutation(9, &draw);
    EXPECT_EQ(Sample(blocks, s), draw) << "sample " << s;
  }
}

TEST(EstimateEdgeProbabilityCachedTest, AgreesWithFreshEstimator) {
  Rng data_rng(5);
  std::vector<double> a = RandomStandardized(30, &data_rng);
  std::vector<double> b(30);
  for (size_t i = 0; i < 30; ++i) {
    b[i] = 0.8 * a[i] + 0.6 * data_rng.Gaussian();
  }
  StandardizeInPlace(b);
  PermutationCache cache(4000, 6);
  const double cached = EstimateEdgeProbabilityCached(a, b, &cache);
  Rng est_rng(7);
  EdgeProbabilityEstimator estimator(4000);
  const double fresh = estimator.Estimate(a, b, &est_rng);
  EXPECT_NEAR(cached, fresh, 0.05);
}

TEST(EstimateEdgeProbabilityCachedTest, ResultInUnitInterval) {
  Rng rng(8);
  PermutationCache cache(64, 9);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> a = RandomStandardized(12, &rng);
    std::vector<double> b = RandomStandardized(12, &rng);
    const double p = EstimateEdgeProbabilityCached(a, b, &cache);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(MinHitsAboveTest, MatchesTheEstimateExpression) {
  // h / S > gamma iff h >= MinHitsAbove(gamma, S), for gamma on the h/S
  // grid, one ulp either side of it, and at random.
  Rng rng(31);
  for (size_t num_samples : {1, 2, 3, 7, 8, 9, 16, 37, 100, 128, 129, 300}) {
    const double s = static_cast<double>(num_samples);
    std::vector<double> gammas;
    for (size_t h = 0; h < num_samples; ++h) {
      const double grid = static_cast<double>(h) / s;
      gammas.insert(gammas.end(), {grid, std::nextafter(grid, 0.0),
                                   std::nextafter(grid, 1.0)});
    }
    for (int i = 0; i < 50; ++i) gammas.push_back(rng.UniformDouble());
    size_t mismatches = 0;
    for (double gamma : gammas) {
      const size_t min_hits = MinHitsAbove(gamma, num_samples);
      EXPECT_LE(min_hits, num_samples + 1);
      for (size_t h = 0; h <= num_samples; ++h) {
        if ((static_cast<double>(h) / s > gamma) != (h >= min_hits)) {
          ++mismatches;
        }
      }
    }
    EXPECT_EQ(mismatches, 0u) << "S = " << num_samples;
  }
  EXPECT_EQ(MinHitsAbove(0.0, 128), 1u);
  EXPECT_EQ(MinHitsAbove(0.5, 128), 65u);
  EXPECT_EQ(MinHitsAbove(1.0, 128), 129u);  // No count clears gamma = 1.
}

TEST(CountPermutedHitsTest, StopsDecideAsTheFullCount) {
  // Either stop leaves a count that reaches min_hits iff the full count
  // does. The unreachable-only stop never cuts a count that gets there,
  // and with no stop the count is the estimate's.
  Rng rng(32);
  for (size_t num_samples : {5, 8, 16, 33, 128}) {
    PermutationCache cache(num_samples, 33 + num_samples);
    for (size_t l : {3, 8, 17, 30}) {
      for (int trial = 0; trial < 6; ++trial) {
        const std::vector<double> a = RandomStandardized(l, &rng);
        std::vector<double> b = RandomStandardized(l, &rng);
        const double mix = 0.3 * trial - 0.6;  // Anti- to well correlated.
        for (size_t i = 0; i < l; ++i) b[i] += mix * a[i];
        StandardizeInPlace(b);
        const size_t full =
            CountPermutedHits(a, b, &cache, 0, HitCountStop::kNever);
        EXPECT_EQ(static_cast<double>(full) /
                      static_cast<double>(num_samples),
                  EstimateEdgeProbabilityCached(a, b, &cache));
        for (size_t min_hits = 0; min_hits <= num_samples + 1; ++min_hits) {
          const size_t unreachable = CountPermutedHits(
              a, b, &cache, min_hits, HitCountStop::kWhenUnreachable);
          const size_t decided = CountPermutedHits(
              a, b, &cache, min_hits, HitCountStop::kWhenDecided);
          EXPECT_EQ(unreachable >= min_hits, full >= min_hits);
          EXPECT_EQ(decided >= min_hits, full >= min_hits);
          EXPECT_LE(decided, full);
          EXPECT_LE(unreachable, full);
          if (full >= min_hits) {
            EXPECT_EQ(unreachable, full);
          }
        }
      }
    }
  }
}

// A constant column standardizes to zeros, and every permuted distance
// then ties the observed one in exact arithmetic. Its edge probability is
// 0 in either argument order, in every distance-space estimator. Counting
// used to leave it to rounding: anywhere from 0 to near 1 with the
// constant column first, 0 with it second.
TEST(ConstantColumnTest, EdgeProbabilityIsZeroInEitherOrder) {
  Rng rng(31);
  const EdgeProbabilityEstimator estimator(128);
  for (size_t l : {8, 20, 30, 50}) {
    std::vector<double> constant(l, 2.5);
    StandardizeInPlace(constant);
    ASSERT_TRUE(IsZeroVector(constant));
    PermutationCache cache(128, l);
    for (int partner = 0; partner < 4; ++partner) {
      const std::vector<double> x = RandomStandardized(l, &rng);
      const std::vector<double>* orders[2][2] = {{&constant, &x},
                                                 {&x, &constant}};
      for (const auto& order : orders) {
        const std::vector<double>& a = *order[0];
        const std::vector<double>& b = *order[1];
        SCOPED_TRACE("l=" + std::to_string(l) + " partner " +
                     std::to_string(partner) +
                     (&a == &constant ? ", constant first"
                                      : ", constant second"));
        EXPECT_EQ(EstimateEdgeProbabilityCached(a, b, &cache), 0.0);
        EXPECT_EQ(EstimateEdgeProbabilityAbsoluteCached(a, b, &cache), 0.0);
        EXPECT_EQ(CountPermutedHits(a, b, &cache, 1,
                                    HitCountStop::kWhenDecided),
                  0u);
        Rng draws(partner);
        EXPECT_EQ(estimator.Estimate(a, b, &draws), 0.0);
        if (l <= 8) {
          EXPECT_EQ(estimator.ExactByEnumeration(a, b), 0.0);
        }
      }
    }
  }
}

TEST(ExpectedPermutedDistanceCachedTest, AgreesWithFreshSampler) {
  Rng rng(10);
  std::vector<double> x = RandomStandardized(25, &rng);
  std::vector<double> pivot = RandomStandardized(25, &rng);
  PermutationCache cache(3000, 11);
  const double cached = ExpectedPermutedDistanceCached(x, pivot, &cache);
  const double fresh =
      SampledExpectedPermutedDistance(x, pivot, 3000, &rng);
  EXPECT_NEAR(cached, fresh, 0.1);
}

// Every index of every block, tail lanes included.
std::vector<uint32_t> RawData(const PermutationBlocks& blocks) {
  std::vector<uint32_t> data;
  for (size_t k = 0; k < blocks.num_blocks(); ++k) {
    const uint32_t* block = blocks.block(k);
    data.insert(data.end(), block,
                block + blocks.length() * kPermutedDistanceBatch);
  }
  return data;
}

// A fixed correlated pair of length `l`.
std::pair<std::vector<double>, std::vector<double>> Pair(size_t l) {
  Rng rng(l);
  std::vector<double> a = RandomStandardized(l, &rng);
  std::vector<double> b(l);
  for (size_t i = 0; i < l; ++i) b[i] = 0.3 * a[i] + rng.Gaussian();
  StandardizeInPlace(b);
  return {a, b};
}

// The private estimate of Pair(l) from (S, seed): the reference every
// table-backed estimate must equal.
double PrivateEstimate(size_t num_samples, uint64_t seed, size_t l) {
  PermutationCache cache(num_samples, seed);
  const auto [a, b] = Pair(l);
  return EstimateEdgeProbabilityCached(a, b, &cache);
}

double TableEstimate(PermutationTable* table, size_t num_samples,
                     uint64_t seed, size_t l) {
  PermutationCache cache(num_samples, seed, table);
  const auto [a, b] = Pair(l);
  return EstimateEdgeProbabilityCached(a, b, &cache);
}

// Entries of this shape are 4.69 MiB each (S * l * 4 bytes), so the
// fourth one pushes the table past kPermutationTableBytes.
constexpr size_t kLargeSamples = 4096;
constexpr size_t kLargeLength = 300;

TEST(PermutationTableTest, TableBackedBlocksBitIdenticalToPrivate) {
  PermutationTable table;
  for (size_t num_samples : {1, 7, 8, 64, 1024}) {
    for (uint64_t seed : {0ull, 42ull, 99ull ^ 0x5EEDull}) {
      for (size_t l : {2, 5, 30, 50}) {
        SCOPED_TRACE(std::to_string(num_samples) + " samples, seed " +
                     std::to_string(seed) + ", length " + std::to_string(l));
        PermutationCache private_cache(num_samples, seed);
        PermutationCache shared(num_samples, seed, &table);
        const PermutationBlocks& expected = private_cache.BlocksForLength(l);
        const PermutationBlocks& actual = shared.BlocksForLength(l);
        EXPECT_EQ(actual.num_samples(), expected.num_samples());
        EXPECT_EQ(actual.length(), l);
        EXPECT_EQ(RawData(actual), RawData(expected));
        EXPECT_EQ(&shared.BlocksForLength(l), &actual);
      }
    }
  }
  EXPECT_EQ(table.num_entries(), 5u * 3u * 4u);
}

TEST(PermutationTableTest, RacingFirstFillsLeaveOneEntry) {
  constexpr size_t kThreads = 8;
  constexpr size_t kSamples = 1024;
  constexpr size_t kLength = 40;
  PermutationTable table;
  std::atomic<bool> go{false};
  std::vector<const PermutationBlocks*> seen(kThreads, nullptr);
  std::vector<double> estimates(kThreads, -1.0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      PermutationCache cache(kSamples, 5, &table);
      seen[t] = &cache.BlocksForLength(kLength);
      const auto [a, b] = Pair(kLength);
      estimates[t] = EstimateEdgeProbabilityCached(a, b, &cache);
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(table.num_entries(), 1u);
  const double expected = PrivateEstimate(kSamples, 5, kLength);
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(seen[t], seen[0]) << "thread " << t;  // The first insert won.
    EXPECT_EQ(estimates[t], expected) << "thread " << t;
  }
}

TEST(PermutationTableTest, ByteBoundEvictsInInsertionOrderKeepingEstimates) {
  PermutationTable table;
  std::vector<std::shared_ptr<const PermutationBlocks>> first;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    first.push_back(table.Lookup(kLargeSamples, seed, kLargeLength));
    EXPECT_LE(table.bytes(), kPermutationTableBytes);
  }
  // The fourth insert evicted the first.
  EXPECT_EQ(table.num_entries(), 3u);
  EXPECT_EQ(table.bytes(), 3 * first[0]->bytes());
  EXPECT_EQ(table.Lookup(kLargeSamples, 4, kLargeLength), first[3]);
  // Seed 1 is drawn again, identically, and evicts seed 2.
  const std::shared_ptr<const PermutationBlocks> refilled =
      table.Lookup(kLargeSamples, 1, kLargeLength);
  EXPECT_NE(refilled, first[0]);
  EXPECT_EQ(RawData(*refilled), RawData(*first[0]));
  EXPECT_EQ(table.Lookup(kLargeSamples, 3, kLargeLength), first[2]);
  EXPECT_NE(table.Lookup(kLargeSamples, 2, kLargeLength), first[1]);
  EXPECT_EQ(table.num_entries(), 3u);
  first.clear();
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    EXPECT_EQ(TableEstimate(&table, kLargeSamples, seed, kLargeLength),
              PrivateEstimate(kLargeSamples, seed, kLargeLength))
        << "seed " << seed;
    EXPECT_LE(table.bytes(), kPermutationTableBytes);
  }
}

TEST(PermutationTableTest, OversizeEntryIsServedButNotKept) {
  // 8192 * 520 * 4 bytes = 17.0 MiB, above the 16 MiB bound.
  constexpr size_t kSamples = 8192;
  constexpr size_t kLength = 520;
  PermutationTable table;
  const std::shared_ptr<const PermutationBlocks> blocks =
      table.Lookup(kSamples, 3, kLength);
  ASSERT_GT(blocks->bytes(), kPermutationTableBytes);
  EXPECT_EQ(blocks->num_samples(), kSamples);
  EXPECT_EQ(blocks->length(), kLength);
  EXPECT_EQ(table.num_entries(), 0u);
  EXPECT_EQ(table.bytes(), 0u);
  EXPECT_EQ(TableEstimate(&table, kSamples, 3, kLength),
            PrivateEstimate(kSamples, 3, kLength));
  EXPECT_EQ(table.num_entries(), 0u);
}

TEST(PermutationTableTest, ViewKeepsAnEvictedEntryAlive) {
  PermutationTable table;
  PermutationCache view(kLargeSamples, 1, &table);
  const PermutationBlocks& held = view.BlocksForLength(kLargeLength);
  for (uint64_t seed = 2; seed <= 5; ++seed) {
    table.Lookup(kLargeSamples, seed, kLargeLength);
  }
  ASSERT_EQ(table.num_entries(), 3u);  // Seeds 3-5: seed 1 is evicted.
  // The view still serves the evicted blocks, intact.
  EXPECT_EQ(&view.BlocksForLength(kLargeLength), &held);
  PermutationCache private_cache(kLargeSamples, 1);
  EXPECT_EQ(RawData(held),
            RawData(private_cache.BlocksForLength(kLargeLength)));
  const auto [a, b] = Pair(kLargeLength);
  EXPECT_EQ(EstimateEdgeProbabilityCached(a, b, &view),
            PrivateEstimate(kLargeSamples, 1, kLargeLength));
}

// Concurrent queries fill the engines' tables from cold: four client
// threads query one ShardedEngine{K = 2, R = 2}, whose sub-queries also
// run on a pool, and one ImGrnEngine, each thread in its own order so
// first fills of every (S, seed, l) race. Every answer must be
// bit-identical to a serial engine's.
TEST(PermutationTableConcurrencyTest, ColdTableQueriesMatchSerialEngine) {
  using testing_util::ClusterDatabaseConfig;
  const ClusterDatabaseConfig config;
  constexpr size_t kSources = 12;
  ImGrnEngine serial;
  serial.LoadDatabase(testing_util::MakeClusterDatabase(config, kSources));
  ASSERT_TRUE(serial.BuildIndex().ok());
  ImGrnEngine single;
  single.LoadDatabase(testing_util::MakeClusterDatabase(config, kSources));
  ASSERT_TRUE(single.BuildIndex().ok());
  ThreadPool pool(2);
  std::unique_ptr<ShardedEngine> sharded =
      testing_util::MakeLoadedShardedEngine(
          config, kSources, testing_util::MakeShardedOptions(2, 2), &pool);

  struct Request {
    GeneMatrix query;
    QueryParams params;
  };
  std::vector<Request> requests;
  for (uint64_t seed : {99u, 7u}) {
    for (size_t samples : {24u, 32u, 41u}) {
      QueryParams params = testing_util::DefaultClusterParams();
      params.seed = seed;
      requests.push_back(
          {testing_util::MakeClusterQueryMatrix(1000 + samples, samples),
           params});
    }
  }
  std::vector<std::vector<QueryMatch>> expected;
  for (const Request& request : requests) {
    Result<std::vector<QueryMatch>> matches =
        serial.Query(request.query, request.params);
    ASSERT_TRUE(matches.ok()) << matches.status().ToString();
    expected.push_back(std::move(*matches));
  }

  constexpr size_t kThreads = 4;
  // answers[t][2 * i] from the sharded engine, [2 * i + 1] from the single.
  std::vector<std::vector<Result<std::vector<QueryMatch>>>> answers(kThreads);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (size_t n = 0; n < requests.size(); ++n) {
        const Request& request = requests[(n + t) % requests.size()];
        answers[t].push_back(sharded->Query(request.query, request.params));
        answers[t].push_back(single.Query(request.query, request.params));
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& thread : threads) thread.join();

  for (size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(answers[t].size(), 2 * requests.size());
    for (size_t n = 0; n < requests.size(); ++n) {
      const size_t i = (n + t) % requests.size();
      for (size_t engine = 0; engine < 2; ++engine) {
        const std::string context = "thread " + std::to_string(t) +
                                    ", request " + std::to_string(i) +
                                    (engine == 0 ? ", sharded" : ", single");
        const Result<std::vector<QueryMatch>>& answer =
            answers[t][2 * n + engine];
        ASSERT_TRUE(answer.ok()) << context << ": "
                                 << answer.status().ToString();
        testing_util::ExpectIdenticalMatches(*answer, expected[i], context);
      }
    }
  }
  EXPECT_FALSE(expected[0].empty());
}

TEST(PermutationCacheDeathTest, ZeroSamplesAborts) {
  EXPECT_DEATH(PermutationCache(0, 1), "Check failed");
}

}  // namespace
}  // namespace imgrn
