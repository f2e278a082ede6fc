#include "index/imgrn_index.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "tests/test_util.h"

namespace imgrn {
namespace {

using testing_util::MakePlantedMatrix;

/// Small database: every matrix holds the planted cluster {1,2,3} plus
/// per-source singleton genes.
GeneDatabase MakeDatabase(size_t num_matrices, uint64_t seed) {
  Rng rng(seed);
  GeneDatabase database;
  for (SourceId i = 0; i < num_matrices; ++i) {
    std::vector<GeneId> singletons = {
        static_cast<GeneId>(100 + 2 * i),
        static_cast<GeneId>(101 + 2 * i)};
    database.Add(MakePlantedMatrix(i, 24, {{1, 2, 3}}, singletons, 0.9,
                                   &rng));
  }
  return database;
}

ImGrnIndexOptions SmallOptions() {
  ImGrnIndexOptions options;
  options.num_pivots = 2;
  options.signature_bits = 128;
  options.embed_samples = 32;
  options.pivot_selection.swap_iterations = 4;
  options.pivot_selection.global_iterations = 2;
  return options;
}

TEST(RecordRefTest, EncodeDecodeRoundTrip) {
  const RecordRef ref{123456, 789};
  const RecordRef decoded = DecodeRecordRef(EncodeRecordRef(ref));
  EXPECT_EQ(decoded.source, 123456u);
  EXPECT_EQ(decoded.column, 789u);
}

TEST(ImGrnIndexTest, BuildRejectsEmptyDatabase) {
  ImGrnIndex index(SmallOptions());
  GeneDatabase empty;
  EXPECT_FALSE(index.Build(&empty).ok());
  EXPECT_FALSE(index.is_built());
}

TEST(ImGrnIndexTest, BuildIndexesEveryGeneVector) {
  GeneDatabase database = MakeDatabase(6, 1);
  ImGrnIndex index(SmallOptions());
  ASSERT_TRUE(index.Build(&database).ok());
  EXPECT_TRUE(index.is_built());
  EXPECT_EQ(index.rtree().size(), database.TotalGeneVectors());
  EXPECT_GT(index.build_seconds(), 0.0);
  EXPECT_TRUE(index.rtree().Validate().ok());
}

TEST(ImGrnIndexTest, DimsFollowPivotCount) {
  ImGrnIndexOptions options = SmallOptions();
  options.num_pivots = 3;
  ImGrnIndex index(options);
  EXPECT_EQ(index.dims(), 7u);
}

TEST(ImGrnIndexTest, DatabaseStandardizedDuringBuild) {
  GeneDatabase database = MakeDatabase(3, 2);
  ImGrnIndex index(SmallOptions());
  ASSERT_TRUE(index.Build(&database).ok());
  for (const GeneMatrix& matrix : database.matrices()) {
    EXPECT_TRUE(matrix.is_standardized());
  }
}

TEST(ImGrnIndexTest, EmbeddingsStoredPerSource) {
  GeneDatabase database = MakeDatabase(4, 3);
  ImGrnIndex index(SmallOptions());
  ASSERT_TRUE(index.Build(&database).ok());
  for (SourceId i = 0; i < database.size(); ++i) {
    EXPECT_EQ(index.embedded_points(i).size(),
              database.matrix(i).num_genes());
    EXPECT_EQ(index.pivots(i).size(), 2u);
  }
  const EmbeddedPoint& point = index.embedded_point(RecordRef{1, 0});
  EXPECT_EQ(point.gene, database.matrix(1).gene_id(0));
}

TEST(ImGrnIndexTest, LeafPayloadContainsGeneAndSource) {
  GeneDatabase database = MakeDatabase(3, 4);
  ImGrnIndex index(SmallOptions());
  ASSERT_TRUE(index.Build(&database).ok());
  const std::vector<uint8_t> payload = index.MakeLeafPayload(7, 2);
  RTreeEntry entry;
  entry.payload = payload;
  EXPECT_TRUE(index.EntryMayContainGene(entry, 7));
  const std::vector<uint8_t> source_sig = index.MakeSourceSignature(2);
  EXPECT_TRUE(index.EntryMayIntersectSources(entry, source_sig));
}

TEST(ImGrnIndexTest, RootSignatureCoversEveryIndexedGene) {
  GeneDatabase database = MakeDatabase(5, 5);
  ImGrnIndex index(SmallOptions());
  ASSERT_TRUE(index.Build(&database).ok());
  const RTree& rtree = index.rtree();
  Result<const RTreeNode*> root_fetch = rtree.node(rtree.root_id());
  ASSERT_TRUE(root_fetch.ok()) << root_fetch.status().ToString();
  const RTreeNode& root = **root_fetch;
  // OR of root entry signatures covers every gene id (no false negatives).
  for (const GeneMatrix& matrix : database.matrices()) {
    for (GeneId gene : matrix.gene_ids()) {
      bool covered = false;
      for (const RTreeEntry& entry : root.entries) {
        if (index.EntryMayContainGene(entry, gene)) {
          covered = true;
          break;
        }
      }
      EXPECT_TRUE(covered) << "gene " << gene;
    }
  }
}

TEST(ImGrnIndexTest, InvertedFileHasNoFalseNegatives) {
  GeneDatabase database = MakeDatabase(5, 6);
  ImGrnIndex index(SmallOptions());
  ASSERT_TRUE(index.Build(&database).ok());
  for (SourceId i = 0; i < database.size(); ++i) {
    const std::vector<uint8_t> source_sig = index.MakeSourceSignature(i);
    for (GeneId gene : database.matrix(i).gene_ids()) {
      EXPECT_TRUE(ByteSignaturesIntersect(index.InvertedFileEntry(gene),
                                          source_sig))
          << "gene " << gene << " source " << i;
    }
  }
}

TEST(ImGrnIndexTest, InvertedFileUnknownGeneIsZero) {
  GeneDatabase database = MakeDatabase(2, 7);
  ImGrnIndex index(SmallOptions());
  ASSERT_TRUE(index.Build(&database).ok());
  const std::span<const uint8_t> entry = index.InvertedFileEntry(99999);
  for (uint8_t byte : entry) {
    EXPECT_EQ(byte, 0);
  }
}

TEST(ImGrnIndexTest, PointFromLeafEntryRoundTrips) {
  GeneDatabase database = MakeDatabase(3, 8);
  ImGrnIndex index(SmallOptions());
  ASSERT_TRUE(index.Build(&database).ok());
  // Walk to any leaf and compare the reconstructed point against the
  // stored embedding.
  const RTree& rtree = index.rtree();
  NodeId node_id = rtree.root_id();
  while (!(*rtree.node(node_id))->IsLeaf()) {
    node_id = static_cast<NodeId>((*rtree.node(node_id))->entries[0].handle);
  }
  for (const RTreeEntry& entry : (*rtree.node(node_id))->entries) {
    const RecordRef ref = DecodeRecordRef(entry.handle);
    const EmbeddedPoint reconstructed = index.PointFromLeafEntry(entry);
    const EmbeddedPoint& stored = index.embedded_point(ref);
    EXPECT_EQ(reconstructed.gene, stored.gene);
    for (size_t w = 0; w < 2; ++w) {
      EXPECT_NEAR(reconstructed.x[w], stored.x[w], 1e-12);
      EXPECT_NEAR(reconstructed.y[w], stored.y[w], 1e-12);
    }
  }
}

// Lemma 6 soundness: if a node pair is pruned, every contained point pair
// is pruned by the point-level pivot condition.
TEST(ImGrnIndexTest, IndexPruneNodePairImpliesPointPruning) {
  Rng rng(9);
  const size_t d = 2;
  for (int trial = 0; trial < 300; ++trial) {
    // Random point sets in the embedded space.
    std::vector<EmbeddedPoint> group_a, group_b;
    Mbr mbr_a(2 * d + 1), mbr_b(2 * d + 1);
    for (int i = 0; i < 4; ++i) {
      EmbeddedPoint pa, pb;
      for (size_t w = 0; w < d; ++w) {
        pa.x.push_back(rng.UniformDouble(0, 10));
        pa.y.push_back(rng.UniformDouble(0, 10));
        pb.x.push_back(rng.UniformDouble(0, 10));
        pb.y.push_back(rng.UniformDouble(0, 10));
      }
      pa.gene = 1;
      pb.gene = 2;
      group_a.push_back(pa);
      group_b.push_back(pb);
      mbr_a.MergePoint(pa.ToIndexPoint());
      mbr_b.MergePoint(pb.ToIndexPoint());
    }
    const double gamma = rng.UniformDouble(0.1, 0.9);
    if (ImGrnIndex::IndexPruneNodePair(mbr_a, mbr_b, d, gamma)) {
      for (const EmbeddedPoint& pa : group_a) {
        for (const EmbeddedPoint& pb : group_b) {
          EXPECT_TRUE(PivotPruneEdge(pa, pb, gamma))
              << "trial " << trial << " gamma " << gamma;
        }
      }
    }
  }
}

// Enough matrices that all four workers embed some: under TSan (the
// "concurrency" label in tools/ci_sanitize.sh) this also checks that
// workers never fill the shared permutation cache. With 8 matrices TSan
// saw that race in about one run in ten; with 32, in every run.
TEST(ImGrnIndexTest, ParallelBuildBitIdenticalToSerial) {
  GeneDatabase database_serial = MakeDatabase(32, 21);
  GeneDatabase database_parallel = MakeDatabase(32, 21);

  ImGrnIndexOptions serial_options = SmallOptions();
  serial_options.build_threads = 1;
  ImGrnIndexOptions parallel_options = SmallOptions();
  parallel_options.build_threads = 4;

  ImGrnIndex serial(serial_options);
  ImGrnIndex parallel(parallel_options);
  ASSERT_TRUE(serial.Build(&database_serial).ok());
  ASSERT_TRUE(parallel.Build(&database_parallel).ok());

  ASSERT_EQ(serial.rtree().size(), parallel.rtree().size());
  EXPECT_TRUE(parallel.rtree().Validate().ok());
  for (SourceId i = 0; i < database_serial.size(); ++i) {
    EXPECT_EQ(serial.pivots(i).columns, parallel.pivots(i).columns)
        << "source " << i;
    const auto& points_a = serial.embedded_points(i);
    const auto& points_b = parallel.embedded_points(i);
    ASSERT_EQ(points_a.size(), points_b.size());
    for (size_t s = 0; s < points_a.size(); ++s) {
      EXPECT_EQ(points_a[s].x, points_b[s].x) << "source " << i;
      EXPECT_EQ(points_a[s].y, points_b[s].y) << "source " << i;
      EXPECT_EQ(points_a[s].gene, points_b[s].gene);
    }
  }
}

TEST(ImGrnIndexTest, BulkLoadedIndexAnswersLikeInserted) {
  GeneDatabase database_a = MakeDatabase(8, 23);
  GeneDatabase database_b = MakeDatabase(8, 23);
  ImGrnIndexOptions inserted_options = SmallOptions();
  ImGrnIndexOptions bulk_options = SmallOptions();
  bulk_options.bulk_load = true;

  ImGrnIndex inserted(inserted_options);
  ImGrnIndex bulk(bulk_options);
  ASSERT_TRUE(inserted.Build(&database_a).ok());
  ASSERT_TRUE(bulk.Build(&database_b).ok());
  EXPECT_EQ(bulk.rtree().size(), inserted.rtree().size());
  EXPECT_TRUE(bulk.rtree().Validate().ok())
      << bulk.rtree().Validate().ToString();
  // Embeddings are independent of the tree-build strategy.
  for (SourceId i = 0; i < database_a.size(); ++i) {
    const auto& points_a = inserted.embedded_points(i);
    const auto& points_b = bulk.embedded_points(i);
    ASSERT_EQ(points_a.size(), points_b.size());
    for (size_t s = 0; s < points_a.size(); ++s) {
      EXPECT_EQ(points_a[s].x, points_b[s].x);
    }
  }
  // Bulk-loaded indexes stay updatable.
  Rng rng(24);
  database_b.Add(MakePlantedMatrix(8, 24, {{1, 2, 3}},
                                   {200, 201}, 0.9, &rng));
  ASSERT_TRUE(bulk.AddMatrix(8).ok());
  EXPECT_TRUE(bulk.rtree().Validate().ok());
}

TEST(ImGrnIndexTest, ZeroThreadsUsesHardwareConcurrency) {
  GeneDatabase database = MakeDatabase(4, 22);
  ImGrnIndexOptions options = SmallOptions();
  options.build_threads = 0;
  ImGrnIndex index(options);
  ASSERT_TRUE(index.Build(&database).ok());
  EXPECT_EQ(index.rtree().size(), database.TotalGeneVectors());
}

TEST(ImGrnIndexTest, BuildDeterministicGivenSeed) {
  GeneDatabase database_a = MakeDatabase(4, 10);
  GeneDatabase database_b = MakeDatabase(4, 10);
  ImGrnIndex index_a(SmallOptions());
  ImGrnIndex index_b(SmallOptions());
  ASSERT_TRUE(index_a.Build(&database_a).ok());
  ASSERT_TRUE(index_b.Build(&database_b).ok());
  for (SourceId i = 0; i < 4; ++i) {
    EXPECT_EQ(index_a.pivots(i).columns, index_b.pivots(i).columns);
    const auto& points_a = index_a.embedded_points(i);
    const auto& points_b = index_b.embedded_points(i);
    ASSERT_EQ(points_a.size(), points_b.size());
    for (size_t s = 0; s < points_a.size(); ++s) {
      EXPECT_EQ(points_a[s].x, points_b[s].x);
      EXPECT_EQ(points_a[s].y, points_b[s].y);
    }
  }
}

}  // namespace
}  // namespace imgrn
