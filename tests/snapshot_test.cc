// Tests for the snapshot layer (index/snapshot.h) through the engine's
// SaveSnapshot/LoadSnapshot surface: round trips on both backends, instant
// cold start from a reopened disk file, bit-identical index parts,
// snapshot replacement, and the rejection paths for missing / foreign /
// damaged / forged snapshots. The IndexIoTest cases save and reopen a built
// index: the save precondition, identical answers from an index restored
// without an engine, and directories or chains that are misplaced or cut.

#include "index/snapshot.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/random.h"
#include "core/engine.h"
#include "query/imgrn_processor.h"
#include "storage/page_stream.h"
#include "storage/storage_manager.h"
#include "tests/test_util.h"

namespace imgrn {
namespace {

using testing_util::MakePathQuery;
using testing_util::MakePlantedMatrix;

class TempStoreFile {
 public:
  explicit TempStoreFile(const std::string& name)
      : path_(::testing::TempDir() + "imgrn_" + name + "_" +
              std::to_string(::getpid()) + ".pages") {
    std::remove(path_.c_str());
  }
  ~TempStoreFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

GeneDatabase MakeDatabase(uint64_t seed, size_t num_samples = 30) {
  Rng rng(seed);
  GeneDatabase database;
  database.Add(
      MakePlantedMatrix(0, num_samples, {{1, 2, 3}}, {10}, 0.97, &rng));
  database.Add(
      MakePlantedMatrix(1, num_samples, {{1, 2, 3}}, {11, 12}, 0.97, &rng));
  database.Add(
      MakePlantedMatrix(2, num_samples, {{20, 21}}, {22}, 0.97, &rng));
  return database;
}

EngineOptions DiskEngineOptions(const std::string& path) {
  EngineOptions options;
  options.storage.backend = StorageBackend::kDisk;
  options.storage.path = path;
  return options;
}

QueryParams TestParams() {
  QueryParams params;
  params.gamma = 0.5;
  params.alpha = 0.3;
  return params;
}

std::set<SourceId> MatchedSources(const ImGrnEngine& engine) {
  Result<std::vector<QueryMatch>> matches =
      engine.QueryWithGraph(MakePathQuery({1, 2, 3}), TestParams());
  EXPECT_TRUE(matches.ok()) << matches.status().ToString();
  std::set<SourceId> sources;
  if (!matches.ok()) return sources;
  for (const QueryMatch& match : *matches) sources.insert(match.source);
  return sources;
}

// Exact comparison: snapshots must reproduce results bit-for-bit, so no
// tolerance on the probabilities.
void ExpectSameMatches(const std::vector<QueryMatch>& a,
                       const std::vector<QueryMatch>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].source, b[i].source);
    EXPECT_EQ(a[i].probability, b[i].probability);
    EXPECT_EQ(a[i].mapping, b[i].mapping);
  }
}

// The matches of the 1-2-3 path query, which MakeDatabase plants.
std::vector<QueryMatch> PathMatches(const ImGrnEngine& engine) {
  Result<std::vector<QueryMatch>> matches =
      engine.QueryWithGraph(MakePathQuery({1, 2, 3}), TestParams());
  EXPECT_TRUE(matches.ok()) << matches.status().ToString();
  return matches.ok() ? *matches : std::vector<QueryMatch>{};
}

// Cold-starts a fresh engine from the snapshot in the file at `path` and
// expects it to answer the path query exactly as `saved`.
void ExpectColdStartMatches(const std::string& path,
                            const std::vector<QueryMatch>& saved) {
  ImGrnEngine engine(DiskEngineOptions(path));
  ASSERT_TRUE(engine.LoadSnapshot().ok());
  ExpectSameMatches(saved, PathMatches(engine));
}

TEST(SnapshotTest, SaveBeforeBuildFails) {
  ImGrnEngine engine;
  engine.LoadDatabase(MakeDatabase(1));
  EXPECT_EQ(engine.SaveSnapshot().code(), StatusCode::kFailedPrecondition);
}

TEST(SnapshotTest, LoadFromEmptyStoreIsNotFound) {
  TempStoreFile file("empty");
  ImGrnEngine engine(DiskEngineOptions(file.path()));
  EXPECT_EQ(engine.LoadSnapshot().code(), StatusCode::kNotFound);
}

TEST(SnapshotTest, NeverSyncedStoreReopensEmptyAndTakesASave) {
  // A store whose first Sync never completed (a crash, or a load from a
  // missing file, which creates it) holds the empty generation 0. It must
  // reopen empty, not as damaged: no snapshot to load, and a save into it
  // loads back.
  TempStoreFile file("never_synced");
  StorageOptions store_options = DiskEngineOptions(file.path()).storage;
  {
    Result<std::unique_ptr<StorageManager>> store = OpenStorage(store_options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    const PageId id = (*store)->Allocate();
    ASSERT_TRUE((*store)->Commit(id, Page((*store)->page_size())).ok());
    (*store)->SetAppRoot(id);
  }  // Closed without a Sync.
  {
    Result<std::unique_ptr<StorageManager>> store = OpenStorage(store_options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_EQ((*store)->num_pages(), 0u);
    EXPECT_EQ((*store)->app_root(), kInvalidPageId);
  }
  {
    ImGrnEngine engine(DiskEngineOptions(file.path()));
    EXPECT_EQ(engine.LoadSnapshot().code(), StatusCode::kNotFound);
  }
  std::vector<QueryMatch> saved;
  {
    ImGrnEngine engine(DiskEngineOptions(file.path()));
    engine.LoadDatabase(MakeDatabase(29));
    ASSERT_TRUE(engine.BuildIndex().ok());
    ASSERT_TRUE(engine.SaveSnapshot().ok());
    saved = PathMatches(engine);
    EXPECT_FALSE(saved.empty());
  }
  ExpectColdStartMatches(file.path(), saved);
}

TEST(SnapshotTest, MemoryBackendRoundTrip) {
  // The snapshot layer is backend-agnostic: on the (volatile) memory store
  // it still round-trips within the process.
  ImGrnEngine engine;
  engine.LoadDatabase(MakeDatabase(2));
  ASSERT_TRUE(engine.BuildIndex().ok());
  const ProbGraph query = MakePathQuery({1, 2, 3});
  Result<std::vector<QueryMatch>> before =
      engine.QueryWithGraph(query, TestParams());
  ASSERT_TRUE(before.ok());

  ASSERT_TRUE(engine.SaveSnapshot().ok());
  ASSERT_TRUE(engine.LoadSnapshot().ok());

  Result<std::vector<QueryMatch>> after =
      engine.QueryWithGraph(query, TestParams());
  ASSERT_TRUE(after.ok());
  ExpectSameMatches(*before, *after);
  EXPECT_EQ(engine.database().size(), 3u);
}

TEST(SnapshotTest, DiskColdStartAcrossEngines) {
  TempStoreFile file("cold_start");
  const ProbGraph query = MakePathQuery({1, 2, 3});
  std::vector<QueryMatch> fresh_matches;
  size_t fresh_tree_size = 0;
  {
    ImGrnEngine engine(DiskEngineOptions(file.path()));
    engine.LoadDatabase(MakeDatabase(3));
    ASSERT_TRUE(engine.BuildIndex().ok());
    Result<std::vector<QueryMatch>> matches =
        engine.QueryWithGraph(query, TestParams());
    ASSERT_TRUE(matches.ok());
    fresh_matches = *matches;
    fresh_tree_size = engine.index().rtree().size();
    ASSERT_TRUE(engine.SaveSnapshot().ok());
  }
  // A brand-new engine on the same file: no LoadDatabase, no BuildIndex —
  // the snapshot alone restores everything.
  ImGrnEngine engine(DiskEngineOptions(file.path()));
  ASSERT_TRUE(engine.LoadSnapshot().ok());
  EXPECT_TRUE(engine.has_index());
  EXPECT_EQ(engine.database().size(), 3u);
  EXPECT_EQ(engine.index().rtree().size(), fresh_tree_size);
  Result<std::vector<QueryMatch>> matches =
      engine.QueryWithGraph(query, TestParams());
  ASSERT_TRUE(matches.ok());
  ExpectSameMatches(fresh_matches, *matches);
}

TEST(SnapshotTest, SnapshotSurvivesUnsyncedWorkAfterSave) {
  // Work committed after SaveSnapshot but never synced must not damage the
  // durable snapshot (shadow paging end-to-end).
  TempStoreFile file("post_work");
  const ProbGraph query = MakePathQuery({1, 2, 3});
  std::vector<QueryMatch> saved_matches;
  {
    ImGrnEngine engine(DiskEngineOptions(file.path()));
    engine.LoadDatabase(MakeDatabase(4));
    ASSERT_TRUE(engine.BuildIndex().ok());
    ASSERT_TRUE(engine.SaveSnapshot().ok());
    Result<std::vector<QueryMatch>> matches =
        engine.QueryWithGraph(query, TestParams());
    ASSERT_TRUE(matches.ok());
    saved_matches = *matches;
    // Mutate the index after the snapshot: new matrix, incremental insert.
    Rng rng(99);
    ASSERT_TRUE(
        engine
            .AddMatrix(MakePlantedMatrix(3, 30, {{1, 2, 3}}, {30}, 0.97, &rng))
            .ok());
    // Engine dies without another SaveSnapshot.
  }
  ImGrnEngine engine(DiskEngineOptions(file.path()));
  ASSERT_TRUE(engine.LoadSnapshot().ok());
  EXPECT_EQ(engine.database().size(), 3u);  // the post-save matrix is gone
  Result<std::vector<QueryMatch>> matches =
      engine.QueryWithGraph(query, TestParams());
  ASSERT_TRUE(matches.ok());
  ExpectSameMatches(saved_matches, *matches);
}

TEST(SnapshotTest, SecondSaveReplacesFirst) {
  TempStoreFile file("replace");
  {
    ImGrnEngine engine(DiskEngineOptions(file.path()));
    engine.LoadDatabase(MakeDatabase(5));
    ASSERT_TRUE(engine.BuildIndex().ok());
    ASSERT_TRUE(engine.SaveSnapshot().ok());
    Rng rng(7);
    ASSERT_TRUE(
        engine
            .AddMatrix(MakePlantedMatrix(3, 30, {{40, 41}}, {42}, 0.97, &rng))
            .ok());
    ASSERT_TRUE(engine.SaveSnapshot().ok());
  }
  ImGrnEngine engine(DiskEngineOptions(file.path()));
  ASSERT_TRUE(engine.LoadSnapshot().ok());
  EXPECT_EQ(engine.database().size(), 4u);
}

TEST(SnapshotTest, RepeatedSavesDoNotLeakPagesWithoutBound) {
  // Each save frees the previous snapshot's stream chains, and the node
  // pages of its tree once BuildIndex has replaced that tree. So neither
  // saving the same state N times nor N rebuild-and-save rounds may grow
  // the store by N snapshots or N trees.
  TempStoreFile file("recycle");
  std::vector<QueryMatch> saved_matches;
  {
    ImGrnEngine engine(DiskEngineOptions(file.path()));
    engine.LoadDatabase(MakeDatabase(6));
    ASSERT_TRUE(engine.BuildIndex().ok());
    ASSERT_TRUE(engine.SaveSnapshot().ok());
    const size_t pages_after_first = engine.storage()->num_pages();
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(engine.SaveSnapshot().ok());
    }
    // Identical logical state: page ids freed by the chain recycling are
    // reused, so the logical high-water mark stays flat.
    EXPECT_EQ(engine.storage()->num_pages(), pages_after_first);

    // A rebuilt tree takes fresh pages while the saved tree still holds
    // its own, so the first rebuild grows the store by one tree. Its save
    // frees the replaced tree, which makes room for the next rebuild: from
    // then on the high-water mark stays flat.
    size_t pages_after_rebuild = 0;
    for (int round = 0; round < 4; ++round) {
      SCOPED_TRACE(round);
      ASSERT_TRUE(engine.BuildIndex().ok());
      ASSERT_TRUE(engine.SaveSnapshot().ok());
      if (round == 0) {
        pages_after_rebuild = engine.storage()->num_pages();
        EXPECT_GT(pages_after_rebuild, pages_after_first);
      }
      EXPECT_EQ(engine.storage()->num_pages(), pages_after_rebuild);
    }
    saved_matches = PathMatches(engine);
    EXPECT_FALSE(saved_matches.empty());
  }
  // Nothing the last snapshot needs was freed: it cold-starts and answers
  // as the engine that saved it did.
  ExpectColdStartMatches(file.path(), saved_matches);
}

size_t LivePages(const StorageManager& store) {
  size_t live = 0;
  for (PageId id = 0; id < store.num_pages(); ++id) {
    if (store.IsLivePage(id)) ++live;
  }
  return live;
}

// A rebuild gives the index a new tree on fresh pages and strands the
// saved tree's pages. The save that replaces the snapshot must free every
// one of them: the same database rebuilds the same tree and streams, so
// the live page count returns to its value after the first save. The
// store still answers the same from its reloaded snapshot.
TEST(MaintenanceReclaimTest, ReclaimFreesStrandedRebuildPages) {
  TempStoreFile file("reclaim");
  ImGrnEngine engine(DiskEngineOptions(file.path()));
  engine.LoadDatabase(MakeDatabase(5));
  ASSERT_TRUE(engine.BuildIndex().ok());
  ASSERT_TRUE(engine.SaveSnapshot().ok());
  const size_t live_after_first = LivePages(*engine.storage());

  ASSERT_TRUE(engine.BuildIndex().ok());
  EXPECT_GT(LivePages(*engine.storage()), live_after_first)
      << "the rebuild strands the first tree's pages";
  ASSERT_TRUE(engine.SaveSnapshot().ok());
  EXPECT_EQ(LivePages(*engine.storage()), live_after_first)
      << "the replacing save frees the first tree's pages";

  const std::vector<QueryMatch> before = PathMatches(engine);
  EXPECT_FALSE(before.empty());
  ASSERT_TRUE(engine.LoadSnapshot().ok());
  ExpectSameMatches(before, PathMatches(engine));

  // A save over the snapshot of the same tree has nothing to free.
  ASSERT_TRUE(engine.SaveSnapshot().ok());
  EXPECT_EQ(LivePages(*engine.storage()), live_after_first);
}

TEST(SnapshotTest, FailedReplacingSaveCanBeRetried) {
  // A save that fails midway has already freed the old snapshot's pages in
  // memory, and some of those ids may have been handed out again. The
  // retry reads the same old directory: it must skip what is gone and
  // commit, and the file must reopen to the retried snapshot.
  TempStoreFile file("retry_replace");
  for (uint64_t nth : {1, 2, 5}) {
    SCOPED_TRACE(nth);
    std::vector<QueryMatch> saved_matches;
    {
      ImGrnEngine engine(DiskEngineOptions(file.path()));
      engine.LoadDatabase(MakeDatabase(9));
      ASSERT_TRUE(engine.BuildIndex().ok());
      ASSERT_TRUE(engine.SaveSnapshot().ok());
      ASSERT_TRUE(engine.BuildIndex().ok());
      {
        ScopedFaultInjection faults({{.site = fault_sites::kDiskWrite,
                                      .every_nth = nth,
                                      .max_fires = 1}});
        EXPECT_EQ(engine.SaveSnapshot().code(), StatusCode::kUnavailable);
      }
      ASSERT_TRUE(engine.SaveSnapshot().ok());
      saved_matches = PathMatches(engine);
    }
    ExpectColdStartMatches(file.path(), saved_matches);
  }
}

TEST(SnapshotTest, WriteSnapshotRejectsForeignStore) {
  // The tree's pages live in the index's own store; serializing the tree
  // into a *different* store would capture dangling page ids.
  ImGrnEngine engine;
  engine.LoadDatabase(MakeDatabase(7));
  ASSERT_TRUE(engine.BuildIndex().ok());
  StorageOptions other_options;  // in-memory
  Result<std::unique_ptr<StorageManager>> other = OpenStorage(other_options);
  ASSERT_TRUE(other.ok());
  Status status = WriteSnapshot(engine.database(), &engine.mutable_index(),
                                other->get());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotTest, GarbageDirectoryRejectedAsInvalidArgument) {
  // An app root that points at a non-snapshot page must be recognized as
  // "not a snapshot", not misparsed.
  StorageOptions options;  // in-memory
  Result<std::unique_ptr<StorageManager>> store = OpenStorage(options);
  ASSERT_TRUE(store.ok());
  const PageId junk = (*store)->Allocate();
  Page frame((*store)->page_size());
  for (size_t i = 0; i < frame.size(); ++i) {
    frame.mutable_data()[i] = static_cast<uint8_t>(i * 37 + 5);
  }
  ASSERT_TRUE((*store)->Commit(junk, frame).ok());
  (*store)->SetAppRoot(junk);
  ASSERT_TRUE((*store)->Sync().ok());
  Result<SnapshotContents> contents = ReadSnapshot(store->get());
  ASSERT_FALSE(contents.ok());
  EXPECT_EQ(contents.status().code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotTest, TruncatedStoreFileRejectedNotCrash) {
  TempStoreFile file("truncated");
  long full_size = 0;
  {
    ImGrnEngine engine(DiskEngineOptions(file.path()));
    engine.LoadDatabase(MakeDatabase(8));
    ASSERT_TRUE(engine.BuildIndex().ok());
    ASSERT_TRUE(engine.SaveSnapshot().ok());
  }
  {
    std::FILE* f = std::fopen(file.path().c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    full_size = std::ftell(f);
    std::fclose(f);
  }
  // Cut the tail off the store file (the snapshot streams and the commit
  // metadata live there). Whatever layer notices first — store recovery
  // falling back to the empty generation, a CRC mismatch, or the snapshot
  // reader hitting a short chain — the load must fail cleanly.
  ASSERT_EQ(::truncate(file.path().c_str(), full_size * 3 / 5), 0);
  ImGrnEngine engine(DiskEngineOptions(file.path()));
  Status status = engine.LoadSnapshot();
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.code() == StatusCode::kDataLoss ||
              status.code() == StatusCode::kNotFound)
      << status.ToString();
}

TEST(SnapshotTest, CorruptedPayloadRejectedNotCrash) {
  TempStoreFile file("corrupt");
  long full_size = 0;
  {
    ImGrnEngine engine(DiskEngineOptions(file.path()));
    engine.LoadDatabase(MakeDatabase(9));
    ASSERT_TRUE(engine.BuildIndex().ok());
    ASSERT_TRUE(engine.SaveSnapshot().ok());
  }
  {
    std::FILE* f = std::fopen(file.path().c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    full_size = std::ftell(f);
    // Scribble over a band of data slots past the two 4 KiB headers. Some
    // CRC — slot, meta chain, or header fallback — must catch it.
    const long start = 8192 + (full_size - 8192) / 3;
    std::fseek(f, start, SEEK_SET);
    for (int i = 0; i < 4096; ++i) std::fputc(0x5A, f);
    std::fclose(f);
  }
  ImGrnEngine engine(DiskEngineOptions(file.path()));
  Status status = engine.LoadSnapshot();
  if (status.ok()) {
    // The scribble may have landed entirely on slots the committed state
    // no longer references (shadow copies). Then the snapshot must be
    // fully intact: the restored engine answers queries.
    Result<std::vector<QueryMatch>> matches =
        engine.QueryWithGraph(MakePathQuery({1, 2, 3}), TestParams());
    EXPECT_TRUE(matches.ok()) << matches.status().ToString();
  } else {
    EXPECT_TRUE(status.code() == StatusCode::kDataLoss ||
                status.code() == StatusCode::kNotFound)
        << status.ToString();
  }
}

// --- Index parts, reopened ------------------------------------------------

void ExpectSameBits(const std::vector<double>& a,
                    const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0);
}

TEST(SnapshotTest, RestoredPartsBitIdenticalToBuiltIndex) {
  // A fresh engine with default options reopens the file: every option,
  // pivot (columns and vectors), embedded point, active flag and
  // inverted-file entry comes back bit for bit. The one-gene matrix pads
  // its pivot set by repetition; source 1 is removed before the save.
  TempStoreFile file("parts");
  EngineOptions options = DiskEngineOptions(file.path());
  options.index.num_pivots = 3;
  options.index.signature_bits = 96;
  options.index.signature_hashes = 3;
  options.index.embed_samples = 48;
  options.index.rtree_max_entries = 12;
  options.index.buffer_pool_pages = 32;
  options.index.seed = 11;
  GeneDatabase database = MakeDatabase(14);
  Rng rng(15);
  database.Add(MakePlantedMatrix(3, 30, {}, {60}, 0.0, &rng));
  std::vector<PivotSet> pivot_sets;
  std::vector<std::vector<EmbeddedPoint>> embeddings;
  std::vector<bool> active;
  std::unordered_map<GeneId, std::vector<uint8_t>> inverted_file;
  {
    ImGrnEngine engine(options);
    engine.LoadDatabase(std::move(database));
    ASSERT_TRUE(engine.BuildIndex().ok());
    ASSERT_TRUE(engine.RemoveMatrix(1).ok());
    ASSERT_TRUE(engine.SaveSnapshot().ok());
    const ImGrnIndex& index = engine.index();
    pivot_sets = index.pivot_sets();
    for (SourceId i = 0; i < engine.database().size(); ++i) {
      embeddings.push_back(index.embedded_points(i));
    }
    active = index.active_flags();
    inverted_file = index.inverted_file();
  }
  ASSERT_EQ(pivot_sets[3].columns, (std::vector<size_t>{0, 0, 0}));

  ImGrnEngine engine(DiskEngineOptions(file.path()));
  ASSERT_TRUE(engine.LoadSnapshot().ok());
  const ImGrnIndex& restored = engine.index();
  const ImGrnIndexOptions& restored_options = restored.options();
  EXPECT_EQ(restored_options.num_pivots, 3u);
  EXPECT_EQ(restored_options.signature_bits, 96u);
  EXPECT_EQ(restored_options.signature_hashes, 3);
  EXPECT_EQ(restored_options.embed_samples, 48u);
  EXPECT_EQ(restored_options.page_size, options.index.page_size);
  EXPECT_EQ(restored_options.rtree_max_entries, 12u);
  EXPECT_EQ(restored_options.buffer_pool_pages, 32u);
  EXPECT_EQ(restored_options.seed, 11u);
  ASSERT_EQ(restored.pivot_sets().size(), pivot_sets.size());
  for (SourceId i = 0; i < pivot_sets.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(restored.pivots(i).columns, pivot_sets[i].columns);
    ASSERT_EQ(restored.pivots(i).vectors.size(), pivot_sets[i].vectors.size());
    for (size_t w = 0; w < pivot_sets[i].vectors.size(); ++w) {
      ExpectSameBits(restored.pivots(i).vectors[w], pivot_sets[i].vectors[w]);
    }
    const std::vector<EmbeddedPoint>& points = restored.embedded_points(i);
    ASSERT_EQ(points.size(), embeddings[i].size());
    for (size_t s = 0; s < points.size(); ++s) {
      ExpectSameBits(points[s].x, embeddings[i][s].x);
      ExpectSameBits(points[s].y, embeddings[i][s].y);
      EXPECT_EQ(points[s].gene, embeddings[i][s].gene);
    }
  }
  EXPECT_EQ(restored.active_flags(), active);
  EXPECT_EQ(restored.inverted_file(), inverted_file);
}

TEST(SnapshotTest, RemovedSourceStaysRemovedAfterReopen) {
  TempStoreFile file("removed");
  {
    ImGrnEngine engine(DiskEngineOptions(file.path()));
    engine.LoadDatabase(MakeDatabase(16));
    ASSERT_TRUE(engine.BuildIndex().ok());
    ASSERT_EQ(MatchedSources(engine), (std::set<SourceId>{0, 1}));
    ASSERT_TRUE(engine.RemoveMatrix(0).ok());
    ASSERT_TRUE(engine.SaveSnapshot().ok());
  }
  ImGrnEngine engine(DiskEngineOptions(file.path()));
  ASSERT_TRUE(engine.LoadSnapshot().ok());
  EXPECT_FALSE(engine.index().IsActive(0));
  EXPECT_TRUE(engine.index().IsActive(1));
  EXPECT_EQ(MatchedSources(engine), (std::set<SourceId>{1}));
}

TEST(SnapshotTest, AddMatrixAfterLoadSnapshotAnswers) {
  TempStoreFile file("add_after_load");
  {
    ImGrnEngine engine(DiskEngineOptions(file.path()));
    engine.LoadDatabase(MakeDatabase(17));
    ASSERT_TRUE(engine.BuildIndex().ok());
    ASSERT_TRUE(engine.SaveSnapshot().ok());
  }
  ImGrnEngine engine(DiskEngineOptions(file.path()));
  ASSERT_TRUE(engine.LoadSnapshot().ok());
  Rng rng(18);
  ASSERT_TRUE(
      engine.AddMatrix(MakePlantedMatrix(3, 30, {{1, 2, 3}}, {14}, 0.97, &rng))
          .ok());
  EXPECT_EQ(MatchedSources(engine), (std::set<SourceId>{0, 1, 3}));
}

// --- Forged and damaged directories and sections ---------------------------
//
// Each case below rewrites a field and re-seals its page, so every CRC
// passes and only the snapshot's own checks stand between the bytes and
// the parser. Offsets follow the layout documented in snapshot.h.

constexpr size_t kDatabaseSection = 0;
constexpr size_t kPartsSection = 1;
constexpr size_t kTreeSection = 2;
constexpr size_t kDirectory = 3;  // Not a section: the directory page.

// Byte offset of a section's {head, byte count} ref in the directory.
size_t RefOffset(size_t section) { return 16 + section * 12; }
// Payload offset of the source count in the index-parts section: six u64
// options, signature_hashes i32, seed u64.
constexpr size_t kPartsSourceCount = 6 * 8 + 4 + 8;

Result<PageStreamRef> ReadSectionRef(StorageManager* store, size_t section) {
  Page scratch(store->page_size());
  Result<Page*> directory = store->Read(store->app_root(), &scratch);
  IMGRN_RETURN_IF_ERROR(directory.status());
  PageStreamRef ref;
  ref.head = (*directory)->ReadAt<PageId>(RefOffset(section));
  ref.num_bytes =
      (*directory)->ReadAt<uint64_t>(RefOffset(section) + sizeof(PageId));
  return ref;
}

// Writes `value` at byte `offset` of page `id` and commits (re-seals) it.
template <typename T>
Status PatchPage(StorageManager* store, PageId id, size_t offset, T value) {
  Page scratch(store->page_size());
  Result<Page*> read = store->Read(id, &scratch);
  IMGRN_RETURN_IF_ERROR(read.status());
  Page page = **read;
  page.WriteAt<T>(offset, value);
  return store->Commit(id, page);
}

// Writes `value` at payload `offset` of a section's first page (past the
// page's next-link), or at byte `offset` of the directory page.
template <typename T>
Status PatchField(StorageManager* store, size_t section, size_t offset,
                  T value) {
  if (section == kDirectory) {
    return PatchPage(store, store->app_root(), offset, value);
  }
  Result<PageStreamRef> ref = ReadSectionRef(store, section);
  IMGRN_RETURN_IF_ERROR(ref.status());
  return PatchPage(store, ref->head, sizeof(PageId) + offset, value);
}

// Builds MakeDatabase(seed, num_samples) over a private in-memory store and
// snapshots it there, for the tests that patch the store and parse it back.
std::unique_ptr<StorageManager> MemorySnapshot(uint64_t seed,
                                               size_t num_samples = 30) {
  Result<std::unique_ptr<StorageManager>> store = OpenStorage({});
  IMGRN_CHECK_OK(store.status());
  GeneDatabase database = MakeDatabase(seed, num_samples);
  ImGrnIndexOptions options;
  options.storage = store->get();
  ImGrnIndex index(options);
  IMGRN_CHECK_OK(index.Build(&database));
  IMGRN_CHECK_OK(WriteSnapshot(database, &index, store->get()));
  return std::move(*store);
}

TEST(SnapshotTest, ForgedCountsRejected) {
  // Every count is read before the bytes it counts, so a forged one must
  // be kDataLoss before anything is allocated for it — not bad_alloc, not
  // gigabytes of RSS. Also covered: the matrix-shape fields GeneMatrix
  // would CHECK and the index options the restored index would CHECK.
  struct ForgedField {
    const char* name;
    size_t section;
    size_t offset;
    uint64_t value;
    bool u32 = false;
  };
  // Database section: count u64, then source_id u32, num_samples u64,
  // num_genes u64, gene ids. Matrix 0 holds genes {1, 2, 3, 10}.
  const ForgedField kFields[] = {
      {"matrix count", kDatabaseSection, 0, 1ull << 40},
      {"num_samples", kDatabaseSection, 12, 1ull << 28},
      {"zero num_samples", kDatabaseSection, 12, 0},
      {"num_genes", kDatabaseSection, 20, 1ull << 40},
      {"duplicate gene id", kDatabaseSection, 32, 1, /*u32=*/true},
      // Index options: num_pivots, signature_bits, embed_samples,
      // page_size, rtree_max_entries, buffer_pool_pages (u64 each).
      {"num_pivots zero", kPartsSection, 0, 0},
      {"num_pivots", kPartsSection, 0, 1ull << 40},
      {"signature_bits", kPartsSection, 8, 1ull << 40},
      {"embed_samples zero", kPartsSection, 16, 0},
      {"embed_samples above the cap", kPartsSection, 16,
       kMaxPermutationSamples + 1},
      {"page_size", kPartsSection, 24, 4096},
      {"rtree_max_entries 3", kPartsSection, 32, 3},
      {"rtree_max_entries above a page", kPartsSection, 32, 4000},
      {"buffer_pool_pages zero", kPartsSection, 40, 0},
      {"source count 1e8", kPartsSection, kPartsSourceCount, 100000000},
      {"source count 2^40", kPartsSection, kPartsSourceCount, 1ull << 40},
      // Source 0: active u8 and two pivot columns, then its point count.
      {"point count", kPartsSection, kPartsSourceCount + 8 + 1 + 2 * 8,
       1ull << 40},
      // Tree meta: root u32, record count u64, node count u64.
      {"tree node count", kTreeSection, 12, 1ull << 40},
      {"parts byte count", kDirectory, RefOffset(kPartsSection) + 4,
       1ull << 50},
  };
  TempStoreFile saved("forged_source");
  {
    ImGrnEngine engine(DiskEngineOptions(saved.path()));
    engine.LoadDatabase(MakeDatabase(19));
    ASSERT_TRUE(engine.BuildIndex().ok());
    ASSERT_TRUE(engine.SaveSnapshot().ok());
  }
  for (const ForgedField& field : kFields) {
    SCOPED_TRACE(field.name);
    TempStoreFile file("forged");
    ASSERT_TRUE(std::filesystem::copy_file(saved.path(), file.path()));
    {
      StorageOptions store_options;
      store_options.backend = StorageBackend::kDisk;
      store_options.path = file.path();
      Result<std::unique_ptr<StorageManager>> store =
          OpenStorage(store_options);
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      const Status patched =
          field.u32 ? PatchField(store->get(), field.section, field.offset,
                                 static_cast<uint32_t>(field.value))
                    : PatchField(store->get(), field.section, field.offset,
                                 field.value);
      ASSERT_TRUE(patched.ok()) << patched.ToString();
      ASSERT_TRUE((*store)->Sync().ok());
    }
    ImGrnEngine engine(DiskEngineOptions(file.path()));
    const Status status = engine.LoadSnapshot();
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
  }
}

TEST(SnapshotTest, ActiveSourceWithGenelessMatrixRejected) {
  // A removed source is saved with its freed, gene-less matrix. Forging
  // its active flag back on (and re-sealing the page) makes an active
  // source without genes, which the load must refuse rather than serve.
  TempStoreFile file("forged_active_freed");
  {
    ImGrnEngine engine(DiskEngineOptions(file.path()));
    engine.LoadDatabase(MakeDatabase(24));
    ASSERT_TRUE(engine.BuildIndex().ok());
    ASSERT_TRUE(engine.RemoveMatrix(0).ok());
    ASSERT_TRUE(engine.SaveSnapshot().ok());
  }
  {
    StorageOptions store_options;
    store_options.backend = StorageBackend::kDisk;
    store_options.path = file.path();
    Result<std::unique_ptr<StorageManager>> store = OpenStorage(store_options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    // Source 0's active flag follows the source count.
    ASSERT_TRUE(PatchField(store->get(), kPartsSection, kPartsSourceCount + 8,
                           uint8_t{1})
                    .ok());
    ASSERT_TRUE((*store)->Sync().ok());
  }
  ImGrnEngine engine(DiskEngineOptions(file.path()));
  const Status status = engine.LoadSnapshot();
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
  EXPECT_FALSE(engine.has_index());
}

TEST(SnapshotTest, ForgedOldTreePageIsSkippedByTheNextSave) {
  // A save over a snapshot frees the node pages its tree meta names. An id
  // there past the store end must be skipped, not passed to Deallocate: a
  // rebuild plus a save over the forged snapshot succeeds, and the new
  // snapshot loads.
  TempStoreFile file("forged_old_tree");
  {
    ImGrnEngine engine(DiskEngineOptions(file.path()));
    engine.LoadDatabase(MakeDatabase(23));
    ASSERT_TRUE(engine.BuildIndex().ok());
    ASSERT_TRUE(engine.SaveSnapshot().ok());
  }
  {
    StorageOptions store_options;
    store_options.backend = StorageBackend::kDisk;
    store_options.path = file.path();
    Result<std::unique_ptr<StorageManager>> store = OpenStorage(store_options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    // Tree meta: root u32, record count u64, node count u64, node pages.
    const PageId past_end = static_cast<PageId>((*store)->num_pages() + 7);
    ASSERT_TRUE(PatchField(store->get(), kTreeSection, 20, past_end).ok());
    ASSERT_TRUE((*store)->Sync().ok());
  }
  std::vector<QueryMatch> saved_matches;
  {
    ImGrnEngine engine(DiskEngineOptions(file.path()));
    engine.LoadDatabase(MakeDatabase(23));
    ASSERT_TRUE(engine.BuildIndex().ok());
    ASSERT_TRUE(engine.SaveSnapshot().ok());
    saved_matches = PathMatches(engine);
  }
  ExpectColdStartMatches(file.path(), saved_matches);
}

TEST(SnapshotTest, VersionOneDirectoryRejectedAsInvalidArgument) {
  // Version 1 laid the index parts out differently; such a snapshot is
  // refused up front, never misparsed.
  std::unique_ptr<StorageManager> store = MemorySnapshot(20);
  ASSERT_TRUE(ReadSnapshot(store.get()).ok());
  ASSERT_TRUE(PatchField<uint32_t>(store.get(), kDirectory, 8, 1).ok());
  EXPECT_EQ(ReadSnapshot(store.get()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SnapshotTest, ShortenedSectionsRejectedAsDataLoss) {
  // Every section parses its recorded byte count exactly: any shorter
  // count runs out mid-record, one byte more leaves bytes unparsed. Both
  // are kDataLoss, never a crash or a success.
  std::unique_ptr<StorageManager> store = MemorySnapshot(21);
  for (size_t section = 0; section < 3; ++section) {
    SCOPED_TRACE(section);
    Result<PageStreamRef> ref = ReadSectionRef(store.get(), section);
    ASSERT_TRUE(ref.ok());
    const size_t length_offset = RefOffset(section) + sizeof(PageId);
    std::vector<uint64_t> lengths;
    for (uint64_t cut = 0; cut < ref->num_bytes; ++cut) lengths.push_back(cut);
    lengths.push_back(ref->num_bytes + 1);
    for (uint64_t length : lengths) {
      ASSERT_TRUE(
          PatchField(store.get(), kDirectory, length_offset, length).ok());
      Result<SnapshotContents> contents = ReadSnapshot(store.get());
      ASSERT_FALSE(contents.ok()) << length << " bytes accepted";
      EXPECT_EQ(contents.status().code(), StatusCode::kDataLoss)
          << length << " bytes: " << contents.status().ToString();
    }
    ASSERT_TRUE(
        PatchField(store.get(), kDirectory, length_offset, ref->num_bytes)
            .ok());
  }
  EXPECT_TRUE(ReadSnapshot(store.get()).ok());
}

TEST(SnapshotTest, PartsSourceCountMismatchRejected) {
  // The index parts must describe exactly the database's matrices.
  for (uint64_t count : {2u, 4u}) {
    SCOPED_TRACE(count);
    std::unique_ptr<StorageManager> store = MemorySnapshot(22);
    ASSERT_TRUE(
        PatchField(store.get(), kPartsSection, kPartsSourceCount, count).ok());
    EXPECT_EQ(ReadSnapshot(store.get()).status().code(),
              StatusCode::kDataLoss);
  }
}

// --- Index save and reopen --------------------------------------------------
//
// A built index saved and reopened: the preconditions of a save, answers
// after reopening, and input that is not a snapshot or is cut short.

// The pages of the chain starting at `head`, in stream order.
std::vector<PageId> ChainPages(StorageManager* store, PageId head) {
  std::vector<PageId> pages;
  Page scratch(store->page_size());
  for (PageId id = head; id != kInvalidPageId;) {
    pages.push_back(id);
    Result<Page*> page = store->Read(id, &scratch);
    IMGRN_CHECK_OK(page.status());
    id = (*page)->ReadAt<PageId>(0);
  }
  return pages;
}

TEST(IndexIoTest, SaveRequiresBuiltIndex) {
  // An unbuilt index has nothing to persist, and the store is left
  // without a snapshot rather than with a partial one.
  Result<std::unique_ptr<StorageManager>> store = OpenStorage({});
  ASSERT_TRUE(store.ok());
  GeneDatabase database = MakeDatabase(23);
  ImGrnIndexOptions options;
  options.storage = store->get();
  ImGrnIndex index(options);
  EXPECT_EQ(WriteSnapshot(database, &index, store->get()).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ((*store)->app_root(), kInvalidPageId);
  EXPECT_EQ(ReadSnapshot(store->get()).status().code(), StatusCode::kNotFound);
}

TEST(IndexIoTest, RestoredIndexAnswersIdentically) {
  // Without an engine: WriteSnapshot, ReadSnapshot and ImGrnIndex::Restore
  // over the same store. The reopened index answers a grid of queries and
  // thresholds exactly as the index it was saved from.
  Result<std::unique_ptr<StorageManager>> store = OpenStorage({});
  ASSERT_TRUE(store.ok());
  GeneDatabase database = MakeDatabase(24);
  ImGrnIndexOptions options;
  options.storage = store->get();
  ImGrnIndex original(options);
  ASSERT_TRUE(original.Build(&database).ok());
  ASSERT_TRUE(WriteSnapshot(database, &original, store->get()).ok());

  Result<SnapshotContents> contents = ReadSnapshot(store->get());
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  GeneDatabase restored_database = std::move(contents->database);
  contents->parts.options.storage = store->get();
  Result<std::unique_ptr<ImGrnIndex>> restored = ImGrnIndex::Restore(
      std::move(contents->parts.options), &restored_database,
      std::move(contents->parts.pivot_sets),
      std::move(contents->parts.embeddings),
      std::move(contents->parts.active),
      std::move(contents->parts.inverted_file), contents->tree_meta);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  ImGrnQueryProcessor before(&original);
  ImGrnQueryProcessor after(restored->get());
  size_t answered = 0;
  for (const std::vector<GeneId>& path :
       {std::vector<GeneId>{1, 2, 3}, std::vector<GeneId>{1, 2},
        std::vector<GeneId>{20, 21}}) {
    for (double gamma : {0.3, 0.5, 0.7}) {
      for (double alpha : {0.3, 0.6}) {
        SCOPED_TRACE(testing::Message() << "path of " << path.size()
                                        << " genes from " << path[0]
                                        << ", gamma " << gamma << ", alpha "
                                        << alpha);
        QueryParams params;
        params.gamma = gamma;
        params.alpha = alpha;
        const ProbGraph query = MakePathQuery(path);
        Result<std::vector<QueryMatch>> expected =
            before.QueryWithGraph(query, params);
        Result<std::vector<QueryMatch>> actual =
            after.QueryWithGraph(query, params);
        ASSERT_TRUE(expected.ok());
        ASSERT_TRUE(actual.ok());
        ExpectSameMatches(*expected, *actual);
        answered += expected->size();
      }
    }
  }
  EXPECT_GT(answered, 0u);  // The grid is not vacuous.
}

TEST(IndexIoTest, GarbageRejected) {
  // Wrong bytes where the directory's magic belongs — the app root moved
  // onto one of the snapshot's own pages — is a format problem
  // (kInvalidArgument), not corruption of a snapshot we recognize.
  std::unique_ptr<StorageManager> store = MemorySnapshot(25);
  Result<SnapshotContents> contents = ReadSnapshot(store.get());
  ASSERT_TRUE(contents.ok());
  Result<PageStreamRef> database_ref =
      ReadSectionRef(store.get(), kDatabaseSection);
  ASSERT_TRUE(database_ref.ok());
  const PageId directory = store->app_root();
  const RTreeMeta& tree = contents->tree_meta;
  for (PageId misplaced : {tree.node_pages[tree.root], database_ref->head}) {
    SCOPED_TRACE(misplaced);
    store->SetAppRoot(misplaced);
    Result<SnapshotContents> loaded = ReadSnapshot(store.get());
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
  store->SetAppRoot(directory);
  EXPECT_TRUE(ReadSnapshot(store.get()).ok());
}

TEST(IndexIoTest, ForgedNodePageRejectedAsDataLoss) {
  // A node page named by the tree meta, forged but re-sealed so its CRC
  // passes: restoring the tree is kDataLoss, not an abort in the node
  // decoder. Node layout: magic u32, level i32, entry count u32, then per
  // entry a handle u64, lo[dims] f64, hi[dims] f64 and the payload.
  constexpr size_t kEntryCount = 8;
  constexpr size_t kFirstLo = 12 + 8;
  auto restore_after = [](auto patch) -> Status {
    std::unique_ptr<StorageManager> store = MemorySnapshot(26);
    Result<SnapshotContents> contents = ReadSnapshot(store.get());
    IMGRN_RETURN_IF_ERROR(contents.status());
    const RTreeMeta& tree = contents->tree_meta;
    IMGRN_RETURN_IF_ERROR(patch(store.get(), tree.node_pages[tree.root]));
    GeneDatabase database = std::move(contents->database);
    contents->parts.options.storage = store.get();
    return ImGrnIndex::Restore(std::move(contents->parts.options), &database,
                               std::move(contents->parts.pivot_sets),
                               std::move(contents->parts.embeddings),
                               std::move(contents->parts.active),
                               std::move(contents->parts.inverted_file),
                               tree)
        .status();
  };
  EXPECT_TRUE(restore_after([](StorageManager*, PageId) {
                return Status::Ok();
              }).ok());
  // 2^16 entries fit in memory but not in a page; 2^32 - 1 fit in neither.
  for (uint32_t count : {1u << 16, 0xFFFFFFFFu}) {
    const Status forged_count =
        restore_after([count](StorageManager* store, PageId page) {
          return PatchPage(store, page, kEntryCount, count);
        });
    EXPECT_EQ(forged_count.code(), StatusCode::kDataLoss)
        << count << ": " << forged_count.ToString();
  }
  const Status nan_bound =
      restore_after([](StorageManager* store, PageId page) {
        return PatchPage(store, page, kFirstLo,
                         std::numeric_limits<double>::quiet_NaN());
      });
  EXPECT_EQ(nan_bound.code(), StatusCode::kDataLoss) << nan_bound.ToString();
  const Status inverted =
      restore_after([](StorageManager* store, PageId page) {
        return PatchPage(store, page, kFirstLo,
                         std::numeric_limits<double>::max());
      });
  EXPECT_EQ(inverted.code(), StatusCode::kDataLoss) << inverted.ToString();
}

// Enough samples that the database section spans several pages.
constexpr size_t kMultiPageSamples = 200;

TEST(IndexIoTest, TruncatedStreamRejected) {
  // A recognized snapshot whose longest section's chain ends halfway is
  // data loss, not an argument error: the engine keeps no index, and a
  // rebuild saved over the damaged snapshot reopens.
  TempStoreFile file("truncated_stream");
  {
    ImGrnEngine engine(DiskEngineOptions(file.path()));
    engine.LoadDatabase(MakeDatabase(26, kMultiPageSamples));
    ASSERT_TRUE(engine.BuildIndex().ok());
    ASSERT_TRUE(engine.SaveSnapshot().ok());
  }
  {
    StorageOptions store_options;
    store_options.backend = StorageBackend::kDisk;
    store_options.path = file.path();
    Result<std::unique_ptr<StorageManager>> store = OpenStorage(store_options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    std::vector<PageId> longest;
    for (size_t section = 0; section < 3; ++section) {
      Result<PageStreamRef> ref = ReadSectionRef(store->get(), section);
      ASSERT_TRUE(ref.ok());
      std::vector<PageId> pages = ChainPages(store->get(), ref->head);
      if (pages.size() > longest.size()) longest = std::move(pages);
    }
    ASSERT_GE(longest.size(), 2u);
    const PageId last_kept = longest[longest.size() / 2 - 1];
    ASSERT_TRUE(
        PatchPage<PageId>(store->get(), last_kept, 0, kInvalidPageId).ok());
    ASSERT_TRUE((*store)->Sync().ok());
  }
  std::vector<QueryMatch> rebuilt_matches;
  {
    ImGrnEngine engine(DiskEngineOptions(file.path()));
    const Status status = engine.LoadSnapshot();
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
    EXPECT_FALSE(engine.has_index());
    engine.LoadDatabase(MakeDatabase(26, kMultiPageSamples));
    ASSERT_TRUE(engine.BuildIndex().ok());
    Result<std::vector<QueryMatch>> matches =
        engine.QueryWithGraph(MakePathQuery({1, 2, 3}), TestParams());
    ASSERT_TRUE(matches.ok());
    rebuilt_matches = *matches;
    ASSERT_TRUE(engine.SaveSnapshot().ok());
  }
  ImGrnEngine engine(DiskEngineOptions(file.path()));
  ASSERT_TRUE(engine.LoadSnapshot().ok());
  Result<std::vector<QueryMatch>> matches =
      engine.QueryWithGraph(MakePathQuery({1, 2, 3}), TestParams());
  ASSERT_TRUE(matches.ok());
  ExpectSameMatches(rebuilt_matches, *matches);
}

TEST(IndexIoTest, EveryTruncationPointRejectedNotCrash) {
  // Cut each section's chain at every page boundary — no pages at all, or
  // an early end-of-chain link on any page but the last — while its byte
  // count stays as recorded. Every cut fails cleanly with kDataLoss, never
  // a crash or a success.
  std::unique_ptr<StorageManager> store =
      MemorySnapshot(27, kMultiPageSamples);
  size_t cuts_inside_chains = 0;
  for (size_t section = 0; section < 3; ++section) {
    Result<PageStreamRef> ref = ReadSectionRef(store.get(), section);
    ASSERT_TRUE(ref.ok());
    const std::vector<PageId> pages = ChainPages(store.get(), ref->head);
    ASSERT_FALSE(pages.empty());
    cuts_inside_chains += pages.size() - 1;
    for (size_t kept = 0; kept < pages.size(); ++kept) {
      SCOPED_TRACE(testing::Message() << "section " << section << ", "
                                      << kept << " of " << pages.size()
                                      << " pages kept");
      // The head lives in the directory; later links in the page before.
      const PageId holder = kept == 0 ? store->app_root() : pages[kept - 1];
      const size_t offset = kept == 0 ? RefOffset(section) : 0;
      ASSERT_TRUE(
          PatchPage<PageId>(store.get(), holder, offset, kInvalidPageId).ok());
      Result<SnapshotContents> contents = ReadSnapshot(store.get());
      ASSERT_FALSE(contents.ok());
      EXPECT_EQ(contents.status().code(), StatusCode::kDataLoss)
          << contents.status().ToString();
      ASSERT_TRUE(
          PatchPage<PageId>(store.get(), holder, offset, pages[kept]).ok());
    }
  }
  EXPECT_GE(cuts_inside_chains, 2u);  // Not only empty chains.
  EXPECT_TRUE(ReadSnapshot(store.get()).ok());
}

}  // namespace
}  // namespace imgrn
