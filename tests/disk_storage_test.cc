// Tests for the disk-backed page store: round trips, shadow paging,
// corruption detection, and — the point of the design — crash recovery
// at every individual fsync point of the Sync commit protocol.

#include "storage/disk_storage.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "common/fault_injection.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"
#include "storage/storage_manager.h"

namespace imgrn {
namespace {

// Mirrors the file layout documented in disk_storage.h: two 4 KiB header
// slots, then data slots of 32 + page_size bytes each.
constexpr size_t kHeaderSlotSize = 4096;
constexpr size_t kDataStart = 2 * kHeaderSlotSize;
constexpr size_t kSlotHeaderSize = 32;

constexpr size_t kPageSize = 256;

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

StorageOptions DiskOptions(const std::string& path,
                           size_t page_size = kPageSize) {
  StorageOptions options;
  options.backend = StorageBackend::kDisk;
  options.path = path;
  options.page_size = page_size;
  return options;
}

std::unique_ptr<DiskStorageManager> MustOpen(const StorageOptions& options) {
  Result<std::unique_ptr<DiskStorageManager>> store =
      DiskStorageManager::Open(options);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return store.ok() ? std::move(*store) : nullptr;
}

// Fills a page with a recognizable per-page pattern.
void FillPage(Page* page, PageId id, uint8_t salt) {
  for (size_t i = 0; i < page->size(); ++i) {
    page->mutable_data()[i] = static_cast<uint8_t>(salt + id * 7 + i);
  }
}

bool PageMatches(const Page& page, PageId id, uint8_t salt) {
  for (size_t i = 0; i < page.size(); ++i) {
    if (page.data()[i] != static_cast<uint8_t>(salt + id * 7 + i)) {
      return false;
    }
  }
  return true;
}

TEST(DiskStorageTest, AllocateCommitReadRoundTrip) {
  TempStoreFile file("round_trip");
  std::unique_ptr<DiskStorageManager> store = MustOpen(DiskOptions(file.path()));
  ASSERT_NE(store, nullptr);

  Page frame(kPageSize);
  Page scratch(kPageSize);
  for (int i = 0; i < 8; ++i) {
    const PageId id = store->Allocate();
    EXPECT_EQ(id, static_cast<PageId>(i));
    FillPage(&frame, id, /*salt=*/1);
    ASSERT_TRUE(store->Commit(id, frame).ok());
  }
  EXPECT_EQ(store->num_pages(), 8u);
  for (PageId id = 0; id < 8; ++id) {
    Result<Page*> page = store->Read(id, &scratch);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    EXPECT_TRUE(PageMatches(**page, id, /*salt=*/1));
  }
}

TEST(DiskStorageTest, UncommittedPageReadsZeroes) {
  TempStoreFile file("uncommitted");
  std::unique_ptr<DiskStorageManager> store = MustOpen(DiskOptions(file.path()));
  ASSERT_NE(store, nullptr);

  const PageId id = store->Allocate();
  Page scratch(kPageSize);
  Result<Page*> page = store->Read(id, &scratch);
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  for (size_t i = 0; i < (*page)->size(); ++i) {
    EXPECT_EQ((*page)->data()[i], 0u);
  }
}

TEST(DiskStorageTest, ReopenRecoversSyncedState) {
  TempStoreFile file("reopen");
  {
    std::unique_ptr<DiskStorageManager> store =
        MustOpen(DiskOptions(file.path()));
    ASSERT_NE(store, nullptr);
    Page frame(kPageSize);
    for (PageId id = 0; id < 5; ++id) {
      store->Allocate();
      FillPage(&frame, id, /*salt=*/3);
      ASSERT_TRUE(store->Commit(id, frame).ok());
    }
    store->SetAppRoot(2);
    ASSERT_TRUE(store->Sync().ok());
    EXPECT_EQ(store->generation(), 1u);
  }
  std::unique_ptr<DiskStorageManager> store = MustOpen(DiskOptions(file.path()));
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->num_pages(), 5u);
  EXPECT_EQ(store->app_root(), 2u);
  EXPECT_EQ(store->generation(), 1u);
  Page scratch(kPageSize);
  for (PageId id = 0; id < 5; ++id) {
    Result<Page*> page = store->Read(id, &scratch);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    EXPECT_TRUE(PageMatches(**page, id, /*salt=*/3));
  }
}

TEST(DiskStorageTest, CommitWithoutSyncIsInvisibleAfterReopen) {
  TempStoreFile file("shadow");
  {
    std::unique_ptr<DiskStorageManager> store =
        MustOpen(DiskOptions(file.path()));
    ASSERT_NE(store, nullptr);
    Page frame(kPageSize);
    store->Allocate();
    FillPage(&frame, 0, /*salt=*/10);
    ASSERT_TRUE(store->Commit(0, frame).ok());
    ASSERT_TRUE(store->Sync().ok());
    // Overwrite the page and allocate another, but never Sync: shadow
    // paging must keep the durable state untouched.
    FillPage(&frame, 0, /*salt=*/99);
    ASSERT_TRUE(store->Commit(0, frame).ok());
    store->Allocate();
    FillPage(&frame, 1, /*salt=*/99);
    ASSERT_TRUE(store->Commit(1, frame).ok());
  }
  std::unique_ptr<DiskStorageManager> store = MustOpen(DiskOptions(file.path()));
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->num_pages(), 1u);
  Page scratch(kPageSize);
  Result<Page*> page = store->Read(0, &scratch);
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  EXPECT_TRUE(PageMatches(**page, 0, /*salt=*/10));
}

TEST(DiskStorageTest, DeallocateReusesLogicalIds) {
  TempStoreFile file("free_list");
  std::unique_ptr<DiskStorageManager> store = MustOpen(DiskOptions(file.path()));
  ASSERT_NE(store, nullptr);
  const PageId a = store->Allocate();
  const PageId b = store->Allocate();
  (void)a;
  store->Deallocate(b);
  EXPECT_EQ(store->Allocate(), b);  // LIFO reuse
  EXPECT_EQ(store->num_pages(), 2u);
}

TEST(DiskStorageTest, FreeListSurvivesReopen) {
  TempStoreFile file("free_reopen");
  {
    std::unique_ptr<DiskStorageManager> store =
        MustOpen(DiskOptions(file.path()));
    ASSERT_NE(store, nullptr);
    store->Allocate();
    store->Allocate();
    store->Allocate();
    store->Deallocate(1);
    ASSERT_TRUE(store->Sync().ok());
  }
  std::unique_ptr<DiskStorageManager> store = MustOpen(DiskOptions(file.path()));
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->num_pages(), 3u);
  EXPECT_EQ(store->Allocate(), 1u);
}

TEST(DiskStorageTest, CorruptPayloadSurfacesDataLoss) {
  TempStoreFile file("corrupt");
  {
    std::unique_ptr<DiskStorageManager> store =
        MustOpen(DiskOptions(file.path()));
    ASSERT_NE(store, nullptr);
    Page frame(kPageSize);
    store->Allocate();
    FillPage(&frame, 0, /*salt=*/5);
    ASSERT_TRUE(store->Commit(0, frame).ok());
    ASSERT_TRUE(store->Sync().ok());
  }
  // Flip one payload byte of slot 0 (the first Commit shadow-writes page 0
  // into slot 0; the Sync meta chain lands in later slots).
  {
    std::fstream f(file.path(),
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    f.seekg(kDataStart + kSlotHeaderSize + 13);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(kDataStart + kSlotHeaderSize + 13);
    f.write(&byte, 1);
  }
  std::unique_ptr<DiskStorageManager> store = MustOpen(DiskOptions(file.path()));
  ASSERT_NE(store, nullptr);
  Page scratch(kPageSize);
  Result<Page*> page = store->Read(0, &scratch);
  ASSERT_FALSE(page.ok());
  EXPECT_EQ(page.status().code(), StatusCode::kDataLoss);
}

// A read lands in the caller's frame already sealed: the one CRC pass
// that checked the slot is also the frame's seal, so the checksum must be
// the CRC32C of exactly the bytes handed back.
TEST(DiskStorageTest, ReadBackPageIsSealedWithItsCrc) {
  TempStoreFile file("sealed_read");
  {
    std::unique_ptr<DiskStorageManager> store =
        MustOpen(DiskOptions(file.path()));
    ASSERT_NE(store, nullptr);
    Page frame(kPageSize);
    for (PageId id = 0; id < 3; ++id) {
      store->Allocate();
      FillPage(&frame, id, /*salt=*/9);
      ASSERT_TRUE(store->Commit(id, frame).ok());
    }
    ASSERT_TRUE(store->Sync().ok());
  }
  std::unique_ptr<DiskStorageManager> store = MustOpen(DiskOptions(file.path()));
  ASSERT_NE(store, nullptr);
  Page scratch(kPageSize);  // reused, so each read must replace the seal
  for (PageId id = 0; id < 3; ++id) {
    Result<Page*> page = store->Read(id, &scratch);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    EXPECT_EQ(*page, &scratch);
    EXPECT_TRUE(PageMatches(**page, id, /*salt=*/9));
    EXPECT_TRUE((*page)->sealed());
    EXPECT_TRUE((*page)->VerifyChecksum());
    EXPECT_EQ((*page)->checksum(), Crc32c((*page)->data(), (*page)->size()));
  }
}

TEST(DiskStorageTest, CorruptPayloadFetchedThroughPoolIsNotAdmitted) {
  TempStoreFile file("corrupt_pool");
  {
    std::unique_ptr<DiskStorageManager> store =
        MustOpen(DiskOptions(file.path()));
    ASSERT_NE(store, nullptr);
    Page frame(kPageSize);
    for (PageId id = 0; id < 2; ++id) {
      store->Allocate();
      FillPage(&frame, id, /*salt=*/5);
      ASSERT_TRUE(store->Commit(id, frame).ok());
    }
    ASSERT_TRUE(store->Sync().ok());
  }
  // Flip one payload byte of slot 0, which holds page 0 (fresh slots are
  // handed out in commit order; the meta chain lands after them).
  {
    std::fstream f(file.path(),
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    f.seekg(kDataStart + kSlotHeaderSize + 101);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x01);
    f.seekp(kDataStart + kSlotHeaderSize + 101);
    f.write(&byte, 1);
  }
  std::unique_ptr<DiskStorageManager> store = MustOpen(DiskOptions(file.path()));
  ASSERT_NE(store, nullptr);
  BufferPool pool(store.get(), /*capacity=*/4);

  Result<Page*> corrupt = pool.Fetch(0);
  ASSERT_FALSE(corrupt.ok());
  EXPECT_EQ(corrupt.status().code(), StatusCode::kDataLoss);
  EXPECT_FALSE(pool.IsResident(0));

  Result<Page*> intact = pool.Fetch(1);
  ASSERT_TRUE(intact.ok()) << intact.status().ToString();
  EXPECT_TRUE(PageMatches(**intact, 1, /*salt=*/5));
  EXPECT_TRUE((*intact)->sealed());

  // Not cached by the failed fetch: the next one reads and fails again.
  EXPECT_EQ(pool.Fetch(0).status().code(), StatusCode::kDataLoss);
  EXPECT_FALSE(pool.IsResident(0));
  EXPECT_EQ(pool.num_resident(), 1u);
  EXPECT_EQ(pool.stats().misses, 3u);
}

TEST(DiskStorageTest, GarbageFileRejectedWithDataLoss) {
  TempStoreFile file("garbage");
  {
    std::ofstream f(file.path(), std::ios::binary);
    for (int i = 0; i < 10000; ++i) f.put(static_cast<char>(i * 31));
  }
  Result<std::unique_ptr<DiskStorageManager>> store =
      DiskStorageManager::Open(DiskOptions(file.path()));
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kDataLoss);
}

TEST(DiskStorageTest, TruncatedFileRejectedNotCrash) {
  TempStoreFile file("truncated");
  {
    std::unique_ptr<DiskStorageManager> store =
        MustOpen(DiskOptions(file.path()));
    ASSERT_NE(store, nullptr);
    Page frame(kPageSize);
    store->Allocate();
    FillPage(&frame, 0, /*salt=*/5);
    ASSERT_TRUE(store->Commit(0, frame).ok());
    ASSERT_TRUE(store->Sync().ok());
  }
  ASSERT_EQ(::truncate(file.path().c_str(), 100), 0);
  Result<std::unique_ptr<DiskStorageManager>> store =
      DiskStorageManager::Open(DiskOptions(file.path()));
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kDataLoss);
}

// A store reopens to its empty generation 0 until its first Sync, but
// generation 0 is never a fallback: a file that kept both headers and lost
// the first Sync's meta chain is kDataLoss, not an empty store.
TEST(DiskStorageTest, EmptyGenerationIsNotAFallback) {
  TempStoreFile file("no_empty_fallback");
  {
    std::unique_ptr<DiskStorageManager> store =
        MustOpen(DiskOptions(file.path()));
    ASSERT_NE(store, nullptr);
    Page frame(kPageSize);
    store->Allocate();
    FillPage(&frame, 0, /*salt=*/6);
    ASSERT_TRUE(store->Commit(0, frame).ok());
    ASSERT_TRUE(store->Sync().ok());
  }
  ASSERT_EQ(::truncate(file.path().c_str(), kDataStart), 0);
  Result<std::unique_ptr<DiskStorageManager>> store =
      DiskStorageManager::Open(DiskOptions(file.path()));
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kDataLoss);
}

// Header fields (FileHeader in disk_storage.cc): the app root u32 at byte
// 20, and the CRC32C of bytes [0, 60) at byte 60. Generation g's header
// lives in header slot g % 2.
constexpr size_t kHeaderAppRoot = 20;
constexpr size_t kHeaderCrc = 60;

// Rewrites the app root of generation `generation`'s header and reseals
// the header's CRC32C, so only Recover's own checks can refuse it.
void ForgeAppRoot(const std::string& path, uint64_t generation,
                  PageId app_root) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  const std::streamoff offset =
      static_cast<std::streamoff>((generation % 2) * kHeaderSlotSize);
  uint8_t header[64];
  f.seekg(offset);
  f.read(reinterpret_cast<char*>(header), sizeof(header));
  std::memcpy(header + kHeaderAppRoot, &app_root, sizeof(app_root));
  const uint32_t crc = Crc32c(header, kHeaderCrc);
  std::memcpy(header + kHeaderCrc, &crc, sizeof(crc));
  f.seekp(offset);
  f.write(reinterpret_cast<const char*>(header), sizeof(header));
  ASSERT_TRUE(f.good());
}

// A re-sealed header whose app root is past the page table, or names a
// page its own state freed, is refused like one whose meta chain fails:
// the store reopens to the older header instead of aborting in Read's
// CHECK, and with both headers forged it is kDataLoss.
TEST(DiskStorageTest, AppRootNotALivePageFallsBackToOlderHeader) {
  for (const PageId forged : {PageId{999999}, PageId{1}}) {
    SCOPED_TRACE(forged);
    TempStoreFile file("app_root");
    {
      std::unique_ptr<DiskStorageManager> store =
          MustOpen(DiskOptions(file.path()));
      ASSERT_NE(store, nullptr);
      Page frame(kPageSize);
      for (PageId id = 0; id < 2; ++id) {
        store->Allocate();
        FillPage(&frame, id, /*salt=*/8);
        ASSERT_TRUE(store->Commit(id, frame).ok());
      }
      store->SetAppRoot(0);
      ASSERT_TRUE(store->Sync().ok());  // Generation 1: pages 0 and 1.
      store->Deallocate(1);
      ASSERT_TRUE(store->Sync().ok());  // Generation 2: page 1 freed.
    }
    ForgeAppRoot(file.path(), /*generation=*/2, forged);
    {
      std::unique_ptr<DiskStorageManager> store =
          MustOpen(DiskOptions(file.path()));
      ASSERT_NE(store, nullptr);
      EXPECT_EQ(store->generation(), 1u);
      EXPECT_EQ(store->app_root(), 0u);
      Page scratch(kPageSize);
      Result<Page*> root = store->Read(store->app_root(), &scratch);
      ASSERT_TRUE(root.ok()) << root.status().ToString();
      EXPECT_TRUE(PageMatches(**root, 0, /*salt=*/8));
    }
    ForgeAppRoot(file.path(), /*generation=*/1, 999999);
    Result<std::unique_ptr<DiskStorageManager>> store =
        DiskStorageManager::Open(DiskOptions(file.path()));
    ASSERT_FALSE(store.ok());
    EXPECT_EQ(store.status().code(), StatusCode::kDataLoss);
  }
}

TEST(DiskStorageTest, PageSizeMismatchRejectedWithInvalidArgument) {
  TempStoreFile file("page_size");
  {
    std::unique_ptr<DiskStorageManager> store =
        MustOpen(DiskOptions(file.path(), /*page_size=*/256));
    ASSERT_NE(store, nullptr);
    ASSERT_TRUE(store->Sync().ok());
  }
  Result<std::unique_ptr<DiskStorageManager>> store =
      DiskStorageManager::Open(DiskOptions(file.path(), /*page_size=*/512));
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kInvalidArgument);
}

TEST(DiskStorageTest, UnlinkOnCloseRemovesFile) {
  TempStoreFile file("unlink");
  StorageOptions options = DiskOptions(file.path());
  options.unlink_on_close = true;
  {
    std::unique_ptr<DiskStorageManager> store = MustOpen(options);
    ASSERT_NE(store, nullptr);
    ASSERT_TRUE(store->Sync().ok());
    EXPECT_EQ(::access(file.path().c_str(), F_OK), 0);
  }
  EXPECT_NE(::access(file.path().c_str(), F_OK), 0);
}

TEST(DiskStorageTest, OpenStorageFactoryDispatchesToDisk) {
  TempStoreFile file("factory");
  Result<std::unique_ptr<StorageManager>> store =
      OpenStorage(DiskOptions(file.path()));
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_NE(dynamic_cast<DiskStorageManager*>(store->get()), nullptr);
}

TEST(DiskStorageTest, TransientWriteFaultDoesNotPoisonStore) {
  TempStoreFile file("write_fault");
  std::unique_ptr<DiskStorageManager> store = MustOpen(DiskOptions(file.path()));
  ASSERT_NE(store, nullptr);
  Page frame(kPageSize);
  store->Allocate();
  FillPage(&frame, 0, /*salt=*/7);
  {
    ScopedFaultInjection faults({{.site = fault_sites::kDiskWrite,
                                  .every_nth = 1,
                                  .max_fires = 1}});
    Status status = store->Commit(0, frame);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  }
  // Retry succeeds and the page round-trips.
  ASSERT_TRUE(store->Commit(0, frame).ok());
  ASSERT_TRUE(store->Sync().ok());
  Page scratch(kPageSize);
  Result<Page*> page = store->Read(0, &scratch);
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  EXPECT_TRUE(PageMatches(**page, 0, /*salt=*/7));
}

// ---------------------------------------------------------------------------
// Kill-at-each-fsync-point recovery suite.
//
// The Sync commit protocol has five steps (DiskStorageManager::SyncStep);
// the fault site `disk.sync` fires *before* each step's I/O, so injecting
// at step k and reopening the file models a crash with exactly the steps
// < k applied. For every k before the commit point (kHeaderSync, step 4)
// the reopened store must serve the OLD committed state; at the commit
// point itself the header was written but not fsynced — in-process reopen
// then sees the new header via the page cache, so either state is
// legitimate, but whichever wins must be complete and consistent, never a
// torn mix.
// ---------------------------------------------------------------------------

class DiskSyncCrashTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(DiskSyncCrashTest, ReopenAfterKilledSyncIsConsistent) {
  const int64_t step = GetParam();
  TempStoreFile file("sync_crash_" + std::to_string(step));

  // State A: pages {0, 1} with salt 20, app root 0. Durable.
  {
    std::unique_ptr<DiskStorageManager> store =
        MustOpen(DiskOptions(file.path()));
    ASSERT_NE(store, nullptr);
    Page frame(kPageSize);
    for (PageId id = 0; id < 2; ++id) {
      store->Allocate();
      FillPage(&frame, id, /*salt=*/20);
      ASSERT_TRUE(store->Commit(id, frame).ok());
    }
    store->SetAppRoot(0);
    ASSERT_TRUE(store->Sync().ok());

    // State B: rewrite page 1, add page 2 with salt 21, app root 2 —
    // then kill the Sync at the parameterized step.
    FillPage(&frame, 1, /*salt=*/21);
    ASSERT_TRUE(store->Commit(1, frame).ok());
    store->Allocate();
    FillPage(&frame, 2, /*salt=*/21);
    ASSERT_TRUE(store->Commit(2, frame).ok());
    store->SetAppRoot(2);
    {
      ScopedFaultInjection faults({{.site = fault_sites::kDiskSync,
                                    .detail = step,
                                    .every_nth = 1,
                                    .max_fires = 1}});
      Status status = store->Sync();
      ASSERT_FALSE(status.ok());
      EXPECT_EQ(status.code(), StatusCode::kUnavailable);
    }
    // "Crash": drop the manager without another Sync. The destructor only
    // closes the fd; nothing else reaches the file.
  }

  std::unique_ptr<DiskStorageManager> store = MustOpen(DiskOptions(file.path()));
  ASSERT_NE(store, nullptr);

  const bool commit_point =
      step == static_cast<int64_t>(DiskStorageManager::SyncStep::kHeaderSync);
  // Before the commit point the new header never reached the file, so the
  // old state MUST win. At the commit point the unsynced header may or may
  // not be visible; accept either generation but verify it in full below.
  const bool recovered_new = store->generation() == 2;
  if (!commit_point) {
    ASSERT_EQ(store->generation(), 1u)
        << "crash before the commit point must recover the old state";
  } else {
    ASSERT_TRUE(store->generation() == 1 || recovered_new);
  }

  Page scratch(kPageSize);
  if (recovered_new) {
    ASSERT_EQ(store->num_pages(), 3u);
    EXPECT_EQ(store->app_root(), 2u);
    for (PageId id = 0; id < 3; ++id) {
      Result<Page*> page = store->Read(id, &scratch);
      ASSERT_TRUE(page.ok()) << page.status().ToString();
      const uint8_t salt = id == 0 ? 20 : 21;
      EXPECT_TRUE(PageMatches(**page, id, salt)) << "torn page " << id;
    }
  } else {
    ASSERT_EQ(store->num_pages(), 2u);
    EXPECT_EQ(store->app_root(), 0u);
    for (PageId id = 0; id < 2; ++id) {
      Result<Page*> page = store->Read(id, &scratch);
      ASSERT_TRUE(page.ok()) << page.status().ToString();
      EXPECT_TRUE(PageMatches(**page, id, /*salt=*/20)) << "torn page " << id;
    }
  }

  // Whatever state won, the store must keep working: commit + sync a new
  // page and round-trip it.
  const PageId fresh = store->Allocate();
  Page frame(kPageSize);
  FillPage(&frame, fresh, /*salt=*/42);
  ASSERT_TRUE(store->Commit(fresh, frame).ok());
  ASSERT_TRUE(store->Sync().ok());
  Result<Page*> page = store->Read(fresh, &scratch);
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  EXPECT_TRUE(PageMatches(**page, fresh, /*salt=*/42));
}

INSTANTIATE_TEST_SUITE_P(
    AllSyncSteps, DiskSyncCrashTest,
    ::testing::Values(
        static_cast<int64_t>(DiskStorageManager::SyncStep::kDataSync),
        static_cast<int64_t>(DiskStorageManager::SyncStep::kMetaWrite),
        static_cast<int64_t>(DiskStorageManager::SyncStep::kMetaSync),
        static_cast<int64_t>(DiskStorageManager::SyncStep::kHeaderWrite),
        static_cast<int64_t>(DiskStorageManager::SyncStep::kHeaderSync)),
    [](const ::testing::TestParamInfo<int64_t>& info) {
      switch (static_cast<DiskStorageManager::SyncStep>(info.param)) {
        case DiskStorageManager::SyncStep::kDataSync: return "DataSync";
        case DiskStorageManager::SyncStep::kMetaWrite: return "MetaWrite";
        case DiskStorageManager::SyncStep::kMetaSync: return "MetaSync";
        case DiskStorageManager::SyncStep::kHeaderWrite: return "HeaderWrite";
        case DiskStorageManager::SyncStep::kHeaderSync: return "HeaderSync";
      }
      return "Unknown";
    });

// A Sync that fails repeatedly (not just once) must also leave the store
// usable: after the outage clears, the next Sync commits everything.
TEST(DiskStorageTest, RepeatedSyncFailuresThenRecovery) {
  TempStoreFile file("retry_sync");
  std::unique_ptr<DiskStorageManager> store = MustOpen(DiskOptions(file.path()));
  ASSERT_NE(store, nullptr);
  Page frame(kPageSize);
  store->Allocate();
  FillPage(&frame, 0, /*salt=*/9);
  ASSERT_TRUE(store->Commit(0, frame).ok());
  {
    ScopedFaultInjection faults({{.site = fault_sites::kDiskSync,
                                  .every_nth = 1,
                                  .max_fires = 3}});
    EXPECT_FALSE(store->Sync().ok());
    EXPECT_FALSE(store->Sync().ok());
    EXPECT_FALSE(store->Sync().ok());
  }
  ASSERT_TRUE(store->Sync().ok());
  EXPECT_EQ(store->generation(), 1u);
  Page scratch(kPageSize);
  Result<Page*> page = store->Read(0, &scratch);
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  EXPECT_TRUE(PageMatches(**page, 0, /*salt=*/9));
}

}  // namespace
}  // namespace imgrn
