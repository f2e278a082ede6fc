#ifndef IMGRN_STORAGE_DISK_STORAGE_H_
#define IMGRN_STORAGE_DISK_STORAGE_H_

#include <sys/uio.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/page.h"
#include "storage/storage_manager.h"

namespace imgrn {

/// Fixed-size pages in a single on-disk file, crash-safe without a WAL via
/// shadow paging:
///
///  - A *logical* page id (what callers see) maps to a *physical slot*
///    through an in-memory page table. Commit never overwrites a slot
///    referenced by the last durable state: the first write to a logical
///    page after a Sync goes to a fresh slot (copy-on-write); the old slot
///    is recycled only after the next successful Sync.
///  - Sync makes the current logical state durable atomically: fdatasync
///    the shadow-written payloads, write the page table + logical free
///    list into a fresh chain of meta slots, fdatasync, then write the
///    next-generation header into the *inactive* of two header slots and
///    fsync — that final fsync is the commit point. A crash anywhere
///    before it leaves the previous header (and every slot it references)
///    untouched, so recovery is "pick the newest header whose meta chain
///    verifies"; a crash can only ever yield the old state or the new
///    state, never a torn mix.
///  - Every slot is sealed with a CRC32C over its payload, persisted in a
///    32-byte slot header on disk. A torn or rotten page surfaces as
///    kDataLoss at Read — the same contract (and the same buffer-pool
///    handling) as the in-memory backend's seal-and-verify path.
///
/// File layout:
///
///   [header slot A · 4 KiB][header slot B · 4 KiB][slot 0][slot 1]...
///
/// where each slot is `32 + page_size` bytes. Headers carry magic
/// "IMGRNPG1", format version, an endianness tag, the page size, a
/// monotonically increasing generation, the meta-chain anchor, the app
/// root, and their own CRC32C; the valid header with the highest
/// generation (and a verifiable meta chain) wins at open.
///
/// Fault sites: `disk.read` / `disk.write` (detail = logical page id) and
/// `disk.sync` (detail = SyncStep), so tests can simulate a crash at each
/// individual fsync point of the commit protocol.
///
/// Thread safety: none (same contract as the memory backend — the buffer
/// pool and engine locking above serialize access).
class DiskStorageManager final : public StorageManager {
 public:
  /// The steps of the Sync commit protocol, in execution order. Each is a
  /// `disk.sync` fault-site detail; injecting at step k and reopening the
  /// file models a crash with steps < k applied.
  enum class SyncStep : int64_t {
    kDataSync = 0,    // fdatasync of the shadow-written page payloads
    kMetaWrite = 1,   // pwrite of the new page-table/free-list meta chain
    kMetaSync = 2,    // fdatasync of the meta chain
    kHeaderWrite = 3, // pwrite of the next-generation header
    kHeaderSync = 4,  // fsync of the header — the commit point
  };

  /// Opens (creating if absent) the store at `options.path`. A fresh file
  /// is initialized with an empty generation-0 state; an existing file is
  /// recovered to its last committed state. Fails with kDataLoss when no
  /// header/meta chain verifies, kInvalidArgument on a page-size or
  /// format mismatch.
  static Result<std::unique_ptr<DiskStorageManager>> Open(
      const StorageOptions& options);

  ~DiskStorageManager() override;

  DiskStorageManager(const DiskStorageManager&) = delete;
  DiskStorageManager& operator=(const DiskStorageManager&) = delete;

  // --- StorageManager ---

  size_t page_size() const override { return page_size_; }
  size_t num_pages() const override { return page_table_.size(); }
  PageId Allocate() override;
  void Deallocate(PageId id) override;
  Result<Page*> Read(PageId id, Page* scratch) override;
  Status Commit(PageId id, const Page& frame) override;
  Status Sync() override;
  Page* DirectFrame(PageId /*id*/) override { return nullptr; }
  bool IsLivePage(PageId id) const override {
    return id < page_table_.size() && !freed_[id];
  }
  void SetAppRoot(PageId id) override { app_root_ = id; }
  PageId app_root() const override { return app_root_; }

  /// Truncates the trailing run of reusable-now slots (slot_free_) off the
  /// file and shrinks the slot high-water mark. Only slots in NO durable
  /// state are eligible, so call after the Sync that committed the
  /// Deallocates which freed them: the newest durable header then
  /// references kept slots only, and recovery from it never reads past the
  /// shortened file (an older header might, but it is only consulted when
  /// the newest one is itself corrupt). Returns slots released; callers
  /// should Sync afterwards so the durable num_slots matches the file.
  size_t ShrinkToFit() override;

  // --- Introspection (tests, bench) ---

  const std::string& path() const { return path_; }
  /// Generation of the last durably committed state.
  uint64_t generation() const { return generation_; }
  /// Physical slot high-water mark (file growth, in slots).
  size_t num_slots() const { return num_slots_; }

 private:
  using SlotId = uint32_t;
  static constexpr SlotId kInvalidSlot = static_cast<SlotId>(-1);
  struct SlotHeader;  // on-disk per-slot header, defined in the .cc

  DiskStorageManager(std::string path, size_t page_size, bool unlink_on_close);

  Status InitFresh();
  Status Recover();
  Result<std::vector<uint8_t>> ReadMetaChain(SlotId head, uint32_t count,
                                             std::vector<SlotId>* chain);
  Status ParseMeta(const std::vector<uint8_t>& meta);
  std::vector<uint8_t> SerializeMeta() const;

  size_t SlotOffset(SlotId slot) const;
  SlotId AllocateSlot();
  Status WriteSlot(SlotId slot, uint32_t logical, const uint8_t* payload,
                   uint32_t payload_size);
  /// Reads a slot with one preadv: its header into `header` and its
  /// page_size_ payload bytes straight into `payload`. Checks the header's
  /// magic, size and logical page; checking the payload against
  /// `header->payload_crc` is the caller's, so a page read can do it in the
  /// same pass that seals its frame.
  Status ReadSlot(SlotId slot, uint32_t expected_logical, SlotHeader* header,
                  uint8_t* payload);
  Status WriteHeader(uint64_t generation, SlotId meta_head,
                     uint32_t meta_count);

  /// Fills every buffer of `iov` from `offset` on; a short file is
  /// kDataLoss. Advances `iov` in place across partial reads.
  Status PReadFull(iovec* iov, int iovcnt, size_t offset) const;
  Status PWriteFull(const void* buf, size_t count, size_t offset) const;

  std::string path_;
  size_t page_size_;
  bool unlink_on_close_;
  int fd_ = -1;

  // Logical state (what num_pages/Allocate/Deallocate manage).
  std::vector<SlotId> page_table_;      // logical -> physical slot
  std::vector<bool> freed_;             // logical id on the free list
  std::vector<PageId> free_list_;       // logical free list (LIFO reuse)
  PageId app_root_ = kInvalidPageId;

  // Physical state.
  size_t num_slots_ = 0;                // slot high-water mark
  std::vector<SlotId> slot_free_;       // reusable now (in no durable state)
  std::vector<SlotId> pending_free_;    // referenced by the last durable
                                        // state; reusable after next Sync
  std::vector<SlotId> committed_table_; // logical -> slot at last Sync
  std::vector<SlotId> committed_meta_;  // meta chain of last Sync
  uint64_t generation_ = 0;             // last durable generation
};

}  // namespace imgrn

#endif  // IMGRN_STORAGE_DISK_STORAGE_H_
