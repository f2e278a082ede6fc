#ifndef IMGRN_STORAGE_STORAGE_MANAGER_H_
#define IMGRN_STORAGE_STORAGE_MANAGER_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "storage/page.h"

namespace imgrn {

/// Which backend a paged store runs on.
enum class StorageBackend {
  /// Pages live in process memory (the historical PagedFile). Fast,
  /// volatile, capacity bounded by RAM. I/O counters model the paper's
  /// page-access metric without physical latency.
  kMemory,
  /// Pages live in a single on-disk file (DiskStorageManager): shadow-paged
  /// writes, double-header atomic commit, per-page CRC32C. Misses and
  /// write-backs in the buffer pool above it are real disk I/O.
  kDisk,
};

/// How to open/create a paged store. Parsed from the CLI's
/// `--store=mem|disk:<path>` by ParseStoreSpec.
struct StorageOptions {
  StorageBackend backend = StorageBackend::kMemory;

  /// Backing file (disk backend only). Created if absent; reopened —
  /// recovering the last committed state — if present.
  std::string path;

  size_t page_size = kDefaultPageSize;

  /// Disk backend only: unlink the backing file when the manager is
  /// destroyed. For ephemeral stores (scratch files of benches and tests)
  /// that are not a durability domain.
  bool unlink_on_close = false;
};

/// The storage layer under the buffer pool: a flat array of fixed-size
/// logical pages addressed by PageId. Two backends exist (see
/// StorageBackend); everything above the pool — R*-tree, snapshots, the
/// baseline scan — is backend-agnostic.
///
/// Contract:
///  - Allocate/Deallocate manage *logical* ids and never perform I/O;
///    deallocated ids go to a free list and may be returned again.
///  - Read/Commit move whole pages and are the fallible, fault-injectable
///    I/O path. Commit seals the page with a CRC32C that Read verifies
///    (kDataLoss on mismatch — a torn or rotten page is detected, never
///    silently served).
///  - Sync is the durability point: after an OK Sync, the state written so
///    far survives a crash atomically (all-or-nothing; see
///    DiskStorageManager for the commit protocol). Memory stores Sync as a
///    no-op.
///  - DirectFrame exposes the live in-memory frame for backends that have
///    one (memory backend); disk-backed stores return nullptr and callers
///    go through the buffer pool's copy of the page.
///
/// Thread safety: none. The buffer pool (and the engine's reader-writer
/// locking above it) serializes access; see BufferPool's contract.
class StorageManager {
 public:
  virtual ~StorageManager() = default;

  virtual size_t page_size() const = 0;

  /// Logical page-id high-water mark (allocated, including freed ids not
  /// yet reused).
  virtual size_t num_pages() const = 0;

  /// Allocates a zeroed logical page (reusing a freed id if one exists).
  /// Pure bookkeeping — cannot fail; I/O happens at Commit/Sync.
  virtual PageId Allocate() = 0;

  /// Returns `id` to the free list. Reading a deallocated page before its
  /// id is re-allocated is a caller bug (checked).
  virtual void Deallocate(PageId id) = 0;

  /// The fallible accounted read. Direct-frame backends return the live
  /// frame (`scratch` untouched, may be null); others fill `*scratch` and
  /// return it. Verifies the committed CRC32C (kDataLoss on mismatch) and
  /// evaluates the backend's read fault site. A page allocated but never
  /// committed reads as zeroes.
  virtual Result<Page*> Read(PageId id, Page* scratch) = 0;

  /// The fallible write: persists `frame`'s bytes as page `id`, sealed
  /// with their CRC32C. Evaluates the backend's write fault site. Disk
  /// stores write shadow slots — a committed page is never overwritten in
  /// place, so a crash before the next Sync cannot tear the old state.
  virtual Status Commit(PageId id, const Page& frame) = 0;

  /// Durability point. Returns only after the current logical state
  /// (page table, free list, app root, page payloads) is crash-safely on
  /// stable storage. All-or-nothing: reopening after a crash anywhere
  /// inside Sync recovers either the previous committed state or this
  /// one, never a mix.
  virtual Status Sync() = 0;

  /// Live frame of `id` for in-memory backends; nullptr for disk.
  virtual Page* DirectFrame(PageId id) = 0;

  /// True when `id` is an allocated, not-deallocated logical page — i.e.
  /// Read(id) and Deallocate(id) are legal. Any id, even one past
  /// num_pages(), may be asked: page ids read back from stored bytes
  /// (stream links, a snapshot's tree meta) are checked with this before
  /// they reach the CHECKed calls.
  virtual bool IsLivePage(PageId id) const = 0;

  /// One well-known "application root" page id the store persists with its
  /// header (kInvalidPageId when unset). The snapshot layer anchors its
  /// directory page here so a reopened store can find it without any
  /// out-of-band state. Committed by the next Sync.
  virtual void SetAppRoot(PageId id) = 0;
  virtual PageId app_root() const = 0;
};

/// Opens (or creates) the store described by `options`.
Result<std::unique_ptr<StorageManager>> OpenStorage(
    const StorageOptions& options);

/// Parses a `--store=` spec: "mem" or "disk:<path>".
Result<StorageOptions> ParseStoreSpec(const std::string& spec);

}  // namespace imgrn

#endif  // IMGRN_STORAGE_STORAGE_MANAGER_H_
