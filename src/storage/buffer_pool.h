#ifndef IMGRN_STORAGE_BUFFER_POOL_H_
#define IMGRN_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/status.h"
#include "storage/page.h"
#include "storage/storage_manager.h"

namespace imgrn {

/// I/O statistics gathered by the buffer pool. `fetches` counts every
/// logical page access; `misses` counts accesses not served from the pool
/// (these are the physical "page accesses" the paper's I/O-cost figures
/// report — against a disk-backed store a miss is a real disk read).
/// `writes` counts pages written through Put; `writebacks` counts dirty
/// pages reaching the store (eviction or WriteBack) — real disk writes on
/// a disk-backed store.
struct IoStats {
  uint64_t fetches = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t writes = 0;
  uint64_t writebacks = 0;

  void Reset() { *this = IoStats{}; }
};

/// A fixed-capacity LRU buffer pool over a StorageManager — the one place
/// every component reads and writes index pages, so I/O is accounted (and
/// physically performed, for disk-backed stores) in one tier.
///
/// Backends with a live in-process frame per page (MemoryStorageManager)
/// are cached by reference: a resident entry points at the store's own
/// frame and a "fetch" is accounting plus the fallible verify path.
/// Backends without one (DiskStorageManager) are cached by copy: a miss
/// reads the page into a pool-owned frame, a dirty eviction writes it
/// back. The LRU bookkeeping and counters are identical either way, so an
/// in-memory and a disk-backed engine running the same access sequence
/// report identical logical I/O.
///
/// Thread safety: Fetch, Put, IsResident, stats, WriteBack and FlushAll
/// are internally synchronized, so concurrent *readers* of the owning
/// structure (e.g. many queries traversing one R*-tree through the
/// QueryService) may fetch pages in parallel. The backing store itself is
/// NOT synchronized; callers must not Allocate() concurrently with
/// fetches (ShardedEngine enforces this with each shard replica's
/// reader-writer lock around index updates).
class BufferPool {
 public:
  /// `capacity` is the number of resident pages. Must be >= 1.
  BufferPool(StorageManager* store, size_t capacity);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// The fallible accounted read. Counts a miss when the page was not
  /// resident and marks it most-recently-used; the returned pointer stays
  /// valid until the page is evicted (after `capacity` distinct subsequent
  /// fetches at worst), so callers must not hold it across further fetches
  /// unless they re-fetch. Failure paths:
  ///  - evaluates the "buffer_pool.fetch" fault site (detail = page id);
  ///  - a miss reads through StorageManager::Read — the backend's own
  ///    fault site plus CRC32C verification (kDataLoss on mismatch). A
  ///    page that fails to read is never admitted (the miss still counts:
  ///    the access happened and failed);
  ///  - making room for the new page may write back a dirty victim; if
  ///    that write-back fails the fetch fails and the victim stays
  ///    resident and dirty.
  Result<Page*> Fetch(PageId id);

  /// The accounted write: admits (or refreshes) `id` with `src`'s bytes
  /// and marks it dirty; the bytes reach the store at eviction or
  /// WriteBack(). Admission may evict (writing back a dirty victim, whose
  /// failure fails the Put). For by-reference backends the store's live
  /// frame is updated immediately — the Commit (seal + fault site) is
  /// still deferred to write-back, like any dirty page.
  Status Put(PageId id, const Page& src);

  /// Writes every dirty resident page back to the store in ascending
  /// page-id order (deterministic I/O), clearing its dirty bit. Stops at
  /// the first failure. Does not evict anything. Not a durability point —
  /// call StorageManager::Sync() for that.
  Status WriteBack();

  /// True if `id` is currently resident (does not affect stats or LRU).
  bool IsResident(PageId id) const;

  size_t capacity() const { return capacity_; }
  size_t num_resident() const;

  /// Consistent snapshot of the I/O counters.
  IoStats stats() const;
  void ResetStats();

  /// Drops every resident page (e.g. between queries, to model a cold
  /// cache). Does not change stats. Dirty pages are DISCARDED — callers
  /// that may hold dirty data call WriteBack() first.
  void FlushAll();

 private:
  struct Frame {
    std::list<PageId>::iterator lru;
    /// Pool-owned copy for by-copy backends; null when the entry caches
    /// the store's live frame by reference.
    std::unique_ptr<Page> owned;
    bool dirty = false;
  };

  Page* FrameData(PageId id, Frame& frame);
  /// Evicts the LRU victim, writing it back first if dirty. Caller holds
  /// mutex_ and guarantees the pool is non-empty.
  Status EvictOne();

  StorageManager* store_;
  size_t capacity_;

  // Guards stats_, lru_ and resident_ (see "Thread safety" above).
  mutable std::mutex mutex_;
  IoStats stats_;

  // LRU list, most recent at front; map from page id to its frame.
  std::list<PageId> lru_;
  std::unordered_map<PageId, Frame> resident_;
};

}  // namespace imgrn

#endif  // IMGRN_STORAGE_BUFFER_POOL_H_
