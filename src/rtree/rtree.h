#ifndef IMGRN_RTREE_RTREE_H_
#define IMGRN_RTREE_RTREE_H_

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "rtree/rtree_node.h"
#include "storage/buffer_pool.h"
#include "storage/memory_storage.h"

namespace imgrn {

/// Configuration for an RTree instance.
struct RTreeOptions {
  /// Dimensionality of indexed rectangles/points. Required, >= 1.
  size_t dims = 0;

  /// Payload bytes per entry (0 disables payloads). An internal entry's
  /// payload is the bitwise OR of its child node's entry payloads.
  size_t payload_size = 0;

  /// Page size of the backing file.
  size_t page_size = kDefaultPageSize;

  /// Node capacity M. 0 derives the largest M whose serialized node fits a
  /// page. Tests pass small values to force deep trees. The minimum fill
  /// is m = max(2, 40% of M), as R* recommends.
  size_t max_entries = 0;

  /// Buffer-pool capacity in pages, for I/O accounting.
  size_t buffer_pool_pages = 64;

  /// Backing store for node pages. Non-owning; must outlive the tree and
  /// match `page_size`. When null the tree creates a private in-memory
  /// store (the historical behavior). An engine passes its shared store
  /// here so the tree's pages land in the same (possibly disk-backed,
  /// snapshot-able) file as everything else. A destroyed tree does NOT
  /// deallocate its pages from a shared store — deliberately: a snapshot
  /// (or a tree restored from one) may still reference them, and the
  /// normal lifecycle builds one tree per store. Rebuilding an index over
  /// a long-lived store strands the old tree's pages.
  StorageManager* storage = nullptr;
};

/// The smallest node capacity M an RTree accepts: a split needs the
/// minimum fill m = max(2, 40% of M) to be at most M/2, which holds
/// exactly from M = 4 on.
inline constexpr size_t kMinNodeCapacity = 4;

/// The node capacity M of a tree with `options`: `max_entries` when
/// non-zero, else the largest M whose serialized node fits a page. 0 when
/// `max_entries` exceeds that page capacity, or not even the node header
/// fits. RTree CHECKs M >= kMinNodeCapacity; ImGrnIndex::Build and
/// snapshot parsing check their options with this first.
size_t RTreeNodeCapacity(const RTreeOptions& options);

/// An R*-tree (Beckmann, Kriegel, Schneider, Seeger — SIGMOD 1990 [1]) over
/// runtime-dimensioned points/rectangles, with:
///   - R* choose-subtree (overlap-enlargement at the leaf level),
///   - forced reinsertion on first overflow per level,
///   - the R* margin-driven split,
///   - deletion with tree condensation and orphan reinsertion,
///   - per-entry payloads OR-merged up the tree (bit-vector synopses for
///     IM-GRN, Sec. 5.1),
///   - one page per node and buffer-pool-accounted node access, so queries
///     report the paper's "number of page accesses" I/O metric.
/// Everything needed besides the node pages themselves to reopen a
/// serialized tree: the id-to-page map and the scalar roots. Persisted by
/// the snapshot layer next to the pages SerializeAllNodes committed.
struct RTreeMeta {
  NodeId root = kInvalidNodeId;
  uint64_t num_records = 0;
  /// Backing page of every node slot, dense by NodeId (free slots keep
  /// their page, matching the in-memory node/page reuse policy).
  std::vector<PageId> node_pages;
  std::vector<NodeId> free_nodes;
};

class RTree {
 public:
  explicit RTree(RTreeOptions options);

  RTree(const RTree&) = delete;
  RTree& operator=(const RTree&) = delete;

  /// Inserts a point record. `payload` must have payload_size bytes (or be
  /// empty when payload_size is 0).
  void Insert(const std::vector<double>& point, uint64_t record_id,
              std::span<const uint8_t> payload = {});

  /// Deletes the record with the given point and id. Returns false if no
  /// such record exists.
  bool Delete(const std::vector<double>& point, uint64_t record_id);

  /// Range query: invokes `callback` for every leaf entry whose MBR
  /// intersects `box`; stops early if the callback returns false. Node
  /// accesses are I/O-accounted and fallible (fault injection, checksum
  /// verification); a storage error aborts the traversal and propagates.
  /// Returns the number of results delivered.
  Result<size_t> Search(
      const Mbr& box,
      const std::function<bool(const RTreeEntry&)>& callback) const;

  /// Number of records stored.
  size_t size() const { return num_records_; }

  /// Number of live nodes.
  size_t num_nodes() const { return num_live_nodes_; }

  /// Height of the tree (1 = root is a leaf).
  int height() const;

  NodeId root_id() const { return root_; }

  /// Buffer-pool-accounted node access; the IM-GRN query processor uses
  /// this for its custom pairwise traversal (Fig. 4). Fallible: the backing
  /// page fetch evaluates the storage fault-injection sites and verifies
  /// the page checksum, so a flaky or corrupted "disk" surfaces here as
  /// kUnavailable / kDataLoss instead of silently returning stale bytes.
  Result<const RTreeNode*> node(NodeId id) const;

  size_t max_entries() const { return max_entries_; }
  size_t min_entries() const { return min_entries_; }
  size_t dims() const { return options_.dims; }
  size_t payload_size() const { return options_.payload_size; }

  /// Snapshot of the buffer-pool I/O counters (thread-safe; see
  /// BufferPool's thread-safety contract for the concurrent-reader model).
  IoStats io_stats() const { return pool_->stats(); }
  void ResetIoStats() { pool_->ResetStats(); }

  /// Drops the buffer pool contents (cold-cache queries).
  void FlushBufferPool() { pool_->FlushAll(); }

  /// Structural invariant check for tests: entry counts within [m, M] (root
  /// exempt), parent MBRs tightly contain children, levels decrease by one,
  /// payloads equal the merge of the child subtree, record count matches.
  Status Validate() const;

  /// Serializes every live node to its page (see rtree_node.h) so the index
  /// could be persisted; DeserializeNode round-trips are tested. Each page
  /// is Commit()ed — sealed with its CRC32C — so subsequent accounted reads
  /// verify integrity; a write fault aborts and propagates kUnavailable.
  Status SerializeAllNodes();

  /// The tree's reopen handle: pass to a fresh RTree's RestoreFromPages
  /// (over the same store) after SerializeAllNodes + store Sync.
  RTreeMeta ExportMeta() const;

  /// Rebuilds this EMPTY tree from pages previously written by
  /// SerializeAllNodes into the tree's backing store — the instant-cold-
  /// start path: no re-insertion, the restored tree is node-for-node the
  /// one that was saved (bit-identical structure, hence bit-identical
  /// query I/O). Every node page is read through the accounted pool path
  /// (checksum-verified, fault-injectable); a page that is not a
  /// serialized node fails with kDataLoss.
  Status RestoreFromPages(const RTreeMeta& meta);

 private:
  struct PathStep {
    NodeId node;
    size_t child_index;  // Index of the followed child entry.
  };

  RTreeNode& MutableNode(NodeId id);
  const RTreeNode& NodeUnaccounted(NodeId id) const;
  NodeId AllocateNode(int level);
  void FreeNode(NodeId id);

  /// Builds the internal-node entry describing `child`.
  RTreeEntry MakeParentEntry(NodeId child) const;

  /// ORs all entry payloads of `node` into `out` (resized/zeroed first).
  void MergedPayload(const RTreeNode& node, std::vector<uint8_t>* out) const;

  /// Chooses the child of `node_id` to descend into for `mbr`.
  size_t ChooseSubtree(NodeId node_id, const Mbr& mbr) const;

  /// Core insertion of an entry at `target_level` (0 for records).
  /// `reinserted_levels` tracks which levels already did forced reinsertion
  /// during the current public Insert, per the R* overflow policy.
  void InsertEntryAtLevel(RTreeEntry entry, int target_level,
                          std::vector<bool>* reinserted_levels);

  /// Handles an overflowing node at the top of `path` (possibly the root).
  void HandleOverflow(std::vector<PathStep>& path, NodeId node_id,
                      std::vector<bool>* reinserted_levels);

  /// R* forced reinsert: removes reinsert_count_ entries farthest from the
  /// node-MBR center and re-inserts them at the node's level.
  void ForcedReinsert(std::vector<PathStep>& path, NodeId node_id,
                      std::vector<bool>* reinserted_levels);

  /// R* split; returns the new sibling node id.
  NodeId SplitNode(NodeId node_id);

  /// Recomputes MBR + payload of the followed child entries along `path`
  /// bottom-up.
  void AdjustPath(const std::vector<PathStep>& path);

  /// Grows a new root over the old root and `sibling`.
  void GrowRoot(NodeId sibling);

  /// Recursive leaf lookup for Delete.
  bool FindLeaf(NodeId node_id, const Mbr& mbr, uint64_t record_id,
                std::vector<PathStep>* path) const;

  /// Post-delete condensation: removes underfull nodes along `path`,
  /// collecting orphan entries for reinsertion.
  void CondenseTree(std::vector<PathStep>& path);

  Status ValidateNode(NodeId id, int expected_level, bool is_root,
                      size_t* record_count) const;

  RTreeOptions options_;
  size_t max_entries_ = 0;
  size_t min_entries_ = 0;
  size_t reinsert_count_ = 0;

  std::unique_ptr<StorageManager> owned_store_;  // Only when options.storage
                                                 // was null.
  StorageManager* store_ = nullptr;
  mutable std::unique_ptr<BufferPool> pool_;

  std::vector<std::unique_ptr<RTreeNode>> nodes_;
  std::vector<NodeId> free_nodes_;
  NodeId root_ = kInvalidNodeId;
  size_t num_records_ = 0;
  size_t num_live_nodes_ = 0;
};

}  // namespace imgrn

#endif  // IMGRN_RTREE_RTREE_H_
