#ifndef IMGRN_INDEX_SNAPSHOT_H_
#define IMGRN_INDEX_SNAPSHOT_H_

#include <unordered_map>
#include <vector>

#include "index/imgrn_index.h"
#include "matrix/gene_matrix.h"
#include "rtree/rtree.h"
#include "storage/storage_manager.h"

namespace imgrn {

/// Whole-system snapshots inside a paged store — the one persistence
/// format of a built index. A snapshot holds the gene feature database,
/// the restorable index parts and the R*-tree's reopen handle, each
/// serialized into a page chain (storage/page_stream.h) of the same store
/// that holds the tree's node pages. Over a DiskStorageManager this is the
/// instant-cold-start path: reopen the file, ReadSnapshot, and the engine
/// serves queries with the exact tree it shut down with — no re-ingest, no
/// re-build, no re-insertion.
///
/// Layout (version 2): the store's app-root page is a directory (magic
/// "IMGRNSN1", format version u32, endianness tag u32, then one
/// {head PageId u32, byte count u64} ref per section). Every value below is
/// fixed-width in host byte order; the directory's endianness tag rejects
/// cross-endian transport.
///   database:    count u64, then per matrix source_id u32, num_samples
///                u64, num_genes u64, gene ids (u32 each), the standardized
///                column-major doubles, standardized flag u8.
///   index parts: options (num_pivots, signature_bits, embed_samples,
///                page_size, rtree_max_entries, buffer_pool_pages as u64,
///                signature_hashes i32, seed u64); source count u64 (equal
///                to the database's); per source active u8, d = num_pivots
///                pivot columns (u64 each), point count u64, then per point
///                x (d doubles), y (d doubles), gene u32; inverted-file
///                entry count u64, then per entry gene u32, byte count u64,
///                signature bytes. Pivot vectors are not stored: they are
///                the database's standardized pivot columns, and Restore
///                re-derives them.
///   tree meta:   root u32, record count u64, node count u64, node pages
///                (u32 each), free-node count u64, free node ids (u32
///                each).
/// WriteSnapshot ends with StorageManager::Sync(), so on disk the snapshot
/// becomes visible atomically — a crash mid-write leaves the previous
/// snapshot intact.
///
/// Error contract: a store without a snapshot is kNotFound; a directory
/// that is not a snapshot (or a version/endianness mismatch) is
/// kInvalidArgument; a section that is truncated, over-long, internally
/// inconsistent, or carries a count its recorded bytes cannot hold is
/// kDataLoss, rejected before anything is allocated for it. Page-level
/// corruption and the disk.* fault sites surface through the underlying
/// reads. Nothing crashes.

/// The index-parts section as parsed: everything ImGrnIndex::Restore takes
/// besides the database and the tree meta. Pivot sets carry their columns
/// only; Restore fills in the vectors.
struct PersistedIndexParts {
  ImGrnIndexOptions options;
  std::vector<PivotSet> pivot_sets;
  std::vector<std::vector<EmbeddedPoint>> embeddings;
  std::vector<bool> active;
  std::unordered_map<GeneId, std::vector<uint8_t>> inverted_file;
};

/// Everything ReadSnapshot recovers. The caller re-homes `database` (the
/// index parts reference it by shape only), points `parts.options.storage`
/// at the store, and hands both plus `tree_meta` to ImGrnIndex::Restore.
struct SnapshotContents {
  GeneDatabase database;
  PersistedIndexParts parts;
  RTreeMeta tree_meta;
};

/// Serializes `database` + the built `index` into `store` and Sync()s.
/// `index` must have been built with `options.storage == store` (its tree
/// pages must live in the store being snapshotted); anything else is
/// kInvalidArgument. A previous snapshot's pages are recycled: its
/// directory page is rewritten, and its stream pages and the node pages of
/// its tree that `index`'s tree does not use are freed, so a save after a
/// rebuild reuses the replaced tree's pages. The index is non-const
/// because its tree nodes are serialized to their pages.
Status WriteSnapshot(const GeneDatabase& database, ImGrnIndex* index,
                     StorageManager* store);

/// Reads back the snapshot written by WriteSnapshot, validating the
/// directory and every section.
Result<SnapshotContents> ReadSnapshot(StorageManager* store);

}  // namespace imgrn

#endif  // IMGRN_INDEX_SNAPSHOT_H_
