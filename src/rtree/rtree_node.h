#ifndef IMGRN_RTREE_RTREE_NODE_H_
#define IMGRN_RTREE_RTREE_NODE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "rtree/mbr.h"
#include "storage/page.h"

namespace imgrn {

/// Identifier of an R*-tree node (index into the tree's node table; each
/// node owns one page of the underlying paged file).
using NodeId = uint32_t;

inline constexpr NodeId kInvalidNodeId = static_cast<NodeId>(-1);

/// One slot of an R*-tree node. In internal nodes `handle` is the child
/// NodeId; in leaves it is the caller's 64-bit record id. `payload` carries
/// `payload_size` opaque augmentation bytes (the IM-GRN index stores the
/// V_f / V_d bit-vector signatures of Section 5.1 here); internal-entry
/// payloads are the bitwise OR of the child subtree's payloads.
struct RTreeEntry {
  Mbr mbr;
  uint64_t handle = 0;
  std::vector<uint8_t> payload;
};

/// An R*-tree node: a level (0 = leaf) and up to max_entries entries.
struct RTreeNode {
  int level = 0;
  std::vector<RTreeEntry> entries;
  PageId page = kInvalidPageId;

  bool IsLeaf() const { return level == 0; }

  /// Tight bounding rectangle over all entries.
  Mbr ComputeMbr(size_t dims) const;
};

/// Serializes `node` into `page`. Layout: magic u32, level i32, count u32,
/// then per entry: handle u64, lo[dims] f64, hi[dims] f64, payload bytes.
/// Checks that everything fits in the page.
void SerializeNode(const RTreeNode& node, size_t dims, size_t payload_size,
                   Page* page);

/// True when `page` starts with the serialized-node magic — the
/// non-fatal probe for restore paths that must reject a foreign page with
/// kDataLoss rather than crash.
bool IsSerializedNode(const Page& page);

/// Inverse of SerializeNode. Checks the magic value (fatally; probe with
/// IsSerializedNode first when the page provenance is untrusted). A page
/// that carries the magic but not a node is kDataLoss: an entry count
/// past what the page holds, or bounds that are NaN or have lo > hi.
Result<RTreeNode> DeserializeNode(const Page& page, size_t dims,
                                  size_t payload_size);

/// Bytes one serialized entry occupies.
size_t SerializedEntrySize(size_t dims, size_t payload_size);

/// Bytes of the fixed node header.
size_t SerializedNodeHeaderSize();

}  // namespace imgrn

#endif  // IMGRN_RTREE_RTREE_NODE_H_
