#include "rtree/rtree.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/logging.h"

namespace imgrn {

namespace {

/// R*'s minimum node fill m, as a percentage of the capacity M.
constexpr size_t kMinFillPercent = 40;

/// The share of M, in percent, that R*'s forced reinsertion takes out of a
/// level's first overflowing node.
constexpr size_t kReinsertPercent = 30;

}  // namespace

size_t RTreeNodeCapacity(const RTreeOptions& options) {
  const size_t header = SerializedNodeHeaderSize();
  if (options.page_size < header) return 0;
  const size_t room = options.page_size - header;
  // An entry too wide for the page is refused before its size is formed,
  // so that 2 * dims doubles plus the payload cannot wrap.
  if (options.dims > room / (2 * sizeof(double)) ||
      options.payload_size > room) {
    return 0;
  }
  const size_t page_capacity =
      room / SerializedEntrySize(options.dims, options.payload_size);
  if (options.max_entries == 0) return page_capacity;
  return options.max_entries <= page_capacity ? options.max_entries : 0;
}

RTree::RTree(RTreeOptions options) : options_(std::move(options)) {
  IMGRN_CHECK_GE(options_.dims, 1u);
  if (options_.storage != nullptr) {
    IMGRN_CHECK_EQ(options_.storage->page_size(), options_.page_size);
    store_ = options_.storage;
  } else {
    owned_store_ = std::make_unique<MemoryStorageManager>(options_.page_size);
    store_ = owned_store_.get();
  }
  pool_ = std::make_unique<BufferPool>(store_, options_.buffer_pool_pages);

  max_entries_ = RTreeNodeCapacity(options_);
  IMGRN_CHECK_GE(max_entries_, kMinNodeCapacity)
      << "R*-tree node capacity out of range at dims=" << options_.dims;
  min_entries_ = std::max<size_t>(2, max_entries_ * kMinFillPercent / 100);
  reinsert_count_ =
      std::min(max_entries_ * kReinsertPercent / 100,
               max_entries_ + 1 - min_entries_);
}

RTreeNode& RTree::MutableNode(NodeId id) {
  IMGRN_CHECK_LT(id, nodes_.size());
  return *nodes_[id];
}

const RTreeNode& RTree::NodeUnaccounted(NodeId id) const {
  IMGRN_CHECK_LT(id, nodes_.size());
  return *nodes_[id];
}

Result<const RTreeNode*> RTree::node(NodeId id) const {
  const RTreeNode& n = NodeUnaccounted(id);
  // The node object lives in memory; the fetch is the accounted (and
  // fallible) access to its backing page.
  Result<Page*> page = pool_->Fetch(n.page);
  if (!page.ok()) return page.status();
  return &n;
}

NodeId RTree::AllocateNode(int level) {
  NodeId id;
  if (!free_nodes_.empty()) {
    id = free_nodes_.back();
    free_nodes_.pop_back();
    nodes_[id]->level = level;
    nodes_[id]->entries.clear();
  } else {
    id = static_cast<NodeId>(nodes_.size());
    auto node = std::make_unique<RTreeNode>();
    node->level = level;
    node->page = store_->Allocate();
    nodes_.push_back(std::move(node));
  }
  ++num_live_nodes_;
  return id;
}

void RTree::FreeNode(NodeId id) {
  nodes_[id]->entries.clear();
  free_nodes_.push_back(id);
  --num_live_nodes_;
}

void RTree::MergedPayload(const RTreeNode& node,
                          std::vector<uint8_t>* out) const {
  // Raw pointers and a local size: a store through a uint8_t* may alias any
  // object, so indexing the vectors directly would reload their pointers
  // for every byte and keep the loop from vectorizing.
  const size_t size = options_.payload_size;
  out->assign(size, 0);
  uint8_t* merged = out->data();
  for (const RTreeEntry& entry : node.entries) {
    const uint8_t* payload = entry.payload.data();
    for (size_t i = 0; i < size; ++i) merged[i] |= payload[i];
  }
}

RTreeEntry RTree::MakeParentEntry(NodeId child) const {
  const RTreeNode& child_node = NodeUnaccounted(child);
  RTreeEntry entry;
  entry.mbr = child_node.ComputeMbr(options_.dims);
  entry.handle = child;
  MergedPayload(child_node, &entry.payload);
  return entry;
}

size_t RTree::ChooseSubtree(NodeId node_id, const Mbr& mbr) const {
  const RTreeNode& node = NodeUnaccounted(node_id);
  IMGRN_CHECK(!node.entries.empty());
  const bool children_are_leaves = node.level == 1;

  size_t best = 0;
  if (children_are_leaves) {
    // R*: minimize overlap enlargement; resolve ties by area enlargement,
    // then by area.
    double best_overlap_delta = std::numeric_limits<double>::infinity();
    double best_area_delta = std::numeric_limits<double>::infinity();
    double best_area = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < node.entries.size(); ++i) {
      Mbr enlarged = node.entries[i].mbr;
      enlarged.Merge(mbr);
      double overlap_before = 0.0;
      double overlap_after = 0.0;
      for (size_t j = 0; j < node.entries.size(); ++j) {
        if (j == i) continue;
        overlap_before += node.entries[i].mbr.OverlapArea(node.entries[j].mbr);
        overlap_after += enlarged.OverlapArea(node.entries[j].mbr);
      }
      const double overlap_delta = overlap_after - overlap_before;
      const double area = node.entries[i].mbr.Area();
      const double area_delta = enlarged.Area() - area;
      if (overlap_delta < best_overlap_delta ||
          (overlap_delta == best_overlap_delta &&
           (area_delta < best_area_delta ||
            (area_delta == best_area_delta && area < best_area)))) {
        best = i;
        best_overlap_delta = overlap_delta;
        best_area_delta = area_delta;
        best_area = area;
      }
    }
  } else {
    // Minimize area enlargement; ties by area.
    double best_area_delta = std::numeric_limits<double>::infinity();
    double best_area = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < node.entries.size(); ++i) {
      const double area = node.entries[i].mbr.Area();
      const double area_delta = node.entries[i].mbr.Enlargement(mbr);
      if (area_delta < best_area_delta ||
          (area_delta == best_area_delta && area < best_area)) {
        best = i;
        best_area_delta = area_delta;
        best_area = area;
      }
    }
  }
  return best;
}

void RTree::Insert(const std::vector<double>& point, uint64_t record_id,
                   std::span<const uint8_t> payload) {
  IMGRN_CHECK_EQ(point.size(), options_.dims);
  IMGRN_CHECK_EQ(payload.size(), options_.payload_size);
  RTreeEntry entry;
  entry.mbr = Mbr::FromPoint(point);
  entry.handle = record_id;
  entry.payload.assign(payload.begin(), payload.end());

  // One forced reinsertion per level per public insert (R* policy). 64
  // levels is beyond any practical tree height.
  std::vector<bool> reinserted_levels(64, false);
  InsertEntryAtLevel(std::move(entry), /*target_level=*/0,
                     &reinserted_levels);
  ++num_records_;
}

void RTree::InsertEntryAtLevel(RTreeEntry entry, int target_level,
                               std::vector<bool>* reinserted_levels) {
  if (root_ == kInvalidNodeId) {
    IMGRN_CHECK_EQ(target_level, 0);
    root_ = AllocateNode(0);
  }
  IMGRN_CHECK_GE(NodeUnaccounted(root_).level, target_level);

  std::vector<PathStep> path;
  NodeId current = root_;
  while (NodeUnaccounted(current).level > target_level) {
    const size_t child_index = ChooseSubtree(current, entry.mbr);
    path.push_back(PathStep{current, child_index});
    current = static_cast<NodeId>(
        NodeUnaccounted(current).entries[child_index].handle);
  }

  MutableNode(current).entries.push_back(std::move(entry));
  if (MutableNode(current).entries.size() > max_entries_) {
    HandleOverflow(path, current, reinserted_levels);
  } else {
    AdjustPath(path);
  }
}

void RTree::HandleOverflow(std::vector<PathStep>& path, NodeId node_id,
                           std::vector<bool>* reinserted_levels) {
  const int level = NodeUnaccounted(node_id).level;
  const bool can_reinsert =
      node_id != root_ && !(*reinserted_levels)[static_cast<size_t>(level)];
  if (can_reinsert) {
    (*reinserted_levels)[static_cast<size_t>(level)] = true;
    ForcedReinsert(path, node_id, reinserted_levels);
    return;
  }

  const NodeId sibling = SplitNode(node_id);
  if (node_id == root_) {
    IMGRN_CHECK(path.empty());
    GrowRoot(sibling);
    return;
  }

  RTreeNode& parent = MutableNode(path.back().node);
  const size_t child_index = path.back().child_index;
  parent.entries[child_index] = MakeParentEntry(node_id);
  parent.entries.push_back(MakeParentEntry(sibling));
  const NodeId parent_id = path.back().node;
  path.pop_back();
  if (parent.entries.size() > max_entries_) {
    HandleOverflow(path, parent_id, reinserted_levels);
  } else {
    AdjustPath(path);
  }
}

void RTree::ForcedReinsert(std::vector<PathStep>& path, NodeId node_id,
                           std::vector<bool>* reinserted_levels) {
  RTreeNode& node = MutableNode(node_id);
  const int level = node.level;
  const Mbr node_mbr = node.ComputeMbr(options_.dims);

  // Sort entries by distance of their centers from the node center,
  // descending, and remove the `reinsert_count_` farthest.
  std::vector<size_t> order(node.entries.size());
  std::iota(order.begin(), order.end(), 0u);
  std::vector<double> distance(node.entries.size());
  for (size_t i = 0; i < node.entries.size(); ++i) {
    distance[i] = node.entries[i].mbr.CenterDistanceSquared(node_mbr);
  }
  std::sort(order.begin(), order.end(), [&distance](size_t a, size_t b) {
    return distance[a] > distance[b];
  });

  std::vector<RTreeEntry> removed;
  removed.reserve(reinsert_count_);
  std::vector<bool> keep(node.entries.size(), true);
  for (size_t k = 0; k < reinsert_count_; ++k) {
    keep[order[k]] = false;
    removed.push_back(std::move(node.entries[order[k]]));
  }
  std::vector<RTreeEntry> kept;
  kept.reserve(node.entries.size() - reinsert_count_);
  for (size_t i = 0; i < node.entries.size(); ++i) {
    if (keep[i]) kept.push_back(std::move(node.entries[i]));
  }
  node.entries = std::move(kept);

  // Shrink ancestors before reinserting ("close reinsert": nearest-removed
  // entries go back first, i.e. reverse of the descending sort).
  AdjustPath(path);
  for (size_t k = removed.size(); k-- > 0;) {
    InsertEntryAtLevel(std::move(removed[k]), level, reinserted_levels);
  }
}

NodeId RTree::SplitNode(NodeId node_id) {
  RTreeNode& node = MutableNode(node_id);
  std::vector<RTreeEntry> entries = std::move(node.entries);
  node.entries.clear();
  const size_t total = entries.size();
  const size_t m = min_entries_;
  IMGRN_CHECK_GE(total, 2 * m);

  const size_t dims = options_.dims;
  // For each axis and each sort key (lo / hi), evaluate all distributions
  // (first k entries vs rest for k in [m, total-m]) and pick:
  //   axis   := argmin sum of margins over all its distributions,
  //   split  := argmin overlap (ties: min total area) on that axis.
  double best_axis_margin = std::numeric_limits<double>::infinity();
  size_t best_axis = 0;
  std::vector<std::vector<size_t>> axis_orders(2);  // For the chosen axis.

  std::vector<size_t> order(total);
  for (size_t axis = 0; axis < dims; ++axis) {
    double margin_sum = 0.0;
    std::vector<std::vector<size_t>> orders(2);
    for (int key = 0; key < 2; ++key) {
      std::iota(order.begin(), order.end(), 0u);
      std::sort(order.begin(), order.end(),
                [&entries, axis, key](size_t a, size_t b) {
                  const double va = key == 0 ? entries[a].mbr.lo(axis)
                                             : entries[a].mbr.hi(axis);
                  const double vb = key == 0 ? entries[b].mbr.lo(axis)
                                             : entries[b].mbr.hi(axis);
                  return va < vb;
                });
      // Prefix / suffix MBRs for O(total) margin evaluation.
      std::vector<Mbr> prefix(total, Mbr(dims)), suffix(total, Mbr(dims));
      for (size_t i = 0; i < total; ++i) {
        if (i > 0) prefix[i] = prefix[i - 1];
        prefix[i].Merge(entries[order[i]].mbr);
      }
      for (size_t i = total; i-- > 0;) {
        if (i + 1 < total) suffix[i] = suffix[i + 1];
        suffix[i].Merge(entries[order[i]].mbr);
      }
      for (size_t k = m; k + m <= total; ++k) {
        margin_sum += prefix[k - 1].Margin() + suffix[k].Margin();
      }
      orders[key] = order;
    }
    if (margin_sum < best_axis_margin) {
      best_axis_margin = margin_sum;
      best_axis = axis;
      axis_orders = orders;
    }
  }
  (void)best_axis;

  // On the chosen axis, pick the distribution with minimum overlap.
  double best_overlap = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  int best_key = 0;
  size_t best_k = m;
  for (int key = 0; key < 2; ++key) {
    const std::vector<size_t>& sorted = axis_orders[key];
    std::vector<Mbr> prefix(total, Mbr(dims)), suffix(total, Mbr(dims));
    for (size_t i = 0; i < total; ++i) {
      if (i > 0) prefix[i] = prefix[i - 1];
      prefix[i].Merge(entries[sorted[i]].mbr);
    }
    for (size_t i = total; i-- > 0;) {
      if (i + 1 < total) suffix[i] = suffix[i + 1];
      suffix[i].Merge(entries[sorted[i]].mbr);
    }
    for (size_t k = m; k + m <= total; ++k) {
      const double overlap = prefix[k - 1].OverlapArea(suffix[k]);
      const double area = prefix[k - 1].Area() + suffix[k].Area();
      if (overlap < best_overlap ||
          (overlap == best_overlap && area < best_area)) {
        best_overlap = overlap;
        best_area = area;
        best_key = key;
        best_k = k;
      }
    }
  }

  const NodeId sibling_id = AllocateNode(node.level);
  RTreeNode& sibling = MutableNode(sibling_id);
  // Re-resolve `node` reference: AllocateNode may have grown nodes_.
  RTreeNode& left = MutableNode(node_id);
  const std::vector<size_t>& sorted = axis_orders[best_key];
  for (size_t i = 0; i < total; ++i) {
    RTreeEntry& entry = entries[sorted[i]];
    if (i < best_k) {
      left.entries.push_back(std::move(entry));
    } else {
      sibling.entries.push_back(std::move(entry));
    }
  }
  return sibling_id;
}

void RTree::AdjustPath(const std::vector<PathStep>& path) {
  for (size_t k = path.size(); k-- > 0;) {
    RTreeNode& node = MutableNode(path[k].node);
    IMGRN_CHECK_LT(path[k].child_index, node.entries.size());
    const NodeId child =
        static_cast<NodeId>(node.entries[path[k].child_index].handle);
    node.entries[path[k].child_index] = MakeParentEntry(child);
  }
}

void RTree::GrowRoot(NodeId sibling) {
  const int new_level = NodeUnaccounted(root_).level + 1;
  const NodeId old_root = root_;
  const NodeId new_root = AllocateNode(new_level);
  RTreeNode& root_node = MutableNode(new_root);
  root_node.entries.push_back(MakeParentEntry(old_root));
  root_node.entries.push_back(MakeParentEntry(sibling));
  root_ = new_root;
}

Result<size_t> RTree::Search(
    const Mbr& box,
    const std::function<bool(const RTreeEntry&)>& callback) const {
  if (root_ == kInvalidNodeId) return size_t{0};
  size_t delivered = 0;
  bool keep_going = true;
  // Explicit stack to avoid recursion in the hot path.
  std::vector<NodeId> stack = {root_};
  while (!stack.empty() && keep_going) {
    const NodeId id = stack.back();
    stack.pop_back();
    Result<const RTreeNode*> fetched = node(id);  // Accounted access.
    if (!fetched.ok()) return fetched.status();
    const RTreeNode& n = **fetched;
    for (const RTreeEntry& entry : n.entries) {
      if (!entry.mbr.Intersects(box)) continue;
      if (n.IsLeaf()) {
        ++delivered;
        if (!callback(entry)) {
          keep_going = false;
          break;
        }
      } else {
        stack.push_back(static_cast<NodeId>(entry.handle));
      }
    }
  }
  return delivered;
}

int RTree::height() const {
  if (root_ == kInvalidNodeId) return 0;
  return NodeUnaccounted(root_).level + 1;
}

bool RTree::FindLeaf(NodeId node_id, const Mbr& mbr, uint64_t record_id,
                     std::vector<PathStep>* path) const {
  const RTreeNode& n = NodeUnaccounted(node_id);
  if (n.IsLeaf()) {
    for (const RTreeEntry& entry : n.entries) {
      if (entry.handle == record_id && entry.mbr == mbr) {
        return true;
      }
    }
    return false;
  }
  for (size_t i = 0; i < n.entries.size(); ++i) {
    if (!n.entries[i].mbr.Contains(mbr)) continue;
    path->push_back(PathStep{node_id, i});
    if (FindLeaf(static_cast<NodeId>(n.entries[i].handle), mbr, record_id,
                 path)) {
      return true;
    }
    path->pop_back();
  }
  return false;
}

bool RTree::Delete(const std::vector<double>& point, uint64_t record_id) {
  if (root_ == kInvalidNodeId) return false;
  const Mbr mbr = Mbr::FromPoint(point);
  std::vector<PathStep> path;
  if (!FindLeaf(root_, mbr, record_id, &path)) {
    return false;
  }
  const NodeId leaf_id =
      path.empty() ? root_
                   : static_cast<NodeId>(NodeUnaccounted(path.back().node)
                                             .entries[path.back().child_index]
                                             .handle);
  RTreeNode& leaf = MutableNode(leaf_id);
  bool removed = false;
  for (size_t i = 0; i < leaf.entries.size(); ++i) {
    if (leaf.entries[i].handle == record_id && leaf.entries[i].mbr == mbr) {
      leaf.entries.erase(leaf.entries.begin() + static_cast<long>(i));
      removed = true;
      break;
    }
  }
  IMGRN_CHECK(removed);
  --num_records_;
  CondenseTree(path);
  return true;
}

void RTree::CondenseTree(std::vector<PathStep>& path) {
  // Walk from the leaf's parent up, removing underfull nodes and collecting
  // their surviving entries for reinsertion at their original levels.
  std::vector<std::pair<int, RTreeEntry>> orphans;
  NodeId child_id =
      path.empty() ? root_
                   : static_cast<NodeId>(NodeUnaccounted(path.back().node)
                                             .entries[path.back().child_index]
                                             .handle);
  for (size_t k = path.size(); k-- > 0;) {
    RTreeNode& parent = MutableNode(path[k].node);
    const size_t child_index = path[k].child_index;
    RTreeNode& child = MutableNode(child_id);
    if (child.entries.size() < min_entries_) {
      for (RTreeEntry& entry : child.entries) {
        orphans.emplace_back(child.level, std::move(entry));
      }
      parent.entries.erase(parent.entries.begin() +
                           static_cast<long>(child_index));
      FreeNode(child_id);
    } else {
      parent.entries[child_index] = MakeParentEntry(child_id);
    }
    child_id = path[k].node;
  }

  // Reinsert orphans while the tree still has its old height.
  for (auto& [level, entry] : orphans) {
    std::vector<bool> reinserted_levels(64, false);
    InsertEntryAtLevel(std::move(entry), level, &reinserted_levels);
  }

  // Shrink the root while it is an internal node with a single child.
  while (root_ != kInvalidNodeId && !NodeUnaccounted(root_).IsLeaf() &&
         NodeUnaccounted(root_).entries.size() == 1) {
    const NodeId old_root = root_;
    root_ = static_cast<NodeId>(NodeUnaccounted(root_).entries[0].handle);
    FreeNode(old_root);
  }
}

Status RTree::ValidateNode(NodeId id, int expected_level, bool is_root,
                           size_t* record_count) const {
  const RTreeNode& n = NodeUnaccounted(id);
  if (n.level != expected_level) {
    return Status::Internal("node level mismatch");
  }
  if (!is_root && n.entries.size() < min_entries_) {
    return Status::Internal("non-root node underfull");
  }
  if (n.entries.size() > max_entries_) {
    return Status::Internal("node overfull");
  }
  if (n.IsLeaf()) {
    *record_count += n.entries.size();
    return Status::Ok();
  }
  std::vector<uint8_t> merged;
  for (const RTreeEntry& entry : n.entries) {
    const NodeId child = static_cast<NodeId>(entry.handle);
    const RTreeNode& child_node = NodeUnaccounted(child);
    const Mbr tight = child_node.ComputeMbr(options_.dims);
    if (!(entry.mbr == tight)) {
      return Status::Internal("parent entry MBR is not tight");
    }
    if (options_.payload_size > 0) {
      MergedPayload(child_node, &merged);
      if (merged != entry.payload) {
        return Status::Internal("parent entry payload is not the child merge");
      }
    }
    IMGRN_RETURN_IF_ERROR(
        ValidateNode(child, expected_level - 1, false, record_count));
  }
  return Status::Ok();
}

Status RTree::Validate() const {
  if (root_ == kInvalidNodeId) {
    if (num_records_ != 0) {
      return Status::Internal("records recorded but no root");
    }
    return Status::Ok();
  }
  size_t record_count = 0;
  IMGRN_RETURN_IF_ERROR(ValidateNode(root_, NodeUnaccounted(root_).level,
                                     /*is_root=*/true, &record_count));
  if (record_count != num_records_) {
    return Status::Internal("record count mismatch");
  }
  return Status::Ok();
}

Status RTree::SerializeAllNodes() {
  std::vector<bool> live(nodes_.size(), true);
  for (NodeId id : free_nodes_) live[id] = false;
  Page scratch(options_.page_size);
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (!live[id]) continue;
    scratch.Clear();
    SerializeNode(*nodes_[id], options_.dims, options_.payload_size, &scratch);
    IMGRN_RETURN_IF_ERROR(pool_->Put(nodes_[id]->page, scratch));
  }
  // Write-back immediately: persistence callers expect every page sealed
  // in the store (ready for a Sync) when this returns, not parked dirty in
  // the pool.
  return pool_->WriteBack();
}

RTreeMeta RTree::ExportMeta() const {
  RTreeMeta meta;
  meta.root = root_;
  meta.num_records = num_records_;
  meta.node_pages.reserve(nodes_.size());
  for (const auto& node : nodes_) meta.node_pages.push_back(node->page);
  meta.free_nodes = free_nodes_;
  return meta;
}

Status RTree::RestoreFromPages(const RTreeMeta& meta) {
  IMGRN_CHECK(nodes_.empty()) << "RestoreFromPages needs an empty tree";
  std::vector<bool> live(meta.node_pages.size(), true);
  for (NodeId id : meta.free_nodes) {
    if (id >= meta.node_pages.size()) {
      return Status::DataLoss("R*-tree meta frees an unknown node");
    }
    live[id] = false;
  }
  if (meta.root != kInvalidNodeId &&
      (meta.root >= meta.node_pages.size() || !live[meta.root])) {
    return Status::DataLoss("R*-tree meta has a dead root");
  }
  nodes_.reserve(meta.node_pages.size());
  for (NodeId id = 0; id < meta.node_pages.size(); ++id) {
    auto node = std::make_unique<RTreeNode>();
    node->page = meta.node_pages[id];
    if (live[id]) {
      Result<Page*> page = pool_->Fetch(node->page);
      if (!page.ok()) return page.status();
      if (!IsSerializedNode(**page)) {
        return Status::DataLoss("page " + std::to_string(node->page) +
                                " is not a serialized R*-tree node");
      }
      Result<RTreeNode> decoded =
          DeserializeNode(**page, options_.dims, options_.payload_size);
      if (!decoded.ok()) {
        return Status::DataLoss("page " + std::to_string(node->page) + ": " +
                                decoded.status().message());
      }
      const PageId backing = node->page;
      *node = std::move(*decoded);
      node->page = backing;
      ++num_live_nodes_;
    }
    nodes_.push_back(std::move(node));
  }
  free_nodes_ = meta.free_nodes;
  root_ = meta.root;
  num_records_ = meta.num_records;
  // The restore warmed the pool with every node page; start cold instead,
  // like a freshly opened database, so the first queries on a restored
  // tree report the same logical I/O as on the tree that was saved.
  pool_->FlushAll();
  pool_->ResetStats();
  return Status::Ok();
}

}  // namespace imgrn
