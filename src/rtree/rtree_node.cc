#include "rtree/rtree_node.h"

#include <string>

#include "common/logging.h"

namespace imgrn {

namespace {

constexpr uint32_t kNodeMagic = 0x52545231;  // "RTR1"

}  // namespace

Mbr RTreeNode::ComputeMbr(size_t dims) const {
  Mbr mbr(dims);
  for (const RTreeEntry& entry : entries) {
    mbr.Merge(entry.mbr);
  }
  return mbr;
}

size_t SerializedEntrySize(size_t dims, size_t payload_size) {
  return sizeof(uint64_t) + 2 * dims * sizeof(double) + payload_size;
}

size_t SerializedNodeHeaderSize() {
  return sizeof(uint32_t) + sizeof(int32_t) + sizeof(uint32_t);
}

void SerializeNode(const RTreeNode& node, size_t dims, size_t payload_size,
                   Page* page) {
  const size_t needed =
      SerializedNodeHeaderSize() +
      node.entries.size() * SerializedEntrySize(dims, payload_size);
  IMGRN_CHECK_LE(needed, page->size())
      << "node with " << node.entries.size() << " entries does not fit page";
  PageCursor cursor(page);
  cursor.Write<uint32_t>(kNodeMagic);
  cursor.Write<int32_t>(node.level);
  cursor.Write<uint32_t>(static_cast<uint32_t>(node.entries.size()));
  for (const RTreeEntry& entry : node.entries) {
    IMGRN_CHECK_EQ(entry.mbr.dims(), dims);
    IMGRN_CHECK_EQ(entry.payload.size(), payload_size);
    cursor.Write<uint64_t>(entry.handle);
    for (size_t i = 0; i < dims; ++i) cursor.Write<double>(entry.mbr.lo(i));
    for (size_t i = 0; i < dims; ++i) cursor.Write<double>(entry.mbr.hi(i));
    if (payload_size > 0) {
      cursor.WriteBytes(entry.payload.data(), payload_size);
    }
  }
}

bool IsSerializedNode(const Page& page) {
  return page.size() >= sizeof(uint32_t) &&
         page.ReadAt<uint32_t>(0) == kNodeMagic;
}

Result<RTreeNode> DeserializeNode(const Page& page, size_t dims,
                                  size_t payload_size) {
  PageCursor cursor(const_cast<Page*>(&page));
  const uint32_t magic = cursor.Read<uint32_t>();
  IMGRN_CHECK_EQ(magic, kNodeMagic) << "not a serialized R*-tree node";
  RTreeNode node;
  node.level = cursor.Read<int32_t>();
  const uint32_t count = cursor.Read<uint32_t>();
  if (count > (page.size() - SerializedNodeHeaderSize()) /
                  SerializedEntrySize(dims, payload_size)) {
    return Status::DataLoss("R*-tree node page claims " +
                            std::to_string(count) +
                            " entries, more than the page holds");
  }
  node.entries.reserve(count);
  for (uint32_t k = 0; k < count; ++k) {
    RTreeEntry entry;
    entry.handle = cursor.Read<uint64_t>();
    std::vector<double> lo(dims), hi(dims);
    for (size_t i = 0; i < dims; ++i) lo[i] = cursor.Read<double>();
    for (size_t i = 0; i < dims; ++i) hi[i] = cursor.Read<double>();
    for (size_t i = 0; i < dims; ++i) {
      if (!(lo[i] <= hi[i])) {  // Also false when either bound is NaN.
        return Status::DataLoss("R*-tree node entry " + std::to_string(k) +
                                " has bounds that are NaN or inverted");
      }
    }
    entry.mbr = Mbr::FromBounds(std::move(lo), std::move(hi));
    entry.payload.resize(payload_size);
    if (payload_size > 0) {
      cursor.ReadBytes(entry.payload.data(), payload_size);
    }
    node.entries.push_back(std::move(entry));
  }
  return node;
}

}  // namespace imgrn
