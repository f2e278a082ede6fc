#include "index/snapshot.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <functional>

#include "common/logging.h"
#include "storage/page_stream.h"

namespace imgrn {

namespace {

constexpr char kSnapshotMagic[8] = {'I', 'M', 'G', 'R', 'N', 'S', 'N', '1'};
// Bumped whenever a section's layout changes, so a snapshot of another
// layout is rejected (kInvalidArgument), never misparsed.
constexpr uint32_t kSnapshotVersion = 2;
constexpr uint32_t kEndianTag = 0x01020304u;

// size_t fields (index options, pivot columns) are written raw as u64.
static_assert(sizeof(size_t) == sizeof(uint64_t));

// Directory page layout, from offset 0:
//   magic[8], version u32, endian u32, then kNumSections refs of
//   {head PageId u32, num_bytes u64}.
constexpr size_t kRefSize = sizeof(PageId) + sizeof(uint64_t);
constexpr size_t kNumSections = 3;  // database, index parts, tree meta.
constexpr size_t kDirectorySize = 8 + 4 + 4 + kNumSections * kRefSize;

using SectionRefs = std::array<PageStreamRef, kNumSections>;

template <typename T>
Status AppendPod(PageStreamWriter* writer, T value) {
  return writer->Append(&value, sizeof(value));
}

template <typename T>
Status ReadPod(PageStreamReader* reader, T* value) {
  return reader->Read(value, sizeof(*value));
}

Status Inconsistent(const char* what) {
  return Status::DataLoss(std::string("snapshot section inconsistent (") +
                          what + ")");
}

/// Reads a u64 count of items that each take at least `min_item_bytes` of
/// the section. A count the rest of the section cannot hold is kDataLoss,
/// so a forged count never reaches an allocation.
Status ReadCount(PageStreamReader* reader, size_t min_item_bytes,
                 uint64_t* count, const char* what) {
  IMGRN_RETURN_IF_ERROR(ReadPod(reader, count));
  if (*count > reader->remaining() / min_item_bytes) return Inconsistent(what);
  return Status::Ok();
}

/// Reads the directory at the store's app root into `refs`.
Status ReadDirectory(StorageManager* store, SectionRefs* refs) {
  const PageId directory = store->app_root();
  if (directory == kInvalidPageId) {
    return Status::NotFound("store holds no snapshot");
  }
  Page scratch(store->page_size());
  Result<Page*> dir = store->Read(directory, &scratch);
  IMGRN_RETURN_IF_ERROR(dir.status());
  char magic[8];
  (*dir)->ReadBytes(0, magic, sizeof(magic));
  if (std::memcmp(magic, kSnapshotMagic, sizeof(magic)) != 0) {
    return Status::InvalidArgument("store's root page is not a snapshot");
  }
  const uint32_t version = (*dir)->ReadAt<uint32_t>(8);
  if (version != kSnapshotVersion) {
    return Status::InvalidArgument("unsupported snapshot version " +
                                   std::to_string(version));
  }
  if ((*dir)->ReadAt<uint32_t>(12) != kEndianTag) {
    return Status::InvalidArgument(
        "snapshot was written on a different-endian host");
  }
  // No section outgrows the store, so every count checked against what a
  // section has left is bounded by the store's real size.
  const uint64_t store_bytes =
      uint64_t{store->num_pages()} * store->page_size();
  size_t offset = 16;
  for (PageStreamRef& ref : *refs) {
    ref.head = (*dir)->ReadAt<PageId>(offset);
    ref.num_bytes = (*dir)->ReadAt<uint64_t>(offset + sizeof(PageId));
    if (ref.num_bytes > store_bytes) return Inconsistent("section length");
    offset += kRefSize;
  }
  return Status::Ok();
}

/// Parses one section with `parse`, which must consume it exactly: bytes
/// left over mean the recorded length and the contents disagree.
template <typename Parse>
auto ReadSection(StorageManager* store, PageStreamRef ref, Parse parse) {
  PageStreamReader reader(store, ref);
  auto value = parse(&reader);
  if (value.ok() && reader.remaining() != 0) {
    return decltype(value)(Inconsistent("bytes left after parsing"));
  }
  return value;
}

// --- Database section ---

Status WriteDatabase(const GeneDatabase& database, PageStreamWriter* writer) {
  IMGRN_RETURN_IF_ERROR(AppendPod<uint64_t>(writer, database.size()));
  for (const GeneMatrix& matrix : database.matrices()) {
    IMGRN_RETURN_IF_ERROR(AppendPod<uint32_t>(writer, matrix.source_id()));
    IMGRN_RETURN_IF_ERROR(AppendPod<uint64_t>(writer, matrix.num_samples()));
    IMGRN_RETURN_IF_ERROR(AppendPod<uint64_t>(writer, matrix.num_genes()));
    IMGRN_RETURN_IF_ERROR(writer->Append(
        matrix.gene_ids().data(), matrix.num_genes() * sizeof(GeneId)));
    // Raw doubles: the standardized feature vectors must round-trip
    // bit-exactly or restored query results drift.
    IMGRN_RETURN_IF_ERROR(writer->Append(
        matrix.data().data(), matrix.data().size() * sizeof(double)));
    IMGRN_RETURN_IF_ERROR(
        AppendPod<uint8_t>(writer, matrix.is_standardized() ? 1 : 0));
  }
  return Status::Ok();
}

Result<GeneDatabase> ReadDatabase(PageStreamReader* reader) {
  // Source id, the two shape words and the standardized flag.
  constexpr size_t kMinMatrixBytes = 4 + 8 + 8 + 1;
  uint64_t count = 0;
  IMGRN_RETURN_IF_ERROR(
      ReadCount(reader, kMinMatrixBytes, &count, "matrix count"));
  GeneDatabase database;
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t source_id = 0;
    uint64_t num_samples = 0;
    uint64_t num_genes = 0;
    IMGRN_RETURN_IF_ERROR(ReadPod(reader, &source_id));
    IMGRN_RETURN_IF_ERROR(
        ReadCount(reader, sizeof(double), &num_samples, "sample count"));
    IMGRN_RETURN_IF_ERROR(
        ReadCount(reader, sizeof(GeneId) + num_samples * sizeof(double),
                  &num_genes, "gene count"));
    if (source_id != i || num_samples == 0) {
      return Inconsistent("matrix shape");
    }
    std::vector<GeneId> gene_ids(num_genes);
    IMGRN_RETURN_IF_ERROR(
        reader->Read(gene_ids.data(), num_genes * sizeof(GeneId)));
    std::vector<GeneId> sorted = gene_ids;
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
      return Inconsistent("duplicate gene id");
    }
    GeneMatrix matrix(source_id, num_samples, std::move(gene_ids));
    for (size_t column = 0; column < num_genes; ++column) {
      std::span<double> dst = matrix.MutableColumn(column);
      IMGRN_RETURN_IF_ERROR(
          reader->Read(dst.data(), dst.size() * sizeof(double)));
    }
    uint8_t standardized = 0;
    IMGRN_RETURN_IF_ERROR(ReadPod(reader, &standardized));
    if (standardized != 0) matrix.MarkStandardized();
    database.Add(std::move(matrix));
  }
  return database;
}

// --- Index-parts section ---

/// The size_t options the section persists, in order; signature_hashes and
/// seed follow them.
std::array<size_t*, 6> SizeOptions(ImGrnIndexOptions* options) {
  return {&options->num_pivots,        &options->signature_bits,
          &options->embed_samples,     &options->page_size,
          &options->rtree_max_entries, &options->buffer_pool_pages};
}

Status WriteIndexParts(const ImGrnIndex& index, PageStreamWriter* writer) {
  ImGrnIndexOptions options = index.options();
  for (const size_t* field : SizeOptions(&options)) {
    IMGRN_RETURN_IF_ERROR(AppendPod<uint64_t>(writer, *field));
  }
  IMGRN_RETURN_IF_ERROR(AppendPod<int32_t>(writer, options.signature_hashes));
  IMGRN_RETURN_IF_ERROR(AppendPod<uint64_t>(writer, options.seed));

  // num_pivots fixes the length of every pivot-column list and x/y vector.
  const size_t d = options.num_pivots;
  const size_t n = index.pivot_sets().size();
  IMGRN_RETURN_IF_ERROR(AppendPod<uint64_t>(writer, n));
  for (SourceId i = 0; i < n; ++i) {
    IMGRN_RETURN_IF_ERROR(AppendPod<uint8_t>(writer, index.active_flags()[i]));
    // Columns only: the pivot vectors are the database's own columns.
    IMGRN_RETURN_IF_ERROR(
        writer->Append(index.pivots(i).columns.data(), d * sizeof(size_t)));
    const std::vector<EmbeddedPoint>& points = index.embedded_points(i);
    IMGRN_RETURN_IF_ERROR(AppendPod<uint64_t>(writer, points.size()));
    for (const EmbeddedPoint& point : points) {
      IMGRN_RETURN_IF_ERROR(writer->Append(point.x.data(), d * sizeof(double)));
      IMGRN_RETURN_IF_ERROR(writer->Append(point.y.data(), d * sizeof(double)));
      IMGRN_RETURN_IF_ERROR(AppendPod<uint32_t>(writer, point.gene));
    }
  }

  IMGRN_RETURN_IF_ERROR(
      AppendPod<uint64_t>(writer, index.inverted_file().size()));
  for (const auto& [gene, sig] : index.inverted_file()) {
    IMGRN_RETURN_IF_ERROR(AppendPod<uint32_t>(writer, gene));
    IMGRN_RETURN_IF_ERROR(AppendPod<uint64_t>(writer, sig.size()));
    IMGRN_RETURN_IF_ERROR(writer->Append(sig.data(), sig.size()));
  }
  return Status::Ok();
}

/// Parses the section of an index over a database of `num_sources`
/// matrices.
Result<PersistedIndexParts> ReadIndexParts(PageStreamReader* reader,
                                           size_t num_sources) {
  PersistedIndexParts parts;
  ImGrnIndexOptions& options = parts.options;
  for (size_t* field : SizeOptions(&options)) {
    IMGRN_RETURN_IF_ERROR(ReadPod(reader, field));
  }
  IMGRN_RETURN_IF_ERROR(ReadPod(reader, &options.signature_hashes));
  IMGRN_RETURN_IF_ERROR(ReadPod(reader, &options.seed));
  // What ImGrnIndex, its R*-tree, its buffer pool and its permutation
  // cache would otherwise CHECK, and an embed_samples the first AddMatrix
  // after the load would allocate without bound. d and the signature
  // width size records below (every built index has an inverted-file
  // entry), so they must fit too; with them bounded, the tree's node
  // capacity is safe to compute.
  const size_t d = options.num_pivots;
  if (d == 0 || d > reader->remaining() / sizeof(double) ||
      options.signature_bits < 8 ||
      options.signature_bits / 8 > reader->remaining() ||
      options.signature_hashes < 1 || options.embed_samples == 0 ||
      options.embed_samples > kMaxPermutationSamples ||
      options.buffer_pool_pages == 0 ||
      RTreeNodeCapacity(IndexTreeOptions(options)) < kMinNodeCapacity) {
    return Inconsistent("index options");
  }

  uint64_t count = 0;
  IMGRN_RETURN_IF_ERROR(ReadCount(reader, 1 + d * sizeof(size_t) + 8, &count,
                                  "source count"));
  if (count != num_sources) {
    return Inconsistent("source count differs from the database's");
  }
  parts.pivot_sets.resize(count);
  parts.embeddings.resize(count);
  parts.active.resize(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint8_t active = 0;
    IMGRN_RETURN_IF_ERROR(ReadPod(reader, &active));
    parts.active[i] = active != 0;
    std::vector<size_t>& columns = parts.pivot_sets[i].columns;
    columns.resize(d);
    IMGRN_RETURN_IF_ERROR(reader->Read(columns.data(), d * sizeof(size_t)));
    uint64_t num_points = 0;
    IMGRN_RETURN_IF_ERROR(ReadCount(reader,
                                    2 * d * sizeof(double) + sizeof(GeneId),
                                    &num_points, "point count"));
    parts.embeddings[i].resize(num_points);
    for (EmbeddedPoint& point : parts.embeddings[i]) {
      point.x.resize(d);
      point.y.resize(d);
      IMGRN_RETURN_IF_ERROR(reader->Read(point.x.data(), d * sizeof(double)));
      IMGRN_RETURN_IF_ERROR(reader->Read(point.y.data(), d * sizeof(double)));
      IMGRN_RETURN_IF_ERROR(ReadPod(reader, &point.gene));
    }
  }

  uint64_t num_entries = 0;
  IMGRN_RETURN_IF_ERROR(ReadCount(reader, sizeof(GeneId) + 8, &num_entries,
                                  "inverted-file entry count"));
  parts.inverted_file.reserve(num_entries);
  for (uint64_t e = 0; e < num_entries; ++e) {
    GeneId gene = 0;
    uint64_t bytes = 0;
    IMGRN_RETURN_IF_ERROR(ReadPod(reader, &gene));
    IMGRN_RETURN_IF_ERROR(ReadCount(reader, 1, &bytes, "signature size"));
    std::vector<uint8_t> sig(bytes);
    IMGRN_RETURN_IF_ERROR(reader->Read(sig.data(), bytes));
    parts.inverted_file.emplace(gene, std::move(sig));
  }
  return parts;
}

// --- Tree-meta section ---

Status WriteTreeMeta(const RTreeMeta& meta, PageStreamWriter* writer) {
  IMGRN_RETURN_IF_ERROR(AppendPod<uint32_t>(writer, meta.root));
  IMGRN_RETURN_IF_ERROR(AppendPod<uint64_t>(writer, meta.num_records));
  IMGRN_RETURN_IF_ERROR(
      AppendPod<uint64_t>(writer, meta.node_pages.size()));
  IMGRN_RETURN_IF_ERROR(writer->Append(
      meta.node_pages.data(), meta.node_pages.size() * sizeof(PageId)));
  IMGRN_RETURN_IF_ERROR(
      AppendPod<uint64_t>(writer, meta.free_nodes.size()));
  IMGRN_RETURN_IF_ERROR(writer->Append(
      meta.free_nodes.data(), meta.free_nodes.size() * sizeof(NodeId)));
  return Status::Ok();
}

Result<RTreeMeta> ReadTreeMeta(PageStreamReader* reader) {
  RTreeMeta meta;
  uint32_t root = 0;
  IMGRN_RETURN_IF_ERROR(ReadPod(reader, &root));
  meta.root = root;
  IMGRN_RETURN_IF_ERROR(ReadPod(reader, &meta.num_records));
  uint64_t num_nodes = 0;
  IMGRN_RETURN_IF_ERROR(
      ReadCount(reader, sizeof(PageId), &num_nodes, "tree node count"));
  meta.node_pages.resize(num_nodes);
  IMGRN_RETURN_IF_ERROR(
      reader->Read(meta.node_pages.data(), num_nodes * sizeof(PageId)));
  uint64_t num_free = 0;
  IMGRN_RETURN_IF_ERROR(
      ReadCount(reader, sizeof(NodeId), &num_free, "tree free-node count"));
  if (num_free > num_nodes) return Inconsistent("tree free-node count");
  meta.free_nodes.resize(num_free);
  IMGRN_RETURN_IF_ERROR(
      reader->Read(meta.free_nodes.data(), num_free * sizeof(NodeId)));
  return meta;
}

/// Frees the pages the store's snapshot, about to be replaced, holds
/// alone: its three stream chains and the node pages of its tree that
/// `tree`, the tree being saved, does not use. A tree rebuilt over the
/// store strands its predecessor's pages until this runs. Best effort: an
/// unreadable directory, section or link leaks what lies behind it rather
/// than failing the new snapshot, and an id that is past the store end,
/// not live, already freed, the directory's or the new tree's is skipped,
/// so a forged directory leaks pages instead of aborting.
void FreeReplacedSnapshot(StorageManager* store, const RTreeMeta& tree) {
  SectionRefs old;
  if (!ReadDirectory(store, &old).ok()) return;
  std::vector<bool> kept(store->num_pages(), false);
  kept[store->app_root()] = true;  // Rewritten in place.
  for (PageId page : tree.node_pages) {
    if (page < kept.size()) kept[page] = true;
  }
  const auto freeable = [&](PageId id) {
    return store->IsLivePage(id) && !kept[id];
  };
  // Parsed before its own chain is freed below.
  Result<RTreeMeta> old_tree = ReadSection(store, old[2], ReadTreeMeta);
  Page scratch(store->page_size());
  for (const PageStreamRef& ref : old) {
    // A freed page is no longer live, so a cyclic chain ends too.
    for (PageId id = ref.head; freeable(id);) {
      Result<Page*> page = store->Read(id, &scratch);
      if (!page.ok()) break;
      const PageId next = (*page)->ReadAt<PageId>(0);
      store->Deallocate(id);
      id = next;
    }
  }
  if (!old_tree.ok()) return;
  for (PageId page : old_tree->node_pages) {
    if (freeable(page)) store->Deallocate(page);
  }
}

}  // namespace

Status WriteSnapshot(const GeneDatabase& database, ImGrnIndex* index,
                     StorageManager* store) {
  if (store == nullptr) {
    return Status::InvalidArgument("no store to snapshot into");
  }
  if (index == nullptr || !index->is_built()) {
    return Status::FailedPrecondition("index is not built");
  }
  if (index->options().storage != store) {
    return Status::InvalidArgument(
        "index was not built over the store being snapshotted; its tree "
        "pages live elsewhere");
  }

  // The directory page is rewritten in place; everything else the old
  // snapshot held alone is recycled.
  PageId directory = store->app_root();
  if (directory == kInvalidPageId) {
    directory = store->Allocate();
  } else {
    FreeReplacedSnapshot(store, index->rtree().ExportMeta());
  }

  // Tree nodes first: every live node reaches its page, sealed.
  IMGRN_RETURN_IF_ERROR(index->mutable_rtree().SerializeAllNodes());

  const std::function<Status(PageStreamWriter*)> sections[kNumSections] = {
      [&](PageStreamWriter* writer) { return WriteDatabase(database, writer); },
      [&](PageStreamWriter* writer) { return WriteIndexParts(*index, writer); },
      [&](PageStreamWriter* writer) {
        return WriteTreeMeta(index->rtree().ExportMeta(), writer);
      }};
  SectionRefs refs;
  for (size_t s = 0; s < kNumSections; ++s) {
    PageStreamWriter writer(store);
    IMGRN_RETURN_IF_ERROR(sections[s](&writer));
    Result<PageStreamRef> ref = writer.Finish();
    IMGRN_RETURN_IF_ERROR(ref.status());
    refs[s] = *ref;
  }

  Page page(store->page_size());
  IMGRN_CHECK_LE(kDirectorySize, page.size());
  page.WriteBytes(0, kSnapshotMagic, sizeof(kSnapshotMagic));
  page.WriteAt<uint32_t>(8, kSnapshotVersion);
  page.WriteAt<uint32_t>(12, kEndianTag);
  size_t offset = 16;
  for (const PageStreamRef& ref : refs) {
    page.WriteAt<PageId>(offset, ref.head);
    page.WriteAt<uint64_t>(offset + sizeof(PageId), ref.num_bytes);
    offset += kRefSize;
  }
  IMGRN_RETURN_IF_ERROR(store->Commit(directory, page));
  store->SetAppRoot(directory);

  // The commit point: on disk the header flip makes directory, streams and
  // tree pages durable together or not at all.
  return store->Sync();
}

Result<SnapshotContents> ReadSnapshot(StorageManager* store) {
  if (store == nullptr) {
    return Status::InvalidArgument("no store to read a snapshot from");
  }
  SectionRefs refs;
  IMGRN_RETURN_IF_ERROR(ReadDirectory(store, &refs));
  SnapshotContents contents;
  Result<GeneDatabase> database = ReadSection(store, refs[0], ReadDatabase);
  IMGRN_RETURN_IF_ERROR(database.status());
  contents.database = std::move(*database);
  Result<PersistedIndexParts> parts =
      ReadSection(store, refs[1], [&](PageStreamReader* reader) {
        return ReadIndexParts(reader, contents.database.size());
      });
  IMGRN_RETURN_IF_ERROR(parts.status());
  if (parts->options.page_size != store->page_size()) {
    return Inconsistent("index page size differs from the store's");
  }
  contents.parts = std::move(*parts);
  Result<RTreeMeta> meta = ReadSection(store, refs[2], ReadTreeMeta);
  IMGRN_RETURN_IF_ERROR(meta.status());
  contents.tree_meta = std::move(*meta);
  return contents;
}

}  // namespace imgrn
