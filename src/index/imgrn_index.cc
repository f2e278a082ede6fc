#include "index/imgrn_index.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "common/logging.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "inference/permutation_cache.h"

namespace imgrn {

uint64_t EncodeRecordRef(RecordRef ref) {
  return (static_cast<uint64_t>(ref.source) << 32) | ref.column;
}

RecordRef DecodeRecordRef(uint64_t handle) {
  RecordRef ref;
  ref.source = static_cast<SourceId>(handle >> 32);
  ref.column = static_cast<uint32_t>(handle & 0xFFFFFFFFu);
  return ref;
}

ImGrnIndex::ImGrnIndex(ImGrnIndexOptions options)
    : options_(std::move(options)) {
  IMGRN_CHECK_GE(options_.num_pivots, 1u);
  IMGRN_CHECK_GE(options_.signature_bits, 8u);
  IMGRN_CHECK_GE(options_.signature_hashes, 1);
  zero_signature_.assign(signature_layout().num_bytes(), 0);
}

Status ImGrnIndex::Build(GeneDatabase* database) {
  if (database == nullptr || database->empty()) {
    return Status::InvalidArgument("cannot build an index over an empty "
                                   "database");
  }
  Stopwatch timer;
  database_ = database;
  database_->StandardizeAll();

  const size_t sig_bytes = signature_layout().num_bytes();
  RTreeOptions rtree_options;
  rtree_options.dims = dims();
  rtree_options.payload_size = 2 * sig_bytes;
  rtree_options.payload_merge = [sig_bytes](uint8_t* dst,
                                            const uint8_t* src) {
    ByteSignatureMerge(dst, src, 2 * sig_bytes);
  };
  rtree_options.page_size = options_.page_size;
  rtree_options.max_entries = options_.rtree_max_entries;
  rtree_options.buffer_pool_pages = options_.buffer_pool_pages;
  rtree_options.storage = options_.storage;
  rtree_ = std::make_unique<RTree>(std::move(rtree_options));

  pivot_sets_.clear();
  embeddings_.clear();
  active_.clear();
  inverted_file_.clear();
  pivot_sets_.reserve(database_->size());
  embeddings_.reserve(database_->size());

  rng_ = std::make_unique<Rng>(options_.seed);
  embed_cache_ = std::make_unique<PermutationCache>(options_.embed_samples,
                                                    rng_->NextUint64());

  std::vector<RTreeEntry> bulk_entries;
  std::vector<RTreeEntry>* bulk_out =
      options_.bulk_load ? &bulk_entries : nullptr;

  size_t threads = options_.build_threads == 0
                       ? std::max(1u, std::thread::hardware_concurrency())
                       : options_.build_threads;
  threads = std::min(threads, database_->size());
  if (threads <= 1) {
    for (SourceId i = 0; i < database_->size(); ++i) {
      Rng matrix_rng = rng_->Split();
      PivotSet pivots;
      std::vector<EmbeddedPoint> points;
      ComputeMatrixEmbedding(i, &matrix_rng, &pivots, &points);
      InsertMatrixEmbedding(i, std::move(pivots), std::move(points),
                            bulk_out);
    }
  } else {
    const size_t n = database_->size();
    // Determinism and thread safety under parallelism: (1) the permutation
    // cache is filled in source order before any worker starts, so its
    // per-length permutations do not depend on scheduling and workers only
    // look entries up (embedding reads BlocksForLength, which fills both
    // of the cache's maps on a miss); (2) per-matrix RNGs are pre-split
    // sequentially.
    for (SourceId i = 0; i < n; ++i) {
      embed_cache_->BlocksForLength(database_->matrix(i).num_samples());
    }
    std::vector<Rng> matrix_rngs;
    matrix_rngs.reserve(n);
    for (SourceId i = 0; i < n; ++i) {
      matrix_rngs.push_back(rng_->Split());
    }

    std::vector<PivotSet> all_pivots(n);
    std::vector<std::vector<EmbeddedPoint>> all_points(n);
    std::atomic<size_t> next{0};
    auto worker = [&]() {
      for (;;) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        ComputeMatrixEmbedding(static_cast<SourceId>(i), &matrix_rngs[i],
                               &all_pivots[i], &all_points[i]);
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (size_t t = 0; t < threads; ++t) {
      pool.emplace_back(worker);
    }
    for (std::thread& thread : pool) {
      thread.join();
    }
    // Serial insertion preserves the single-threaded tree structure.
    for (SourceId i = 0; i < n; ++i) {
      InsertMatrixEmbedding(i, std::move(all_pivots[i]),
                            std::move(all_points[i]), bulk_out);
    }
  }

  if (options_.bulk_load) {
    rtree_->BulkLoad(std::move(bulk_entries));
  }

  built_ = true;
  build_seconds_ = timer.ElapsedSeconds();
  return Status::Ok();
}

void ImGrnIndex::ComputeMatrixEmbedding(
    SourceId source, Rng* rng, PivotSet* pivots,
    std::vector<EmbeddedPoint>* points) const {
  const GeneMatrix& matrix = database_->matrix(source);
  IMGRN_CHECK(matrix.is_standardized());
  PivotSelectionOptions selection_options = options_.pivot_selection;
  selection_options.num_pivots = options_.num_pivots;
  *pivots = SelectPivots(matrix, selection_options, rng);
  // A matrix with fewer genes than d yields fewer pivots; pad by repeating
  // the last pivot so every embedded point has 2d+1 dims.
  while (pivots->size() < options_.num_pivots) {
    pivots->columns.push_back(pivots->columns.back());
    pivots->vectors.push_back(pivots->vectors.back());
  }
  *points = EmbedMatrix(matrix, *pivots, embed_cache_.get());
}

void ImGrnIndex::InsertMatrixEmbedding(SourceId source, PivotSet pivots,
                                       std::vector<EmbeddedPoint> points,
                                       std::vector<RTreeEntry>* bulk_out) {
  IMGRN_CHECK_EQ(source, pivot_sets_.size());
  const ByteSignatureLayout layout = signature_layout();
  for (uint32_t column = 0; column < points.size(); ++column) {
    const EmbeddedPoint& point = points[column];
    const RecordRef ref{source, column};
    std::vector<uint8_t> payload = MakeLeafPayload(point.gene, source);
    if (bulk_out != nullptr) {
      RTreeEntry entry;
      entry.mbr = Mbr::FromPoint(point.ToIndexPoint());
      entry.handle = EncodeRecordRef(ref);
      entry.payload = std::move(payload);
      bulk_out->push_back(std::move(entry));
    } else {
      rtree_->Insert(point.ToIndexPoint(), EncodeRecordRef(ref), payload);
    }

    auto [it, inserted] = inverted_file_.try_emplace(
        point.gene, std::vector<uint8_t>(layout.num_bytes(), 0));
    ByteSignatureAdd(layout, source, it->second);
  }
  pivot_sets_.push_back(std::move(pivots));
  embeddings_.push_back(std::move(points));
  active_.push_back(true);
}

void ImGrnIndex::IndexOneMatrix(SourceId source) {
  database_->mutable_matrix(source).StandardizeColumns();
  Rng matrix_rng = rng_->Split();
  PivotSet pivots;
  std::vector<EmbeddedPoint> points;
  ComputeMatrixEmbedding(source, &matrix_rng, &pivots, &points);
  InsertMatrixEmbedding(source, std::move(pivots), std::move(points));
}

Status ImGrnIndex::AddMatrix(SourceId source) {
  if (!built_) {
    return Status::FailedPrecondition("Build() has not run");
  }
  if (source != pivot_sets_.size() || source >= database_->size()) {
    return Status::InvalidArgument(
        "AddMatrix must index the next unindexed database matrix");
  }
  IndexOneMatrix(source);
  return Status::Ok();
}

Status ImGrnIndex::RemoveMatrix(SourceId source) {
  if (!built_) {
    return Status::FailedPrecondition("Build() has not run");
  }
  if (source >= active_.size()) {
    return Status::InvalidArgument("unknown source id");
  }
  if (!active_[source]) {
    return Status::FailedPrecondition("matrix already removed");
  }
  for (uint32_t column = 0; column < embeddings_[source].size(); ++column) {
    const std::vector<double> point =
        embeddings_[source][column].ToIndexPoint();
    const bool removed =
        rtree_->Delete(point, EncodeRecordRef(RecordRef{source, column}));
    IMGRN_CHECK(removed) << "index point missing for source " << source
                         << " column " << column;
  }
  embeddings_[source].clear();
  active_[source] = false;
  return Status::Ok();
}

bool ImGrnIndex::IsActive(SourceId source) const {
  return source < active_.size() && active_[source];
}

size_t ImGrnIndex::num_active() const {
  size_t count = 0;
  for (bool active : active_) {
    if (active) ++count;
  }
  return count;
}

Result<std::unique_ptr<ImGrnIndex>> ImGrnIndex::Restore(
    ImGrnIndexOptions options, GeneDatabase* database,
    std::vector<PivotSet> pivot_sets,
    std::vector<std::vector<EmbeddedPoint>> embeddings,
    std::vector<bool> active,
    std::unordered_map<GeneId, std::vector<uint8_t>> inverted_file,
    const RTreeMeta* tree_meta) {
  if (database == nullptr || database->empty()) {
    return Status::InvalidArgument("empty database");
  }
  const size_t n = database->size();
  if (pivot_sets.size() != n || embeddings.size() != n ||
      active.size() != n) {
    return Status::InvalidArgument(
        "persisted index does not match the database's matrix count");
  }
  auto index = std::make_unique<ImGrnIndex>(std::move(options));
  index->database_ = database;
  database->StandardizeAll();

  const size_t sig_bytes = index->signature_layout().num_bytes();
  for (const auto& [gene, sig] : inverted_file) {
    if (sig.size() != sig_bytes) {
      return Status::InvalidArgument("inverted-file signature size mismatch");
    }
  }

  RTreeOptions rtree_options;
  rtree_options.dims = index->dims();
  rtree_options.payload_size = 2 * sig_bytes;
  rtree_options.payload_merge = [sig_bytes](uint8_t* dst,
                                            const uint8_t* src) {
    ByteSignatureMerge(dst, src, 2 * sig_bytes);
  };
  rtree_options.page_size = index->options_.page_size;
  rtree_options.max_entries = index->options_.rtree_max_entries;
  rtree_options.buffer_pool_pages = index->options_.buffer_pool_pages;
  rtree_options.storage = index->options_.storage;
  index->rtree_ = std::make_unique<RTree>(std::move(rtree_options));

  for (SourceId i = 0; i < n; ++i) {
    if (embeddings[i].size() !=
        (active[i] ? database->matrix(i).num_genes() : 0)) {
      return Status::InvalidArgument(
          "embedded point count does not match matrix shape");
    }
    for (uint32_t column = 0; column < embeddings[i].size(); ++column) {
      const EmbeddedPoint& point = embeddings[i][column];
      if (point.num_pivots() != index->options_.num_pivots) {
        return Status::InvalidArgument("embedded point dimension mismatch");
      }
      if (tree_meta != nullptr) continue;  // Validate shape only.
      const std::vector<uint8_t> payload =
          index->MakeLeafPayload(point.gene, i);
      index->rtree_->Insert(point.ToIndexPoint(),
                            EncodeRecordRef(RecordRef{i, column}), payload);
    }
  }
  if (tree_meta != nullptr) {
    // Instant cold start: the node pages are already in options.storage;
    // reopen the saved tree instead of re-inserting every point.
    IMGRN_RETURN_IF_ERROR(index->rtree_->RestoreFromPages(*tree_meta));
  }

  index->pivot_sets_ = std::move(pivot_sets);
  index->embeddings_ = std::move(embeddings);
  index->active_ = std::move(active);
  index->inverted_file_ = std::move(inverted_file);
  index->rng_ = std::make_unique<Rng>(index->options_.seed ^ 0x8E5708EDull);
  index->embed_cache_ = std::make_unique<PermutationCache>(
      index->options_.embed_samples, index->rng_->NextUint64());
  index->built_ = true;
  return index;
}

const PivotSet& ImGrnIndex::pivots(SourceId source) const {
  IMGRN_CHECK_LT(source, pivot_sets_.size());
  return pivot_sets_[source];
}

const std::vector<EmbeddedPoint>& ImGrnIndex::embedded_points(
    SourceId source) const {
  IMGRN_CHECK_LT(source, embeddings_.size());
  return embeddings_[source];
}

const EmbeddedPoint& ImGrnIndex::embedded_point(RecordRef ref) const {
  const auto& points = embedded_points(ref.source);
  IMGRN_CHECK_LT(ref.column, points.size());
  return points[ref.column];
}

std::vector<uint8_t> ImGrnIndex::MakeLeafPayload(GeneId gene,
                                                 SourceId source) const {
  const ByteSignatureLayout layout = signature_layout();
  const size_t sig_bytes = layout.num_bytes();
  std::vector<uint8_t> payload(2 * sig_bytes, 0);
  ByteSignatureAdd(layout, gene,
                   std::span<uint8_t>(payload.data(), sig_bytes));
  ByteSignatureAdd(layout, source,
                   std::span<uint8_t>(payload.data() + sig_bytes, sig_bytes));
  return payload;
}

std::span<const uint8_t> ImGrnIndex::GeneSignature(
    const RTreeEntry& entry) const {
  const size_t sig_bytes = signature_layout().num_bytes();
  IMGRN_CHECK_EQ(entry.payload.size(), 2 * sig_bytes);
  return std::span<const uint8_t>(entry.payload.data(), sig_bytes);
}

std::span<const uint8_t> ImGrnIndex::SourceSignature(
    const RTreeEntry& entry) const {
  const size_t sig_bytes = signature_layout().num_bytes();
  IMGRN_CHECK_EQ(entry.payload.size(), 2 * sig_bytes);
  return std::span<const uint8_t>(entry.payload.data() + sig_bytes,
                                  sig_bytes);
}

bool ImGrnIndex::EntryMayContainGene(const RTreeEntry& entry,
                                     GeneId gene) const {
  return ByteSignatureMayContain(signature_layout(), gene,
                                 GeneSignature(entry));
}

bool ImGrnIndex::EntryMayIntersectSources(
    const RTreeEntry& entry, std::span<const uint8_t> source_sig) const {
  return ByteSignaturesIntersect(SourceSignature(entry), source_sig);
}

std::vector<uint8_t> ImGrnIndex::MakeSourceSignature(SourceId source) const {
  const ByteSignatureLayout layout = signature_layout();
  std::vector<uint8_t> sig(layout.num_bytes(), 0);
  ByteSignatureAdd(layout, source, sig);
  return sig;
}

std::span<const uint8_t> ImGrnIndex::InvertedFileEntry(GeneId gene) const {
  auto it = inverted_file_.find(gene);
  if (it == inverted_file_.end()) {
    return zero_signature_;
  }
  return it->second;
}

bool ImGrnIndex::IndexPruneNodePair(const Mbr& ea, const Mbr& eb,
                                    size_t num_pivots, double gamma) {
  IMGRN_CHECK_EQ(ea.dims(), 2 * num_pivots + 1);
  IMGRN_CHECK_EQ(eb.dims(), 2 * num_pivots + 1);
  // Dimension layout: x[r] at 2r, y[w] at 2w+1, gene id at 2d.
  // Lemma 6 / Eq. (10): prune when for some w
  //   Eb.y_hi[w] <= gamma * (max_r (Eb.x_lo[r] - Ea.x_hi[r]) - Ea.x_hi[w])
  // with a strictly positive parenthesized term (Case 2).
  double max_gap = -1.0;
  for (size_t r = 0; r < num_pivots; ++r) {
    max_gap = std::max(max_gap, eb.lo(2 * r) - ea.hi(2 * r));
  }
  for (size_t w = 0; w < num_pivots; ++w) {
    const double c = max_gap - ea.hi(2 * w);
    if (c <= 0.0) continue;
    if (eb.hi(2 * w + 1) <= gamma * c) {
      return true;
    }
  }
  return false;
}

EmbeddedPoint ImGrnIndex::PointFromLeafEntry(const RTreeEntry& entry) const {
  const size_t d = options_.num_pivots;
  IMGRN_CHECK_EQ(entry.mbr.dims(), 2 * d + 1);
  EmbeddedPoint point;
  point.x.resize(d);
  point.y.resize(d);
  for (size_t w = 0; w < d; ++w) {
    point.x[w] = entry.mbr.lo(2 * w);
    point.y[w] = entry.mbr.lo(2 * w + 1);
  }
  point.gene = static_cast<GeneId>(entry.mbr.lo(2 * d));
  return point;
}

}  // namespace imgrn
