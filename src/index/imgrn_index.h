#ifndef IMGRN_INDEX_IMGRN_INDEX_H_
#define IMGRN_INDEX_IMGRN_INDEX_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "embed/pivot_embedding.h"
#include "embed/pivot_selection.h"
#include "index/byte_signature.h"
#include "matrix/gene_matrix.h"
#include "rtree/rtree.h"

namespace imgrn {

/// Configuration of the IM-GRN index (Section 5.1).
struct ImGrnIndexOptions {
  /// Number of pivots d per matrix; the index dimensionality is 2d+1.
  size_t num_pivots = 2;

  /// Bits B of each hashed bit-vector signature (V_f, V_d, IF entries).
  size_t signature_bits = 128;
  int signature_hashes = 2;

  /// Permutation samples for the y coordinates E[dist(X^R, piv_w)]; in
  /// [1, kMaxPermutationSamples] (ImGrnIndex::Build rejects others with
  /// kInvalidArgument, and a snapshot holding one is kDataLoss).
  size_t embed_samples = 64;

  /// Fig.-3 pivot selection iteration counts (the pivot count is
  /// `num_pivots`).
  PivotSelectionOptions pivot_selection;

  /// Storage / R*-tree knobs.
  size_t page_size = kDefaultPageSize;
  size_t rtree_max_entries = 0;  // 0 = derive from page size.
  size_t buffer_pool_pages = 128;

  /// Backing store for the R*-tree's pages. Non-owning; must outlive the
  /// index and match `page_size`. Null = a private in-memory store (the
  /// historical behavior). Never persisted by a snapshot — the engine
  /// wires its store in at construction.
  StorageManager* storage = nullptr;

  /// Worker threads for the pivot-selection + embedding phase of Build();
  /// 1 runs it on the calling thread, 0 uses the hardware concurrency.
  /// R*-tree insertion stays serial. The built index does not depend on
  /// the thread count: per-matrix RNG streams are pre-split and the
  /// permutation cache is pre-warmed in source order before workers start.
  size_t build_threads = 1;

  uint64_t seed = 7;
};

/// Identifies one gene feature vector in the database: matrix `source`,
/// column `column`.
struct RecordRef {
  SourceId source = 0;
  uint32_t column = 0;
};

/// Encodes a RecordRef into the R*-tree's 64-bit record handle.
uint64_t EncodeRecordRef(RecordRef ref);
RecordRef DecodeRecordRef(uint64_t handle);

/// The options of the R*-tree an index with `options` builds or restores:
/// (2d+1)-dimensional entries whose payload is V_f || V_d, OR-merged.
RTreeOptions IndexTreeOptions(const ImGrnIndexOptions& options);

/// The IM-GRN index over a gene feature database (Section 5.1):
///  - per matrix: cost-model-selected pivots and the 2d-dim embedding of
///    every gene feature vector (Section 4);
///  - one global (2d+1)-dimensional R*-tree over the embedded points (the
///    extra dimension is the integer gene ID, grouping equal genes);
///  - per-entry payloads carrying the gene-ID signature V_f and the
///    data-source signature V_d, OR-merged up the tree;
///  - the inverted bit-vector file IF: gene ID -> signature of the data
///    sources containing that gene.
class ImGrnIndex {
 public:
  /// Build checks the options (kInvalidArgument); Restore takes options
  /// the snapshot reader has checked (kDataLoss).
  explicit ImGrnIndex(ImGrnIndexOptions options);

  /// Builds the index over `database`. The database must outlive the index
  /// (the index stores no gene data, only embeddings). Matrices are
  /// standardized in place. Returns InvalidArgument, with nothing built,
  /// for an empty database or for options it cannot build with: no pivot,
  /// signatures under 8 bits or 1 hash, an empty buffer pool, embed_samples
  /// outside [1, kMaxPermutationSamples], num_pivots or signature_bits / 8
  /// above page_size, or an R*-tree node capacity (RTreeNodeCapacity) below
  /// kMinNodeCapacity or above one page. The message of the last two names
  /// num_pivots and signature_bits, and rtree_max_entries when it is set.
  Status Build(GeneDatabase* database);

  /// --- Incremental maintenance ---

  /// Indexes the database matrix with id `source`, which must be the next
  /// unindexed source (the database grew by one since Build/the last add).
  /// Standardizes the matrix in place.
  Status AddMatrix(SourceId source);

  /// Removes matrix `source` from the index: its points leave the R*-tree
  /// and it stops appearing in query results. The hashed signatures and
  /// inverted-file bits are not un-set (hashed bits cannot be removed
  /// without counting); that only costs false-positive candidates, which
  /// the leaf-level checks and refinement filter exactly.
  ///
  /// The source's data is freed: its embedded points and pivot vectors
  /// (its d pivot columns stay), and its database matrix, which becomes a
  /// gene-less matrix with the same id and sample count. So the source
  /// can never be indexed again.
  Status RemoveMatrix(SourceId source);

  /// False after RemoveMatrix(source).
  bool IsActive(SourceId source) const;

  /// Number of matrices currently active in the index.
  size_t num_active() const;

  bool is_built() const { return built_; }
  double build_seconds() const { return build_seconds_; }

  size_t num_pivots() const { return options_.num_pivots; }
  size_t dims() const { return 2 * options_.num_pivots + 1; }
  const ImGrnIndexOptions& options() const { return options_; }

  const RTree& rtree() const { return *rtree_; }
  RTree& mutable_rtree() { return *rtree_; }

  const GeneDatabase& database() const { return *database_; }

  /// Pivots selected for matrix `source`.
  const PivotSet& pivots(SourceId source) const;

  /// Embedded points of matrix `source`, one per column.
  const std::vector<EmbeddedPoint>& embedded_points(SourceId source) const;
  const EmbeddedPoint& embedded_point(RecordRef ref) const;

  /// --- Signature plumbing (Fig. 4 bit-vector checks) ---

  ByteSignatureLayout signature_layout() const {
    return ByteSignatureLayout{options_.signature_bits,
                               options_.signature_hashes};
  }

  /// Payload bytes of one leaf record: V_f(gene) || V_d(source).
  std::vector<uint8_t> MakeLeafPayload(GeneId gene, SourceId source) const;

  /// Gene-signature / source-signature halves of an entry payload.
  std::span<const uint8_t> GeneSignature(const RTreeEntry& entry) const;
  std::span<const uint8_t> SourceSignature(const RTreeEntry& entry) const;

  /// True when the subtree under `entry` may contain a vector of `gene`
  /// (V_f probe; no false negatives).
  bool EntryMayContainGene(const RTreeEntry& entry, GeneId gene) const;

  /// True when the subtree's source signature intersects `source_sig`.
  bool EntryMayIntersectSources(const RTreeEntry& entry,
                                std::span<const uint8_t> source_sig) const;

  /// Hashed signature of a single source id (query-side V_d).
  std::vector<uint8_t> MakeSourceSignature(SourceId source) const;

  /// Inverted file entry IF[gene]: signature of the sources that contain
  /// `gene` (all-zero signature when the gene is unknown).
  std::span<const uint8_t> InvertedFileEntry(GeneId gene) const;

  /// --- Lemma 6 (index pruning) ---

  /// Returns true when, per Lemma 6, no vector under node MBR `eb` can form
  /// an edge (at threshold gamma) with any vector under node MBR `ea`, where
  /// eb's endpoint plays the randomized role. MBRs are in the (2d+1)-dim
  /// index space; the gene-ID dimension is ignored.
  static bool IndexPruneNodePair(const Mbr& ea, const Mbr& eb,
                                 size_t num_pivots, double gamma);

  /// Reconstructs an EmbeddedPoint from a leaf entry (point MBR).
  EmbeddedPoint PointFromLeafEntry(const RTreeEntry& entry) const;

  /// --- Persistence (index/snapshot.h) ---

  const std::vector<PivotSet>& pivot_sets() const { return pivot_sets_; }
  const std::vector<bool>& active_flags() const { return active_; }
  const std::unordered_map<GeneId, std::vector<uint8_t>>& inverted_file()
      const {
    return inverted_file_;
  }

  /// Restores a built index from persisted parts: parallel per-source
  /// arrays sized to `database`, plus the inverted file. Each pivot set
  /// needs only its `options.num_pivots` columns: the pivot vectors are
  /// re-derived as the database's standardized columns, which is what
  /// they were at build time; a removed source's matrix was freed, so it
  /// gets none. Parts that disagree with each other or with the database
  /// are kDataLoss, the code index/snapshot.h gives an internally
  /// inconsistent section: a matrix count other than the database's, an
  /// inverted-file signature of the wrong size, a pivot count other than
  /// num_pivots, a pivot column of an active source out of range (as every
  /// column of a gene-less matrix is), a point count that does not match
  /// its matrix, or an x/y of the wrong length.
  ///
  /// The R*-tree is reopened node-for-node from `tree_meta`, whose pages
  /// SerializeAllNodes wrote into `options.storage`, which must be the
  /// store that holds them. Nothing is re-inserted, so the restored tree
  /// (and its query I/O) is bit-identical to the saved one.
  ///
  /// Incremental adds after a restore draw from a fresh RNG stream seeded
  /// by `options.seed`, so they are deterministic but not identical to
  /// adds on the never-persisted index.
  static Result<std::unique_ptr<ImGrnIndex>> Restore(
      ImGrnIndexOptions options, GeneDatabase* database,
      std::vector<PivotSet> pivot_sets,
      std::vector<std::vector<EmbeddedPoint>> embeddings,
      std::vector<bool> active,
      std::unordered_map<GeneId, std::vector<uint8_t>> inverted_file,
      const RTreeMeta& tree_meta);

 private:
  /// Pivots + embeds + inserts one matrix; shared by Build and AddMatrix.
  void IndexOneMatrix(SourceId source);

  /// The CPU-heavy half of IndexOneMatrix: pivot selection + embedding.
  /// Thread-safe given a private `rng` and a read-only-by-then cache.
  void ComputeMatrixEmbedding(SourceId source, Rng* rng, PivotSet* pivots,
                              std::vector<EmbeddedPoint>* points) const;

  /// The serial half: R*-tree insertion + inverted-file update +
  /// bookkeeping.
  void InsertMatrixEmbedding(SourceId source, PivotSet pivots,
                             std::vector<EmbeddedPoint> points);

  ImGrnIndexOptions options_;
  GeneDatabase* database_ = nullptr;
  bool built_ = false;
  double build_seconds_ = 0.0;

  std::unique_ptr<RTree> rtree_;
  std::vector<PivotSet> pivot_sets_;                    // Per source.
  std::vector<std::vector<EmbeddedPoint>> embeddings_;  // Per source.
  std::vector<bool> active_;                            // Per source.
  std::unordered_map<GeneId, std::vector<uint8_t>> inverted_file_;
  std::vector<uint8_t> zero_signature_;

  // Streams reused by incremental adds (seeded once at construction).
  std::unique_ptr<Rng> rng_;
  std::unique_ptr<PermutationCache> embed_cache_;
};

}  // namespace imgrn

#endif  // IMGRN_INDEX_IMGRN_INDEX_H_
