#ifndef IMGRN_MATRIX_GENE_MATRIX_H_
#define IMGRN_MATRIX_GENE_MATRIX_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace imgrn {

/// Globally-meaningful gene identifier (the paper's gene name/ID g_s,
/// "represented by an integer", Section 5.1).
using GeneId = uint32_t;

/// Identifier of a data source (the index i of matrix M_i in database D).
using SourceId = uint32_t;

/// An l x n gene feature matrix M_i (Definition 1): element [j][k] is the
/// feature value of the k-th gene measured on the j-th sample (patient).
///
/// Storage is column-major because every algorithm in the paper operates on
/// gene feature *vectors*, i.e. columns: correlation (Eq. 2), randomization
/// (Def. 2), pivot distances (Section 4.2). Column j occupies the contiguous
/// range data[j*l, (j+1)*l).
class GeneMatrix {
 public:
  GeneMatrix() = default;

  /// Creates an l x n matrix of zeros for the given genes. `gene_ids` must
  /// have n entries and contain no duplicates (a gene appears at most once
  /// per data source).
  GeneMatrix(SourceId source_id, size_t num_samples,
             std::vector<GeneId> gene_ids);

  SourceId source_id() const { return source_id_; }

  /// Reassigns the source id. The sharded engine uses this to remap global
  /// source ids onto each shard's dense local id space (GeneDatabase::Add
  /// requires ids to equal insertion positions).
  void set_source_id(SourceId source_id) { source_id_ = source_id; }

  /// l_i: number of samples (rows).
  size_t num_samples() const { return num_samples_; }

  /// n_i: number of genes (columns).
  size_t num_genes() const { return gene_ids_.size(); }

  const std::vector<GeneId>& gene_ids() const { return gene_ids_; }
  GeneId gene_id(size_t column) const { return gene_ids_[column]; }

  /// Returns the column index of `gene`, or -1 if the gene is absent.
  int ColumnOfGene(GeneId gene) const;

  /// Gene feature vector of the k-th gene (column k), length l_i.
  std::span<const double> Column(size_t column) const;
  std::span<double> MutableColumn(size_t column);

  double At(size_t sample, size_t column) const {
    return data_[column * num_samples_ + sample];
  }
  double& At(size_t sample, size_t column) {
    return data_[column * num_samples_ + sample];
  }

  /// Standardizes every column to mean 0 / ||X||^2 = l (see
  /// vector_ops.h: this is the precondition of the Lemma-1 reduction).
  /// Idempotent.
  void StandardizeColumns();

  /// True once StandardizeColumns() has run.
  bool is_standardized() const { return standardized_; }

  /// Clears the standardized flag after external mutation of the data (e.g.
  /// noise injection), so the next StandardizeColumns() re-runs.
  void InvalidateStandardization() { standardized_ = false; }

  /// Marks the matrix as already standardized without touching the data.
  /// For deserializers (index/snapshot.h) restoring columns that were
  /// standardized before persistence: re-running StandardizeColumns on its
  /// own output is not a bit-exact no-op, so the flag must travel with the
  /// bytes. The caller asserts the data really is standardized output.
  void MarkStandardized() { standardized_ = true; }

  /// Extracts the sub-matrix over the given columns (gene IDs preserved).
  /// Returns OutOfRange if any index is invalid.
  Result<GeneMatrix> ExtractColumns(const std::vector<size_t>& columns) const;

  const std::vector<double>& data() const { return data_; }

 private:
  SourceId source_id_ = 0;
  size_t num_samples_ = 0;
  std::vector<GeneId> gene_ids_;
  std::vector<double> data_;  // Column-major.
  bool standardized_ = false;
};

/// kInvalidArgument when `matrix` has no gene or holds a NaN or ±Inf value
/// (the message starts with `name`, e.g. "source 7", and names the gene
/// and sample). Standardization, pivot selection and the Monte Carlo tests
/// all assume finite values, so the engine checks every matrix it ingests
/// or queries with this first.
Status ValidateGeneMatrix(const GeneMatrix& matrix, std::string_view name);

/// The gene feature database D (Definition 1): N gene feature matrices of
/// possibly different shapes, one per data source.
class GeneDatabase {
 public:
  GeneDatabase() = default;

  /// Appends a matrix; its source_id must equal its position (checked), so
  /// that SourceId doubles as an index into the database.
  void Add(GeneMatrix matrix);

  size_t size() const { return matrices_.size(); }
  bool empty() const { return matrices_.empty(); }

  const GeneMatrix& matrix(SourceId i) const { return matrices_[i]; }
  GeneMatrix& mutable_matrix(SourceId i) { return matrices_[i]; }

  const std::vector<GeneMatrix>& matrices() const { return matrices_; }

  /// Standardizes every matrix in the database.
  void StandardizeAll();

  /// Total number of gene feature vectors (sum of n_i over all matrices).
  size_t TotalGeneVectors() const;

  /// Largest gene ID present plus one (the gene-ID universe size).
  GeneId GeneIdUniverse() const;

 private:
  std::vector<GeneMatrix> matrices_;
};

}  // namespace imgrn

#endif  // IMGRN_MATRIX_GENE_MATRIX_H_
