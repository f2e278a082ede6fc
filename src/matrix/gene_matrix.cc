#include "matrix/gene_matrix.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "matrix/vector_ops.h"

namespace imgrn {

namespace {

/// l * n, CHECKed not to wrap.
size_t CellCount(size_t num_samples, size_t num_genes) {
  IMGRN_CHECK(num_genes == 0 ||
              num_samples <= std::numeric_limits<size_t>::max() / num_genes)
      << num_samples << " x " << num_genes << " cells overflow size_t";
  return num_samples * num_genes;
}

}  // namespace

GeneMatrix::GeneMatrix(SourceId source_id, size_t num_samples,
                       std::vector<GeneId> gene_ids)
    : source_id_(source_id),
      num_samples_(num_samples),
      gene_ids_(std::move(gene_ids)),
      data_(CellCount(num_samples, gene_ids_.size()), 0.0) {
  IMGRN_CHECK_GT(num_samples_, 0u);
  std::unordered_set<GeneId> seen;
  for (GeneId gene : gene_ids_) {
    IMGRN_CHECK(seen.insert(gene).second)
        << "duplicate gene id " << gene << " in matrix for source "
        << source_id_;
  }
}

int GeneMatrix::ColumnOfGene(GeneId gene) const {
  for (size_t k = 0; k < gene_ids_.size(); ++k) {
    if (gene_ids_[k] == gene) {
      return static_cast<int>(k);
    }
  }
  return -1;
}

std::span<const double> GeneMatrix::Column(size_t column) const {
  IMGRN_CHECK_LT(column, num_genes());
  return std::span<const double>(data_.data() + column * num_samples_,
                                 num_samples_);
}

std::span<double> GeneMatrix::MutableColumn(size_t column) {
  IMGRN_CHECK_LT(column, num_genes());
  return std::span<double>(data_.data() + column * num_samples_, num_samples_);
}

void GeneMatrix::StandardizeColumns() {
  if (standardized_) return;
  for (size_t k = 0; k < num_genes(); ++k) {
    StandardizeInPlace(MutableColumn(k));
  }
  standardized_ = true;
}

Result<GeneMatrix> GeneMatrix::ExtractColumns(
    const std::vector<size_t>& columns) const {
  std::vector<GeneId> sub_ids;
  sub_ids.reserve(columns.size());
  for (size_t column : columns) {
    if (column >= num_genes()) {
      return Status::OutOfRange("column index out of range in ExtractColumns");
    }
    sub_ids.push_back(gene_ids_[column]);
  }
  GeneMatrix sub(source_id_, num_samples_, std::move(sub_ids));
  for (size_t k = 0; k < columns.size(); ++k) {
    std::span<const double> src = Column(columns[k]);
    std::span<double> dst = sub.MutableColumn(k);
    std::copy(src.begin(), src.end(), dst.begin());
  }
  sub.standardized_ = standardized_;
  return sub;
}

Status ValidateGeneMatrix(const GeneMatrix& matrix, std::string_view name) {
  if (matrix.num_genes() == 0) {
    return Status::InvalidArgument(std::string(name) + " has no genes");
  }
  for (size_t k = 0; k < matrix.num_genes(); ++k) {
    const std::span<const double> column = matrix.Column(k);
    for (size_t j = 0; j < column.size(); ++j) {
      if (!std::isfinite(column[j])) {
        return Status::InvalidArgument(
            std::string(name) + ": gene " + std::to_string(matrix.gene_id(k)) +
            " has a non-finite value at sample " + std::to_string(j));
      }
    }
  }
  return Status::Ok();
}

void GeneDatabase::Add(GeneMatrix matrix) {
  IMGRN_CHECK_EQ(matrix.source_id(), matrices_.size())
      << "source ids must be dense and in insertion order";
  matrices_.push_back(std::move(matrix));
}

void GeneDatabase::StandardizeAll() {
  for (GeneMatrix& matrix : matrices_) {
    matrix.StandardizeColumns();
  }
}

size_t GeneDatabase::TotalGeneVectors() const {
  size_t total = 0;
  for (const GeneMatrix& matrix : matrices_) {
    total += matrix.num_genes();
  }
  return total;
}

GeneId GeneDatabase::GeneIdUniverse() const {
  GeneId max_id = 0;
  for (const GeneMatrix& matrix : matrices_) {
    for (GeneId gene : matrix.gene_ids()) {
      max_id = std::max(max_id, gene + 1);
    }
  }
  return max_id;
}

}  // namespace imgrn
