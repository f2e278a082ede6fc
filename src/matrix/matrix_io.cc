#include "matrix/matrix_io.h"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

namespace imgrn {

namespace {

constexpr char kMatrixMagic[] = "IMGRN-MATRIX";
constexpr char kDatabaseMagic[] = "IMGRN-DB";
constexpr int kFormatVersion = 1;

Status ExpectHeader(std::istream* in, const char* magic) {
  std::string token;
  int version = 0;
  if (!(*in >> token >> version)) {
    return Status::InvalidArgument("truncated header");
  }
  if (token != magic) {
    return Status::InvalidArgument("bad magic: expected " +
                                   std::string(magic) + ", got " + token);
  }
  if (version != kFormatVersion) {
    return Status::InvalidArgument("unsupported format version");
  }
  return Status::Ok();
}

// Reads one unsigned id or count. operator>> accepts a sign and wraps a
// negative number modulo 2^N ("-3" into a uint32_t reads as 4294967293,
// the stream still good), so a field that starts with a sign is refused.
template <typename T>
Status ReadUnsigned(std::istream* in, const char* field, T* value) {
  *in >> std::ws;
  const int next = in->peek();
  if (next == '-' || next == '+') {
    return Status::InvalidArgument(std::string("signed ") + field);
  }
  if (!(*in >> *value)) {
    return Status::InvalidArgument(std::string("truncated ") + field);
  }
  return Status::Ok();
}

}  // namespace

Status WriteGeneMatrix(const GeneMatrix& matrix, std::ostream* out) {
  *out << kMatrixMagic << ' ' << kFormatVersion << '\n';
  *out << matrix.source_id() << ' ' << matrix.num_samples() << ' '
       << matrix.num_genes() << '\n';
  for (size_t k = 0; k < matrix.num_genes(); ++k) {
    if (k > 0) *out << ' ';
    *out << matrix.gene_id(k);
  }
  *out << '\n';
  *out << std::setprecision(std::numeric_limits<double>::max_digits10);
  for (size_t j = 0; j < matrix.num_samples(); ++j) {
    for (size_t k = 0; k < matrix.num_genes(); ++k) {
      if (k > 0) *out << ' ';
      *out << matrix.At(j, k);
    }
    *out << '\n';
  }
  if (!out->good()) {
    return Status::Internal("write failure");
  }
  return Status::Ok();
}

Result<GeneMatrix> ReadGeneMatrix(std::istream* in) {
  IMGRN_RETURN_IF_ERROR(ExpectHeader(in, kMatrixMagic));
  SourceId source = 0;
  size_t num_samples = 0;
  size_t num_genes = 0;
  IMGRN_RETURN_IF_ERROR(ReadUnsigned(in, "source id", &source));
  IMGRN_RETURN_IF_ERROR(ReadUnsigned(in, "sample count", &num_samples));
  IMGRN_RETURN_IF_ERROR(ReadUnsigned(in, "gene count", &num_genes));
  if (num_samples == 0 || num_genes == 0) {
    return Status::InvalidArgument("matrix dimensions must be positive");
  }
  if (num_samples > std::numeric_limits<size_t>::max() / num_genes) {
    return Status::InvalidArgument("matrix dimensions overflow");
  }
  // The buffers grow with what the stream delivers, never with the
  // header's counts: a count the text cannot back fails as truncated
  // input, not as an allocation.
  std::vector<GeneId> gene_ids;
  for (size_t k = 0; k < num_genes; ++k) {
    GeneId gene = 0;
    IMGRN_RETURN_IF_ERROR(ReadUnsigned(in, "gene id", &gene));
    gene_ids.push_back(gene);
  }
  // Reject duplicate gene ids with a Status (the GeneMatrix constructor
  // would CHECK-fail; data errors must not abort).
  {
    std::vector<GeneId> sorted = gene_ids;
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
      return Status::InvalidArgument("duplicate gene ids in matrix");
    }
  }
  std::vector<double> values;  // Sample-major, as the text lists them.
  const size_t num_values = num_samples * num_genes;
  for (size_t i = 0; i < num_values; ++i) {
    double value = 0.0;
    if (!(*in >> value)) {
      return Status::InvalidArgument("truncated feature values");
    }
    values.push_back(value);
  }
  GeneMatrix matrix(source, num_samples, std::move(gene_ids));
  for (size_t j = 0; j < num_samples; ++j) {
    for (size_t k = 0; k < num_genes; ++k) {
      matrix.At(j, k) = values[j * num_genes + k];
    }
  }
  return matrix;
}

Status WriteGeneDatabase(const GeneDatabase& database, std::ostream* out) {
  *out << kDatabaseMagic << ' ' << kFormatVersion << '\n';
  *out << database.size() << '\n';
  for (const GeneMatrix& matrix : database.matrices()) {
    IMGRN_RETURN_IF_ERROR(WriteGeneMatrix(matrix, out));
  }
  return Status::Ok();
}

Result<GeneDatabase> ReadGeneDatabase(std::istream* in) {
  IMGRN_RETURN_IF_ERROR(ExpectHeader(in, kDatabaseMagic));
  size_t count = 0;
  IMGRN_RETURN_IF_ERROR(ReadUnsigned(in, "database count", &count));
  GeneDatabase database;
  for (size_t i = 0; i < count; ++i) {
    Result<GeneMatrix> matrix = ReadGeneMatrix(in);
    if (!matrix.ok()) return matrix.status();
    if (matrix->source_id() != i) {
      return Status::InvalidArgument(
          "database matrices must carry source ids 0..N-1 in order");
    }
    database.Add(std::move(*matrix));
  }
  return database;
}

Status SaveGeneDatabase(const GeneDatabase& database,
                        const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::NotFound("cannot open for writing: " + path);
  }
  return WriteGeneDatabase(database, &out);
}

Result<GeneDatabase> LoadGeneDatabase(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open: " + path);
  }
  return ReadGeneDatabase(&in);
}

Status SaveGeneMatrix(const GeneMatrix& matrix, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::NotFound("cannot open for writing: " + path);
  }
  return WriteGeneMatrix(matrix, &out);
}

Result<GeneMatrix> LoadGeneMatrix(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open: " + path);
  }
  return ReadGeneMatrix(&in);
}

}  // namespace imgrn
