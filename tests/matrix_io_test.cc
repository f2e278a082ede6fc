#include "matrix/matrix_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "datagen/synthetic.h"

namespace imgrn {
namespace {

GeneMatrix MakeMatrix(SourceId source, uint64_t seed) {
  GeneMatrix matrix(source, 5, {3, 14, 159});
  Rng rng(seed);
  for (size_t k = 0; k < matrix.num_genes(); ++k) {
    for (size_t j = 0; j < matrix.num_samples(); ++j) {
      matrix.At(j, k) = rng.Gaussian();
    }
  }
  return matrix;
}

TEST(MatrixIoTest, MatrixRoundTripsExactly) {
  GeneMatrix original = MakeMatrix(7, 1);
  std::stringstream buffer;
  ASSERT_TRUE(WriteGeneMatrix(original, &buffer).ok());
  Result<GeneMatrix> loaded = ReadGeneMatrix(&buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->source_id(), 7u);
  EXPECT_EQ(loaded->gene_ids(), original.gene_ids());
  EXPECT_EQ(loaded->data(), original.data());  // Bit-exact.
}

TEST(MatrixIoTest, DatabaseRoundTripsExactly) {
  GeneDatabase original;
  original.Add(MakeMatrix(0, 2));
  original.Add(MakeMatrix(1, 3));
  std::stringstream buffer;
  ASSERT_TRUE(WriteGeneDatabase(original, &buffer).ok());
  Result<GeneDatabase> loaded = ReadGeneDatabase(&buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 2u);
  for (SourceId i = 0; i < 2; ++i) {
    EXPECT_EQ(loaded->matrix(i).data(), original.matrix(i).data());
    EXPECT_EQ(loaded->matrix(i).gene_ids(), original.matrix(i).gene_ids());
  }
}

TEST(MatrixIoTest, SyntheticDatabaseRoundTrip) {
  SyntheticConfig config;
  config.num_matrices = 4;
  config.genes_min = 5;
  config.genes_max = 8;
  config.samples_min = 6;
  config.samples_max = 9;
  config.gene_universe = 40;
  GeneDatabase original = GenerateSyntheticDatabase(config);
  std::stringstream buffer;
  ASSERT_TRUE(WriteGeneDatabase(original, &buffer).ok());
  Result<GeneDatabase> loaded = ReadGeneDatabase(&buffer);
  ASSERT_TRUE(loaded.ok());
  for (SourceId i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded->matrix(i).data(), original.matrix(i).data());
  }
}

TEST(MatrixIoTest, BadMagicRejected) {
  std::stringstream buffer("NOT-A-MATRIX 1\n");
  Result<GeneMatrix> loaded = ReadGeneMatrix(&buffer);
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("bad magic"), std::string::npos);
}

TEST(MatrixIoTest, WrongVersionRejected) {
  std::stringstream buffer("IMGRN-MATRIX 99\n0 2 2\n1 2\n0 0\n0 0\n");
  EXPECT_FALSE(ReadGeneMatrix(&buffer).ok());
}

TEST(MatrixIoTest, TruncatedValuesRejected) {
  std::stringstream buffer("IMGRN-MATRIX 1\n0 2 2\n1 2\n0.5 0.5\n");
  Result<GeneMatrix> loaded = ReadGeneMatrix(&buffer);
  EXPECT_FALSE(loaded.ok());
}

TEST(MatrixIoTest, ZeroDimensionsRejected) {
  std::stringstream buffer("IMGRN-MATRIX 1\n0 0 3\n1 2 3\n");
  EXPECT_FALSE(ReadGeneMatrix(&buffer).ok());
}

TEST(MatrixIoTest, DuplicateGeneIdsRejectedWithoutAborting) {
  std::stringstream buffer("IMGRN-MATRIX 1\n0 1 2\n5 5\n0.1 0.2\n");
  Result<GeneMatrix> loaded = ReadGeneMatrix(&buffer);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

// Header counts the text cannot back are rejected as input, not met with
// an allocation: each of these used to abort or crash the reader.
TEST(MatrixIoTest, GeneCountBeyondTheTextRejected) {
  // 10^12 gene ids announced, three delivered (was std::bad_alloc).
  std::stringstream buffer("IMGRN-MATRIX 1\n0 30 1000000000000\n1 2 3\n");
  Result<GeneMatrix> loaded = ReadGeneMatrix(&buffer);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(MatrixIoTest, OverflowingDimensionsRejected) {
  // 2^63 samples x 2 genes wraps size_t to 0 (was a write into an empty
  // buffer).
  std::stringstream buffer(
      "IMGRN-MATRIX 1\n0 9223372036854775808 2\n1 2\n0.5 0.25\n1 2\n");
  Result<GeneMatrix> loaded = ReadGeneMatrix(&buffer);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("overflow"), std::string::npos);
}

TEST(MatrixIoTest, NegativeSampleCountRejected) {
  // "-1" reads as the largest size_t (was std::length_error).
  std::stringstream buffer("IMGRN-MATRIX 1\n0 -1 1\n7\n0.5\n");
  Result<GeneMatrix> loaded = ReadGeneMatrix(&buffer);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

// operator>> reads "-3" into an unsigned field as 2^N - 3 and
// "-18446744073709551615" into a size_t as 1, the stream still good, so
// each of these used to load under a wrapped id or count.
TEST(MatrixIoTest, SignedFieldsRejected) {
  const char* const kMatrices[] = {
      "IMGRN-MATRIX 1\n-1 1 1\n7\n0.5\n",                      // source id
      "IMGRN-MATRIX 1\n0 -18446744073709551615 1\n7\n0.5\n",   // samples
      "IMGRN-MATRIX 1\n0 1 -18446744073709551615\n7\n0.5\n",   // genes
      "IMGRN-MATRIX 1\n0 1 2\n-3 5\n0.5 0.25\n",               // gene id
  };
  for (const char* text : kMatrices) {
    std::stringstream buffer(text);
    EXPECT_EQ(ReadGeneMatrix(&buffer).status().code(),
              StatusCode::kInvalidArgument)
        << text;
  }
  std::stringstream database(
      "IMGRN-DB 1\n-18446744073709551615\n"
      "IMGRN-MATRIX 1\n0 1 1\n7\n0.5\n");
  EXPECT_EQ(ReadGeneDatabase(&database).status().code(),
            StatusCode::kInvalidArgument);
}

// A fixed-seed mutation fuzzer over valid matrix and database text: one to
// three random inserts, deletes or overwrites per mutant. Every mutant
// must load, with a shape its data fills, or be kInvalidArgument; nothing
// may abort or allocate by a forged count.
TEST(MatrixIoTest, SeededMutationsParseOrReject) {
  std::vector<std::string> seeds;
  {
    std::stringstream text;
    ASSERT_TRUE(WriteGeneMatrix(MakeMatrix(4, 6), &text).ok());
    seeds.push_back(text.str());
  }
  {
    GeneDatabase database;
    database.Add(MakeMatrix(0, 7));
    database.Add(MakeMatrix(1, 8));
    std::stringstream text;
    ASSERT_TRUE(WriteGeneDatabase(database, &text).ok());
    seeds.push_back(text.str());
  }
  const std::string kAlphabet = "0123456789-+.eE \nnaif";
  constexpr int kMutants = 6000;
  Rng rng(20261019);
  int loaded = 0;
  for (int i = 0; i < kMutants; ++i) {
    const size_t which = rng.UniformUint64(seeds.size());
    std::string text = seeds[which];
    const int edits = 1 + static_cast<int>(rng.UniformUint64(3));
    for (int e = 0; e < edits; ++e) {
      const char c = kAlphabet[rng.UniformUint64(kAlphabet.size())];
      const size_t op = rng.UniformUint64(3);
      if (op == 0 || text.empty()) {
        text.insert(text.begin() + static_cast<ptrdiff_t>(
                                       rng.UniformUint64(text.size() + 1)),
                    c);
      } else if (op == 1) {
        text.erase(rng.UniformUint64(text.size()), 1);
      } else {
        text[rng.UniformUint64(text.size())] = c;
      }
    }
    std::stringstream in(text);
    std::vector<GeneMatrix> matrices;
    Status status;
    if (which == 0) {
      Result<GeneMatrix> matrix = ReadGeneMatrix(&in);
      status = matrix.status();
      if (matrix.ok()) matrices.push_back(std::move(*matrix));
    } else {
      Result<GeneDatabase> database = ReadGeneDatabase(&in);
      status = database.status();
      if (database.ok()) matrices = database->matrices();
    }
    if (!status.ok()) {
      ASSERT_EQ(status.code(), StatusCode::kInvalidArgument) << text;
      continue;
    }
    ++loaded;
    for (const GeneMatrix& matrix : matrices) {
      EXPECT_GT(matrix.num_genes(), 0u) << text;
      EXPECT_EQ(matrix.data().size(),
                matrix.num_samples() * matrix.num_genes())
          << text;
    }
  }
  // Both outcomes occur often enough to matter: most edits land in a
  // value, which still parses.
  EXPECT_GT(loaded, kMutants / 100);
  EXPECT_LT(loaded, kMutants - kMutants / 100);
}

TEST(MatrixIoTest, OutOfOrderSourceIdsRejected) {
  GeneMatrix matrix = MakeMatrix(3, 4);  // source 3 in slot 0.
  std::stringstream buffer;
  buffer << "IMGRN-DB 1\n1\n";
  ASSERT_TRUE(WriteGeneMatrix(matrix, &buffer).ok());
  EXPECT_FALSE(ReadGeneDatabase(&buffer).ok());
}

TEST(MatrixIoTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/imgrn_io_test.db";
  GeneDatabase original;
  original.Add(MakeMatrix(0, 5));
  ASSERT_TRUE(SaveGeneDatabase(original, path).ok());
  Result<GeneDatabase> loaded = LoadGeneDatabase(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->matrix(0).data(), original.matrix(0).data());
  std::remove(path.c_str());
}

TEST(MatrixIoTest, MissingFileReported) {
  Result<GeneDatabase> loaded =
      LoadGeneDatabase("/nonexistent/imgrn.db");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace imgrn
