#include "query/baseline.h"

#include <algorithm>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "graph/appearance.h"
#include "graph/subgraph_iso.h"
#include "inference/permutation_cache.h"

namespace imgrn {

BaselineMaterialization::BaselineMaterialization(BaselineOptions options)
    : options_(std::move(options)) {
  file_ = std::make_unique<PagedFile>(options_.page_size);
  pool_ = std::make_unique<BufferPool>(file_.get(),
                                       options_.buffer_pool_pages);
  doubles_per_page_ = options_.page_size / sizeof(double);
  IMGRN_CHECK_GT(doubles_per_page_, 0u);
}

Status BaselineMaterialization::Build(GeneDatabase* database) {
  if (database == nullptr || database->empty()) {
    return Status::InvalidArgument("empty database");
  }
  Stopwatch timer;
  database_ = database;
  database_->StandardizeAll();
  PermutationCache cache(options_.num_samples, options_.seed);

  layouts_.clear();
  layouts_.reserve(database_->size());
  for (SourceId i = 0; i < database_->size(); ++i) {
    const GeneMatrix& matrix = database_->matrix(i);
    const size_t n = matrix.num_genes();
    SourceLayout layout;
    layout.num_genes = n;
    const size_t num_pairs = n * (n - 1) / 2;
    const size_t num_pages =
        (num_pairs + doubles_per_page_ - 1) / doubles_per_page_;
    for (size_t p = 0; p < std::max<size_t>(num_pages, 1); ++p) {
      layout.pages.push_back(file_->Allocate());
    }
    size_t pair = 0;
    for (size_t s = 0; s < n; ++s) {
      for (size_t t = s + 1; t < n; ++t) {
        const double p = EstimateEdgeProbabilityCached(
            matrix.Column(s), matrix.Column(t), &cache);
        Page* page = file_->GetPage(layout.pages[pair / doubles_per_page_]);
        page->WriteAt<double>((pair % doubles_per_page_) * sizeof(double), p);
        ++pair;
      }
    }
    // Seal every probability page through the accounted write path, so the
    // online scan's reads are checksum-verified.
    for (PageId id : layout.pages) {
      IMGRN_RETURN_IF_ERROR(pool_->Put(id, *file_->GetPage(id)));
    }
    IMGRN_RETURN_IF_ERROR(pool_->WriteBack());
    layouts_.push_back(std::move(layout));
  }
  // The online phase starts cold (and with clean counters): the paper's
  // Baseline pays its page accesses at query time, not as leftovers of the
  // offline materialization.
  pool_->FlushAll();
  pool_->ResetStats();
  build_seconds_ = timer.ElapsedSeconds();
  return Status::Ok();
}

size_t BaselineMaterialization::PairIndex(const SourceLayout& layout,
                                          size_t s, size_t t) const {
  IMGRN_CHECK_LT(s, t);
  IMGRN_CHECK_LT(t, layout.num_genes);
  // Upper-triangle row-major rank of (s, t).
  return s * layout.num_genes - s * (s + 1) / 2 + (t - s - 1);
}

Result<double> BaselineMaterialization::ReadProbability(SourceId source,
                                                        size_t s,
                                                        size_t t) const {
  IMGRN_CHECK_LT(source, layouts_.size());
  if (s > t) std::swap(s, t);
  const SourceLayout& layout = layouts_[source];
  const size_t pair = PairIndex(layout, s, t);
  Result<Page*> page = pool_->Fetch(layout.pages[pair / doubles_per_page_]);
  IMGRN_RETURN_IF_ERROR(page.status());
  return (*page)->ReadAt<double>((pair % doubles_per_page_) * sizeof(double));
}

Result<std::vector<QueryMatch>> BaselineMaterialization::Query(
    const ProbGraph& query_graph, const QueryParams& params,
    QueryStats* stats) const {
  IMGRN_CHECK(database_ != nullptr) << "Build() must run first";
  Stopwatch timer;
  const IoStats io_before = pool_->stats();

  std::vector<QueryMatch> matches;
  for (SourceId i = 0; i < database_->size(); ++i) {
    const GeneMatrix& matrix = database_->matrix(i);
    const size_t n = matrix.num_genes();
    // Materialize the full GRN G_i at the ad-hoc gamma from the stored
    // probabilities (this is the whole-database scan the paper's Baseline
    // pays for).
    ProbGraph grn;
    for (size_t s = 0; s < n; ++s) {
      grn.AddVertex(matrix.gene_id(s));
    }
    for (size_t s = 0; s < n; ++s) {
      for (size_t t = s + 1; t < n; ++t) {
        Result<double> read = ReadProbability(i, s, t);
        IMGRN_RETURN_IF_ERROR(read.status());
        const double p = *read;
        if (p > params.gamma) {
          grn.AddEdge(static_cast<VertexId>(s), static_cast<VertexId>(t), p);
        }
      }
    }
    SubgraphIsomorphism iso(query_graph, grn);
    double best = -1.0;
    Embedding best_embedding;
    iso.Enumerate([&](const Embedding& embedding) {
      const double p = AppearanceProbability(query_graph, grn, embedding);
      if (p > best) {
        best = p;
        best_embedding = embedding;
      }
      return true;
    });
    if (best > params.alpha) {
      QueryMatch match;
      match.source = i;
      match.probability = best;
      for (VertexId q = 0; q < query_graph.num_vertices(); ++q) {
        match.mapping.emplace_back(query_graph.label(q), best_embedding[q]);
      }
      matches.push_back(std::move(match));
    }
  }

  FinalizeMatches(params.top_k, &matches);
  if (stats != nullptr) {
    *stats = QueryStats{};
    stats->query_vertices = query_graph.num_vertices();
    stats->query_edges = query_graph.num_edges();
    stats->total_seconds = timer.ElapsedSeconds();
    const IoStats io_after = pool_->stats();
    stats->page_accesses = io_after.misses - io_before.misses;
    stats->page_fetches = io_after.fetches - io_before.fetches;
    stats->candidate_matrices = database_->size();
    stats->candidate_pairs = database_->size();
    stats->answers = matches.size();
  }
  return matches;
}

}  // namespace imgrn
