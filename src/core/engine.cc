#include "core/engine.h"

#include <string>

#include "common/logging.h"
#include "index/snapshot.h"

namespace imgrn {

ImGrnEngine::ImGrnEngine(EngineOptions options, PermutationTable* table)
    : options_(std::move(options)),
      owned_table_(table == nullptr ? std::make_unique<PermutationTable>()
                                    : nullptr),
      table_(table == nullptr ? owned_table_.get() : table) {}

Status ImGrnEngine::EnsureStorage() {
  if (store_ != nullptr) return Status::Ok();
  StorageOptions storage = options_.storage;
  storage.page_size = options_.index.page_size;
  Result<std::unique_ptr<StorageManager>> store = OpenStorage(storage);
  IMGRN_RETURN_IF_ERROR(store.status());
  store_ = std::move(*store);
  return Status::Ok();
}

void ImGrnEngine::LoadDatabase(GeneDatabase database) {
  database_ = std::move(database);
  processor_.reset();
  index_.reset();
}

Status ImGrnEngine::BuildIndex() {
  if (database_.empty()) {
    return Status::FailedPrecondition("no database loaded");
  }
  if (index_ != nullptr && index_->num_active() < database_.size()) {
    return Status::FailedPrecondition(
        "a removed source's data is freed and cannot be re-indexed; load "
        "the surviving sources into a new engine");
  }
  for (const GeneMatrix& matrix : database_.matrices()) {
    IMGRN_RETURN_IF_ERROR(ValidateGeneMatrix(
        matrix, "source " + std::to_string(matrix.source_id())));
  }
  IMGRN_RETURN_IF_ERROR(EnsureStorage());
  ImGrnIndexOptions index_options = options_.index;
  index_options.storage = store_.get();
  auto index = std::make_unique<ImGrnIndex>(index_options);
  IMGRN_RETURN_IF_ERROR(index->Build(&database_));
  index_ = std::move(index);
  processor_ = std::make_unique<ImGrnQueryProcessor>(index_.get(), table_);
  return Status::Ok();
}

Status ImGrnEngine::AddMatrix(GeneMatrix matrix) {
  if (index_ == nullptr || !index_->is_built()) {
    return Status::FailedPrecondition("BuildIndex() has not run");
  }
  if (matrix.source_id() != database_.size()) {
    return Status::InvalidArgument(
        "new matrix's source id must equal database().size()");
  }
  const SourceId source = matrix.source_id();
  IMGRN_RETURN_IF_ERROR(
      ValidateGeneMatrix(matrix, "source " + std::to_string(source)));
  database_.Add(std::move(matrix));
  return index_->AddMatrix(source);
}

Status ImGrnEngine::RemoveMatrix(SourceId source) {
  if (index_ == nullptr || !index_->is_built()) {
    return Status::FailedPrecondition("BuildIndex() has not run");
  }
  return index_->RemoveMatrix(source);
}

Status ImGrnEngine::SaveSnapshot() {
  if (index_ == nullptr || !index_->is_built()) {
    return Status::FailedPrecondition("BuildIndex() has not run");
  }
  return WriteSnapshot(database_, index_.get(), store_.get());
}

Status ImGrnEngine::LoadSnapshot() {
  IMGRN_RETURN_IF_ERROR(EnsureStorage());
  Result<SnapshotContents> contents = ReadSnapshot(store_.get());
  IMGRN_RETURN_IF_ERROR(contents.status());
  processor_.reset();
  index_.reset();
  database_ = std::move(contents->database);
  contents->parts.options.storage = store_.get();
  Result<std::unique_ptr<ImGrnIndex>> index = ImGrnIndex::Restore(
      std::move(contents->parts.options), &database_,
      std::move(contents->parts.pivot_sets),
      std::move(contents->parts.embeddings),
      std::move(contents->parts.active),
      std::move(contents->parts.inverted_file), contents->tree_meta);
  IMGRN_RETURN_IF_ERROR(index.status());
  index_ = std::move(*index);
  processor_ = std::make_unique<ImGrnQueryProcessor>(index_.get(), table_);
  return Status::Ok();
}

const ImGrnIndex& ImGrnEngine::index() const {
  IMGRN_CHECK(index_ != nullptr) << "BuildIndex() has not run";
  return *index_;
}

ImGrnIndex& ImGrnEngine::mutable_index() {
  IMGRN_CHECK(index_ != nullptr) << "BuildIndex() has not run";
  return *index_;
}

Result<std::vector<QueryMatch>> ImGrnEngine::Query(
    const GeneMatrix& query_matrix, const QueryParams& params,
    QueryStats* stats, const QueryControl* control) const {
  if (processor_ == nullptr) {
    return Status::FailedPrecondition("BuildIndex() has not run");
  }
  return processor_->Query(query_matrix, params, stats, control);
}

Result<std::vector<QueryMatch>> ImGrnEngine::QueryWithGraph(
    const ProbGraph& query_graph, const QueryParams& params,
    QueryStats* stats, const QueryControl* control) const {
  if (processor_ == nullptr) {
    return Status::FailedPrecondition("BuildIndex() has not run");
  }
  return processor_->QueryWithGraph(query_graph, params, stats, control);
}

}  // namespace imgrn
