#include "core/engine.h"

#include <string>

#include "common/logging.h"
#include "index/snapshot.h"

namespace imgrn {

ImGrnEngine::ImGrnEngine(EngineOptions options)
    : options_(std::move(options)) {}

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
  processor_ = std::make_unique<ImGrnQueryProcessor>(index_.get());
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
  processor_ = std::make_unique<ImGrnQueryProcessor>(index_.get());
  return Status::Ok();
}

Status ImGrnEngine::ScrubPages(size_t* cursor, size_t max_pages,
                               size_t* scrubbed) const {
  *scrubbed = 0;
  if (store_ == nullptr) {
    *cursor = 0;
    return Status::Ok();
  }
  StorageManager* store = store_.get();
  Page scratch(store->page_size());
  const size_t end = store->num_pages();
  while (*cursor < end && *scrubbed < max_pages) {
    const PageId id = static_cast<PageId>(*cursor);
    if (store->IsLivePage(id)) {
      Result<Page*> page = store->Read(id, &scratch);
      if (!page.ok()) return page.status();  // Cursor stays at the bad page.
      ++*scrubbed;
    }
    ++*cursor;
  }
  return Status::Ok();
}

Status ImGrnEngine::ReclaimStorage(size_t* reclaimed_pages,
                                   size_t* truncated_slots) {
  if (reclaimed_pages != nullptr) *reclaimed_pages = 0;
  if (truncated_slots != nullptr) *truncated_slots = 0;
  if (store_ == nullptr) return Status::Ok();
  StorageManager* store = store_.get();
  std::vector<bool> live(store->num_pages(), false);
  if (has_index() && index_->options().storage == store) {
    for (PageId page : index_->rtree().ExportMeta().node_pages) {
      if (page != kInvalidPageId) live[page] = true;
    }
  }
  if (store->app_root() != kInvalidPageId) {
    std::vector<PageId> snapshot_pages;
    Status walked = CollectSnapshotPages(store, &snapshot_pages);
    // An unwalkable snapshot means the live set is unknowable: reclaim
    // nothing rather than deallocate a page the snapshot might reference.
    if (!walked.ok()) return walked;
    for (PageId page : snapshot_pages) {
      // The snapshot's tree meta is raw disk data; a page id past the
      // store is corrupt, and a corrupt live set must not license reuse.
      if (page >= live.size()) {
        return Status::DataLoss("snapshot references page past store end");
      }
      live[page] = true;
    }
  }
  size_t reclaimed = 0;
  for (PageId id = 0; id < live.size(); ++id) {
    if (store->IsLivePage(id) && !live[id]) {
      store->Deallocate(id);
      ++reclaimed;
    }
  }
  if (reclaimed_pages != nullptr) *reclaimed_pages = reclaimed;
  if (reclaimed == 0) {
    // Still try the truncation: an earlier reclaim's crash (or a failed
    // ftruncate) may have left a reusable tail behind.
    const size_t released = store->ShrinkToFit();
    if (truncated_slots != nullptr) *truncated_slots = released;
    if (released > 0) IMGRN_RETURN_IF_ERROR(store->Sync());
    return Status::Ok();
  }
  // First Sync commits the Deallocates (their physical slots leave every
  // durable state), then the tail truncation, then a second Sync so the
  // durable header's slot count agrees with the shortened file.
  IMGRN_RETURN_IF_ERROR(store->Sync());
  const size_t released = store->ShrinkToFit();
  if (truncated_slots != nullptr) *truncated_slots = released;
  if (released > 0) IMGRN_RETURN_IF_ERROR(store->Sync());
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
