#include "storage/page_stream.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "common/logging.h"

namespace imgrn {

namespace {
constexpr size_t kNextSize = sizeof(PageId);
}  // namespace

PageStreamWriter::PageStreamWriter(StorageManager* store)
    : store_(store), buffer_(store->page_size()), offset_(kNextSize) {
  IMGRN_CHECK_GT(store->page_size(), kNextSize);
}

Status PageStreamWriter::FlushCurrent(PageId next) {
  buffer_.WriteAt<PageId>(0, next);
  IMGRN_RETURN_IF_ERROR(store_->Commit(current_, buffer_));
  buffer_.Clear();
  offset_ = kNextSize;
  return Status::Ok();
}

Status PageStreamWriter::Append(const void* data, size_t count) {
  IMGRN_CHECK(!finished_) << "Append after Finish";
  if (!status_.ok()) return status_;
  const uint8_t* src = static_cast<const uint8_t*>(data);
  while (count > 0) {
    if (current_ == kInvalidPageId) {
      current_ = store_->Allocate();
      head_ = current_;
    }
    if (offset_ == buffer_.size()) {
      // Page full: its successor exists now, so it can be chained and
      // committed.
      const PageId next = store_->Allocate();
      status_ = FlushCurrent(next);
      if (!status_.ok()) return status_;
      current_ = next;
    }
    const size_t chunk = std::min(count, buffer_.size() - offset_);
    buffer_.WriteBytes(offset_, src, chunk);
    offset_ += chunk;
    src += chunk;
    count -= chunk;
    total_ += chunk;
  }
  return Status::Ok();
}

Result<PageStreamRef> PageStreamWriter::Finish() {
  IMGRN_CHECK(!finished_) << "double Finish";
  finished_ = true;
  IMGRN_RETURN_IF_ERROR(status_);
  PageStreamRef ref;
  ref.num_bytes = total_;
  if (current_ == kInvalidPageId) {
    // Empty stream: no pages at all.
    ref.head = kInvalidPageId;
    return ref;
  }
  IMGRN_RETURN_IF_ERROR(FlushCurrent(kInvalidPageId));
  ref.head = head_;
  return ref;
}

Status PageStreamReader::LoadPage(PageId id) {
  if (!store_->IsLivePage(id)) {
    return Status::DataLoss("page stream links to dead page " +
                            std::to_string(id));
  }
  Result<Page*> page = store_->Read(id, &scratch_);
  IMGRN_RETURN_IF_ERROR(page.status());
  if (*page != &scratch_) {
    // Direct-frame backend: copy so later loads don't alias the store.
    scratch_.Clear();
    scratch_.WriteBytes(0, (*page)->data(), (*page)->size());
  }
  next_ = scratch_.ReadAt<PageId>(0);
  offset_ = 0;
  loaded_ = true;
  return Status::Ok();
}

PageStreamReader::PageStreamReader(StorageManager* store, PageStreamRef ref)
    : store_(store),
      scratch_(store->page_size()),
      next_(ref.head),
      payload_in_page_(store->page_size() - kNextSize),
      remaining_(ref.num_bytes) {}

Status PageStreamReader::Read(void* dst, size_t count) {
  if (!status_.ok()) return status_;
  if (count > remaining_) {
    status_ = Status::DataLoss("page stream shorter than requested read");
    return status_;
  }
  uint8_t* out = static_cast<uint8_t*>(dst);
  while (count > 0) {
    if (!loaded_ || offset_ == payload_in_page_) {
      if (next_ == kInvalidPageId) {
        status_ = Status::DataLoss("page stream chain ended early");
        return status_;
      }
      status_ = LoadPage(next_);
      if (!status_.ok()) return status_;
    }
    const size_t chunk = std::min(count, payload_in_page_ - offset_);
    scratch_.ReadBytes(kNextSize + offset_, out, chunk);
    offset_ += chunk;
    out += chunk;
    count -= chunk;
    remaining_ -= chunk;
  }
  return Status::Ok();
}

}  // namespace imgrn
