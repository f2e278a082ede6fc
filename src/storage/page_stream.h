#ifndef IMGRN_STORAGE_PAGE_STREAM_H_
#define IMGRN_STORAGE_PAGE_STREAM_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "storage/page.h"
#include "storage/storage_manager.h"

namespace imgrn {

/// Where a byte stream lives inside a paged store: the head of a chain of
/// pages (each page: [next PageId u32][payload bytes]) plus the total
/// payload length. The snapshot directory stores one of these per
/// serialized section.
struct PageStreamRef {
  PageId head = kInvalidPageId;
  uint64_t num_bytes = 0;
};

/// Writes a byte stream into freshly allocated pages of a store. Pages are
/// chained through their leading next-pointer; each full page is
/// Commit()ed (sealed with its CRC32C) as soon as its successor is known,
/// so a finished stream is fully verified on read-back. Call Finish()
/// exactly once; the writer is unusable afterwards.
class PageStreamWriter {
 public:
  explicit PageStreamWriter(StorageManager* store);

  /// Appends `count` bytes. Fails (and poisons the stream) on a storage
  /// write error.
  Status Append(const void* data, size_t count);

  /// Commits the trailing page and returns the chain's ref.
  Result<PageStreamRef> Finish();

 private:
  /// Commits the buffered page, chaining it to `next`.
  Status FlushCurrent(PageId next);

  StorageManager* store_;
  Page buffer_;
  PageId head_ = kInvalidPageId;
  PageId current_ = kInvalidPageId;
  size_t offset_;           // Write position within buffer_.
  uint64_t total_ = 0;      // Payload bytes appended so far.
  bool finished_ = false;
  Status status_;           // First error, sticky.
};

/// Reads a byte stream written by PageStreamWriter. Every page access goes
/// through StorageManager::Read, so corruption surfaces as kDataLoss and
/// the disk.* fault sites apply. A head or link naming a page that is not
/// live (freed, or past the store end) is kDataLoss too.
class PageStreamReader {
 public:
  PageStreamReader(StorageManager* store, PageStreamRef ref);

  /// Reads exactly `count` bytes; kDataLoss if the stream ends early.
  Status Read(void* dst, size_t count);

  /// Bytes of the stream not read yet.
  uint64_t remaining() const { return remaining_; }

 private:
  Status LoadPage(PageId id);

  StorageManager* store_;
  Page scratch_;
  PageId next_ = kInvalidPageId;
  size_t offset_ = 0;       // Read position within the current payload.
  size_t payload_in_page_;  // Payload capacity per page.
  uint64_t remaining_;
  bool loaded_ = false;
  Status status_;
};

}  // namespace imgrn

#endif  // IMGRN_STORAGE_PAGE_STREAM_H_
