#include "storage/disk_storage.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstring>
#include <utility>

#include "common/crc32c.h"
#include "common/fault_injection.h"
#include "common/logging.h"

namespace imgrn {
namespace {

// File geometry. Two 4 KiB header slots, then data slots of
// `kSlotHeaderSize + page_size` bytes each.
constexpr size_t kHeaderSlotSize = 4096;
constexpr size_t kDataStart = 2 * kHeaderSlotSize;
constexpr size_t kSlotHeaderSize = 32;

constexpr char kFileMagic[8] = {'I', 'M', 'G', 'R', 'N', 'P', 'G', '1'};
constexpr uint32_t kFormatVersion = 1;
constexpr uint32_t kEndianTag = 0x01020304u;
constexpr uint32_t kSlotMagic = 0x534C4F54u;  // "SLOT"
// Slot-header `logical` value marking a meta-chain slot (never a valid
// PageId: page ids are dense from zero).
constexpr uint32_t kMetaLogical = 0xFFFFFFFEu;

// On-disk header, one per header slot; the CRC covers everything before it.
struct FileHeader {
  char magic[8];
  uint32_t format_version;
  uint32_t endian_tag;
  uint32_t page_size;
  uint32_t app_root;
  uint64_t generation;
  uint64_t num_logical;
  uint64_t num_slots;
  uint32_t meta_head;
  uint32_t meta_count;
  uint32_t reserved;
  uint32_t header_crc;
};
static_assert(sizeof(FileHeader) == 64);
static_assert(std::is_trivially_copyable_v<FileHeader>);

uint32_t HeaderCrc(const FileHeader& header) {
  return Crc32c(reinterpret_cast<const uint8_t*>(&header),
                offsetof(FileHeader, header_crc));
}

Status ErrnoStatus(const char* op, const std::string& path) {
  return Status::Unavailable(std::string(op) + " failed for " + path + ": " +
                             std::strerror(errno));
}

// POD readers over a byte buffer, bounds-checked so a corrupted meta chain
// is rejected with kDataLoss instead of reading past the end.
template <typename T>
Status ReadPodAt(const std::vector<uint8_t>& buf, size_t* offset, T* out) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (*offset + sizeof(T) > buf.size()) {
    return Status::DataLoss("meta chain truncated");
  }
  std::memcpy(out, buf.data() + *offset, sizeof(T));
  *offset += sizeof(T);
  return Status::Ok();
}

template <typename T>
void AppendPod(std::vector<uint8_t>* buf, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  const size_t at = buf->size();
  buf->resize(at + sizeof(T));
  std::memcpy(buf->data() + at, &value, sizeof(T));
}

}  // namespace

// On-disk per-slot header; `payload_crc` seals `payload_size` bytes.
struct DiskStorageManager::SlotHeader {
  uint32_t magic;
  uint32_t logical;
  uint64_t generation;
  uint32_t payload_crc;
  uint32_t payload_size;
  uint64_t reserved;
};

DiskStorageManager::DiskStorageManager(std::string path, size_t page_size,
                                       bool unlink_on_close)
    : path_(std::move(path)),
      page_size_(page_size),
      unlink_on_close_(unlink_on_close) {}

DiskStorageManager::~DiskStorageManager() {
  if (fd_ >= 0) ::close(fd_);
  if (unlink_on_close_ && !path_.empty()) ::unlink(path_.c_str());
}

Result<std::unique_ptr<DiskStorageManager>> DiskStorageManager::Open(
    const StorageOptions& options) {
  if (options.path.empty()) {
    return Status::InvalidArgument("disk store needs a path");
  }
  // Room for the meta chain's next-pointer plus at least one table entry.
  if (options.page_size < 64) {
    return Status::InvalidArgument("disk store page_size must be >= 64");
  }
  std::unique_ptr<DiskStorageManager> store(new DiskStorageManager(
      options.path, options.page_size, options.unlink_on_close));
  store->fd_ = ::open(options.path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (store->fd_ < 0) return ErrnoStatus("open", options.path);
  struct stat st;
  if (::fstat(store->fd_, &st) != 0) return ErrnoStatus("fstat", options.path);
  if (st.st_size == 0) {
    IMGRN_RETURN_IF_ERROR(store->InitFresh());
  } else if (static_cast<size_t>(st.st_size) < kDataStart) {
    // InitFresh reserves the whole header region, so this file was cut.
    return Status::DataLoss(options.path + " is shorter than its header "
                            "region");
  } else {
    IMGRN_RETURN_IF_ERROR(store->Recover());
  }
  return store;
}

Status DiskStorageManager::InitFresh() {
  // Generation 0 is the empty state: a header with no pages, no slots, no
  // app root and no meta chain, which Recover accepts as exactly that. The
  // file covers the whole header region from the start, so a fresh file
  // is told apart from one cut inside that region.
  generation_ = 0;
  IMGRN_RETURN_IF_ERROR(WriteHeader(/*generation=*/0, kInvalidSlot,
                                    /*meta_count=*/0));
  if (::ftruncate(fd_, static_cast<off_t>(kDataStart)) != 0) {
    return ErrnoStatus("ftruncate", path_);
  }
  if (::fsync(fd_) != 0) return ErrnoStatus("fsync", path_);
  return Status::Ok();
}

Status DiskStorageManager::Recover() {
  // Read both header slots; a candidate is usable when its magic and CRC
  // check out. The newest usable generation whose meta chain also verifies
  // wins — the fallback to the older header covers a crash that landed a
  // header but whose meta slots were later recycled by a retried Sync.
  struct Candidate {
    FileHeader header;
    bool valid = false;
  };
  Candidate candidates[2];
  for (int i = 0; i < 2; ++i) {
    FileHeader& h = candidates[i].header;
    iovec iov{&h, sizeof(h)};
    if (!PReadFull(&iov, 1, i * kHeaderSlotSize).ok()) continue;
    if (std::memcmp(h.magic, kFileMagic, sizeof(kFileMagic)) != 0) continue;
    if (HeaderCrc(h) != h.header_crc) continue;
    candidates[i].valid = true;
  }
  if (!candidates[0].valid && !candidates[1].valid) {
    return Status::DataLoss("no valid header in " + path_);
  }

  int order[2] = {0, 1};
  if (candidates[1].valid &&
      (!candidates[0].valid ||
       candidates[1].header.generation > candidates[0].header.generation)) {
    order[0] = 1;
    order[1] = 0;
  }

  Status last = Status::DataLoss("no recoverable state in " + path_);
  for (int i = 0; i < 2; ++i) {
    const Candidate& c = candidates[order[i]];
    if (!c.valid) continue;
    const FileHeader& h = c.header;
    // Format mismatches are arguments errors, not corruption: the file is
    // intact, we just can't (or weren't asked to) speak its dialect.
    if (h.format_version != kFormatVersion) {
      return Status::InvalidArgument(
          "unsupported storage format version " +
          std::to_string(h.format_version) + " in " + path_);
    }
    if (h.endian_tag != kEndianTag) {
      return Status::InvalidArgument(
          "storage file " + path_ + " was written on a different-endian host");
    }
    if (h.page_size != page_size_) {
      return Status::InvalidArgument(
          "storage file " + path_ + " has page_size " +
          std::to_string(h.page_size) + ", opened with " +
          std::to_string(page_size_));
    }

    // The empty generation 0 InitFresh commits has no meta chain. It is
    // never a fallback: when a later header was tried first, data was
    // committed, and opening empty would hide its loss.
    const bool fresh = h.generation == 0 && h.meta_count == 0 &&
                       h.num_logical == 0 && h.num_slots == 0 &&
                       h.app_root == kInvalidPageId;
    if (fresh && i > 0) continue;

    num_slots_ = h.num_slots;
    std::vector<SlotId> chain;
    auto meta = ReadMetaChain(h.meta_head, h.meta_count, &chain);
    if (!meta.ok()) {
      last = meta.status();
      continue;
    }
    if (fresh) meta->assign(2 * sizeof(uint64_t), 0);  // Two zero counts.
    Status parsed = ParseMeta(*meta);
    if (!parsed.ok()) {
      last = parsed;
      continue;
    }
    if (page_table_.size() != h.num_logical) {
      last = Status::DataLoss("meta chain disagrees with header in " + path_);
      continue;
    }
    // Read CHECKs that a page is live, so a root past the table or freed
    // must be refused here.
    if (h.app_root != kInvalidPageId && !IsLivePage(h.app_root)) {
      last = Status::DataLoss("header's app root " +
                              std::to_string(h.app_root) +
                              " is not a live page in " + path_);
      continue;
    }
    generation_ = h.generation;
    app_root_ = h.app_root;
    committed_meta_ = std::move(chain);
    committed_table_ = page_table_;

    // Every physical slot not referenced by the recovered state is free.
    std::vector<bool> referenced(num_slots_, false);
    for (SlotId slot : committed_table_) {
      if (slot != kInvalidSlot) referenced[slot] = true;
    }
    for (SlotId slot : committed_meta_) referenced[slot] = true;
    slot_free_.clear();
    for (size_t s = num_slots_; s-- > 0;) {
      if (!referenced[s]) slot_free_.push_back(static_cast<SlotId>(s));
    }
    pending_free_.clear();
    return Status::Ok();
  }
  return last;
}

Result<std::vector<uint8_t>> DiskStorageManager::ReadMetaChain(
    SlotId head, uint32_t count, std::vector<SlotId>* chain) {
  chain->clear();
  std::vector<uint8_t> meta;
  std::vector<uint8_t> payload(page_size_);
  SlotId slot = head;
  for (uint32_t i = 0; i < count; ++i) {
    if (slot == kInvalidSlot || slot >= num_slots_) {
      return Status::DataLoss("meta chain broken in " + path_);
    }
    SlotHeader header{};
    IMGRN_RETURN_IF_ERROR(
        ReadSlot(slot, kMetaLogical, &header, payload.data()));
    if (Crc32c(payload.data(), header.payload_size) != header.payload_crc) {
      return Status::DataLoss("meta slot " + std::to_string(slot) +
                              " failed its CRC32C check");
    }
    if (header.payload_size < sizeof(SlotId)) {
      return Status::DataLoss("meta slot too small in " + path_);
    }
    chain->push_back(slot);
    SlotId next;
    std::memcpy(&next, payload.data(), sizeof(next));
    meta.insert(meta.end(), payload.begin() + sizeof(SlotId),
                payload.begin() + header.payload_size);
    slot = next;
  }
  if (slot != kInvalidSlot) {
    return Status::DataLoss("meta chain longer than header claims in " + path_);
  }
  if (count == 0 && head != kInvalidSlot) {
    return Status::DataLoss("meta chain anchor without slots in " + path_);
  }
  return meta;
}

Status DiskStorageManager::ParseMeta(const std::vector<uint8_t>& meta) {
  size_t offset = 0;
  uint64_t num_logical = 0;
  IMGRN_RETURN_IF_ERROR(ReadPodAt(meta, &offset, &num_logical));
  page_table_.assign(num_logical, kInvalidSlot);
  for (uint64_t i = 0; i < num_logical; ++i) {
    IMGRN_RETURN_IF_ERROR(ReadPodAt(meta, &offset, &page_table_[i]));
    if (page_table_[i] != kInvalidSlot && page_table_[i] >= num_slots_) {
      return Status::DataLoss("page table references slot past file end");
    }
  }
  uint64_t num_free = 0;
  IMGRN_RETURN_IF_ERROR(ReadPodAt(meta, &offset, &num_free));
  if (num_free > num_logical) {
    return Status::DataLoss("free list longer than page table");
  }
  free_list_.assign(num_free, kInvalidPageId);
  freed_.assign(num_logical, false);
  for (uint64_t i = 0; i < num_free; ++i) {
    IMGRN_RETURN_IF_ERROR(ReadPodAt(meta, &offset, &free_list_[i]));
    if (free_list_[i] >= num_logical) {
      return Status::DataLoss("free list references page past table end");
    }
    freed_[free_list_[i]] = true;
  }
  return Status::Ok();
}

std::vector<uint8_t> DiskStorageManager::SerializeMeta() const {
  std::vector<uint8_t> meta;
  AppendPod(&meta, static_cast<uint64_t>(page_table_.size()));
  for (SlotId slot : page_table_) AppendPod(&meta, slot);
  AppendPod(&meta, static_cast<uint64_t>(free_list_.size()));
  for (PageId id : free_list_) AppendPod(&meta, id);
  return meta;
}

size_t DiskStorageManager::SlotOffset(SlotId slot) const {
  return kDataStart + static_cast<size_t>(slot) * (kSlotHeaderSize + page_size_);
}

DiskStorageManager::SlotId DiskStorageManager::AllocateSlot() {
  if (!slot_free_.empty()) {
    const SlotId slot = slot_free_.back();
    slot_free_.pop_back();
    return slot;
  }
  return static_cast<SlotId>(num_slots_++);
}

Status DiskStorageManager::WriteSlot(SlotId slot, uint32_t logical,
                                     const uint8_t* payload,
                                     uint32_t payload_size) {
  static_assert(sizeof(SlotHeader) == kSlotHeaderSize);
  static_assert(std::is_trivially_copyable_v<SlotHeader>);
  IMGRN_CHECK_LE(payload_size, page_size_);
  std::vector<uint8_t> buf(kSlotHeaderSize + page_size_, 0);
  SlotHeader header{};
  header.magic = kSlotMagic;
  header.logical = logical;
  header.generation = generation_ + 1;
  header.payload_crc = Crc32c(payload, payload_size);
  header.payload_size = payload_size;
  std::memcpy(buf.data(), &header, sizeof(header));
  std::memcpy(buf.data() + kSlotHeaderSize, payload, payload_size);
  return PWriteFull(buf.data(), buf.size(), SlotOffset(slot));
}

Status DiskStorageManager::ReadSlot(SlotId slot, uint32_t expected_logical,
                                    SlotHeader* header, uint8_t* payload) {
  iovec iov[2] = {{header, sizeof(*header)}, {payload, page_size_}};
  IMGRN_RETURN_IF_ERROR(PReadFull(iov, 2, SlotOffset(slot)));
  if (header->magic != kSlotMagic || header->payload_size > page_size_) {
    return Status::DataLoss("slot " + std::to_string(slot) +
                            " has a corrupt header");
  }
  if (header->logical != expected_logical) {
    return Status::DataLoss("slot " + std::to_string(slot) +
                            " holds page " + std::to_string(header->logical) +
                            ", expected " + std::to_string(expected_logical));
  }
  return Status::Ok();
}

Status DiskStorageManager::WriteHeader(uint64_t generation, SlotId meta_head,
                                       uint32_t meta_count) {
  FileHeader header{};
  std::memcpy(header.magic, kFileMagic, sizeof(kFileMagic));
  header.format_version = kFormatVersion;
  header.endian_tag = kEndianTag;
  header.page_size = static_cast<uint32_t>(page_size_);
  header.app_root = app_root_;
  header.generation = generation;
  header.num_logical = page_table_.size();
  header.num_slots = num_slots_;
  header.meta_head = meta_head;
  header.meta_count = meta_count;
  header.header_crc = HeaderCrc(header);
  const size_t offset = (generation % 2) * kHeaderSlotSize;
  return PWriteFull(&header, sizeof(header), offset);
}

PageId DiskStorageManager::Allocate() {
  if (!free_list_.empty()) {
    const PageId id = free_list_.back();
    free_list_.pop_back();
    freed_[id] = false;
    return id;
  }
  page_table_.push_back(kInvalidSlot);
  freed_.push_back(false);
  return static_cast<PageId>(page_table_.size() - 1);
}

void DiskStorageManager::Deallocate(PageId id) {
  IMGRN_CHECK(id < page_table_.size() && !freed_[id])
      << "Deallocate of dead page " << id;
  const SlotId cur = page_table_[id];
  const SlotId committed =
      id < committed_table_.size() ? committed_table_[id] : kInvalidSlot;
  if (cur != kInvalidSlot) {
    // A committed slot must survive until the next Sync's header flip; a
    // shadow slot is in no durable state and is reusable immediately.
    if (cur == committed) {
      pending_free_.push_back(cur);
    } else {
      slot_free_.push_back(cur);
    }
  }
  if (committed != kInvalidSlot && committed != cur) {
    pending_free_.push_back(committed);
  }
  if (id < committed_table_.size()) committed_table_[id] = kInvalidSlot;
  page_table_[id] = kInvalidSlot;
  freed_[id] = true;
  free_list_.push_back(id);
}

Result<Page*> DiskStorageManager::Read(PageId id, Page* scratch) {
  IMGRN_CHECK(id < page_table_.size() && !freed_[id])
      << "read of dead page " << id;
  IMGRN_CHECK(scratch != nullptr) << "disk-backed reads need a scratch frame";
  IMGRN_CHECK_EQ(scratch->size(), page_size_);
  IMGRN_RETURN_IF_ERROR(
      CheckFault(fault_sites::kDiskRead, static_cast<int64_t>(id)));
  const SlotId slot = page_table_[id];
  if (slot == kInvalidSlot) {
    // Allocated but never committed: reads as zeroes, like a fresh frame.
    scratch->Clear();
    return scratch;
  }
  // The payload lands in the frame directly, and the one CRC pass that
  // seals the frame is also the check against the slot header.
  SlotHeader header{};
  Status status = ReadSlot(slot, id, &header, scratch->mutable_data());
  if (status.ok() && header.payload_size != page_size_) {
    status = Status::DataLoss("page " + std::to_string(id) +
                              " has a short payload on disk");
  }
  if (status.ok()) {
    scratch->Seal();
    if (scratch->checksum() != header.payload_crc) {
      status = Status::DataLoss("page " + std::to_string(id) +
                                " failed its CRC32C check");
    }
  }
  if (!status.ok()) {
    scratch->Clear();  // never hand back the bytes of a failed read
    return status;
  }
  return scratch;
}

Status DiskStorageManager::Commit(PageId id, const Page& frame) {
  IMGRN_CHECK(id < page_table_.size() && !freed_[id])
      << "commit of dead page " << id;
  IMGRN_CHECK_EQ(frame.size(), page_size_);
  IMGRN_RETURN_IF_ERROR(
      CheckFault(fault_sites::kDiskWrite, static_cast<int64_t>(id)));
  const SlotId cur = page_table_[id];
  const SlotId committed =
      id < committed_table_.size() ? committed_table_[id] : kInvalidSlot;
  SlotId target = cur;
  const bool fresh_slot = (cur == kInvalidSlot || cur == committed);
  if (fresh_slot) {
    // First write since the last Sync: copy-on-write into a fresh slot so
    // the committed image stays intact if we crash before the next Sync.
    target = AllocateSlot();
  }
  Status written = WriteSlot(target, id, frame.data(), page_size_);
  if (!written.ok()) {
    if (fresh_slot) slot_free_.push_back(target);
    return written;
  }
  if (fresh_slot && cur != kInvalidSlot) pending_free_.push_back(cur);
  page_table_[id] = target;
  return Status::Ok();
}

Status DiskStorageManager::Sync() {
  using Step = SyncStep;
  const auto step_fault = [](Step step) {
    return CheckFault(fault_sites::kDiskSync, static_cast<int64_t>(step));
  };

  // 1. Push the shadow-written page payloads to stable storage.
  IMGRN_RETURN_IF_ERROR(step_fault(Step::kDataSync));
  if (::fdatasync(fd_) != 0) return ErrnoStatus("fdatasync", path_);

  // 2. Write the new logical state (page table + free list) into a fresh
  //    meta chain. On any failure past this point the new meta slots go to
  //    pending_free_, not slot_free_: a header written but not yet synced
  //    may reference them, and they must not be recycled until a later
  //    successful Sync's header flip supersedes it.
  Status status = step_fault(Step::kMetaWrite);
  std::vector<SlotId> new_meta;
  const auto fail = [&](Status s) {
    pending_free_.insert(pending_free_.end(), new_meta.begin(),
                         new_meta.end());
    return s;
  };
  if (!status.ok()) return fail(status);
  const std::vector<uint8_t> meta = SerializeMeta();
  const size_t chunk = page_size_ - sizeof(SlotId);
  const size_t num_chunks = meta.empty() ? 1 : (meta.size() + chunk - 1) / chunk;
  for (size_t i = 0; i < num_chunks; ++i) new_meta.push_back(AllocateSlot());
  for (size_t i = 0; i < num_chunks; ++i) {
    const size_t begin = i * chunk;
    const size_t len = std::min(chunk, meta.size() - begin);
    const SlotId next = i + 1 < num_chunks ? new_meta[i + 1] : kInvalidSlot;
    std::vector<uint8_t> payload(sizeof(SlotId) + len);
    std::memcpy(payload.data(), &next, sizeof(next));
    std::memcpy(payload.data() + sizeof(SlotId), meta.data() + begin, len);
    status = WriteSlot(new_meta[i], kMetaLogical, payload.data(),
                       static_cast<uint32_t>(payload.size()));
    if (!status.ok()) return fail(status);
  }

  // 3. Make the meta chain durable before anything can point at it.
  status = step_fault(Step::kMetaSync);
  if (!status.ok()) return fail(status);
  if (::fdatasync(fd_) != 0) return fail(ErrnoStatus("fdatasync", path_));

  // 4. Write the next-generation header into the inactive header slot.
  status = step_fault(Step::kHeaderWrite);
  if (!status.ok()) return fail(status);
  status = WriteHeader(generation_ + 1, new_meta[0],
                       static_cast<uint32_t>(new_meta.size()));
  if (!status.ok()) return fail(status);

  // 5. The commit point: once this fsync returns, the new header — and
  //    with it the whole new state — is the one recovery will choose.
  status = step_fault(Step::kHeaderSync);
  if (!status.ok()) return fail(status);
  if (::fsync(fd_) != 0) return fail(ErrnoStatus("fsync", path_));

  // Committed. Everything the old state pinned is now reusable.
  generation_ += 1;
  slot_free_.insert(slot_free_.end(), pending_free_.begin(),
                    pending_free_.end());
  pending_free_.clear();
  slot_free_.insert(slot_free_.end(), committed_meta_.begin(),
                    committed_meta_.end());
  committed_meta_ = std::move(new_meta);
  committed_table_ = page_table_;
  return Status::Ok();
}

Status DiskStorageManager::PReadFull(iovec* iov, int iovcnt,
                                     size_t offset) const {
  while (iovcnt > 0) {
    const ssize_t n = ::preadv(fd_, iov, iovcnt, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("preadv", path_);
    }
    if (n == 0) {
      return Status::DataLoss("short read at offset " +
                              std::to_string(offset) + " in " + path_);
    }
    // Step past the buffers this call filled; resume inside a partial one.
    offset += static_cast<size_t>(n);
    size_t left = static_cast<size_t>(n);
    while (iovcnt > 0 && left >= iov->iov_len) {
      left -= iov->iov_len;
      ++iov;
      --iovcnt;
    }
    if (iovcnt > 0) {
      iov->iov_base = static_cast<uint8_t*>(iov->iov_base) + left;
      iov->iov_len -= left;
    }
  }
  return Status::Ok();
}

Status DiskStorageManager::PWriteFull(const void* buf, size_t count,
                                      size_t offset) const {
  const uint8_t* src = static_cast<const uint8_t*>(buf);
  size_t done = 0;
  while (done < count) {
    const ssize_t n = ::pwrite(fd_, src + done, count - done,
                               static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("pwrite", path_);
    }
    done += static_cast<size_t>(n);
  }
  return Status::Ok();
}

}  // namespace imgrn
