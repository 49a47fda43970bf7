#include "storage/page_file.h"

#include "common/check.h"

namespace upi::storage {

PageFile::PageFile(sim::SimDisk* disk, std::string name, uint32_t page_size)
    : disk_(disk),
      name_(std::move(name)),
      name_hash_(std::hash<std::string>()(name_)),
      page_size_(page_size) {
  UPI_CHECK(page_size_ >= 512, "page size below device sector size");
}

void PageFile::CheckLiveLocked(PageId id, const char* op) const {
  UPI_CHECK(id < pages_.size() && pages_[id].in_use, op);
}

PageId PageFile::Allocate() {
  std::lock_guard<sync::Mutex> lock(mu_);
  if (!free_list_.empty()) {
    PageId id = free_list_.back();
    free_list_.pop_back();
    pages_[id].in_use = true;
    data_[id].clear();
    return id;
  }
  PageId id = static_cast<PageId>(pages_.size());
  pages_.push_back(PageMeta{disk_->Allocate(page_size_), true});
  data_.emplace_back();
  return id;
}

void PageFile::Free(PageId id) {
  std::lock_guard<sync::Mutex> lock(mu_);
  CheckLiveLocked(id, "Free of an unallocated or already-freed page");
  pages_[id].in_use = false;
  data_[id].clear();
  free_list_.push_back(id);
}

void PageFile::Read(PageId id, std::string* out) {
  uint64_t addr;
  {
    std::lock_guard<sync::Mutex> lock(mu_);
    CheckLiveLocked(id, "Read of an unallocated or freed page");
    addr = pages_[id].addr;
    *out = data_[id];
  }
  disk_->Read(addr, page_size_);
}

void PageFile::Write(PageId id, std::string_view data) {
  uint64_t addr;
  {
    std::lock_guard<sync::Mutex> lock(mu_);
    CheckLiveLocked(id, "Write to an unallocated or freed page");
    UPI_CHECK(data.size() <= page_size_, "record larger than the page");
    addr = pages_[id].addr;
    data_[id].assign(data.data(), data.size());
  }
  disk_->Write(addr, page_size_);
}

uint64_t PageFile::AddressOf(PageId id) const {
  std::lock_guard<sync::Mutex> lock(mu_);
  UPI_CHECK(id < pages_.size(), "AddressOf out of range");
  return pages_[id].addr;
}

}  // namespace upi::storage
