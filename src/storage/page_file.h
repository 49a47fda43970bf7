// A page-addressed file on the simulated disk.
//
// Page *contents* live in RAM (the SimDisk only does cost accounting); every
// Read/Write charges the disk for a full page transfer at the page's fixed
// device address. Pages freed back to the file are reused by later
// allocations — which is how B+Tree churn produces physical fragmentation,
// the effect behind the paper's Section 4.1 maintenance problem.
//
// Thread-safe: allocation metadata, the free list, and the RAM backing store
// are guarded by an internal mutex, honoring the concurrency contract the
// buffer pool documents (background builders allocate/write while foreground
// queries read other pages of the same file). The SimDisk charge for a
// Read/Write is issued *after* the metadata lock is released, so concurrent
// clients of one file serialize only on the in-RAM bookkeeping, never on the
// (possibly realtime-sleeping) simulated device. Per-page content access is
// not additionally ordered here: a page is only written by the single thread
// building it, per the buffer pool's contract.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "sim/sim_disk.h"
#include "sync/sync.h"

namespace upi::storage {

using PageId = uint32_t;
inline constexpr PageId kInvalidPage = UINT32_MAX;

class PageFile {
 public:
  PageFile(sim::SimDisk* disk, std::string name, uint32_t page_size);

  PageFile(const PageFile&) = delete;
  PageFile& operator=(const PageFile&) = delete;

  /// Allocates a page, preferring the free list (physical reuse) and falling
  /// back to fresh address space at the end of the device.
  PageId Allocate();

  /// Returns a page to the free list. Contents become undefined. A caller
  /// that cached this page through a BufferPool must Discard the frame
  /// first (Pager::Free does): a stale *dirty* frame left behind would
  /// eventually be flushed into a freed (or recycled) page — the pool's
  /// create-path reset only covers clean re-use, and PageFile hard-aborts
  /// on a write to a freed page rather than corrupt a recycled one.
  void Free(PageId id);

  /// Reads a full page (charges one page transfer; sequential iff the disk
  /// head is already at this page's address).
  void Read(PageId id, std::string* out);

  /// Writes a full page. `data` may be shorter than page_size; the device
  /// transfer is always a whole page.
  void Write(PageId id, std::string_view data);

  /// Charges the paper's Costinit for opening this file.
  void ChargeOpen() { disk_->ChargeFileOpen(); }

  uint32_t page_size() const { return page_size_; }
  /// Pages currently in use (excludes freed pages).
  uint64_t num_active_pages() const {
    std::lock_guard<sync::Mutex> lock(mu_);
    return pages_.size() - free_list_.size();
  }
  /// Total address-space footprint including freed-but-not-reclaimed pages —
  /// this is the "DB size" the paper reports in Table 8.
  uint64_t size_bytes() const {
    std::lock_guard<sync::Mutex> lock(mu_);
    return pages_.size() * uint64_t{page_size_};
  }
  const std::string& name() const { return name_; }
  /// Hash of name(), computed once: the buffer pool shards on it instead of
  /// this object's address, which changes from run to run.
  size_t name_hash() const { return name_hash_; }
  sim::SimDisk* disk() const { return disk_; }

  /// Physical device address of a page (for tests asserting layout).
  uint64_t AddressOf(PageId id) const;

 private:
  struct PageMeta {
    uint64_t addr = 0;
    bool in_use = false;
  };

  /// Hard-checks that `id` names a live page. Caller must hold mu_.
  void CheckLiveLocked(PageId id, const char* op) const;

  sim::SimDisk* disk_;
  std::string name_;
  const size_t name_hash_;
  const uint32_t page_size_;
  mutable sync::Mutex mu_{
      sync::LockRank::kPageFile};  // guards pages_, data_, free_list_
  std::vector<PageMeta> pages_;
  std::vector<std::string> data_;  // RAM backing store, index == PageId
  std::vector<PageId> free_list_;
};

}  // namespace upi::storage
