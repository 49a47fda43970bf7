// Per-file facade over (PageFile, BufferPool) with RAII page pinning.
// All index and heap structures do their page I/O through a Pager.
//
// A PageRef separates reading from writing: bytes() is the read accessor,
// and data() is the mutable one. Every data() call drops the frame's
// published decode (see BufferPool's per-frame decode) before handing out
// the pointer, so a writer can never leave a stale parse behind, whether or
// not it goes on to MarkDirty(). Readers therefore use bytes(), and
// decode()/Publish() to reuse or share the parse of the pinned page.
#pragma once

#include <memory>
#include <string>
#include <utility>

#include "storage/buffer_pool.h"
#include "storage/page_file.h"

namespace upi::storage {

class Pager;

/// \brief A pinned reference to one cached page. Unpins on destruction.
/// Call MarkDirty() after mutating data().
class PageRef {
 public:
  PageRef() = default;
  PageRef(BufferPool* pool, PageFile* file, PageId id, std::string* data,
          const PageDecode* decode)
      : pool_(pool), file_(file), id_(id), data_(data), decode_(decode) {}
  PageRef(PageRef&& o) noexcept { *this = std::move(o); }
  PageRef& operator=(PageRef&& o) noexcept {
    Release();
    pool_ = o.pool_;
    file_ = o.file_;
    id_ = o.id_;
    data_ = o.data_;
    decode_ = o.decode_;
    o.pool_ = nullptr;
    o.data_ = nullptr;
    o.decode_ = nullptr;
    return *this;
  }
  PageRef(const PageRef&) = delete;
  PageRef& operator=(const PageRef&) = delete;
  ~PageRef() { Release(); }

  bool valid() const { return data_ != nullptr; }
  PageId id() const { return id_; }
  /// The page's bytes, for reading.
  const std::string& bytes() const { return *data_; }
  /// The page's bytes, for writing: drops the frame's decode first.
  std::string* data() {
    pool_->DropDecode(file_, id_);
    decode_ = nullptr;
    return data_;
  }
  void MarkDirty() {
    pool_->MarkDirty(file_, id_);
    decode_ = nullptr;
  }

  /// The frame's published parse of bytes(), or null if none is.
  const PageDecode* decode() const { return decode_; }
  /// Publishes `decode` as the parse of bytes() unless another reader
  /// already did; returns the one installed, valid while this pin lasts and
  /// the page is not modified.
  const PageDecode* Publish(std::unique_ptr<const PageDecode> decode) {
    decode_ = pool_->InstallDecode(file_, id_, std::move(decode));
    return decode_;
  }

  void Release() {
    if (pool_ != nullptr && data_ != nullptr) pool_->Unpin(file_, id_);
    pool_ = nullptr;
    data_ = nullptr;
    decode_ = nullptr;
  }

 private:
  BufferPool* pool_ = nullptr;
  PageFile* file_ = nullptr;
  PageId id_ = kInvalidPage;
  std::string* data_ = nullptr;
  const PageDecode* decode_ = nullptr;
};

class Pager {
 public:
  Pager(BufferPool* pool, PageFile* file) : pool_(pool), file_(file) {}

  /// Pins an existing page.
  PageRef Get(PageId id) {
    const PageDecode* decode = nullptr;
    std::string* data = pool_->Fetch(file_, id, /*create=*/false, &decode);
    return PageRef(pool_, file_, id, data, decode);
  }

  /// Allocates and pins a fresh page (no read charged).
  PageRef New(PageId* id) {
    *id = file_->Allocate();
    return PageRef(pool_, file_, *id, pool_->Fetch(file_, *id, /*create=*/true),
                   /*decode=*/nullptr);
  }

  /// Frees a page; its cached frame is discarded without writeback.
  void Free(PageId id) {
    pool_->Discard(file_, id);
    file_->Free(id);
  }

  uint32_t page_size() const { return file_->page_size(); }
  PageFile* file() const { return file_; }
  BufferPool* pool() const { return pool_; }

 private:
  BufferPool* pool_;
  PageFile* file_;
};

}  // namespace upi::storage
