#include "btree/btree.h"

namespace upi::btree {

Cursor::Cursor(const BTree* tree, PageId leaf_id, std::string_view key)
    : tree_(tree) {
  if (!CopyLeaf(leaf_id, key, /*from_start=*/false)) return;
  valid_ = true;
  SkipForwardToValid();
}

bool Cursor::CopyLeaf(PageId id, std::string_view key, bool from_start) {
  storage::PageRef ref = tree_->pager_.Get(id);
  const NodeView* view = nullptr;
  if (!NodeView::ForPage(&ref, &view).ok() || !view->is_leaf()) return false;
  // The copy has the frame's layout, so the view's offsets address it too.
  NodeView::Pos pos = from_start
                          ? NodeView::Pos{0, static_cast<uint32_t>(kNodeHeaderSize)}
                          : view->LowerBound(key);
  page_.assign(ref.bytes());
  right_sibling_ = view->right_sibling();
  remaining_ = view->count() - pos.index;
  if (remaining_ > 0) DecodeAt(pos.offset);
  return true;
}

void Cursor::MaybePrefetch() {
  if (readahead_ == 0) return;
  if (prefetch_remaining_ > 0) {
    --prefetch_remaining_;
    return;
  }
  // Fetch the next readahead_ leaves of the chain in one burst; they are
  // then pool hits when the merge actually reaches them.
  PageId next = right_sibling_;
  for (uint32_t i = 0; i < readahead_ && next != kInvalidPage; ++i) {
    storage::PageRef ref = tree_->pager_.Get(next);
    const NodeView* view = nullptr;
    if (!NodeView::ForPage(&ref, &view).ok()) break;
    next = view->right_sibling();
  }
  prefetch_remaining_ = readahead_;
}

void Cursor::LoadLeaf(PageId id) {
  if (id == kInvalidPage || !CopyLeaf(id, {}, /*from_start=*/true)) {
    valid_ = false;
    return;
  }
  MaybePrefetch();
}

void Cursor::DecodeAt(uint32_t offset) {
  std::string_view key, value;
  NodeView::DecodeLeafEntry(page_, offset, &key, &value);
  key_off_ = static_cast<uint32_t>(key.data() - page_.data());
  key_len_ = static_cast<uint32_t>(key.size());
  value_off_ = static_cast<uint32_t>(value.data() - page_.data());
  value_len_ = static_cast<uint32_t>(value.size());
}

void Cursor::SkipForwardToValid() {
  while (valid_ && remaining_ == 0) {
    if (right_sibling_ == kInvalidPage) {
      valid_ = false;
      return;
    }
    LoadLeaf(right_sibling_);
  }
}

void Cursor::Next() {
  if (!valid_) return;
  if (--remaining_ > 0) {
    DecodeAt(value_off_ + value_len_);
    return;
  }
  SkipForwardToValid();
}

}  // namespace upi::btree
