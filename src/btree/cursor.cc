#include "btree/btree.h"

namespace upi::btree {

Cursor::Cursor(const BTree* tree, PageId leaf_id, std::string_view key)
    : tree_(tree) {
  NodeView view;
  if (!CopyLeaf(leaf_id, &view)) return;
  NodeView::Pos pos = view.LowerBound(key);
  remaining_ = view.count() - pos.index;
  if (remaining_ > 0) DecodeAt(pos.offset);
  valid_ = true;
  SkipForwardToValid();
}

bool Cursor::CopyLeaf(PageId id, NodeView* view) {
  {
    storage::PageRef ref = tree_->pager_.Get(id);
    page_.assign(*ref.data());
  }
  if (!NodeView::Open(page_, view).ok()) return false;
  right_sibling_ = view->right_sibling();
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
    NodeView view;
    if (!NodeView::Open(*ref.data(), &view).ok()) break;
    next = view.right_sibling();
  }
  prefetch_remaining_ = readahead_;
}

void Cursor::LoadLeaf(PageId id) {
  NodeView view;
  if (id == kInvalidPage || !CopyLeaf(id, &view)) {
    valid_ = false;
    return;
  }
  remaining_ = view.count();
  if (remaining_ > 0) DecodeAt(static_cast<uint32_t>(kNodeHeaderSize));
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
