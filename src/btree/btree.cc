#include "btree/btree.h"

#include "common/check.h"


namespace upi::btree {

BTree::BTree(storage::Pager pager) : pager_(pager), root_(kInvalidPage), height_(1) {
  storage::PageRef ref = pager_.New(&root_);
  Node n;
  n.is_leaf = true;
  n.Serialize(ref.data());
  ref.MarkDirty();
}

BTree BTree::FromBuilt(storage::Pager pager, PageId root, uint32_t height,
                       uint64_t num_entries, uint64_t num_leaf_pages) {
  return BTree(pager, root, height, num_entries, num_leaf_pages);
}

Status BTree::ReadNode(PageId id, Node* out) const {
  storage::PageRef ref = pager_.Get(id);
  return Node::Deserialize(*ref.data(), out);
}

void BTree::WriteNode(PageId id, const Node& node) {
  storage::PageRef ref = pager_.Get(id);
  node.Serialize(ref.data());
  UPI_CHECK(ref.data()->size() <= pager_.page_size(),
            "serialized B-tree node overflows its page");
  ref.MarkDirty();
}

// ---------------------------------------------------------------------------
// Put
// ---------------------------------------------------------------------------

Result<bool> BTree::Put(std::string_view key, std::string_view value) {
  if (kNodeHeaderSize + Node::LeafEntrySize(key, value) > MaxNodeBytes()) {
    return Status::InvalidArgument("btree entry larger than page");
  }
  SplitResult split;
  bool added = false;
  UPI_RETURN_NOT_OK(PutRec(root_, key, value, &split, &added));
  if (split.split) {
    Node new_root;
    new_root.is_leaf = false;
    new_root.children.push_back(ChildEntry{"", root_});
    new_root.children.push_back(ChildEntry{split.sep_key, split.right});
    PageId new_root_id;
    storage::PageRef ref = pager_.New(&new_root_id);
    new_root.Serialize(ref.data());
    ref.MarkDirty();
    root_ = new_root_id;
    ++height_;
  }
  if (added) ++num_entries_;
  return added;
}

Status BTree::PutRec(PageId page_id, std::string_view key, std::string_view value,
                     SplitResult* split, bool* added) {
  Node node;
  UPI_RETURN_NOT_OK(ReadNode(page_id, &node));

  if (node.is_leaf) {
    size_t idx = node.LowerBound(key);
    if (idx < node.entries.size() && node.entries[idx].key == key) {
      node.entries[idx].value.assign(value.data(), value.size());
      *added = false;
    } else {
      node.entries.insert(node.entries.begin() + idx,
                          LeafEntry{std::string(key), std::string(value)});
      *added = true;
    }
  } else {
    size_t ci = node.ChildIndex(key);
    SplitResult child_split;
    UPI_RETURN_NOT_OK(PutRec(node.children[ci].child, key, value, &child_split, added));
    if (!child_split.split) return Status::OK();  // nothing changed here
    node.children.insert(node.children.begin() + ci + 1,
                         ChildEntry{child_split.sep_key, child_split.right});
  }

  if (node.SerializedSize() <= MaxNodeBytes()) {
    WriteNode(page_id, node);
    return Status::OK();
  }

  // Split: move the tail half (by serialized bytes) into a fresh right node.
  Node right;
  right.is_leaf = node.is_leaf;
  size_t total = node.SerializedSize() - kNodeHeaderSize;
  size_t acc = 0;
  size_t cut = 0;
  size_t count = node.Count();
  for (; cut < count - 1; ++cut) {
    size_t e = node.is_leaf
                   ? Node::LeafEntrySize(node.entries[cut].key, node.entries[cut].value)
                   : Node::ChildEntrySize(node.children[cut].key);
    acc += e;
    if (acc >= total / 2) {
      ++cut;
      break;
    }
  }
  if (cut == 0) cut = 1;
  if (cut >= count) cut = count - 1;

  if (node.is_leaf) {
    right.entries.assign(node.entries.begin() + cut, node.entries.end());
    node.entries.resize(cut);
    split->sep_key = right.entries[0].key;
  } else {
    right.children.assign(node.children.begin() + cut, node.children.end());
    node.children.resize(cut);
    split->sep_key = right.children[0].key;
    right.children[0].key.clear();  // leftmost child of the new node
  }

  PageId right_id;
  {
    storage::PageRef ref = pager_.New(&right_id);
    if (node.is_leaf) {
      right.right_sibling = node.right_sibling;
      node.right_sibling = right_id;
    }
    right.Serialize(ref.data());
    UPI_CHECK(ref.data()->size() <= pager_.page_size(),
              "split B-tree node overflows its page");
    ref.MarkDirty();
  }
  WriteNode(page_id, node);
  if (node.is_leaf) ++num_leaf_pages_;
  split->split = true;
  split->right = right_id;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Get / Seek
// ---------------------------------------------------------------------------

Status BTree::FindLeaf(std::string_view key, storage::PageRef* ref,
                       NodeView* view, PageId* leaf_id) const {
  PageId id = root_;
  for (;;) {
    *ref = pager_.Get(id);
    UPI_RETURN_NOT_OK(NodeView::Open(*ref->data(), view));
    if (view->is_leaf()) break;
    if (view->count() == 0) return Status::Corruption("empty internal btree node");
    id = view->ChildFor(key);
    ref->Release();
  }
  *leaf_id = id;
  return Status::OK();
}

Result<std::string> BTree::Get(std::string_view key) const {
  storage::PageRef ref;
  NodeView view;
  PageId id = kInvalidPage;
  UPI_RETURN_NOT_OK(FindLeaf(key, &ref, &view, &id));
  std::string_view value;
  if (view.Find(key, &value)) return std::string(value);
  return Status::NotFound("key not in btree");
}

Cursor BTree::Seek(std::string_view key) const {
  PageId id = kInvalidPage;
  {
    storage::PageRef ref;
    NodeView view;
    if (!FindLeaf(key, &ref, &view, &id).ok()) return Cursor();
  }
  return Cursor(this, id, key);
}

// The empty key sorts first and no separator past a node's first is empty,
// so this descends along the leftmost children.
Cursor BTree::SeekToFirst() const { return Seek(std::string_view()); }

// ---------------------------------------------------------------------------
// Delete
// ---------------------------------------------------------------------------

Status BTree::Delete(std::string_view key) {
  bool underflow = false;
  UPI_RETURN_NOT_OK(DeleteRec(root_, key, &underflow));
  --num_entries_;
  // Shrink the root while it is an internal node with a single child.
  Node root_node;
  UPI_RETURN_NOT_OK(ReadNode(root_, &root_node));
  while (!root_node.is_leaf && root_node.children.size() == 1) {
    PageId old_root = root_;
    root_ = root_node.children[0].child;
    pager_.Free(old_root);
    --height_;
    UPI_RETURN_NOT_OK(ReadNode(root_, &root_node));
  }
  return Status::OK();
}

Status BTree::DeleteRec(PageId page_id, std::string_view key, bool* underflow) {
  Node node;
  UPI_RETURN_NOT_OK(ReadNode(page_id, &node));

  if (node.is_leaf) {
    size_t idx = node.LowerBound(key);
    if (idx >= node.entries.size() || node.entries[idx].key != key) {
      return Status::NotFound("key not in btree");
    }
    node.entries.erase(node.entries.begin() + idx);
    WriteNode(page_id, node);
    *underflow = node.SerializedSize() < UnderflowBytes();
    return Status::OK();
  }

  size_t ci = node.ChildIndex(key);
  bool child_underflow = false;
  UPI_RETURN_NOT_OK(DeleteRec(node.children[ci].child, key, &child_underflow));
  if (child_underflow) {
    UPI_RETURN_NOT_OK(TryMergeChild(&node, ci));
    WriteNode(page_id, node);
  }
  *underflow = node.SerializedSize() < UnderflowBytes() || node.children.size() < 2;
  return Status::OK();
}

Status BTree::TryMergeChild(Node* parent, size_t ci) {
  size_t left_i, right_i;
  if (ci + 1 < parent->children.size()) {
    left_i = ci;
    right_i = ci + 1;
  } else if (ci > 0) {
    left_i = ci - 1;
    right_i = ci;
  } else {
    return Status::OK();  // only child; root shrink handles it
  }

  PageId left_id = parent->children[left_i].child;
  PageId right_id = parent->children[right_i].child;
  Node left, right;
  UPI_RETURN_NOT_OK(ReadNode(left_id, &left));
  UPI_RETURN_NOT_OK(ReadNode(right_id, &right));
  size_t combined = left.SerializedSize() + right.SerializedSize() - kNodeHeaderSize;
  if (!left.is_leaf) {
    // The right node's leftmost child gains the parent separator as its key.
    combined += parent->children[right_i].key.size();
  }
  if (combined > MaxNodeBytes() * 9 / 10) return Status::OK();  // would overflow

  if (left.is_leaf) {
    left.entries.insert(left.entries.end(),
                        std::make_move_iterator(right.entries.begin()),
                        std::make_move_iterator(right.entries.end()));
    left.right_sibling = right.right_sibling;
  } else {
    right.children[0].key = parent->children[right_i].key;
    left.children.insert(left.children.end(),
                         std::make_move_iterator(right.children.begin()),
                         std::make_move_iterator(right.children.end()));
  }
  WriteNode(left_id, left);
  pager_.Free(right_id);
  parent->children.erase(parent->children.begin() + right_i);
  if (left.is_leaf) --num_leaf_pages_;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Validation (tests only)
// ---------------------------------------------------------------------------

Status BTree::ValidateInvariants() const {
  uint64_t entries = 0;
  PageId leftmost = kInvalidPage;
  UPI_RETURN_NOT_OK(ValidateRec(root_, 1, "", "", &entries, &leftmost));
  if (entries != num_entries_) {
    return Status::Corruption("entry count mismatch: counted " +
                              std::to_string(entries) + " vs tracked " +
                              std::to_string(num_entries_));
  }
  // Leaf chain must visit every entry in ascending order.
  uint64_t chain_entries = 0;
  uint64_t chain_pages = 0;
  std::string prev;
  bool first = true;
  Node n;
  PageId id = leftmost;
  while (id != kInvalidPage) {
    UPI_RETURN_NOT_OK(ReadNode(id, &n));
    if (!n.is_leaf) return Status::Corruption("non-leaf in leaf chain");
    ++chain_pages;
    for (const auto& e : n.entries) {
      if (!first && e.key <= prev) return Status::Corruption("leaf chain disorder");
      prev = e.key;
      first = false;
      ++chain_entries;
    }
    id = n.right_sibling;
  }
  if (chain_entries != num_entries_) {
    return Status::Corruption("leaf chain entry count mismatch");
  }
  if (chain_pages != num_leaf_pages_) {
    return Status::Corruption("leaf page count mismatch: counted " +
                              std::to_string(chain_pages) + " vs tracked " +
                              std::to_string(num_leaf_pages_));
  }
  return Status::OK();
}

Status BTree::ValidateRec(PageId page_id, uint32_t depth, std::string_view lo,
                          std::string_view hi, uint64_t* entries,
                          PageId* leftmost_leaf) const {
  Node node;
  UPI_RETURN_NOT_OK(ReadNode(page_id, &node));
  if (node.SerializedSize() > MaxNodeBytes()) {
    return Status::Corruption("oversized node");
  }
  if (node.is_leaf) {
    if (depth != height_) return Status::Corruption("uneven leaf depth");
    if (*leftmost_leaf == kInvalidPage) *leftmost_leaf = page_id;
    for (size_t i = 0; i < node.entries.size(); ++i) {
      const std::string& k = node.entries[i].key;
      if (i > 0 && k <= node.entries[i - 1].key) {
        return Status::Corruption("leaf disorder");
      }
      if (!lo.empty() && k < lo) return Status::Corruption("leaf key below bound");
      if (!hi.empty() && k >= hi) return Status::Corruption("leaf key above bound");
    }
    *entries += node.entries.size();
    return Status::OK();
  }
  if (node.children.empty()) return Status::Corruption("empty internal node");
  if (!node.children[0].key.empty()) {
    return Status::Corruption("internal first key not empty");
  }
  for (size_t i = 0; i < node.children.size(); ++i) {
    if (i >= 1 && node.children[i].key.empty()) {
      return Status::Corruption("empty separator beyond first child");
    }
    if (i > 1 && node.children[i].key <= node.children[i - 1].key) {
      return Status::Corruption("internal separator disorder");
    }
    std::string_view child_lo = i == 0 ? lo : std::string_view(node.children[i].key);
    std::string_view child_hi =
        i + 1 < node.children.size() ? std::string_view(node.children[i + 1].key) : hi;
    UPI_RETURN_NOT_OK(ValidateRec(node.children[i].child, depth + 1, child_lo,
                                  child_hi, entries, leftmost_leaf));
  }
  return Status::OK();
}

}  // namespace upi::btree
