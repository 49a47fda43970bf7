// One B+Tree node's page format, with two ways to read it.
//
// Page layout: a 12-byte header (byte 0 is 1 for a leaf, then a fixed32 entry
// count at offset 4 and a fixed32 right-sibling page id at offset 8), followed
// by `count` entries. A leaf entry is varint key length, key, varint value
// length, value; an internal entry is varint key length, key, fixed32 child.
//
// Reads never decode a page into owning strings: NodeView validates the bytes
// of a pinned page in one pass and searches them in place. The write path
// (insert, split, delete, merge) deserializes into an owning Node, mutates
// it and serializes it back, trading some CPU for a much simpler and more
// obviously correct implementation than in-place slotted updates. All I/O
// cost accounting happens at the page layer, so neither choice affects any
// simulated-device result.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "storage/page_file.h"

namespace upi::btree {

using storage::PageId;
using storage::kInvalidPage;

/// Entry of a leaf node: a full (key, value) record.
struct LeafEntry {
  std::string key;
  std::string value;
};

/// Entry of an internal node: separator key plus child pointer. The first
/// entry's key is always empty (the leftmost child has no lower separator).
struct ChildEntry {
  std::string key;
  PageId child = kInvalidPage;
};

struct Node {
  bool is_leaf = true;
  PageId right_sibling = kInvalidPage;  // leaf chain; unused for internal
  std::vector<LeafEntry> entries;       // leaf payload
  std::vector<ChildEntry> children;     // internal payload

  size_t Count() const { return is_leaf ? entries.size() : children.size(); }

  /// Bytes this node occupies when serialized.
  size_t SerializedSize() const;

  void Serialize(std::string* out) const;
  static Status Deserialize(std::string_view page, Node* out);

  /// Serialized size contribution of one leaf entry.
  static size_t LeafEntrySize(std::string_view key, std::string_view value);
  /// Serialized size contribution of one internal entry.
  static size_t ChildEntrySize(std::string_view key);

  /// Index of the first leaf entry with entry.key >= key (lower bound).
  size_t LowerBound(std::string_view key) const;

  /// For internal nodes: index of the child subtree that covers `key`
  /// (largest i with children[i].key <= key; index 0 if none).
  size_t ChildIndex(std::string_view key) const;
};

inline constexpr size_t kNodeHeaderSize = 12;

/// \brief Read-only view of a serialized node, searched in place.
///
/// Open() makes exactly the bounds checks Node::Deserialize makes and copies
/// nothing; a view is valid while the bytes it was opened over are. In the
/// same pass it records the offsets of at most kMaxSamples evenly spaced
/// entries (every entry of a node with no more than that), so a search is a
/// binary search over those plus a forward walk shorter than their spacing.
class NodeView {
 public:
  /// Entry index within the node and the byte offset where the entry starts.
  struct Pos {
    uint32_t index = 0;
    uint32_t offset = 0;
  };

  /// Validates `page`; on Corruption `out` must not be used.
  static Status Open(std::string_view page, NodeView* out);

  bool is_leaf() const { return is_leaf_; }
  uint32_t count() const { return count_; }
  PageId right_sibling() const { return right_sibling_; }

  /// Leaf nodes: the first entry with key >= `key` (index == count() if
  /// none), as Node::LowerBound.
  Pos LowerBound(std::string_view key) const;
  /// Leaf nodes: the value stored under exactly `key`, if any.
  bool Find(std::string_view key, std::string_view* value) const;
  /// Internal nodes with count() > 0: the child subtree that covers `key`,
  /// as Node::ChildIndex.
  PageId ChildFor(std::string_view key) const;

  /// Decodes the leaf entry starting at `offset` of a validated leaf page;
  /// returns the offset of the entry after it.
  static uint32_t DecodeLeafEntry(std::string_view page, uint32_t offset,
                                  std::string_view* key,
                                  std::string_view* value);

 private:
  static constexpr uint32_t kMaxSamples = 256;

  /// Key of the entry at `offset`; `*after` becomes the offset past the key.
  std::string_view KeyAt(uint32_t offset, uint32_t* after) const;
  /// Offset of the entry following the one at `offset`.
  uint32_t NextEntry(uint32_t offset) const;
  /// Index of the last sample whose key is below (or with `inclusive`, at
  /// most) `key`, searching samples [first, num_samples_); `first - 1` if
  /// none.
  int64_t LastSampleBefore(std::string_view key, uint32_t first,
                           bool inclusive) const;

  std::string_view page_;
  bool is_leaf_ = true;
  uint32_t count_ = 0;
  PageId right_sibling_ = kInvalidPage;
  uint32_t sample_shift_ = 0;  // samples_[i] is entry i << sample_shift_
  uint32_t num_samples_ = 0;
  uint32_t samples_[kMaxSamples] = {};
};

}  // namespace upi::btree
