// Disk-paged B+Tree over byte-string keys (BerkeleyDB-style memcmp order).
//
// This is the substrate under every discrete-distribution structure in the
// paper: the UPI heap file itself (clustered on attr ‖ prob-desc ‖ TupleID),
// the cutoff index, secondary indexes, and the PII baseline. Keys are unique;
// Put has upsert semantics (like BDB's DB->put without DUPSORT — composite
// keys carry the TupleID, so logical duplicates are distinct keys here).
//
// Structural behaviour intentionally mirrors what the paper depends on:
//  * node splits allocate pages at the end of the file (or from the free
//    list), so random-order insertion physically scatters the leaf chain —
//    the fragmentation of Section 4.1;
//  * bulk loading (BTreeBuilder) writes leaves in physical order, so a
//    freshly built or merged UPI scans sequentially;
//  * underflowing nodes merge with a sibling, freeing pages for reuse.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "btree/node.h"
#include "common/status.h"
#include "storage/pager.h"

namespace upi::btree {

class BTree;

/// \brief Forward iterator positioned on a leaf entry.
///
/// The cursor holds a private byte copy of the current leaf (one page-sized
/// memcpy per leaf, no per-entry decoding; count, sibling and the start
/// offset come from the pinned frame's NodeView) and the offsets of the
/// current key and value within it; key() and value() are views into that
/// copy, valid until the next Next() or until the cursor is destroyed or
/// assigned. It does not pin the page, so it stays safe if the pool evicts
/// it, and it may be copied or moved mid-walk, but it must not be used
/// across tree modifications.
class Cursor {
 public:
  Cursor() = default;

  bool Valid() const { return valid_; }
  std::string_view key() const {
    return std::string_view(page_.data() + key_off_, key_len_);
  }
  std::string_view value() const {
    return std::string_view(page_.data() + value_off_, value_len_);
  }
  /// Advances to the next entry in key order (following the leaf chain).
  void Next();

  /// Enables leaf read-ahead: every `pages` leaves, the next `pages` leaves
  /// of the chain are fetched in one sequential burst. This models the
  /// buffered streaming a storage engine does during merges — without it, a
  /// k-way merge would charge one head movement per page as it alternates
  /// between source files, which no real merge does (Section 4.3's merge
  /// costs "about the same as sequentially reading all files").
  void SetReadahead(uint32_t pages) { readahead_ = pages; }

 private:
  friend class BTree;
  /// Positions on the first entry >= `key` of leaf `leaf_id`, or further
  /// along the chain.
  Cursor(const BTree* tree, PageId leaf_id, std::string_view key);
  /// Copies leaf `id` into page_ and makes its first entry >= `key` (with
  /// `from_start`, its first entry) current; false if `id` is not a valid
  /// leaf.
  bool CopyLeaf(PageId id, std::string_view key, bool from_start);
  void LoadLeaf(PageId id);
  /// Makes the entry at byte offset `offset` of page_ current.
  void DecodeAt(uint32_t offset);
  void SkipForwardToValid();
  void MaybePrefetch();

  const BTree* tree_ = nullptr;
  std::string page_;  // bytes of the current leaf
  PageId right_sibling_ = kInvalidPage;
  uint32_t remaining_ = 0;  // entries from the current one to the leaf's end
  uint32_t key_off_ = 0;
  uint32_t key_len_ = 0;
  uint32_t value_off_ = 0;
  uint32_t value_len_ = 0;
  bool valid_ = false;
  uint32_t readahead_ = 0;
  uint32_t prefetch_remaining_ = 0;
};

class BTree {
 public:
  /// Creates a fresh empty tree (allocates the root leaf).
  explicit BTree(storage::Pager pager);

  /// Inserts or replaces. Returns true iff a new key was added.
  Result<bool> Put(std::string_view key, std::string_view value);

  /// Removes an exact key.
  Status Delete(std::string_view key);

  /// Point lookup of an exact key.
  Result<std::string> Get(std::string_view key) const;

  /// Cursor on the first entry with entry.key >= key.
  Cursor Seek(std::string_view key) const;
  Cursor SeekToFirst() const;

  uint32_t height() const { return height_; }
  uint64_t num_entries() const { return num_entries_; }
  uint64_t size_bytes() const { return pager_.file()->size_bytes(); }
  /// Maintained incrementally (splits/merges/bulk load), so reading it costs
  /// no I/O — the planner polls it on every query. ValidateInvariants checks
  /// it against the actual leaf chain.
  uint64_t num_leaf_pages() const { return num_leaf_pages_; }
  storage::Pager* pager() const { return &pager_; }
  PageId root() const { return root_; }

  /// Walks the whole tree verifying ordering, separator, size, and leaf-chain
  /// invariants. Used by tests (including property tests after random
  /// workloads); O(n).
  Status ValidateInvariants() const;

  /// Used by BTreeBuilder to hand over a bulk-loaded tree.
  static BTree FromBuilt(storage::Pager pager, PageId root, uint32_t height,
                         uint64_t num_entries, uint64_t num_leaf_pages);

 private:
  friend class Cursor;

  struct SplitResult {
    bool split = false;
    std::string sep_key;
    PageId right = kInvalidPage;
  };

  BTree(storage::Pager pager, PageId root, uint32_t height, uint64_t n,
        uint64_t leaves)
      : pager_(pager),
        root_(root),
        height_(height),
        num_entries_(n),
        num_leaf_pages_(leaves) {}

  Status ReadNode(PageId id, Node* out) const;
  /// Descends from the root to the leaf covering `key`, searching each pinned
  /// page in place through its frame's cached NodeView. Every pin is released
  /// before the child is fetched, so the pool sees the same Fetch/Unpin
  /// sequence as one ReadNode per level. On success `ref` pins the leaf,
  /// `view` reads it and `leaf_id` names it.
  Status FindLeaf(std::string_view key, storage::PageRef* ref,
                  const NodeView** view, PageId* leaf_id) const;
  void WriteNode(PageId id, const Node& node);

  Status PutRec(PageId page_id, std::string_view key, std::string_view value,
                SplitResult* split, bool* added);
  Status DeleteRec(PageId page_id, std::string_view key, bool* underflow);
  /// Attempts to merge parent->children[ci] with an adjacent sibling.
  Status TryMergeChild(Node* parent, size_t ci);

  Status ValidateRec(PageId page_id, uint32_t depth, std::string_view lo,
                     std::string_view hi, uint64_t* entries,
                     PageId* leftmost_leaf) const;

  size_t MaxNodeBytes() const { return pager_.page_size(); }
  size_t UnderflowBytes() const { return pager_.page_size() / 4; }

  mutable storage::Pager pager_;
  PageId root_;
  uint32_t height_;
  uint64_t num_entries_ = 0;
  uint64_t num_leaf_pages_ = 1;
};

}  // namespace upi::btree
