#include "btree/node.h"

#include <algorithm>

#include "common/coding.h"

namespace upi::btree {

namespace {
// GetVarint32 with the one-byte case inline: nearly every length on a page
// is below 128. Returns the bytes consumed, 0 if malformed or truncated.
inline size_t DecodeLength(const char* p, const char* limit, uint32_t* v) {
  if (p < limit && static_cast<uint8_t>(*p) < 0x80) {
    *v = static_cast<uint8_t>(*p);
    return 1;
  }
  return GetVarint32(p, limit, v);
}

size_t VarintLen(uint32_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}
}  // namespace

size_t Node::LeafEntrySize(std::string_view key, std::string_view value) {
  return VarintLen(static_cast<uint32_t>(key.size())) + key.size() +
         VarintLen(static_cast<uint32_t>(value.size())) + value.size();
}

size_t Node::ChildEntrySize(std::string_view key) {
  return VarintLen(static_cast<uint32_t>(key.size())) + key.size() + 4;
}

size_t Node::SerializedSize() const {
  size_t sz = kNodeHeaderSize;
  if (is_leaf) {
    for (const auto& e : entries) sz += LeafEntrySize(e.key, e.value);
  } else {
    for (const auto& c : children) sz += ChildEntrySize(c.key);
  }
  return sz;
}

void Node::Serialize(std::string* out) const {
  out->clear();
  out->push_back(is_leaf ? '\x01' : '\x00');
  out->push_back('\x00');
  out->push_back('\x00');
  out->push_back('\x00');
  PutFixed32(out, static_cast<uint32_t>(Count()));
  PutFixed32(out, right_sibling);
  if (is_leaf) {
    for (const auto& e : entries) {
      PutVarint32(out, static_cast<uint32_t>(e.key.size()));
      out->append(e.key);
      PutVarint32(out, static_cast<uint32_t>(e.value.size()));
      out->append(e.value);
    }
  } else {
    for (const auto& c : children) {
      PutVarint32(out, static_cast<uint32_t>(c.key.size()));
      out->append(c.key);
      PutFixed32(out, c.child);
    }
  }
}

Status Node::Deserialize(std::string_view page, Node* out) {
  if (page.size() < kNodeHeaderSize) return Status::Corruption("btree node too small");
  out->is_leaf = page[0] == '\x01';
  uint32_t count = GetFixed32(page.data() + 4);
  out->right_sibling = GetFixed32(page.data() + 8);
  out->entries.clear();
  out->children.clear();
  const char* p = page.data() + kNodeHeaderSize;
  const char* limit = page.data() + page.size();
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t klen;
    size_t n = GetVarint32(p, limit, &klen);
    if (n == 0 || p + n + klen > limit) return Status::Corruption("bad btree key");
    p += n;
    std::string key(p, klen);
    p += klen;
    if (out->is_leaf) {
      uint32_t vlen;
      n = GetVarint32(p, limit, &vlen);
      if (n == 0 || p + n + vlen > limit) return Status::Corruption("bad btree value");
      p += n;
      out->entries.push_back(LeafEntry{std::move(key), std::string(p, vlen)});
      p += vlen;
    } else {
      if (p + 4 > limit) return Status::Corruption("bad btree child");
      out->children.push_back(ChildEntry{std::move(key), GetFixed32(p)});
      p += 4;
    }
  }
  return Status::OK();
}

size_t Node::LowerBound(std::string_view key) const {
  auto it = std::lower_bound(
      entries.begin(), entries.end(), key,
      [](const LeafEntry& e, std::string_view k) { return e.key < k; });
  return static_cast<size_t>(it - entries.begin());
}

size_t Node::ChildIndex(std::string_view key) const {
  // children[0].key is empty and compares <= everything, so upper_bound over
  // keys > `key` minus one lands on the covering child.
  size_t lo = 0, hi = children.size();
  while (lo + 1 < hi) {
    size_t mid = (lo + hi) / 2;
    if (std::string_view(children[mid].key) <= key) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// ---------------------------------------------------------------------------
// NodeView
// ---------------------------------------------------------------------------

Status NodeView::Open(std::string_view page, NodeView* out) {
  if (page.size() < kNodeHeaderSize) return Status::Corruption("btree node too small");
  // Offsets are 32-bit; page sizes are too, so no real page is this large.
  if (page.size() > UINT32_MAX) return Status::Corruption("btree node too large");
  const bool is_leaf = page[0] == '\x01';
  const uint32_t count = GetFixed32(page.data() + 4);
  uint32_t shift = 0;
  while (count > 0 && ((count - 1) >> shift) >= kMaxSamples) ++shift;
  out->page_ = page;
  out->is_leaf_ = is_leaf;
  out->count_ = count;
  out->right_sibling_ = GetFixed32(page.data() + 8);
  out->sample_shift_ = shift;
  out->num_samples_ = count == 0 ? 0 : ((count - 1) >> shift) + 1;

  // Locals only in the loop: a store through `out` could alias any field.
  const uint32_t mask = (1u << shift) - 1;
  uint32_t* sample = out->samples_;
  const char* base = page.data();
  const char* p = base + kNodeHeaderSize;
  const char* limit = base + page.size();
  for (uint32_t i = 0; i < count; ++i) {
    if ((i & mask) == 0) *sample++ = static_cast<uint32_t>(p - base);
    uint32_t klen = 0;
    size_t n = DecodeLength(p, limit, &klen);
    if (n == 0 || klen > static_cast<size_t>(limit - p) - n) {
      return Status::Corruption("bad btree key");
    }
    p += n + klen;
    if (is_leaf) {
      uint32_t vlen = 0;
      n = DecodeLength(p, limit, &vlen);
      if (n == 0 || vlen > static_cast<size_t>(limit - p) - n) {
        return Status::Corruption("bad btree value");
      }
      p += n + vlen;
    } else {
      if (limit - p < 4) return Status::Corruption("bad btree child");
      p += 4;
    }
  }
  return Status::OK();
}

std::string_view NodeView::KeyAt(uint32_t offset, uint32_t* after) const {
  const char* p = page_.data() + offset;
  uint32_t klen = 0;
  size_t n = DecodeLength(p, page_.data() + page_.size(), &klen);
  *after = offset + static_cast<uint32_t>(n) + klen;
  return std::string_view(p + n, klen);
}

uint32_t NodeView::NextEntry(uint32_t offset) const {
  uint32_t after = 0;
  KeyAt(offset, &after);
  if (!is_leaf_) return after + 4;
  uint32_t vlen = 0;
  size_t n = DecodeLength(page_.data() + after, page_.data() + page_.size(), &vlen);
  return after + static_cast<uint32_t>(n) + vlen;
}

uint32_t NodeView::DecodeLeafEntry(std::string_view page, uint32_t offset,
                                   std::string_view* key, std::string_view* value) {
  const char* base = page.data();
  const char* limit = base + page.size();
  const char* p = base + offset;
  uint32_t len = 0;
  p += DecodeLength(p, limit, &len);
  *key = std::string_view(p, len);
  p += len;
  p += DecodeLength(p, limit, &len);
  *value = std::string_view(p, len);
  return static_cast<uint32_t>(p + len - base);
}

int64_t NodeView::LastSampleBefore(std::string_view key, uint32_t first,
                                   bool inclusive) const {
  // Sample keys ascend, so "before `key`" holds for a prefix of them.
  int64_t lo = int64_t{first} - 1;
  int64_t hi = num_samples_;
  while (hi - lo > 1) {
    int64_t mid = lo + (hi - lo) / 2;
    uint32_t after = 0;
    std::string_view k = KeyAt(samples_[mid], &after);
    if (inclusive ? k <= key : k < key) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

NodeView::Pos NodeView::LowerBound(std::string_view key) const {
  int64_t j = LastSampleBefore(key, 0, /*inclusive=*/false);
  if (j < 0) return Pos{0, static_cast<uint32_t>(kNodeHeaderSize)};
  // Entry `index` sorts below `key`; the answer lies before the next sample.
  const uint32_t mask = (1u << sample_shift_) - 1;
  uint32_t index = static_cast<uint32_t>(j) << sample_shift_;
  uint32_t offset = samples_[j];
  for (;;) {
    offset = NextEntry(offset);
    ++index;
    if (index == count_ || (index & mask) == 0) break;
    uint32_t after = 0;
    if (!(KeyAt(offset, &after) < key)) break;
  }
  return Pos{index, offset};
}

bool NodeView::Find(std::string_view key, std::string_view* value) const {
  Pos pos = LowerBound(key);
  if (pos.index == count_) return false;
  std::string_view k;
  DecodeLeafEntry(page_, pos.offset, &k, value);
  return k == key;
}

PageId NodeView::ChildFor(std::string_view key) const {
  // Entry 0 covers everything below the first separator, so its key is never
  // compared: search samples from 1, then walk forward within the sample.
  const uint32_t mask = (1u << sample_shift_) - 1;
  int64_t j = LastSampleBefore(key, 1, /*inclusive=*/true);
  uint32_t index = static_cast<uint32_t>(j) << sample_shift_;
  uint32_t offset = samples_[j];
  for (;;) {
    uint32_t next_index = index + 1;
    if (next_index == count_ || (next_index & mask) == 0) break;
    uint32_t next = NextEntry(offset);
    uint32_t after = 0;
    if (!(KeyAt(next, &after) <= key)) break;
    index = next_index;
    offset = next;
  }
  uint32_t after = 0;
  KeyAt(offset, &after);
  return GetFixed32(page_.data() + after);
}

}  // namespace upi::btree
