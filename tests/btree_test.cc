#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "btree/btree.h"
#include "btree/bulk_load.h"
#include "common/coding.h"
#include "common/random.h"

namespace upi::btree {
namespace {

struct Fixture {
  sim::SimDisk disk;
  storage::PageFile file{&disk, "btree", 4096};
  storage::BufferPool pool{64 << 20};
  storage::Pager pager{&pool, &file};
};

std::string Key(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%08d", i);
  return buf;
}

TEST(BTreeTest, EmptyTree) {
  Fixture fx;
  BTree t(fx.pager);
  EXPECT_EQ(t.num_entries(), 0u);
  EXPECT_EQ(t.height(), 1u);
  EXPECT_TRUE(t.Get("nope").status().IsNotFound());
  EXPECT_FALSE(t.SeekToFirst().Valid());
  EXPECT_TRUE(t.ValidateInvariants().ok());
}

TEST(BTreeTest, PutGetSingle) {
  Fixture fx;
  BTree t(fx.pager);
  EXPECT_TRUE(t.Put("hello", "world").ValueOrDie());
  EXPECT_EQ(t.Get("hello").ValueOrDie(), "world");
  EXPECT_EQ(t.num_entries(), 1u);
}

TEST(BTreeTest, PutIsUpsert) {
  Fixture fx;
  BTree t(fx.pager);
  EXPECT_TRUE(t.Put("k", "v1").ValueOrDie());
  EXPECT_FALSE(t.Put("k", "v2").ValueOrDie());  // replaced, not added
  EXPECT_EQ(t.Get("k").ValueOrDie(), "v2");
  EXPECT_EQ(t.num_entries(), 1u);
}

TEST(BTreeTest, ManySequentialInsertsSplit) {
  Fixture fx;
  BTree t(fx.pager);
  const int kN = 2000;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(t.Put(Key(i), "value" + std::to_string(i)).ok());
  }
  EXPECT_EQ(t.num_entries(), static_cast<uint64_t>(kN));
  EXPECT_GT(t.height(), 1u);
  ASSERT_TRUE(t.ValidateInvariants().ok());
  for (int i = 0; i < kN; i += 37) {
    EXPECT_EQ(t.Get(Key(i)).ValueOrDie(), "value" + std::to_string(i));
  }
}

TEST(BTreeTest, ReverseOrderInserts) {
  Fixture fx;
  BTree t(fx.pager);
  for (int i = 1999; i >= 0; --i) ASSERT_TRUE(t.Put(Key(i), "v").ok());
  ASSERT_TRUE(t.ValidateInvariants().ok()) << t.ValidateInvariants().ToString();
  Cursor c = t.SeekToFirst();
  int i = 0;
  for (; c.Valid(); c.Next()) {
    EXPECT_EQ(c.key(), Key(i++));
  }
  EXPECT_EQ(i, 2000);
}

TEST(BTreeTest, SeekLowerBound) {
  Fixture fx;
  BTree t(fx.pager);
  for (int i = 0; i < 100; i += 2) ASSERT_TRUE(t.Put(Key(i), "v").ok());
  Cursor c = t.Seek(Key(31));
  ASSERT_TRUE(c.Valid());
  EXPECT_EQ(c.key(), Key(32));
  c = t.Seek(Key(98));
  ASSERT_TRUE(c.Valid());
  EXPECT_EQ(c.key(), Key(98));
  c = t.Seek(Key(99));
  EXPECT_FALSE(c.Valid());
}

TEST(BTreeTest, CursorIteratesRange) {
  Fixture fx;
  BTree t(fx.pager);
  for (int i = 0; i < 500; ++i) ASSERT_TRUE(t.Put(Key(i), std::to_string(i)).ok());
  Cursor c = t.Seek(Key(100));
  int i = 100;
  while (c.Valid() && c.key() < Key(200)) {
    EXPECT_EQ(c.value(), std::to_string(i));
    ++i;
    c.Next();
  }
  EXPECT_EQ(i, 200);
}

TEST(BTreeTest, DeleteSimple) {
  Fixture fx;
  BTree t(fx.pager);
  ASSERT_TRUE(t.Put("a", "1").ok());
  ASSERT_TRUE(t.Put("b", "2").ok());
  ASSERT_TRUE(t.Delete("a").ok());
  EXPECT_TRUE(t.Get("a").status().IsNotFound());
  EXPECT_EQ(t.Get("b").ValueOrDie(), "2");
  EXPECT_EQ(t.num_entries(), 1u);
  EXPECT_TRUE(t.Delete("a").IsNotFound());
}

TEST(BTreeTest, DeleteEverythingThenReuse) {
  Fixture fx;
  BTree t(fx.pager);
  const int kN = 1200;
  for (int i = 0; i < kN; ++i) ASSERT_TRUE(t.Put(Key(i), "v").ok());
  for (int i = 0; i < kN; ++i) ASSERT_TRUE(t.Delete(Key(i)).ok()) << i;
  EXPECT_EQ(t.num_entries(), 0u);
  ASSERT_TRUE(t.ValidateInvariants().ok()) << t.ValidateInvariants().ToString();
  EXPECT_FALSE(t.SeekToFirst().Valid());
  // Tree shrinks back to (near) a single leaf.
  EXPECT_LE(t.height(), 2u);
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(t.Put(Key(i), "again").ok());
  EXPECT_EQ(t.Get(Key(50)).ValueOrDie(), "again");
}

TEST(BTreeTest, MergeFreesPagesForReuse) {
  Fixture fx;
  BTree t(fx.pager);
  const int kN = 3000;
  for (int i = 0; i < kN; ++i) ASSERT_TRUE(t.Put(Key(i), std::string(40, 'x')).ok());
  uint64_t size_full = t.size_bytes();
  for (int i = 0; i < kN; ++i) ASSERT_TRUE(t.Delete(Key(i)).ok());
  for (int i = 0; i < kN; ++i) ASSERT_TRUE(t.Put(Key(i), std::string(40, 'y')).ok());
  // Reinserting the same data reuses freed pages: footprint must not double.
  EXPECT_LT(t.size_bytes(), size_full * 3 / 2);
  ASSERT_TRUE(t.ValidateInvariants().ok());
}

TEST(BTreeTest, LargeValuesNearPageSize) {
  Fixture fx;
  BTree t(fx.pager);
  std::string big(900, 'z');
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(t.Put(Key(i), big).ok());
  ASSERT_TRUE(t.ValidateInvariants().ok());
  EXPECT_EQ(t.Get(Key(25)).ValueOrDie(), big);
}

TEST(BTreeTest, RejectsEntryLargerThanPage) {
  Fixture fx;
  BTree t(fx.pager);
  std::string huge(5000, 'z');
  EXPECT_FALSE(t.Put("k", huge).ok());
}

TEST(BTreeTest, BinaryKeysWithEmbeddedZeros) {
  Fixture fx;
  BTree t(fx.pager);
  std::string k1("a\0b", 3), k2("a\0c", 3), k3("a\x01", 2);
  ASSERT_TRUE(t.Put(k1, "1").ok());
  ASSERT_TRUE(t.Put(k2, "2").ok());
  ASSERT_TRUE(t.Put(k3, "3").ok());
  EXPECT_EQ(t.Get(k1).ValueOrDie(), "1");
  Cursor c = t.SeekToFirst();
  EXPECT_EQ(c.key(), std::string_view(k1));
}

// --- Property test: random interleaved puts/deletes vs std::map oracle. ---

class BTreeRandomOpsTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BTreeRandomOpsTest, MatchesMapOracle) {
  Fixture fx;
  BTree t(fx.pager);
  std::map<std::string, std::string> oracle;
  Rng rng(GetParam());
  const int kOps = 6000;
  for (int op = 0; op < kOps; ++op) {
    int key_i = static_cast<int>(rng.Uniform(800));
    std::string key = Key(key_i);
    double dice = rng.NextDouble();
    if (dice < 0.55) {
      std::string value = "v" + std::to_string(rng.Uniform(100000));
      bool added = t.Put(key, value).ValueOrDie();
      EXPECT_EQ(added, oracle.find(key) == oracle.end());
      oracle[key] = value;
    } else if (dice < 0.85) {
      Status st = t.Delete(key);
      EXPECT_EQ(st.ok(), oracle.erase(key) > 0) << st.ToString();
    } else {
      auto r = t.Get(key);
      auto it = oracle.find(key);
      if (it == oracle.end()) {
        EXPECT_TRUE(r.status().IsNotFound());
      } else {
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(r.value(), it->second);
      }
    }
  }
  EXPECT_EQ(t.num_entries(), oracle.size());
  ASSERT_TRUE(t.ValidateInvariants().ok()) << t.ValidateInvariants().ToString();
  // Full scan must equal the oracle exactly, in order.
  auto it = oracle.begin();
  for (Cursor c = t.SeekToFirst(); c.Valid(); c.Next(), ++it) {
    ASSERT_NE(it, oracle.end());
    EXPECT_EQ(c.key(), it->first);
    EXPECT_EQ(c.value(), it->second);
  }
  EXPECT_EQ(it, oracle.end());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreeRandomOpsTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// --- Bulk load ---

TEST(BTreeBuilderTest, EmptyBuild) {
  Fixture fx;
  BTreeBuilder b(fx.pager);
  BTree t = b.Finish().ValueOrDie();
  EXPECT_EQ(t.num_entries(), 0u);
  EXPECT_FALSE(t.SeekToFirst().Valid());
  EXPECT_TRUE(t.ValidateInvariants().ok());
}

TEST(BTreeBuilderTest, SingleLeaf) {
  Fixture fx;
  BTreeBuilder b(fx.pager);
  ASSERT_TRUE(b.Add("a", "1").ok());
  ASSERT_TRUE(b.Add("b", "2").ok());
  BTree t = b.Finish().ValueOrDie();
  EXPECT_EQ(t.height(), 1u);
  EXPECT_EQ(t.Get("a").ValueOrDie(), "1");
  EXPECT_TRUE(t.ValidateInvariants().ok());
}

TEST(BTreeBuilderTest, RejectsOutOfOrderKeys) {
  Fixture fx;
  BTreeBuilder b(fx.pager);
  ASSERT_TRUE(b.Add("b", "1").ok());
  EXPECT_FALSE(b.Add("a", "2").ok());
  EXPECT_FALSE(b.Add("b", "2").ok());  // duplicates rejected too
}

class BTreeBuilderSizeTest : public ::testing::TestWithParam<int> {};

TEST_P(BTreeBuilderSizeTest, BuildsValidTreeMatchingInserts) {
  const int kN = GetParam();
  Fixture fx;
  BTreeBuilder b(fx.pager);
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(b.Add(Key(i), "val" + std::to_string(i)).ok());
  }
  BTree t = b.Finish().ValueOrDie();
  EXPECT_EQ(t.num_entries(), static_cast<uint64_t>(kN));
  ASSERT_TRUE(t.ValidateInvariants().ok()) << t.ValidateInvariants().ToString();
  int i = 0;
  for (Cursor c = t.SeekToFirst(); c.Valid(); c.Next()) {
    ASSERT_EQ(c.key(), Key(i));
    EXPECT_EQ(c.value(), "val" + std::to_string(i));
    ++i;
  }
  EXPECT_EQ(i, kN);
  // The built tree accepts further inserts.
  ASSERT_TRUE(t.Put(Key(kN), "extra").ok());
  EXPECT_EQ(t.Get(Key(kN)).ValueOrDie(), "extra");
  ASSERT_TRUE(t.ValidateInvariants().ok());
}

INSTANTIATE_TEST_SUITE_P(Sizes, BTreeBuilderSizeTest,
                         ::testing::Values(1, 2, 50, 120, 121, 1000, 20000));

TEST(BTreeBuilderTest, LeavesArePhysicallySequential) {
  Fixture fx;
  BTreeBuilder b(fx.pager);
  for (int i = 0; i < 5000; ++i) ASSERT_TRUE(b.Add(Key(i), std::string(30, 'v')).ok());
  BTree t = b.Finish().ValueOrDie();
  fx.pool.DropAll();
  fx.disk.ResetHead();
  // A full scan of a bulk-loaded tree should be nearly all sequential:
  // seeks only for the initial descent and occasional internal-node hops.
  sim::StatsWindow w(&fx.disk);
  uint64_t n = 0;
  for (Cursor c = t.SeekToFirst(); c.Valid(); c.Next()) ++n;
  EXPECT_EQ(n, 5000u);
  sim::DiskStats d = w.Delta();
  uint64_t leaf_pages = t.num_leaf_pages();
  EXPECT_LT(d.seeks, leaf_pages / 10 + 10)
      << "bulk-loaded scan should be sequential; " << d.seeks << " seeks over "
      << leaf_pages << " leaves";
}

TEST(BTreeFragmentationTest, RandomInsertsScatterLeafChain) {
  // The Section 4.1 effect: after heavy random insertion, a range scan pays
  // far more seeks than on a freshly bulk-loaded tree of the same content.
  Fixture fx;
  BTreeBuilder b(fx.pager);
  for (int i = 0; i < 8000; i += 2) ASSERT_TRUE(b.Add(Key(i), std::string(60, 'v')).ok());
  BTree t = b.Finish().ValueOrDie();

  auto scan_seeks = [&]() {
    fx.pool.FlushAll();
    fx.pool.DropAll();
    fx.disk.ResetHead();
    sim::StatsWindow w(&fx.disk);
    for (Cursor c = t.SeekToFirst(); c.Valid(); c.Next()) {
    }
    return w.Delta().seeks;
  };

  uint64_t seeks_fresh = scan_seeks();
  // Insert the odd keys in random order — splits scatter pages.
  std::vector<int> odds;
  for (int i = 1; i < 8000; i += 2) odds.push_back(i);
  Rng rng(99);
  std::shuffle(odds.begin(), odds.end(), rng.engine());
  for (int i : odds) ASSERT_TRUE(t.Put(Key(i), std::string(60, 'v')).ok());
  ASSERT_TRUE(t.ValidateInvariants().ok());

  uint64_t seeks_after = scan_seeks();
  EXPECT_GT(seeks_after, seeks_fresh * 5) << "fresh=" << seeks_fresh
                                          << " after=" << seeks_after;
}


TEST(BTreeCursorTest, ReadaheadPreservesIterationAndCutsSeeks) {
  Fixture fx;
  BTreeBuilder b(fx.pager);
  const int kN = 5000;
  for (int i = 0; i < kN; ++i) ASSERT_TRUE(b.Add(Key(i), "v").ok());
  BTree t = b.Finish().ValueOrDie();

  // Interleave two cursors over the same tree to force head ping-pong.
  auto interleaved_seeks = [&](uint32_t readahead) {
    fx.pool.DropAll();
    fx.disk.ResetHead();
    sim::StatsWindow w(&fx.disk);
    Cursor a = t.SeekToFirst();
    Cursor c = t.Seek(Key(kN / 2));
    a.SetReadahead(readahead);
    c.SetReadahead(readahead);
    int n = 0;
    while (a.Valid() && c.Valid()) {
      EXPECT_EQ(a.key(), Key(n));
      a.Next();
      c.Next();
      ++n;
    }
    return w.Delta().seeks;
  };

  uint64_t without = interleaved_seeks(0);
  uint64_t with = interleaved_seeks(32);
  EXPECT_LT(with * 4, without) << "with=" << with << " without=" << without;
}

TEST(BTreeBuilderTest, OutputWritesAreBatchedSequential) {
  // The bulk loader must not pay a head movement per page.
  Fixture fx;
  fx.disk.ResetHead();
  sim::StatsWindow w(&fx.disk);
  BTreeBuilder b(fx.pager);
  const int kN = 20000;
  for (int i = 0; i < kN; ++i) ASSERT_TRUE(b.Add(Key(i), std::string(50, 'v')).ok());
  BTree t = b.Finish().ValueOrDie();
  sim::DiskStats d = w.Delta();
  uint64_t pages = t.num_leaf_pages();
  EXPECT_GT(pages, 100u);
  EXPECT_LT(d.seeks, pages / 10)
      << "builder output should be written in large sequential batches";
}

TEST(BTreeTest, EmptyKeyAndValueSupported) {
  Fixture fx;
  BTree t(fx.pager);
  ASSERT_TRUE(t.Put("", "").ok());
  ASSERT_TRUE(t.Put("k", "").ok());
  EXPECT_EQ(t.Get("").ValueOrDie(), "");
  EXPECT_EQ(t.Get("k").ValueOrDie(), "");
  Cursor c = t.SeekToFirst();
  ASSERT_TRUE(c.Valid());
  EXPECT_EQ(c.key(), "");
}

TEST(BTreeTest, SeekOnEmptyTreeAndPastEnd) {
  Fixture fx;
  BTree t(fx.pager);
  EXPECT_FALSE(t.Seek("anything").Valid());
  ASSERT_TRUE(t.Put("m", "1").ok());
  EXPECT_FALSE(t.Seek("z").Valid());
  EXPECT_TRUE(t.Seek("a").Valid());
}

// --- NodeView: the in-place reader must accept and find exactly as Node. ---

Node SampleLeaf() {
  Node n;
  n.is_leaf = true;
  n.right_sibling = 77;
  for (int i = 0; i < 12; ++i) {
    // Lengths of 130 and 300 bytes give two-byte length varints.
    std::string key = Key(i);
    if (i == 5) key += std::string(130, 'k');
    const size_t value_lens[] = {0, 1, 300, 9};
    n.entries.push_back(
        LeafEntry{key, std::string(value_lens[i % 4], static_cast<char>('a' + i))});
  }
  return n;
}

Node SampleInternal() {
  Node n;
  n.is_leaf = false;
  n.children.push_back(ChildEntry{"", 3});
  for (int i = 1; i < 12; ++i) {
    std::string key = Key(i * 10);
    if (i == 7) key += std::string(140, 's');  // two-byte length varint
    n.children.push_back(ChildEntry{key, static_cast<PageId>(100 + i)});
  }
  return n;
}

/// Byte offsets of every key-length and value-length varint byte in the
/// serialized form of `n`.
std::vector<size_t> LengthByteOffsets(const Node& n) {
  std::vector<size_t> out;
  size_t off = kNodeHeaderSize;
  auto add_varint = [&](size_t len) {
    std::string v;
    PutVarint32(&v, static_cast<uint32_t>(len));
    for (size_t i = 0; i < v.size(); ++i) out.push_back(off + i);
    off += v.size() + len;
  };
  if (n.is_leaf) {
    for (const LeafEntry& e : n.entries) {
      add_varint(e.key.size());
      add_varint(e.value.size());
    }
  } else {
    for (const ChildEntry& c : n.children) {
      add_varint(c.key.size());
      off += 4;
    }
  }
  return out;
}

std::string_view KeyOf(const Node& n, size_t i) {
  return n.is_leaf ? n.entries[i].key : n.children[i].key;
}

/// Whether the keys a search compares ascend strictly (an internal node's
/// first key is never compared).
bool KeysAscend(const Node& n) {
  for (size_t i = n.is_leaf ? 1 : 2; i < n.Count(); ++i) {
    if (KeyOf(n, i) <= KeyOf(n, i - 1)) return false;
  }
  return true;
}

/// Checks that NodeView::Open accepts `page` iff Node::Deserialize does and,
/// on a well-ordered accepted page, that every search agrees with Node's.
void ExpectViewMatchesNode(std::string_view page, const std::string& what) {
  SCOPED_TRACE(what);
  Node node;
  NodeView view;
  Status want = Node::Deserialize(page, &node);
  Status got = NodeView::Open(page, &view);
  ASSERT_EQ(got.ok(), want.ok()) << got.ToString() << " vs " << want.ToString();
  if (!got.ok()) {
    EXPECT_TRUE(got.code() == StatusCode::kCorruption);
    return;
  }
  ASSERT_EQ(view.is_leaf(), node.is_leaf);
  ASSERT_EQ(view.count(), node.Count());
  ASSERT_EQ(view.right_sibling(), node.right_sibling);
  if (!KeysAscend(node)) return;  // searches assume sorted keys
  std::vector<std::string> probes = {"", std::string(1, '\xff')};
  for (size_t i = 0; i < node.Count(); ++i) {
    std::string k(KeyOf(node, i));
    probes.push_back(k);
    probes.push_back(k + '\0');
    if (!k.empty()) probes.push_back(k.substr(0, k.size() - 1));
  }
  for (const std::string& probe : probes) {
    if (node.is_leaf) {
      NodeView::Pos pos = view.LowerBound(probe);
      size_t idx = node.LowerBound(probe);
      ASSERT_EQ(pos.index, idx) << probe;
      std::string_view value;
      bool found = idx < node.entries.size() && node.entries[idx].key == probe;
      ASSERT_EQ(view.Find(probe, &value), found) << probe;
      if (found) {
        ASSERT_EQ(value, node.entries[idx].value);
      }
      if (idx < node.entries.size()) {
        std::string_view k, v;
        NodeView::DecodeLeafEntry(page, pos.offset, &k, &v);
        ASSERT_EQ(k, node.entries[idx].key);
        ASSERT_EQ(v, node.entries[idx].value);
      }
    } else if (node.Count() > 0) {
      ASSERT_EQ(view.ChildFor(probe), node.children[node.ChildIndex(probe)].child)
          << probe;
    }
  }
}

void CheckCorruptionCorpus(const Node& n) {
  std::string page;
  n.Serialize(&page);
  ExpectViewMatchesNode(page, "intact");
  for (size_t len = 0; len < page.size(); ++len) {
    ExpectViewMatchesNode(std::string_view(page).substr(0, len),
                          "truncated to " + std::to_string(len));
  }
  std::vector<size_t> offsets = LengthByteOffsets(n);
  for (size_t off = 4; off < 8; ++off) offsets.push_back(off);  // count
  for (size_t off : offsets) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bad = page;
      bad[off] = static_cast<char>(bad[off] ^ (1 << bit));
      ExpectViewMatchesNode(bad, "byte " + std::to_string(off) + " bit " +
                                     std::to_string(bit));
    }
  }
}

TEST(NodeViewTest, LeafRejectsExactlyWhatDeserializeRejects) {
  CheckCorruptionCorpus(SampleLeaf());
}

TEST(NodeViewTest, InternalRejectsExactlyWhatDeserializeRejects) {
  CheckCorruptionCorpus(SampleInternal());
}

TEST(NodeViewTest, EmptyNodes) {
  Node leaf;
  std::string page;
  leaf.Serialize(&page);
  ExpectViewMatchesNode(page, "empty leaf");
  Node internal;
  internal.is_leaf = false;
  internal.Serialize(&page);
  ExpectViewMatchesNode(page, "empty internal");
}

// Pages with more entries than the view samples: searches walk forward from
// the nearest sampled entry.
TEST(NodeViewTest, SearchesMatchNodeOnManyEntryPages) {
  for (int n : {255, 256, 257, 513, 3000}) {
    Node leaf;
    Node internal;
    internal.is_leaf = false;
    for (int i = 0; i < n; ++i) {
      leaf.entries.push_back(LeafEntry{Key(2 * i), std::to_string(i)});
      internal.children.push_back(
          ChildEntry{i == 0 ? std::string() : Key(2 * i), static_cast<PageId>(i)});
    }
    std::string page;
    leaf.Serialize(&page);
    ExpectViewMatchesNode(page, "leaf of " + std::to_string(n));
    internal.Serialize(&page);
    ExpectViewMatchesNode(page, "internal of " + std::to_string(n));
  }
}

// --- A corrupted page inside a tree is an error, never a crash. ---

TEST(BTreeCorruptionTest, CorruptPagesFailGetAndSeek) {
  Fixture fx;
  BTreeBuilder b(fx.pager);
  const int kN = 3000;
  for (int i = 0; i < kN; ++i) ASSERT_TRUE(b.Add(Key(i), "val" + std::to_string(i)).ok());
  BTree t = b.Finish().ValueOrDie();
  ASSERT_EQ(t.height(), 2u);
  Node root;
  {
    storage::PageRef ref = fx.pager.Get(t.root());
    ASSERT_TRUE(Node::Deserialize(*ref.data(), &root).ok());
  }
  ASSERT_GE(root.children.size(), 3u);
  const PageId leaf_id = root.children[1].child;
  const std::string first_key = root.children[1].key;  // first key of that leaf

  // Replaces page `id` with `bytes`, runs `check`, then restores it.
  auto with_page = [&](PageId id, auto mutate, auto check) {
    std::string saved;
    {
      storage::PageRef ref = fx.pager.Get(id);
      saved = *ref.data();
      mutate(ref.data());
    }
    check();
    storage::PageRef ref = fx.pager.Get(id);
    *ref.data() = saved;
  };

  // Root rejected: every lookup fails, wherever it would have gone.
  with_page(
      t.root(), [](std::string* p) { p->resize(kNodeHeaderSize - 1); },
      [&] {
        EXPECT_TRUE(t.Get(Key(0)).status().code() == StatusCode::kCorruption);
        EXPECT_TRUE(t.Get(Key(kN - 1)).status().code() == StatusCode::kCorruption);
        EXPECT_FALSE(t.Seek(Key(5)).Valid());
        EXPECT_FALSE(t.SeekToFirst().Valid());
      });
  // An internal node with no children is accepted by both readers but has
  // nowhere to descend to.
  with_page(
      t.root(), [](std::string* p) { std::memset(p->data() + 4, 0, 4); },
      [&] {
        EXPECT_TRUE(t.Get(Key(0)).status().code() == StatusCode::kCorruption);
        EXPECT_FALSE(t.SeekToFirst().Valid());
      });

  // Every truncation and every length/count bit flip of one leaf.
  std::string leaf_page;
  {
    storage::PageRef ref = fx.pager.Get(leaf_id);
    leaf_page = *ref.data();
  }
  Node leaf;
  ASSERT_TRUE(Node::Deserialize(leaf_page, &leaf).ok());
  std::vector<std::string> corpus;
  for (size_t len = 0; len < leaf_page.size(); ++len) {
    corpus.push_back(leaf_page.substr(0, len));
  }
  std::vector<size_t> offsets = LengthByteOffsets(leaf);
  for (size_t off = 4; off < 8; ++off) offsets.push_back(off);
  for (size_t off : offsets) {
    for (int bit = 0; bit < 8; ++bit) {
      corpus.push_back(leaf_page);
      corpus.back()[off] = static_cast<char>(corpus.back()[off] ^ (1 << bit));
    }
  }
  int rejected = 0;
  for (const std::string& bad : corpus) {
    Node ignored;
    const bool rejects = !Node::Deserialize(bad, &ignored).ok();
    rejected += rejects;
    with_page(
        leaf_id, [&](std::string* p) { *p = bad; },
        [&] {
          auto got = t.Get(first_key);
          Cursor c = t.Seek(first_key);
          if (rejects) {
            EXPECT_TRUE(got.status().code() == StatusCode::kCorruption) << got.status().ToString();
            EXPECT_FALSE(c.Valid());
          } else {
            // Accepted pages are read as they are; the walk still ends.
            for (int steps = 0; c.Valid() && steps <= kN; ++steps) c.Next();
            EXPECT_FALSE(c.Valid());
          }
          // Pages other than the corrupted one are unaffected.
          EXPECT_EQ(t.Get(Key(0)).ValueOrDie(), "val0");
        });
  }
  EXPECT_GT(rejected, static_cast<int>(leaf_page.size()) - 2);
  ASSERT_TRUE(t.ValidateInvariants().ok());
}

// --- Cursor lifetime: copies, moves and reallocation keep key()/value(). ---

TEST(BTreeCursorTest, CopiedAndMovedCursorsMatchOracle) {
  Fixture fx;
  std::map<std::string, std::string> oracle;
  Rng rng(7);
  for (int i = 0; i < 4000; ++i) {
    oracle[Key(i)] = std::string(rng.Uniform(60), static_cast<char>('a' + i % 26));
  }
  BTreeBuilder b(fx.pager);
  for (const auto& [k, v] : oracle) ASSERT_TRUE(b.Add(k, v).ok());
  BTree t = b.Finish().ValueOrDie();

  using It = std::map<std::string, std::string>::const_iterator;
  auto expect_at = [&](const Cursor& c, It it) {
    ASSERT_EQ(c.Valid(), it != oracle.end());
    if (it == oracle.end()) return;
    ASSERT_EQ(c.key(), it->first);
    ASSERT_EQ(c.value(), it->second);
  };

  // A vector of cursors, each started further along, grown one push_back at
  // a time (no reserve, so the buffer reallocates under live cursors).
  std::vector<Cursor> cursors;
  std::vector<It> where;
  Cursor walker = t.SeekToFirst();
  It wit = oracle.begin();
  for (int step = 0; step < 3000; ++step) {
    if (step % 97 == 0) {
      cursors.push_back(walker);  // copy mid-walk
      where.push_back(wit);
    }
    walker.Next();
    ++wit;
    expect_at(walker, wit);
    for (size_t i = 0; i < cursors.size(); ++i) {
      expect_at(cursors[i], where[i]);
      if (where[i] != oracle.end()) {
        cursors[i].Next();
        ++where[i];
      }
    }
  }
  // Move-assign over a cursor mid-walk, and move-construct.
  Cursor moved = t.Seek(Key(5));
  moved = std::move(cursors[3]);
  expect_at(moved, where[3]);
  Cursor moved_again(std::move(moved));
  expect_at(moved_again, where[3]);
  for (It it = where[3]; it != oracle.end(); ++it) {
    expect_at(moved_again, it);
    moved_again.Next();
  }
  EXPECT_FALSE(moved_again.Valid());
}

TEST(BTreeCursorTest, WalkSurvivesEvictionOfItsLeaf) {
  // One shard and room for only a few pages: every Get below evicts leaves,
  // including the one each cursor was reading.
  sim::SimDisk disk;
  storage::PageFile file(&disk, "small_pool", 4096);
  storage::BufferPool pool(4 * 4096, /*num_shards=*/1);
  storage::Pager pager(&pool, &file);
  std::map<std::string, std::string> oracle;
  const int kN = 8000;
  for (int i = 0; i < kN; ++i) oracle[Key(i)] = "value" + std::to_string(i);
  BTreeBuilder b(pager);
  for (const auto& [k, v] : oracle) ASSERT_TRUE(b.Add(k, v).ok());
  BTree t = b.Finish().ValueOrDie();
  ASSERT_GT(t.num_leaf_pages(), 40u);

  Cursor a = t.SeekToFirst();
  Cursor c = t.Seek(Key(kN / 2));
  auto ait = oracle.begin();
  auto cit = oracle.find(Key(kN / 2));
  Rng rng(3);
  uint64_t evictions_before = pool.counters().evictions;
  while (ait != oracle.end()) {
    ASSERT_TRUE(a.Valid());
    ASSERT_EQ(a.key(), ait->first);
    ASSERT_EQ(a.value(), ait->second);
    if (cit != oracle.end()) {
      ASSERT_EQ(c.key(), cit->first);
      ASSERT_EQ(c.value(), cit->second);
      c.Next();
      ++cit;
    }
    std::string probe = Key(static_cast<int>(rng.Uniform(kN)));
    ASSERT_EQ(t.Get(probe).ValueOrDie(), oracle[probe]);
    a.Next();
    ++ait;
  }
  EXPECT_FALSE(a.Valid());
  EXPECT_FALSE(c.Valid());
  EXPECT_GT(pool.counters().evictions - evictions_before, 1000u);
}

}  // namespace
}  // namespace upi::btree
