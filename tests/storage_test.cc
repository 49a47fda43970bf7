#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/db_env.h"
#include "storage/heap_file.h"
#include "storage/page_file.h"
#include "storage/pager.h"

namespace upi::storage {
namespace {

TEST(PageFileTest, AllocateSequentialAddresses) {
  sim::SimDisk disk;
  PageFile f(&disk, "t", 4096);
  PageId a = f.Allocate();
  PageId b = f.Allocate();
  EXPECT_EQ(f.AddressOf(b), f.AddressOf(a) + 4096);
  EXPECT_EQ(f.num_active_pages(), 2u);
  EXPECT_EQ(f.size_bytes(), 8192u);
}

TEST(PageFileTest, ReadWriteRoundTrip) {
  sim::SimDisk disk;
  PageFile f(&disk, "t", 4096);
  PageId a = f.Allocate();
  f.Write(a, "hello page");
  std::string out;
  f.Read(a, &out);
  EXPECT_EQ(out, "hello page");
}

TEST(PageFileTest, FreeListReuse) {
  sim::SimDisk disk;
  PageFile f(&disk, "t", 4096);
  PageId a = f.Allocate();
  f.Allocate();
  uint64_t addr_a = f.AddressOf(a);
  f.Free(a);
  PageId c = f.Allocate();
  EXPECT_EQ(c, a);  // reuses the freed slot...
  EXPECT_EQ(f.AddressOf(c), addr_a);  // ...at the same physical address
  EXPECT_EQ(f.size_bytes(), 8192u);   // footprint unchanged
}

TEST(PageFileTest, InterleavedFilesShareDiskAddressSpace) {
  sim::SimDisk disk;
  PageFile f1(&disk, "a", 4096);
  PageFile f2(&disk, "b", 4096);
  PageId p1 = f1.Allocate();
  PageId p2 = f2.Allocate();
  PageId p3 = f1.Allocate();
  // f1's two pages are NOT contiguous because f2 allocated in between.
  EXPECT_EQ(f2.AddressOf(p2), f1.AddressOf(p1) + 4096);
  EXPECT_EQ(f1.AddressOf(p3), f1.AddressOf(p1) + 8192);
}

TEST(BufferPoolTest, HitAvoidsDiskRead) {
  sim::SimDisk disk;
  PageFile f(&disk, "t", 4096);
  BufferPool pool(1 << 20);
  PageId a = f.Allocate();
  f.Write(a, "x");
  uint64_t reads_before = disk.stats().reads;
  pool.Fetch(&f, a);
  pool.Unpin(&f, a);
  pool.Fetch(&f, a);  // hit
  pool.Unpin(&f, a);
  EXPECT_EQ(disk.stats().reads - reads_before, 1u);
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.misses(), 1u);
}

TEST(BufferPoolTest, CreateSkipsRead) {
  sim::SimDisk disk;
  PageFile f(&disk, "t", 4096);
  BufferPool pool(1 << 20);
  PageId a = f.Allocate();
  uint64_t reads_before = disk.stats().reads;
  std::string* data = pool.Fetch(&f, a, /*create=*/true);
  *data = "fresh";
  pool.Unpin(&f, a);
  EXPECT_EQ(disk.stats().reads, reads_before);
  pool.FlushAll();
  std::string out;
  f.Read(a, &out);
  EXPECT_EQ(out, "fresh");
}

TEST(BufferPoolTest, DirtyPageWrittenBackOnEviction) {
  sim::SimDisk disk;
  PageFile f(&disk, "t", 4096);
  BufferPool pool(2 * 4096);  // room for ~2 pages
  std::vector<PageId> ids;
  for (int i = 0; i < 4; ++i) {
    PageId id = f.Allocate();
    std::string* data = pool.Fetch(&f, id, true);
    *data = "page" + std::to_string(i);
    pool.MarkDirty(&f, id);
    pool.Unpin(&f, id);
    ids.push_back(id);
  }
  pool.FlushAll();
  for (int i = 0; i < 4; ++i) {
    std::string out;
    f.Read(ids[i], &out);
    EXPECT_EQ(out, "page" + std::to_string(i));
  }
}

TEST(BufferPoolTest, DropAllGivesColdCache) {
  sim::SimDisk disk;
  PageFile f(&disk, "t", 4096);
  BufferPool pool(1 << 20);
  PageId a = f.Allocate();
  f.Write(a, "z");
  pool.Fetch(&f, a);
  pool.Unpin(&f, a);
  pool.DropAll();
  uint64_t reads_before = disk.stats().reads;
  pool.Fetch(&f, a);  // must hit the disk again
  pool.Unpin(&f, a);
  EXPECT_EQ(disk.stats().reads - reads_before, 1u);
}

TEST(BufferPoolTest, DiscardDropsDirtyData) {
  sim::SimDisk disk;
  PageFile f(&disk, "t", 4096);
  BufferPool pool(1 << 20);
  PageId a = f.Allocate();
  f.Write(a, "original");
  std::string* data = pool.Fetch(&f, a);
  *data = "mutated";
  pool.MarkDirty(&f, a);
  pool.Unpin(&f, a);
  pool.Discard(&f, a);
  std::string out;
  f.Read(a, &out);
  EXPECT_EQ(out, "original");
}

TEST(PagerTest, PageRefUnpinsOnDestruction) {
  sim::SimDisk disk;
  PageFile f(&disk, "t", 4096);
  BufferPool pool(1 << 20);
  Pager pager(&pool, &f);
  PageId id;
  {
    PageRef ref = pager.New(&id);
    *ref.data() = "abc";
    ref.MarkDirty();
  }
  pool.DropAll();  // asserts nothing pinned
  {
    PageRef ref = pager.Get(id);
    EXPECT_EQ(*ref.data(), "abc");
  }
}

TEST(HeapFileTest, InsertReadRoundTrip) {
  sim::SimDisk disk;
  PageFile f(&disk, "heap", 8192);
  BufferPool pool(1 << 20);
  HeapFile heap(Pager(&pool, &f));
  Rid rid = heap.Insert("tuple-data").ValueOrDie();
  std::string out;
  ASSERT_TRUE(heap.Read(rid, &out).ok());
  EXPECT_EQ(out, "tuple-data");
  EXPECT_EQ(heap.live_records(), 1u);
}

TEST(HeapFileTest, DeleteLeavesHole) {
  sim::SimDisk disk;
  PageFile f(&disk, "heap", 8192);
  BufferPool pool(1 << 20);
  HeapFile heap(Pager(&pool, &f));
  Rid a = heap.Insert("a").ValueOrDie();
  Rid b = heap.Insert("b").ValueOrDie();
  ASSERT_TRUE(heap.Delete(a).ok());
  std::string out;
  EXPECT_TRUE(heap.Read(a, &out).IsNotFound());
  ASSERT_TRUE(heap.Read(b, &out).ok());
  EXPECT_EQ(out, "b");
  EXPECT_EQ(heap.live_records(), 1u);
  // Double delete reports NotFound.
  EXPECT_TRUE(heap.Delete(a).IsNotFound());
}

TEST(HeapFileTest, SpillsToNewPages) {
  sim::SimDisk disk;
  PageFile f(&disk, "heap", 4096);
  BufferPool pool(1 << 20);
  HeapFile heap(Pager(&pool, &f));
  std::string record(1000, 'x');
  for (int i = 0; i < 20; ++i) heap.Insert(record).ValueOrDie();
  EXPECT_GT(heap.num_pages(), 4u);
  EXPECT_EQ(heap.live_records(), 20u);
}

TEST(HeapFileTest, ScanVisitsLiveRecordsInOrder) {
  sim::SimDisk disk;
  PageFile f(&disk, "heap", 4096);
  BufferPool pool(1 << 20);
  HeapFile heap(Pager(&pool, &f));
  std::vector<Rid> rids;
  for (int i = 0; i < 50; ++i) {
    rids.push_back(heap.Insert("rec" + std::to_string(i)).ValueOrDie());
  }
  ASSERT_TRUE(heap.Delete(rids[10]).ok());
  ASSERT_TRUE(heap.Delete(rids[20]).ok());
  std::set<std::string> seen;
  heap.Scan([&](Rid, std::string_view rec) {
    seen.insert(std::string(rec));
    return true;
  });
  EXPECT_EQ(seen.size(), 48u);
  EXPECT_FALSE(seen.contains("rec10"));
  EXPECT_TRUE(seen.contains("rec11"));
}

TEST(HeapFileTest, ScanEarlyStop) {
  sim::SimDisk disk;
  PageFile f(&disk, "heap", 4096);
  BufferPool pool(1 << 20);
  HeapFile heap(Pager(&pool, &f));
  for (int i = 0; i < 10; ++i) heap.Insert("r").ValueOrDie();
  int count = 0;
  heap.Scan([&](Rid, std::string_view) { return ++count < 3; });
  EXPECT_EQ(count, 3);
}

TEST(HeapFileTest, RejectsOversizedRecord) {
  sim::SimDisk disk;
  PageFile f(&disk, "heap", 4096);
  BufferPool pool(1 << 20);
  HeapFile heap(Pager(&pool, &f));
  std::string record(5000, 'x');
  EXPECT_FALSE(heap.Insert(record).ok());
}

// --- Pin-protocol invariants: hard checks that fire in every build type ----
// (These used to be plain asserts, compiled out under RelWithDebInfo, so
// Unpin of an unmapped frame dereferenced frames_.end() in release builds.)

TEST(BufferPoolDeathTest, UnpinOfUnmappedFrameAborts) {
  sim::SimDisk disk;
  PageFile f(&disk, "t", 4096);
  BufferPool pool(1 << 20);
  PageId a = f.Allocate();
  EXPECT_DEATH(pool.Unpin(&f, a), "no mapped frame");
}

TEST(BufferPoolDeathTest, DoubleUnpinAborts) {
  sim::SimDisk disk;
  PageFile f(&disk, "t", 4096);
  BufferPool pool(1 << 20);
  PageId a = f.Allocate();
  f.Write(a, "x");
  pool.Fetch(&f, a);
  pool.Unpin(&f, a);
  EXPECT_DEATH(pool.Unpin(&f, a), "unpinned frame");
}

TEST(BufferPoolDeathTest, MarkDirtyOfUnmappedFrameAborts) {
  sim::SimDisk disk;
  PageFile f(&disk, "t", 4096);
  BufferPool pool(1 << 20);
  PageId a = f.Allocate();
  EXPECT_DEATH(pool.MarkDirty(&f, a), "no mapped frame");
}

TEST(BufferPoolDeathTest, DiscardOfPinnedPageAborts) {
  sim::SimDisk disk;
  PageFile f(&disk, "t", 4096);
  BufferPool pool(1 << 20);
  PageId a = f.Allocate();
  f.Write(a, "x");
  pool.Fetch(&f, a);  // stays pinned
  EXPECT_DEATH(pool.Discard(&f, a), "pinned");
}

TEST(PageFileDeathTest, ReadOfFreedPageAborts) {
  sim::SimDisk disk;
  PageFile f(&disk, "t", 4096);
  PageId a = f.Allocate();
  f.Free(a);
  std::string out;
  EXPECT_DEATH(f.Read(a, &out), "freed page");
}

TEST(PageFileDeathTest, DoubleFreeAborts) {
  sim::SimDisk disk;
  PageFile f(&disk, "t", 4096);
  PageId a = f.Allocate();
  f.Free(a);
  EXPECT_DEATH(f.Free(a), "already-freed");
}

// --- Recycled PageId regression ------------------------------------------
// A page freed without going through this pool's Discard (e.g. freed via a
// different Pager layered on the same file) can leave a stale resident
// frame; Fetch(create=true) must hand back a fresh page, not the old bytes.

TEST(BufferPoolTest, RecycledPageIdGetsFreshFrame) {
  sim::SimDisk disk;
  PageFile f(&disk, "t", 4096);
  BufferPool pool(1 << 20);
  PageId a = f.Allocate();
  std::string* data = pool.Fetch(&f, a, /*create=*/true);
  *data = "stale bytes";
  pool.MarkDirty(&f, a);
  pool.Unpin(&f, a);
  f.Free(a);                  // bypasses pool.Discard on purpose
  PageId b = f.Allocate();
  ASSERT_EQ(b, a);            // recycled
  data = pool.Fetch(&f, b, /*create=*/true);
  EXPECT_TRUE(data->empty()) << "stale frame returned for a fresh page";
  *data = "fresh";
  pool.Unpin(&f, b);
  pool.FlushAll();            // create-path frames must reach the device
  std::string out;
  f.Read(b, &out);
  EXPECT_EQ(out, "fresh");
}

// --- Capacity accounting ---------------------------------------------------

TEST(BufferPoolTest, NeverExceedsCapacityWithUnpinnedFramesAvailable) {
  sim::SimDisk disk;
  PageFile f(&disk, "t", 4096);
  const uint64_t capacity = 4 * 4096;
  BufferPool pool(capacity, /*num_shards=*/1);
  for (int i = 0; i < 16; ++i) {
    PageId id = f.Allocate();
    std::string* data = pool.Fetch(&f, id, /*create=*/true);
    *data = "p" + std::to_string(i);
    pool.Unpin(&f, id);
    EXPECT_LE(pool.cached_bytes(), capacity) << "after page " << i;
  }
  EXPECT_EQ(pool.cached_bytes(), capacity);  // exactly full, no overshoot
}

// --- Sharding --------------------------------------------------------------

TEST(BufferPoolTest, PagesSpreadAcrossShards) {
  sim::SimDisk disk;
  PageFile f(&disk, "t", 4096);
  BufferPool pool(64 << 20);
  ASSERT_EQ(pool.num_shards(), BufferPool::kDefaultShards);
  std::set<size_t> used;
  for (PageId id = 0; id < 256; ++id) {
    size_t shard = pool.ShardIndexOf(&f, id);
    ASSERT_LT(shard, pool.num_shards());
    used.insert(shard);
  }
  // 256 consecutive ids over 16 shards: a lopsided hash would funnel them
  // into a few shards and serialize clients again.
  EXPECT_GE(used.size(), pool.num_shards() - 2);
}

// --- Scan resistance (midpoint insertion) ---------------------------------

TEST(BufferPoolTest, FullScanDoesNotEvictHotPages) {
  sim::SimDisk disk;
  PageFile f(&disk, "t", 4096);
  BufferPool pool(8 * 4096, /*num_shards=*/1);
  // Resident set: 8 one-touch pages...
  std::vector<PageId> ids;
  for (int i = 0; i < 8; ++i) {
    PageId id = f.Allocate();
    f.Write(id, "r" + std::to_string(i));
    pool.Fetch(&f, id);
    pool.Unpin(&f, id);
    ids.push_back(id);
  }
  // ...of which two become hot via re-reference.
  for (int i = 0; i < 2; ++i) {
    pool.Fetch(&f, ids[i]);
    pool.Unpin(&f, ids[i]);
  }
  // A 50-page one-touch scan churns through the pool.
  for (int i = 0; i < 50; ++i) {
    PageId id = f.Allocate();
    f.Write(id, "scan");
    pool.Fetch(&f, id);
    pool.Unpin(&f, id);
  }
  // The hot pages survived the scan: re-fetching them costs no disk read.
  uint64_t reads_before = disk.stats().reads;
  for (int i = 0; i < 2; ++i) {
    pool.Fetch(&f, ids[i]);
    pool.Unpin(&f, ids[i]);
  }
  EXPECT_EQ(disk.stats().reads, reads_before);
}

// --- Loading-frame wait path -----------------------------------------------

TEST(BufferPoolTest, ConcurrentFetchersOfOnePageShareOneRead) {
  sim::SimDisk disk;
  PageFile f(&disk, "t", 4096);
  BufferPool pool(1 << 20);
  for (int iter = 0; iter < 8; ++iter) {
    PageId id = f.Allocate();
    std::string payload = "page-" + std::to_string(iter);
    f.Write(id, payload);
    uint64_t reads_before = disk.stats().reads;
    constexpr int kFetchers = 4;
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kFetchers; ++t) {
      threads.emplace_back([&] {
        ready.fetch_add(1);
        while (ready.load() < kFetchers) {}  // start the stampede together
        std::string* data = pool.Fetch(&f, id);
        EXPECT_EQ(*data, payload);
        pool.Unpin(&f, id);
      });
    }
    for (auto& t : threads) t.join();
    // One fetcher loaded; the rest waited on the loading frame's condvar.
    EXPECT_EQ(disk.stats().reads - reads_before, 1u);
  }
}

// --- Per-frame decode slot --------------------------------------------------

/// A decode that records the bytes it parsed and, given a counter, counts
/// its own destruction.
class CopyDecode : public PageDecode {
 public:
  CopyDecode(std::string bytes, int* destroyed)
      : bytes_(std::move(bytes)), destroyed_(destroyed) {}
  ~CopyDecode() override {
    if (destroyed_ != nullptr) ++*destroyed_;
  }
  const std::string& bytes() const { return bytes_; }

 private:
  std::string bytes_;
  int* destroyed_;
};

/// Pins `id` and returns its published decode's bytes, installing a fresh
/// decode first if the frame has none.
std::string DecodedBytes(Pager* pager, PageId id, int* destroyed) {
  PageRef ref = pager->Get(id);
  const PageDecode* d = ref.decode();
  if (d == nullptr) {
    d = ref.Publish(std::make_unique<CopyDecode>(ref.bytes(), destroyed));
  }
  return static_cast<const CopyDecode*>(d)->bytes();
}

TEST(BufferPoolDecodeTest, SecondVisitReusesTheDecode) {
  sim::SimDisk disk;
  PageFile f(&disk, "t", 4096);
  BufferPool pool(1 << 20);
  Pager pager(&pool, &f);
  PageId id = f.Allocate();
  f.Write(id, "one");
  int destroyed = 0;
  const PageDecode* first = nullptr;
  {
    PageRef ref = pager.Get(id);
    EXPECT_EQ(ref.decode(), nullptr);
    first = ref.Publish(std::make_unique<CopyDecode>(ref.bytes(), &destroyed));
    EXPECT_EQ(ref.decode(), first);
    // A second install on a frame that has one loses; the winner stays.
    EXPECT_EQ(ref.Publish(std::make_unique<CopyDecode>("x", &destroyed)), first);
    EXPECT_EQ(destroyed, 1);
  }
  EXPECT_EQ(pool.counters().decodes, 1u);
  const uint64_t hits_before = pool.counters().hits;
  {
    PageRef ref = pager.Get(id);
    EXPECT_EQ(ref.decode(), first);
  }
  EXPECT_EQ(pool.counters().hits, hits_before + 1);
  EXPECT_EQ(pool.counters().decodes, 1u);  // the visit did not re-decode
  EXPECT_EQ(destroyed, 1);
}

TEST(BufferPoolDecodeTest, EveryWayTheBytesChangeDropsTheDecode) {
  sim::SimDisk disk;
  PageFile f(&disk, "t", 4096);
  BufferPool pool(1 << 20, /*num_shards=*/1);
  Pager pager(&pool, &f);
  PageId id = f.Allocate();
  f.Write(id, "v0");
  int destroyed = 0;
  ASSERT_EQ(DecodedBytes(&pager, id, &destroyed), "v0");

  // Mutable access without MarkDirty.
  {
    PageRef ref = pager.Get(id);
    *ref.data() = "v1";
  }
  EXPECT_EQ(destroyed, 1);
  EXPECT_EQ(DecodedBytes(&pager, id, &destroyed), "v1");

  // MarkDirty alone (a caller that mutated through a pointer it kept).
  {
    PageRef ref = pager.Get(id);
    std::string* bytes = ref.data();
    EXPECT_EQ(DecodedBytes(&pager, id, &destroyed), "v1");  // re-published
    *bytes = "v2";
    ref.MarkDirty();
  }
  EXPECT_EQ(DecodedBytes(&pager, id, &destroyed), "v2");

  // Create-fetch of a recycled PageId whose frame is still resident.
  f.Free(id);  // bypasses Discard on purpose
  PageId again;
  {
    PageRef ref = pager.New(&again);
    ASSERT_EQ(again, id);
    EXPECT_EQ(ref.decode(), nullptr);
    *ref.data() = "v3";
    ref.MarkDirty();
  }
  EXPECT_EQ(DecodedBytes(&pager, id, &destroyed), "v3");

  // Discard, then new bytes on the device.
  const int before_discard = destroyed;
  pool.Discard(&f, id);
  EXPECT_EQ(destroyed, before_discard + 1);
  f.Write(id, "v4");
  EXPECT_EQ(DecodedBytes(&pager, id, &destroyed), "v4");

  // DropAll, then new bytes on the device.
  const int before_drop = destroyed;
  pool.DropAll();
  EXPECT_EQ(destroyed, before_drop + 1);
  f.Write(id, "v5");
  EXPECT_EQ(DecodedBytes(&pager, id, &destroyed), "v5");
  EXPECT_EQ(pool.counters().decodes, 7u);
}

TEST(BufferPoolDecodeTest, EvictionDropsCleanAndDirtyDecodes) {
  sim::SimDisk disk;
  PageFile f(&disk, "t", 4096);
  BufferPool pool(4096, /*num_shards=*/1);  // room for one page
  Pager pager(&pool, &f);
  PageId clean = f.Allocate();
  PageId dirty = f.Allocate();
  PageId other = f.Allocate();
  f.Write(clean, "clean");
  f.Write(dirty, "dirty-old");
  f.Write(other, "other");
  int destroyed = 0;
  ASSERT_EQ(DecodedBytes(&pager, clean, &destroyed), "clean");
  {
    PageRef ref = pager.Get(dirty);  // evicts `clean`: erased in place
    EXPECT_EQ(destroyed, 1);
    *ref.data() = "dirty-new";
    ref.MarkDirty();
  }
  ASSERT_EQ(DecodedBytes(&pager, dirty, &destroyed), "dirty-new");
  { PageRef ref = pager.Get(other); }  // evicts `dirty`: detached, written
  EXPECT_EQ(destroyed, 2);
  // While evicted, the clean page changes on the device.
  f.Write(clean, "clean-new");
  EXPECT_EQ(DecodedBytes(&pager, clean, &destroyed), "clean-new");
  EXPECT_EQ(DecodedBytes(&pager, dirty, &destroyed), "dirty-new");
  EXPECT_EQ(pool.counters().evictions, 4u);
}

TEST(BufferPoolDecodeTest, RacingFirstReadersShareOneDecode) {
  sim::SimDisk disk;
  PageFile f(&disk, "t", 4096);
  BufferPool pool(1 << 20);
  Pager pager(&pool, &f);
  PageId id = f.Allocate();
  f.Write(id, "shared");
  for (int iter = 0; iter < 50; ++iter) {
    pool.DropAll();
    const uint64_t decodes_before = pool.counters().decodes;
    std::atomic<int> ready{0};
    const PageDecode* seen[2] = {nullptr, nullptr};
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
      threads.emplace_back([&, t] {
        PageRef ref = pager.Get(id);
        ready.fetch_add(1);
        while (ready.load() < 2) {}  // both pinned, neither published
        auto mine = std::make_unique<CopyDecode>(ref.bytes(), nullptr);
        seen[t] = ref.Publish(std::move(mine));
        EXPECT_EQ(static_cast<const CopyDecode*>(seen[t])->bytes(), "shared");
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(seen[0], seen[1]);
    EXPECT_EQ(pool.counters().decodes, decodes_before + 1);
  }
}

// --- Threaded stress (run under TSan in CI) --------------------------------

TEST(BufferPoolStressTest, MixedTrafficAcrossShards) {
  sim::SimDisk disk;
  PageFile f(&disk, "t", 4096);
  // Small pool so the workload constantly evicts and writes back.
  BufferPool pool(24 * 4096);
  constexpr int kThreads = 4;
  constexpr int kPagesPerThread = 32;
  constexpr int kIters = 400;
  // Pre-allocate so Allocate/Fetch interleaving is not part of this test.
  std::vector<PageId> ids;
  for (int i = 0; i < kThreads * kPagesPerThread; ++i) ids.push_back(f.Allocate());
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread owns a disjoint page range (the single-writer-per-page
      // contract); reads, writes, discards, and evictions still collide on
      // shards, frames, and the disk from all threads.
      std::mt19937 rng(t);
      std::vector<int> version(kPagesPerThread, -1);
      for (int i = 0; i < kIters; ++i) {
        int slot = static_cast<int>(rng() % kPagesPerThread);
        PageId id = ids[t * kPagesPerThread + slot];
        bool fresh = version[slot] < 0;
        std::string* data = pool.Fetch(&f, id, /*create=*/fresh);
        if (!fresh) {
          EXPECT_EQ(*data, std::to_string(version[slot])) << "page " << id;
        }
        version[slot] = i;
        *data = std::to_string(i);
        pool.MarkDirty(&f, id);
        pool.Unpin(&f, id);
        if (rng() % 64 == 0) {
          // Forget a page entirely; next touch recreates it.
          pool.Discard(&f, id);
          version[slot] = -1;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_GT(pool.misses(), 0u);
  pool.FlushAll();
  // Victims come from the missing page's own shard, so a shard whose frames
  // are all pinned (or empty) may overshoot by its incoming page; the global
  // bound under sharding is capacity plus one page per shard. (The exact
  // bound is asserted by NeverExceedsCapacityWithUnpinnedFramesAvailable,
  // which runs single-sharded.)
  EXPECT_LE(pool.cached_bytes(), 24 * 4096u + pool.num_shards() * 4096u);
}

TEST(PageFileStressTest, ConcurrentAllocateWriteFree) {
  sim::SimDisk disk;
  PageFile f(&disk, "t", 4096);
  constexpr int kThreads = 4;
  constexpr int kIters = 300;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        PageId id = f.Allocate();
        std::string payload = std::to_string(t) + ":" + std::to_string(i);
        f.Write(id, payload);
        std::string out;
        f.Read(id, &out);
        EXPECT_EQ(out, payload);
        f.Free(id);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(f.num_active_pages(), 0u);
}

TEST(DbEnvTest, DuplicateFileNameIsRejected) {
  // Regression: CreateFile used to silently create a second file under an
  // existing name, shadowing live data.
  DbEnv env;
  ASSERT_NE(env.CreateFile("t.heap", 4096), nullptr);
  auto dup = env.TryCreateFile("t.heap", 4096);
  ASSERT_FALSE(dup.ok());
  EXPECT_TRUE(dup.status().IsAlreadyExists());
  EXPECT_NE(dup.status().message().find("t.heap"), std::string::npos);
  // Distinct names still work.
  EXPECT_NE(env.CreateFile("t.cutoff", 4096), nullptr);
  // The abort-on-duplicate contract of the pointer-returning variant.
  EXPECT_DEATH(env.CreateFile("t.heap", 4096), "already exists");
}

TEST(BufferPoolTest, DiscardFileDropsEveryFrameOfThatFileOnly) {
  sim::SimDisk disk;
  PageFile doomed(&disk, "doomed", 4096);
  PageFile kept(&disk, "kept", 4096);
  BufferPool pool(1 << 20);
  for (int i = 0; i < 6; ++i) {
    PageId a = doomed.Allocate();
    pool.Fetch(&doomed, a, /*create=*/true);  // dirty and never written
    pool.Unpin(&doomed, a);
    PageId b = kept.Allocate();
    pool.Fetch(&kept, b, /*create=*/true);
    pool.Unpin(&kept, b);
  }
  const uint64_t writes_before = disk.stats().writes;
  pool.DiscardFile(&doomed);
  EXPECT_EQ(pool.cached_bytes(), 6u * 4096);
  EXPECT_EQ(disk.stats().writes, writes_before) << "dirty frames dropped, not written";
  pool.FlushAll();
  EXPECT_EQ(disk.stats().writes - writes_before, 6u) << "only the kept file's pages";
}

TEST(DbEnvTest, RemoveFileFreesFramesAndBytesButKeepsTheName) {
  DbEnv env;
  PageFile* a = env.CreateFile("t.a", 4096);
  PageFile* b = env.CreateFile("t.b", 4096);
  Pager pa = env.MakePager(a);
  for (int i = 0; i < 4; ++i) {
    PageId id;
    PageRef ref = pa.New(&id);
    ref.MarkDirty();
  }
  b->Write(b->Allocate(), "x");
  env.pool()->FlushAll();
  ASSERT_EQ(env.TotalFileBytes(), 5u * 4096);
  ASSERT_EQ(env.pool()->cached_bytes(), 4u * 4096);

  env.RemoveFile(a);
  EXPECT_FALSE(env.HasFile("t.a"));
  EXPECT_TRUE(env.HasFile("t.b"));
  EXPECT_EQ(env.files_removed(), 1u);
  EXPECT_EQ(env.TotalFileBytes(), 4096u);
  EXPECT_EQ(env.pool()->cached_bytes(), 0u);
  // The name stays reserved, and address space is not handed back: a new
  // file starts past every page the removed one occupied.
  EXPECT_TRUE(env.TryCreateFile("t.a", 4096).status().IsAlreadyExists());
  PageFile* c = env.CreateFile("t.c", 4096);
  EXPECT_GT(c->AddressOf(c->Allocate()), b->AddressOf(0));

  obs::MetricsSnapshot snap = env.metrics()->Snapshot();
  ASSERT_NE(snap.Find("upi_storage_file_bytes"), nullptr);
  EXPECT_EQ(snap.Find("upi_storage_file_bytes")->value, 2.0 * 4096);
  ASSERT_NE(snap.Find("upi_storage_files_removed_total"), nullptr);
  EXPECT_EQ(snap.Find("upi_storage_files_removed_total")->value, 1.0);
}

}  // namespace
}  // namespace upi::storage
