#include "storage/buffer_pool.h"

#include <algorithm>
#include <memory>

#include "common/check.h"

namespace upi::storage {

namespace {
// Hot segment cap: 5/8 of a shard's resident bytes, the classic midpoint
// split. A first reference parks a page in the cold segment; only a
// re-reference promotes it, so one-touch scan pages never displace the hot
// set.
constexpr uint64_t kHotNum = 5;
constexpr uint64_t kHotDen = 8;
}  // namespace

BufferPool::BufferPool(uint64_t capacity_bytes, size_t num_shards)
    : capacity_(capacity_bytes),
      shards_count_(num_shards == 0 ? 1 : num_shards),
      shards_(std::make_unique<Shard[]>(shards_count_)) {}

size_t BufferPool::ShardIndex(const Key& k) const {
  // Finalize the map hash so low-entropy PageIds spread across shards.
  uint64_t h = KeyHash{}(k);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return static_cast<size_t>(h % shards_count_);
}

void BufferPool::TouchLocked(Shard& s, const Key& k, Frame& f) {
  if (f.hot) {
    s.hot.erase(f.lru_it);
    s.hot.push_front(k);
    f.lru_it = s.hot.begin();
    return;
  }
  // Re-reference of a cold page: promote across the midpoint.
  s.cold.erase(f.lru_it);
  s.hot.push_front(k);
  f.lru_it = s.hot.begin();
  f.hot = true;
  s.hot_bytes += f.page_bytes;
  RebalanceLocked(s);
}

void BufferPool::RebalanceLocked(Shard& s) {
  while (s.hot_bytes * kHotDen > s.bytes * kHotNum && s.hot.size() > 1) {
    Key tail = s.hot.back();
    s.hot.pop_back();
    auto it = s.frames.find(tail);
    UPI_CHECK(it != s.frames.end(), "hot LRU entry without a frame");
    Frame& f = it->second;
    s.cold.push_front(tail);
    f.lru_it = s.cold.begin();
    f.hot = false;
    s.hot_bytes -= f.page_bytes;
  }
}

std::vector<BufferPool::Victim> BufferPool::DetachVictimsLocked(Shard& s) {
  std::vector<Victim> victims;
  while (cached_bytes_.load(std::memory_order_relaxed) > capacity_) {
    // Scan the cold segment from its LRU end, then the hot segment, for an
    // unpinned victim.
    std::list<Key>* lists[] = {&s.cold, &s.hot};
    Frame* victim = nullptr;
    Key victim_key{};
    for (std::list<Key>* list : lists) {
      for (auto rit = list->rbegin(); rit != list->rend(); ++rit) {
        auto fit = s.frames.find(*rit);
        UPI_CHECK(fit != s.frames.end(), "LRU entry without a frame");
        if (fit->second.pins == 0 && fit->second.flush_pins == 0) {
          victim_key = *rit;
          victim = &fit->second;
          break;
        }
      }
      if (victim != nullptr) break;
    }
    if (victim == nullptr) break;  // everything pinned: temporary overflow
    if (victim->hot) s.hot_bytes -= victim->page_bytes;
    (victim->hot ? s.hot : s.cold).erase(victim->lru_it);
    s.bytes -= victim->page_bytes;
    cached_bytes_.fetch_sub(victim->page_bytes, std::memory_order_relaxed);
    ++s.evictions;
    if (victim->dirty) {
      // Keep the frame mapped (kWriting) until the write-back lands, so a
      // concurrent re-fetch can't read stale bytes from the file. Its bytes
      // leave the frame, so its decode goes too.
      victim->decode.reset();
      victim->state = Frame::State::kWriting;
      ++s.transients;
      ++s.writebacks;
      victims.push_back(Victim{victim_key, std::move(victim->data)});
    } else {
      s.frames.erase(victim_key);
    }
  }
  return victims;
}

void BufferPool::FinishVictimsLocked(Shard& s,
                                     const std::vector<Victim>& victims) {
  for (const Victim& v : victims) {
    auto it = s.frames.find(v.key);
    UPI_CHECK(it != s.frames.end() &&
                  it->second.state == Frame::State::kWriting,
              "written-back victim frame disappeared");
    s.frames.erase(it);
    --s.transients;
  }
  if (!victims.empty()) s.cv.notify_all();
}

std::string* BufferPool::Fetch(PageFile* file, PageId id, bool create,
                              const PageDecode** decode) {
  const Key k{file, id};
  Shard& s = ShardFor(k);
  const uint32_t page_bytes = file->page_size();
  std::unique_lock<sync::Mutex> lock(s.mu);
  for (;;) {
    auto it = s.frames.find(k);
    if (it == s.frames.end()) break;
    Frame& f = it->second;
    if (f.state != Frame::State::kResident) {
      // Another thread is reading this page in (kLoading) or writing a
      // detached victim back (kWriting): wait, then re-resolve.
      s.cv.wait(lock);
      continue;
    }
    ++s.hits;
    TouchLocked(s, k, f);
    ++f.pins;
    if (create) {
      // A recycled PageId (freed via one Pager, reallocated via another on
      // the same file) can still have a resident frame; a fresh page must
      // come back empty and reach the device.
      f.data.clear();
      f.dirty = true;
      f.decode.reset();
    }
    if (decode != nullptr) *decode = f.decode.get();
    return &f.data;
  }

  // Miss: install a loading frame, then do all I/O outside the latch.
  ++s.misses;
  auto [it, inserted] = s.frames.try_emplace(k);
  UPI_CHECK(inserted, "loading frame raced an existing mapping");
  Frame& f = it->second;  // node-stable: rehashing never moves it
  f.state = Frame::State::kLoading;
  f.dirty = create;  // a new page must eventually reach the device
  f.pins = 1;
  f.page_bytes = page_bytes;
  s.bytes += page_bytes;
  s.transients += 1;
  cached_bytes_.fetch_add(page_bytes, std::memory_order_relaxed);
  std::vector<Victim> victims = DetachVictimsLocked(s);

  lock.unlock();
  if (!victims.empty()) {
    // Retire the victims before this miss's own read: a thread re-fetching
    // an evicted page waits only for its write-back, not for our unrelated
    // (in realtime mode, sleeping) page read.
    for (const Victim& v : victims) v.key.file->Write(v.key.id, v.data);
    lock.lock();
    FinishVictimsLocked(s, victims);
    lock.unlock();
  }
  if (!create) file->Read(id, &f.data);
  lock.lock();

  f.state = Frame::State::kResident;
  f.hot = false;
  s.cold.push_front(k);
  f.lru_it = s.cold.begin();
  s.transients -= 1;
  s.cv.notify_all();
  if (decode != nullptr) *decode = nullptr;
  return &f.data;
}

void BufferPool::Unpin(PageFile* file, PageId id) {
  const Key k{file, id};
  Shard& s = ShardFor(k);
  std::lock_guard<sync::Mutex> lock(s.mu);
  auto it = s.frames.find(k);
  UPI_CHECK(it != s.frames.end(), "Unpin of a page with no mapped frame");
  UPI_CHECK(it->second.state == Frame::State::kResident,
            "Unpin of a non-resident frame");
  UPI_CHECK(it->second.pins > 0, "Unpin of an unpinned frame");
  --it->second.pins;
}

BufferPool::Frame& BufferPool::ResidentFrameLocked(Shard& s, const Key& k) {
  auto it = s.frames.find(k);
  UPI_CHECK(it != s.frames.end(), "access to a page with no mapped frame");
  UPI_CHECK(it->second.state == Frame::State::kResident,
            "access to a non-resident frame");
  return it->second;
}

void BufferPool::MarkDirty(PageFile* file, PageId id) {
  const Key k{file, id};
  Shard& s = ShardFor(k);
  std::lock_guard<sync::Mutex> lock(s.mu);
  Frame& f = ResidentFrameLocked(s, k);
  f.dirty = true;
  f.decode.reset();
}

const PageDecode* BufferPool::InstallDecode(
    PageFile* file, PageId id, std::unique_ptr<const PageDecode> decode) {
  const Key k{file, id};
  Shard& s = ShardFor(k);
  std::lock_guard<sync::Mutex> lock(s.mu);
  Frame& f = ResidentFrameLocked(s, k);
  UPI_CHECK(f.pins > 0, "decode installed into an unpinned frame");
  if (f.decode == nullptr) {
    f.decode = std::move(decode);
    ++s.decodes;
  }
  return f.decode.get();
}

void BufferPool::DropDecode(PageFile* file, PageId id) {
  const Key k{file, id};
  Shard& s = ShardFor(k);
  std::lock_guard<sync::Mutex> lock(s.mu);
  ResidentFrameLocked(s, k).decode.reset();
}

std::vector<BufferPool::DirtyPage> BufferPool::CollectDirty(
    const PageFile* only_file) {
  std::vector<DirtyPage> dirty;
  for (size_t i = 0; i < shards_count_; ++i) {
    Shard& s = shards_[i];
    std::lock_guard<sync::Mutex> lock(s.mu);
    // A snapshot of the *resident* dirty set. Loading frames are skipped
    // deliberately (their creator still holds the pin and is mid-write;
    // callers that want a page flushed quiesce its writer first), and
    // detached kWriting victims are already on their way to the device.
    // Never waiting on transients keeps flushes live under sustained miss
    // traffic on other pages of the shard.
    for (auto& [k, f] : s.frames) {
      if (f.state == Frame::State::kResident && f.dirty &&
          (only_file == nullptr || k.file == only_file)) {
        dirty.push_back(DirtyPage{k.file->name(), k});
      }
    }
  }
  return dirty;
}

void BufferPool::WriteBackOne(const Key& k) {
  Shard& s = ShardFor(k);
  std::string snapshot;
  {
    std::lock_guard<sync::Mutex> lock(s.mu);
    auto it = s.frames.find(k);
    if (it == s.frames.end() || it->second.state != Frame::State::kResident ||
        !it->second.dirty) {
      return;  // evicted (and thus written) or discarded since collection
    }
    // Flush-pin + snapshot, then write outside the latch (in realtime mode a
    // write sleeps; holding the shard latch across it would stall every
    // client on this shard). Clearing dirty now is safe: a concurrent
    // re-dirty flips it back and a later flush rewrites the newer bytes.
    ++it->second.flush_pins;
    it->second.dirty = false;
    snapshot = it->second.data;
  }
  k.file->Write(k.id, snapshot);
  {
    std::lock_guard<sync::Mutex> lock(s.mu);
    auto it = s.frames.find(k);
    UPI_CHECK(it != s.frames.end() && it->second.flush_pins > 0,
              "flush-pinned frame disappeared");
    --it->second.flush_pins;
    ++s.writebacks;
    s.cv.notify_all();  // a Discard may be waiting the flush out
  }
}

void BufferPool::FlushAll() {
  std::vector<DirtyPage> dirty = CollectDirty(nullptr);
  std::sort(dirty.begin(), dirty.end(),
            [](const DirtyPage& a, const DirtyPage& b) {
              if (a.key.file != b.key.file) return a.file_name < b.file_name;
              return a.key.id < b.key.id;
            });
  for (const DirtyPage& d : dirty) WriteBackOne(d.key);
}

void BufferPool::FlushFile(PageFile* file) {
  std::vector<DirtyPage> dirty = CollectDirty(file);
  std::sort(dirty.begin(), dirty.end(),
            [](const DirtyPage& a, const DirtyPage& b) {
              return a.key.id < b.key.id;
            });
  for (const DirtyPage& d : dirty) WriteBackOne(d.key);
}

void BufferPool::DropAll() {
  FlushAll();
  for (size_t i = 0; i < shards_count_; ++i) {
    Shard& s = shards_[i];
    std::unique_lock<sync::Mutex> lock(s.mu);
    // Unlike FlushAll, clearing the map must wait out in-flight loads and
    // victim write-backs (their threads hold references into it). DropAll is
    // the stop-the-world cold-cache protocol; callers quiesce traffic.
    s.cv.wait(lock, [&s] { return s.transients == 0; });
    for (auto& [k, f] : s.frames) {
      (void)k;
      UPI_CHECK(f.pins == 0, "DropAll with a pinned frame");
      UPI_CHECK(!f.dirty, "DropAll found a dirty frame after FlushAll");
    }
    cached_bytes_.fetch_sub(s.bytes, std::memory_order_relaxed);
    s.frames.clear();
    s.hot.clear();
    s.cold.clear();
    s.bytes = 0;
    s.hot_bytes = 0;
  }
}

void BufferPool::Discard(PageFile* file, PageId id) {
  const Key k{file, id};
  Shard& s = ShardFor(k);
  std::unique_lock<sync::Mutex> lock(s.mu);
  for (;;) {
    auto it = s.frames.find(k);
    if (it == s.frames.end()) return;
    Frame& f = it->second;
    if (f.state != Frame::State::kResident || f.flush_pins > 0) {
      // In flight to or from the device (a FlushAll of another table may be
      // writing this frame): wait it out, then re-resolve.
      s.cv.wait(lock);
      continue;
    }
    UPI_CHECK(f.pins == 0, "Discard of a pinned page");
    if (f.hot) s.hot_bytes -= f.page_bytes;
    (f.hot ? s.hot : s.cold).erase(f.lru_it);
    s.bytes -= f.page_bytes;
    cached_bytes_.fetch_sub(f.page_bytes, std::memory_order_relaxed);
    s.frames.erase(it);
    return;
  }
}

uint64_t BufferPool::CachedBytesOf(PageFile* file) const {
  uint64_t total = 0;
  const auto pages = static_cast<PageId>(file->size_bytes() / file->page_size());
  for (PageId id = 0; id < pages; ++id) {
    const Key k{file, id};
    const Shard& s = shards_[ShardIndex(k)];
    std::lock_guard<sync::Mutex> lock(s.mu);
    auto it = s.frames.find(k);
    if (it != s.frames.end() && it->second.state == Frame::State::kResident) {
      total += it->second.page_bytes;
    }
  }
  return total;
}

void BufferPool::DiscardFile(PageFile* file) {
  const auto pages = static_cast<PageId>(file->size_bytes() / file->page_size());
  for (PageId id = 0; id < pages; ++id) Discard(file, id);
}

uint64_t BufferPool::hits() const {
  uint64_t total = 0;
  for (size_t i = 0; i < shards_count_; ++i) {
    std::lock_guard<sync::Mutex> lock(shards_[i].mu);
    total += shards_[i].hits;
  }
  return total;
}

uint64_t BufferPool::misses() const {
  uint64_t total = 0;
  for (size_t i = 0; i < shards_count_; ++i) {
    std::lock_guard<sync::Mutex> lock(shards_[i].mu);
    total += shards_[i].misses;
  }
  return total;
}

BufferPool::PoolCounters BufferPool::shard_counters(size_t shard) const {
  const Shard& s = shards_[shard];
  std::lock_guard<sync::Mutex> lock(s.mu);
  return PoolCounters{s.hits, s.misses, s.evictions, s.writebacks, s.decodes};
}

BufferPool::PoolCounters BufferPool::counters() const {
  PoolCounters total;
  for (size_t i = 0; i < shards_count_; ++i) {
    PoolCounters c = shard_counters(i);
    total.hits += c.hits;
    total.misses += c.misses;
    total.evictions += c.evictions;
    total.writebacks += c.writebacks;
    total.decodes += c.decodes;
  }
  return total;
}

}  // namespace upi::storage
