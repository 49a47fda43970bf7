// Sharded, scan-resistant LRU buffer pool shared by all files of a database.
//
// The paper's experiments distinguish "cold" queries (buffer cache dropped)
// from steady-state maintenance where the hot index pages stay resident.
// DropAll() implements the cold protocol; a capacity smaller than the
// database forces the eviction-driven random writes that make non-fractured
// UPI maintenance expensive (Table 7).
//
// Concurrency design (the serving-path requirements, in order of importance):
//
//  * Sharding. (file, page) hashes to one of N independent shards, each with
//    its own mutex, LRU lists, and hit/miss counters, so concurrent clients
//    probing different pages never touch the same lock. Capacity is accounted
//    globally (one atomic), victims are taken from the miss's own shard; a
//    shard with nothing evictable admits its page anyway, so the pool can
//    exceed capacity by at most one page per shard (exact with one shard).
//
//  * I/O outside the latch. A miss installs a *loading* frame, releases the
//    shard latch, performs the eviction write-backs and the PageFile::Read,
//    then re-acquires the latch to publish the frame. Concurrent fetchers of
//    the same page find the loading frame and wait on the shard's condvar
//    (one disk read, many waiters); fetchers of other pages in the shard
//    proceed under the briefly-held latch. Dirty victims stay mapped in a
//    *writing* state until their write-back completes, so a re-fetch can
//    never read the file before the newest bytes land.
//
//  * Scan resistance. Each shard keeps a two-segment LRU (midpoint
//    insertion): pages enter the cold segment and are promoted to the hot
//    segment only on re-reference; eviction drains the cold tail first, and
//    the hot segment is capped at 5/8 of the shard's resident bytes. A
//    ScanFilter sweep therefore churns only the cold segment and leaves hot
//    UPI inner nodes resident.
//
// Determinism: a single-threaded client sees the exact read/write sequence
// of the pre-sharding pool whenever the working set fits in capacity (the
// regime of every figure bench) — hashing only picks which latch guards a
// page, never whether I/O happens.
//
// Returned page pointers stay valid while pinned (frames are node-stable and
// pinned frames are never evicted); concurrent *readers* of a pinned page
// are safe, and writers are serialized above this layer (a page is only
// written by the single thread building its file, or under the table's
// exclusive lock). Pin-protocol violations (unpinning an unmapped frame,
// discarding a pinned page) abort in every build type — see common/check.h.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/page_file.h"
#include "sync/sync.h"

namespace upi::storage {

class BufferPool {
 public:
  static constexpr size_t kDefaultShards = 16;

  /// `capacity_bytes` bounds the sum of cached page sizes (globally, across
  /// shards). `num_shards` is a concurrency knob; 1 gives a single classic
  /// pool (useful for tests that need full control over eviction order).
  explicit BufferPool(uint64_t capacity_bytes,
                      size_t num_shards = kDefaultShards);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  ~BufferPool() { FlushAll(); }

  /// Returns the cached contents of (file, id), pinned. If `create` is true
  /// the page is assumed freshly allocated: no disk read is charged, and any
  /// stale frame cached under a recycled PageId is reset to empty + dirty.
  std::string* Fetch(PageFile* file, PageId id, bool create = false);

  void Unpin(PageFile* file, PageId id);
  void MarkDirty(PageFile* file, PageId id);

  /// Writes back every dirty frame, in (file-name, page-id) order so a batch
  /// flush of a freshly built file is physically sequential.
  void FlushAll();

  /// Flushes dirty frames of one file only.
  void FlushFile(PageFile* file);

  /// Flushes everything, then evicts every frame: the cold-cache protocol.
  void DropAll();

  /// Drops the frame for a page being freed, discarding dirty data.
  void Discard(PageFile* file, PageId id);

  /// One shard's (or the whole pool's) served/eviction traffic. `writebacks`
  /// counts pages written to the device from the pool: dirty eviction
  /// victims plus flush write-backs.
  struct PoolCounters {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t writebacks = 0;
  };

  uint64_t hits() const;
  uint64_t misses() const;
  /// Sum across shards.
  PoolCounters counters() const;
  /// One shard's counters (metrics export labels these by shard index).
  PoolCounters shard_counters(size_t shard) const;
  uint64_t cached_bytes() const {
    return cached_bytes_.load(std::memory_order_relaxed);
  }
  size_t num_shards() const { return shards_count_; }

  /// Shard a page maps to (exposed for shard-distribution tests).
  size_t ShardIndexOf(PageFile* file, PageId id) const {
    return ShardIndex(Key{file, id});
  }

 private:
  // Equality is on the file's address; the hash uses the file's name hash,
  // fixed when the PageFile is built, so the shard a page lands in (and with
  // it every eviction choice) repeats exactly from run to run.
  struct Key {
    Key() = default;
    Key(PageFile* f, PageId i) : file(f), id(i), file_hash(f->name_hash()) {}
    PageFile* file = nullptr;
    PageId id = kInvalidPage;
    size_t file_hash = 0;
    bool operator==(const Key& o) const { return file == o.file && id == o.id; }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return k.file_hash * 1000003u ^ k.id;
    }
  };

  struct Frame {
    // kLoading: being read in by its fetching thread; data not yet valid.
    // kResident: data valid, frame linked into one of the LRU segments.
    // kWriting: detached dirty victim whose write-back is in flight; the
    //           frame blocks re-fetch (waiters sleep on the shard condvar
    //           until it is erased) so the file is never read stale.
    enum class State : uint8_t { kLoading, kResident, kWriting };
    std::string data;
    State state = State::kLoading;
    bool dirty = false;
    bool hot = false;  // which LRU segment (valid when kResident)
    int pins = 0;
    // Transient hold by a flush writing this frame outside the latch. Kept
    // separate from `pins` so Discard can wait it out on the condvar instead
    // of treating it as a caller pin-protocol violation (which aborts).
    int flush_pins = 0;
    uint32_t page_bytes = 0;
    std::list<Key>::iterator lru_it;  // valid when kResident
  };

  struct Shard {
    mutable sync::Mutex mu{sync::LockRank::kBufferPoolShard};
    sync::CondVar cv;  // loading/writing frames settling
    std::unordered_map<Key, Frame, KeyHash> frames;
    std::list<Key> hot;   // front = most recent
    std::list<Key> cold;  // front = midpoint insertion point
    uint64_t bytes = 0;      // resident bytes in this shard
    uint64_t hot_bytes = 0;  // resident bytes in the hot segment
    uint32_t transients = 0;  // frames in kLoading or kWriting
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;   // frames pushed out by capacity pressure
    uint64_t writebacks = 0;  // device writes issued for this shard's frames
  };

  /// A dirty frame detached for eviction: written back outside the latch.
  struct Victim {
    Key key;
    std::string data;
  };

  size_t ShardIndex(const Key& k) const;
  Shard& ShardFor(const Key& k) { return shards_[ShardIndex(k)]; }

  /// Moves a re-referenced frame to its segment head, promoting cold->hot and
  /// rebalancing the midpoint. Caller holds s.mu.
  void TouchLocked(Shard& s, const Key& k, Frame& f);
  /// Demotes hot-tail frames to the cold head until the hot segment is back
  /// under its 5/8 cap. Caller holds s.mu.
  void RebalanceLocked(Shard& s);
  /// Evicts unpinned resident frames of `s` (cold tail first, then hot tail)
  /// until the global total fits capacity or the shard has no victim left.
  /// Clean victims are erased in place; dirty ones are detached as kWriting
  /// and returned for the caller to write back after releasing s.mu.
  std::vector<Victim> DetachVictimsLocked(Shard& s);
  /// Erases detached victims after their write-back and wakes waiters.
  void FinishVictimsLocked(Shard& s, const std::vector<Victim>& victims);
  /// Snapshots the keys of dirty *resident* frames (optionally of one file).
  /// Loading frames are skipped (their creator holds the pin mid-write) and
  /// kWriting victims are already being written — so flushes never block on
  /// other pages' in-flight I/O.
  std::vector<Key> CollectDirty(const PageFile* only_file);
  /// Writes back one page if it is still mapped, resident, and dirty; the
  /// frame is pinned and snapshotted so the device write happens outside the
  /// shard latch.
  void WriteBackOne(const Key& k);

  const uint64_t capacity_;
  const size_t shards_count_;
  std::atomic<uint64_t> cached_bytes_{0};
  std::unique_ptr<Shard[]> shards_;
};

}  // namespace upi::storage
