// A "database environment": one simulated disk plus one buffer pool shared by
// all files of a database, mirroring a BerkeleyDB environment. Owns the page
// files it creates; a file lives until RemoveFile or the environment's end.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "sim/sim_disk.h"
#include "storage/buffer_pool.h"
#include "storage/log_file.h"
#include "storage/page_file.h"
#include "storage/pager.h"
#include "sync/sync.h"

namespace upi::storage {

class DbEnv {
 public:
  /// `pool_bytes` defaults to 32 MiB — deliberately smaller than the bench
  /// datasets so that maintenance workloads show the eviction-driven random
  /// writes the paper measures (Table 7), while single queries still keep
  /// their working set resident as on the paper's machine. `pool_shards`
  /// controls buffer-pool latch sharding (1 = a single classic pool).
  explicit DbEnv(uint64_t pool_bytes = 32ull << 20,
                 sim::CostParams params = sim::CostParams{},
                 size_t pool_shards = BufferPool::kDefaultShards)
      : DbEnv(pool_bytes, sim::DeviceProfile::SpinningDisk(params),
              pool_shards) {}

  /// Device-profile shape: the environment's disk impersonates `profile`
  /// (sim/device_profile.h); planner and merge policy built on this
  /// environment price against the same profile via profile().
  DbEnv(uint64_t pool_bytes, sim::DeviceProfile profile,
        size_t pool_shards = BufferPool::kDefaultShards)
      : disk_(profile), pool_(pool_bytes, pool_shards) {
    // Export the counters disk and pool already maintain for themselves as
    // snapshot-time hooks — zero hot-path cost, no double accounting. The
    // hook captures `this`; registry and subjects share this DbEnv's
    // lifetime.
    registry_.AddSnapshotHook(
        [this](obs::MetricsSnapshot* snap) { ExportStorageMetrics(snap); });
  }

  /// Creates a new page file on this environment's disk. Thread-safe:
  /// background maintenance workers create fracture files while other
  /// threads query. File names are unique per environment; a duplicate name
  /// aborts (it would silently shadow live data otherwise) — callers that
  /// want to recover use TryCreateFile.
  PageFile* CreateFile(const std::string& name, uint32_t page_size) {
    auto file = TryCreateFile(name, page_size);
    if (!file.ok()) {
      std::fprintf(stderr, "DbEnv::CreateFile: %s\n",
                   file.status().ToString().c_str());
      std::abort();
    }
    return std::move(file).value();
  }

  /// Status-returning variant of CreateFile.
  Result<PageFile*> TryCreateFile(const std::string& name, uint32_t page_size) {
    std::lock_guard<sync::Mutex> lock(files_mu_);
    if (!file_names_.insert(name).second) {
      return Status::AlreadyExists("file '" + name +
                                   "' already exists in this environment");
    }
    files_.push_back(std::make_unique<PageFile>(&disk_, name, page_size));
    return files_.back().get();
  }

  /// Creates a sequential append-only log device region (the WAL's charging
  /// model; see storage/log_file.h). Shares the page-file namespace so a log
  /// can never shadow a table file. `preexisting_bytes` re-seeds the region
  /// for a log that already exists on the host (recovery).
  Result<LogFile*> TryCreateLogFile(const std::string& name,
                                    uint64_t extent_bytes,
                                    uint64_t preexisting_bytes) {
    std::lock_guard<sync::Mutex> lock(files_mu_);
    if (!file_names_.insert(name).second) {
      return Status::AlreadyExists("file '" + name +
                                   "' already exists in this environment");
    }
    log_files_.push_back(std::make_unique<LogFile>(
        &disk_, name, extent_bytes, preexisting_bytes));
    return log_files_.back().get();
  }

  /// Frees a page file nobody references any more (a fracture a merge
  /// replaced): first its buffer-pool frames, then the file and its page
  /// contents. The name stays reserved, and the disk's address space is not
  /// reused, so later files land where they would have without the removal.
  /// Caller holds no latch: the discard may wait out in-flight write-backs.
  void RemoveFile(PageFile* file) {
    pool_.DiscardFile(file);
    std::unique_ptr<PageFile> doomed;
    {
      std::lock_guard<sync::Mutex> lock(files_mu_);
      auto it = std::find_if(files_.begin(), files_.end(),
                             [file](const auto& f) { return f.get() == file; });
      UPI_CHECK(it != files_.end(), "RemoveFile of a file this env does not own");
      doomed = std::move(*it);
      *it = std::move(files_.back());
      files_.pop_back();
      ++files_removed_;
    }
  }

  Pager MakePager(PageFile* file) { return Pager(&pool_, file); }

  /// The cold-cache protocol from Section 7.1 ("performed with a cold
  /// database and buffer cache"): flush + drop every cached page and forget
  /// the head position.
  void ColdCache() {
    pool_.DropAll();
    disk_.ResetHead();
  }

  sim::SimDisk* disk() { return &disk_; }
  const sim::SimDisk* disk() const { return &disk_; }
  BufferPool* pool() { return &pool_; }
  obs::MetricsRegistry* metrics() const { return &registry_; }
  const sim::CostParams& params() const { return disk_.params(); }
  const sim::DeviceProfile& profile() const { return disk_.profile(); }

  /// Total footprint of all live files (the paper's "DB size").
  uint64_t TotalFileBytes() const {
    std::lock_guard<sync::Mutex> lock(files_mu_);
    uint64_t total = 0;
    for (const auto& f : files_) total += f->size_bytes();
    return total;
  }
  /// True while a page file named `name` is live (created, not removed).
  bool HasFile(const std::string& name) const {
    std::lock_guard<sync::Mutex> lock(files_mu_);
    return std::any_of(files_.begin(), files_.end(),
                       [&name](const auto& f) { return f->name() == name; });
  }
  /// Page files freed by RemoveFile so far.
  uint64_t files_removed() const {
    std::lock_guard<sync::Mutex> lock(files_mu_);
    return files_removed_;
  }

 private:
  void ExportStorageMetrics(obs::MetricsSnapshot* snap) const {
    const sim::DiskStats d = disk_.stats();
    auto counter = [snap](const char* name, double v) {
      snap->counters.push_back({name, "", v});
    };
    counter("upi_disk_reads_total", static_cast<double>(d.reads));
    counter("upi_disk_writes_total", static_cast<double>(d.writes));
    counter("upi_disk_seeks_total", static_cast<double>(d.seeks));
    counter("upi_disk_seek_ms_total", d.seek_ms);
    counter("upi_disk_bytes_read_total", static_cast<double>(d.bytes_read));
    counter("upi_disk_bytes_written_total",
            static_cast<double>(d.bytes_written));
    counter("upi_disk_file_opens_total", static_cast<double>(d.file_opens));
    counter("upi_disk_sim_ms_total", d.SimMs(disk_.params()));
    // Device-profile families: all-zero on the spinning-disk profile, live on
    // flash (GC surcharge, queue-overlap savings, depth distribution).
    counter("upi_device_gc_ms_total", d.gc_ms);
    counter("upi_device_gc_erases_total", static_cast<double>(d.gc_erases));
    counter("upi_device_overlapped_io_total",
            static_cast<double>(d.overlapped_ios));
    counter("upi_device_overlap_saved_ms_total", d.overlap_saved_ms);
    auto depth_hist = disk_.QueueDepthHistogram();
    for (size_t depth = 1; depth < depth_hist.size(); ++depth) {
      if (depth_hist[depth] == 0) continue;
      snap->counters.push_back({"upi_device_queue_depth_total",
                                "depth=\"" + std::to_string(depth) + "\"",
                                static_cast<double>(depth_hist[depth])});
    }
    for (size_t i = 0; i < pool_.num_shards(); ++i) {
      BufferPool::PoolCounters c = pool_.shard_counters(i);
      std::string label = "shard=\"" + std::to_string(i) + "\"";
      auto sharded = [snap, &label](const char* name, uint64_t v) {
        snap->counters.push_back({name, label, static_cast<double>(v)});
      };
      sharded("upi_bufferpool_hits_total", c.hits);
      sharded("upi_bufferpool_misses_total", c.misses);
      sharded("upi_bufferpool_evictions_total", c.evictions);
      sharded("upi_bufferpool_writebacks_total", c.writebacks);
      sharded("upi_bufferpool_decodes_total", c.decodes);
    }
    snap->gauges.push_back({"upi_bufferpool_cached_bytes", "",
                            static_cast<double>(pool_.cached_bytes())});
    snap->gauges.push_back({"upi_storage_file_bytes", "",
                            static_cast<double>(TotalFileBytes())});
    counter("upi_storage_files_removed_total",
            static_cast<double>(files_removed()));
  }

  // Declared first so every other member (whose instrumentation holds
  // pointers into the registry) is destroyed before it.
  mutable obs::MetricsRegistry registry_;
  sim::SimDisk disk_;
  // Declared before pool_ so the pool (whose destructor flushes dirty pages
  // back to these files) is destroyed first.
  mutable sync::Mutex files_mu_{sync::LockRank::kDbEnvFiles};
  std::vector<std::unique_ptr<PageFile>> files_;
  std::vector<std::unique_ptr<LogFile>> log_files_;
  std::unordered_set<std::string> file_names_;
  uint64_t files_removed_ = 0;
  BufferPool pool_;
};

}  // namespace upi::storage
