// Fractured UPIs (Section 4).
//
// Updates accumulate in a RAM insert buffer plus a delete set; FlushBuffer()
// writes them out sequentially as a new *fracture* — an independent UPI
// (heap + cutoff index + secondary indexes) holding only the data inserted
// since the previous flush, together with a delete-set file listing TupleIDs
// deleted in the interval. All on-disk files are written once, sequentially,
// and never updated in place — the LSM-tree idea applied per-UPI, which is
// what keeps maintenance cost near an append-only heap (Table 7) and
// eliminates fragmentation (Figure 9).
//
// Queries scan the RAM buffer, fan out to the main fracture and every delta
// fracture, union the results, and subtract delete sets (Section 4.2). Each
// probed fracture costs an extra Costinit + H seeks, the linear-in-Nfrac
// overhead the Section 6.2 cost model captures and MergeAll() (Section 4.3)
// repays. Every probe kind shares one fan-out decision: the per-fracture
// summaries (core/fracture_summary.h) skip fractures that cannot match.
//
// Per-fracture tuning: each flush snapshots the current UpiOptions, so the
// cutoff threshold or pointer limit can differ between fractures (the paper's
// adaptive-design hook; see core/advisor.h).
//
// Concurrency contract (for the background maintenance subsystem in
// src/maintenance/): readers work on snapshots. The on-disk state a probe
// reads — the main and delta fractures, their summaries and the flushed
// delete set — is one immutable FractureSet behind a shared_ptr, and every
// fracture in it is written once and never updated in place. A probe takes
// the shared_mutex only for its RAM work: it copies the set pointer, scans
// the insert buffer and captures the buffered deletes as they are at open.
// Its fan-out, page reads and delete filtering then run with no table lock,
// so no reader ever waits on the disk or the buffer pool while holding it,
// and a cursor left open blocks nobody. Queries and Insert/Delete may run
// from any number of threads.
//
// Flushes and merge installs build a new set and swap the pointer under the
// exclusive lock; a merge drops the set it replaced only after releasing the
// lock (a flush's predecessor lists nothing it frees). At most ONE
// maintenance operation (FlushBuffer / MergeAll / MergeOldestFractures) may
// be in flight at a time; MaintenanceManager serializes them per table. A merge builds without the lock, reading the
// snapshot it took, and locks only to install. A flush holds the exclusive
// lock end-to-end (sequential appends, cheap next to a merge), which keeps
// the buffered tuples visible to every probe that starts meanwhile.
//
// Reclamation: a merge marks the fractures it replaces retired. They stay
// readable for as long as any snapshot lists them; the thread that drops
// the last reference frees their buffer-pool frames and page files
// (DbEnv::RemoveFile), outside every table latch. A MergeAll also frees the
// delete-set files flushed before its snapshot. Destroying the table frees
// nothing: its files live as long as the environment, as a plain Upi's do.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/advisor.h"
#include "core/fracture_summary.h"
#include "core/upi.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sync/sync.h"

namespace upi::core {

class FracturedUpi;

/// One on-disk fracture: a UPI written once and never updated in place, and
/// its pruning summary. Shared by every FractureSet that lists it. A merge
/// that replaces it calls Retire(); the thread that then drops the last
/// reference frees its buffer-pool frames and page files.
class Fracture {
 public:
  Fracture(storage::DbEnv* env, std::unique_ptr<Upi> upi,
           std::shared_ptr<const FractureSummary> summary)
      : env_(env), upi_(std::move(upi)), summary_(std::move(summary)) {}
  Fracture(const Fracture&) = delete;
  Fracture& operator=(const Fracture&) = delete;
  ~Fracture();

  const Upi& upi() const { return *upi_; }
  /// Null only for a fracture built without one (never by FracturedUpi).
  const FractureSummary* summary() const { return summary_.get(); }
  void Retire() const { retired_.store(true); }

 private:
  storage::DbEnv* env_;
  std::unique_ptr<Upi> upi_;
  std::shared_ptr<const FractureSummary> summary_;
  mutable std::atomic<bool> retired_{false};
};

/// The on-disk state a probe reads, published as one immutable snapshot.
struct FractureSet {
  /// Fan-out order: the main fracture first when one exists, then the
  /// deltas oldest first. A table grown purely from flushes has no main.
  std::vector<std::shared_ptr<const Fracture>> slots;
  bool has_main = false;
  /// Union of all flushed delete sets (each flush also persists its own).
  std::set<catalog::TupleId> deleted;

  const Upi* main() const { return has_main ? &slots.front()->upi() : nullptr; }
  size_t num_deltas() const { return slots.size() - (has_main ? 1 : 0); }
  const Upi& upi(size_t slot) const { return slots[slot]->upi(); }
};

/// What a probe captures at open: the fracture set and the buffered
/// deletes, both immutable, so it reads them with no table lock.
struct FractureSnapshot {
  std::shared_ptr<const FractureSet> set;
  /// Sorted; null when nothing was buffered.
  std::shared_ptr<const std::vector<catalog::TupleId>> buffered_deletes;

  /// True when `id` is in a flushed or a buffered delete set.
  bool IsDeleted(catalog::TupleId id) const;
};

/// Pull-based streaming PTQ over a Fractured UPI: the pruned fan-out,
/// executed lazily. Construction scans the RAM buffer (free) and takes the
/// table's fan-out decision; each admitted fracture is opened — Costinit
/// charged, cursor seeked — only when the consumer drains into it, so a
/// LIMIT consumer that stops early never pays for the fractures behind it,
/// and a pruned fracture costs zero simulated pages. Delete sets are applied
/// per row. Rows stream buffer first, then fracture by fracture in storage
/// order; engine::AccessPath::QueryPtq is this cursor drained and sorted.
///
/// Reads the snapshot taken at construction and holds no lock: its rows are
/// those of the table as it was at open, whatever inserts, deletes, flushes
/// and merges land while it drains, and none of those waits for it. The
/// fractures it reads stay allocated until it is destroyed, so drop it once
/// drained. It must not outlive the table.
class FracturedPtqCursor {
 public:
  /// Produces the next match; false at end of stream or on error (check
  /// status() after a false return).
  bool Next(PtqMatch* out);
  const Status& status() const { return status_; }

  /// Fan-out telemetry: fractures this cursor will open at most / skipped
  /// via summaries (fixed at construction).
  size_t fractures_probed() const { return fanout_.probed; }
  size_t fractures_pruned() const { return fanout_.pruned; }

 private:
  friend class FracturedUpi;
  FracturedPtqCursor(const FracturedUpi* table, std::string_view value,
                     double qt);

  FractureSnapshot snap_;
  std::string value_;
  double qt_ = 0.0;
  std::vector<PtqMatch> buffer_rows_;
  size_t buf_idx_ = 0;
  PruneSet fanout_;       // the table's fan-out decision, opened lazily
  size_t next_slot_ = 0;  // next fan-out slot to consider
  std::optional<UpiPtqCursor> cur_;
  Status status_;
  // Per-fracture trace attribution (inert when no QueryTrace is installed):
  // the scope re-arms at each fracture boundary, so each drained fracture
  // becomes one TraceOp carrying exactly its own thread-stats delta.
  obs::TraceOpScope op_scope_;
  const Upi* cur_upi_ = nullptr;
  uint64_t cur_rows_ = 0;
};

class FracturedUpi {
 public:
  /// `secondary_columns` apply to every fracture. TupleIds must be unique
  /// across the table's lifetime (never reused after deletion).
  FracturedUpi(storage::DbEnv* env, std::string name, catalog::Schema schema,
               UpiOptions options, std::vector<int> secondary_columns);

  /// Bulk-builds the main fracture from `tuples`.
  Status BuildMain(const std::vector<catalog::Tuple>& tuples);

  /// Buffers the tuple in RAM (no I/O).
  Status Insert(const catalog::Tuple& tuple);

  /// Buffers a deletion (no I/O). Removes the tuple directly if it is still
  /// in the insert buffer.
  Status Delete(catalog::TupleId id);

  /// Writes buffered inserts/deletes out as a new fracture (sequential I/O).
  /// No-op if both buffers are empty. Uses the *current* options(), which the
  /// advisor may have retuned since the last flush.
  Status FlushBuffer();

  /// Merges main + all fractures into a fresh main UPI (Section 4.3): a
  /// parallel sort-merge costing about one sequential read plus one
  /// sequential write of the whole database (Table 8).
  Status MergeAll();

  /// Section 4.3's cheaper alternative: "One option is to only merge a few
  /// fractures at a time." Merges the `count` *oldest delta fractures* into
  /// one (the main fracture is untouched, so the cost is proportional to the
  /// merged deltas, not the whole database). No-op if fewer than two deltas.
  Status MergeOldestFractures(size_t count);

  /// Section 4.2's adaptive design: when set, every FlushBuffer() re-runs the
  /// cutoff advisor over the given workload profile using the *buffered*
  /// data's statistics, so each fracture is built with its own tuning
  /// parameters. Pass an empty workload to disable.
  void EnableAdaptiveTuning(std::vector<WorkloadQuery> workload,
                            double storage_budget_bytes);

  // --- Durability hook (see src/wal/) --------------------------------------

  /// A maintenance operation that actually changed the physical shape.
  /// `merge_count` carries MergeOldestFractures' requested count.
  enum class MaintenanceEvent { kFlush, kMergeAll, kMergePartial };

  /// Fired by FlushBuffer / MergeAll / MergeOldestFractures after the
  /// operation completes and the fracture-list lock is RELEASED (the hook
  /// may append to the WAL, whose locks rank below this table's), and only
  /// when the call was not a no-op. Set once at registration time, before
  /// the table sees concurrent traffic; the WAL layer journals the event so
  /// recovery reproduces the same fracture layout.
  void SetMaintenanceHook(
      std::function<void(MaintenanceEvent, size_t merge_count)> hook) {
    maintenance_hook_ = std::move(hook);
  }

  // --- Probes -------------------------------------------------------------
  //
  // Every probe reads the snapshot it takes at open (see the file header):
  // the RAM buffer first (no I/O), then the fractures the table's one
  // fan-out decision admits for its (column, value, qt) — main first, then
  // the deltas in list order — charging each opened fracture's
  // Costinit, and drops rows in the flushed or buffered delete sets. Under
  // a QueryTrace each probed fracture becomes one TraceOp and each pruned
  // one a zero-I/O [pruned] TraceOp; each probe moves the fan-out counters
  // once. Rows are identical with pruning on or off.

  /// Streaming PTQ on the clustered attribute (Algorithm 2 per fracture),
  /// fractures opened lazily; see FracturedPtqCursor for ordering and the
  /// snapshot it reads.
  FracturedPtqCursor OpenPtqCursor(std::string_view value, double qt) const;

  /// Secondary-index probe on `column` (Algorithm 3 per fracture when
  /// tailored). Appends rows in no particular order.
  Status QueryBySecondary(int column, std::string_view value, double qt,
                          SecondaryAccessMode mode,
                          std::vector<PtqMatch>* out) const;

  /// Direct top-k on the clustered attribute: each probed fracture
  /// contributes its first k surviving rows off a top-k cursor; the union
  /// is appended best first (SortByConfidenceDesc order), truncated to k.
  /// On top of the shared decision it keeps a running k-th-score bound and,
  /// when pruning is enabled, skips a fracture whose summary max
  /// probability cannot beat it — only fractures that cannot change the
  /// answer.
  Status QueryTopK(std::string_view value, size_t k,
                   std::vector<PtqMatch>* out) const;

  /// Full sequential sweep, deduplicated by TupleId: `fn` runs exactly once
  /// per live tuple of every scanned fracture and for every buffered tuple.
  /// A scan-filter passes its (column, value, qt) so fractures whose summary
  /// proves they hold no qualifying alternative are skipped; the caller
  /// re-checks each tuple. qt < 0 sweeps every fracture and moves no fan-out
  /// counter. column < 0 means the clustered attribute.
  Status ScanTuples(int column, std::string_view value, double qt,
                    const std::function<void(const catalog::Tuple&)>& fn) const;

  // --- Fracture pruning (see core/fracture_summary.h) ---------------------

  /// The fan-out decision a probe on (column, value, qt) would make right
  /// now, one slot per on-disk fracture in fan-out order: the main fracture
  /// first *when one exists*, then the deltas in list order (a table grown
  /// purely from flushes has no main slot). column < 0 means the clustered
  /// attribute. Respects options().enable_pruning (everything probed when
  /// disabled). Records nothing.
  PruneSet ForQuery(int column, std::string_view value, double qt) const;

  /// Planner-facing expectation for the same decision: fracture count plus
  /// the probed fractures' heap bytes. RAM-only.
  PruneEstimate EstimatePrune(int column, std::string_view value,
                              double qt) const;

  /// Cumulative fractures skipped / opened by query fan-outs since
  /// construction (bench/test telemetry).
  uint64_t fractures_pruned_total() const {
    return fractures_pruned_total_.load(std::memory_order_relaxed);
  }
  uint64_t fractures_probed_total() const {
    return fractures_probed_total_.load(std::memory_order_relaxed);
  }

  // --- Tuning / introspection ---------------------------------------------

  UpiOptions* mutable_options() { return &options_; }
  const UpiOptions& options() const { return options_; }
  /// Number of on-disk fractures including the main one (the cost model's
  /// Nfrac).
  size_t num_fractures() const { return snapshot()->slots.size(); }
  size_t buffered_inserts() const {
    std::shared_lock lock(mu_);
    return buffer_.size();
  }
  size_t buffered_deletes() const {
    std::shared_lock lock(mu_);
    return BufferedDeleteCount();
  }
  /// Serialized footprint of the RAM insert buffer (the byte watermark the
  /// maintenance flush policy checks).
  uint64_t buffered_bytes() const {
    std::shared_lock lock(mu_);
    return buffer_bytes_;
  }
  /// All three flush-watermark counters in one locked snapshot (the
  /// maintenance policy checks them on every write; one lock acquisition,
  /// not three).
  struct BufferWatermarks {
    size_t inserts = 0;
    uint64_t bytes = 0;
    size_t deletes = 0;
  };
  BufferWatermarks buffer_watermarks() const {
    std::shared_lock lock(mu_);
    return {buffer_.size(), buffer_bytes_, BufferedDeleteCount()};
  }
  uint64_t num_live_tuples() const;
  uint64_t size_bytes() const;
  /// Monotonic counter bumped whenever the cost-model inputs move: every
  /// Insert/Delete, flush, and merge install. Prepared-plan caches compare
  /// it to decide when to re-plan.
  uint64_t stats_epoch() const {
    return stats_epoch_.load(std::memory_order_relaxed);
  }
  /// Aggregated histogram estimate across main + fractures: the fraction of
  /// all heap entries a PTQ(value, qt) scans — the Section 6.2 Selectivity.
  double EstimateSelectivity(std::string_view value, double qt) const;
  /// The current fracture set. Holding it keeps every fracture it lists
  /// readable, even after a merge has replaced them.
  std::shared_ptr<const FractureSet> snapshot() const {
    std::shared_lock lock(mu_);
    return set_;
  }
  /// The current main fracture, or null. The pointer stays valid until a
  /// merge replaces that fracture: hold snapshot() instead while
  /// maintenance may run.
  const Upi* main() const { return snapshot()->main(); }
  /// Calls `fn` on main + every delta fracture of one snapshot — safe while
  /// background maintenance runs. The engine's planner reads stats and
  /// histograms through this.
  void ForEachFractureShared(const std::function<void(const Upi&)>& fn) const {
    const std::shared_ptr<const FractureSet> set = snapshot();
    for (const auto& f : set->slots) fn(f->upi());
  }
  const catalog::Schema& schema() const { return schema_; }
  const std::string& name() const { return name_; }

 private:
  friend class FracturedPtqCursor;

  /// Fires maintenance_hook_ if set. Caller must NOT hold mu_.
  void FireMaintenanceHook(MaintenanceEvent event, size_t merge_count) {
    if (maintenance_hook_) maintenance_hook_(event, merge_count);
  }

  /// A probe's RAM work, under the shared lock: appends the buffer's
  /// matches of (column, value, qt) to `buffer_rows` (see ScanBuffer) and
  /// captures the snapshot the probe then reads without the lock.
  FractureSnapshot TakeSnapshot(int column, std::string_view value, double qt,
                                std::vector<PtqMatch>* buffer_rows) const;
  size_t BufferedDeleteCount() const {
    return buffer_deletes_ == nullptr ? 0 : buffer_deletes_->size();
  }
  void RetuneFromBuffer();
  /// FlushBuffer body; caller holds the exclusive lock.
  Status FlushBufferLocked();
  /// Publishes `next` as the fracture set and returns the one it replaces,
  /// which the caller drops after releasing the exclusive lock it holds.
  std::shared_ptr<const FractureSet> Publish(
      std::shared_ptr<const FractureSet> next);
  /// True when the summary proves a probe (column, value, qt) cannot match
  /// anything in the fracture. `column` is a concrete schema column index.
  /// Never skips when pruning is disabled or the summary is missing.
  bool SkipFracture(const FractureSummary* summary, int column,
                    std::string_view value, double qt) const;
  /// The one fan-out decision: which fractures of `set` a probe on (column,
  /// value, qt) opens, one slot per fracture in fan-out order (see
  /// ForQuery). qt < 0 is the unfiltered sweep and admits every fracture.
  /// No I/O, records nothing.
  PruneSet FanOut(const FractureSet& set, int column, std::string_view value,
                  double qt) const;
  /// Books an executed fan-out: one zero-I/O [pruned] TraceOp per skipped
  /// slot on the current trace, and its probe/prune counts added once to
  /// the table atomics and the engine-wide registry counters.
  void RecordFanout(const FractureSet& set, const PruneSet& fanout) const;
  /// Maps the query convention (column < 0 = clustered attribute) to a
  /// concrete schema column.
  int ResolveColumn(int column) const {
    return column < 0 ? options_.cluster_column : column;
  }
  /// Builds the summary of a fracture about to be flushed/bulk-built: every
  /// clustered-column alternative (heap *and* cutoff — both are reachable by
  /// queries), every secondary-column alternative, every TupleId.
  std::shared_ptr<const FractureSummary> SummarizeTuples(
      const std::vector<catalog::Tuple>& tuples) const;
  /// Sort-merges `sources` into a fresh fracture, filtering ids in `deleted`
  /// (part of the snapshot the merge holds, so the build runs lock-free).
  /// Dropped ids are added to `filtered_ids`; the merged fracture's summary
  /// is built from the merge streams.
  Result<std::shared_ptr<const Fracture>> MergeUpis(
      const std::vector<const Upi*>& sources, const std::string& merged_name,
      const std::set<catalog::TupleId>& deleted,
      std::set<catalog::TupleId>* filtered_ids);
  /// Appends the RAM buffer's matches of (column, value, qt) — column < 0
  /// is the clustered attribute — and traces them as one zero-I/O op.
  /// Caller holds mu_.
  void ScanBuffer(int column, std::string_view value, double qt,
                  std::vector<PtqMatch>* out) const;
  /// Appends the RAM buffer's TraceOp (`rows` rows, no I/O) to the current
  /// trace, if any, when `rows` > 0.
  void TraceBuffer(uint64_t rows) const;
  /// Writes `ids` sequentially to a fresh delete-set file (cost accounting)
  /// and returns it.
  storage::PageFile* PersistDeleteSet(const std::string& name,
                                      const std::vector<catalog::TupleId>& ids);

  storage::DbEnv* env_;
  std::string name_;
  catalog::Schema schema_;
  UpiOptions options_;
  std::vector<int> secondary_columns_;

  /// Fired (without mu_) after a flush/merge completes; see SetMaintenanceHook.
  std::function<void(MaintenanceEvent, size_t)> maintenance_hook_;

  /// Guards set_, the RAM buffers, delsets_ and the tuple count. Shared: a
  /// probe's RAM work and introspection. Exclusive: Insert/Delete (cheap RAM
  /// mutation), a whole flush, and a merge's snapshot and install steps.
  mutable sync::SharedMutex mu_{sync::LockRank::kFracturedUpi};

  /// Never null; replaced, never modified, once published.
  std::shared_ptr<const FractureSet> set_;
  int fracture_seq_ = 0;
  /// Delete-set files in flush order; a MergeAll frees those flushed before
  /// its snapshot.
  std::vector<storage::PageFile*> delsets_;

  // Adaptive per-fracture tuning (empty workload = disabled).
  std::vector<WorkloadQuery> tuning_workload_;
  double tuning_budget_bytes_ = 0.0;

  // RAM state. The serialized size rides along with each buffered tuple so
  // the byte watermark never re-serializes on the write path.
  struct BufferedTuple {
    catalog::Tuple tuple;
    uint64_t bytes = 0;
  };
  std::unordered_map<catalog::TupleId, BufferedTuple> buffer_;
  uint64_t buffer_bytes_ = 0;  // serialized footprint of buffer_
  /// Deletions not yet flushed, sorted; null when empty. Copied on write by
  /// each Delete (O(buffered deletes), bounded by the flush watermark), so
  /// a probe captures it with one pointer copy.
  std::shared_ptr<const std::vector<catalog::TupleId>> buffer_deletes_;
  uint64_t main_and_fracture_tuples_ = 0;
  std::atomic<uint64_t> stats_epoch_{0};
  mutable std::atomic<uint64_t> fractures_pruned_total_{0};
  mutable std::atomic<uint64_t> fractures_probed_total_{0};
  // Engine-wide pruning counters, cached from env_->metrics() at
  // construction (the registry outlives every table of its environment).
  obs::Counter* m_fractures_probed_ = nullptr;
  obs::Counter* m_fractures_pruned_ = nullptr;
  obs::Counter* m_bloom_rejects_ = nullptr;
};

}  // namespace upi::core
