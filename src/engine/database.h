// The Database facade: named tables over one shared DbEnv, with declarative
// planner-backed query execution and automatic background maintenance.
//
// This is the deployment shape the engine layer exists for: callers create
// tables by name (clustered UPI, Fractured UPI, or the unclustered baseline)
// and describe reads as Query values (see engine/query.h) — run one-shot
// with Run(), streamed through OpenCursor(), or planned-once via Prepare()
// whose plan cache the table's stats epoch invalidates. Every execution
// returns its explainable Plan. Maintenance is never scheduled by hand:
// Fractured tables are auto-registered with the environment's
// MaintenanceManager, and every Insert/Delete notifies it so the Section 6.2
// watermarks drive flushes and merges.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "engine/access_path.h"
#include "engine/partition.h"
#include "engine/planner.h"
#include "engine/query.h"
#include "maintenance/manager.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"
#include "storage/db_env.h"
#include "wal/recovery.h"
#include "wal/wal_writer.h"

namespace upi::engine {

class Database;

/// DatabaseOptions::gather_workers sentinel: size the gather pool from
/// std::thread::hardware_concurrency (clamped to [4, 16]).
inline constexpr size_t kGatherWorkersAuto = static_cast<size_t>(-1);

/// A named table: one underlying physical design, its AccessPath view, and a
/// QueryPlanner. Created and owned by a Database.
class Table {
 public:
  enum class Kind { kUpi, kFractured, kUnclustered, kPartitioned };

  const std::string& name() const { return name_; }
  Kind kind() const { return kind_; }
  AccessPath* path() const { return path_.get(); }
  const QueryPlanner& planner() const { return *planner_; }

  // --- Declarative execution (see engine/query.h). ------------------------

  /// Plans `q` and executes it materialized: rows sorted by descending
  /// confidence, top-k / LIMIT / predicate applied. Returns the Plan (feed
  /// it to Plan::Explain() for the EXPLAIN output).
  Result<Plan> Run(const Query& q, std::vector<core::PtqMatch>* out) const;

  /// Plans `q` and opens a pull-based cursor: LIMIT/top-k consumers stop the
  /// underlying descent early instead of materializing the match set. Row
  /// order is plan-dependent (see exec/cursor.h).
  ///
  /// Lifetime contract: a *streaming* cursor (clustered PTQ / direct top-k
  /// on a plain UPI table) walks live index pages — drain it before any
  /// Insert/Delete on this table, and do not hold it across another
  /// session's writes. A fractured PTQ cursor streams the pruned fan-out
  /// lazily from the snapshot it took at open and holds no lock: writes and
  /// maintenance on that table proceed while it drains and do not change
  /// its rows, but the fractures it reads stay allocated until it is
  /// destroyed.
  /// Remaining fan-out and union plans (secondary probes, scans, threshold
  /// top-k) compute their rows in one call at the first pull and hold
  /// nothing afterwards.
  Result<std::unique_ptr<ResultCursor>> OpenCursor(const Query& q) const;

  /// Validates and prepares `q` for repeated execution: the plan is cached
  /// per parameter-histogram bucket and re-planned only when this table's
  /// stats_epoch() moves. `q.value` is a placeholder — Bind() supplies it.
  Result<PreparedQuery> Prepare(Query q) const;

  /// Bumped by every Insert/Delete, maintenance flush, and merge install.
  uint64_t stats_epoch() const { return path_->StatsEpoch(); }

  /// The planner's snapshot of the table's physical shape (RAM-only).
  PathStats stats() const { return path_->Stats(); }

  // --- EXPLAIN ANALYZE (see obs/trace.h). ---------------------------------

  /// One analyzed execution: the chosen plan, the per-operator trace with
  /// estimates filled in, the rows, and the rendered report.
  struct AnalyzeResult {
    Plan plan;
    obs::QueryTrace trace;
    std::vector<core::PtqMatch> rows;
    double est_rows = 0.0;   // planner's expectation for the whole query
    double est_pages = 0.0;
    std::string text;        // the EXPLAIN ANALYZE report
  };

  /// Plans and executes `q` under a QueryTrace, reconciling per-operator
  /// actuals (pages/seeks/rows/simulated ms from scoped thread-stats deltas)
  /// against the planner's estimates. Charges the query's normal simulated
  /// I/O — run it as you would the query itself.
  Result<AnalyzeResult> AnalyzeQuery(const Query& q) const;

  /// AnalyzeQuery rendered as text: Plan::Explain() followed by the
  /// per-operator actual rows/pages/seeks/sim-ms and the estimated vs.
  /// actual totals.
  Result<std::string> ExplainAnalyze(const Query& q) const;

  // --- Writes. Fractured tables notify the maintenance manager, which
  // flushes/merges per its cost-model policy. When the database has a WAL,
  // the write is journaled first (holding the checkpoint gate shared across
  // append + apply) and made durable per the configured WalMode before
  // returning.
  Status Insert(const catalog::Tuple& tuple);
  Status Delete(const catalog::Tuple& tuple);

  // --- Escape hatches to the concrete design (nullptr when not that kind).
  core::Upi* upi() const { return upi_.get(); }
  core::FracturedUpi* fractured() const { return fractured_.get(); }
  baseline::UnclusteredTable* unclustered() const { return unclustered_.get(); }
  PartitionedTable* partitioned() const { return partitioned_; }

 private:
  friend class Database;
  Table() = default;

  /// The in-memory mutation, sans WAL (also the recovery replay path).
  Status ApplyInsert(const catalog::Tuple& tuple);
  Status ApplyDelete(const catalog::Tuple& tuple);

  std::string name_;
  Kind kind_ = Kind::kUpi;
  Database* db_ = nullptr;
  /// Everything needed to journal this table's creation (and checkpoint
  /// snapshots of it) as a WAL kCreateTable record.
  wal::TableSpec spec_;
  const ExecInstruments* instruments_ = nullptr;  // owned by the Database
  std::unique_ptr<core::Upi> upi_;
  std::unique_ptr<core::FracturedUpi> fractured_;
  std::unique_ptr<baseline::UnclusteredTable> unclustered_;
  PartitionedTable* partitioned_ = nullptr;  // owned as path_
  std::unique_ptr<AccessPath> path_;
  std::unique_ptr<QueryPlanner> planner_;
};

struct DatabaseOptions {
  /// Buffer-pool bytes (see DbEnv for the default's rationale).
  uint64_t pool_bytes = 32ull << 20;
  /// Buffer-pool latch shards (see BufferPool; 1 = single classic pool).
  size_t pool_shards = storage::BufferPool::kDefaultShards;
  sim::CostParams params{};
  /// Device profile the database runs on (sim/device_profile.h). When set it
  /// wins over `params`: disk, planners, and merge policy all price against
  /// it. Unset (the default) means the spinning disk built from `params` —
  /// bit-identical to the pre-profile engine.
  std::optional<sim::DeviceProfile> device;
  /// Maintenance setup; num_workers == 0 keeps maintenance synchronous
  /// (drain with RunMaintenance()), > 0 runs it on background threads.
  maintenance::MaintenanceManagerOptions maintenance{};
  /// Runtime metrics switch (MetricsRegistry::set_enabled). Snapshots still
  /// work when off — native counters just stop moving.
  bool enable_metrics = true;
  /// Simulated-ms threshold above which executions are recorded in the
  /// slow-query log; 0 disables the log entirely.
  double slow_query_ms = 0.0;
  /// Entries the slow-query log retains (oldest drop first).
  size_t slow_query_log_capacity = 128;
  /// Scatter-gather worker threads shared by every partitioned table (see
  /// engine/partition.h). kGatherWorkersAuto sizes from the hardware; 0 runs
  /// shard probes serially on the querying thread. The pool is spawned
  /// lazily, on the first CreatePartitionedTable().
  size_t gather_workers = kGatherWorkersAuto;

  // --- Durability (see src/wal/). -----------------------------------------

  /// Host directory for the write-ahead log; empty disables durability
  /// entirely (the seed behaviour — nothing is journaled, nothing is
  /// recovered, no log device is registered). When set, the constructor
  /// replays `wal_dir + "/wal.log"` if it exists and journals every
  /// mutation from then on.
  std::string wal_dir;
  /// Per-operation sync (kCommit) vs. leader/follower group commit (kGroup).
  wal::WalMode wal_mode = wal::WalMode::kGroup;
  /// Schedules a background checkpoint (snapshot + log truncation) once the
  /// log grows this many bytes past the last one. 0 = only explicit
  /// Checkpoint() calls truncate the log.
  uint64_t wal_checkpoint_bytes = 0;
  /// kGroup lone-leader batching window (WalWriterOptions::group_window_us).
  /// When the device runs realtime-scaled sleeps, set this toward half the
  /// scaled rotation cost: waiting half a rotation to share a full one.
  uint32_t wal_group_window_us = 200;
};

class Database {
 public:
  explicit Database(DatabaseOptions options = {});
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Bulk-builds a clustered UPI table.
  Result<Table*> CreateUpiTable(const std::string& name, catalog::Schema schema,
                                core::UpiOptions options,
                                std::vector<int> secondary_columns,
                                const std::vector<catalog::Tuple>& tuples);

  /// Creates a Fractured UPI table (bulk-building the main fracture from
  /// `tuples` when non-empty) and registers it with the maintenance manager.
  Result<Table*> CreateFracturedTable(const std::string& name,
                                      catalog::Schema schema,
                                      core::UpiOptions options,
                                      std::vector<int> secondary_columns,
                                      const std::vector<catalog::Tuple>& tuples);

  /// Creates a horizontally partitioned table (see engine/partition.h): N
  /// independent UPI / Fractured-UPI shards behind one logical name, writes
  /// routed by `popts`'s scheme on the clustered attribute, reads scatter-
  /// gathered across the shards the per-shard summaries admit. Fractured
  /// shards register with the maintenance manager individually, so their
  /// flushes and merges interleave instead of serializing behind one lock.
  Result<Table*> CreatePartitionedTable(const std::string& name,
                                        catalog::Schema schema,
                                        core::UpiOptions options,
                                        std::vector<int> secondary_columns,
                                        PartitionOptions popts,
                                        const std::vector<catalog::Tuple>& tuples);

  /// Bulk-builds an unclustered baseline table with PII indexes on
  /// `pii_columns`; `primary_column` is the attribute PTQs probe.
  Result<Table*> CreateUnclusteredTable(const std::string& name,
                                        catalog::Schema schema,
                                        int primary_column,
                                        std::vector<int> pii_columns,
                                        const std::vector<catalog::Tuple>& tuples);

  /// nullptr when no such table exists.
  Table* GetTable(const std::string& name) const;

  std::vector<std::string> TableNames() const;

  storage::DbEnv* env() { return &env_; }
  maintenance::MaintenanceManager* maintenance() { return &manager_; }
  /// The shared scatter-gather pool; nullptr until the first partitioned
  /// table is created (or forever, when gather_workers == 0).
  GatherPool* gather_pool() const { return gather_pool_.get(); }

  // --- Observability (see obs/metrics.h). ---------------------------------

  obs::MetricsRegistry* metrics() const { return env_.metrics(); }
  /// Point-in-time copy of every engine metric: native counters, disk and
  /// buffer-pool exports. Serialize with ToJson()/ToPrometheus().
  obs::MetricsSnapshot MetricsSnapshot() const {
    return env_.metrics()->Snapshot();
  }
  obs::SlowQueryLog* slow_query_log() { return &slow_log_; }
  /// Adjusts the slow-query threshold (0 disarms). Not synchronized against
  /// in-flight queries — set it between workloads, not during one.
  void set_slow_query_ms(double ms) { instruments_.slow_query_ms = ms; }
  const ExecInstruments& instruments() const { return instruments_; }

  /// Synchronous maintenance: drains pending flush/merge tasks on the calling
  /// thread. Returns tasks executed.
  size_t RunMaintenance() { return manager_.RunPending(); }

  // --- Durability (see src/wal/). -----------------------------------------

  /// The write-ahead log, or nullptr when DatabaseOptions::wal_dir is empty
  /// (and during constructor-time recovery, so replayed operations are not
  /// re-journaled).
  wal::WalWriter* wal() const { return wal_.get(); }

  /// What constructor-time recovery replayed (all zeros when the log was
  /// absent or empty).
  const wal::RecoveryStats& recovery_stats() const { return recovery_stats_; }

  /// Snapshots every table into a fresh log and truncates the old one, under
  /// the WAL gate held exclusive (an atomic cut: no mutation is applied but
  /// unlogged, or logged but unapplied, across the snapshot). Runs on the
  /// caller's thread; not synchronized against concurrent Create*Table DDL.
  Status Checkpoint();

  /// Enqueues a background checkpoint with the maintenance manager when the
  /// log has outgrown DatabaseOptions::wal_checkpoint_bytes.
  void MaybeScheduleCheckpoint();

  /// The Section 7.1 cold-cache protocol (benches).
  void ColdCache() { env_.ColdCache(); }

  const sim::CostParams& params() const { return params_; }
  const sim::DeviceProfile& profile() const { return profile_; }

 private:
  friend class Table;
  Result<Table*> Install(std::unique_ptr<Table> table);
  /// Spawns the shared gather pool on first use (per options_.gather_workers).
  GatherPool* EnsureGatherPool();
  /// Journals a table's creation (no-op while wal_ is unarmed).
  void LogCreate(Table* table, const std::vector<catalog::Tuple>& tuples);
  /// Installed as the FracturedUpi maintenance hook on every fractured table
  /// and partition shard: journals the completed flush/merge so recovery
  /// reproduces the exact fracture layout. shard < 0 = the table itself.
  void LogMaintenance(const std::string& table, int shard,
                      core::FracturedUpi::MaintenanceEvent event,
                      size_t merge_count);
  /// Hooks `frac` (owned by table `name`, shard `shard`) into LogMaintenance.
  void InstallMaintenanceHook(core::FracturedUpi* frac, const std::string& name,
                              int shard);

  DatabaseOptions options_;
  sim::DeviceProfile profile_;
  sim::CostParams params_;  // == profile_.cost
  storage::DbEnv env_;
  obs::SlowQueryLog slow_log_;
  ExecInstruments instruments_;  // handed by pointer to every table
  // Declared after env_ (the writer's destructor syncs through the env's
  // simulated log device) and before tables_/manager_ (the checkpoint task
  // and the tables' write paths use it until the manager stops).
  std::unique_ptr<wal::WalWriter> wal_;
  wal::RecoveryStats recovery_stats_;
  std::string wal_path_;
  // The gather pool is declared before the tables so in-flight shard probes
  // can never outlive it... and the tables before the manager so the manager
  // (whose destructor stops workers and waits for in-flight tasks) is
  // destroyed first.
  std::unique_ptr<GatherPool> gather_pool_;
  std::map<std::string, std::unique_ptr<Table>> tables_;
  maintenance::MaintenanceManager manager_;
};

}  // namespace upi::engine
