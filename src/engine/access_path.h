// The engine's physical-access abstraction.
//
// Every concrete layout in this codebase — the clustered UPI (Section 3), the
// Fractured UPI (Section 4), and the Section 7.2 baselines (PII over an
// unclustered heap, secondary U-Tree) — answers the same logical requests:
// probabilistic threshold queries, top-k, secondary probes. AccessPath is the
// common interface the executor operators and the cost-based QueryPlanner
// work against, so callers are no longer welded to core::Upi. Adapters are
// thin non-owning views (cheap to construct, no I/O of their own); the
// estimation hooks are RAM-only so the planner never spends simulated disk
// time to make a decision.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "baseline/secondary_utree.h"
#include "baseline/unclustered_table.h"
#include "core/cost_model.h"
#include "core/fractured_upi.h"
#include "core/upi.h"
#include "engine/query.h"
#include "histogram/selectivity.h"

namespace upi::engine {

/// Everything the planner needs to know about a path's physical shape.
/// Assembled fresh on each call so it tracks maintenance (merges change
/// Nfrac, inserts grow the heap).
struct PathStats {
  core::TableStats table;        // heap footprint, Nleaf, H, Nfrac
  double cutoff = 0.0;           // the cutoff threshold C (0 when N/A)
  uint64_t heap_entries = 0;     // heap entries across all fractures
  uint64_t num_tuples = 0;
  double avg_entry_bytes = 0.0;  // serialized heap entry footprint
  /// Device span for distance-dependent seek pricing (SimDisk::SeekSpan).
  uint64_t seek_span_bytes = 0;
  /// Distinct primary-attribute values (heap regions a sweep can target).
  double distinct_primary_values = 0.0;
  /// Whether each probe pays Costinit per file touched (the Fractured UPI
  /// always does, per fracture; plain UPIs only with charge_open_per_query).
  bool charges_open_per_query = false;
  bool supports_scan = false;
  bool supports_direct_topk = false;
  /// True when the primary probe reads one clustered region (UPI); false when
  /// it random-fetches through an inverted list (PII baseline).
  bool clustered = true;
  /// Concurrent shard probes a scatter-gather path can overlap (>= 1).
  /// Single-index paths report 1; a partitioned path reports its gather
  /// parallelism so the planner divides index-probe candidates by the
  /// per-query fan-out actually running in parallel.
  double gather_width = 1.0;
};

class AccessPath {
 public:
  virtual ~AccessPath() = default;

  virtual const std::string& name() const = 0;
  virtual const catalog::Schema& schema() const = 0;
  virtual PathStats Stats() const = 0;

  // --- Probes (charge simulated I/O) ---------------------------------------
  //
  // Every probe returns a ResultCursor, never nullptr. A path that lacks a
  // probe returns a cursor whose status() is NotSupported. Cursors may work
  // lazily (the UPI heap phase, PII heap fetches, the partitioned k-way
  // merge) or compute their rows in one call at the first pull (fan-out
  // secondary probes, top-k without a stream of its own); consumers cannot
  // tell the two apart.

  /// PTQ on the path's primary uncertain attribute. Deferred phases (e.g.
  /// cutoff-pointer fetches) run only if the consumer drains that far.
  virtual std::unique_ptr<ResultCursor> OpenPtqStream(std::string_view value,
                                                      double qt) const;

  /// Direct top-k: the probability-descending row stream, bounded by the
  /// consumer's limit (set it to k before the first pull; paths that need k
  /// up front read it from there). NotSupported unless
  /// Stats().supports_direct_topk.
  virtual std::unique_ptr<ResultCursor> OpenTopKStream(
      std::string_view value) const;

  /// Probe through a secondary index on `column`. Paths without pointer
  /// tailoring ignore `mode`.
  virtual std::unique_ptr<ResultCursor> OpenSecondaryStream(
      int column, std::string_view value, double qt,
      core::SecondaryAccessMode mode) const;

  /// Full sequential sweep; `fn` is called exactly once per live tuple (heap
  /// duplicates are deduplicated here). A sweep serving a scan-filter passes
  /// its (column, value, qt) so paths with pruning metadata (per-fracture
  /// and per-shard summaries) skip storage units that provably cannot
  /// contain a qualifying alternative; column < 0 means the primary
  /// attribute. qt < 0 sweeps every tuple: nothing is pruned and no fan-out
  /// counter moves. NotSupported unless Stats().supports_scan.
  virtual Status ScanTuples(
      int column, std::string_view value, double qt,
      const std::function<void(const catalog::Tuple&)>& fn) const;

  /// Probabilistic spatial range query (continuous paths only).
  virtual Status QueryRange(prob::Point center, double radius, double qt,
                            std::vector<core::PtqMatch>* out) const;

  // --- Materialized probes: the cursors above drained into `out` (appended),
  // sorted by descending confidence (ties by TupleId). ------------------------

  Status QueryPtq(std::string_view value, double qt,
                  std::vector<core::PtqMatch>* out) const {
    return Drain(OpenPtqStream(value, qt), 0, out);
  }
  Status QueryTopK(std::string_view value, size_t k,
                   std::vector<core::PtqMatch>* out) const {
    return Drain(OpenTopKStream(value), k, out);
  }
  Status QuerySecondary(int column, std::string_view value, double qt,
                        core::SecondaryAccessMode mode,
                        std::vector<core::PtqMatch>* out) const {
    return Drain(OpenSecondaryStream(column, value, qt, mode), 0, out);
  }

  virtual bool HasSecondary(int column) const {
    (void)column;
    return false;
  }

  /// Schema column the primary probe filters on (-1 when N/A).
  virtual int primary_column() const { return -1; }

  /// The underlying table's stats epoch (see core::Upi::stats_epoch);
  /// prepared-plan caches re-plan when it moves. 0 = path never changes.
  virtual uint64_t StatsEpoch() const { return 0; }

  // --- Estimation hooks (RAM only, no simulated I/O) -----------------------

  /// Section 6.1 estimate for a primary-attribute PTQ.
  virtual histogram::PtqEstimate EstimatePtq(std::string_view value,
                                             double qt) const = 0;

  /// Expected secondary-index entries matching (value, qt) on `column` — the
  /// pointer count fed into the Section 6.3 sigmoid. 0 when unknown.
  virtual double EstimateSecondaryMatches(int column, std::string_view value,
                                          double qt) const {
    (void)column, (void)value, (void)qt;
    return 0.0;
  }

  /// Expected fan-out of a probe on (column, value, qt) after pruning: how
  /// many fractures the query will actually open, and their heap bytes.
  /// column < 0 means the primary attribute. The default — probe every
  /// fracture, full table bytes — is what paths without pruning metadata do;
  /// the Fractured UPI consults its per-fracture summaries, replacing the
  /// planner's Nfrac with the expected-probed count.
  virtual core::PruneEstimate EstimatePrune(int column, std::string_view value,
                                            double qt) const;

  /// Average heap pointers per secondary entry on `column` (>= 1): the
  /// tailored-access overlap opportunity.
  virtual double SecondaryAvgPointers(int column) const {
    (void)column;
    return 1.0;
  }

  /// Horizontal-shard fan-out of a probe on (column, value, qt): how many
  /// shards it must touch after zone-map admissibility, out of how many.
  /// Single-index paths are one shard probing itself; the partitioned path
  /// consults its per-shard summaries. column < 0 means the primary
  /// attribute.
  struct ShardFanout {
    double probed = 1.0;
    uint32_t total = 1;
  };
  virtual ShardFanout EstimateShards(int column, std::string_view value,
                                     double qt) const {
    (void)column, (void)value, (void)qt;
    return {};
  }

  /// Histogram-suggested threshold of the k-th best answer (Section 9's
  /// estimated-threshold top-k strategy); 0 when unknown.
  virtual double EstimateTopKThreshold(std::string_view value,
                                       size_t k) const {
    (void)value, (void)k;
    return 0.0;
  }

 private:
  static Status Drain(std::unique_ptr<ResultCursor> cursor, size_t limit,
                      std::vector<core::PtqMatch>* out);
};

/// Adapter over a clustered UPI (Section 3).
class UpiAccessPath : public AccessPath {
 public:
  explicit UpiAccessPath(const core::Upi* upi) : upi_(upi) {}

  const std::string& name() const override { return upi_->name(); }
  const catalog::Schema& schema() const override { return upi_->schema(); }
  PathStats Stats() const override;

  std::unique_ptr<ResultCursor> OpenPtqStream(std::string_view value,
                                              double qt) const override;
  std::unique_ptr<ResultCursor> OpenTopKStream(
      std::string_view value) const override;
  std::unique_ptr<ResultCursor> OpenSecondaryStream(
      int column, std::string_view value, double qt,
      core::SecondaryAccessMode mode) const override;
  Status ScanTuples(
      int column, std::string_view value, double qt,
      const std::function<void(const catalog::Tuple&)>& fn) const override;

  uint64_t StatsEpoch() const override { return upi_->stats_epoch(); }

  bool HasSecondary(int column) const override;
  int primary_column() const override { return upi_->options().cluster_column; }
  histogram::PtqEstimate EstimatePtq(std::string_view value,
                                     double qt) const override;
  double EstimateSecondaryMatches(int column, std::string_view value,
                                  double qt) const override;
  double SecondaryAvgPointers(int column) const override;
  double EstimateTopKThreshold(std::string_view value, size_t k) const override;

  const core::Upi* upi() const { return upi_; }

 private:
  const core::Upi* upi_;
};

/// Adapter over a Fractured UPI (Section 4). Queries fan out across
/// fractures — pruned through the per-fracture summaries (zone maps, Bloom
/// fences, max-probability cutoffs) unless UpiOptions::enable_pruning is
/// off; the estimation hooks aggregate per-fracture stats and histograms
/// over one snapshot of the fracture set, so planning (like querying) is
/// safe while background maintenance workers merge underneath.
class FracturedAccessPath : public AccessPath {
 public:
  explicit FracturedAccessPath(const core::FracturedUpi* table)
      : table_(table) {}

  const std::string& name() const override;
  const catalog::Schema& schema() const override { return table_->schema(); }
  PathStats Stats() const override;

  /// Streaming PTQ over the pruned fan-out, fractures opened lazily, read
  /// from the snapshot taken at open (see core::FracturedPtqCursor).
  std::unique_ptr<ResultCursor> OpenPtqStream(std::string_view value,
                                              double qt) const override;
  /// FracturedUpi::QueryTopK with k = the consumer's limit, at first pull.
  std::unique_ptr<ResultCursor> OpenTopKStream(
      std::string_view value) const override;
  std::unique_ptr<ResultCursor> OpenSecondaryStream(
      int column, std::string_view value, double qt,
      core::SecondaryAccessMode mode) const override;
  Status ScanTuples(
      int column, std::string_view value, double qt,
      const std::function<void(const catalog::Tuple&)>& fn) const override;

  uint64_t StatsEpoch() const override { return table_->stats_epoch(); }
  core::PruneEstimate EstimatePrune(int column, std::string_view value,
                                    double qt) const override {
    return table_->EstimatePrune(column, value, qt);
  }

  bool HasSecondary(int column) const override;
  int primary_column() const override {
    return table_->options().cluster_column;
  }
  histogram::PtqEstimate EstimatePtq(std::string_view value,
                                     double qt) const override;
  double EstimateSecondaryMatches(int column, std::string_view value,
                                  double qt) const override;
  double SecondaryAvgPointers(int column) const override;
  double EstimateTopKThreshold(std::string_view value, size_t k) const override;

  const core::FracturedUpi* fractured() const { return table_; }

 private:
  /// Applies `fn` to main + every delta fracture.
  void ForEachUpi(const std::function<void(const core::Upi&)>& fn) const;

  const core::FracturedUpi* table_;
};

/// Adapter over the unclustered baseline: PTQ / top-k route through the PII
/// index on `primary_column`; secondary probes use the PII index on the
/// requested column (no pointer tailoring exists — `mode` is ignored).
/// Estimation uses in-RAM probability histograms built by BuildStatistics
/// (the facade calls it at table creation; a real system would persist them
/// in the catalog).
class UnclusteredAccessPath : public AccessPath {
 public:
  UnclusteredAccessPath(baseline::UnclusteredTable* table, int primary_column)
      : table_(table), primary_column_(primary_column) {}

  /// Populates the per-column histograms from the table's tuples (RAM only).
  void BuildStatistics(const std::vector<catalog::Tuple>& tuples);

  const std::string& name() const override { return name_; }
  const catalog::Schema& schema() const override { return table_->schema(); }
  PathStats Stats() const override;

  std::unique_ptr<ResultCursor> OpenPtqStream(std::string_view value,
                                              double qt) const override;
  std::unique_ptr<ResultCursor> OpenTopKStream(
      std::string_view value) const override;
  std::unique_ptr<ResultCursor> OpenSecondaryStream(
      int column, std::string_view value, double qt,
      core::SecondaryAccessMode mode) const override;
  Status ScanTuples(
      int column, std::string_view value, double qt,
      const std::function<void(const catalog::Tuple&)>& fn) const override;

  uint64_t StatsEpoch() const override { return table_->stats_epoch(); }

  bool HasSecondary(int column) const override;
  int primary_column() const override { return primary_column_; }
  histogram::PtqEstimate EstimatePtq(std::string_view value,
                                     double qt) const override;
  double EstimateSecondaryMatches(int column, std::string_view value,
                                  double qt) const override;
  double EstimateTopKThreshold(std::string_view value, size_t k) const override;

  baseline::UnclusteredTable* table() const { return table_; }

 private:
  double CountMatches(int column, std::string_view value, double qt) const;

  baseline::UnclusteredTable* table_;
  int primary_column_;
  std::string name_ = "unclustered";
  std::map<int, histogram::ProbHistogram> histograms_;
};

/// Adapter over the secondary U-Tree baseline (spatial range queries only).
class UtreeAccessPath : public AccessPath {
 public:
  UtreeAccessPath(baseline::UnclusteredTable* table,
                  const baseline::SecondaryUtree* utree)
      : table_(table), utree_(utree) {}

  const std::string& name() const override { return name_; }
  const catalog::Schema& schema() const override { return table_->schema(); }
  PathStats Stats() const override;

  Status QueryRange(prob::Point center, double radius, double qt,
                    std::vector<core::PtqMatch>* out) const override;
  histogram::PtqEstimate EstimatePtq(std::string_view value,
                                     double qt) const override {
    (void)value, (void)qt;
    return {};
  }

 private:
  baseline::UnclusteredTable* table_;
  const baseline::SecondaryUtree* utree_;
  std::string name_ = "secondary-utree";
};

}  // namespace upi::engine
