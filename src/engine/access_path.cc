#include "engine/access_path.h"

#include <algorithm>
#include <unordered_set>

namespace upi::engine {

namespace {

double AvgEntryBytes(uint64_t table_bytes, uint64_t entries) {
  return entries == 0 ? 0.0
                      : static_cast<double>(table_bytes) /
                            static_cast<double>(entries);
}

/// ResultCursor over a core algorithm cursor: core::UpiPtqCursor (streaming
/// Algorithm 2) or core::FracturedPtqCursor (the pruned fan-out, executed
/// lazily over the snapshot it took at open).
template <typename CoreCursor>
class CoreStreamCursor : public ResultCursor {
 public:
  explicit CoreStreamCursor(CoreCursor cursor) : cursor_(std::move(cursor)) {}

 private:
  bool Produce(core::PtqMatch* out) override {
    if (cursor_.Next(out)) return true;
    status_ = cursor_.status();
    return false;
  }

  CoreCursor cursor_;
};

template <typename CoreCursor>
std::unique_ptr<ResultCursor> StreamOf(CoreCursor cursor) {
  return std::make_unique<CoreStreamCursor<CoreCursor>>(std::move(cursor));
}

/// ResultCursor over a PII probe: the inverted-list entries are collected up
/// front (one index scan, as QueryPii does), but each tuple's random heap
/// seek happens only when the consumer pulls its row. A failed collection is
/// carried as the cursor's status.
class PiiStreamCursor : public ResultCursor {
 public:
  PiiStreamCursor(const baseline::UnclusteredTable* table,
                  std::vector<baseline::PiiIndex::Entry> entries,
                  Status collect_status)
      : table_(table), entries_(std::move(entries)) {
    status_ = std::move(collect_status);
  }

 private:
  bool Produce(core::PtqMatch* out) override {
    if (!status_.ok() || idx_ >= entries_.size()) return false;
    Status st = table_->FetchMatch(entries_[idx_++], out);
    if (!st.ok()) {
      status_ = st;
      return false;
    }
    return true;
  }

  const baseline::UnclusteredTable* table_;
  std::vector<baseline::PiiIndex::Entry> entries_;
  size_t idx_ = 0;
};

}  // namespace

// ---------------------------------------------------------------------------
// AccessPath defaults
// ---------------------------------------------------------------------------

std::unique_ptr<ResultCursor> AccessPath::OpenPtqStream(std::string_view,
                                                        double) const {
  return RowsCursor::Failed(
      Status::NotSupported(name() + ": no primary-attribute probe"));
}

std::unique_ptr<ResultCursor> AccessPath::OpenTopKStream(
    std::string_view) const {
  return RowsCursor::Failed(
      Status::NotSupported(name() + ": no direct top-k cursor"));
}

std::unique_ptr<ResultCursor> AccessPath::OpenSecondaryStream(
    int, std::string_view, double, core::SecondaryAccessMode) const {
  return RowsCursor::Failed(
      Status::NotSupported(name() + ": no secondary index"));
}

Status AccessPath::ScanTuples(
    int, std::string_view, double,
    const std::function<void(const catalog::Tuple&)>&) const {
  return Status::NotSupported(name() + ": no sequential scan");
}

Status AccessPath::QueryRange(prob::Point, double, double,
                              std::vector<core::PtqMatch>*) const {
  return Status::NotSupported(name() + ": no spatial range query");
}

Status AccessPath::Drain(std::unique_ptr<ResultCursor> cursor, size_t limit,
                         std::vector<core::PtqMatch>* out) {
  cursor->SetLimit(limit);
  std::vector<core::PtqMatch> rows;
  core::PtqMatch m;
  while (cursor->TakeNext(&m)) rows.push_back(std::move(m));
  UPI_RETURN_NOT_OK(cursor->status());
  core::SortByConfidenceDesc(&rows);
  out->insert(out->end(), std::make_move_iterator(rows.begin()),
              std::make_move_iterator(rows.end()));
  return Status::OK();
}

core::PruneEstimate AccessPath::EstimatePrune(int, std::string_view,
                                              double) const {
  // No pruning metadata: every fracture is probed and a sweep transfers the
  // whole table.
  PathStats s = Stats();
  core::PruneEstimate pe;
  pe.total_fractures = s.table.num_fractures > 0 ? s.table.num_fractures : 1;
  pe.probed_fractures = static_cast<double>(pe.total_fractures);
  pe.probed_bytes = s.table.table_bytes;
  return pe;
}

// ---------------------------------------------------------------------------
// UpiAccessPath
// ---------------------------------------------------------------------------

PathStats UpiAccessPath::Stats() const {
  PathStats s;
  s.table = core::TableStats::Of(*upi_);
  s.cutoff = upi_->options().cutoff;
  s.heap_entries = upi_->heap_entries();
  s.num_tuples = upi_->num_tuples();
  s.avg_entry_bytes = AvgEntryBytes(s.table.table_bytes, s.heap_entries);
  s.seek_span_bytes =
      upi_->heap_tree()->pager()->file()->disk()->SeekSpan();
  s.distinct_primary_values =
      static_cast<double>(upi_->prob_histogram().distinct_values());
  s.charges_open_per_query = upi_->options().charge_open_per_query;
  s.supports_scan = true;
  s.supports_direct_topk = true;
  s.clustered = true;
  return s;
}

Status UpiAccessPath::ScanTuples(
    int, std::string_view, double,
    const std::function<void(const catalog::Tuple&)>& fn) const {
  // No pruning metadata: every sweep reads the whole heap. Same open
  // protocol as the PTQ (and as ScanMs prices it).
  if (upi_->options().charge_open_per_query) {
    upi_->heap_tree()->pager()->file()->ChargeOpen();
  }
  // The heap duplicates a tuple once per (non-cutoff) alternative; report
  // each tuple once.
  std::unordered_set<catalog::TupleId> seen;
  Status st = Status::OK();
  upi_->ScanHeap([&](std::string_view key, std::string_view tuple_bytes) {
    if (!st.ok()) return;
    core::UpiKey k;
    Status dst = core::DecodeUpiKey(key, &k);
    if (!dst.ok()) {
      st = dst;
      return;
    }
    if (!seen.insert(k.id).second) return;
    auto tuple = catalog::Tuple::Deserialize(tuple_bytes);
    if (!tuple.ok()) {
      st = tuple.status();
      return;
    }
    fn(std::move(tuple).value());
  });
  return st;
}

std::unique_ptr<ResultCursor> UpiAccessPath::OpenPtqStream(
    std::string_view value, double qt) const {
  return StreamOf(upi_->OpenPtqCursor(value, qt));
}

std::unique_ptr<ResultCursor> UpiAccessPath::OpenTopKStream(
    std::string_view value) const {
  return StreamOf(upi_->OpenTopKCursor(value));
}

std::unique_ptr<ResultCursor> UpiAccessPath::OpenSecondaryStream(
    int column, std::string_view value, double qt,
    core::SecondaryAccessMode mode) const {
  return std::make_unique<RowsCursor>(
      [upi = upi_, column, value = std::string(value), qt, mode](
          size_t, std::vector<core::PtqMatch>* out) {
        return upi->QueryBySecondary(column, value, qt, mode, out);
      },
      /*k_bounded=*/false);
}

bool UpiAccessPath::HasSecondary(int column) const {
  return upi_->secondary(column) != nullptr;
}

histogram::PtqEstimate UpiAccessPath::EstimatePtq(std::string_view value,
                                                  double qt) const {
  return upi_->EstimatePtq(value, qt);
}

double UpiAccessPath::EstimateSecondaryMatches(int column,
                                               std::string_view value,
                                               double qt) const {
  return upi_->EstimateSecondaryMatches(column, value, qt);
}

double UpiAccessPath::SecondaryAvgPointers(int column) const {
  core::SecondaryIndex* sec = upi_->secondary(column);
  return sec == nullptr ? 1.0 : sec->avg_pointers();
}

double UpiAccessPath::EstimateTopKThreshold(std::string_view value,
                                            size_t k) const {
  histogram::SelectivityEstimator est(&upi_->prob_histogram());
  return est.EstimateKthThreshold(value, k);
}

// ---------------------------------------------------------------------------
// FracturedAccessPath
// ---------------------------------------------------------------------------

const std::string& FracturedAccessPath::name() const { return table_->name(); }

void FracturedAccessPath::ForEachUpi(
    const std::function<void(const core::Upi&)>& fn) const {
  // One snapshot of the fracture set: installed fractures are immutable and
  // stay alive while it is held, so planning stays safe while background
  // maintenance workers merge underneath.
  table_->ForEachFractureShared(fn);
}

PathStats FracturedAccessPath::Stats() const {
  PathStats s;
  s.cutoff = table_->options().cutoff;
  s.table.page_size = table_->options().page_size;
  uint32_t fractures = 0;
  ForEachUpi([&](const core::Upi& u) {
    core::TableStats t = core::TableStats::Of(u);
    s.table.table_bytes += t.table_bytes;
    s.table.num_leaf_pages += t.num_leaf_pages;
    s.table.btree_height = std::max(s.table.btree_height, t.btree_height);
    ++fractures;
    s.heap_entries += u.heap_entries();
    s.num_tuples += u.num_tuples();
    s.seek_span_bytes = u.heap_tree()->pager()->file()->disk()->SeekSpan();
    // Values recur across fractures: the widest fracture approximates the
    // distinct count better than the sum.
    s.distinct_primary_values =
        std::max(s.distinct_primary_values,
                 static_cast<double>(u.prob_histogram().distinct_values()));
  });
  s.table.num_fractures = fractures > 0 ? fractures : 1;
  s.num_tuples += table_->buffered_inserts();
  s.avg_entry_bytes = AvgEntryBytes(s.table.table_bytes, s.heap_entries);
  // Every fractured query pays Costinit per probed fracture (Section 6.2's
  // Nfrac * Costinit term; FracturedUpi charges it itself).
  s.charges_open_per_query = true;
  s.supports_scan = true;  // fan-out sweep incl. the RAM buffer
  // Summary-pruned fan-out with a running k-th-score bound (see
  // FracturedUpi::QueryTopK); each probed fracture streams k rows at most.
  s.supports_direct_topk = true;
  s.clustered = true;
  return s;
}

std::unique_ptr<ResultCursor> FracturedAccessPath::OpenPtqStream(
    std::string_view value, double qt) const {
  return StreamOf(table_->OpenPtqCursor(value, qt));
}

std::unique_ptr<ResultCursor> FracturedAccessPath::OpenTopKStream(
    std::string_view value) const {
  return std::make_unique<RowsCursor>(
      [table = table_, value = std::string(value)](
          size_t k, std::vector<core::PtqMatch>* out) {
        return table->QueryTopK(value, k, out);
      },
      /*k_bounded=*/true);
}

std::unique_ptr<ResultCursor> FracturedAccessPath::OpenSecondaryStream(
    int column, std::string_view value, double qt,
    core::SecondaryAccessMode mode) const {
  return std::make_unique<RowsCursor>(
      [table = table_, column, value = std::string(value), qt, mode](
          size_t, std::vector<core::PtqMatch>* out) {
        return table->QueryBySecondary(column, value, qt, mode, out);
      },
      /*k_bounded=*/false);
}

Status FracturedAccessPath::ScanTuples(
    int column, std::string_view value, double qt,
    const std::function<void(const catalog::Tuple&)>& fn) const {
  return table_->ScanTuples(column, value, qt, fn);
}

bool FracturedAccessPath::HasSecondary(int column) const {
  bool has = false;
  ForEachUpi([&](const core::Upi& u) { has |= u.secondary(column) != nullptr; });
  return has;
}

histogram::PtqEstimate FracturedAccessPath::EstimatePtq(std::string_view value,
                                                        double qt) const {
  histogram::PtqEstimate est;
  double total_heap = 0.0;
  ForEachUpi([&](const core::Upi& u) {
    histogram::PtqEstimate e = u.EstimatePtq(value, qt);
    est.heap_entries += e.heap_entries;
    est.cutoff_pointers += e.cutoff_pointers;
    total_heap += static_cast<double>(u.heap_entries());
  });
  est.selectivity =
      total_heap > 0 ? std::min(1.0, est.heap_entries / total_heap) : 0.0;
  return est;
}

double FracturedAccessPath::EstimateSecondaryMatches(int column,
                                                     std::string_view value,
                                                     double qt) const {
  double n = 0.0;
  ForEachUpi([&](const core::Upi& u) {
    n += u.EstimateSecondaryMatches(column, value, qt);
  });
  return n;
}

double FracturedAccessPath::SecondaryAvgPointers(int column) const {
  double weighted = 0.0, entries = 0.0;
  ForEachUpi([&](const core::Upi& u) {
    core::SecondaryIndex* sec = u.secondary(column);
    if (sec == nullptr) return;
    double n = static_cast<double>(sec->num_entries());
    weighted += sec->avg_pointers() * n;
    entries += n;
  });
  return entries > 0 ? weighted / entries : 1.0;
}

double FracturedAccessPath::EstimateTopKThreshold(std::string_view value,
                                                  size_t k) const {
  // Combined k-th threshold across fractures: walk the shared bucket grid
  // from the top, accumulating every fracture's expected entries per bucket.
  int nb = 0;
  ForEachUpi([&](const core::Upi& u) {
    nb = std::max(nb, u.prob_histogram().num_buckets());
  });
  if (nb == 0) return 0.0;
  double acc = 0.0;
  for (int b = nb - 1; b >= 0; --b) {
    double lo = static_cast<double>(b) / nb;
    double hi = static_cast<double>(b + 1) / nb + (b == nb - 1 ? 1e-9 : 0.0);
    ForEachUpi([&](const core::Upi& u) {
      acc += u.prob_histogram().CountFirst(value, lo, hi) +
             u.prob_histogram().CountRest(value, lo, hi);
    });
    if (acc >= static_cast<double>(k)) return lo;
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// UnclusteredAccessPath
// ---------------------------------------------------------------------------

void UnclusteredAccessPath::BuildStatistics(
    const std::vector<catalog::Tuple>& tuples) {
  histograms_.clear();
  const catalog::Schema& sch = table_->schema();
  for (size_t col = 0; col < sch.num_columns(); ++col) {
    int c = static_cast<int>(col);
    if (c != primary_column_ && table_->pii(c) == nullptr) continue;
    if (sch.column(col).type != catalog::ValueType::kDiscrete) continue;
    histogram::ProbHistogram& hist =
        histograms_.emplace(c, histogram::ProbHistogram{}).first->second;
    for (const catalog::Tuple& t : tuples) {
      const catalog::Value& v = t.Get(c);
      if (v.type() != catalog::ValueType::kDiscrete) continue;
      for (const auto& alt : v.discrete().alternatives()) {
        hist.Add(alt.value, t.existence() * alt.prob, /*is_first=*/false);
      }
    }
  }
}

PathStats UnclusteredAccessPath::Stats() const {
  PathStats s;
  storage::HeapFile* heap = table_->heap();
  s.table.table_bytes = heap->pager()->file()->size_bytes();
  s.table.num_leaf_pages = heap->num_pages();
  baseline::PiiIndex* pii = table_->pii(primary_column_);
  s.table.btree_height = pii != nullptr ? pii->tree()->height() : 1;
  s.table.num_fractures = 1;
  s.table.page_size = heap->pager()->file()->page_size();
  s.heap_entries = heap->live_records();
  s.num_tuples = table_->num_tuples();
  s.avg_entry_bytes = AvgEntryBytes(s.table.table_bytes, s.heap_entries);
  s.seek_span_bytes = heap->pager()->file()->disk()->SeekSpan();
  auto it = histograms_.find(primary_column_);
  s.distinct_primary_values =
      it != histograms_.end()
          ? static_cast<double>(it->second.distinct_values())
          : 0.0;
  s.charges_open_per_query = table_->charge_open_per_query;
  s.supports_scan = true;
  s.supports_direct_topk = pii != nullptr;
  s.clustered = false;
  return s;
}

Status UnclusteredAccessPath::ScanTuples(
    int, std::string_view, double,
    const std::function<void(const catalog::Tuple&)>& fn) const {
  // Same open protocol as QueryPii (and as ScanMs prices it).
  if (table_->charge_open_per_query) {
    table_->heap()->pager()->file()->ChargeOpen();
  }
  Status st = Status::OK();
  table_->heap()->Scan([&](storage::Rid, std::string_view record) {
    if (!st.ok()) return false;
    auto tuple = catalog::Tuple::Deserialize(record);
    if (!tuple.ok()) {
      st = tuple.status();
      return false;
    }
    fn(std::move(tuple).value());
    return true;
  });
  return st;
}

std::unique_ptr<ResultCursor> UnclusteredAccessPath::OpenPtqStream(
    std::string_view value, double qt) const {
  // PTQs are secondary probes on the primary column's PII index.
  return OpenSecondaryStream(primary_column_, value, qt,
                             core::SecondaryAccessMode::kFirstPointer);
}

std::unique_ptr<ResultCursor> UnclusteredAccessPath::OpenTopKStream(
    std::string_view value) const {
  return std::make_unique<RowsCursor>(
      [table = table_, column = primary_column_, value = std::string(value)](
          size_t k, std::vector<core::PtqMatch>* out) {
        return table->QueryTopK(column, value, k, out);
      },
      /*k_bounded=*/true);
}

std::unique_ptr<ResultCursor> UnclusteredAccessPath::OpenSecondaryStream(
    int column, std::string_view value, double qt,
    core::SecondaryAccessMode) const {
  // PII entries carry a single RID — there is nothing to tailor.
  std::vector<baseline::PiiIndex::Entry> entries;
  Status st = table_->CollectPiiMatches(column, value, qt, &entries);
  return std::make_unique<PiiStreamCursor>(table_, std::move(entries),
                                           std::move(st));
}

bool UnclusteredAccessPath::HasSecondary(int column) const {
  return table_->pii(column) != nullptr;
}

double UnclusteredAccessPath::CountMatches(int column, std::string_view value,
                                           double qt) const {
  auto it = histograms_.find(column);
  if (it == histograms_.end()) return 0.0;
  return it->second.CountRest(value, qt, 1.0 + 1e-9);
}

histogram::PtqEstimate UnclusteredAccessPath::EstimatePtq(
    std::string_view value, double qt) const {
  histogram::PtqEstimate est;
  est.heap_entries = CountMatches(primary_column_, value, qt);
  double total = static_cast<double>(table_->num_tuples());
  est.selectivity = total > 0 ? std::min(1.0, est.heap_entries / total) : 0.0;
  return est;
}

double UnclusteredAccessPath::EstimateSecondaryMatches(int column,
                                                       std::string_view value,
                                                       double qt) const {
  return CountMatches(column, value, qt);
}

double UnclusteredAccessPath::EstimateTopKThreshold(std::string_view value,
                                                    size_t k) const {
  auto it = histograms_.find(primary_column_);
  if (it == histograms_.end()) return 0.0;
  histogram::SelectivityEstimator est(&it->second);
  return est.EstimateKthThreshold(value, k);
}

// ---------------------------------------------------------------------------
// UtreeAccessPath
// ---------------------------------------------------------------------------

PathStats UtreeAccessPath::Stats() const {
  PathStats s;
  storage::HeapFile* heap = table_->heap();
  s.table.table_bytes = heap->pager()->file()->size_bytes();
  s.table.num_leaf_pages = heap->num_pages();
  s.table.page_size = heap->pager()->file()->page_size();
  s.heap_entries = heap->live_records();
  s.num_tuples = table_->num_tuples();
  s.avg_entry_bytes = AvgEntryBytes(s.table.table_bytes, s.heap_entries);
  s.charges_open_per_query = utree_->charge_open_per_query;
  s.clustered = false;
  return s;
}

Status UtreeAccessPath::QueryRange(prob::Point center, double radius, double qt,
                                   std::vector<core::PtqMatch>* out) const {
  return utree_->QueryRange(*table_, center, radius, qt, out);
}

}  // namespace upi::engine
