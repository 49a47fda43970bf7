#include "core/fractured_upi.h"

#include <algorithm>
#include <functional>
#include <queue>

#include "common/check.h"
#include "common/coding.h"

namespace upi::core {

using catalog::Tuple;
using catalog::TupleId;
using catalog::Value;
using catalog::ValueType;

namespace {

/// K-way merge of B+Trees whose keys are globally unique: emits every (key,
/// value) pair in ascending key order. The parallel sort-merge of Section 4.3.
Status MergeTrees(const std::vector<const btree::BTree*>& trees,
                  const std::function<Status(std::string_view, std::string_view)>& emit) {
  std::vector<btree::Cursor> curs;
  curs.reserve(trees.size());
  for (const btree::BTree* t : trees) {
    curs.push_back(t->SeekToFirst());
    // Stream each source in sequential bursts (Section 4.3: merging costs
    // about one sequential read + write of the data).
    curs.back().SetReadahead(128);
  }
  while (true) {
    int best = -1;
    for (size_t i = 0; i < curs.size(); ++i) {
      if (!curs[i].Valid()) continue;
      if (best < 0 || curs[i].key() < curs[best].key()) best = static_cast<int>(i);
    }
    if (best < 0) break;
    UPI_RETURN_NOT_OK(emit(curs[best].key(), curs[best].value()));
    curs[best].Next();
  }
  return Status::OK();
}

}  // namespace

Fracture::~Fracture() {
  if (!retired_.load()) return;
  // Merged away and no longer listed by any snapshot: free its storage.
  // The B-tree handles go first, then each file's frames and pages.
  const std::vector<storage::PageFile*> files = upi_->files();
  upi_.reset();
  for (storage::PageFile* f : files) env_->RemoveFile(f);
}

namespace {

bool IsDeletedIn(const FractureSet& set,
                 const std::vector<TupleId>* buffered_deletes, TupleId id) {
  return set.deleted.contains(id) ||
         (buffered_deletes != nullptr &&
          std::binary_search(buffered_deletes->begin(),
                             buffered_deletes->end(), id));
}

}  // namespace

bool FractureSnapshot::IsDeleted(TupleId id) const {
  return IsDeletedIn(*set, buffered_deletes.get(), id);
}

FracturedUpi::FracturedUpi(storage::DbEnv* env, std::string name,
                           catalog::Schema schema, UpiOptions options,
                           std::vector<int> secondary_columns)
    : env_(env),
      name_(std::move(name)),
      schema_(std::move(schema)),
      options_(options),
      secondary_columns_(std::move(secondary_columns)),
      set_(std::make_shared<const FractureSet>()),
      m_fractures_probed_(
          env->metrics()->counter("upi_pruning_fractures_probed_total")),
      m_fractures_pruned_(
          env->metrics()->counter("upi_pruning_fractures_pruned_total")),
      m_bloom_rejects_(
          env->metrics()->counter("upi_pruning_bloom_rejects_total")) {}

std::shared_ptr<const FractureSummary> FracturedUpi::SummarizeTuples(
    const std::vector<Tuple>& tuples) const {
  FractureSummary::Builder builder;
  auto add_column = [&](const Tuple& t, int col) {
    const Value& v = t.Get(col);
    if (v.type() != ValueType::kDiscrete) return;
    for (const auto& alt : v.discrete().alternatives()) {
      builder.AddKey(col, alt.value, t.existence() * alt.prob);
    }
  };
  for (const Tuple& t : tuples) {
    builder.AddTupleId(t.id());
    // Every clustered alternative is reachable (heap entries directly,
    // cutoff entries through their pointers), so all of them fence.
    add_column(t, options_.cluster_column);
    for (int col : secondary_columns_) add_column(t, col);
  }
  return builder.Build();
}

bool FracturedUpi::SkipFracture(const FractureSummary* summary, int column,
                                std::string_view value, double qt) const {
  if (!options_.enable_pruning || summary == nullptr) return false;
  FractureSummary::SkipReason r = summary->WhySkip(column, value, qt);
  if (r == FractureSummary::SkipReason::kBloom && m_bloom_rejects_ != nullptr) {
    m_bloom_rejects_->Add();
  }
  return r != FractureSummary::SkipReason::kNone;
}

std::shared_ptr<const FractureSet> FracturedUpi::Publish(
    std::shared_ptr<const FractureSet> next) {
  std::shared_ptr<const FractureSet> old = std::move(set_);
  set_ = std::move(next);
  stats_epoch_.fetch_add(1, std::memory_order_relaxed);
  return old;
}

Status FracturedUpi::BuildMain(const std::vector<Tuple>& tuples) {
  std::unique_lock lock(mu_);
  if (set_->has_main) return Status::Internal("main fracture already built");
  UPI_ASSIGN_OR_RETURN(std::unique_ptr<Upi> main,
                       Upi::Build(env_, name_ + ".main", schema_, options_,
                                  secondary_columns_, tuples));
  auto next = std::make_shared<FractureSet>(*set_);
  next->slots.insert(next->slots.begin(),
                     std::make_shared<const Fracture>(env_, std::move(main),
                                                      SummarizeTuples(tuples)));
  next->has_main = true;
  main_and_fracture_tuples_ += tuples.size();
  Publish(std::move(next));  // the replaced set lists nothing retired
  return Status::OK();
}

Status FracturedUpi::Insert(const Tuple& tuple) {
  std::unique_lock lock(mu_);
  if (IsDeletedIn(*set_, buffer_deletes_.get(), tuple.id())) {
    return Status::InvalidArgument("TupleId reuse after deletion is not allowed");
  }
  std::string buf;
  tuple.Serialize(&buf);
  auto [it, inserted] =
      buffer_.emplace(tuple.id(), BufferedTuple{tuple, buf.size()});
  if (!inserted) return Status::AlreadyExists("TupleId already buffered");
  buffer_bytes_ += it->second.bytes;
  stats_epoch_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status FracturedUpi::Delete(TupleId id) {
  std::unique_lock lock(mu_);
  auto it = buffer_.find(id);
  stats_epoch_.fetch_add(1, std::memory_order_relaxed);
  if (it != buffer_.end()) {
    buffer_bytes_ -= it->second.bytes;
    buffer_.erase(it);  // never reached disk; no delete-set entry needed
    return Status::OK();
  }
  // Copy on write: probes that captured the old vector keep reading it.
  auto next = buffer_deletes_ == nullptr
                  ? std::make_shared<std::vector<TupleId>>()
                  : std::make_shared<std::vector<TupleId>>(*buffer_deletes_);
  auto pos = std::lower_bound(next->begin(), next->end(), id);
  if (pos != next->end() && *pos == id) return Status::OK();
  next->insert(pos, id);
  buffer_deletes_ = std::move(next);
  return Status::OK();
}

storage::PageFile* FracturedUpi::PersistDeleteSet(
    const std::string& name, const std::vector<TupleId>& ids) {
  storage::PageFile* file = env_->CreateFile(name, options_.page_size);
  const size_t per_page = options_.page_size / 8;
  std::string page;
  for (size_t i = 0; i < ids.size(); i += per_page) {
    page.clear();
    for (size_t j = i; j < std::min(ids.size(), i + per_page); ++j) {
      PutFixed64BE(&page, ids[j]);
    }
    storage::PageId pid = file->Allocate();
    file->Write(pid, page);  // sequential batch write
  }
  return file;
}

void FracturedUpi::EnableAdaptiveTuning(std::vector<WorkloadQuery> workload,
                                        double storage_budget_bytes) {
  std::unique_lock lock(mu_);
  tuning_workload_ = std::move(workload);
  tuning_budget_bytes_ = storage_budget_bytes;
}

void FracturedUpi::RetuneFromBuffer() {
  if (tuning_workload_.empty() || buffer_.empty()) return;
  // Build statistics of the data about to be flushed and re-run the
  // Section 6.3 procedure: the new fracture gets its own cutoff threshold.
  histogram::ProbHistogram hist(20);
  for (const auto& [id, bt] : buffer_) {
    const Value& cv = bt.tuple.Get(options_.cluster_column);
    if (cv.type() != ValueType::kDiscrete) continue;
    bool first = true;
    for (const auto& a : cv.discrete().alternatives()) {
      hist.Add(a.value, bt.tuple.existence() * a.prob, first);
      first = false;
    }
  }
  double avg_entry = static_cast<double>(buffer_bytes_) /
                         static_cast<double>(buffer_.size()) +
                     24.0;
  histogram::SelectivityEstimator estimator(&hist);
  Advisor advisor(env_->params(), &estimator, avg_entry, options_.page_size);
  CutoffRecommendation rec = advisor.RecommendCutoff(
      {0.0, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5}, tuning_workload_,
      tuning_budget_bytes_);
  if (rec.feasible) options_.cutoff = rec.cutoff;
}

Status FracturedUpi::FlushBuffer() {
  bool did_work = false;
  Status s;
  {
    std::unique_lock lock(mu_);
    did_work = !buffer_.empty() || buffer_deletes_ != nullptr;
    s = FlushBufferLocked();
  }
  if (s.ok() && did_work) FireMaintenanceHook(MaintenanceEvent::kFlush, 0);
  return s;
}

Status FracturedUpi::FlushBufferLocked() {
  if (buffer_.empty() && buffer_deletes_ == nullptr) return Status::OK();
  RetuneFromBuffer();
  std::string frac_name = name_ + ".frac" + std::to_string(fracture_seq_++);
  auto next = std::make_shared<FractureSet>(*set_);
  if (!buffer_.empty()) {
    std::vector<Tuple> tuples;
    tuples.reserve(buffer_.size());
    for (auto& [id, bt] : buffer_) tuples.push_back(bt.tuple);
    // Each fracture is an independent UPI built with the *current* tuning
    // parameters (Section 4.2: per-fracture parameters).
    UPI_ASSIGN_OR_RETURN(std::unique_ptr<Upi> frac,
                         Upi::Build(env_, frac_name, schema_, options_,
                                    secondary_columns_, tuples));
    next->slots.push_back(std::make_shared<const Fracture>(
        env_, std::move(frac), SummarizeTuples(tuples)));
    main_and_fracture_tuples_ += buffer_.size();
  }
  if (buffer_deletes_ != nullptr) {
    delsets_.push_back(
        PersistDeleteSet(frac_name + ".delset", *buffer_deletes_));
    next->deleted.insert(buffer_deletes_->begin(), buffer_deletes_->end());
  }
  buffer_.clear();
  buffer_bytes_ = 0;
  buffer_deletes_.reset();
  env_->pool()->FlushAll();
  // The replaced set lists only fractures the new one keeps, so dropping it
  // here, under the lock, frees nothing.
  Publish(std::move(next));
  return Status::OK();
}

uint64_t FracturedUpi::num_live_tuples() const {
  std::shared_lock lock(mu_);
  return main_and_fracture_tuples_ + buffer_.size() - set_->deleted.size() -
         BufferedDeleteCount();
}

double FracturedUpi::EstimateSelectivity(std::string_view value,
                                         double qt) const {
  double hits = 0.0, total = 0.0;
  ForEachFractureShared([&](const Upi& u) {
    const auto& h = u.prob_histogram();
    hits += h.EstimateHeapHits(value, qt, u.options().cutoff);
    total += h.EstimateTotalHeapEntries(u.options().cutoff);
  });
  if (total <= 0) return 0.0;
  double s = hits / total;
  return s > 1.0 ? 1.0 : s;
}

uint64_t FracturedUpi::size_bytes() const {
  uint64_t total = 0;
  ForEachFractureShared([&](const Upi& u) { total += u.size_bytes(); });
  return total;
}

// ---------------------------------------------------------------------------
// Queries: the RAM buffer, then the one pruned fan-out (Section 4.2)
// ---------------------------------------------------------------------------

PruneSet FracturedUpi::FanOut(const FractureSet& set, int column,
                              std::string_view value, double qt) const {
  PruneSet fanout;
  const int col = ResolveColumn(column);
  fanout.probe.reserve(set.slots.size());
  for (const auto& f : set.slots) {
    const bool skip = qt >= 0.0 && SkipFracture(f->summary(), col, value, qt);
    fanout.probe.push_back(!skip);
    ++(skip ? fanout.pruned : fanout.probed);
  }
  return fanout;
}

void FracturedUpi::RecordFanout(const FractureSet& set,
                                const PruneSet& fanout) const {
  if (obs::QueryTrace* trace = obs::CurrentTrace(); trace != nullptr) {
    for (size_t slot = 0; slot < fanout.probe.size(); ++slot) {
      if (fanout.probe[slot]) continue;
      // A pruned fracture is a real plan node with provably-zero actuals.
      obs::TraceOp op;
      op.label = set.upi(slot).name();
      op.pruned = true;
      trace->ops.push_back(std::move(op));
    }
  }
  fractures_probed_total_.fetch_add(fanout.probed, std::memory_order_relaxed);
  fractures_pruned_total_.fetch_add(fanout.pruned, std::memory_order_relaxed);
  if (m_fractures_probed_ != nullptr) m_fractures_probed_->Add(fanout.probed);
  if (m_fractures_pruned_ != nullptr) m_fractures_pruned_->Add(fanout.pruned);
}

PruneSet FracturedUpi::ForQuery(int column, std::string_view value,
                                double qt) const {
  return FanOut(*snapshot(), column, value, qt);
}

PruneEstimate FracturedUpi::EstimatePrune(int column, std::string_view value,
                                          double qt) const {
  const std::shared_ptr<const FractureSet> set = snapshot();
  const PruneSet fanout = FanOut(*set, column, value, qt);
  PruneEstimate pe;
  pe.total_fractures = static_cast<uint32_t>(fanout.probe.size());
  pe.probed_fractures = static_cast<double>(fanout.probed);
  for (size_t slot = 0; slot < fanout.probe.size(); ++slot) {
    if (fanout.probe[slot]) {
      pe.probed_bytes += set->upi(slot).heap_tree()->size_bytes();
    }
  }
  if (pe.total_fractures == 0) {
    pe.total_fractures = 1;  // an empty table still prices one probe
    pe.probed_fractures = 1.0;
  }
  return pe;
}

FractureSnapshot FracturedUpi::TakeSnapshot(
    int column, std::string_view value, double qt,
    std::vector<PtqMatch>* buffer_rows) const {
  std::shared_lock lock(mu_);
  ScanBuffer(column, value, qt, buffer_rows);
  return FractureSnapshot{set_, buffer_deletes_};
}

void FracturedUpi::ScanBuffer(int column, std::string_view value, double qt,
                              std::vector<PtqMatch>* out) const {
  const int col = ResolveColumn(column);
  const size_t before = out->size();
  for (const auto& [id, bt] : buffer_) {
    const Value& v = bt.tuple.Get(col);
    if (v.type() != ValueType::kDiscrete) continue;
    double p = v.discrete().ProbabilityOf(value) * bt.tuple.existence();
    if (p >= qt && p > 0.0) out->push_back(PtqMatch{id, p, bt.tuple});
  }
  TraceBuffer(out->size() - before);
}

void FracturedUpi::TraceBuffer(uint64_t rows) const {
  obs::QueryTrace* trace = obs::CurrentTrace();
  if (trace == nullptr || rows == 0) return;
  obs::TraceOp op;
  op.label = name_ + ".buffer";
  op.rows = rows;  // RAM scan: no I/O by construction
  trace->ops.push_back(std::move(op));
}

FracturedPtqCursor FracturedUpi::OpenPtqCursor(std::string_view value,
                                               double qt) const {
  return FracturedPtqCursor(this, value, qt);
}

Status FracturedUpi::QueryBySecondary(int column, std::string_view value,
                                      double qt, SecondaryAccessMode mode,
                                      std::vector<PtqMatch>* out) const {
  const FractureSnapshot snap = TakeSnapshot(column, value, qt, out);
  // The summary fences cover every secondary alternative, so a fracture
  // whose zone/Bloom/max-prob summary rules the probe out never opens.
  const PruneSet fanout = FanOut(*snap.set, column, value, qt);
  obs::TraceOpScope op_scope;  // re-arms at each fracture boundary
  for (size_t slot = 0; slot < fanout.probe.size(); ++slot) {
    if (!fanout.probe[slot]) continue;
    const Upi& upi = snap.set->upi(slot);
    upi.heap_file_->ChargeOpen();  // per-fracture Costinit
    std::vector<PtqMatch> part;
    UPI_RETURN_NOT_OK(upi.QueryBySecondary(column, value, qt, mode, &part));
    uint64_t rows = 0;
    for (PtqMatch& m : part) {
      if (snap.IsDeleted(m.id)) continue;
      out->push_back(std::move(m));
      ++rows;
    }
    if (op_scope.active()) op_scope.Finish(upi.name(), rows);
  }
  RecordFanout(*snap.set, fanout);
  return Status::OK();
}

Status FracturedUpi::QueryTopK(std::string_view value, size_t k,
                               std::vector<PtqMatch>* out) const {
  if (k == 0) return Status::OK();
  std::vector<PtqMatch> all;
  // Buffer candidates compete at any confidence (no threshold in top-k),
  // and at qt = 0 the shared decision skips only fractures that cannot
  // contain `value` at all.
  const FractureSnapshot snap = TakeSnapshot(-1, value, 0.0, &all);
  PruneSet fanout = FanOut(*snap.set, -1, value, 0.0);
  const int col = options_.cluster_column;
  // Running k-th-best bound: a min-heap of the k highest confidences seen so
  // far. A later fracture must beat heap.top() to change the answer.
  std::priority_queue<double, std::vector<double>, std::greater<double>> best;
  auto note = [&](double conf) {
    if (best.size() < k) {
      best.push(conf);
    } else if (conf > best.top()) {
      best.pop();
      best.push(conf);
    }
  };
  for (const PtqMatch& m : all) note(m.confidence);
  obs::TraceOpScope op_scope;  // re-arms at each fracture boundary
  for (size_t slot = 0; slot < fanout.probe.size(); ++slot) {
    if (!fanout.probe[slot]) continue;
    // The one dynamic skip: no alternative can beat the current k-th score
    // (strictly — a tie could still win its id tie-break, so equality must
    // probe).
    const FractureSummary* s = snap.set->slots[slot]->summary();
    if (options_.enable_pruning && s != nullptr && best.size() >= k &&
        s->MaxProb(col) < best.top()) {
      fanout.probe[slot] = false;
      --fanout.probed;
      ++fanout.pruned;
      continue;
    }
    const Upi& upi = snap.set->upi(slot);
    // Per-fracture Costinit: heap now, the cutoff index if (and when) the
    // stream actually consults it.
    upi.heap_file_->ChargeOpen();
    UpiPtqCursor c = upi.OpenTopKCursor(value, /*charge_open_on_consult=*/true);
    PtqMatch m;
    uint64_t got = 0;
    // k surviving rows per fracture suffice: the global top-k is contained
    // in the union of per-fracture (delete-filtered) top-k streams.
    while (got < k && c.Next(&m)) {
      if (snap.IsDeleted(m.id)) continue;
      note(m.confidence);
      all.push_back(std::move(m));
      ++got;
    }
    UPI_RETURN_NOT_OK(c.status());
    if (op_scope.active()) op_scope.Finish(upi.name(), got);
  }
  RecordFanout(*snap.set, fanout);
  SortByConfidenceDesc(&all);
  if (all.size() > k) all.resize(k);
  out->insert(out->end(), std::make_move_iterator(all.begin()),
              std::make_move_iterator(all.end()));
  return Status::OK();
}

Status FracturedUpi::ScanTuples(
    int column, std::string_view value, double qt,
    const std::function<void(const catalog::Tuple&)>& fn) const {
  std::set<catalog::TupleId> seen;
  FractureSnapshot snap;
  {
    // The RAM buffer first, under the shared lock: its tuples shadow
    // nothing (TupleIds are unique), and emitting them costs no I/O. It has
    // no summary, so it is never pruned — the scan-filter caller re-checks
    // the predicate anyway.
    std::shared_lock lock(mu_);
    for (const auto& [id, bt] : buffer_) {
      seen.insert(id);
      fn(bt.tuple);
    }
    TraceBuffer(buffer_.size());
    snap = FractureSnapshot{set_, buffer_deletes_};
  }
  const PruneSet fanout = FanOut(*snap.set, column, value, qt);
  Status st = Status::OK();
  obs::TraceOpScope op_scope;  // re-arms at each fracture boundary
  for (size_t slot = 0; slot < fanout.probe.size() && st.ok(); ++slot) {
    if (!fanout.probe[slot]) continue;
    const Upi& upi = snap.set->upi(slot);
    uint64_t emitted = 0;
    upi.heap_file_->ChargeOpen();  // per-fracture Costinit
    upi.ScanHeap([&](std::string_view key, std::string_view tuple_bytes) {
      if (!st.ok()) return;
      UpiKey k;
      Status dst = DecodeUpiKey(key, &k);
      if (!dst.ok()) {
        st = dst;
        return;
      }
      // The heap duplicates a tuple per qualifying alternative: report once.
      if (snap.IsDeleted(k.id) || !seen.insert(k.id).second) return;
      auto tuple = catalog::Tuple::Deserialize(tuple_bytes);
      if (!tuple.ok()) {
        st = tuple.status();
        return;
      }
      fn(std::move(tuple).value());
      ++emitted;
    });
    if (op_scope.active()) op_scope.Finish(upi.name(), emitted);
  }
  // The unfiltered sweep (qt < 0) is no probe: it moves no fan-out counter.
  if (qt >= 0.0) RecordFanout(*snap.set, fanout);
  return st;
}

// ---------------------------------------------------------------------------
// Streaming cursor (the pruned fan-out, executed lazily)
// ---------------------------------------------------------------------------

FracturedPtqCursor::FracturedPtqCursor(const FracturedUpi* table,
                                       std::string_view value, double qt)
    : value_(value), qt_(qt) {
  // The RAM buffer's matches are collected eagerly — they cost no I/O and
  // stream first.
  snap_ = table->TakeSnapshot(-1, value_, qt_, &buffer_rows_);
  fanout_ = table->FanOut(*snap_.set, -1, value_, qt_);
  table->RecordFanout(*snap_.set, fanout_);
}

bool FracturedPtqCursor::Next(PtqMatch* out) {
  if (!status_.ok()) return false;
  if (buf_idx_ < buffer_rows_.size()) {
    *out = std::move(buffer_rows_[buf_idx_++]);
    return true;
  }
  for (;;) {
    if (!cur_.has_value()) {
      while (next_slot_ < fanout_.probe.size() && !fanout_.probe[next_slot_]) {
        ++next_slot_;
      }
      if (next_slot_ >= fanout_.probe.size()) return false;
      const Upi* u = &snap_.set->upi(next_slot_++);
      // Opening the fracture is where its Costinit lands (the Section 6.2
      // Nfrac term): heap file now, cutoff file when the stream actually
      // consults it (qt < C and the consumer drains past the heap phase).
      // A consumer that stops before this fracture never pays either.
      u->heap_tree()->pager()->file()->ChargeOpen();
      cur_.emplace(u->OpenPtqCursor(value_, qt_,
                                    /*charge_open_on_consult=*/true));
      cur_upi_ = u;
      cur_rows_ = 0;
    }
    PtqMatch m;
    while (cur_->Next(&m)) {
      if (snap_.IsDeleted(m.id)) continue;
      *out = std::move(m);
      ++cur_rows_;
      return true;
    }
    if (!cur_->status().ok()) {
      status_ = cur_->status();
      return false;
    }
    // Fracture drained: its open + descent + heap reads since the previous
    // boundary become one trace op (no-op when no trace is installed).
    if (op_scope_.active()) op_scope_.Finish(cur_upi_->name(), cur_rows_);
    cur_.reset();
  }
}

// ---------------------------------------------------------------------------
// Merge (Section 4.3)
// ---------------------------------------------------------------------------

Result<std::shared_ptr<const Fracture>> FracturedUpi::MergeUpis(
    const std::vector<const Upi*>& sources, const std::string& merged_name,
    const std::set<catalog::TupleId>& deleted,
    std::set<catalog::TupleId>* filtered_ids) {
  // The merged fracture's pruning summary accumulates from the same streams
  // the merge already walks — no extra I/O.
  FractureSummary::Builder summary;
  // The merged UPI is repartitioned under a single cutoff threshold. Sources
  // may have been built with different per-fracture thresholds (Section 4.2),
  // so the merged C is the maximum of the current setting and every source's:
  // then repartitioning only ever *demotes* heap entries into the cutoff
  // index (the tuple bytes are in the stream), never promotes cutoff entries
  // into the heap (which would need extra random reads). Lowering C requires
  // a rebuild from base data, not a merge.
  UpiOptions merged_options = options_;
  for (const Upi* s : sources) {
    merged_options.cutoff = std::max(merged_options.cutoff, s->options().cutoff);
  }
  const double c_merged = merged_options.cutoff;

  // The empty structures this constructor makes are replaced below by the
  // bulk-merged ones.
  auto merged = std::make_unique<Upi>(env_, merged_name, schema_, merged_options);

  auto not_deleted = [&](std::string_view key, bool* keep) -> Status {
    *keep = false;
    UpiKey k;
    UPI_RETURN_NOT_OK(DecodeUpiKey(key, &k));
    *keep = !deleted.contains(k.id);
    if (!*keep) filtered_ids->insert(k.id);
    return Status::OK();
  };

  // Heap: k-way merge of all source heaps into a fresh bulk-loaded tree.
  // Entries whose combined probability falls below the merged cutoff (and
  // that are not their tuple's first alternative) are demoted to the cutoff
  // index. Heap keys alone cannot tell whether an entry is its tuple's
  // *first* alternative, but the streamed tuple bytes can.
  histogram::ProbHistogram merged_hist;
  struct HistEntry {
    std::string attr;
    double prob;
    catalog::TupleId id;
  };
  struct Demoted {
    std::string attr;
    double prob;
    catalog::TupleId id;
    std::string first_key;  // heap key of the tuple's first alternative
  };
  std::vector<HistEntry> heap_hist;
  std::vector<Demoted> demotions;  // produced in ascending key order
  {
    std::vector<const btree::BTree*> trees;
    for (const Upi* s : sources) trees.push_back(s->heap_tree());
    storage::PageFile* file =
        env_->CreateFile(merged_name + ".heap.built", options_.page_size);
    btree::BTreeBuilder builder(env_->MakePager(file));
    UPI_RETURN_NOT_OK(MergeTrees(
        trees, [&](std::string_view key, std::string_view value) -> Status {
          bool keep = false;
          UPI_RETURN_NOT_OK(not_deleted(key, &keep));
          if (!keep) return Status::OK();
          UpiKey k;
          UPI_RETURN_NOT_OK(DecodeUpiKey(key, &k));
          if (k.prob < c_merged) {
            // Possibly demote: only a tuple's first alternative stays in the
            // heap below the cutoff (Algorithm 1).
            UPI_ASSIGN_OR_RETURN(Tuple t, Tuple::Deserialize(value));
            const auto& dist =
                t.Get(options_.cluster_column).discrete();
            const prob::Alternative& first = dist.First();
            if (first.value != k.attr) {
              demotions.push_back(Demoted{
                  std::move(k.attr), k.prob, k.id,
                  EncodeUpiKey(first.value, t.existence() * first.prob, k.id)});
              return Status::OK();
            }
          }
          summary.AddKey(options_.cluster_column, k.attr, k.prob);
          heap_hist.push_back(HistEntry{std::move(k.attr), k.prob, k.id});
          return builder.Add(key, value);
        }));
    UPI_ASSIGN_OR_RETURN(btree::BTree tree, builder.Finish());
    merged->heap_file_ = file;
    merged->heap_ = std::make_unique<btree::BTree>(std::move(tree));
  }
  uint64_t distinct_tuples = 0;
  {
    std::unordered_map<catalog::TupleId, size_t> best;
    for (size_t i = 0; i < heap_hist.size(); ++i) {
      auto [it, inserted] = best.try_emplace(heap_hist[i].id, i);
      if (!inserted) {
        const HistEntry& cur = heap_hist[i];
        const HistEntry& b = heap_hist[it->second];
        if (cur.prob > b.prob ||
            (cur.prob == b.prob && cur.attr < b.attr)) {
          it->second = i;
        }
      }
    }
    distinct_tuples = best.size();
    for (const auto& [id, idx] : best) summary.AddTupleId(id);
    for (size_t i = 0; i < heap_hist.size(); ++i) {
      bool is_first = best[heap_hist[i].id] == i;
      merged_hist.Add(heap_hist[i].attr, heap_hist[i].prob, is_first);
    }
  }

  // Which (id, attr) alternatives were demoted — secondary pointer lists
  // referencing them must drop them (they are no longer heap-resident).
  std::unordered_map<catalog::TupleId, std::vector<std::string>> demoted_attrs;
  for (const Demoted& d : demotions) demoted_attrs[d.id].push_back(d.attr);

  // Cutoff index: (k+1)-way merge of the source cutoff trees plus the
  // demotion stream (already in ascending key order). First-alternative
  // pointers are merge-invariant.
  {
    std::vector<const btree::BTree*> trees;
    for (const Upi* s : sources) trees.push_back(s->cutoff_index()->tree());
    CutoffIndex::Builder builder(env_, merged_name + ".cutoff.built",
                                 options_.page_size);
    size_t next_demotion = 0;
    auto flush_demotions_below = [&](std::string_view key) -> Status {
      while (next_demotion < demotions.size()) {
        const Demoted& d = demotions[next_demotion];
        std::string dkey = EncodeUpiKey(d.attr, d.prob, d.id);
        if (!key.empty() && dkey >= key) break;
        merged_hist.Add(d.attr, d.prob, /*is_first=*/false);
        summary.AddKey(options_.cluster_column, d.attr, d.prob);
        UPI_RETURN_NOT_OK(builder.Add(d.attr, d.prob, d.id, d.first_key));
        ++next_demotion;
      }
      return Status::OK();
    };
    UPI_RETURN_NOT_OK(MergeTrees(
        trees, [&](std::string_view key, std::string_view value) -> Status {
          bool keep = false;
          UPI_RETURN_NOT_OK(not_deleted(key, &keep));
          if (!keep) return Status::OK();
          UPI_RETURN_NOT_OK(flush_demotions_below(key));
          UpiKey k;
          UPI_RETURN_NOT_OK(DecodeUpiKey(key, &k));
          merged_hist.Add(k.attr, k.prob, /*is_first=*/false);
          summary.AddKey(options_.cluster_column, k.attr, k.prob);
          return builder.Add(k.attr, k.prob, k.id, std::string(value));
        }));
    UPI_RETURN_NOT_OK(flush_demotions_below(std::string_view()));
    UPI_ASSIGN_OR_RETURN(merged->cutoff_, builder.Finish());
  }

  // Secondary indexes: pointer lists name clustered-attribute alternatives,
  // which merging does not move — except demoted ones, which are filtered.
  // The per-column histogram is rebuilt alongside (the planner's secondary
  // estimates must survive merges).
  for (int col : secondary_columns_) {
    std::vector<const btree::BTree*> trees;
    for (const Upi* s : sources) trees.push_back(s->secondary(col)->tree());
    SecondaryIndex::Builder builder(
        env_, merged_name + ".sec." + schema_.column(col).name + ".built",
        options_.page_size, options_.max_secondary_pointers);
    histogram::ProbHistogram& sec_hist = merged->sec_histograms_[col];
    UPI_RETURN_NOT_OK(MergeTrees(
        trees, [&](std::string_view key, std::string_view value) -> Status {
          bool keep = false;
          UPI_RETURN_NOT_OK(not_deleted(key, &keep));
          if (!keep) return Status::OK();
          UpiKey k;
          UPI_RETURN_NOT_OK(DecodeUpiKey(key, &k));
          sec_hist.Add(k.attr, k.prob, /*is_first=*/false);
          summary.AddKey(col, k.attr, k.prob);
          std::vector<SecondaryPointer> pointers;
          bool has_cutoff;
          UPI_RETURN_NOT_OK(
              SecondaryIndex::DecodePointers(value, &pointers, &has_cutoff));
          auto dit = demoted_attrs.find(k.id);
          if (dit != demoted_attrs.end()) {
            auto& gone = dit->second;
            auto is_demoted = [&](const SecondaryPointer& p) {
              return std::find(gone.begin(), gone.end(), p.attr) != gone.end();
            };
            size_t before = pointers.size();
            pointers.erase(
                std::remove_if(pointers.begin(), pointers.end(), is_demoted),
                pointers.end());
            if (pointers.size() != before) has_cutoff = true;
          }
          return builder.Add(k.attr, k.prob, k.id, pointers, has_cutoff);
        }));
    UPI_ASSIGN_OR_RETURN(merged->secondaries_[col], builder.Finish());
  }

  merged->histogram_ = std::move(merged_hist);
  merged->num_tuples_ = distinct_tuples;
  merged->TrackFiles();
  return std::make_shared<const Fracture>(env_, std::move(merged),
                                          summary.Build());
}

Status FracturedUpi::MergeAll() {
  // Phase 1 (exclusive): flush pending buffers and take the snapshot the
  // build reads, so it can run without the lock.
  std::shared_ptr<const FractureSet> base;
  std::string merged_name;
  size_t delsets_merged = 0;
  {
    std::unique_lock lock(mu_);
    UPI_RETURN_NOT_OK(FlushBufferLocked());
    if (set_->slots.empty()) return Status::OK();
    base = set_;
    delsets_merged = delsets_.size();
    merged_name = name_ + ".merged" + std::to_string(fracture_seq_++);
  }

  // Phase 2 (no lock): the expensive sort-merge. Concurrent queries keep
  // fanning out over their own snapshots.
  std::vector<const Upi*> sources;
  for (const auto& f : base->slots) sources.push_back(&f->upi());
  std::set<catalog::TupleId> filtered;
  UPI_ASSIGN_OR_RETURN(std::shared_ptr<const Fracture> merged,
                       MergeUpis(sources, merged_name, base->deleted, &filtered));

  // Phase 3 (exclusive): atomic install. Fractures flushed *during* the
  // build (possible only via a direct caller; the manager serializes
  // maintenance) sit past the snapshot's slots and survive the swap.
  std::shared_ptr<const FractureSet> old;
  std::vector<storage::PageFile*> dead_delsets;
  {
    std::unique_lock lock(mu_);
    UPI_CHECK(set_->slots.size() >= base->slots.size(),
              "fracture list shrank under a merge");
    auto next = std::make_shared<FractureSet>();
    next->has_main = true;
    next->slots.push_back(merged);
    for (size_t i = 0; i < set_->slots.size(); ++i) {
      if (i < base->slots.size()) {
        UPI_CHECK(set_->slots[i] == base->slots[i],
                  "fracture list changed under a merge");
        base->slots[i]->Retire();
      } else {
        next->slots.push_back(set_->slots[i]);
      }
    }
    main_and_fracture_tuples_ = 0;
    for (const auto& f : next->slots) {
      main_and_fracture_tuples_ += f->upi().num_tuples();
    }
    // TupleIds are never reused, so a filtered id cannot exist elsewhere.
    // Ids deleted after the snapshot stay until the next merge. Phantom
    // deletes (ids that never matched any entry) are retired too when
    // nothing remains that could contain them.
    const bool only_main = next->slots.size() == 1;
    for (catalog::TupleId id : set_->deleted) {
      if (filtered.contains(id)) continue;
      if (only_main && base->deleted.contains(id)) continue;
      next->deleted.insert(next->deleted.end(), id);
    }
    // Every delete set flushed before the snapshot is merged in.
    dead_delsets.assign(delsets_.begin(), delsets_.begin() + delsets_merged);
    delsets_.erase(delsets_.begin(), delsets_.begin() + delsets_merged);
    old = Publish(std::move(next));
  }
  // Unlocked: dropping the last snapshots of the merged-away fractures
  // frees their storage (Fracture::~Fracture); cursors still reading them
  // keep them until they close.
  old.reset();
  base.reset();
  for (storage::PageFile* f : dead_delsets) env_->RemoveFile(f);
  env_->pool()->FlushAll();
  FireMaintenanceHook(MaintenanceEvent::kMergeAll, 0);
  return Status::OK();
}

Status FracturedUpi::MergeOldestFractures(size_t count) {
  const size_t requested = count;
  // Same three-phase structure as MergeAll; only the `count` oldest delta
  // fractures are touched, so the build cost is proportional to the deltas.
  std::shared_ptr<const FractureSet> base;
  std::string merged_name;
  size_t first = 0;  // slot of the oldest delta
  {
    std::unique_lock lock(mu_);
    UPI_RETURN_NOT_OK(FlushBufferLocked());
    count = std::min(count, set_->num_deltas());
    if (count < 2) return Status::OK();
    base = set_;
    first = base->has_main ? 1 : 0;
    merged_name = name_ + ".partial" + std::to_string(fracture_seq_++);
  }

  std::vector<const Upi*> sources;
  for (size_t i = first; i < first + count; ++i) {
    sources.push_back(&base->upi(i));
  }
  std::set<catalog::TupleId> filtered;
  UPI_ASSIGN_OR_RETURN(std::shared_ptr<const Fracture> merged,
                       MergeUpis(sources, merged_name, base->deleted, &filtered));

  std::shared_ptr<const FractureSet> old;
  {
    std::unique_lock lock(mu_);
    UPI_CHECK(set_->has_main == base->has_main &&
                  set_->slots.size() >= first + count,
              "fracture list changed under a merge");
    auto next = std::make_shared<FractureSet>();
    next->has_main = set_->has_main;
    for (size_t i = 0; i < set_->slots.size(); ++i) {
      if (i < first || i >= first + count) {
        next->slots.push_back(set_->slots[i]);
        continue;
      }
      UPI_CHECK(set_->slots[i] == base->slots[i],
                "fracture list changed under a merge");
      base->slots[i]->Retire();
      if (i == first) next->slots.push_back(merged);
    }
    for (size_t i = first; i < first + count; ++i) {
      main_and_fracture_tuples_ -= base->upi(i).num_tuples();
    }
    main_and_fracture_tuples_ += merged->upi().num_tuples();
    // TupleIds are unique across the table, so a deleted id filtered out here
    // cannot exist elsewhere: retire it from the delete set and the counters.
    for (catalog::TupleId id : set_->deleted) {
      if (!filtered.contains(id)) next->deleted.insert(next->deleted.end(), id);
    }
    old = Publish(std::move(next));
  }
  old.reset();
  base.reset();
  env_->pool()->FlushAll();
  // Logged with the *requested* count: replay re-clamps against the same
  // fracture list, so the recovered layout matches.
  FireMaintenanceHook(MaintenanceEvent::kMergePartial, requested);
  return Status::OK();
}

}  // namespace upi::core
