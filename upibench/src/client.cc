#include "client.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "btree/btree.h"
#include "common/random.h"

namespace upibench {

using upi::engine::BoundQuery;
using upi::engine::Query;

void TableRef::Prepare(int secondary_column, size_t k) {
  ptq = Require(table->Prepare(Query::Ptq("", 0.5)), "prepare ptq");
  if (secondary_column >= 0) {
    secondary = Require(
        table->Prepare(Query::Secondary(secondary_column, "", 0.5)),
        "prepare secondary");
  }
  if (k > 0) topk = Require(table->Prepare(Query::TopK("", k)), "prepare top-k");
}

uint64_t TableRef::Plans() const {
  uint64_t n = 0;
  for (const auto* pq : {&ptq, &secondary, &topk}) {
    if (pq->has_value()) n += (*pq)->plans();
  }
  return n;
}

uint64_t TableRef::PlanHits() const {
  uint64_t n = 0;
  for (const auto* pq : {&ptq, &secondary, &topk}) {
    if (pq->has_value()) n += (*pq)->hits();
  }
  return n;
}

double LoopStats::Rate() const {
  double s = cpu_clock ? static_cast<double>(cpu_ns) / 1e9
                       : static_cast<double>(wall_ns - check_ns - probe_ns) / 1e9;
  return s > 0 ? static_cast<double>(queries) / s : 0.0;
}

BoundQuery Client::Bind(const QueryDef& d) const {
  const TableRef& t = (*tables_)[d.table];
  switch (d.kind) {
    case Kind::kPtq:
      return t.ptq->Bind(d.value, d.qt);
    case Kind::kSecondary:
      return t.secondary->Bind(d.value, d.qt);
    case Kind::kTopK:
      break;
  }
  return t.topk->Bind(d.value);
}

bool Client::Check(QueryDef& d, const std::vector<PtqMatch>& rows) const {
  uint64_t fp = Fingerprint(rows);
  if (d.verified) return d.ok && fp == d.fingerprint;
  const Oracle& oracle = *(*tables_)[d.table].oracle;
  d.verified = true;
  d.fingerprint = fp;
  d.ok = d.kind == Kind::kTopK
             ? SameTopK(rows, oracle.TopK(d.column, d.value, d.k), oracle,
                        d.column, d.value)
             : SameRows(rows, oracle.Ptq(d.column, d.value, d.qt));
  return d.ok;
}

namespace {

/// What a result must satisfy whatever the table's state: every row carries
/// its own tuple's confidence for the queried value, clears the threshold
/// (PTQ and secondary) and appears once, and top-k returns at most k rows.
bool Sound(const QueryDef& d, const std::vector<PtqMatch>& rows) {
  if (d.kind == Kind::kTopK && rows.size() > d.k) return false;
  std::vector<TupleId> ids;
  ids.reserve(rows.size());
  for (const PtqMatch& m : rows) {
    double conf = m.tuple.ConfidenceOf(static_cast<size_t>(d.column), d.value);
    if (m.tuple.id() != m.id || conf <= 0.0 ||
        std::fabs(conf - m.confidence) > 1e-6 ||
        (d.kind != Kind::kTopK && m.confidence < d.qt)) {
      return false;
    }
    ids.push_back(m.id);
  }
  std::sort(ids.begin(), ids.end());
  return std::adjacent_find(ids.begin(), ids.end()) == ids.end();
}

}  // namespace

bool Client::Verify(QueryDef& d) {
  rows_.clear();
  d.verified = false;
  bool ok = Bind(d).Execute(&rows_).ok();
  return Check(d, rows_) && ok;
}

void Client::RunOne(QueryDef& d, SpanRecorder* rec, LoopStats* st) {
  // Traced loops trace every other query; the untraced ones in between give
  // the overhead baseline on the same table state.
  if (rec != nullptr && st->queries % 2 == 1) rec = nullptr;
  const bool baseline = rec == nullptr && st->traced_loop;
  const upi::sim::SimDisk* disk = db_->env()->disk();
  rows_.clear();
  upi::sim::DiskStats io0 = disk->thread_stats();
  const int64_t cpu0 = cpu_clock_ ? ThreadCpuNs() : 0;
  int64_t t0 = NowNs();
  BoundQuery bound = Bind(d);
  int64_t t1 = NowNs();
  bool ok = bound.Execute(&rows_).ok();
  int64_t t2 = NowNs();
  const int64_t cpu = cpu_clock_ ? ThreadCpuNs() - cpu0 : 0;
  upi::sim::DiskStats io = disk->thread_stats() - io0;

  ++st->queries;
  if (st->per_table.size() < tables_->size()) st->per_table.resize(tables_->size());
  ++st->per_table[d.table];
  st->rows += rows_.size();
  const double wall_us = static_cast<double>(t2 - t0) / 1e3;
  const double us = cpu_clock_ ? static_cast<double>(cpu) / 1e3 : wall_us;
  st->all_us.Add(us);
  if (cpu_clock_) {
    st->cpu_clock = true;
    st->cpu_ns += cpu;
    st->wall_us.Add(wall_us);
  }
  if (baseline) st->untraced_us.Add(wall_us);
  if (d.kind == Kind::kPtq) st->ptq_us.Add(us);
  if (d.kind == Kind::kSecondary) st->secondary_us.Add(us);
  st->sim_ms.Add(io.SimMs(disk->params()));
  st->io += io;

  uint32_t request = 0;
  if (rec != nullptr) {
    request = rec->NewRequest();
    uint32_t root = rec->Add("query", 0, request, t0, t2);
    rec->Add("engine.bind", root, request, t0, t1);
    rec->Add("exec.execute", root, request, t1, t2);
  }
  int64_t c0 = NowNs();
  ok = (check_ ? Check(d, rows_) : Sound(d, rows_)) && ok;
  st->check_ns += NowNs() - c0;
  if (!ok) ++st->failed;
  if (rec != nullptr && request % kRerunEvery == 0) Rerun(d, rec, request);
}

void Client::Rerun(const QueryDef& d, SpanRecorder* rec, uint32_t request) {
  using upi::engine::PlanKind;
  const TableRef& t = (*tables_)[d.table];
  const upi::engine::AccessPath* path = t.table->path();
  Query q = d.kind == Kind::kPtq         ? Query::Ptq(d.value, d.qt)
            : d.kind == Kind::kSecondary ? Query::Secondary(d.column, d.value, d.qt)
                                         : Query::TopK(d.value, d.k);
  ScopedSpan root(rec, "rerun", 0, request);
  {
    ScopedSpan s(rec, "engine.plan", root.id(), request);
    (void)t.table->planner().PlanQuery(q);
  }
  // Bind plans (or hits the plan cache) outside the timed execution, and its
  // plan picks the AccessPath calls that Execute makes for it: the path's
  // result stream for probes and direct top-k when it offers one, else the
  // materializing Query* call. Plans with no single matching path call
  // (heap scan, threshold-descent top-k) get no path span and no
  // exec.reexecute, so exec self time is only ever the difference of a
  // matching pair.
  BoundQuery bound = Bind(d);
  const upi::engine::Plan& plan = bound.plan();
  if (plan.kind == PlanKind::kHeapScan ||
      plan.kind == PlanKind::kTopKEstimatedThreshold ||
      plan.kind == PlanKind::kTopKDecreasingThreshold) {
    return;
  }
  std::vector<PtqMatch> out;
  auto drain = [&out](std::unique_ptr<upi::engine::ResultCursor> stream,
                      size_t limit) {
    if (limit > 0) stream->SetLimit(limit);
    PtqMatch m;
    while (stream->TakeNext(&m)) out.push_back(std::move(m));
  };
  // The planner call above cools the caches the query left warm; one
  // untimed execution puts the path and the re-execution on equal footing.
  (void)bound.Execute(&out);
  out.clear();
  switch (plan.kind) {
    case PlanKind::kPrimaryProbe: {
      ScopedSpan s(rec, "engine.path_ptq", root.id(), request);
      if (auto stream = path->OpenPtqStream(plan.value, plan.qt)) {
        drain(std::move(stream), plan.k);
      } else {
        (void)path->QueryPtq(plan.value, plan.qt, &out);
      }
      break;
    }
    case PlanKind::kSecondaryFirstPointer:
    case PlanKind::kSecondaryTailored: {
      auto mode = plan.kind == PlanKind::kSecondaryFirstPointer
                      ? upi::core::SecondaryAccessMode::kFirstPointer
                      : upi::core::SecondaryAccessMode::kTailored;
      ScopedSpan s(rec, "engine.path_secondary", root.id(), request);
      (void)path->QuerySecondary(plan.column, plan.value, plan.qt, mode, &out);
      break;
    }
    case PlanKind::kTopKDirect: {
      ScopedSpan s(rec, "engine.path_topk", root.id(), request);
      if (auto stream = path->OpenTopKStream(plan.value)) {
        drain(std::move(stream), plan.k);
      } else {
        (void)path->QueryTopK(plan.value, plan.k, &out);
      }
      break;
    }
    default:
      break;
  }
  out.clear();
  ScopedSpan s(rec, "exec.reexecute", root.id(), request);
  (void)bound.Execute(&out);
}

void Client::Run(int64_t deadline_ns, SpanRecorder* rec, LoopStats* st,
                 uint64_t min_queries) {
  st->traced_loop = rec != nullptr;
  int64_t start = NowNs();
  while (NowNs() < deadline_ns || st->queries < min_queries) {
    RunOne((*defs_)[stream_[pos_++ % stream_.size()]], rec, st);
    if (probe_ != nullptr) st->probe_ns += probe_->MaybeRun(kProbeEveryNs);
  }
  st->wall_ns += NowNs() - start;
}

void Client::RunAll(LoopStats* st) {
  int64_t start = NowNs();
  for (QueryDef& d : *defs_) RunOne(d, nullptr, st);
  st->wall_ns += NowNs() - start;
}

void QueryMix::AddGroup(int table, Kind kind, int column,
                        const std::vector<std::string>& values,
                        const std::vector<double>& qts, int draws) {
  std::vector<uint32_t> group;
  for (const std::string& v : values) {
    for (double qt : kind == Kind::kTopK ? std::vector<double>{0.0} : qts) {
      QueryDef d;
      d.table = table;
      d.kind = kind;
      d.column = column;
      d.value = v;
      d.qt = qt;
      d.k = kind == Kind::kTopK ? kTopK : 0;
      group.push_back(static_cast<uint32_t>(defs.size()));
      defs.push_back(std::move(d));
    }
  }
  groups.push_back(std::move(group));
  per_block.push_back(draws);
}

std::vector<uint32_t> QueryMix::Stream(size_t n, uint64_t seed) const {
  upi::Rng rng(seed);
  std::vector<size_t> block;
  for (size_t g = 0; g < groups.size(); ++g) block.insert(block.end(), per_block[g], g);
  std::vector<std::vector<uint32_t>> decks(groups.size());
  std::vector<size_t> next(groups.size(), 0);
  std::vector<uint32_t> out;
  out.reserve(n + block.size());
  while (out.size() < n) {
    std::shuffle(block.begin(), block.end(), rng.engine());
    for (size_t g : block) {
      if (next[g] == decks[g].size()) {
        decks[g] = groups[g];
        std::shuffle(decks[g].begin(), decks[g].end(), rng.engine());
        next[g] = 0;
      }
      out.push_back(decks[g][next[g]++]);
    }
  }
  return out;
}

void QueryMix::PruneOracle(int table, Oracle* oracle) const {
  std::map<std::pair<int, std::string>, Oracle::Need> needs;
  for (const QueryDef& d : defs) {
    if (d.table != table) continue;
    Oracle::Need& need = needs[{d.column, d.value}];
    if (d.kind == Kind::kTopK) {
      need.k = std::max(need.k, d.k);
    } else {
      need.min_qt = std::min(need.min_qt, d.qt);
    }
  }
  oracle->Prune(needs);
}

void ReportQueryMetrics(const LoopStats& st, size_t sim_queries, RunResult* out) {
  out->SetHost("query_ops_s", st.Rate(), "1/s", st.queries);
  out->SetHost("query_p50_us", st.all_us.Percentile(0.50), "us", st.all_us.size());
  out->SetHost("query_p99_us", st.all_us.Percentile(0.99), "us", st.all_us.size());
  out->SetHost("ptq_p50_us", st.ptq_us.Percentile(0.50), "us", st.ptq_us.size());
  if (st.secondary_us.size() > 0) {
    out->SetHost("secondary_p50_us", st.secondary_us.Percentile(0.50), "us",
             st.secondary_us.size());
  }
  if (st.cpu_clock) {
    out->SetHost("query_wall_p50_us", st.wall_us.Percentile(0.50), "us",
                 st.wall_us.size());
    out->SetHost("query_wall_p99_us", st.wall_us.Percentile(0.99), "us",
                 st.wall_us.size());
  }
  const size_t prefix = std::min(st.sim_ms.size(), sim_queries);
  out->Set("query_sim_ms_mean", prefix ? st.sim_ms.Sum(prefix) / prefix : 0.0,
           "ms", prefix);
  out->Set("query_sim_ms_p99", st.sim_ms.Percentile(0.99), "ms",
           st.sim_ms.size());
}

void AddQueryCounters(const LoopStats& st, RunResult* out) {
  auto& c = out->counters;
  c["queries"] = static_cast<double>(st.queries);
  c["query_rows"] = static_cast<double>(st.rows);
  c["query_reads"] = static_cast<double>(st.io.reads);
  c["query_seeks"] = static_cast<double>(st.io.seeks);
  c["query_file_opens"] = static_cast<double>(st.io.file_opens);
  c["query_wall_s"] =
      static_cast<double>(st.wall_ns - st.check_ns - st.probe_ns) / 1e9;
}

void ProbeBTree(const upi::btree::BTree* tree, uint64_t seed,
                SpanRecorder* rec) {
  const uint64_t stride = std::max<uint64_t>(1, tree->num_entries() / 2048);
  std::vector<std::string> keys;
  uint64_t n = 0;
  upi::btree::Cursor c = tree->SeekToFirst();
  while (c.Valid()) {
    int64_t t0 = NowNs();
    int i = 0;
    for (; i < kNextBatch && c.Valid(); ++i, ++n) {
      if (n % stride == 0) keys.emplace_back(c.key());
      c.Next();
    }
    if (i == kNextBatch) rec->Add("btree.next_batch", 0, 0, t0, NowNs());
  }
  upi::Rng rng(seed);
  std::shuffle(keys.begin(), keys.end(), rng.engine());
  for (const std::string& key : keys) {
    ScopedSpan s(rec, "btree.get");
    Require(tree->Get(key).status(), "btree get");
  }
}

}  // namespace upibench
