// The two read-only workloads: hot_serve (everything cached, pure CPU) and
// cold_analytic (working set ~8x the buffer pool). Both use the same Client
// and differ only in data, tables, pool size and query mix.
#include <algorithm>
#include <map>

#include "client.h"
#include "datagen/dblp.h"

namespace upibench {
namespace {

using upi::datagen::AuthorCols;
using upi::datagen::DblpConfig;
using upi::datagen::DblpGenerator;
using upi::engine::Database;
using upi::engine::DatabaseOptions;
using upi::engine::Table;

static_assert(kInstitution == AuthorCols::kInstitution &&
              kCountry == AuthorCols::kCountry &&
              kInstitution == upi::datagen::PublicationCols::kInstitution &&
              kCountry == upi::datagen::PublicationCols::kCountry);
constexpr size_t kSimQueries = 2000;

uint64_t SumBytes(const std::vector<Tuple>& tuples) {
  uint64_t n = 0;
  for (const Tuple& t : tuples) n += TupleBytes(t);
  return n;
}

/// One built instance of a read workload. Members are destroyed bottom-up:
/// the prepared queries before the database that owns their tables.
struct ReadSetup {
  std::vector<std::unique_ptr<Oracle>> oracles;
  std::unique_ptr<Database> db;
  std::vector<TableRef> tables;
  QueryMix mix;
  uint64_t user_bytes = 0;  // tuple bytes loaded (all live: no deletes)
  LoopStats warm;           // warm-up executions (checked)
  double seconds = 0;       // set-up wall time, verification excluded

  TableRef& AddTable(Table* table, const Oracle* oracle) {
    tables.emplace_back();
    tables.back().table = table;
    tables.back().oracle = oracle;
    return tables.back();
  }
};

Table* CreateTable(SpanRecorder* rec, const std::function<upi::Result<Table*>()>& fn) {
  ScopedSpan s(rec, "engine.create_table");
  return Require(fn(), "create table");
}

/// hot_serve: authors at scale 0.3 as a UPI with a secondary index on
/// country, a Fractured copy of 40% of them carrying three delta fractures,
/// and a 4-shard range-partitioned copy of 25%; a 256 MiB pool holds all of
/// it, and every distinct query runs once (checked) before timing.
void SetupHot(const Options& opt, SpanRecorder* rec, bool check, ReadSetup* s) {
  int64_t start = NowNs();
  DblpConfig cfg = DblpConfig{}.Scaled(0.3);
  cfg.seed = opt.seed;
  std::vector<Tuple> authors;
  {
    ScopedSpan span(rec, "datagen.gen");
    authors = DblpGenerator(cfg).GenerateAuthors();
  }
  const size_t n = authors.size();
  std::vector<Tuple> frac_main(authors.begin(), authors.begin() + n * 3 / 10);
  std::vector<Tuple> frac_all(authors.begin(), authors.begin() + n * 4 / 10);
  std::vector<Tuple> part(authors.begin(), authors.begin() + n / 4);

  // The oracles and the mix come first, and the oracles are pruned to the
  // mix's answers before any table exists (checking, not set-up: excluded
  // from its time).
  int64_t excluded = NowNs();
  s->oracles.push_back(std::make_unique<Oracle>(authors, std::vector<int>{kInstitution, kCountry}));
  s->oracles.push_back(std::make_unique<Oracle>(frac_all, std::vector<int>{kInstitution}));
  s->oracles.push_back(std::make_unique<Oracle>(part, std::vector<int>{kInstitution}));
  if (check && opt.plant_wrong) s->oracles[0]->PlantWrongExpectation();
  // Institutions with ~30-1000 matches; every country.
  std::vector<std::string> insts;
  for (const std::string& v : s->oracles[0]->Values(kInstitution)) {
    size_t m = s->oracles[0]->Matches(kInstitution, v);
    if (m >= 30 && m <= 1000) insts.push_back(v);
  }
  const std::vector<double> qts = {0.3, 0.5, 0.7, 0.9};
  // Mix per block of 20: 45% UPI PTQ, 15% secondary, 15% top-k, 15%
  // fractured PTQ, 10% partitioned PTQ. Tables are added in this order.
  s->mix.AddGroup(0, Kind::kPtq, kInstitution, insts, qts, 9);
  s->mix.AddGroup(0, Kind::kSecondary, kCountry, s->oracles[0]->Values(kCountry), qts, 3);
  s->mix.AddGroup(0, Kind::kTopK, kInstitution, insts, qts, 3);
  s->mix.AddGroup(1, Kind::kPtq, kInstitution, insts, qts, 3);
  s->mix.AddGroup(2, Kind::kPtq, kInstitution, insts, qts, 2);
  for (size_t i = 0; i < s->oracles.size(); ++i) {
    s->mix.PruneOracle(static_cast<int>(i), s->oracles[i].get());
  }
  excluded = NowNs() - excluded;

  DatabaseOptions opts;
  opts.pool_bytes = 256ull << 20;
  opts.gather_workers = 2;
  s->db = std::make_unique<Database>(opts);
  Database* db = s->db.get();
  auto schema = DblpGenerator::AuthorSchema();

  Table* upi_t = CreateTable(rec, [&] {
    return db->CreateUpiTable("authors", schema, ClusterOnInstitution(),
                              {kCountry}, authors);
  });
  Table* frac_t = CreateTable(rec, [&] {
    return db->CreateFracturedTable("authors_frac", schema,
                                    ClusterOnInstitution(), {}, frac_main);
  });
  for (size_t i = frac_main.size(); i < frac_all.size();) {
    size_t end = std::min(frac_all.size(), i + (frac_all.size() - frac_main.size()) / 3 + 1);
    for (; i < end; ++i) Require(frac_t->Insert(frac_all[i]), "insert");
    Require(frac_t->fractured()->FlushBuffer(), "flush");
  }
  // Range splits at routing-key quantiles (each author's most likely
  // institution), deduplicated so they ascend strictly.
  std::vector<std::string> keys;
  for (const Tuple& t : part) {
    keys.push_back(t.Get(kInstitution).discrete().alternatives()[0].value);
  }
  std::sort(keys.begin(), keys.end());
  upi::engine::PartitionOptions popts;
  popts.scheme = upi::engine::PartitionOptions::Scheme::kRange;
  popts.fractured = false;
  for (size_t i = 1; i < 4; ++i) {
    const std::string& split = keys[i * keys.size() / 4];
    if (popts.range_splits.empty() || split > popts.range_splits.back()) {
      popts.range_splits.push_back(split);
    }
  }
  popts.num_shards = popts.range_splits.size() + 1;
  Table* part_t = CreateTable(rec, [&] {
    return db->CreatePartitionedTable("authors_part", schema,
                                      ClusterOnInstitution(), {}, popts, part);
  });
  s->user_bytes = SumBytes(authors) + SumBytes(frac_all) + SumBytes(part);

  s->AddTable(upi_t, s->oracles[0].get()).Prepare(kCountry, kTopK);
  s->AddTable(frac_t, s->oracles[1].get()).Prepare(-1, 0);
  s->AddTable(part_t, s->oracles[2].get()).Prepare(-1, 0);

  Client(db, &s->tables, &s->mix.defs, {}, check).RunAll(&s->warm);
  excluded += s->warm.check_ns;
  s->seconds = static_cast<double>(NowNs() - start - excluded) / 1e9;
}

/// cold_analytic: publications at scale 1.0 as a UPI with a secondary index
/// on country, under a 32 MiB pool. No warm-up: the cache is dropped once
/// when timing starts.
void SetupCold(const Options& opt, SpanRecorder* rec, bool check, ReadSetup* s) {
  int64_t start = NowNs();
  DblpConfig cfg = DblpConfig{}.Scaled(1.0);
  cfg.seed = opt.seed;
  std::vector<Tuple> pubs;
  {
    ScopedSpan span(rec, "datagen.gen");
    DblpGenerator gen(cfg);
    pubs = gen.GeneratePublications(gen.GenerateAuthors());
  }
  // The checked repetition builds the oracle and the mix first and prunes
  // the oracle to the mix's answers before the table exists (checking, not
  // set-up: excluded from its time).
  int64_t excluded = 0;
  if (check) {
    excluded = NowNs();
    s->oracles.push_back(std::make_unique<Oracle>(pubs, std::vector<int>{kInstitution, kCountry}));
    if (opt.plant_wrong) s->oracles[0]->PlantWrongExpectation();
    const std::vector<double> qts = {0.5, 0.7, 0.9};
    const std::vector<std::string> insts = s->oracles[0]->Values(kInstitution);
    // Mix per block of 10: 70% PTQ, 20% top-k, 10% secondary.
    s->mix.AddGroup(0, Kind::kPtq, kInstitution, insts, qts, 7);
    s->mix.AddGroup(0, Kind::kTopK, kInstitution, insts, qts, 2);
    s->mix.AddGroup(0, Kind::kSecondary, kCountry, s->oracles[0]->Values(kCountry), qts, 1);
    s->mix.PruneOracle(0, s->oracles[0].get());
    s->user_bytes = SumBytes(pubs);
    excluded = NowNs() - excluded;
  }
  DatabaseOptions opts;
  opts.pool_bytes = 32ull << 20;
  opts.gather_workers = 0;
  s->db = std::make_unique<Database>(opts);
  Database* db = s->db.get();
  Table* t = CreateTable(rec, [&] {
    return db->CreateUpiTable("pubs", DblpGenerator::PublicationSchema(),
                              ClusterOnInstitution(), {kCountry}, pubs);
  });
  s->seconds = static_cast<double>(NowNs() - start - excluded) / 1e9;
  if (check) s->AddTable(t, s->oracles[0].get()).Prepare(kCountry, kTopK);
}

/// Cumulative per-table counters: plan-cache plans and hits, queries per
/// design, and the fracture / shard fan-out totals.
std::map<std::string, double> TableCounters(const ReadSetup& s,
                                            const LoopStats& st) {
  std::map<std::string, double> c;
  for (size_t i = 0; i < s.tables.size(); ++i) {
    const TableRef& ref = s.tables[i];
    c["plans"] += static_cast<double>(ref.Plans());
    c["plan_hits"] += static_cast<double>(ref.PlanHits());
    double q = i < st.per_table.size() ? static_cast<double>(st.per_table[i]) : 0;
    if (const auto* f = ref.table->fractured()) {
      c["fractured_queries"] = q;
      c["fractures_probed"] = static_cast<double>(f->fractures_probed_total());
      c["fractures_pruned"] = static_cast<double>(f->fractures_pruned_total());
      c["num_fractures"] = static_cast<double>(f->num_fractures());
    }
    if (const auto* p = ref.table->partitioned()) {
      c["partitioned_queries"] = q;
      c["shards_probed"] = static_cast<double>(p->shards_probed_total());
      c["shards_pruned"] = static_cast<double>(p->shards_pruned_total());
    }
  }
  return c;
}

using SetupFn = void (*)(const Options&, SpanRecorder*, bool, ReadSetup*);

RunResult RunRead(const Options& opt, SpanRecorder* rec, HostProbe* probe,
                  SetupFn setup, bool cold) {
  RunResult out;
  Samples setup_s;
  std::unique_ptr<ReadSetup> s;
  for (int rep = 0; rep < opt.SetupReps(); ++rep) {
    s.reset();  // free the previous instance before building the next
    s = std::make_unique<ReadSetup>();
    bool last = rep + 1 == opt.SetupReps();
    setup(opt, rec, last, s.get());
    setup_s.Add(s->seconds);
    ProbeAfterSetup(probe);
  }
  Database* db = s->db.get();
  Client client(db, &s->tables, &s->mix.defs,
                s->mix.Stream(1 << 20, opt.seed * 7919 + 17), true);
  if (cold) db->ColdCache();

  const int64_t window = static_cast<int64_t>(opt.seconds * 1e9);
  client.set_probe(probe);
  LoopStats st, traced;
  EngineCounters c0 = EngineCounters::Take(db);
  std::map<std::string, double> t0 = TableCounters(*s, st);
  // The first kSimQueries queries always run to completion, so
  // query_sim_ms_mean averages the same sequence on a slow host too.
  client.Run(NowNs() + (opt.trace ? window / 2 : window), nullptr, &st,
             kSimQueries);
  out.threads = ThreadCount();

  if (opt.trace) {
    // Counters come from the untraced half; spans from the traced half.
    AddCounterDeltas(c0, EngineCounters::Take(db), db->params(), &out);
    AddQueryCounters(st, &out);
    for (const auto& [name, v] : TableCounters(*s, st)) {
      out.counters[name] = name == "num_fractures" ? v : v - t0[name];
    }
    client.Run(NowNs() + window / 2, rec, &traced);
    out.counters["untraced_query_p50_us"] = traced.untraced_us.Percentile(0.5);
    ProbeBTree(s->tables[0].table->upi()->heap_tree(), opt.seed, rec);
  }

  out.SetHost("setup_s", setup_s.Percentile(0.5), "s", setup_s.size());
  // The device clock of a fixed query sequence: the stream's first
  // kSimQueries queries, however many more the host finished (on
  // cold_analytic later queries find a warmer pool).
  ReportQueryMetrics(st, kSimQueries, &out);
  out.SetHost("ops_s", st.Rate(), "1/s", st.queries);
  db->env()->pool()->FlushAll();
  out.Set("write_amp",
          static_cast<double>(db->env()->disk()->stats().bytes_written) /
              static_cast<double>(s->user_bytes),
          "ratio");
  uint64_t table_bytes = 0;
  for (const TableRef& t : s->tables) table_bytes += TableBytes(t.table);
  out.Set("space_amp",
          static_cast<double>(table_bytes) / static_cast<double>(s->user_bytes),
          "ratio");
  out.Set("peak_rss_mb", PeakRssMb(), "MB");
  out.attempted = s->warm.queries + st.queries + traced.queries;
  out.failed = s->warm.failed + st.failed + traced.failed;
  return out;
}

}  // namespace

RunResult RunHotServe(const Options& opt, SpanRecorder* rec, HostProbe* probe) {
  return RunRead(opt, rec, probe, SetupHot, false);
}

RunResult RunColdAnalytic(const Options& opt, SpanRecorder* rec,
                          HostProbe* probe) {
  return RunRead(opt, rec, probe, SetupCold, true);
}

}  // namespace upibench
