// The cursor contract, differentially: for every physical design and every
// plan kind the planner can pick, the materialized execution (exec::Execute,
// what Table::Run runs) and the drained cursor (exec::OpenCursor) return the
// rows a brute-force Tuple::ConfidenceOf oracle computes over the live
// tuples, and charge the same simulated I/O. Each plan runs plain, with a
// LIMIT, and with a residual predicate (which makes top-k over-fetch).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "datagen/dblp.h"
#include "engine/database.h"
#include "exec/cursor.h"
#include "exec/operators.h"

namespace upi::engine {
namespace {

using catalog::Tuple;
using datagen::AuthorCols;

constexpr double kQt = 0.3;
constexpr size_t kK = 8;
constexpr size_t kLimit = 5;
// The key encoding quantizes probabilities; confidences compare within it.
constexpr double kConfEps = 1e-6;

bool KeepRow(const Tuple& t) { return t.id() % 3 != 0; }

enum class Variant { kPlain, kLimit, kWhere };

const char* VariantName(Variant v) {
  switch (v) {
    case Variant::kPlain: return "plain";
    case Variant::kLimit: return "limit";
    case Variant::kWhere: return "where";
  }
  return "?";
}

/// One logical table under test: the Database it lives in, its Table, and
/// the live tuples the oracle evaluates.
struct Subject {
  Subject(std::string l, Database* d) : label(std::move(l)), db(d) {}

  std::string label;
  Database* db = nullptr;
  Table* table = nullptr;
  std::map<catalog::TupleId, Tuple> live;
};

struct ContractFx {
  std::unique_ptr<datagen::DblpGenerator> gen;
  std::vector<Tuple> authors;
  std::string inst;
  std::string country;

  ContractFx() {
    datagen::DblpConfig cfg;
    cfg.num_authors = 1500;
    cfg.num_institutions = 60;
    cfg.seed = 91;
    gen = std::make_unique<datagen::DblpGenerator>(cfg);
    authors = gen->GenerateAuthors();
    inst = gen->PopularInstitution();
    country =
        datagen::FindValueWithApproxCount(authors, AuthorCols::kCountry, 120);
  }

  static DatabaseOptions Options() {
    DatabaseOptions o;
    o.gather_workers = 0;  // serial gathers: deterministic shard order
    o.maintenance.num_workers = 0;
    return o;
  }

  static core::UpiOptions UpiOpts() {
    core::UpiOptions opt;
    opt.cluster_column = AuthorCols::kInstitution;
    opt.cutoff = 0.1;
    return opt;
  }
};

/// Oracle rows for `plan` over `live`: every tuple whose confidence on the
/// probed column reaches the threshold (top-k: every tuple holding the
/// value), predicate applied, sorted best first.
std::vector<core::PtqMatch> Oracle(const std::map<catalog::TupleId, Tuple>& live,
                                   const Plan& plan, bool where) {
  const bool topk = plan.k > 0;
  const int column = plan.column >= 0 ? plan.column : AuthorCols::kInstitution;
  std::vector<core::PtqMatch> rows;
  for (const auto& [id, t] : live) {
    double conf = t.ConfidenceOf(static_cast<size_t>(column), plan.value);
    if (conf <= 0.0 || (!topk && conf < plan.qt)) continue;
    if (where && !KeepRow(t)) continue;
    rows.push_back(core::PtqMatch{id, conf, t});
  }
  core::SortByConfidenceDesc(&rows);
  return rows;
}

/// Rows equal the oracle's best `n` as a confidence profile, and each row is
/// an oracle row with its confidence (tie-robust: the key quantization may
/// order near-equal confidences differently).
void ExpectOracleHead(const std::vector<core::PtqMatch>& rows,
                      const std::vector<core::PtqMatch>& oracle, size_t n,
                      const std::string& what) {
  ASSERT_EQ(rows.size(), std::min(n, oracle.size())) << what;
  std::map<catalog::TupleId, double> conf_of;
  for (const auto& m : oracle) conf_of[m.id] = m.confidence;
  for (size_t i = 0; i < rows.size(); ++i) {
    auto it = conf_of.find(rows[i].id);
    ASSERT_NE(it, conf_of.end()) << what << ": row " << rows[i].id;
    EXPECT_NEAR(rows[i].confidence, it->second, kConfEps) << what;
    EXPECT_NEAR(rows[i].confidence, oracle[i].confidence, kConfEps) << what;
  }
}

std::vector<catalog::TupleId> Ids(const std::vector<core::PtqMatch>& rows) {
  std::vector<catalog::TupleId> ids;
  for (const auto& m : rows) ids.push_back(m.id);
  return ids;
}

/// Every plan kind of the three query shapes, on one subject.
std::vector<Plan> PlansFor(const Subject& s, const ContractFx& fx) {
  const AccessPath& path = *s.table->path();
  std::vector<Plan> plans;
  auto add = [&](PlanKind kind, int column, const std::string& value,
                 size_t k) {
    Plan p;
    p.kind = kind;
    p.column = column;
    p.value = value;
    p.qt = k > 0 ? 0.0 : kQt;
    p.k = k;
    if (kind == PlanKind::kTopKDecreasingThreshold) p.initial_qt = 0.5;
    if (kind == PlanKind::kTopKEstimatedThreshold) {
      double est = path.EstimateTopKThreshold(value, k);
      p.initial_qt = est > 0 ? est : 0.25;
    }
    plans.push_back(p);
  };
  const int country = AuthorCols::kCountry;
  add(PlanKind::kPrimaryProbe, -1, fx.inst, 0);
  add(PlanKind::kHeapScan, -1, fx.inst, 0);
  add(PlanKind::kSecondaryFirstPointer, country, fx.country, 0);
  add(PlanKind::kSecondaryTailored, country, fx.country, 0);
  add(PlanKind::kHeapScan, country, fx.country, 0);
  add(PlanKind::kTopKDirect, -1, fx.inst, kK);
  add(PlanKind::kTopKEstimatedThreshold, -1, fx.inst, kK);
  add(PlanKind::kTopKDecreasingThreshold, -1, fx.inst, kK);
  return plans;
}

void CheckSubject(const Subject& s, const ContractFx& fx) {
  const AccessPath& path = *s.table->path();
  const sim::SimDisk* disk = s.db->env()->disk();
  ASSERT_FALSE(s.live.empty());
  for (Plan plan : PlansFor(s, fx)) {
    for (Variant v : {Variant::kPlain, Variant::kLimit, Variant::kWhere}) {
      const std::string what = s.label + " " + PlanKindName(plan.kind) +
                               " col=" + std::to_string(plan.column) + " " +
                               VariantName(v);
      SCOPED_TRACE(what);
      plan.limit = v == Variant::kLimit ? kLimit : 0;
      std::function<bool(const Tuple&)> pred;
      if (v == Variant::kWhere) pred = KeepRow;
      const bool topk = plan.k > 0;
      std::vector<core::PtqMatch> oracle =
          Oracle(s.live, plan, v == Variant::kWhere);
      ASSERT_FALSE(oracle.empty());

      s.db->ColdCache();
      sim::DiskStats w0 = disk->stats();
      std::vector<core::PtqMatch> run;
      ASSERT_TRUE(exec::Execute(path, plan, &run, pred).ok());
      const double run_ms = (disk->stats() - w0).SimMs(disk->params());

      s.db->ColdCache();
      w0 = disk->stats();
      auto opened = exec::OpenCursor(path, plan, pred);
      ASSERT_TRUE(opened.ok()) << opened.status().ToString();
      std::unique_ptr<ResultCursor> cursor = std::move(opened).value();
      std::vector<core::PtqMatch> drained;
      core::PtqMatch m;
      while (cursor->TakeNext(&m)) drained.push_back(std::move(m));
      ASSERT_TRUE(cursor->status().ok()) << cursor->status().ToString();
      const double cursor_ms = (disk->stats() - w0).SimMs(disk->params());
      core::SortByConfidenceDesc(&drained);

      size_t want = oracle.size();
      if (topk) want = std::min(want, plan.k);
      if (plan.limit > 0) want = std::min(want, plan.limit);
      ExpectOracleHead(run, oracle, want, what + " run");

      if (v == Variant::kLimit && !topk) {
        // A cursor LIMIT stops the probe in its own row order (storage
        // order for PTQ streams), so it reads no more than the full run and
        // returns some `limit` oracle rows.
        ASSERT_EQ(drained.size(), want);
        std::map<catalog::TupleId, double> conf_of;
        for (const auto& o : oracle) conf_of[o.id] = o.confidence;
        for (const auto& d : drained) {
          ASSERT_TRUE(conf_of.contains(d.id)) << what;
          EXPECT_NEAR(d.confidence, conf_of[d.id], kConfEps) << what;
        }
        EXPECT_LE(cursor_ms, run_ms + 1e-9) << what;
        continue;
      }
      EXPECT_EQ(Ids(drained), Ids(run)) << what;
      if (v != Variant::kLimit) {
        EXPECT_DOUBLE_EQ(cursor_ms, run_ms) << what;
      }
    }
  }
}

TEST(CursorContractTest, Upi) {
  ContractFx fx;
  Database db(ContractFx::Options());
  Subject s{"upi", &db};
  s.table = db.CreateUpiTable("authors", datagen::DblpGenerator::AuthorSchema(),
                              ContractFx::UpiOpts(), {AuthorCols::kCountry},
                              fx.authors)
                .ValueOrDie();
  for (const Tuple& t : fx.authors) s.live.emplace(t.id(), t);
  CheckSubject(s, fx);
}

TEST(CursorContractTest, FracturedBufferDeltasAndDeletes) {
  for (bool pruning : {true, false}) {
    ContractFx fx;
    Database db(ContractFx::Options());
    Subject s{pruning ? "fractured(pruning)" : "fractured(no pruning)", &db};
    const size_t n = fx.authors.size();
    std::vector<Tuple> main(fx.authors.begin(),
                            fx.authors.begin() + static_cast<long>(n / 2));
    s.table = db.CreateFracturedTable("authors",
                                      datagen::DblpGenerator::AuthorSchema(),
                                      ContractFx::UpiOpts(),
                                      {AuthorCols::kCountry}, main)
                  .ValueOrDie();
    s.table->fractured()->mutable_options()->enable_pruning = pruning;
    for (const Tuple& t : main) s.live.emplace(t.id(), t);
    // Two delta fractures, each carrying deletes of earlier tuples, then a
    // RAM-buffered tail with a buffered delete.
    size_t next = n / 2;
    for (int delta = 0; delta < 2; ++delta) {
      for (size_t i = 0; i < n / 6; ++i, ++next) {
        ASSERT_TRUE(s.table->Insert(fx.authors[next]).ok());
        s.live.emplace(fx.authors[next].id(), fx.authors[next]);
      }
      for (size_t i = delta; i < next; i += 7) {
        if (s.live.erase(fx.authors[i].id()) == 0) continue;
        ASSERT_TRUE(s.table->Delete(fx.authors[i]).ok());
      }
      ASSERT_TRUE(s.table->fractured()->FlushBuffer().ok());
    }
    for (; next < n; ++next) {
      ASSERT_TRUE(s.table->Insert(fx.authors[next]).ok());
      s.live.emplace(fx.authors[next].id(), fx.authors[next]);
    }
    for (size_t i = 3; i < n; i += 11) {
      if (s.live.erase(fx.authors[i].id()) == 0) continue;
      ASSERT_TRUE(s.table->Delete(fx.authors[i]).ok());
    }
    ASSERT_GE(s.table->fractured()->num_fractures(), 3u);
    ASSERT_GT(s.table->fractured()->buffered_inserts(), 0u);
    ASSERT_GT(s.table->fractured()->buffered_deletes(), 0u);
    CheckSubject(s, fx);
  }
}

TEST(CursorContractTest, HashPartitionedOverUpiAndFracturedShards) {
  for (bool fractured : {false, true}) {
    ContractFx fx;
    Database db(ContractFx::Options());
    Subject s{fractured ? "partitioned(fractured)" : "partitioned(upi)", &db};
    PartitionOptions popts;
    popts.num_shards = 4;
    popts.fractured = fractured;
    const size_t n = fx.authors.size();
    std::vector<Tuple> bulk(fx.authors.begin(),
                            fx.authors.begin() + static_cast<long>(n * 3 / 4));
    s.table = db.CreatePartitionedTable("authors",
                                        datagen::DblpGenerator::AuthorSchema(),
                                        ContractFx::UpiOpts(),
                                        {AuthorCols::kCountry}, popts, bulk)
                  .ValueOrDie();
    for (const Tuple& t : bulk) s.live.emplace(t.id(), t);
    for (size_t i = bulk.size(); i < n; ++i) {
      ASSERT_TRUE(s.table->Insert(fx.authors[i]).ok());
      s.live.emplace(fx.authors[i].id(), fx.authors[i]);
    }
    for (size_t i = 5; i < n; i += 13) {
      if (s.live.erase(fx.authors[i].id()) == 0) continue;
      ASSERT_TRUE(s.table->Delete(fx.authors[i]).ok());
    }
    if (fractured) {
      // One shard's writes go to disk as a delta; the rest stay buffered.
      ASSERT_TRUE(s.table->partitioned()->shard_fractured(0)->FlushBuffer().ok());
    }
    CheckSubject(s, fx);
  }
}

TEST(CursorContractTest, UnclusteredWithPii) {
  ContractFx fx;
  Database db(ContractFx::Options());
  Subject s{"unclustered+pii", &db};
  s.table = db.CreateUnclusteredTable(
                  "authors", datagen::DblpGenerator::AuthorSchema(),
                  AuthorCols::kInstitution,
                  {AuthorCols::kInstitution, AuthorCols::kCountry}, fx.authors)
                .ValueOrDie();
  for (const Tuple& t : fx.authors) s.live.emplace(t.id(), t);
  CheckSubject(s, fx);
}

}  // namespace
}  // namespace upi::engine
