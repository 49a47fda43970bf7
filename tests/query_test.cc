// Tests for the declarative Query API: Query validation, streaming
// ResultCursors (early exit = strictly fewer simulated page reads),
// PreparedQuery plan caching with stats-epoch invalidation (including the
// maintenance-full-merge plan flip), and Session async submission.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "datagen/dblp.h"
#include "engine/database.h"
#include "engine/session.h"
#include "exec/cursor.h"
#include "sim/sim_disk.h"

namespace upi::engine {
namespace {

using catalog::Tuple;
using catalog::Value;
using datagen::AuthorCols;
using datagen::PublicationCols;

/// DBLP fixture at test scale, built through the Database facade.
struct QueryFx {
  datagen::DblpConfig cfg;
  std::unique_ptr<datagen::DblpGenerator> gen;
  std::vector<Tuple> authors;
  Database db;
  Table* authors_table = nullptr;

  explicit QueryFx(size_t num_authors = 2000) {
    cfg.num_authors = num_authors;
    cfg.num_institutions = 80;
    cfg.seed = 77;
    gen = std::make_unique<datagen::DblpGenerator>(cfg);
    authors = gen->GenerateAuthors();
    core::UpiOptions opt;
    opt.cluster_column = AuthorCols::kInstitution;
    opt.cutoff = 0.1;
    authors_table =
        db.CreateUpiTable("authors", datagen::DblpGenerator::AuthorSchema(),
                          opt, {AuthorCols::kCountry}, authors)
            .ValueOrDie();
  }
};

std::vector<catalog::TupleId> Ids(const std::vector<core::PtqMatch>& rows) {
  std::vector<catalog::TupleId> ids;
  for (const auto& m : rows) ids.push_back(m.id);
  return ids;
}

// ---------------------------------------------------------------------------
// Query validation
// ---------------------------------------------------------------------------

TEST(QueryTest, ValidateRejectsMalformedQueries) {
  QueryFx fx;
  std::vector<core::PtqMatch> out;
  EXPECT_EQ(fx.authors_table->Run(Query::Secondary(99, "x", 0.5), &out)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fx.authors_table->Run(Query::TopK("x", 0), &out).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fx.authors_table->Run(Query::Ptq("x", 1.5), &out).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(fx.authors_table->Prepare(Query::Secondary(-1, "", 0.5)).ok());
}

// ---------------------------------------------------------------------------
// Cursor semantics
// ---------------------------------------------------------------------------

TEST(QueryTest, DrainedCursorMatchesMaterializedRun) {
  QueryFx fx;
  std::string inst = fx.gen->PopularInstitution();

  std::vector<core::PtqMatch> materialized;
  ASSERT_TRUE(
      fx.authors_table->Run(Query::Ptq(inst, 0.05), &materialized).ok());
  ASSERT_GT(materialized.size(), 10u);

  auto cursor = fx.authors_table->OpenCursor(Query::Ptq(inst, 0.05))
                    .ValueOrDie();
  std::vector<core::PtqMatch> streamed;
  core::PtqMatch m;
  while (cursor->TakeNext(&m)) streamed.push_back(std::move(m));
  ASSERT_TRUE(cursor->status().ok());
  core::SortByConfidenceDesc(&streamed);

  ASSERT_EQ(streamed.size(), materialized.size());
  for (size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(streamed[i].id, materialized[i].id);
    EXPECT_NEAR(streamed[i].confidence, materialized[i].confidence, 1e-12);
  }
}

TEST(QueryTest, CursorLimitStopsEarlyAndReadsStrictlyFewerPages) {
  QueryFx fx;
  std::string inst = fx.gen->PopularInstitution();
  const sim::SimDisk* disk = fx.db.env()->disk();

  // Materialized execution of the full match set.
  fx.db.ColdCache();
  sim::DiskStats before = disk->stats();
  std::vector<core::PtqMatch> all;
  ASSERT_TRUE(fx.authors_table->Run(Query::Ptq(inst, 0.3), &all).ok());
  uint64_t full_reads = (disk->stats() - before).reads;
  ASSERT_GT(all.size(), 50u);  // a match set worth limiting

  // Streaming LIMIT 5: stops the heap descent after five rows.
  fx.db.ColdCache();
  before = disk->stats();
  auto cursor =
      fx.authors_table->OpenCursor(Query::Ptq(inst, 0.3).WithLimit(5))
          .ValueOrDie();
  std::vector<core::PtqMatch> limited;
  core::PtqMatch m;
  while (cursor->TakeNext(&m)) limited.push_back(std::move(m));
  ASSERT_TRUE(cursor->status().ok());
  uint64_t limited_reads = (disk->stats() - before).reads;

  EXPECT_EQ(limited.size(), 5u);
  EXPECT_LT(limited_reads, full_reads);
  // The limited rows are the stream's head: the highest-confidence matches.
  for (size_t i = 0; i < limited.size(); ++i) {
    EXPECT_EQ(limited[i].id, all[i].id);
  }
}

TEST(QueryTest, TopKCursorSkipsCutoffPhase) {
  QueryFx fx;
  std::string inst = fx.gen->PopularInstitution();
  const sim::SimDisk* disk = fx.db.env()->disk();

  // Full PTQ at qt below the cutoff: heap phase plus cutoff-pointer fetches.
  fx.db.ColdCache();
  sim::DiskStats before = disk->stats();
  std::vector<core::PtqMatch> all;
  ASSERT_TRUE(fx.authors_table->Run(Query::Ptq(inst, 0.01), &all).ok());
  uint64_t full_reads = (disk->stats() - before).reads;

  // Top-3 streamed: satisfied by the first heap leaf; the cutoff index is
  // never visited.
  fx.db.ColdCache();
  before = disk->stats();
  auto cursor =
      fx.authors_table->OpenCursor(Query::TopK(inst, 3)).ValueOrDie();
  core::PtqMatch m;
  size_t n = 0;
  while (cursor->TakeNext(&m)) ++n;
  ASSERT_TRUE(cursor->status().ok());
  uint64_t topk_reads = (disk->stats() - before).reads;

  EXPECT_EQ(n, 3u);
  EXPECT_LT(topk_reads, full_reads);
}

TEST(QueryTest, UnclusteredCursorLimitSkipsHeapFetches) {
  // Forced PII-probe plan (on this small fixture the planner itself would
  // sweep): the point is the *cursor* contract — the inverted list is read
  // either way, but the limited consumer skips the per-tuple random heap
  // fetches.
  QueryFx fx;
  Database base_db;
  Table* heap = base_db
                    .CreateUnclusteredTable(
                        "authors_heap", datagen::DblpGenerator::AuthorSchema(),
                        AuthorCols::kInstitution, {AuthorCols::kInstitution},
                        fx.authors)
                    .ValueOrDie();
  std::string inst = fx.gen->PopularInstitution();
  const sim::SimDisk* disk = base_db.env()->disk();

  Plan plan;
  plan.kind = PlanKind::kPrimaryProbe;
  plan.value = inst;
  plan.qt = 0.3;

  base_db.ColdCache();
  sim::DiskStats before = disk->stats();
  auto full_cursor = exec::OpenCursor(*heap->path(), plan).ValueOrDie();
  core::PtqMatch m;
  size_t all = 0;
  while (full_cursor->TakeNext(&m)) ++all;
  ASSERT_TRUE(full_cursor->status().ok());
  uint64_t full_reads = (disk->stats() - before).reads;
  ASSERT_GT(all, 20u);

  base_db.ColdCache();
  before = disk->stats();
  plan.limit = 3;
  auto cursor = exec::OpenCursor(*heap->path(), plan).ValueOrDie();
  size_t n = 0;
  while (cursor->TakeNext(&m)) ++n;
  uint64_t limited_reads = (disk->stats() - before).reads;

  EXPECT_EQ(n, 3u);
  EXPECT_LT(limited_reads, full_reads);
}

TEST(QueryTest, PredicateFiltersRows) {
  QueryFx fx;
  std::string inst = fx.gen->PopularInstitution();
  std::vector<core::PtqMatch> all, confident;
  ASSERT_TRUE(fx.authors_table->Run(Query::Ptq(inst, 0.1), &all).ok());
  ASSERT_TRUE(fx.authors_table
                  ->Run(Query::Ptq(inst, 0.1).Where([&](const Tuple& t) {
                    return t.existence() >= 0.9;
                  }),
                        &confident)
                  .ok());
  size_t expected = 0;
  for (const auto& m : all) {
    if (m.tuple.existence() >= 0.9) ++expected;
  }
  ASSERT_GT(confident.size(), 0u);
  ASSERT_LT(confident.size(), all.size());
  EXPECT_EQ(confident.size(), expected);
}

TEST(QueryTest, ScanFilterOnFracturedSeesBufferFracturesAndDeletes) {
  QueryFx fx;
  core::UpiOptions opt;
  opt.cluster_column = AuthorCols::kInstitution;
  opt.cutoff = 0.1;
  Table* table =
      fx.db.CreateFracturedTable("authors_frac",
                                 datagen::DblpGenerator::AuthorSchema(), opt,
                                 {}, {})
          .ValueOrDie();
  // A fracture on disk, a buffered tail, and a deletion in each regime.
  for (size_t i = 0; i < 300; ++i) ASSERT_TRUE(table->Insert(fx.authors[i]).ok());
  ASSERT_TRUE(table->fractured()->FlushBuffer().ok());
  for (size_t i = 300; i < 400; ++i) ASSERT_TRUE(table->Insert(fx.authors[i]).ok());
  ASSERT_TRUE(table->Delete(fx.authors[5]).ok());    // flushed victim
  ASSERT_TRUE(table->Delete(fx.authors[350]).ok());  // buffered victim

  std::string inst = fx.gen->PopularInstitution();
  std::vector<core::PtqMatch> via_ptq, via_scan;
  ASSERT_TRUE(table->Run(Query::Ptq(inst, 0.2), &via_ptq).ok());
  ASSERT_TRUE(
      table->Run(Query::ScanFilter(AuthorCols::kInstitution, inst, 0.2),
                 &via_scan)
          .ok());
  ASSERT_GT(via_ptq.size(), 0u);
  EXPECT_EQ(Ids(via_scan), Ids(via_ptq));
}

TEST(QueryTest, KBoundedProbesReturnRowsBestFirstTiesIncluded) {
  // RowsCursor does not re-sort a k-bounded probe's rows, so every such
  // probe must hand them over in SortByConfidenceDesc order itself. Every
  // tuple holds "tie" at one of three probabilities (existence 1, so equal
  // probabilities are equal confidences) and routes to a shard by its
  // "home" alternative.
  const double kTieProbs[] = {0.4, 0.3, 0.3, 0.2};
  std::vector<Tuple> tuples;
  for (catalog::TupleId id = 1; id <= 160; ++id) {
    std::vector<Value> values(4);
    values[AuthorCols::kName] = Value::String("n" + std::to_string(id));
    values[AuthorCols::kInstitution] = Value::Discrete(
        prob::DiscreteDistribution::Make(
            {{"home" + std::to_string(id % 6), 0.55},
             {"tie", kTieProbs[id % 4]}})
            .ValueOrDie());
    values[AuthorCols::kCountry] = Value::Discrete(
        prob::DiscreteDistribution::Make({{"c", 0.9}}).ValueOrDie());
    values[AuthorCols::kPayload] = Value::String("p");
    tuples.emplace_back(id, 1.0, values);
  }
  Database db;
  core::UpiOptions opt;
  opt.cluster_column = AuthorCols::kInstitution;
  opt.cutoff = 0.1;
  const catalog::Schema schema = datagen::DblpGenerator::AuthorSchema();
  std::vector<Tuple> bulk(tuples.begin(), tuples.begin() + 60);
  // Fractured: main, two deltas, a buffered tail, deletes in both regimes.
  Table* fractured =
      db.CreateFracturedTable("frac", schema, opt, {}, bulk).ValueOrDie();
  for (size_t i = 60; i < 160; ++i) {
    ASSERT_TRUE(fractured->Insert(tuples[i]).ok());
    if (i == 100 || i == 130) {
      ASSERT_TRUE(fractured->Delete(tuples[i - 50]).ok());
      ASSERT_TRUE(fractured->fractured()->FlushBuffer().ok());
    }
  }
  ASSERT_TRUE(fractured->Delete(tuples[140]).ok());
  PartitionOptions popts;
  popts.num_shards = 3;
  Table* partitioned =
      db.CreatePartitionedTable("part", schema, opt, {}, popts, tuples)
          .ValueOrDie();
  Table* unclustered =
      db.CreateUnclusteredTable("heap", schema, AuthorCols::kInstitution,
                                {AuthorCols::kInstitution}, tuples)
          .ValueOrDie();

  struct Probe {
    std::string label;
    std::function<std::unique_ptr<ResultCursor>()> open;
  };
  auto descent = [](const Table* t) {
    return [t] {
      Plan plan;
      plan.kind = PlanKind::kTopKDecreasingThreshold;
      plan.value = "tie";
      plan.initial_qt = 0.5;
      return exec::OpenCursor(*t->path(), plan).ValueOrDie();
    };
  };
  const std::vector<Probe> probes = {
      {"fractured top-k",
       [&] { return fractured->path()->OpenTopKStream("tie"); }},
      {"partitioned top-k",
       [&] { return partitioned->path()->OpenTopKStream("tie"); }},
      {"pii top-k",
       [&] { return unclustered->path()->OpenTopKStream("tie"); }},
      {"fractured threshold descent", descent(fractured)},
      {"partitioned threshold descent", descent(partitioned)},
  };
  for (const Probe& probe : probes) {
    for (size_t k : {7u, 50u}) {
      for (bool where : {false, true}) {
        SCOPED_TRACE(probe.label + " k=" + std::to_string(k) +
                     (where ? " where" : ""));
        std::unique_ptr<ResultCursor> cursor = probe.open();
        cursor->SetLimit(k);
        // A rejecting predicate makes the cursor re-run the probe with 2k.
        if (where) {
          cursor->SetPredicate([](const Tuple& t) { return t.id() % 3 != 0; });
        }
        std::vector<core::PtqMatch> rows;
        core::PtqMatch m;
        while (cursor->TakeNext(&m)) rows.push_back(std::move(m));
        ASSERT_TRUE(cursor->status().ok()) << cursor->status().ToString();
        ASSERT_EQ(rows.size(), k);
        std::vector<core::PtqMatch> sorted = rows;
        core::SortByConfidenceDesc(&sorted);
        EXPECT_EQ(Ids(rows), Ids(sorted));
        bool tied = false;
        for (size_t i = 1; i < rows.size(); ++i) {
          tied |= rows[i].confidence == rows[i - 1].confidence;
        }
        EXPECT_TRUE(tied) << "the probe must cut through a tie group";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Prepared queries: caching + invalidation
// ---------------------------------------------------------------------------

TEST(PreparedQueryTest, CacheHitsOnRepeatAndInvalidatesOnWrite) {
  QueryFx fx;
  std::string inst = fx.gen->PopularInstitution();
  PreparedQuery pq =
      fx.authors_table->Prepare(Query::Ptq("", 0.3)).ValueOrDie();

  std::vector<core::PtqMatch> a, b;
  ASSERT_TRUE(pq.Bind(inst).Execute(&a).ok());
  ASSERT_TRUE(pq.Bind(inst).Execute(&b).ok());
  EXPECT_EQ(pq.plans(), 1u);
  EXPECT_EQ(pq.hits(), 1u);
  EXPECT_EQ(Ids(a), Ids(b));

  // Any write moves the stats epoch: the next Bind re-plans.
  ASSERT_TRUE(fx.authors_table->Delete(fx.authors[0]).ok());
  std::vector<core::PtqMatch> c;
  ASSERT_TRUE(pq.Bind(inst).Execute(&c).ok());
  EXPECT_EQ(pq.plans(), 2u);
}

TEST(PreparedQueryTest, PreparedRowsMatchPlanEveryCallRows) {
  QueryFx fx;
  PreparedQuery pq =
      fx.authors_table
          ->Prepare(Query::Secondary(AuthorCols::kCountry, "", 0.4))
          .ValueOrDie();
  for (int i = 0; i < 5; ++i) {
    std::string country = "country" + std::string(i < 10 ? "00" : "0") +
                          std::to_string(i);
    std::vector<core::PtqMatch> prepared_rows, direct_rows;
    Result<Plan> prep = pq.Bind(country).Execute(&prepared_rows);
    Result<Plan> direct = fx.authors_table->Run(
        Query::Secondary(AuthorCols::kCountry, country, 0.4), &direct_rows);
    ASSERT_TRUE(prep.ok());
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(Ids(prepared_rows), Ids(direct_rows)) << country;
  }
  EXPECT_GE(pq.plans() + pq.hits(), 5u);
}

TEST(PreparedQueryTest, SecondaryReplansAndFlipsAfterMaintenanceFullMerge) {
  // The satellite scenario: a prepared secondary query on a heavily
  // fractured table plans a sweep-free heap scan (every probe would pay
  // 2 * Nfrac * (Costinit + H * Tseek)); a maintenance full merge collapses
  // the fracture tax, moves the stats epoch, and the same prepared handle
  // must re-plan — flipping to the secondary index.
  QueryFx fx(8000);
  core::UpiOptions opt;
  opt.cluster_column = AuthorCols::kInstitution;
  opt.cutoff = 0.1;
  Table* table =
      fx.db.CreateFracturedTable("stream",
                                 datagen::DblpGenerator::AuthorSchema(), opt,
                                 {AuthorCols::kCountry}, {})
          .ValueOrDie();
  // Main fracture with most of the data, then a dozen small delta fractures.
  size_t base = fx.authors.size() - 600;
  for (size_t i = 0; i < base; ++i) {
    ASSERT_TRUE(table->Insert(fx.authors[i]).ok());
  }
  ASSERT_TRUE(table->fractured()->FlushBuffer().ok());
  for (int frac = 0; frac < 12; ++frac) {
    for (size_t i = 0; i < 50; ++i) {
      ASSERT_TRUE(table->Insert(fx.authors[base + frac * 50 + i]).ok());
    }
    ASSERT_TRUE(table->fractured()->FlushBuffer().ok());
  }
  ASSERT_GE(table->stats().table.num_fractures, 13u);

  std::string country = datagen::FindValueWithApproxCount(
      fx.authors, AuthorCols::kCountry, 150);
  PreparedQuery pq =
      table->Prepare(Query::Secondary(AuthorCols::kCountry, "", 0.5))
          .ValueOrDie();

  BoundQuery before = pq.Bind(country);
  EXPECT_EQ(before.plan().kind, PlanKind::kHeapScan) << before.plan().Explain();
  EXPECT_EQ(pq.plans(), 1u);
  // Re-binding without any write serves the cache.
  (void)pq.Bind(country);
  EXPECT_EQ(pq.plans(), 1u);
  EXPECT_EQ(pq.hits(), 1u);

  // Maintenance full merge: fracture count 13 -> 1, epoch moves.
  fx.db.maintenance()->ScheduleMergeAll(table->fractured());
  ASSERT_GT(fx.db.RunMaintenance(), 0u);
  ASSERT_TRUE(fx.db.maintenance()->last_error().ok());
  ASSERT_EQ(table->stats().table.num_fractures, 1u);

  BoundQuery after = pq.Bind(country);
  EXPECT_EQ(pq.plans(), 2u);  // the cache was invalidated, not reused
  EXPECT_TRUE(after.plan().kind == PlanKind::kSecondaryTailored ||
              after.plan().kind == PlanKind::kSecondaryFirstPointer)
      << after.plan().Explain();

  // And both plans produce the same rows.
  std::vector<core::PtqMatch> rows_before, rows_after;
  ASSERT_TRUE(before.Execute(&rows_before).ok());
  ASSERT_TRUE(after.Execute(&rows_after).ok());
  EXPECT_EQ(Ids(rows_before), Ids(rows_after));
}

// ---------------------------------------------------------------------------
// Plan copies stay cheap and self-consistent
// ---------------------------------------------------------------------------

TEST(PlanTest, CopiesShareTheCandidateList) {
  QueryFx fx;
  Plan plan = fx.authors_table->planner().PlanPtq(fx.gen->PopularInstitution(),
                                                  0.3);
  Plan copy = plan;
  EXPECT_EQ(copy.shared_candidates.get(), plan.shared_candidates.get());
  EXPECT_EQ(copy.Explain(), plan.Explain());
  EXPECT_GE(plan.candidates().size(), 2u);
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

TEST(SessionTest, SubmitsExecuteInOrderWithPerOpSimCost) {
  QueryFx fx;
  std::string inst = fx.gen->PopularInstitution();
  PreparedQuery pq =
      fx.authors_table->Prepare(Query::Ptq("", 0.3)).ValueOrDie();

  std::vector<core::PtqMatch> direct;
  ASSERT_TRUE(fx.authors_table->Run(Query::Ptq(inst, 0.3), &direct).ok());

  fx.db.ColdCache();
  Session session(&fx.db);
  auto f1 = session.Submit(pq, inst);
  auto f2 = session.Submit(*fx.authors_table, Query::TopK(inst, 5));
  Result<QueryResult> r1 = f1.get();
  Result<QueryResult> r2 = f2.get();
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(Ids(r1.value().rows), Ids(direct));
  // Cold cache + execution on the session worker: the per-op simulated cost
  // is attributed to the operation, not to this (client) thread.
  EXPECT_GT(r1.value().sim_ms, 0.0);
  EXPECT_EQ(r2.value().rows.size(), 5u);
  EXPECT_EQ(session.submitted(), 2u);
}

TEST(SessionTest, ManyConcurrentSessionsAgree) {
  QueryFx fx;
  std::string inst = fx.gen->PopularInstitution();
  PreparedQuery pq =
      fx.authors_table->Prepare(Query::Ptq("", 0.3)).ValueOrDie();
  std::vector<core::PtqMatch> direct;
  ASSERT_TRUE(fx.authors_table->Run(Query::Ptq(inst, 0.3), &direct).ok());

  constexpr int kSessions = 4;
  std::vector<std::unique_ptr<Session>> sessions;
  std::vector<std::future<Result<QueryResult>>> futures;
  for (int s = 0; s < kSessions; ++s) {
    sessions.push_back(std::make_unique<Session>(&fx.db));
    for (int i = 0; i < 8; ++i) futures.push_back(sessions[s]->Submit(pq, inst));
  }
  for (auto& fut : futures) {
    Result<QueryResult> r = fut.get();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(Ids(r.value().rows), Ids(direct));
  }
  // The shared prepared cache served (nearly) everything: planning happens
  // outside the cache mutex, so racing first binds may each plan once, but
  // the steady state is all hits.
  EXPECT_LE(pq.plans(), static_cast<uint64_t>(kSessions));
  EXPECT_EQ(pq.plans() + pq.hits(), kSessions * 8u);
}

}  // namespace
}  // namespace upi::engine
