// Tests for the engine layer: AccessPath adapters, the cost-based
// QueryPlanner (including the Figure 6 planner-vs-measurement agreement the
// acceptance criteria require), executor operators with batching, and the
// Database facade.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "datagen/dblp.h"
#include "engine/access_path.h"
#include "engine/database.h"
#include "engine/planner.h"
#include "exec/operators.h"
#include "sim/sim_disk.h"

namespace upi::engine {
namespace {

using catalog::Tuple;
using catalog::Value;
using catalog::ValueType;
using datagen::AuthorCols;
using datagen::PublicationCols;

prob::DiscreteDistribution Dist(std::vector<prob::Alternative> alts) {
  return prob::DiscreteDistribution::Make(std::move(alts)).ValueOrDie();
}

/// Cold-cache simulated cost of `fn`, bench-style.
double ColdSimMs(storage::DbEnv* env, const std::function<void()>& fn) {
  env->ColdCache();
  sim::StatsWindow window(env->disk());
  fn();
  return window.ElapsedMs();
}

/// DBLP fixture at test scale, built through the Database facade.
struct DblpFx {
  datagen::DblpConfig cfg;
  std::unique_ptr<datagen::DblpGenerator> gen;
  std::vector<Tuple> authors;
  std::vector<Tuple> pubs;
  Database db;
  Table* author_table = nullptr;
  Table* pub_table = nullptr;

  DblpFx() {
    cfg.num_authors = 2000;
    cfg.num_publications = 6000;
    cfg.num_institutions = 80;
    cfg.seed = 61;
    gen = std::make_unique<datagen::DblpGenerator>(cfg);
    authors = gen->GenerateAuthors();
    pubs = gen->GeneratePublications(authors);

    core::UpiOptions aopt;
    aopt.cluster_column = AuthorCols::kInstitution;
    aopt.cutoff = 0.1;
    author_table = db.CreateUpiTable("authors",
                                     datagen::DblpGenerator::AuthorSchema(),
                                     aopt, {}, authors)
                       .ValueOrDie();
    core::UpiOptions popt;
    popt.cluster_column = PublicationCols::kInstitution;
    popt.cutoff = 0.1;
    pub_table = db.CreateUpiTable("pubs",
                                  datagen::DblpGenerator::PublicationSchema(),
                                  popt, {PublicationCols::kCountry}, pubs)
                    .ValueOrDie();
  }
};

// ---------------------------------------------------------------------------
// Acceptance: Figure 6 workload shapes — the planner's secondary-access
// choice agrees with the empirically cheaper mode (measured via StatsWindow)
// at both low and high thresholds, and Explain() reports a predicted cost
// within sanity bounds of the measurement.
// ---------------------------------------------------------------------------

TEST(PlannerTest, SecondaryModeAgreesWithMeasurementOnFigure6Shapes) {
  DblpFx fx;
  const int col = PublicationCols::kCountry;
  std::string country = fx.gen->MidCountry();

  for (double qt : {0.1, 0.7}) {
    SCOPED_TRACE(qt);
    std::map<PlanKind, double> measured;
    for (auto [kind, mode] :
         {std::pair{PlanKind::kSecondaryFirstPointer,
                    core::SecondaryAccessMode::kFirstPointer},
          std::pair{PlanKind::kSecondaryTailored,
                    core::SecondaryAccessMode::kTailored}}) {
      measured[kind] = ColdSimMs(fx.db.env(), [&] {
        std::vector<core::PtqMatch> out;
        ASSERT_TRUE(fx.pub_table->path()
                        ->QuerySecondary(col, country, qt, mode, &out)
                        .ok());
      });
    }
    measured[PlanKind::kHeapScan] = ColdSimMs(fx.db.env(), [&] {
      std::vector<core::PtqMatch> out;
      ASSERT_TRUE(exec::ScanFilter(*fx.pub_table->path(), col, country, qt,
                                   &out)
                      .ok());
    });

    Plan plan = fx.pub_table->planner().PlanSecondary(col, country, qt);
    ASSERT_TRUE(measured.contains(plan.kind)) << plan.Explain();

    // The chosen mode must be the empirically cheapest (small tolerance: a
    // few short seeks of noise around a genuine tie).
    double best = std::min({measured[PlanKind::kSecondaryFirstPointer],
                            measured[PlanKind::kSecondaryTailored],
                            measured[PlanKind::kHeapScan]});
    EXPECT_LE(measured[plan.kind], best * 1.25 + 10.0)
        << plan.Explain() << "first=" << measured[PlanKind::kSecondaryFirstPointer]
        << " tailored=" << measured[PlanKind::kSecondaryTailored]
        << " scan=" << measured[PlanKind::kHeapScan];

    // Between the two secondary modes, the predicted order matches the
    // measured order (ties tolerated).
    auto predicted = [&](PlanKind kind) {
      for (const PlanCandidate& c : plan.candidates()) {
        if (c.kind == kind) return c.predicted_ms;
      }
      return -1.0;
    };
    double mf = measured[PlanKind::kSecondaryFirstPointer];
    double mt = measured[PlanKind::kSecondaryTailored];
    if (mf > mt * 1.25) {
      EXPECT_GE(predicted(PlanKind::kSecondaryFirstPointer),
                predicted(PlanKind::kSecondaryTailored))
          << plan.Explain();
    }

    // Sanity bounds on the reported prediction: positive and within 15x of
    // the measured cost of the chosen plan (the model is analytic, not a
    // simulator — rank order is what it must get right).
    EXPECT_GT(plan.predicted_ms, 0.0);
    EXPECT_GE(plan.predicted_ms, measured[plan.kind] / 15.0) << plan.Explain();
    EXPECT_LE(plan.predicted_ms, measured[plan.kind] * 15.0) << plan.Explain();
  }
}

TEST(PlannerTest, PtqPrefersClusteredProbeAndPredictsWithinBounds) {
  DblpFx fx;
  std::string inst = fx.gen->PopularInstitution();
  Plan plan = fx.author_table->planner().PlanPtq(inst, 0.5);
  EXPECT_EQ(plan.kind, PlanKind::kPrimaryProbe) << plan.Explain();

  double probe_ms = ColdSimMs(fx.db.env(), [&] {
    std::vector<core::PtqMatch> out;
    ASSERT_TRUE(fx.author_table->path()->QueryPtq(inst, 0.5, &out).ok());
  });
  double scan_ms = ColdSimMs(fx.db.env(), [&] {
    std::vector<core::PtqMatch> out;
    ASSERT_TRUE(exec::ScanFilter(*fx.author_table->path(),
                                 AuthorCols::kInstitution, inst, 0.5, &out)
                    .ok());
  });
  EXPECT_LT(probe_ms, scan_ms);  // the planner's choice is the real winner
  EXPECT_GE(plan.predicted_ms, probe_ms / 15.0) << plan.Explain();
  EXPECT_LE(plan.predicted_ms, probe_ms * 15.0) << plan.Explain();
}

TEST(PlannerTest, ExplainListsChosenAndCandidates) {
  DblpFx fx;
  Plan plan = fx.pub_table->planner().PlanSecondary(PublicationCols::kCountry,
                                                    fx.gen->MidCountry(), 0.3);
  std::string text = plan.Explain();
  EXPECT_NE(text.find("chosen:"), std::string::npos) << text;
  EXPECT_NE(text.find("secondary-tailored"), std::string::npos) << text;
  EXPECT_NE(text.find("secondary-first-pointer"), std::string::npos) << text;
  EXPECT_NE(text.find("heap-scan"), std::string::npos) << text;
  EXPECT_NE(text.find("predicted"), std::string::npos) << text;
}

// ---------------------------------------------------------------------------
// Plan execution through the operators
// ---------------------------------------------------------------------------

TEST(ExecuteTest, ScanPlanReturnsSameRowsAsSecondaryProbe) {
  DblpFx fx;
  const int col = PublicationCols::kCountry;
  std::string country = fx.gen->MidCountry();

  Plan scan_plan;
  scan_plan.kind = PlanKind::kHeapScan;
  scan_plan.column = col;
  scan_plan.value = country;
  scan_plan.qt = 0.3;
  std::vector<core::PtqMatch> via_scan, via_secondary;
  ASSERT_TRUE(exec::Execute(*fx.pub_table->path(), scan_plan, &via_scan).ok());

  Plan sec_plan = scan_plan;
  sec_plan.kind = PlanKind::kSecondaryTailored;
  ASSERT_TRUE(
      exec::Execute(*fx.pub_table->path(), sec_plan, &via_secondary).ok());

  ASSERT_EQ(via_scan.size(), via_secondary.size());
  for (size_t i = 0; i < via_scan.size(); ++i) {
    EXPECT_EQ(via_scan[i].id, via_secondary[i].id);
    EXPECT_NEAR(via_scan[i].confidence, via_secondary[i].confidence, 1e-9);
  }
}

TEST(PlannerTest, TinyTablePrefersScanForSecondaryQuery) {
  // On a three-tuple table the whole heap is one leaf: a sequential sweep
  // beats two index descents.
  Database db;
  catalog::Schema schema({{"Name", ValueType::kString},
                          {"Institution", ValueType::kDiscrete},
                          {"Country", ValueType::kDiscrete}});
  std::vector<Tuple> tuples;
  tuples.push_back(Tuple(1, 0.9,
                         {Value::String("Alice"),
                          Value::Discrete(Dist({{"Brown", 0.8}, {"MIT", 0.2}})),
                          Value::Discrete(Dist({{"US", 1.0}}))}));
  tuples.push_back(Tuple(2, 1.0,
                         {Value::String("Bob"),
                          Value::Discrete(Dist({{"MIT", 0.95}, {"UCB", 0.05}})),
                          Value::Discrete(Dist({{"US", 1.0}}))}));
  core::UpiOptions opt;
  opt.cluster_column = 1;
  opt.cutoff = 0.1;
  Table* table = db.CreateUpiTable("t", schema, opt, {2}, tuples).ValueOrDie();

  std::vector<core::PtqMatch> out;
  Plan plan =
      std::move(table->Run(Query::Secondary(2, "US", 0.5), &out)).ValueOrDie();
  EXPECT_EQ(plan.kind, PlanKind::kHeapScan) << plan.Explain();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].id, 2u);  // Bob at 1.0 before Alice at 0.9
}

// ---------------------------------------------------------------------------
// Top-k planning over different paths
// ---------------------------------------------------------------------------

TEST(PlannerTest, TopKUsesDirectCursorOnUpiAndPrunedFanOutOnFractured) {
  DblpFx fx;
  std::string inst = fx.gen->PopularInstitution();
  Plan plan = fx.author_table->planner().PlanTopK(inst, 10);
  EXPECT_EQ(plan.kind, PlanKind::kTopKDirect) << plan.Explain();
  std::vector<core::PtqMatch> direct;
  ASSERT_TRUE(exec::Execute(*fx.author_table->path(), plan, &direct).ok());
  ASSERT_EQ(direct.size(), 10u);

  // A fractured table answers top-k with the summary-pruned fan-out (each
  // probed fracture streams at most k rows; a running k-th-score bound skips
  // fractures that cannot compete), so the direct strategy is both available
  // and the cheapest — and produces the same answer as the plain UPI.
  core::UpiOptions fopt;
  fopt.cluster_column = AuthorCols::kInstitution;
  fopt.cutoff = 0.1;
  Table* fractured =
      fx.db.CreateFracturedTable("authors_frac",
                                 datagen::DblpGenerator::AuthorSchema(), fopt,
                                 {}, fx.authors)
          .ValueOrDie();
  Plan fplan = fractured->planner().PlanTopK(inst, 10);
  EXPECT_EQ(fplan.kind, PlanKind::kTopKDirect) << fplan.Explain();
  std::vector<core::PtqMatch> via_fanout;
  ASSERT_TRUE(exec::Execute(*fractured->path(), fplan, &via_fanout).ok());
  ASSERT_EQ(via_fanout.size(), 10u);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_NEAR(direct[i].confidence, via_fanout[i].confidence, 1e-8);
  }

  // The Section 9 threshold strategies still exist as candidates and still
  // agree on the rows.
  Plan tplan = fplan;
  tplan.kind = PlanKind::kTopKEstimatedThreshold;
  tplan.initial_qt = 0.5;
  std::vector<core::PtqMatch> via_threshold;
  ASSERT_TRUE(exec::Execute(*fractured->path(), tplan, &via_threshold).ok());
  ASSERT_EQ(via_threshold.size(), 10u);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_NEAR(direct[i].confidence, via_threshold[i].confidence, 1e-8);
  }
}

// ---------------------------------------------------------------------------
// Batched execution
// ---------------------------------------------------------------------------

TEST(RunBatchTest, AmortizesRepeatedProbesOnAFracturedTable) {
  DblpFx fx;
  core::UpiOptions fopt;
  fopt.cluster_column = AuthorCols::kInstitution;
  fopt.cutoff = 0.1;
  Table* table =
      fx.db.CreateFracturedTable("authors_batch",
                                 datagen::DblpGenerator::AuthorSchema(), fopt,
                                 {}, fx.authors)
          .ValueOrDie();

  std::string popular = fx.gen->PopularInstitution();
  std::string other = fx.gen->InstitutionName(7);
  std::vector<exec::ProbeSpec> probes = {
      {-1, popular, 0.6}, {-1, popular, 0.3}, {-1, popular, 0.45},
      {-1, other, 0.5},   {-1, other, 0.25},
  };

  double individual = 0.0;
  std::vector<std::vector<core::PtqMatch>> solo(probes.size());
  for (size_t i = 0; i < probes.size(); ++i) {
    individual += ColdSimMs(fx.db.env(), [&] {
      ASSERT_TRUE(
          table->path()->QueryPtq(probes[i].value, probes[i].qt, &solo[i]).ok());
    });
  }

  std::vector<std::vector<core::PtqMatch>> batched;
  double batch = ColdSimMs(fx.db.env(), [&] {
    ASSERT_TRUE(exec::RunBatch(*table->path(), probes, &batched).ok());
  });

  // Five probes collapse to two physical probes: the batch must amortize the
  // per-probe Costinit + H*Tseek (here: clearly under the summed cost).
  EXPECT_LT(batch, individual * 0.6)
      << "batch=" << batch << " individual=" << individual;

  // And the rows must match the per-probe results exactly.
  ASSERT_EQ(batched.size(), probes.size());
  for (size_t i = 0; i < probes.size(); ++i) {
    core::SortByConfidenceDesc(&solo[i]);
    ASSERT_EQ(batched[i].size(), solo[i].size()) << "probe " << i;
    for (size_t j = 0; j < solo[i].size(); ++j) {
      EXPECT_EQ(batched[i][j].id, solo[i][j].id);
    }
  }
}

// ---------------------------------------------------------------------------
// Database facade
// ---------------------------------------------------------------------------

TEST(DatabaseTest, RejectsDuplicateTableNames) {
  DblpFx fx;
  core::UpiOptions opt;
  opt.cluster_column = AuthorCols::kInstitution;
  auto dup = fx.db.CreateUpiTable("authors",
                                  datagen::DblpGenerator::AuthorSchema(), opt,
                                  {}, fx.authors);
  ASSERT_FALSE(dup.ok());
  EXPECT_TRUE(dup.status().IsAlreadyExists());
  EXPECT_EQ(fx.db.GetTable("authors"), fx.author_table);
  EXPECT_EQ(fx.db.GetTable("nope"), nullptr);
  auto names = fx.db.TableNames();
  EXPECT_NE(std::find(names.begin(), names.end(), "pubs"), names.end());
}

TEST(DatabaseTest, FracturedTableGetsAutomaticMaintenance) {
  DatabaseOptions dbopt;
  dbopt.maintenance.policy.flush_max_buffered_tuples = 64;
  Database db(dbopt);

  datagen::DblpConfig cfg;
  cfg.num_authors = 600;
  cfg.num_institutions = 40;
  cfg.seed = 7;
  datagen::DblpGenerator gen(cfg);
  auto authors = gen.GenerateAuthors();

  core::UpiOptions opt;
  opt.cluster_column = AuthorCols::kInstitution;
  opt.cutoff = 0.1;
  Table* table =
      db.CreateFracturedTable("stream", datagen::DblpGenerator::AuthorSchema(),
                              opt, {}, {})
          .ValueOrDie();

  // Stream inserts through the facade; Table::Insert notifies the manager.
  for (const Tuple& t : authors) ASSERT_TRUE(table->Insert(t).ok());
  size_t ran = db.RunMaintenance();
  EXPECT_GT(ran, 0u);
  EXPECT_GE(db.maintenance()->stats().flushes, 1u);
  ASSERT_TRUE(db.maintenance()->last_error().ok());

  // Everything streamed is queryable through the planner (buffered tail
  // included).
  std::string inst = gen.PopularInstitution();
  size_t expected = 0;
  for (const Tuple& t : authors) {
    if (t.ConfidenceOf(AuthorCols::kInstitution, inst) >= 0.2) ++expected;
  }
  std::vector<core::PtqMatch> out;
  ASSERT_TRUE(table->Run(Query::Ptq(inst, 0.2), &out).status().ok());
  EXPECT_EQ(out.size(), expected);
}

TEST(DatabaseTest, PlannedQueriesRunConcurrentlyWithWorkerMaintenance) {
  // Planning reads fracture stats from a snapshot of the fracture set, so
  // the facade's Ptq/Secondary/TopK are safe while background workers flush
  // and merge (this test runs under TSan and the lock-rank checker in CI).
  DatabaseOptions dbopt;
  dbopt.maintenance.num_workers = 2;
  dbopt.maintenance.policy.flush_max_buffered_tuples = 48;
  Database db(dbopt);

  datagen::DblpConfig cfg;
  cfg.num_authors = 800;
  cfg.num_institutions = 40;
  cfg.seed = 11;
  datagen::DblpGenerator gen(cfg);
  auto authors = gen.GenerateAuthors();
  std::string inst = gen.PopularInstitution();

  core::UpiOptions opt;
  opt.cluster_column = AuthorCols::kInstitution;
  opt.cutoff = 0.1;
  Table* table =
      db.CreateFracturedTable("stream", datagen::DblpGenerator::AuthorSchema(),
                              opt, {}, {})
          .ValueOrDie();
  for (size_t i = 0; i < authors.size(); ++i) {
    ASSERT_TRUE(table->Insert(authors[i]).ok());
    if (i % 60 == 0) {
      std::vector<core::PtqMatch> out;
      ASSERT_TRUE(table->Run(Query::Ptq(inst, 0.3), &out).status().ok());
    }
  }
  db.maintenance()->WaitIdle();
  ASSERT_TRUE(db.maintenance()->last_error().ok());

  size_t expected = 0;
  for (const Tuple& t : authors) {
    if (t.ConfidenceOf(AuthorCols::kInstitution, inst) >= 0.3) ++expected;
  }
  std::vector<core::PtqMatch> out;
  ASSERT_TRUE(table->Run(Query::Ptq(inst, 0.3), &out).status().ok());
  EXPECT_EQ(out.size(), expected);
}

// ---------------------------------------------------------------------------
// Adapter estimation hooks
// ---------------------------------------------------------------------------

TEST(AccessPathTest, SecondaryEstimatesSurviveMerges) {
  // Regression: MergeUpis used to rebuild the secondary index but drop the
  // per-column histogram, zeroing planner estimates after any maintenance
  // merge.
  DblpFx fx;
  core::UpiOptions fopt;
  fopt.cluster_column = PublicationCols::kInstitution;
  fopt.cutoff = 0.1;
  Table* table =
      fx.db.CreateFracturedTable("pubs_frac",
                                 datagen::DblpGenerator::PublicationSchema(),
                                 fopt, {PublicationCols::kCountry}, fx.pubs)
          .ValueOrDie();
  std::string country = fx.gen->MidCountry();
  double before = table->path()->EstimateSecondaryMatches(
      PublicationCols::kCountry, country, 0.3);
  ASSERT_GT(before, 0.0);

  // Flush a delta fracture, then merge everything back into one.
  for (size_t i = 0; i < 50; ++i) {
    const Tuple& src = fx.pubs[i];
    std::vector<Value> values;
    for (size_t c = 0; c < fx.pub_table->path()->schema().num_columns(); ++c) {
      values.push_back(src.Get(c));
    }
    Tuple copy(1000000 + static_cast<catalog::TupleId>(i), src.existence(),
               std::move(values));
    ASSERT_TRUE(table->fractured()->Insert(copy).ok());
  }
  ASSERT_TRUE(table->fractured()->FlushBuffer().ok());
  ASSERT_TRUE(table->fractured()->MergeAll().ok());

  double after = table->path()->EstimateSecondaryMatches(
      PublicationCols::kCountry, country, 0.3);
  EXPECT_GE(after, before * 0.9);
  Plan plan = table->planner().PlanSecondary(PublicationCols::kCountry,
                                             country, 0.3);
  EXPECT_NE(plan.Explain().find("ptrs=0 "), 0u);  // not priced as empty
  EXPECT_GT(after, 0.0);
}

TEST(AccessPathTest, StatsAndEstimatesCostNoSimulatedIo) {
  DblpFx fx;
  fx.db.env()->ColdCache();
  sim::StatsWindow window(fx.db.env()->disk());
  PathStats stats = fx.pub_table->path()->Stats();
  (void)fx.pub_table->path()->EstimatePtq(fx.gen->PopularInstitution(), 0.3);
  (void)fx.pub_table->path()->EstimateSecondaryMatches(
      PublicationCols::kCountry, fx.gen->MidCountry(), 0.3);
  (void)fx.pub_table->planner().PlanSecondary(PublicationCols::kCountry,
                                              fx.gen->MidCountry(), 0.3);
  EXPECT_EQ(window.ElapsedMs(), 0.0);
  EXPECT_GT(stats.table.num_leaf_pages, 0u);
  EXPECT_GT(stats.heap_entries, 0u);
}

TEST(AccessPathTest, UnclusteredAdapterEstimatesFromBuiltStatistics) {
  DblpFx fx;
  Database base_db;
  Table* heap = base_db
                    .CreateUnclusteredTable(
                        "authors_heap", datagen::DblpGenerator::AuthorSchema(),
                        AuthorCols::kInstitution, {AuthorCols::kInstitution},
                        fx.authors)
                    .ValueOrDie();
  std::string inst = fx.gen->PopularInstitution();
  double est = heap->path()->EstimatePtq(inst, 0.3).heap_entries;
  size_t actual = 0;
  for (const Tuple& t : fx.authors) {
    if (t.ConfidenceOf(AuthorCols::kInstitution, inst) >= 0.3) ++actual;
  }
  // Histogram estimate within 30% of truth for a popular value.
  EXPECT_GT(est, actual * 0.7);
  EXPECT_LT(est, actual * 1.3);

  // And the adapter's direct top-k (PII inverted list) works.
  std::vector<core::PtqMatch> out;
  ASSERT_TRUE(heap->path()->QueryTopK(inst, 5, &out).ok());
  EXPECT_EQ(out.size(), 5u);
}

}  // namespace
}  // namespace upi::engine
