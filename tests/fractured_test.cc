#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/cost_model.h"
#include "core/fractured_upi.h"
#include "datagen/dblp.h"
#include "engine/access_path.h"
#include "storage/db_env.h"

namespace upi::core {
namespace {

using catalog::Tuple;
using catalog::TupleId;

/// PTQ through the engine's fractured access path: the table's PTQ cursor
/// drained and confidence-sorted.
Status QueryPtq(const FracturedUpi& table, std::string_view value, double qt,
                std::vector<PtqMatch>* out) {
  return engine::FracturedAccessPath(&table).QueryPtq(value, qt, out);
}

struct Fx {
  datagen::DblpConfig cfg;
  std::unique_ptr<datagen::DblpGenerator> gen;
  std::vector<Tuple> tuples;
  storage::DbEnv env;
  std::unique_ptr<FracturedUpi> table;

  explicit Fx(uint64_t n = 600, uint64_t seed = 11) {
    cfg.num_authors = n;
    cfg.num_institutions = 50;
    cfg.seed = seed;
    gen = std::make_unique<datagen::DblpGenerator>(cfg);
    tuples = gen->GenerateAuthors();
    UpiOptions opt;
    opt.cluster_column = datagen::AuthorCols::kInstitution;
    opt.cutoff = 0.1;
    opt.charge_open_per_query = false;
    table = std::make_unique<FracturedUpi>(
        &env, "authors", datagen::DblpGenerator::AuthorSchema(), opt,
        std::vector<int>{datagen::AuthorCols::kCountry});
    EXPECT_TRUE(table->BuildMain(tuples).ok());
  }

  std::map<TupleId, double> Oracle(const std::string& value, double qt,
                                   int col = datagen::AuthorCols::kInstitution,
                                   const std::set<TupleId>& deleted = {},
                                   const std::vector<Tuple>& extra = {}) {
    std::map<TupleId, double> oracle;
    auto consider = [&](const Tuple& t) {
      if (deleted.contains(t.id())) return;
      double conf = t.ConfidenceOf(col, value);
      if (conf >= qt && conf > 0) oracle[t.id()] = conf;
    };
    for (const Tuple& t : tuples) consider(t);
    for (const Tuple& t : extra) consider(t);
    return oracle;
  }

  void ExpectQueryMatches(const std::string& value, double qt,
                          const std::map<TupleId, double>& oracle) {
    std::vector<PtqMatch> out;
    ASSERT_TRUE(QueryPtq(*table, value, qt, &out).ok());
    std::map<TupleId, double> got;
    for (const auto& m : out) got[m.id] = m.confidence;
    ASSERT_EQ(got.size(), oracle.size()) << value << " qt=" << qt;
    for (const auto& [id, conf] : oracle) {
      ASSERT_TRUE(got.contains(id)) << id;
      EXPECT_NEAR(got[id], conf, 1e-6);
    }
  }
};

TEST(FracturedUpiTest, MainOnlyQueryMatchesOracle) {
  Fx fx;
  std::string v = fx.gen->PopularInstitution();
  fx.ExpectQueryMatches(v, 0.2, fx.Oracle(v, 0.2));
  fx.ExpectQueryMatches(v, 0.05, fx.Oracle(v, 0.05));  // through cutoff index
}

TEST(FracturedUpiTest, BufferedInsertsVisibleWithoutFlush) {
  Fx fx;
  Tuple extra = fx.gen->MakeAuthor(100000);
  ASSERT_TRUE(fx.table->Insert(extra).ok());
  EXPECT_EQ(fx.table->buffered_inserts(), 1u);
  const auto& dist =
      extra.Get(datagen::AuthorCols::kInstitution).discrete();
  std::string v = dist.First().value;
  fx.ExpectQueryMatches(v, 0.01, fx.Oracle(v, 0.01, 1, {}, {extra}));
}

TEST(FracturedUpiTest, FlushCreatesFractureAndPreservesResults) {
  Fx fx;
  std::vector<Tuple> extras;
  for (TupleId id = 100000; id < 100050; ++id) {
    extras.push_back(fx.gen->MakeAuthor(id));
    ASSERT_TRUE(fx.table->Insert(extras.back()).ok());
  }
  ASSERT_TRUE(fx.table->FlushBuffer().ok());
  EXPECT_EQ(fx.table->buffered_inserts(), 0u);
  EXPECT_EQ(fx.table->num_fractures(), 2u);
  std::string v = fx.gen->PopularInstitution();
  fx.ExpectQueryMatches(v, 0.05, fx.Oracle(v, 0.05, 1, {}, extras));
}

TEST(FracturedUpiTest, DeleteHidesTuplesEverywhere) {
  Fx fx;
  std::string v = fx.gen->PopularInstitution();
  auto full = fx.Oracle(v, 0.05);
  ASSERT_GE(full.size(), 3u) << "need matches to delete";
  std::set<TupleId> victims;
  for (const auto& [id, conf] : full) {
    victims.insert(id);
    if (victims.size() == 2) break;
  }
  for (TupleId id : victims) ASSERT_TRUE(fx.table->Delete(id).ok());
  // Before flush (delete buffered) ...
  fx.ExpectQueryMatches(v, 0.05, fx.Oracle(v, 0.05, 1, victims));
  // ... and after flush (delete set persisted).
  ASSERT_TRUE(fx.table->FlushBuffer().ok());
  fx.ExpectQueryMatches(v, 0.05, fx.Oracle(v, 0.05, 1, victims));
}

TEST(FracturedUpiTest, DeleteOfBufferedInsertNeverReachesDisk) {
  Fx fx;
  Tuple extra = fx.gen->MakeAuthor(200000);
  ASSERT_TRUE(fx.table->Insert(extra).ok());
  ASSERT_TRUE(fx.table->Delete(extra.id()).ok());
  EXPECT_EQ(fx.table->buffered_inserts(), 0u);
  EXPECT_EQ(fx.table->buffered_deletes(), 0u);
  ASSERT_TRUE(fx.table->FlushBuffer().ok());
  EXPECT_EQ(fx.table->num_fractures(), 1u);  // nothing new was written
}

TEST(FracturedUpiTest, TupleIdReuseRejected) {
  Fx fx;
  Tuple extra = fx.gen->MakeAuthor(300000);
  ASSERT_TRUE(fx.table->Insert(extra).ok());
  ASSERT_TRUE(fx.table->FlushBuffer().ok());
  ASSERT_TRUE(fx.table->Delete(extra.id()).ok());
  EXPECT_FALSE(fx.table->Insert(extra).ok());
}

TEST(FracturedUpiTest, MergeCollapsesFracturesAndPreservesAnswers) {
  Fx fx;
  std::vector<Tuple> extras;
  std::set<TupleId> victims = {5, 17, 123};
  for (int batch = 0; batch < 3; ++batch) {
    for (int i = 0; i < 40; ++i) {
      TupleId id = 400000 + batch * 1000 + i;
      extras.push_back(fx.gen->MakeAuthor(id));
      ASSERT_TRUE(fx.table->Insert(extras.back()).ok());
    }
    ASSERT_TRUE(fx.table->FlushBuffer().ok());
  }
  for (TupleId id : victims) ASSERT_TRUE(fx.table->Delete(id).ok());
  EXPECT_EQ(fx.table->num_fractures(), 4u);

  uint64_t live_before = fx.table->num_live_tuples();
  ASSERT_TRUE(fx.table->MergeAll().ok());
  EXPECT_EQ(fx.table->num_fractures(), 1u);
  EXPECT_EQ(fx.table->num_live_tuples(), live_before);

  std::string v = fx.gen->PopularInstitution();
  fx.ExpectQueryMatches(v, 0.05, fx.Oracle(v, 0.05, 1, victims, extras));
  fx.ExpectQueryMatches(v, 0.3, fx.Oracle(v, 0.3, 1, victims, extras));

  // Secondary survives the merge too.
  std::string country = fx.gen->MidCountry();
  std::vector<PtqMatch> out;
  ASSERT_TRUE(fx.table
                  ->QueryBySecondary(datagen::AuthorCols::kCountry, country,
                                     0.3, SecondaryAccessMode::kTailored, &out)
                  .ok());
  auto oracle =
      fx.Oracle(country, 0.3, datagen::AuthorCols::kCountry, victims, extras);
  std::map<TupleId, double> got;
  for (const auto& m : out) got[m.id] = m.confidence;
  ASSERT_EQ(got.size(), oracle.size());
  for (const auto& [id, conf] : oracle) {
    ASSERT_TRUE(got.contains(id));
    EXPECT_NEAR(got[id], conf, 1e-6);
  }
}

TEST(FracturedUpiTest, FlushIsSequentialInsertIsCheap) {
  // The Table 7 effect in miniature: buffering + sequential flush must be far
  // cheaper than random in-place UPI maintenance.
  Fx fx(2000, 3);

  // Non-fractured UPI: insert the same tuples in place.
  storage::DbEnv env2(4 << 20);  // small pool forces eviction writes
  UpiOptions opt = fx.table->options();
  Upi plain(&env2, "plain", datagen::DblpGenerator::AuthorSchema(), opt);
  auto base = fx.tuples;
  {
    auto built = Upi::Build(&env2, "plain_base",
                            datagen::DblpGenerator::AuthorSchema(), opt, {},
                            base);
    ASSERT_TRUE(built.ok());
  }

  std::vector<Tuple> extras;
  for (TupleId id = 500000; id < 500200; ++id) {
    extras.push_back(fx.gen->MakeAuthor(id));
  }

  sim::StatsWindow w_frac(fx.env.disk());
  for (const Tuple& t : extras) ASSERT_TRUE(fx.table->Insert(t).ok());
  ASSERT_TRUE(fx.table->FlushBuffer().ok());
  double frac_ms = w_frac.ElapsedMs();

  // Plain UPI gets a comparable starting size by building then inserting.
  sim::StatsWindow w_plain(env2.disk());
  storage::DbEnv env3(4 << 20);
  auto plain_full =
      Upi::Build(&env3, "p", datagen::DblpGenerator::AuthorSchema(), opt, {},
                 base)
          .ValueOrDie();
  env3.ColdCache();
  sim::StatsWindow w3(env3.disk());
  for (const Tuple& t : extras) ASSERT_TRUE(plain_full->Insert(t).ok());
  env3.pool()->FlushAll();
  double plain_ms = w3.ElapsedMs();

  EXPECT_LT(frac_ms, plain_ms / 3) << "fractured flush should be much cheaper";
}

TEST(FracturedUpiTest, SizeAndStatsAccounting) {
  Fx fx;
  uint64_t size0 = fx.table->size_bytes();
  EXPECT_GT(size0, 0u);
  for (TupleId id = 600000; id < 600100; ++id) {
    ASSERT_TRUE(fx.table->Insert(fx.gen->MakeAuthor(id)).ok());
  }
  ASSERT_TRUE(fx.table->FlushBuffer().ok());
  EXPECT_GT(fx.table->size_bytes(), size0);
  TableStats stats = TableStats::Of(*fx.table);
  EXPECT_EQ(stats.num_fractures, 2u);
  EXPECT_GT(stats.num_leaf_pages, 0u);
  EXPECT_GE(stats.btree_height, 1u);
}


TEST(FracturedUpiTest, PartialMergeCollapsesOldestDeltas) {
  Fx fx;
  std::vector<Tuple> extras;
  for (int batch = 0; batch < 4; ++batch) {
    for (int i = 0; i < 30; ++i) {
      TupleId id = 700000 + batch * 1000 + i;
      extras.push_back(fx.gen->MakeAuthor(id));
      ASSERT_TRUE(fx.table->Insert(extras.back()).ok());
    }
    ASSERT_TRUE(fx.table->FlushBuffer().ok());
  }
  // Delete a tuple that lives in the first delta fracture.
  TupleId victim = 700000;
  ASSERT_TRUE(fx.table->Delete(victim).ok());
  ASSERT_TRUE(fx.table->FlushBuffer().ok());
  ASSERT_EQ(fx.table->num_fractures(), 5u);  // main + 4 deltas

  uint64_t live_before = fx.table->num_live_tuples();
  ASSERT_TRUE(fx.table->MergeOldestFractures(3).ok());
  EXPECT_EQ(fx.table->num_fractures(), 3u);  // main + merged + newest delta
  EXPECT_EQ(fx.table->num_live_tuples(), live_before);

  std::string v = fx.gen->PopularInstitution();
  std::vector<Tuple> live_extras;
  for (const auto& t : extras) {
    if (t.id() != victim) live_extras.push_back(t);
  }
  fx.ExpectQueryMatches(v, 0.05, fx.Oracle(v, 0.05, 1, {victim}, live_extras));

  // The victim was retired from the delete set by the partial merge; a later
  // full merge must still be correct.
  ASSERT_TRUE(fx.table->MergeAll().ok());
  EXPECT_EQ(fx.table->num_fractures(), 1u);
  fx.ExpectQueryMatches(v, 0.05, fx.Oracle(v, 0.05, 1, {victim}, live_extras));
}

TEST(FracturedUpiTest, PartialMergeNoOpWithFewDeltas) {
  Fx fx;
  ASSERT_TRUE(fx.table->Insert(fx.gen->MakeAuthor(800000)).ok());
  ASSERT_TRUE(fx.table->FlushBuffer().ok());
  ASSERT_TRUE(fx.table->MergeOldestFractures(5).ok());  // only 1 delta
  EXPECT_EQ(fx.table->num_fractures(), 2u);
}

TEST(FracturedUpiTest, ScanTuplesDedupsAndSubtractsDeleteSetsAcrossFractures) {
  // The coverage gap: a tuple's life across three fractures — inserted and
  // flushed (fracture A), deleted with the delete set flushed alongside a
  // second batch (fracture B), then a third batch flushed (fracture C) while
  // another delete is still RAM-buffered. ScanTuples must emit every live
  // tuple exactly once (the heap duplicates multi-alternative tuples within
  // a fracture) and never a deleted one, whether its delete set is on disk
  // or still buffered. TupleIds never resurrect, so "re-inserting" the
  // deleted id into fracture C must be rejected rather than re-emitted.
  Fx fx;
  std::vector<Tuple> extras;
  // Fracture A.
  for (TupleId id = 910000; id < 910040; ++id) {
    extras.push_back(fx.gen->MakeAuthor(id));
    ASSERT_TRUE(fx.table->Insert(extras.back()).ok());
  }
  ASSERT_TRUE(fx.table->FlushBuffer().ok());
  // Delete one fracture-A tuple and one main-fracture tuple; their delete
  // set is persisted with fracture B's flush.
  const TupleId victim_a = 910007, victim_main = 42;
  ASSERT_TRUE(fx.table->Delete(victim_a).ok());
  ASSERT_TRUE(fx.table->Delete(victim_main).ok());
  for (TupleId id = 920000; id < 920040; ++id) {
    extras.push_back(fx.gen->MakeAuthor(id));
    ASSERT_TRUE(fx.table->Insert(extras.back()).ok());
  }
  ASSERT_TRUE(fx.table->FlushBuffer().ok());
  // The deleted id cannot be re-flushed into fracture C: reuse is rejected.
  EXPECT_FALSE(fx.table->Insert(fx.gen->MakeAuthor(victim_a)).ok());
  // Fracture C, plus a delete that stays RAM-buffered (no flush after).
  for (TupleId id = 930000; id < 930040; ++id) {
    extras.push_back(fx.gen->MakeAuthor(id));
    ASSERT_TRUE(fx.table->Insert(extras.back()).ok());
  }
  ASSERT_TRUE(fx.table->FlushBuffer().ok());
  ASSERT_EQ(fx.table->num_fractures(), 4u);  // main + A + B + C
  const TupleId victim_buffered = 920011;
  ASSERT_TRUE(fx.table->Delete(victim_buffered).ok());
  ASSERT_EQ(fx.table->buffered_deletes(), 1u);

  std::set<TupleId> deleted = {victim_a, victim_main, victim_buffered};
  std::map<TupleId, int> seen;
  ASSERT_TRUE(
      fx.table
          ->ScanTuples(/*column=*/-1, "", /*qt=*/-1.0,
                       [&](const Tuple& t) { ++seen[t.id()]; })
          .ok());
  for (const auto& [id, count] : seen) {
    EXPECT_EQ(count, 1) << "tuple " << id << " emitted more than once";
    EXPECT_FALSE(deleted.contains(id)) << "deleted tuple " << id << " emitted";
  }
  // Exactly the live population: base + extras - the three victims.
  EXPECT_EQ(seen.size(), fx.tuples.size() + extras.size() - deleted.size());
  for (const Tuple& t : extras) {
    if (!deleted.contains(t.id())) {
      EXPECT_TRUE(seen.contains(t.id())) << "live tuple " << t.id() << " missing";
    }
  }
}

TEST(FracturedUpiTest, AdaptiveTuningRetunesPerFracture) {
  Fx fx;
  double main_cutoff = fx.table->main()->options().cutoff;
  // A workload that only ever queries at QT=0.5 tolerates a large cutoff;
  // the advisor should raise C for the next fracture.
  fx.table->EnableAdaptiveTuning(
      {{fx.gen->PopularInstitution(), 0.5, 1.0}}, 1e18);
  for (TupleId id = 900000; id < 900200; ++id) {
    ASSERT_TRUE(fx.table->Insert(fx.gen->MakeAuthor(id)).ok());
  }
  ASSERT_TRUE(fx.table->FlushBuffer().ok());
  ASSERT_EQ(fx.table->fractures().size(), 1u);
  double frac_cutoff = fx.table->fractures()[0]->options().cutoff;
  EXPECT_GT(frac_cutoff, main_cutoff);
  EXPECT_NEAR(fx.table->main()->options().cutoff, main_cutoff, 1e-12)
      << "existing fractures keep their own parameters";

  // Queries across mixed-parameter fractures still match the oracle.
  std::string v = fx.gen->PopularInstitution();
  std::vector<Tuple> extras;
  // (regenerate the same tuples for the oracle via a fresh generator)
  datagen::DblpGenerator gen2(fx.cfg);
  auto base = gen2.GenerateAuthors();
  (void)base;
  std::vector<PtqMatch> out;
  ASSERT_TRUE(QueryPtq(*fx.table, v, 0.02, &out).ok());
  EXPECT_GE(out.size(), fx.Oracle(v, 0.02).size());
}

}  // namespace
}  // namespace upi::core
