// Fracture-pruning correctness: pruning may only change *which fractures are
// opened*, never a result row. The property tests run every read path with
// pruning enabled and disabled against the same table and require
// bit-identical rows; the pinned tests assert the simulated-cost wins the
// summaries guarantee (a fully-skipped delta costs zero pages).
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/fractured_upi.h"
#include "datagen/dblp.h"
#include "engine/access_path.h"
#include "engine/database.h"
#include "exec/operators.h"
#include "sim/sim_disk.h"
#include "storage/db_env.h"

namespace upi::core {
namespace {

using catalog::Tuple;
using catalog::TupleId;

constexpr int kInst = datagen::AuthorCols::kInstitution;
constexpr int kCountry = datagen::AuthorCols::kCountry;

/// PTQ through the engine's fractured access path: the table's PTQ cursor
/// drained and confidence-sorted.
Status QueryPtq(const FracturedUpi& table, std::string_view value, double qt,
                std::vector<PtqMatch>* out) {
  return engine::FracturedAccessPath(&table).QueryPtq(value, qt, out);
}

/// Partitioned synthetic tuple: institution in slot `key`, country mirroring
/// coarsely, optionally capped at a low existence.
Tuple MakeSlotTuple(TupleId id, uint64_t key, bool lo_prob, Rng* rng) {
  char inst[32], inst2[32], ctry[32];
  std::snprintf(inst, sizeof(inst), "part%06llu",
                static_cast<unsigned long long>(key));
  std::snprintf(inst2, sizeof(inst2), "part%06llu",
                static_cast<unsigned long long>(key + 1));
  std::snprintf(ctry, sizeof(ctry), "region%04llu",
                static_cast<unsigned long long>(key / 20));
  double existence = lo_prob ? 0.3 : 0.8 + 0.15 * rng->NextDouble();
  std::vector<catalog::Value> values(4);
  values[datagen::AuthorCols::kName] =
      catalog::Value::String("n" + std::to_string(id));
  values[kInst] = catalog::Value::Discrete(
      prob::DiscreteDistribution::Make({{inst, 0.75}, {inst2, 0.2}})
          .ValueOrDie());
  values[kCountry] = catalog::Value::Discrete(
      prob::DiscreteDistribution::Make({{ctry, 0.95}}).ValueOrDie());
  values[datagen::AuthorCols::kPayload] = catalog::Value::String("p");
  return Tuple(id, existence, values);
}

std::string Fingerprint(const std::vector<PtqMatch>& rows) {
  std::string fp;
  char buf[64];
  for (const auto& m : rows) {
    std::snprintf(buf, sizeof(buf), "%llu:%.17g;",
                  static_cast<unsigned long long>(m.id), m.confidence);
    fp += buf;
  }
  return fp;
}

/// A fractured table under a randomized partitioned workload: main + three
/// deltas with overlapping edges, buffered leftovers, buffered and flushed
/// deletes.
struct WorkloadFx {
  storage::DbEnv env;
  std::unique_ptr<FracturedUpi> table;
  std::vector<uint64_t> slots;  // every slot that received a tuple

  explicit WorkloadFx(uint64_t seed) : env(256ull << 20) {
    Rng rng(seed);
    UpiOptions opt;
    opt.cluster_column = kInst;
    opt.cutoff = 0.1;
    table = std::make_unique<FracturedUpi>(
        &env, "w", datagen::DblpGenerator::AuthorSchema(), opt,
        std::vector<int>{kCountry});
    TupleId id = 1;
    std::vector<Tuple> main_tuples;
    for (uint64_t s = 0; s < 120; ++s) {
      main_tuples.push_back(MakeSlotTuple(id++, s, false, &rng));
      slots.push_back(s);
    }
    EXPECT_TRUE(table->BuildMain(main_tuples).ok());
    // Three deltas over later (partially overlapping) slot ranges; the last
    // one entirely low-probability.
    for (int d = 0; d < 3; ++d) {
      uint64_t base = 100 + 60 * static_cast<uint64_t>(d);
      for (uint64_t i = 0; i < 70; ++i) {
        uint64_t s = base + i;
        EXPECT_TRUE(
            table->Insert(MakeSlotTuple(id++, s, /*lo_prob=*/d == 2, &rng))
                .ok());
        slots.push_back(s);
      }
      // A few deletes ride along with each flush.
      for (int k = 0; k < 3; ++k) {
        EXPECT_TRUE(table->Delete(1 + rng.Uniform(id - 1)).ok());
      }
      EXPECT_TRUE(table->FlushBuffer().ok());
    }
    // Buffered leftovers + a buffered (unflushed) delete.
    for (uint64_t i = 0; i < 10; ++i) {
      EXPECT_TRUE(
          table->Insert(MakeSlotTuple(id++, 400 + i, false, &rng)).ok());
      slots.push_back(400 + i);
    }
    EXPECT_TRUE(table->Delete(3).ok());
  }

  std::string SlotValue(uint64_t slot) const {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "part%06llu",
                  static_cast<unsigned long long>(slot));
    return buf;
  }
};

TEST(PruningPropertyTest, AllReadPathsBitIdenticalWithAndWithoutPruning) {
  for (uint64_t seed : {11u, 23u, 47u}) {
    WorkloadFx fx(seed);
    Rng rng(seed * 31);
    for (int q = 0; q < 40; ++q) {
      uint64_t slot = fx.slots[rng.Uniform(fx.slots.size())] +
                      (rng.Uniform(4) == 0 ? 500 : 0);  // sometimes absent
      std::string value = fx.SlotValue(slot);
      char region[32];
      std::snprintf(region, sizeof(region), "region%04llu",
                    static_cast<unsigned long long>(slot / 20));
      double qt = 0.05 + 0.9 * rng.NextDouble();
      size_t k = 1 + rng.Uniform(12);

      std::map<std::string, std::string> fp_on, fp_off;
      for (bool pruning : {true, false}) {
        fx.table->mutable_options()->enable_pruning = pruning;
        auto& fps = pruning ? fp_on : fp_off;
        std::vector<PtqMatch> rows;
        ASSERT_TRUE(QueryPtq(*fx.table, value, qt, &rows).ok());
        fps["ptq"] = Fingerprint(rows);
        rows.clear();
        ASSERT_TRUE(fx.table
                        ->QueryBySecondary(kCountry, region, qt,
                                           SecondaryAccessMode::kTailored,
                                           &rows)
                        .ok());
        fps["sec"] = Fingerprint(rows);
        rows.clear();
        ASSERT_TRUE(fx.table->QueryTopK(value, k, &rows).ok());
        fps["topk"] = Fingerprint(rows);
        rows.clear();
        ASSERT_TRUE(fx.table
                        ->ScanTuples(
                            kInst, value, qt,
                            [&](const Tuple& t) {
                              double c = t.ConfidenceOf(kInst, value);
                              if (c >= qt && c > 0) {
                                rows.push_back(PtqMatch{t.id(), c, t});
                              }
                            })
                        .ok());
        fps["scan"] = Fingerprint(rows);
      }
      EXPECT_EQ(fp_on, fp_off)
          << "seed=" << seed << " value=" << value << " qt=" << qt
          << " k=" << k;
    }
  }
}

TEST(PruningPinnedTest, HighThresholdPtqProbesOnlyMainAndPaysMainOnlyPages) {
  // Every delta is low-existence (max combined prob <= 0.3): a PTQ at 0.5
  // must open only the main fracture — and pay exactly the pages/seeks a
  // main-only table pays for the same query.
  Rng rng(99);
  UpiOptions opt;
  opt.cluster_column = kInst;
  opt.cutoff = 0.1;

  storage::DbEnv env(256ull << 20);
  FracturedUpi table(&env, "t", datagen::DblpGenerator::AuthorSchema(), opt,
                     {kCountry});
  std::vector<Tuple> main_tuples;
  TupleId id = 1;
  for (uint64_t s = 0; s < 100; ++s) {
    main_tuples.push_back(MakeSlotTuple(id++, s, false, &rng));
  }
  ASSERT_TRUE(table.BuildMain(main_tuples).ok());
  for (int d = 0; d < 4; ++d) {
    for (uint64_t i = 0; i < 50; ++i) {
      ASSERT_TRUE(
          table.Insert(MakeSlotTuple(id++, 200 + d * 50 + i, true, &rng))
              .ok());
    }
    ASSERT_TRUE(table.FlushBuffer().ok());
  }
  env.pool()->FlushAll();

  // The reference: an identical main-only table in its own env.
  Rng rng2(99);
  storage::DbEnv env2(256ull << 20);
  FracturedUpi main_only(&env2, "t", datagen::DblpGenerator::AuthorSchema(),
                         opt, {kCountry});
  std::vector<Tuple> main_tuples2;
  TupleId id2 = 1;
  for (uint64_t s = 0; s < 100; ++s) {
    main_tuples2.push_back(MakeSlotTuple(id2++, s, false, &rng2));
  }
  ASSERT_TRUE(main_only.BuildMain(main_tuples2).ok());
  env2.pool()->FlushAll();

  std::string value = "part000050";
  PruneSet set = table.ForQuery(-1, value, 0.5);
  EXPECT_EQ(set.probed, 1u);
  EXPECT_EQ(set.pruned, 4u);
  ASSERT_TRUE(set.probe[0]);  // the main fracture

  auto measure = [](storage::DbEnv* e, FracturedUpi* t,
                    const std::string& v) {
    e->ColdCache();
    sim::StatsWindow w(e->disk());
    std::vector<PtqMatch> rows;
    EXPECT_TRUE(QueryPtq(*t, v, 0.5, &rows).ok());
    return w.Delta();
  };
  sim::DiskStats pruned = measure(&env, &table, value);
  sim::DiskStats reference = measure(&env2, &main_only, value);
  // Pinned: the four skipped deltas cost zero simulated pages and seeks.
  EXPECT_EQ(pruned.reads, reference.reads);
  EXPECT_EQ(pruned.seeks, reference.seeks);
  EXPECT_EQ(pruned.file_opens, reference.file_opens);

  // And the lazy cursor pins the same: draining it reads main-only pages.
  {
    env.ColdCache();
    sim::StatsWindow w(env.disk());
    FracturedPtqCursor c = table.OpenPtqCursor(value, 0.5);
    EXPECT_EQ(c.fractures_probed(), 1u);
    EXPECT_EQ(c.fractures_pruned(), 4u);
    PtqMatch m;
    size_t n = 0;
    while (c.Next(&m)) ++n;
    EXPECT_TRUE(c.status().ok());
    EXPECT_EQ(w.Delta().reads, reference.reads);
  }

  // With pruning off, the same query pays the full fan-out.
  table.mutable_options()->enable_pruning = false;
  sim::DiskStats full = measure(&env, &table, value);
  EXPECT_GT(full.reads, pruned.reads);
  EXPECT_GT(full.file_opens, pruned.file_opens);
}

TEST(PruningPinnedTest, LazyCursorOpensNothingBeyondTheLimit) {
  // A LIMIT consumer that stops inside the buffer/first fracture never opens
  // the fractures behind it: zero additional file opens.
  Rng rng(5);
  storage::DbEnv env(256ull << 20);
  UpiOptions opt;
  opt.cluster_column = kInst;
  opt.cutoff = 0.1;
  FracturedUpi table(&env, "t", datagen::DblpGenerator::AuthorSchema(), opt,
                     {});
  std::vector<Tuple> main_tuples;
  TupleId id = 1;
  // Value "part000000" present in main AND in every delta (overlapping
  // slot), so nothing prunes — laziness, not pruning, is measured.
  for (uint64_t s = 0; s < 40; ++s) {
    main_tuples.push_back(MakeSlotTuple(id++, s, false, &rng));
  }
  ASSERT_TRUE(table.BuildMain(main_tuples).ok());
  for (int d = 0; d < 3; ++d) {
    for (uint64_t i = 0; i < 20; ++i) {
      ASSERT_TRUE(table.Insert(MakeSlotTuple(id++, i, false, &rng)).ok());
    }
    ASSERT_TRUE(table.FlushBuffer().ok());
  }
  env.pool()->FlushAll();
  env.ColdCache();

  sim::StatsWindow w(env.disk());
  // qt > C: the cutoff index is never consulted, one heap open per fracture.
  FracturedPtqCursor c = table.OpenPtqCursor("part000000", 0.2);
  EXPECT_EQ(c.fractures_probed(), 4u);  // nothing pruned...
  PtqMatch m;
  ASSERT_TRUE(c.Next(&m));  // ...but one row only opens the first fracture
  EXPECT_EQ(w.Delta().file_opens, 1u);

  // Full drain pays the whole (unpruned) fan-out: all four heap opens.
  while (c.Next(&m)) {
  }
  EXPECT_TRUE(c.status().ok());
  EXPECT_EQ(w.Delta().file_opens, 4u);
}

TEST(PruningEngineTest, PreparedPlansStayCorrectAcrossFlushWithPruning) {
  // The prepared-plan cache invalidates on the stats epoch a flush bumps;
  // with pruning on, re-binding after the flush must see the new fracture
  // and still produce rows identical to the unpruned run.
  engine::Database db;
  Rng rng(17);
  UpiOptions opt;
  opt.cluster_column = kInst;
  opt.cutoff = 0.1;
  opt.enable_pruning = true;
  std::vector<Tuple> base;
  TupleId id = 1;
  for (uint64_t s = 0; s < 80; ++s) {
    base.push_back(MakeSlotTuple(id++, s, false, &rng));
  }
  engine::Table* t =
      db.CreateFracturedTable("w", datagen::DblpGenerator::AuthorSchema(),
                              opt, {kCountry}, base)
          .ValueOrDie();
  engine::PreparedQuery pq =
      t->Prepare(engine::Query::Ptq("", 0.2)).ValueOrDie();

  std::string probe = "part000300";
  std::vector<PtqMatch> rows_before;
  ASSERT_TRUE(pq.Bind(probe).Execute(&rows_before).ok());
  EXPECT_TRUE(rows_before.empty());  // slot 300 does not exist yet
  uint64_t plans_before = pq.plans();

  // Flush a delta that *does* hold slot 300; the epoch moves, the cached
  // plan is invalidated, and the new fracture is probed (not pruned).
  for (uint64_t i = 0; i < 30; ++i) {
    ASSERT_TRUE(
        t->fractured()->Insert(MakeSlotTuple(id++, 290 + i, false, &rng)).ok());
  }
  ASSERT_TRUE(t->fractured()->FlushBuffer().ok());

  std::vector<PtqMatch> rows_after;
  ASSERT_TRUE(pq.Bind(probe).Execute(&rows_after).ok());
  EXPECT_GT(pq.plans(), plans_before);  // re-planned, not served stale
  EXPECT_FALSE(rows_after.empty());

  // Bit-identical to the unpruned execution of the same prepared query.
  t->fractured()->mutable_options()->enable_pruning = false;
  std::vector<PtqMatch> rows_unpruned;
  ASSERT_TRUE(pq.Bind(probe).Execute(&rows_unpruned).ok());
  EXPECT_EQ(Fingerprint(rows_after), Fingerprint(rows_unpruned));
}

TEST(PruningEngineTest, ExplainReportsPrunedFractures) {
  engine::Database db;
  Rng rng(29);
  UpiOptions opt;
  opt.cluster_column = kInst;
  opt.cutoff = 0.1;
  std::vector<Tuple> base;
  TupleId id = 1;
  for (uint64_t s = 0; s < 60; ++s) {
    base.push_back(MakeSlotTuple(id++, s, false, &rng));
  }
  engine::Table* t =
      db.CreateFracturedTable("w", datagen::DblpGenerator::AuthorSchema(),
                              opt, {kCountry}, base)
          .ValueOrDie();
  for (int d = 0; d < 3; ++d) {
    for (uint64_t i = 0; i < 20; ++i) {
      ASSERT_TRUE(
          t->fractured()
              ->Insert(MakeSlotTuple(id++, 100 + d * 20 + i, false, &rng))
              .ok());
    }
    ASSERT_TRUE(t->fractured()->FlushBuffer().ok());
  }

  // A probe for a main-only value: the three deltas are prunable.
  engine::Plan plan = t->planner().PlanPtq("part000030", 0.2);
  EXPECT_DOUBLE_EQ(plan.fractures_probed, 1.0);
  EXPECT_EQ(plan.fractures_total, 4u);
  std::string explain = plan.Explain();
  EXPECT_NE(explain.find("probing 1 of 4"), std::string::npos) << explain;
  EXPECT_NE(explain.find("3 pruned"), std::string::npos) << explain;
}

}  // namespace
}  // namespace upi::core
