#include "core/fracture_summary.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/fractured_upi.h"
#include "datagen/dblp.h"
#include "engine/access_path.h"
#include "storage/db_env.h"

namespace upi::core {
namespace {

TEST(FractureSummaryTest, ZoneMapFencesMinMaxPerColumn) {
  FractureSummary::Builder b;
  b.AddKey(0, "mango", 0.9);
  b.AddKey(0, "apple", 0.4);
  b.AddKey(0, "peach", 0.7);
  b.AddKey(2, "zz", 0.2);
  auto s = b.Build();

  ASSERT_NE(s->column(0), nullptr);
  EXPECT_EQ(s->column(0)->min_key, "apple");
  EXPECT_EQ(s->column(0)->max_key, "peach");
  EXPECT_EQ(s->column(0)->alternatives, 3u);
  EXPECT_DOUBLE_EQ(s->MaxProb(0), 0.9);
  EXPECT_DOUBLE_EQ(s->MaxProb(2), 0.2);

  // Outside the zone: definite misses, regardless of the Bloom fence.
  EXPECT_FALSE(s->MayContainKey(0, "aardvark"));
  EXPECT_FALSE(s->MayContainKey(0, "zebra"));
  // Present keys always pass.
  EXPECT_TRUE(s->MayContainKey(0, "apple"));
  EXPECT_TRUE(s->MayContainKey(0, "mango"));
  EXPECT_TRUE(s->MayContainKey(0, "peach"));
}

TEST(FractureSummaryTest, UnknownColumnNeverPrunes) {
  FractureSummary::Builder b;
  b.AddKey(0, "x", 0.5);
  auto s = b.Build();
  EXPECT_TRUE(s->MayContainKey(7, "anything"));
  EXPECT_DOUBLE_EQ(s->MaxProb(7), 1.0);
  EXPECT_FALSE(s->CanSkip(7, "anything", 0.99));
}

TEST(FractureSummaryTest, BloomFenceExcludesMostAbsentKeysInsideZone) {
  FractureSummary::Builder b;
  // Even-numbered keys present; the zone spans the odd ones too, so only
  // the Bloom fence can exclude them.
  for (int i = 0; i < 2000; i += 2) {
    b.AddKey(0, "key" + std::to_string(100000 + i), 0.5);
  }
  auto s = b.Build();
  int false_positives = 0;
  for (int i = 1; i < 2000; i += 2) {
    if (s->MayContainKey(0, "key" + std::to_string(100000 + i))) {
      ++false_positives;
    }
  }
  // ~10 bits/entry, 7 probes: ~1% FP. Allow generous slack; the point is
  // that the fence excludes the overwhelming majority.
  EXPECT_LT(false_positives, 50);
  // And never a false negative.
  for (int i = 0; i < 2000; i += 2) {
    EXPECT_TRUE(s->MayContainKey(0, "key" + std::to_string(100000 + i)));
  }
}

TEST(FractureSummaryTest, TupleIdFenceSaltedSeparatelyFromKeys) {
  FractureSummary::Builder b;
  for (catalog::TupleId id = 1000; id < 2000; ++id) b.AddTupleId(id);
  auto s = b.Build();
  EXPECT_EQ(s->tuple_count(), 1000u);
  for (catalog::TupleId id = 1000; id < 2000; ++id) {
    EXPECT_TRUE(s->MayContainTupleId(id));
  }
  int fp = 0;
  for (catalog::TupleId id = 50000; id < 51000; ++id) {
    if (s->MayContainTupleId(id)) ++fp;
  }
  EXPECT_LT(fp, 30);
}

TEST(FractureSummaryTest, CanSkipCombinesMaxProbAndPresence) {
  FractureSummary::Builder b;
  b.AddKey(0, "v", 0.3);
  auto s = b.Build();
  EXPECT_TRUE(s->CanSkip(0, "v", 0.31));   // threshold above max prob
  EXPECT_FALSE(s->CanSkip(0, "v", 0.30));  // equality must probe
  EXPECT_TRUE(s->CanSkip(0, "w", 0.1));    // value cannot be present
  EXPECT_FALSE(s->CanSkip(0, "v", 0.1));
}

TEST(FractureSummaryTest, SummariesSurviveFlushAndMergeInstalls) {
  // Every fracture carries its own summary across flush, partial merge, and
  // full merge.
  datagen::DblpConfig cfg;
  cfg.num_authors = 300;
  cfg.num_institutions = 40;
  cfg.seed = 7;
  datagen::DblpGenerator gen(cfg);
  auto tuples = gen.GenerateAuthors();
  storage::DbEnv env;
  UpiOptions opt;
  opt.cluster_column = datagen::AuthorCols::kInstitution;
  opt.cutoff = 0.1;
  FracturedUpi table(&env, "t", datagen::DblpGenerator::AuthorSchema(), opt,
                     {datagen::AuthorCols::kCountry});
  ASSERT_TRUE(table.BuildMain(tuples).ok());
  auto set = table.snapshot();
  ASSERT_TRUE(set->has_main);
  ASSERT_NE(set->slots[0]->summary(), nullptr);
  EXPECT_EQ(set->slots[0]->summary()->tuple_count(), tuples.size());

  for (int batch = 0; batch < 3; ++batch) {
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(
          table.Insert(gen.MakeAuthor(100000 + batch * 1000 + i)).ok());
    }
    ASSERT_TRUE(table.FlushBuffer().ok());
  }
  set = table.snapshot();
  ASSERT_EQ(set->num_deltas(), 3u);
  for (size_t slot = 1; slot < set->slots.size(); ++slot) {
    ASSERT_NE(set->slots[slot]->summary(), nullptr);
    EXPECT_EQ(set->slots[slot]->summary()->tuple_count(), 30u);
  }

  ASSERT_TRUE(table.MergeOldestFractures(2).ok());
  set = table.snapshot();
  ASSERT_EQ(set->num_deltas(), 2u);
  EXPECT_EQ(set->slots[1]->summary()->tuple_count(), 60u);

  ASSERT_TRUE(table.MergeAll().ok());
  set = table.snapshot();
  ASSERT_EQ(set->slots.size(), 1u);
  ASSERT_TRUE(set->has_main);
  const FractureSummary* main_summary = set->slots[0]->summary();
  ASSERT_NE(main_summary, nullptr);
  EXPECT_EQ(main_summary->tuple_count(), tuples.size() + 90u);
  // The merged summary still fences: a key far outside the value space.
  EXPECT_FALSE(main_summary->MayContainKey(
      datagen::AuthorCols::kInstitution, "~~nowhere~~"));
}

TEST(FractureSummaryTest, ConcurrentQueriesDuringMaintenanceSmoke) {
  // Race coverage (TSan and sync-checks jobs): readers prune and read off
  // their own snapshots while a maintenance thread flushes and merges; no
  // reader holds the table lock while it waits on the buffer pool.
  datagen::DblpConfig cfg;
  cfg.num_authors = 400;
  cfg.num_institutions = 30;
  cfg.seed = 13;
  datagen::DblpGenerator gen(cfg);
  auto tuples = gen.GenerateAuthors();
  storage::DbEnv env;
  UpiOptions opt;
  opt.cluster_column = datagen::AuthorCols::kInstitution;
  opt.cutoff = 0.1;
  FracturedUpi table(&env, "c", datagen::DblpGenerator::AuthorSchema(), opt,
                     {datagen::AuthorCols::kCountry});
  ASSERT_TRUE(table.BuildMain(tuples).ok());
  const engine::FracturedAccessPath path(&table);
  std::string v = gen.PopularInstitution();

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        std::vector<PtqMatch> out;
        ASSERT_TRUE(path.QueryPtq(v, 0.2, &out).ok());
        ASSERT_TRUE(table.QueryTopK(v, 5, &out).ok());
        (void)table.ForQuery(-1, v, 0.2);
        (void)table.EstimatePrune(-1, v, 0.2);
      }
    });
  }
  for (int batch = 0; batch < 4; ++batch) {
    for (int i = 0; i < 25; ++i) {
      ASSERT_TRUE(
          table.Insert(gen.MakeAuthor(200000 + batch * 1000 + i)).ok());
    }
    ASSERT_TRUE(table.FlushBuffer().ok());
  }
  ASSERT_TRUE(table.MergeAll().ok());
  stop.store(true);
  for (auto& r : readers) r.join();
  for (const auto& f : table.snapshot()->slots) {
    EXPECT_NE(f->summary(), nullptr);
  }
}

}  // namespace
}  // namespace upi::core
