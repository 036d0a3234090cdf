// Tests for the shared trie-index cache (db::IndexCache) and its threading
// through GenericJoin, Yannakakis and the acyclic enumerator: LRU /
// byte-accounting semantics, bit-identical warm-vs-cold evaluation at 1/2/8
// threads, eviction-pressure degradation, version-keyed invalidation on
// mutation, and safe sharing across concurrent evaluations.

#include <gtest/gtest.h>

#include <thread>

#include "core/context.h"
#include "db/enumeration.h"
#include "db/generic_join.h"
#include "db/hybrid_join.h"
#include "db/index_cache.h"
#include "db/joins.h"
#include "db/yannakakis.h"
#include "util/trace.h"

namespace qc::db {
namespace {

JoinQuery TriangleQuery() {
  JoinQuery q;
  q.Add("R1", {"a", "b"}).Add("R2", {"a", "c"}).Add("R3", {"b", "c"});
  return q;
}

Database TriangleDb() {
  Database db;
  db.SetRelation("R1", 2, {{0, 1}, {1, 2}, {2, 0}, {0, 2}, {1, 0}});
  db.SetRelation("R2", 2, {{0, 1}, {1, 2}, {2, 0}, {0, 2}, {2, 1}});
  db.SetRelation("R3", 2, {{0, 1}, {1, 2}, {2, 0}, {1, 0}, {2, 1}});
  return db;
}

/// Builder producing a synthetic entry with a fixed accounted size; counts
/// invocations so tests can tell build-from-scratch from cache hits.
std::function<IndexCache::Entry()> FixedSizeBuilder(std::size_t bytes,
                                                    int* invocations) {
  return [bytes, invocations]() {
    ++*invocations;
    IndexCache::Entry entry;
    entry.no_rows = true;
    entry.bytes = bytes;
    return entry;
  };
}

TEST(IndexCacheTest, HitMissAndLruEviction) {
  IndexCache cache(250);
  int builds = 0;
  auto build100 = FixedSizeBuilder(100, &builds);

  EXPECT_NE(cache.GetOrBuild("A", 1, "s", build100), nullptr);
  EXPECT_NE(cache.GetOrBuild("B", 1, "s", build100), nullptr);
  EXPECT_EQ(builds, 2);
  IndexCacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.bytes, 200u);

  // Hit on A refreshes its LRU position without building.
  EXPECT_NE(cache.GetOrBuild("A", 1, "s", build100), nullptr);
  EXPECT_EQ(builds, 2);
  EXPECT_EQ(cache.stats().hits, 1u);

  // C does not fit next to A+B: the least-recently-used entry (B) goes.
  EXPECT_NE(cache.GetOrBuild("C", 1, "s", build100), nullptr);
  s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.bytes, 200u);
  EXPECT_LE(s.bytes, s.capacity_bytes);

  // A survived (recently used): hit. B was evicted: rebuilt.
  EXPECT_NE(cache.GetOrBuild("A", 1, "s", build100), nullptr);
  EXPECT_EQ(builds, 3);
  cache.GetOrBuild("B", 1, "s", build100);
  EXPECT_EQ(builds, 4);

  // Distinct versions and signatures are distinct keys.
  cache.GetOrBuild("A", 2, "s", build100);
  cache.GetOrBuild("A", 2, "other", build100);
  EXPECT_EQ(builds, 6);
}

TEST(IndexCacheTest, OversizedEntryRejectedButUsable) {
  IndexCache cache(250);
  int builds = 0;
  IndexCache::EntryPtr big =
      cache.GetOrBuild("huge", 1, "s", FixedSizeBuilder(300, &builds));
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(big->bytes, 300u);  // The caller still gets a working entry.
  IndexCacheStats s = cache.stats();
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.bytes, 0u);
  // Every lookup rebuilds: the entry can never be resident.
  cache.GetOrBuild("huge", 1, "s", FixedSizeBuilder(300, &builds));
  EXPECT_EQ(builds, 2);
}

TEST(IndexCacheTest, ClearDropsEntriesKeepsCountersAndHandouts) {
  IndexCache cache(1 << 20);
  int builds = 0;
  IndexCache::EntryPtr held =
      cache.GetOrBuild("A", 1, "s", FixedSizeBuilder(100, &builds));
  cache.Clear();
  IndexCacheStats s = cache.stats();
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.bytes, 0u);
  EXPECT_EQ(s.misses, 1u);          // Counters survive Clear().
  EXPECT_EQ(held->bytes, 100u);     // In-flight handout stays valid.
  cache.GetOrBuild("A", 1, "s", FixedSizeBuilder(100, &builds));
  EXPECT_EQ(builds, 2);
}

TEST(IndexCacheTest, ExportCountersKindSplit) {
  IndexCache cache(1000);
  int builds = 0;
  cache.GetOrBuild("A", 1, "s", FixedSizeBuilder(100, &builds));
  cache.GetOrBuild("A", 1, "s", FixedSizeBuilder(100, &builds));
  util::Counters counters;
  cache.ExportCounters(&counters);
  EXPECT_EQ(counters.Get("index_cache.hits"), 1u);
  EXPECT_EQ(counters.Get("index_cache.misses"), 1u);
  EXPECT_EQ(counters.Get("index_cache.bytes"), 100u);
  EXPECT_EQ(counters.Get("index_cache.capacity_bytes"), 1000u);
  EXPECT_FALSE(counters.IsGauge("index_cache.hits"));
  EXPECT_TRUE(counters.IsGauge("index_cache.bytes"));
  EXPECT_TRUE(counters.IsGauge("index_cache.entries"));

  util::MetricsRegistry registry;
  cache.ExportMetrics(&registry);
  EXPECT_EQ(registry.Get("index_cache.misses"), 1u);
  EXPECT_EQ(registry.Get("index_cache.entries"), 1u);
}

/// Evaluate + stats via GenericJoin with the given thread count and cache.
JoinResult RunGenericJoin(const JoinQuery& q, const Database& db, int threads,
                          IndexCache* cache, GenericJoinStats* stats) {
  ExecutionContext ctx;
  ctx.threads = threads;
  ctx.index_cache = cache;
  GenericJoin join(q, db, ctx);
  JoinResult result = join.Evaluate();
  *stats = join.stats();
  return result;
}

TEST(WarmCacheTest, GenericJoinBitIdenticalAcrossCacheAndThreads) {
  JoinQuery q = TriangleQuery();
  Database db = TriangleDb();
  GenericJoinStats cold_stats;
  JoinResult cold = RunGenericJoin(q, db, 1, nullptr, &cold_stats);
  ASSERT_FALSE(cold.tuples.empty());

  IndexCache cache(8 << 20);
  for (int threads : {1, 2, 8}) {
    for (int round = 0; round < 2; ++round) {  // Round 0 primes, 1 is warm.
      GenericJoinStats stats;
      JoinResult warm = RunGenericJoin(q, db, threads, &cache, &stats);
      EXPECT_EQ(warm.tuples, cold.tuples)
          << "threads=" << threads << " round=" << round;
      EXPECT_EQ(warm.attributes, cold.attributes);
      EXPECT_EQ(stats.nodes, cold_stats.nodes);
      EXPECT_EQ(stats.probes, cold_stats.probes);
      EXPECT_EQ(stats.gallops, cold_stats.gallops);
    }
    GenericJoinStats stats;
    JoinResult nocache = RunGenericJoin(q, db, threads, nullptr, &stats);
    EXPECT_EQ(nocache.tuples, cold.tuples) << "threads=" << threads;
  }
  IndexCacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 3u);  // One build per atom, on the very first run only.
  EXPECT_EQ(s.hits, 3u * 5u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_LE(s.bytes, s.capacity_bytes);
}

TEST(WarmCacheTest, SelfJoinAtomsShareOneEntry) {
  // All three atoms project the same relation onto both columns in order:
  // one signature, one build, two in-construction hits.
  JoinQuery q;
  q.Add("E", {"a", "b"}).Add("E", {"b", "c"}).Add("E", {"a", "c"});
  Database db;
  db.SetRelation("E", 2, {{0, 1}, {1, 2}, {2, 0}, {0, 2}});
  IndexCache cache(8 << 20);
  GenericJoinStats stats;
  JoinResult warm = RunGenericJoin(q, db, 1, &cache, &stats);
  IndexCacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.entries, 1u);
  GenericJoinStats cold_stats;
  JoinResult cold = RunGenericJoin(q, db, 1, nullptr, &cold_stats);
  EXPECT_EQ(warm.tuples, cold.tuples);
}

TEST(WarmCacheTest, HybridLightPassReusesParentCacheEntries) {
  // The degree-split planner's cache seam: the light pass is one filtered
  // GenericJoin over the parent relations themselves, so a warm shared
  // cache serves its tries — hits go up, nothing new is built or stored.
  // Count has no dedup, so any multiply-counted light tuple would show.
  JoinQuery q = TriangleQuery();
  Database db = TriangleDb();
  IndexCache cache(8 << 20);
  GenericJoinStats stats;
  JoinResult reference = RunGenericJoin(q, db, 1, &cache, &stats);
  const IndexCacheStats warm = cache.stats();
  ASSERT_GT(warm.entries, 0u);

  ExecutionContext ctx;
  ctx.index_cache = &cache;
  HybridJoin hybrid(q, db, ctx, /*delta=*/1);
  ASSERT_FALSE(hybrid.plan().delegated);  // The split is real.
  EXPECT_EQ(hybrid.Evaluate().tuples, reference.tuples);
  HybridJoin counter(q, db, ctx, /*delta=*/1);
  EXPECT_EQ(counter.Count(), reference.tuples.size());
  EXPECT_EQ(counter.plan().light_tuples, 0u);  // Nothing copied.

  const IndexCacheStats after = cache.stats();
  EXPECT_EQ(after.entries, warm.entries);
  EXPECT_EQ(after.misses, warm.misses);
  EXPECT_GT(after.hits, warm.hits);

  // The warm entries still serve the parent query bit-identically.
  JoinResult again = RunGenericJoin(q, db, 1, &cache, &stats);
  EXPECT_EQ(again.tuples, reference.tuples);
  EXPECT_GT(cache.stats().hits, after.hits);
}

TEST(WarmCacheTest, BuildTrieSpanAbsentOnWarmHits) {
  JoinQuery q = TriangleQuery();
  Database db = TriangleDb();
  IndexCache cache(8 << 20);

  // Cold (priming) construction records per-build spans.
  util::Trace::Enable();
  {
    ExecutionContext ctx;
    ctx.index_cache = &cache;
    GenericJoin join(q, db, ctx);
  }
  util::TraceReport primed = util::Trace::Collect();
  util::Trace::Disable();
  const util::TraceNode* built = primed.root.Find("generic_join.build_trie");
  ASSERT_NE(built, nullptr);
  EXPECT_EQ(built->count, 3u);
  ASSERT_NE(primed.root.Find("index_cache.miss"), nullptr);

  // Warm construction: every atom hits; no build span at all.
  util::Trace::Enable();
  {
    ExecutionContext ctx;
    ctx.index_cache = &cache;
    GenericJoin join(q, db, ctx);
  }
  util::TraceReport warm = util::Trace::Collect();
  util::Trace::Disable();
  EXPECT_EQ(warm.root.Find("generic_join.build_trie"), nullptr);
  const util::TraceNode* hits = warm.root.Find("index_cache.hit");
  ASSERT_NE(hits, nullptr);
  EXPECT_EQ(hits->count, 3u);
}

TEST(WarmCacheTest, EvictionPressureDegradesToColdBuilds) {
  // Capacity far below one trie: every build is rejected, nothing is ever
  // resident, and answers still match the uncached run exactly.
  JoinQuery q = TriangleQuery();
  Database db = TriangleDb();
  GenericJoinStats cold_stats;
  JoinResult cold = RunGenericJoin(q, db, 1, nullptr, &cold_stats);

  IndexCache cache(1);
  for (int round = 0; round < 3; ++round) {
    GenericJoinStats stats;
    JoinResult r = RunGenericJoin(q, db, 1, &cache, &stats);
    EXPECT_EQ(r.tuples, cold.tuples) << "round=" << round;
    IndexCacheStats s = cache.stats();
    EXPECT_EQ(s.hits, 0u);
    EXPECT_EQ(s.entries, 0u);
    EXPECT_EQ(s.bytes, 0u);  // Cap never exceeded.
    EXPECT_EQ(s.rejected, 3u * (round + 1));
  }

  // A small cap between "nothing fits" and "everything fits": whatever mix
  // of evictions and rejections results, the byte accounting never exceeds
  // the cap and answers stay exact.
  IndexCache tight(700);
  for (int round = 0; round < 3; ++round) {
    GenericJoinStats stats;
    JoinResult r = RunGenericJoin(q, db, 1, &tight, &stats);
    EXPECT_EQ(r.tuples, cold.tuples);
    IndexCacheStats s = tight.stats();
    EXPECT_LE(s.bytes, s.capacity_bytes);
  }
}

TEST(WarmCacheTest, MutationBetweenEvaluationsInvalidates) {
  JoinQuery q = TriangleQuery();
  Database db = TriangleDb();
  IndexCache cache(8 << 20);
  GenericJoinStats stats;
  JoinResult before = RunGenericJoin(q, db, 1, &cache, &stats);
  EXPECT_EQ(cache.stats().misses, 3u);

  // Adding a tuple bumps R1's version: its old entry is stale by key, the
  // next evaluation rebuilds it (and only it) and sees the new tuple.
  ASSERT_TRUE(db.AddTuple("R1", {5, 6}));
  ASSERT_TRUE(db.AddTuple("R2", {5, 7}));
  ASSERT_TRUE(db.AddTuple("R3", {6, 7}));
  JoinResult after = RunGenericJoin(q, db, 1, &cache, &stats);
  EXPECT_EQ(cache.stats().misses, 6u);  // All three relations re-keyed.
  GenericJoinStats cold_stats;
  JoinResult cold = RunGenericJoin(q, db, 1, nullptr, &cold_stats);
  EXPECT_EQ(after.tuples, cold.tuples);
  EXPECT_GT(after.tuples.size(), before.tuples.size());

  // SetRelation invalidates the same way (single version-keyed path).
  ASSERT_TRUE(db.SetRelation("R1", 2, {{0, 1}}));
  JoinResult replaced = RunGenericJoin(q, db, 1, &cache, &stats);
  JoinResult replaced_cold = RunGenericJoin(q, db, 1, nullptr, &cold_stats);
  EXPECT_EQ(replaced.tuples, replaced_cold.tuples);
}

TEST(WarmCacheTest, YannakakisBitIdenticalWithCache) {
  JoinQuery q;  // Acyclic path query with a branch: R(a,b), S(b,c), T(b,d).
  q.Add("R", {"a", "b"}).Add("S", {"b", "c"}).Add("T", {"b", "d"});
  Database db;
  db.SetRelation("R", 2, {{0, 1}, {2, 1}, {3, 4}, {5, 6}});
  db.SetRelation("S", 2, {{1, 7}, {1, 8}, {4, 9}, {6, 2}});
  db.SetRelation("T", 2, {{1, 3}, {4, 4}, {2, 5}});
  JoinStats cold_stats;
  auto cold = EvaluateYannakakis(q, db, &cold_stats);
  ASSERT_TRUE(cold.has_value());
  ASSERT_FALSE(cold->tuples.empty());

  IndexCache cache(8 << 20);
  for (int round = 0; round < 2; ++round) {
    JoinStats stats;
    auto warm = EvaluateYannakakis(q, db, &stats, nullptr, &cache);
    ASSERT_TRUE(warm.has_value());
    EXPECT_EQ(warm->tuples, cold->tuples) << "round=" << round;
    EXPECT_EQ(warm->attributes, cold->attributes);
    EXPECT_EQ(stats.intermediate_tuples, cold_stats.intermediate_tuples);
    EXPECT_EQ(stats.probes, cold_stats.probes);
  }
  IndexCacheStats s = cache.stats();
  EXPECT_GT(s.hits, 0u);  // Round 2 reused the leaf key sets.
  EXPECT_LE(s.bytes, s.capacity_bytes);

  auto cold_bool = BooleanYannakakis(q, db);
  auto warm_bool = BooleanYannakakis(q, db, nullptr, &cache);
  ASSERT_TRUE(cold_bool.has_value());
  ASSERT_TRUE(warm_bool.has_value());
  EXPECT_EQ(*warm_bool, *cold_bool);
}

TEST(WarmCacheTest, EnumeratorBitIdenticalWithCache) {
  JoinQuery q;
  q.Add("R", {"a", "b"}).Add("S", {"b", "c"});
  Database db;
  db.SetRelation("R", 2, {{0, 1}, {2, 1}, {3, 4}, {0, 4}});
  db.SetRelation("S", 2, {{1, 7}, {1, 8}, {4, 9}});
  auto drain = [](AcyclicEnumerator& e) {
    std::vector<Tuple> out;
    while (auto t = e.Next()) out.push_back(*t);
    return out;
  };
  AcyclicEnumerator cold(q, db);
  ASSERT_TRUE(cold.IsValid());
  std::vector<Tuple> cold_answers = drain(cold);
  ASSERT_FALSE(cold_answers.empty());

  IndexCache cache(8 << 20);
  for (int round = 0; round < 2; ++round) {
    AcyclicEnumerator warm(q, db, nullptr, &cache);
    ASSERT_TRUE(warm.IsValid());
    EXPECT_EQ(drain(warm), cold_answers) << "round=" << round;
    EXPECT_EQ(warm.attributes(), cold.attributes());
  }
  EXPECT_GT(cache.stats().hits, 0u);
}

TEST(IndexCacheConcurrencyTest, SharedAcrossConcurrentEvaluations) {
  // Eight threads evaluate concurrently against one cache starting cold:
  // racing misses may build the same key twice, but every thread must get
  // the exact answer and the cache must stay within its cap. (TSan covers
  // the synchronization; this also runs under the tsan preset.)
  JoinQuery q = TriangleQuery();
  Database db = TriangleDb();
  GenericJoinStats cold_stats;
  JoinResult cold = RunGenericJoin(q, db, 1, nullptr, &cold_stats);

  IndexCache cache(8 << 20);
  std::vector<std::thread> threads;
  std::vector<int> ok(8, 0);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&q, &db, &cache, &cold, &ok, t]() {
      GenericJoinStats stats;
      JoinResult r = RunGenericJoin(q, db, 1, &cache, &stats);
      ok[t] = r.tuples == cold.tuples ? 1 : 0;
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < 8; ++t) EXPECT_EQ(ok[t], 1) << "thread " << t;
  IndexCacheStats s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, 8u * 3u);
  EXPECT_EQ(s.entries, 3u);
  EXPECT_LE(s.bytes, s.capacity_bytes);
}

}  // namespace
}  // namespace qc::db
