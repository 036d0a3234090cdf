// Tests for the parallel execution runtime: ThreadPool semantics, the
// unified Counters/ExecutionContext surface, and — the load-bearing
// guarantee — bit-identical results between serial and parallel runs of
// every parallelized kernel (BoolMatrix::Multiply, GenericJoin,
// ExactTreewidth, color coding) at 1, 2, and 8 threads.

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/context.h"
#include "db/agm.h"
#include "db/generic_join.h"
#include "graph/boolmatrix.h"
#include "graph/colorcoding.h"
#include "graph/graph.h"
#include "graph/treewidth.h"
#include "kernels/dispatch.h"
#include "util/counters.h"
#include "util/rng.h"
#include "util/threadpool.h"

namespace qc {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  util::ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(0, 1000, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, EmptyAndSingletonRanges) {
  util::ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(5, 5, [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int> sum(0);
  pool.ParallelFor(41, 42, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) sum.fetch_add(static_cast<int>(i));
  });
  EXPECT_EQ(sum.load(), 41);
}

TEST(ThreadPoolTest, ExceptionsPropagateToCaller) {
  util::ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(0, 100,
                       [&](std::int64_t lo, std::int64_t) {
                         if (lo >= 0) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // The pool stays usable after an exception.
  std::atomic<int> sum(0);
  pool.ParallelFor(0, 10, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) sum.fetch_add(1);
  });
  EXPECT_EQ(sum.load(), 10);
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  util::ThreadPool pool(2);
  std::atomic<int> total(0);
  pool.ParallelFor(0, 4, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      pool.ParallelFor(0, 8, [&](std::int64_t ilo, std::int64_t ihi) {
        for (std::int64_t j = ilo; j < ihi; ++j) total.fetch_add(1);
      });
    }
  });
  EXPECT_EQ(total.load(), 4 * 8);
}

TEST(ThreadPoolTest, SubmitRunsTask) {
  util::ThreadPool pool(2);
  std::atomic<int> ran(0);
  auto f1 = pool.Submit([&] { ran.fetch_add(1); });
  auto f2 = pool.Submit([&] { ran.fetch_add(10); });
  f1.get();
  f2.get();
  EXPECT_EQ(ran.load(), 11);
}

TEST(ThreadPoolTest, DefaultThreadCountIsPositive) {
  EXPECT_GE(util::ThreadPool::DefaultThreadCount(), 1);
  EXPECT_GE(util::ThreadPool::HardwareThreads(), 1);
}

// ---------------------------------------------------------------------------
// Counters / ExecutionContext

TEST(CountersTest, AddGetMergeToString) {
  util::Counters c;
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(c.Get("missing"), 0u);
  c.Add("a.x", 2);
  c.Add("a.x", 3);
  c.Set("b.y", 7);
  EXPECT_EQ(c.Get("a.x"), 5u);
  EXPECT_EQ(c.Get("b.y"), 7u);
  util::Counters d;
  d.Add("a.x", 10);
  d.Add("c.z", 1);
  c.Merge(d);
  EXPECT_EQ(c.Get("a.x"), 15u);
  EXPECT_EQ(c.Get("c.z"), 1u);
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.ToString(), "a.x=15\nb.y=7\nc.z=1");
}

TEST(ExecutionContextTest, CountIsNullSafeAndRoutesToSink) {
  ExecutionContext ctx;
  ctx.Count("k", 3);  // No sink: must not crash.
  util::Counters sink;
  ctx.counters = &sink;
  ctx.Count("k", 3);
  ctx.Count("k", 4);
  EXPECT_EQ(sink.Get("k"), 7u);
  EXPECT_GE(ctx.ResolvedThreads(), 1);
  ctx.threads = 5;
  EXPECT_EQ(ctx.ResolvedThreads(), 5);
}

// ---------------------------------------------------------------------------
// BoolMatrix determinism

TEST(ParallelDeterminismTest, BoolMatrixMultiplyBitIdentical) {
  util::Rng rng(42);
  const int n = 257;  // Deliberately not a multiple of the word size.
  graph::BoolMatrix a(n, n), b(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (rng.NextBounded(4) == 0) a.Set(i, j);
      if (rng.NextBounded(4) == 0) b.Set(i, j);
    }
  }
  graph::BoolMatrix serial = a.Multiply(b, 1);
  for (int threads : {2, 8}) {
    graph::BoolMatrix parallel = a.Multiply(b, threads);
    ASSERT_EQ(parallel.rows(), serial.rows());
    ASSERT_EQ(parallel.cols(), serial.cols());
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        ASSERT_EQ(parallel.Test(i, j), serial.Test(i, j))
            << "threads=" << threads << " at (" << i << "," << j << ")";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// GenericJoin determinism

db::GenericJoin MakeJoin(const db::JoinQuery& q, const db::Database& d,
                         int threads) {
  ExecutionContext ctx;
  ctx.threads = threads;
  return db::GenericJoin(q, d, ctx);
}

class GenericJoinDeterminismTest : public ::testing::TestWithParam<int> {};

TEST_P(GenericJoinDeterminismTest, ParallelMatchesSerialBitForBit) {
  util::Rng rng(9100 + GetParam());
  db::JoinQuery q = db::RandomBinaryQuery(3 + GetParam() % 3, 4, &rng);
  db::Database d = db::RandomDatabase(q, 20, 5, &rng);

  db::GenericJoin serial = MakeJoin(q, d, 1);
  db::JoinResult reference = serial.Evaluate();
  std::uint64_t ref_count = MakeJoin(q, d, 1).Count();
  bool ref_empty = MakeJoin(q, d, 1).IsEmpty();
  EXPECT_EQ(ref_count, reference.tuples.size());
  EXPECT_EQ(ref_empty, reference.tuples.empty());

  for (int threads : {2, 8}) {
    db::GenericJoin gj = MakeJoin(q, d, threads);
    db::JoinResult out = gj.Evaluate();
    // Bit-identical: same attribute schema, same tuples in the same order.
    EXPECT_EQ(out.attributes, reference.attributes);
    ASSERT_EQ(out.tuples, reference.tuples) << "threads=" << threads;
    // Full traversals also reproduce the serial effort exactly.
    EXPECT_EQ(gj.stats().nodes, serial.stats().nodes);
    EXPECT_EQ(gj.stats().probes, serial.stats().probes);
    EXPECT_EQ(MakeJoin(q, d, threads).Count(), ref_count);
    EXPECT_EQ(MakeJoin(q, d, threads).IsEmpty(), ref_empty);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GenericJoinDeterminismTest,
                         ::testing::Range(0, 12));

TEST(GenericJoinDeterminismTest, AcyclicQueriesAndCustomOrder) {
  for (int seed = 0; seed < 6; ++seed) {
    util::Rng rng(9300 + seed);
    db::JoinQuery q = db::RandomAcyclicQuery(2 + seed % 4, 3, &rng);
    db::Database d = db::RandomDatabase(q, 15, 4, &rng);
    db::JoinResult reference = MakeJoin(q, d, 1).Evaluate();
    db::JoinResult parallel = MakeJoin(q, d, 8).Evaluate();
    ASSERT_EQ(parallel.tuples, reference.tuples) << "seed " << seed;
  }
}

TEST(GenericJoinDeterminismTest, CountersExportedThroughContext) {
  util::Rng rng(9400);
  db::JoinQuery q = db::RandomBinaryQuery(3, 4, &rng);
  db::Database d = db::RandomDatabase(q, 20, 5, &rng);
  util::Counters sink;
  ExecutionContext ctx;
  ctx.threads = 2;
  ctx.counters = &sink;
  db::GenericJoin gj(q, d, ctx);
  gj.Evaluate();
  EXPECT_EQ(sink.Get("generic_join.nodes"), gj.stats().nodes);
  EXPECT_EQ(sink.Get("generic_join.probes"), gj.stats().probes);
  EXPECT_GT(gj.stats().nodes, 0u);
}

TEST(GenericJoinDeterminismTest, LeafFilterKeepsExactlyAcceptedBindings) {
  // The leaf filter drops complete bindings before they are emitted,
  // counted, or charged: every entry point must agree with the filtered
  // reference at any thread count and SIMD level, and a row limit R must
  // still yield R kept rows.
  db::JoinQuery q;
  q.Add("R", {"a", "b"}).Add("S", {"b", "c"}).Add("T", {"a", "c"});
  util::Rng rng(9500);
  db::Database d = db::RandomDatabase(q, 60, 8, &rng);
  auto keep = [](const db::Tuple& t) { return (t[0] + t[2]) % 2 == 0; };
  std::vector<db::Tuple> reference;
  for (const db::Tuple& t : MakeJoin(q, d, 1).Evaluate().tuples) {
    if (keep(t)) reference.push_back(t);
  }
  ASSERT_GE(reference.size(), 8u);
  const std::size_t limit = reference.size() / 2;

  const kernels::SimdLevel native = kernels::ActiveSimdLevel();
  for (kernels::SimdLevel level :
       {kernels::BestSupportedSimdLevel(), kernels::SimdLevel::kScalar}) {
    kernels::ForceSimdLevel(level);
    for (int threads : {1, 2, 8}) {
      SCOPED_TRACE(std::string(kernels::SimdLevelName(level)) +
                   " threads=" + std::to_string(threads));
      db::GenericJoin gj = MakeJoin(q, d, threads);
      gj.SetLeafFilter(keep);
      db::JoinResult out = gj.Evaluate();
      EXPECT_EQ(out.tuples, reference);
      EXPECT_FALSE(out.truncated);
      db::GenericJoin counter = MakeJoin(q, d, threads);
      counter.SetLeafFilter(keep);
      EXPECT_EQ(counter.Count(), reference.size());
      db::GenericJoin decider = MakeJoin(q, d, threads);
      decider.SetLeafFilter(keep);
      EXPECT_FALSE(decider.IsEmpty());
      db::GenericJoin none = MakeJoin(q, d, threads);
      none.SetLeafFilter([](const db::Tuple&) { return false; });
      EXPECT_TRUE(none.IsEmpty());
      EXPECT_EQ(none.status(), util::RunStatus::kCompleted);

      ExecutionContext ctx;
      ctx.threads = threads;
      ctx.max_output_rows = limit;
      db::GenericJoin limited(q, d, ctx);
      limited.SetLeafFilter(keep);
      db::JoinResult partial = limited.Evaluate();
      EXPECT_TRUE(partial.truncated);
      ASSERT_EQ(partial.tuples.size(), limit);
      for (const db::Tuple& t : partial.tuples) {
        EXPECT_TRUE(
            std::binary_search(reference.begin(), reference.end(), t));
      }
    }
  }
  kernels::ForceSimdLevel(native);
}

// ---------------------------------------------------------------------------
// ExactTreewidth determinism (per-component DP)

TEST(ParallelDeterminismTest, ExactTreewidthPerComponentMatchesSerial) {
  // Three components: a 4-clique, a 6-cycle, and a path.
  graph::Graph g(13);
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) g.AddEdge(i, j);
  }
  for (int i = 0; i < 6; ++i) g.AddEdge(4 + i, 4 + (i + 1) % 6);
  g.AddEdge(10, 11);
  g.AddEdge(11, 12);

  auto serial = graph::ExactTreewidth(g, 24, 1);
  EXPECT_EQ(serial.treewidth, 3);  // The 4-clique dominates.
  EXPECT_GT(serial.dp_states, 0u);
  for (int threads : {2, 8}) {
    auto parallel = graph::ExactTreewidth(g, 24, threads);
    EXPECT_EQ(parallel.treewidth, serial.treewidth);
    EXPECT_EQ(parallel.elimination_order, serial.elimination_order);
    EXPECT_EQ(parallel.dp_states, serial.dp_states);
  }
}

TEST(ParallelDeterminismTest, ExactTreewidthComponentsLiftSizeLimit) {
  // Two 15-vertex paths: 30 vertices total exceeds the old monolithic 2^n
  // limit, but each component is small, so the per-component DP handles it.
  graph::Graph g(30);
  for (int i = 0; i + 1 < 15; ++i) {
    g.AddEdge(i, i + 1);
    g.AddEdge(15 + i, 15 + i + 1);
  }
  auto r = graph::ExactTreewidth(g, 15);
  EXPECT_EQ(r.treewidth, 1);
  EXPECT_EQ(static_cast<int>(r.elimination_order.size()), 30);
}

// ---------------------------------------------------------------------------
// Color coding determinism

TEST(ParallelDeterminismTest, ColorCodingIdenticalResultAndRngState) {
  util::Rng graph_rng(77);
  graph::Graph g(24);
  for (int i = 0; i < 24; ++i) {
    for (int j = i + 1; j < 24; ++j) {
      if (graph_rng.NextBounded(5) == 0) g.AddEdge(i, j);
    }
  }
  for (int k : {4, 6}) {
    util::Rng rng_serial(123);
    util::Rng rng_parallel(123);
    auto serial = graph::FindKPathColorCoding(g, k, &rng_serial, 0, 1);
    auto parallel = graph::FindKPathColorCoding(g, k, &rng_parallel, 0, 4);
    ASSERT_EQ(serial.has_value(), parallel.has_value()) << "k=" << k;
    if (serial.has_value()) {
      EXPECT_EQ(*parallel, *serial);
      EXPECT_TRUE(graph::IsSimplePath(g, *parallel));
    }
    // Both runs must consume the caller's generator identically.
    EXPECT_EQ(rng_serial.Next(), rng_parallel.Next());
  }
}

}  // namespace
}  // namespace qc
