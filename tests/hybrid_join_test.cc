// Tests for the degree-split hybrid MM/WCOJ planner (db::HybridJoin,
// DESIGN.md §15): pattern detection, bit-identical equivalence against pure
// GenericJoin and the nested-loop reference on Zipf/hub-skewed instances
// across Δ ∈ {1, √m, m} at 1/2/8 threads, threshold policy, the all-light
// delegated fast path, budget partial-result semantics, and autosolver
// routing under --hybrid auto|on|off.

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/autosolver.h"
#include "core/context.h"
#include "db/database.h"
#include "db/generic_join.h"
#include "db/hybrid_join.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "gtest/gtest.h"
#include "util/budget.h"
#include "util/rng.h"

namespace qc::db {
namespace {

JoinQuery TriangleQuery() {
  JoinQuery q;
  q.Add("E", {"a", "b"}).Add("E", {"a", "c"}).Add("E", {"b", "c"});
  return q;
}

JoinQuery FourCycleQuery() {
  JoinQuery q;
  q.Add("E", {"a", "b"}).Add("E", {"b", "c"}).Add("E", {"c", "d"})
      .Add("E", {"a", "d"});
  return q;
}

JoinQuery FourCliqueQuery() {
  JoinQuery q;
  q.Add("E", {"a", "b"}).Add("E", {"a", "c"}).Add("E", {"a", "d"})
      .Add("E", {"b", "c"}).Add("E", {"b", "d"}).Add("E", {"c", "d"});
  return q;
}

JoinQuery FiveCliqueQuery() {
  JoinQuery q;
  const std::vector<std::string> v = {"a", "b", "c", "d", "e"};
  for (std::size_t i = 0; i < v.size(); ++i) {
    for (std::size_t j = i + 1; j < v.size(); ++j) {
      q.Add("E", {v[i], v[j]});
    }
  }
  return q;
}

/// Symmetric edge relation: both orientations of every edge, so pattern
/// queries over one relation see the undirected graph.
Database EdgeDb(const graph::Graph& g) {
  std::vector<Tuple> rows;
  rows.reserve(2 * g.Edges().size());
  for (const auto& [u, v] : g.Edges()) {
    rows.push_back({u, v});
    rows.push_back({v, u});
  }
  Database db;
  db.SetRelation("E", 2, std::move(rows));
  return db;
}

/// Pure GenericJoin reference, serial (its Evaluate output is the sorted
/// deduped answer in attribute order — the bit-identity baseline).
JoinResult GenericReference(const JoinQuery& q, const Database& db) {
  GenericJoin gj(q, db, ExecutionContext());
  return gj.Evaluate();
}

/// Hybrid vs GenericJoin at the given Δ and 1/2/8 threads: Evaluate output
/// bit-identical (same tuple vector), Count and IsEmpty agree.
void ExpectHybridMatchesGeneric(const JoinQuery& q, const Database& db,
                                std::int64_t delta) {
  const JoinResult reference = GenericReference(q, db);
  for (int threads : {1, 2, 8}) {
    ExecutionContext ctx;
    ctx.threads = threads;
    HybridJoin hybrid(q, db, ctx, delta);
    ASSERT_TRUE(hybrid.applicable());
    JoinResult result = hybrid.Evaluate();
    EXPECT_EQ(result.attributes, reference.attributes)
        << "delta=" << delta << " threads=" << threads;
    EXPECT_EQ(result.tuples, reference.tuples)
        << "delta=" << delta << " threads=" << threads;
    EXPECT_FALSE(result.truncated);

    HybridJoin counter(q, db, ctx, delta);
    EXPECT_EQ(counter.Count(), reference.tuples.size())
        << "delta=" << delta << " threads=" << threads;
    HybridJoin decider(q, db, ctx, delta);
    EXPECT_EQ(decider.IsEmpty(), reference.tuples.empty())
        << "delta=" << delta << " threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// Pattern detection

TEST(HybridJoinDetectTest, RecognizedPatterns) {
  EXPECT_EQ(DetectHybridPattern(TriangleQuery()), HybridPattern::kTriangle);
  EXPECT_EQ(DetectHybridPattern(FourCycleQuery()), HybridPattern::kFourCycle);
  EXPECT_EQ(DetectHybridPattern(FourCliqueQuery()),
            HybridPattern::kFourClique);
  EXPECT_EQ(DetectHybridPattern(FiveCliqueQuery()),
            HybridPattern::kFiveClique);
}

TEST(HybridJoinDetectTest, RejectsNonPatterns) {
  // Acyclic path: 4 attributes, 3 pairs.
  JoinQuery path;
  path.Add("E", {"a", "b"}).Add("E", {"b", "c"}).Add("E", {"c", "d"});
  EXPECT_EQ(DetectHybridPattern(path), HybridPattern::kNone);

  // Ternary atom.
  JoinQuery ternary;
  ternary.Add("R", {"a", "b", "c"}).Add("E", {"a", "b"}).Add("E", {"b", "c"});
  EXPECT_EQ(DetectHybridPattern(ternary), HybridPattern::kNone);

  // Repeated attribute pair (would double-count in the split).
  JoinQuery repeated;
  repeated.Add("E", {"a", "b"}).Add("F", {"a", "b"}).Add("E", {"b", "c"})
      .Add("E", {"a", "c"});
  EXPECT_EQ(DetectHybridPattern(repeated), HybridPattern::kNone);

  // Triangle plus pendant: 4 attributes, 4 pairs, but degree-1 attribute d.
  JoinQuery pendant;
  pendant.Add("E", {"a", "b"}).Add("E", {"b", "c"}).Add("E", {"a", "c"})
      .Add("E", {"c", "d"});
  EXPECT_EQ(DetectHybridPattern(pendant), HybridPattern::kNone);

  // Within-atom repeated attribute.
  JoinQuery selfpair;
  selfpair.Add("E", {"a", "a"}).Add("E", {"a", "b"}).Add("E", {"a", "c"});
  EXPECT_EQ(DetectHybridPattern(selfpair), HybridPattern::kNone);
}

TEST(HybridJoinDetectTest, MissingRelationFallsBackToNone) {
  Database db;
  db.SetRelation("E", 2, {{0, 1}});
  JoinQuery q;
  q.Add("E", {"a", "b"}).Add("Missing", {"a", "c"}).Add("E", {"b", "c"});
  HybridJoin hybrid(q, db);
  EXPECT_FALSE(hybrid.applicable());
  EXPECT_TRUE(hybrid.Evaluate().tuples.empty());
  EXPECT_EQ(hybrid.Count(), 0u);
  EXPECT_TRUE(hybrid.IsEmpty());
}

// ---------------------------------------------------------------------------
// Threshold policy

TEST(HybridJoinPlanTest, AutoThresholdIsSqrtOfLargestAtom) {
  util::Rng rng(7);
  graph::Graph g = graph::RandomGnm(40, 50, &rng);
  Database db = EdgeDb(g);  // 100 projected rows.
  JoinQuery q = TriangleQuery();  // Must outlive the planner.
  HybridJoin hybrid(q, db);
  EXPECT_EQ(hybrid.plan().threshold, 10);
  EXPECT_FALSE(hybrid.plan().threshold_overridden);
}

TEST(HybridJoinPlanTest, ExplicitDeltaOverrides) {
  util::Rng rng(7);
  Database db = EdgeDb(graph::RandomGnm(40, 50, &rng));
  JoinQuery q = TriangleQuery();
  HybridJoin hybrid(q, db, ExecutionContext(), 7);
  EXPECT_EQ(hybrid.plan().threshold, 7);
  EXPECT_TRUE(hybrid.plan().threshold_overridden);

  ExecutionContext ctx;
  ctx.hybrid_delta = 3;
  HybridJoin from_ctx(q, db, ctx);
  EXPECT_EQ(from_ctx.plan().threshold, 3);
  EXPECT_TRUE(from_ctx.plan().threshold_overridden);
}

TEST(HybridJoinPlanTest, AllLightInstanceDelegates) {
  util::Rng rng(9);
  Database db = EdgeDb(graph::RandomGnm(50, 80, &rng));
  // Δ = number of rows: no value can exceed it, so nothing is heavy.
  JoinQuery q = TriangleQuery();
  HybridJoin hybrid(q, db, ExecutionContext(), 160);
  EXPECT_TRUE(hybrid.plan().delegated);
  EXPECT_EQ(hybrid.plan().heavy_values, 0u);
  EXPECT_FALSE(hybrid.ProfitableUnderAuto());
  JoinResult reference = GenericReference(q, db);
  EXPECT_EQ(hybrid.Evaluate().tuples, reference.tuples);
}

TEST(HybridJoinPlanTest, AllHeavyInstanceIsAnsweredByTheCoreAlone) {
  // K6: every vertex has degree 5 > Δ = 1, so every column is all-heavy and
  // no result tuple has a light attribute — the heavy core produces every
  // row and the light pass contributes none.
  Database db = EdgeDb(graph::Complete(6));
  JoinQuery q = TriangleQuery();
  HybridJoin hybrid(q, db, ExecutionContext(), 1);
  ASSERT_FALSE(hybrid.plan().delegated);
  const JoinResult reference = GenericReference(q, db);
  EXPECT_EQ(hybrid.Evaluate().tuples, reference.tuples);
  EXPECT_EQ(hybrid.plan().light_rows, 0u);
  EXPECT_EQ(hybrid.plan().heavy_rows, reference.tuples.size());
  ExpectHybridMatchesGeneric(q, db, 1);
  ExpectHybridMatchesGeneric(FourCliqueQuery(), db, 1);
}

TEST(HybridJoinPlanTest, EmptyRelationDelegatesAndMatches) {
  Database db;
  db.SetRelation("E", 2, std::vector<Tuple>{});
  JoinQuery q = TriangleQuery();
  HybridJoin hybrid(q, db);
  EXPECT_TRUE(hybrid.applicable());
  EXPECT_TRUE(hybrid.plan().delegated);
  EXPECT_TRUE(hybrid.Evaluate().tuples.empty());
  EXPECT_TRUE(hybrid.IsEmpty());
}

// ---------------------------------------------------------------------------
// Equivalence: hybrid vs GenericJoin vs nested-loop reference on skewed
// instances, across the Δ sweep and thread counts (the tsan preset runs
// these suites at QC_THREADS=8).

TEST(HybridJoinEquivalenceTest, NestedLoopReferenceOnSmallZipf) {
  // Scalar enumeration cross-check, kept small so the nested loop stays
  // cheap; the wide sweep below uses GenericJoin as the reference.
  for (double exponent : {1.0, 1.5, 2.0}) {
    util::Rng rng(29);
    graph::Graph g = graph::ZipfGraph(24, 40, exponent, &rng);
    Database db = EdgeDb(g);
    JoinQuery q = TriangleQuery();
    JoinResult reference = EvaluateNestedLoop(q, db);
    reference.Normalize();
    JoinResult generic = GenericReference(q, db);
    EXPECT_EQ(generic.tuples, reference.tuples) << "exponent=" << exponent;
    for (std::int64_t delta : {1, 7, 80}) {
      HybridJoin hybrid(q, db, ExecutionContext(), delta);
      EXPECT_EQ(hybrid.Evaluate().tuples, reference.tuples)
          << "exponent=" << exponent << " delta=" << delta;
    }
  }
}

TEST(HybridJoinEquivalenceTest, TriangleOnZipfSweep) {
  for (double exponent : {1.0, 1.5, 2.0}) {
    for (std::uint64_t seed : {1, 2, 3}) {
      util::Rng rng(seed);
      graph::Graph g = graph::ZipfGraph(60, 200, exponent, &rng);
      Database db = EdgeDb(g);
      const std::int64_t m = 2 * g.num_edges();
      const auto sqrt_m =
          static_cast<std::int64_t>(std::sqrt(static_cast<double>(m)));
      for (std::int64_t delta : {std::int64_t{1}, sqrt_m, m}) {
        ExpectHybridMatchesGeneric(TriangleQuery(), db, delta);
      }
    }
  }
}

TEST(HybridJoinEquivalenceTest, FourCycleOnZipfSweep) {
  for (double exponent : {1.0, 1.5, 2.0}) {
    for (std::uint64_t seed : {1, 2, 3}) {
      util::Rng rng(seed);
      graph::Graph g = graph::ZipfGraph(50, 120, exponent, &rng);
      Database db = EdgeDb(g);
      const std::int64_t m = 2 * g.num_edges();
      const auto sqrt_m =
          static_cast<std::int64_t>(std::sqrt(static_cast<double>(m)));
      for (std::int64_t delta : {std::int64_t{1}, sqrt_m, m}) {
        ExpectHybridMatchesGeneric(FourCycleQuery(), db, delta);
      }
    }
  }
}

TEST(HybridJoinEquivalenceTest, TriangleAndFourCycleOnHubGraph) {
  util::Rng rng(5);
  graph::Graph g = graph::HubGraph(80, 4, 60, &rng);
  Database db = EdgeDb(g);
  for (std::int64_t delta : {1, 8, 1000}) {
    ExpectHybridMatchesGeneric(TriangleQuery(), db, delta);
    ExpectHybridMatchesGeneric(FourCycleQuery(), db, delta);
  }
}

TEST(HybridJoinEquivalenceTest, CliquesOnSkewedGraphs) {
  util::Rng rng(13);
  graph::Graph g = graph::HubGraph(40, 5, 40, &rng);
  Database db = EdgeDb(g);
  for (std::int64_t delta : {1, 6, 500}) {
    ExpectHybridMatchesGeneric(FourCliqueQuery(), db, delta);
    ExpectHybridMatchesGeneric(FiveCliqueQuery(), db, delta);
  }
}

TEST(HybridJoinEquivalenceTest, MultiRelationTriangle) {
  // Distinct relations per atom, different contents: the split must track
  // per-atom columns, not just one edge relation.
  util::Rng rng(17);
  Database db;
  for (const char* name : {"R1", "R2", "R3"}) {
    std::vector<Tuple> rows;
    for (int i = 0; i < 150; ++i) {
      rows.push_back({static_cast<Value>(rng.NextBounded(25)),
                      static_cast<Value>(rng.NextBounded(25))});
    }
    db.SetRelation(name, 2, std::move(rows));
  }
  JoinQuery q;
  q.Add("R1", {"a", "b"}).Add("R2", {"a", "c"}).Add("R3", {"b", "c"});
  for (std::int64_t delta : {1, 5, 12, 300}) {
    ExpectHybridMatchesGeneric(q, db, delta);
  }
}

TEST(HybridJoinEquivalenceTest, ExtremeValuesSpanningFullInt64Range) {
  // A column holding both INT64_MIN and INT64_MAX spans 2^64 - 1 values: the
  // degree count must take its hash path, not size a dense array from a
  // wrapped range.
  const Value lo = std::numeric_limits<Value>::min();
  const Value hi = std::numeric_limits<Value>::max();
  Database db;
  db.SetRelation("E", 2,
                 {{lo, hi}, {hi, lo}, {lo, 0}, {0, lo}, {hi, 0}, {0, hi}});
  JoinQuery q = TriangleQuery();
  ASSERT_EQ(GenericReference(q, db).tuples.size(), 6u);
  for (std::int64_t delta : {0, 1}) {  // 0 = auto √N.
    HybridJoin hybrid(q, db, ExecutionContext(), delta);
    EXPECT_EQ(hybrid.Count(), 6u) << "delta=" << delta;
    ExpectHybridMatchesGeneric(q, db, delta);
  }
}

// ---------------------------------------------------------------------------
// Budget semantics

TEST(HybridJoinBudgetTest, RowLimitYieldsExactSubset) {
  util::Rng rng(21);
  graph::Graph g = graph::HubGraph(60, 4, 40, &rng);
  Database db = EdgeDb(g);
  JoinQuery q = TriangleQuery();
  const JoinResult full = GenericReference(q, db);
  ASSERT_GT(full.tuples.size(), 10u);

  ExecutionContext ctx;
  ctx.budget = std::make_shared<util::Budget>();
  ctx.budget->ArmRowLimit(10);
  HybridJoin hybrid(q, db, ctx, 1);
  JoinResult partial = hybrid.Evaluate();
  EXPECT_TRUE(partial.truncated);
  EXPECT_EQ(hybrid.status(), util::RunStatus::kBudgetExhausted);
  // Charge-after-materialize: exactly row_limit rows land at the limit.
  EXPECT_EQ(partial.tuples.size(), 10u);
  // A subset of the true answer (NOT necessarily a lexicographic prefix —
  // phases complete in partition order).
  for (const Tuple& t : partial.tuples) {
    EXPECT_TRUE(std::binary_search(full.tuples.begin(), full.tuples.end(), t));
  }
}

TEST(HybridJoinBudgetTest, PreCancelledReturnsPromptly) {
  util::Rng rng(23);
  Database db = EdgeDb(graph::HubGraph(60, 4, 40, &rng));
  JoinQuery q = TriangleQuery();
  ExecutionContext ctx;
  ctx.budget = std::make_shared<util::Budget>();
  ctx.budget->RequestCancel();
  HybridJoin hybrid(q, db, ctx, 1);
  JoinResult partial = hybrid.Evaluate();
  EXPECT_TRUE(partial.truncated);
  EXPECT_EQ(hybrid.status(), util::RunStatus::kCancelled);

  HybridJoin decider(q, db, ctx, 1);
  EXPECT_TRUE(decider.IsEmpty());  // "Empty" here means Unknown:
  EXPECT_EQ(decider.status(), util::RunStatus::kCancelled);
}

TEST(HybridJoinBudgetTest, ArmedUntrippedBudgetIsBitIdentical) {
  util::Rng rng(25);
  Database db = EdgeDb(graph::ZipfGraph(50, 150, 1.5, &rng));
  JoinQuery q = TriangleQuery();
  const JoinResult reference = GenericReference(q, db);
  ExecutionContext ctx;
  ctx.budget = std::make_shared<util::Budget>();
  ctx.budget->ArmRowLimit(1u << 30);
  ctx.budget->ArmDeadlineAfter(3600.0);
  HybridJoin hybrid(q, db, ctx, 4);
  JoinResult result = hybrid.Evaluate();
  EXPECT_FALSE(result.truncated);
  EXPECT_EQ(result.tuples, reference.tuples);
}

// ---------------------------------------------------------------------------
// Autosolver routing

TEST(HybridJoinRoutingTest, OnForcesHybridAndMatchesOff) {
  util::Rng rng(31);
  Database db = EdgeDb(graph::ZipfGraph(50, 150, 1.5, &rng));
  JoinQuery q = TriangleQuery();

  ExecutionContext off;
  off.hybrid_mode = HybridMode::kOff;
  core::AutoQueryResult base = core::EvaluateQueryAuto(q, db, off);
  EXPECT_EQ(base.method, core::SolveMethod::kGenericJoin);
  EXPECT_EQ(base.plan.pattern, HybridPattern::kNone);  // Planner never ran.

  ExecutionContext on;
  on.hybrid_mode = HybridMode::kOn;
  core::AutoQueryResult forced = core::EvaluateQueryAuto(q, db, on);
  EXPECT_EQ(forced.method, core::SolveMethod::kHybridJoin);
  EXPECT_EQ(forced.plan.pattern, HybridPattern::kTriangle);
  EXPECT_EQ(forced.result.tuples, base.result.tuples);
}

TEST(HybridJoinRoutingTest, AutoRejectionStillRecordsPlan) {
  // Tiny instance: the heavy core can't clear the profitability bar, so
  // auto mode falls through to GenericJoin — but the decision record shows
  // the planner looked.
  Database db;
  db.SetRelation("E", 2, {{0, 1}, {1, 2}, {0, 2}, {1, 0}, {2, 1}, {2, 0}});
  core::AutoQueryResult r =
      core::EvaluateQueryAuto(TriangleQuery(), db, ExecutionContext());
  EXPECT_EQ(r.method, core::SolveMethod::kGenericJoin);
  EXPECT_EQ(r.plan.pattern, HybridPattern::kTriangle);
}

TEST(HybridJoinRoutingTest, AcyclicQueryStaysWithYannakakis) {
  Database db;
  db.SetRelation("E", 2, {{0, 1}, {1, 2}});
  JoinQuery path;
  path.Add("E", {"a", "b"}).Add("E", {"b", "c"});
  ExecutionContext on;
  on.hybrid_mode = HybridMode::kOn;
  core::AutoQueryResult r = core::EvaluateQueryAuto(path, db, on);
  EXPECT_EQ(r.method, core::SolveMethod::kYannakakis);
}

}  // namespace
}  // namespace qc::db
