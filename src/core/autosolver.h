#ifndef QC_CORE_AUTOSOLVER_H_
#define QC_CORE_AUTOSOLVER_H_

#include <string>

#include "core/context.h"
#include "csp/solver.h"
#include "csp/treedp.h"
#include "db/database.h"
#include "db/hybrid_join.h"

namespace qc::core {

/// Which engine the auto-router picked.
enum class SolveMethod {
  kSchaefer,     ///< Boolean domain, tractable Schaefer class.
  kTreewidthDp,  ///< Small-width primal graph (Theorem 4.2).
  kBacktracking, ///< General search.
  kYannakakis,   ///< Acyclic join query.
  kGenericJoin,  ///< Worst-case-optimal join (Theorem 3.3).
  kHybridJoin,   ///< Degree-split MM/WCOJ hybrid (DESIGN.md §15).
};

std::string ToString(SolveMethod method);

struct AutoCspResult {
  bool satisfiable = false;
  std::vector<int> assignment;
  SolveMethod method = SolveMethod::kBacktracking;
  /// How the routed engine ended. On anything but kCompleted,
  /// `satisfiable == false` means *Unknown*, not unsatisfiable.
  util::RunStatus status = util::RunStatus::kCompleted;
};

/// Deprecated alias: auto-solver thresholds now live on qc::ExecutionContext
/// (which adds thread count, cancellation budget, seed, and a stats sink).
using AutoSolverOptions = ExecutionContext;

/// Routes a CSP instance to the cheapest applicable engine, in the order the
/// paper's upper-bound results suggest: Schaefer's dichotomy dispatcher for
/// Boolean domains in a tractable class, Freuder's DP for small treewidth,
/// and backtracking search otherwise. Engine effort is reported into
/// ctx.counters ("treedp.table_entries", "backtracking.nodes", ...). The
/// budget resolved from ctx is threaded into whichever engine runs; a trip
/// surfaces in AutoCspResult::status.
AutoCspResult SolveCspAuto(const csp::CspInstance& csp,
                           const ExecutionContext& ctx = ExecutionContext());

struct AutoQueryResult {
  db::JoinResult result;
  SolveMethod method = SolveMethod::kGenericJoin;
  /// How the routed engine ended. On anything but kCompleted,
  /// `result.truncated` is set and `result.tuples` is a subset of the
  /// answer.
  util::RunStatus status = util::RunStatus::kCompleted;
  /// Degree-split decision record when the hybrid planner examined the
  /// query (pattern != kNone). Populated on the kHybridJoin route and on
  /// auto-mode rejections (so reports can show *why* the trie engine ran).
  db::HybridPlan plan;
};

/// Routes a join query: Yannakakis when alpha-acyclic; otherwise the
/// degree-split hybrid planner when ctx.hybrid_mode admits it (kOn whenever
/// the small-pattern shape matches, kAuto additionally requiring a
/// profitable heavy core); Generic Join for everything else. ctx.threads
/// (or QC_THREADS) parallelizes the Generic Join path; effort counters land
/// in ctx.counters. All engines observe the budget resolved from ctx; a
/// trip surfaces in AutoQueryResult::status and `result.truncated`.
AutoQueryResult EvaluateQueryAuto(const db::JoinQuery& query,
                                  const db::Database& db,
                                  const ExecutionContext& ctx =
                                      ExecutionContext());

}  // namespace qc::core

#endif  // QC_CORE_AUTOSOLVER_H_
