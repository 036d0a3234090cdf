#ifndef QC_CORE_CONTEXT_H_
#define QC_CORE_CONTEXT_H_

#include <cstdint>
#include <memory>

#include "util/budget.h"
#include "util/counters.h"
#include "util/threadpool.h"

namespace qc {

namespace db {
class IndexCache;  // core/context.h stays header-only below db/.
}  // namespace db

namespace util {
class Arena;  // forward-declared for the same header-only reason.
}  // namespace util

/// How the degree-split hybrid MM/WCOJ planner (db::HybridJoin) participates
/// in query routing. kAuto routes small-pattern queries through the hybrid
/// only when its heavy core answers the whole query at a cost the planner's
/// estimate favours; kOn forces the hybrid whenever the pattern applies;
/// kOff never routes through it.
enum class HybridMode {
  kAuto = 0,
  kOn,
  kOff,
};

/// One knob surface for every engine in the library.
///
/// Historically each entry point grew its own options struct
/// (`AnalyzerOptions`, `AutoSolverOptions`) and its own stats struct, which
/// left nowhere to hang cross-cutting execution concerns. ExecutionContext
/// folds them together: analysis/solver thresholds, the parallel runtime's
/// thread count, a cancellation budget, the RNG seed for randomized engines, and
/// an optional shared Counters sink every engine reports effort into.
///
/// Header-only and dependency-free below util/, so the db and csp layers can
/// accept it without linking core.
struct ExecutionContext {
  // -- analysis thresholds (field order is kept stable: existing call sites
  //    use designated initializers against the old AnalyzerOptions alias) --
  int exact_treewidth_below = 18;   ///< Use the 2^n DP up to this many vars.
  int core_computation_below = 12;  ///< Compute the core up to this size.

  // -- auto-solver thresholds (formerly AutoSolverOptions) --
  int treewidth_dp_max_width = 3;
  int max_schaefer_arity = 12;

  // -- execution runtime --
  /// Worker count for the parallel kernels; 0 defers to the QC_THREADS
  /// environment variable (default 1). All kernels produce bit-identical
  /// results at any thread count.
  int threads = 0;
  /// Seed for randomized engines (color coding, generators).
  std::uint64_t seed = 1;
  /// Optional effort sink; engines Add() their counters when non-null.
  util::Counters* counters = nullptr;
  /// Optional shared trie-index cache (db::IndexCache). When non-null,
  /// trie-based engines key their per-atom indexes by
  /// (relation, version, projection signature) and reuse warm entries
  /// instead of rebuilding; results stay bit-identical to cold runs. Safe
  /// to share across concurrent evaluations and contexts.
  db::IndexCache* index_cache = nullptr;
  /// Optional per-query scratch arena (util::Arena) for join-time
  /// allocations: leapfrog span buffers, trie-build scratch, enumerator
  /// frontiers. NOT thread-safe — single-threaded engines use it directly;
  /// parallel engines must give each worker its own arena and leave this
  /// one to the coordinating thread. Owners reset/destroy it after the
  /// query; engines never free individual allocations.
  util::Arena* arena = nullptr;

  // -- cancellation / resource budget --
  /// Output-row budget for row-producing engines (0 = unlimited); folded
  /// into ResolveBudget().
  std::uint64_t max_output_rows = 0;
  /// Work-step budget across engine safe points (0 = unlimited).
  std::uint64_t max_work_steps = 0;
  /// Shared budget for this run. When null, entry points resolve one from
  /// the knobs above via ResolveBudget(). Set it explicitly to share one
  /// budget across several calls, to impose a deadline
  /// (budget->ArmDeadlineAfter), or to cancel externally
  /// (budget->RequestCancel() from any thread). Engines poll it at safe
  /// points, unwind cleanly, and report how they ended through a
  /// util::RunStatus — never a wrong answer, only a truncated one that
  /// says so.
  std::shared_ptr<util::Budget> budget;

  int ResolvedThreads() const {
    return threads > 0 ? threads : util::ThreadPool::DefaultThreadCount();
  }

  /// The budget this run should observe: the explicit `budget` if set, else
  /// a fresh one armed from max_output_rows and max_work_steps. Entry
  /// points resolve once and hand the same Budget to every sub-engine and
  /// worker thread.
  std::shared_ptr<util::Budget> ResolveBudget() const {
    if (budget != nullptr) return budget;
    auto b = std::make_shared<util::Budget>();
    if (max_output_rows > 0) b->ArmRowLimit(max_output_rows);
    if (max_work_steps > 0) b->ArmWorkLimit(max_work_steps);
    return b;
  }

  void Count(std::string_view key, std::uint64_t delta) const {
    if (counters != nullptr) counters->Add(key, delta);
  }

  // -- hybrid MM/WCOJ planner (fields appended so existing designated
  //    initializers keep compiling) --
  /// Routing mode of the degree-split hybrid planner; see HybridMode.
  HybridMode hybrid_mode = HybridMode::kAuto;
  /// Degree threshold Δ override for the hybrid planner (0 = the planner's
  /// own pick, DESIGN.md §15).
  std::int64_t hybrid_delta = 0;
};

}  // namespace qc

#endif  // QC_CORE_CONTEXT_H_
