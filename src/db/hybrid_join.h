#ifndef QC_DB_HYBRID_JOIN_H_
#define QC_DB_HYBRID_JOIN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/context.h"
#include "db/database.h"
#include "graph/boolmatrix.h"
#include "util/budget.h"

namespace qc::db {

/// Small join patterns the degree-split hybrid planner recognizes: every
/// atom must have exactly two attributes, which must differ, no attribute
/// pair may repeat, and the pair graph must be one of the shapes below (the
/// cyclic core of Fan–Koutris's fine-grained taxonomy, where the MM route of
/// Abo Khamis–Hu–Suciu beats the submodular-width bound on skewed inputs).
/// Everything else is kNone and stays with the caller's usual engine.
enum class HybridPattern {
  kNone = 0,
  kTriangle,    ///< 3 attributes, all 3 pairs.
  kFourCycle,   ///< 4 attributes, 4 pairs forming a cycle.
  kFourClique,  ///< 4 attributes, all 6 pairs.
  kFiveClique,  ///< 5 attributes, all 10 pairs.
};

std::string ToString(HybridPattern pattern);

/// Classifies `query`, returning kNone when the planner does not apply.
/// Purely structural and cheap — safe to call on every routed query.
HybridPattern DetectHybridPattern(const JoinQuery& query);

/// What the planner decided and how much each phase saw. Surfaced as the
/// RunReport "planner" section and the "hybrid.*" counters.
struct HybridPlan {
  HybridPattern pattern = HybridPattern::kNone;
  std::int64_t threshold = 0;         ///< Resolved degree threshold Δ.
  bool threshold_overridden = false;  ///< Δ came from the caller.
  std::uint64_t heavy_values = 0;     ///< Heavy (attribute, value) pairs.
  /// Distinct atom tuples with both ends heavy; counted when the heavy core
  /// is first built, so 0 until a run needs it.
  std::uint64_t heavy_tuples = 0;
  /// Atom tuples copied for the light phase: always 0, since the light
  /// pass reads the parent relations' (cached) tries directly.
  std::uint64_t light_tuples = 0;
  std::uint64_t heavy_rows = 0;       ///< Result rows from the heavy phase.
  std::uint64_t light_rows = 0;       ///< Result rows from the light phase.
  /// True when no value was heavy: the whole run was one pure GenericJoin
  /// over the original instance (the all-light fast path).
  bool delegated = false;
};

/// Degree-splitting hybrid MM/WCOJ join (DESIGN.md §15).
///
/// A value is HEAVY for attribute X iff some atom column holding X contains
/// it more than Δ times, counted over the atom's raw rows; the same
/// `deg > Δ` predicate is used everywhere, so Δ-boundary values are light,
/// exactly like the AYZ triangle split in graph/triangles.cc. Result tuples
/// split into two disjoint parts. The light part — every tuple with at
/// least one light attribute — is one trie/leapfrog GenericJoin over the
/// original query and database whose leaf filter drops the complete
/// bindings that are heavy in every attribute. The all-heavy core is one
/// bitset descent over bit-packed heavy bi-adjacencies: attributes bind in
/// attribute_order() over dense heavy ids, each candidate set is the
/// word-AND of the rows of the already-bound neighbours, and the last level
/// is emitted, popcounted, or tested for emptiness. Heavy ids increase with
/// value, so the core comes out in GenericJoin's order; Count sums the
/// parts and Evaluate merges them only when the light pass found rows,
/// reproducing GenericJoin's output bit-identically at any thread count and
/// any QC_SIMD level. When no value is heavy the plan is `delegated`: the
/// light pass runs unfiltered and there is no heavy phase.
///
/// Choosing Δ: the constructor makes one counting pass over the atoms' raw
/// columns and nothing more — the core's matrices are built on the first
/// run that needs them. From that pass comes Δ* — the largest Δ at which
/// every attribute has a column whose values all occur more than Δ times.
/// At any Δ ≤ Δ* no result tuple can have a light attribute, so the light
/// pass is provably empty and skipped. Without a caller override, Δ is Δ*
/// when Δ* ≥ 1 and a cost estimate favours the core (word-ANDs of ⌈H/64⌉
/// words per atom row against a GenericJoin intersection of
/// min(deg u, deg v) per atom row), and max(1, √N) over the largest atom
/// otherwise.
///
/// Cache seam: the light pass evaluates the parent relations themselves, so
/// with ctx.index_cache set its tries are the shared, version-keyed entries
/// any other GenericJoin over those relations uses — there are no
/// planner-private relations that could alias or pollute them.
///
/// Budget: both phases observe the budget resolved from `ctx` (the light
/// pass through GenericJoin's per-node poll, the heavy descent per bound
/// inner node and per emitted row). On a trip Evaluate returns a subset of
/// the answer with `truncated = true`; when the light pass is empty that
/// subset is a prefix of GenericJoin's output, otherwise the light pass
/// completes before the core and the subset is not a prefix. Count returns
/// a partial undercount; IsEmpty's "empty" is only trustworthy when
/// status() == kCompleted.
///
/// `query` and `db` must outlive the planner (both phases re-read them at
/// evaluation time).
class HybridJoin {
 public:
  HybridJoin(const JoinQuery& query, const Database& db,
             const ExecutionContext& ctx = ExecutionContext(),
             std::int64_t delta = 0);

  /// False when the query is not one of the supported patterns; every
  /// evaluation entry point then returns an empty/zero result — callers
  /// check applicable() first (core::EvaluateQueryAuto does).
  bool applicable() const { return plan_.pattern != HybridPattern::kNone; }

  /// Auto-mode profitability: the heavy core answers the whole query (the
  /// light pass is provably empty at the resolved Δ), the instance clears a
  /// small-size floor, and the cost estimate favours the core over
  /// GenericJoin.
  bool ProfitableUnderAuto() const {
    return applicable() && !plan_.delegated && light_empty_ && core_favoured_;
  }

  JoinResult Evaluate();
  std::uint64_t Count();
  bool IsEmpty();

  const HybridPlan& plan() const { return plan_; }
  util::RunStatus status() const { return run_status_; }
  const std::vector<std::string>& attribute_order() const {
    return attribute_order_;
  }

 private:
  enum class Mode { kEvaluate, kCount, kIsEmpty };

  /// One atom over its attribute pair, oriented by global attribute index.
  struct PatternAtom {
    int u = 0;      ///< Smaller global attribute index.
    int v = 0;      ///< Larger global attribute index.
    int col_u = 0;  ///< Raw column of the atom's relation holding u.
    graph::BoolMatrix fwd;  ///< |H_u| x |H_v| heavy bi-adjacency (lazy).
  };

  /// Heavy value domain of one attribute; the dense id of a value is its
  /// rank, so ids increase with value.
  struct HeavyDomain {
    std::vector<Value> values;  ///< Sorted heavy values.
    /// Dense id of `value`, or -1 when it is light.
    int IdOf(Value value) const;
    bool IsHeavy(Value value) const { return IdOf(value) >= 0; }
  };

  void DegreePass(std::int64_t delta_override);
  /// Builds every atom's `fwd` from its raw rows on first use.
  void BuildCore();

  /// Runs one phase; exactly one of out/count/found is used, matching
  /// `mode`.
  void RunLight(Mode mode, std::vector<Tuple>* out, std::uint64_t* count,
                bool* found);
  void RunHeavy(Mode mode, std::vector<Tuple>* out, std::uint64_t* count,
                bool* found);

  bool Stopped() const { return budget_ != nullptr && budget_->Stopped(); }

  const JoinQuery& query_;
  const Database& db_;
  ExecutionContext ctx_;
  std::shared_ptr<util::Budget> budget_;
  std::vector<std::string> attribute_order_;
  HybridPlan plan_;
  util::RunStatus run_status_ = util::RunStatus::kCompleted;

  std::vector<PatternAtom> atoms_;
  std::vector<HeavyDomain> heavy_;  ///< One per global attribute.
  /// Δ ≤ Δ*: every attribute has a column of only over-Δ values, so no
  /// result tuple has a light attribute and RunLight has nothing to find.
  bool light_empty_ = false;
  /// The cost estimate (with its size floor) favours the core at Δ.
  bool core_favoured_ = false;
  bool core_built_ = false;
};

}  // namespace qc::db

#endif  // QC_DB_HYBRID_JOIN_H_
