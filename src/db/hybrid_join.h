#ifndef QC_DB_HYBRID_JOIN_H_
#define QC_DB_HYBRID_JOIN_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/context.h"
#include "db/database.h"
#include "graph/boolmatrix.h"
#include "util/budget.h"

namespace qc::db {

/// Small join patterns the degree-split hybrid planner recognizes: every
/// atom must be binary over two distinct attributes, no attribute pair may
/// repeat, and the pair graph must be one of the shapes below (the cyclic
/// core of Fan–Koutris's fine-grained taxonomy, where the MM route of
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
  bool threshold_overridden = false;  ///< Δ came from the caller, not √N.
  std::uint64_t heavy_values = 0;     ///< Heavy (attribute, value) pairs.
  std::uint64_t heavy_tuples = 0;     ///< Atom tuples with both ends heavy.
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
/// it more than Δ times (Δ defaults to max(1, √N) over the largest atom —
/// the AGM-style balance point — and the same `deg > Δ` predicate is used
/// everywhere, so Δ-boundary values are always light, exactly like the AYZ
/// triangle split in graph/triangles.cc). Result tuples split into two
/// disjoint parts. The light part — every tuple with at least one light
/// attribute — is one trie/leapfrog GenericJoin over the original query and
/// database whose leaf filter drops the complete bindings that are heavy in
/// every attribute. The all-heavy core is evaluated on bit-packed BoolMatrix
/// rows — a blocked Boolean product over the kernels' word-OR path prunes
/// the candidate pairs, then word-AND row intersections enumerate
/// witnesses. Count sums the parts, and Evaluate merges the sorted light
/// output with the sorted core, reproducing GenericJoin's output
/// bit-identically at any thread count and any QC_SIMD level. When no value
/// is heavy the plan is `delegated`: the same light pass runs unfiltered and
/// there is no heavy phase.
///
/// Cache seam: the light pass evaluates the parent relations themselves, so
/// with ctx.index_cache set its tries are the shared, version-keyed entries
/// any other GenericJoin over those relations uses — there are no
/// planner-private relations that could alias or pollute them.
///
/// Budget: both phases observe the budget resolved from `ctx` (the light
/// pass through GenericJoin's per-node poll, the heavy phase per MM row,
/// per candidate tuple, and per emitted row). Partial-result semantics on a
/// trip: Evaluate returns a subset of the answer with `truncated = true` —
/// unlike pure GenericJoin the subset is NOT a lexicographic prefix, because
/// the light pass completes before the heavy core. Count returns a partial
/// undercount; IsEmpty's "empty" is only trustworthy when
/// status() == kCompleted.
///
/// `query` and `db` must outlive the planner (the light pass re-reads them
/// at evaluation time).
class HybridJoin {
 public:
  HybridJoin(const JoinQuery& query, const Database& db,
             const ExecutionContext& ctx = ExecutionContext(),
             std::int64_t delta = 0);

  /// False when the query is not one of the supported patterns; every
  /// evaluation entry point then returns an empty/zero result — callers
  /// check applicable() first (core::EvaluateQueryAuto does).
  bool applicable() const { return plan_.pattern != HybridPattern::kNone; }

  /// Auto-mode profitability: the pattern applies, some values are heavy,
  /// and the heavy core is dense enough (average heavy degree clears the
  /// word-parallel break-even) that the MM route should beat running the
  /// whole instance through the trie engine.
  bool ProfitableUnderAuto() const;

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

  /// One atom projected onto its (sorted-by-global-index) attribute pair.
  struct PatternAtom {
    int u = 0;  ///< Smaller global attribute index.
    int v = 0;  ///< Larger global attribute index.
    /// Heavy-restricted tuples as dense (H_u, H_v) index pairs, row order.
    std::vector<std::pair<int, int>> heavy_pairs;
    graph::BoolMatrix fwd;  ///< |H_u| x |H_v| heavy bi-adjacency.
    graph::BoolMatrix rev;  ///< Transpose of fwd.
  };

  /// Heavy value domain of one attribute.
  struct HeavyDomain {
    std::vector<Value> values;             ///< Sorted heavy values.
    std::unordered_map<Value, int> index;  ///< value -> dense id.
    bool IsHeavy(Value value) const { return index.count(value) != 0; }
  };

  void BuildPartition(const Database& db, std::int64_t delta_override);
  /// Oriented heavy matrix for ordered attribute pair (i, j): rows over
  /// H_i, columns over H_j. The pair must be an atom of the pattern.
  const graph::BoolMatrix& Mat(int i, int j) const;
  const PatternAtom& AtomOf(int i, int j) const;

  /// Runs one full evaluation; exactly one of out/count/found is used,
  /// matching `mode`.
  void RunLight(Mode mode, std::vector<Tuple>* out, std::uint64_t* count,
                bool* found);
  void RunHeavy(Mode mode, std::vector<Tuple>* out, std::uint64_t* count,
                bool* found);
  void HeavyTriangle(Mode mode, std::vector<Tuple>* out, std::uint64_t* count,
                     bool* found);
  void HeavyFourCycle(Mode mode, std::vector<Tuple>* out, std::uint64_t* count,
                      bool* found);
  void HeavyClique(Mode mode, std::vector<Tuple>* out, std::uint64_t* count,
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
  /// Every attribute has a column of only over-Δ values, so no result
  /// tuple has a light attribute: RunLight has nothing to find.
  bool light_empty_ = false;
  std::array<int, 4> cycle_{};      ///< 4-cycle attr order (c0..c3).
};

}  // namespace qc::db

#endif  // QC_DB_HYBRID_JOIN_H_
