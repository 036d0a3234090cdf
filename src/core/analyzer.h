#ifndef QC_CORE_ANALYZER_H_
#define QC_CORE_ANALYZER_H_

#include <string>
#include <vector>

#include "core/context.h"
#include "csp/csp.h"
#include "db/database.h"
#include "util/budget.h"
#include "util/counters.h"
#include "util/fraction.h"

namespace qc::core {

/// A conditional lower-bound certificate: the assumption, the theorem in
/// Marx (PODS 2021) it comes from, and the concrete consequence for this
/// instance's structure.
struct LowerBoundCertificate {
  std::string assumption;  ///< "unconditional", "ETH", "SETH", "FPT!=W[1]",
                           ///< "k-clique conjecture", "hyperclique conj.".
  std::string theorem;     ///< E.g. "Theorem 6.5".
  std::string statement;   ///< Human-readable consequence.
};

/// Structural complexity report for a query/CSP: every quantity the paper's
/// upper and lower bounds are stated against, plus the matching certificates
/// and an algorithm recommendation.
struct Analysis {
  int num_variables = 0;  ///< Attributes / variables.
  int num_constraints = 0;

  bool acyclic = false;           ///< Alpha-acyclic hypergraph.
  int treewidth = -1;             ///< Of the primal graph.
  bool treewidth_exact = false;   ///< Exact DP vs heuristic upper bound.
  int core_universe_size = -1;    ///< Size of the structure's core
                                  ///< (-1 if skipped: too large).
  int core_treewidth = -1;        ///< Treewidth of the core (Theorem 5.3).
  util::Fraction rho_star;        ///< Fractional edge cover number.
  bool rho_star_valid = false;
  util::Fraction fhw_upper;       ///< Heuristic fractional hypertree width.
  bool fhw_valid = false;

  std::string recommended_algorithm;
  std::vector<LowerBoundCertificate> lower_bounds;

  /// Unified effort counters recorded while analyzing (treewidth DP states,
  /// core computation, ...), included in ToString(). Also merged into
  /// ExecutionContext::counters when a sink is set.
  util::Counters counters;

  /// How the analysis run ended. On anything but kCompleted the exact
  /// measures degraded to heuristic bounds (treewidth_exact = false, core
  /// skipped) — the report is still well-formed, just coarser.
  util::RunStatus status = util::RunStatus::kCompleted;

  /// AGM output-size bound N^{rho*}.
  double AgmBound(double n) const;

  /// Multi-line human-readable report.
  std::string ToString() const;
};

/// Deprecated alias: analyzer thresholds now live on qc::ExecutionContext
/// (which adds thread count, cancellation budget, seed, and a stats sink).
using AnalyzerOptions = ExecutionContext;

/// Analyzes a join query's structure (Sections 3-8 applied to one query).
/// Honors ctx.threads for the exact treewidth DP and observes the budget
/// resolved from ctx (deadline, work limit, cancellation): when it trips,
/// the analysis degrades gracefully from exact to heuristic measures
/// (treewidth_exact = false, core skipped) and reports the cause in
/// Analysis::status.
Analysis AnalyzeQuery(const db::JoinQuery& query,
                      const ExecutionContext& ctx = ExecutionContext());

/// Analyzes a CSP instance (same metrics over its hypergraph).
Analysis AnalyzeCsp(const csp::CspInstance& csp,
                    const ExecutionContext& ctx = ExecutionContext());

}  // namespace qc::core

#endif  // QC_CORE_ANALYZER_H_
