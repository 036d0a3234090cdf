// E20 — the degree-split hybrid MM/WCOJ planner (DESIGN.md §15): where does
// the blocked-Boolean-MM heavy core start beating the pure trie GenericJoin,
// and how much does the split cost when nothing is heavy? Hub graphs are the
// extreme yes-case (a dense quadratic core the MM route crushes), Zipf
// exponents sweep the skew axis, and a near-regular G(n, m) instance pins
// the all-light delegation overhead that the CI gate enforces.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "api/query_api.h"
#include "api/session_options.h"
#include "bench_util.h"
#include "core/autosolver.h"
#include "db/database.h"
#include "db/generic_join.h"
#include "db/hybrid_join.h"
#include "graph/generators.h"
#include "util/rng.h"
#include "util/run_report.h"
#include "util/timer.h"
#include "util/trace.h"

namespace {

using namespace qc;

db::JoinQuery TriangleQuery() {
  db::JoinQuery q;
  q.Add("E", {"a", "b"}).Add("E", {"a", "c"}).Add("E", {"b", "c"});
  return q;
}

db::JoinQuery FourCycleQuery() {
  db::JoinQuery q;
  q.Add("E", {"a", "b"}).Add("E", {"b", "c"}).Add("E", {"c", "d"}).Add(
      "E", {"a", "d"});
  return q;
}

db::JoinQuery FourCliqueQuery() {
  db::JoinQuery q;
  q.Add("E", {"a", "b"}).Add("E", {"a", "c"}).Add("E", {"a", "d"})
      .Add("E", {"b", "c"}).Add("E", {"b", "d"}).Add("E", {"c", "d"});
  return q;
}

/// Both orientations of every edge, so the pattern queries above see a
/// symmetric edge relation (same encoding the hybrid planner tests use).
db::Database EdgeDb(const graph::Graph& g) {
  db::FlatRelation edges(2);
  edges.Reserve(static_cast<std::size_t>(2 * g.num_edges()));
  for (const auto& [u, v] : g.Edges()) {
    db::Value row[2] = {u, v};
    edges.PushRow(row);
    row[0] = v;
    row[1] = u;
    edges.PushRow(row);
  }
  db::Database d;
  d.SetRelation("E", std::move(edges));
  return d;
}

struct TimedCount {
  std::uint64_t count = 0;
  double ms = 0;
};

TimedCount PureCount(const db::JoinQuery& q, const db::Database& d) {
  util::Timer timer;
  TimedCount r;
  r.count = db::GenericJoin(q, d).Count();
  r.ms = timer.Millis();
  return r;
}

/// Forced hybrid (delta = 0 means the planner's own sqrt(N) auto-pick).
TimedCount HybridCount(const db::JoinQuery& q, const db::Database& d,
                       std::int64_t delta, db::HybridPlan* plan_out) {
  util::Timer timer;
  TimedCount r;
  db::HybridJoin hybrid(q, d, ExecutionContext(), delta);
  r.count = hybrid.Count();
  r.ms = timer.Millis();
  if (plan_out != nullptr) *plan_out = hybrid.plan();
  return r;
}

/// Bit-identity: hybrid Evaluate at 1/2/8 threads must reproduce the pure
/// GenericJoin output exactly (same tuples, same order).
bool BitIdentical(const db::JoinQuery& q, const db::Database& d,
                  std::int64_t delta) {
  db::JoinResult ref = db::GenericJoin(q, d).Evaluate();
  for (int threads : {1, 2, 8}) {
    ExecutionContext ctx;
    ctx.threads = threads;
    db::HybridJoin hybrid(q, d, ctx, delta);
    db::JoinResult got = hybrid.Evaluate();
    if (got.tuples != ref.tuples) return false;
  }
  return true;
}

double BestOf(int reps, const db::JoinQuery& q, const db::Database& d,
              bool hybrid, std::int64_t delta) {
  double best = 0;
  for (int i = 0; i < reps; ++i) {
    double ms = hybrid ? HybridCount(q, d, delta, nullptr).ms
                       : PureCount(q, d).ms;
    if (i == 0 || ms < best) best = ms;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace qc;
  bench::JsonReport json(&argc, argv);
  const char* report_path = nullptr;
  bool check_light_overhead = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--report-json") == 0 && i + 1 < argc) {
      report_path = argv[i + 1];
      for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
      argc -= 2;
      --i;
    } else if (std::strcmp(argv[i], "--check-light-overhead") == 0) {
      check_light_overhead = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      argc -= 1;
      --i;
    }
  }
  if (report_path != nullptr) util::Trace::Enable();
  auto run_start = std::chrono::steady_clock::now();
  bench::Banner("E20: degree-split hybrid MM/WCOJ crossover",
                "on skewed instances the blocked-MM heavy core beats the "
                "pure trie GenericJoin; on near-regular instances the split "
                "delegates with bounded overhead");

  util::Rng rng(20);
  db::JoinQuery tri = TriangleQuery();
  db::JoinQuery cyc = FourCycleQuery();
  bool ok = true;
  db::HybridPlan last_plan;

  // --- 1. Triangle crossover on hub graphs: sweep the heavy-core size. ---
  std::printf("\n--- triangles on HubGraph(n=2000, hubs=H, periphery m=4000), "
              "auto delta ---\n");
  util::Table t1({"hubs", "m", "triangles", "pure ms", "auto ms",
                  "mm(d=1) ms", "best speedup", "heavy rows", "light rows"});
  double best_hub_speedup = 0;
  for (int hubs : {2, 4, 8, 16, 32, 64}) {
    graph::Graph g = graph::HubGraph(2000, hubs, 4000, &rng);
    db::Database d = EdgeDb(g);
    TimedCount pure = PureCount(tri, d);
    db::HybridPlan plan;
    TimedCount hyb = HybridCount(tri, d, 0, &plan);
    // Δ=1 pushes every value heavy: the pure blocked-MM route, the far end
    // of the frontier the delta sweep below maps.
    db::HybridPlan mm_plan;
    TimedCount mm = HybridCount(tri, d, 1, &mm_plan);
    if (pure.count != hyb.count || pure.count != mm.count) {
      std::fprintf(stderr, "COUNT MISMATCH hubs=%d pure=%llu hybrid=%llu "
                   "mm=%llu\n",
                   hubs, (unsigned long long)pure.count,
                   (unsigned long long)hyb.count,
                   (unsigned long long)mm.count);
      ok = false;
    }
    double best_ms = std::min(hyb.ms, mm.ms);
    double speedup = best_ms > 0 ? pure.ms / best_ms : 0;
    best_hub_speedup = std::max(best_hub_speedup, speedup);
    last_plan = plan;
    t1.AddRowOf(hubs, g.num_edges(), (unsigned long long)hyb.count, pure.ms,
                hyb.ms, mm.ms, speedup, (unsigned long long)plan.heavy_rows,
                (unsigned long long)plan.light_rows);
    json.Record("e20.triangle.hub.pure",
                {{"hubs", double(hubs)}, {"m", double(g.num_edges())}},
                pure.ms);
    json.Record("e20.triangle.hub.hybrid",
                {{"hubs", double(hubs)},
                 {"m", double(g.num_edges())},
                 {"delta", double(plan.threshold)}},
                hyb.ms);
    json.Record("e20.triangle.hub.hybrid_mm",
                {{"hubs", double(hubs)},
                 {"m", double(g.num_edges())},
                 {"delta", 1.0}},
                mm.ms);
  }
  t1.Print();
  std::printf("best hub-workload speedup: %.2fx (acceptance floor 1.5x)\n",
              best_hub_speedup);

  // --- 2. Delta frontier on one skewed instance: where does the split pay?
  std::printf("\n--- delta sweep, triangles on HubGraph(n=2000, hubs=32, "
              "m=4000) ---\n");
  {
    graph::Graph g = graph::HubGraph(2000, 32, 4000, &rng);
    db::Database d = EdgeDb(g);
    TimedCount pure = PureCount(tri, d);
    util::Table t2({"delta", "heavy values", "delegated", "hybrid ms",
                    "pure ms"});
    for (std::int64_t delta : {1, 4, 16, 64, 256, 1024, 8192}) {
      db::HybridPlan plan;
      TimedCount hyb = HybridCount(tri, d, delta, &plan);
      if (pure.count != hyb.count) {
        std::fprintf(stderr, "COUNT MISMATCH delta=%lld\n",
                     (long long)delta);
        ok = false;
      }
      t2.AddRowOf((long long)delta, (unsigned long long)plan.heavy_values,
                  plan.delegated ? "yes" : "no", hyb.ms, pure.ms);
      json.Record("e20.triangle.delta_sweep",
                  {{"delta", double(delta)},
                   {"heavy_values", double(plan.heavy_values)}},
                  hyb.ms);
    }
    t2.Print();
  }

  // --- 3. Zipf skew axis: the crossover as the tail fattens. ---
  std::printf("\n--- triangles on ZipfGraph(n=1500, m<=30000), exponent "
              "sweep, auto delta ---\n");
  util::Table t3({"exponent", "m", "triangles", "pure ms", "hybrid ms",
                  "speedup"});
  for (double exponent : {1.0, 1.5, 2.0}) {
    graph::Graph g = graph::ZipfGraph(1500, 30000, exponent, &rng);
    db::Database d = EdgeDb(g);
    TimedCount pure = PureCount(tri, d);
    db::HybridPlan plan;
    TimedCount hyb = HybridCount(tri, d, 0, &plan);
    if (pure.count != hyb.count) {
      std::fprintf(stderr, "COUNT MISMATCH zipf exponent=%.1f\n", exponent);
      ok = false;
    }
    double speedup = hyb.ms > 0 ? pure.ms / hyb.ms : 0;
    t3.AddRowOf(exponent, g.num_edges(), (unsigned long long)hyb.count,
                pure.ms, hyb.ms, speedup);
    json.Record("e20.triangle.zipf.pure",
                {{"exponent", exponent}, {"m", double(g.num_edges())}},
                pure.ms);
    json.Record("e20.triangle.zipf.hybrid",
                {{"exponent", exponent},
                 {"m", double(g.num_edges())},
                 {"delta", double(plan.threshold)}},
                hyb.ms);
  }
  t3.Print();

  // --- 4. 4-cycles, Count mode (the popcount path never materializes the
  // quadratically exploding output). ---
  std::printf("\n--- 4-cycles on HubGraph(n=400, hubs=H, m=1500), Count "
              "only, auto delta ---\n");
  util::Table t4({"hubs", "4-cycles", "pure ms", "hybrid ms", "speedup"});
  for (int hubs : {4, 8, 16}) {
    graph::Graph g = graph::HubGraph(400, hubs, 1500, &rng);
    db::Database d = EdgeDb(g);
    TimedCount pure = PureCount(cyc, d);
    db::HybridPlan plan;
    TimedCount hyb = HybridCount(cyc, d, 0, &plan);
    if (pure.count != hyb.count) {
      std::fprintf(stderr, "COUNT MISMATCH 4-cycle hubs=%d\n", hubs);
      ok = false;
    }
    double speedup = hyb.ms > 0 ? pure.ms / hyb.ms : 0;
    t4.AddRowOf(hubs, (unsigned long long)hyb.count, pure.ms, hyb.ms,
                speedup);
    json.Record("e20.fourcycle.hub.pure", {{"hubs", double(hubs)}}, pure.ms);
    json.Record("e20.fourcycle.hub.hybrid",
                {{"hubs", double(hubs)}, {"delta", double(plan.threshold)}},
                hyb.ms);
  }
  t4.Print();

  // --- 5. Bit-identity spot checks (small instances, full Evaluate). ---
  std::printf("\n--- bit-identity: hybrid Evaluate at 1/2/8 threads vs pure "
              "GenericJoin ---\n");
  {
    graph::Graph hub = graph::HubGraph(200, 6, 400, &rng);
    graph::Graph zipf = graph::ZipfGraph(120, 600, 1.5, &rng);
    db::Database dh = EdgeDb(hub);
    db::Database dz = EdgeDb(zipf);
    struct Check {
      const char* name;
      const db::JoinQuery* q;
      const db::Database* d;
      std::int64_t delta;
    };
    const Check checks[] = {
        {"triangle/hub/auto", &tri, &dh, 0},
        {"triangle/hub/delta=1", &tri, &dh, 1},
        {"triangle/zipf/auto", &tri, &dz, 0},
        {"4cycle/hub/auto", &cyc, &dh, 0},
        {"4cycle/zipf/delta=4", &cyc, &dz, 4},
    };
    for (const Check& c : checks) {
      bool same = BitIdentical(*c.q, *c.d, c.delta);
      std::printf("  %-24s %s\n", c.name, same ? "identical" : "MISMATCH");
      if (!same) ok = false;
    }
  }

  // --- 6. All-light overhead: near-regular G(n, m), auto delta finds no
  // heavy values, the planner delegates — the gate bounds the routing tax.
  std::printf("\n--- all-light delegation overhead on RandomGnm(2000, 6000) "
              "---\n");
  {
    graph::Graph g = graph::RandomGnm(2000, 6000, &rng);
    db::Database d = EdgeDb(g);
    db::HybridPlan plan;
    TimedCount probe = HybridCount(tri, d, 0, &plan);
    if (probe.count != PureCount(tri, d).count) ok = false;
    double pure_ms = BestOf(3, tri, d, /*hybrid=*/false, 0);
    double hyb_ms = BestOf(3, tri, d, /*hybrid=*/true, 0);
    double overhead = pure_ms > 0 ? (hyb_ms - pure_ms) / pure_ms * 100.0
                                  : 0.0;
    std::printf("delegated=%s  pure %.3f ms  hybrid %.3f ms  overhead "
                "%+.1f%% (CI gate: <= +10%%)\n",
                plan.delegated ? "yes" : "no", pure_ms, hyb_ms, overhead);
    json.Record("e20.light.overhead.pure", {{"m", double(g.num_edges())}},
                pure_ms);
    json.Record("e20.light.overhead.hybrid",
                {{"m", double(g.num_edges())}}, hyb_ms);
    if (check_light_overhead && hyb_ms > pure_ms * 1.10) {
      std::fprintf(stderr,
                   "LIGHT-OVERHEAD GATE FAILED: hybrid %.3f ms vs pure "
                   "%.3f ms (> +10%%)\n",
                   hyb_ms, pure_ms);
      ok = false;
    }
  }

  // --- 7. Routed: what a user of core::EvaluateQueryAuto (hybrid=auto)
  // gets, against the better of pure GenericJoin and the forced Δ=1 core.
  // Evaluate mode throughout, since the router materializes its answer, so
  // instances stay small enough to hold every row.
  std::printf("\n--- routed: core::EvaluateQueryAuto vs pure GenericJoin and "
              "mm (Δ=1), Evaluate, best of >= 5 interleaved rounds ---\n");
  {
    const db::JoinQuery clique = FourCliqueQuery();
    struct RoutedCase {
      std::string instance;
      const char* query;
      const db::JoinQuery* q;
      graph::Graph g;
    };
    std::vector<RoutedCase> cases;
    // The skewed-analytics shapes (perfbench/skewed_analytics.cc).
    graph::Graph h0 = graph::HubGraph(34, 17, 20, &rng);
    graph::Graph h1 = graph::HubGraph(60, 2, 120, &rng);
    cases.push_back({"hub(34,17,20)", "triangle", &tri, h0});
    cases.push_back({"hub(60,2,120)", "triangle", &tri, h1});
    cases.push_back({"hub(60,2,120)", "4-cycle", &cyc, h1});
    cases.push_back({"hub(60,2,120)", "4-clique", &clique, h1});
    cases.push_back({"zipf(4000,4000,1.0)", "triangle", &tri,
                     graph::ZipfGraph(4000, 4000, 1.0, &rng)});
    cases.push_back({"zipf(1500,2000,2.0)", "triangle", &tri,
                     graph::ZipfGraph(1500, 2000, 2.0, &rng)});
    for (int hubs : {2, 4, 8, 16}) {
      cases.push_back({"hub(2000," + std::to_string(hubs) + ",4000)",
                       "triangle", &tri,
                       graph::HubGraph(2000, hubs, 4000, &rng)});
    }
    cases.push_back({"zipf(1500,30000,1.5)", "triangle", &tri,
                     graph::ZipfGraph(1500, 30000, 1.5, &rng)});
    util::Table t7({"instance", "query", "rows", "pure ms", "mm ms",
                    "routed ms", "route", "within 10%"});
    for (const RoutedCase& c : cases) {
      db::Database d = EdgeDb(c.g);
      // Interleaved so the three columns share the machine's drift, in an
      // order that rotates each round so none always runs on the memory
      // the previous one just freed; at least 5 rounds and 150 ms, so
      // sub-ms rows get enough samples.
      std::size_t rows[3] = {0, 0, 0};
      double best_ms[3] = {0, 0, 0};
      double spent_ms = 0;
      core::SolveMethod method = core::SolveMethod::kGenericJoin;
      for (int round = 0; round < 100 && (round < 5 || spent_ms < 150);
           ++round) {
        for (int i = 0; i < 3; ++i) {
          const int column = (round + i) % 3;
          util::Timer timer;
          if (column == 0) {
            rows[0] = db::GenericJoin(*c.q, d).Evaluate().tuples.size();
          } else if (column == 1) {
            rows[1] = db::HybridJoin(*c.q, d, ExecutionContext(), 1)
                          .Evaluate()
                          .tuples.size();
          } else {
            core::AutoQueryResult r = core::EvaluateQueryAuto(*c.q, d);
            rows[2] = r.result.tuples.size();
            method = r.method;
          }
          const double ms = timer.Millis();
          best_ms[column] =
              round == 0 ? ms : std::min(best_ms[column], ms);
          spent_ms += ms;
        }
      }
      const std::size_t pure_rows = rows[0], mm_rows = rows[1],
                        routed_rows = rows[2];
      const double pure_ms = best_ms[0], mm_ms = best_ms[1],
                   routed_ms = best_ms[2];
      if (pure_rows != mm_rows || pure_rows != routed_rows) {
        std::fprintf(stderr, "ROW MISMATCH routed %s %s\n",
                     c.instance.c_str(), c.query);
        ok = false;
      }
      t7.AddRowOf(c.instance, c.query, (unsigned long long)pure_rows, pure_ms,
                  mm_ms, routed_ms, core::ToString(method).c_str(),
                  routed_ms <= 1.10 * std::min(pure_ms, mm_ms) ? "yes"
                                                               : "no");
      json.Record("e20.routed",
                  {{"rows", double(pure_rows)},
                   {"pure_ms", pure_ms},
                   {"mm_ms", mm_ms}},
                  routed_ms);
    }
    t7.Print();
  }

  // Emission through the shared api::FinishReport path: the planner section
  // carries the last hub-sweep plan, the trace carries the hybrid.* spans.
  api::SessionOptions report_opts;
  if (report_path != nullptr) report_opts.report_json = report_path;
  util::RunReport report;
  report.tool = "bench_e20_hybrid_join";
  report.status = util::RunStatus::kCompleted;
  report.threads = 1;
  report.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - run_start)
                       .count();
  api::FillPlannerSection(&report, last_plan);
  if (report_path != nullptr) {
    report.trace = util::Trace::Collect();
    util::Trace::Disable();
  }
  int rc = api::FinishReport(report_opts, report, report.status);
  return ok ? rc : 1;
}
