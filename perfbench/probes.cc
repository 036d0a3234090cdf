// Per-layer probes: each times a layer's public entry points from the
// benchmark's own code, in the order the program's router calls them. No
// probe adds tracing inside the program; the one exception is the existing
// process-global util::Trace, switched on around a single hybrid evaluation
// to split its heavy and light phases.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <vector>

#include "bench.h"
#include "core/context.h"
#include "db/generic_join.h"
#include "db/hybrid_join.h"
#include "db/parser.h"
#include "db/yannakakis.h"
#include "kernels/boolmm.h"
#include "kernels/intersect.h"
#include "kernels/sort.h"
#include "util/rng.h"
#include "util/trace.h"

namespace qc::perfbench {

namespace {

double SpanMs(const util::TraceReport& report, const char* path) {
  const util::TraceNode* node = report.root.Find(path);
  return node == nullptr ? 0.0 : static_cast<double>(node->total_ns) / 1e6;
}

/// Runs `body` until at least `min_ms` have passed; returns ns per call.
template <class Body>
double NsPerCall(double min_ms, Body&& body) {
  std::size_t calls = 0;
  const Clock::time_point start = Clock::now();
  double elapsed = 0;
  do {
    body();
    ++calls;
    elapsed = MsSince(start);
  } while (elapsed < min_ms);
  return elapsed * 1e6 / static_cast<double>(calls);
}

volatile std::uint64_t g_sink = 0;

}  // namespace

RouteProbe ProbeRoute(const std::string& query_text, const db::Database& db,
                      db::IndexCache* mirror, int threads) {
  RouteProbe p;
  Clock::time_point t = Clock::now();
  auto parsed = db::ParseJoinQuery(query_text);
  p.parse_us = UsSince(t);
  p.critical_ms = p.parse_us / 1000;
  if (!parsed) return p;
  const db::JoinQuery& query = *parsed;

  ExecutionContext ctx;
  ctx.threads = threads;
  ctx.index_cache = mirror;

  if (db::IsAcyclicQuery(query)) {
    t = Clock::now();
    auto result = db::EvaluateYannakakis(query, db, nullptr, nullptr, mirror);
    p.yannakakis_ms = MsSince(t);
    p.method = "yannakakis";
    p.rows = result ? result->tuples.size() : 0;
    p.critical_ms += p.yannakakis_ms;
    return p;
  }

  if (db::DetectHybridPattern(query) != db::HybridPattern::kNone) {
    p.hybrid_considered = true;
    t = Clock::now();
    db::HybridJoin hybrid(query, db, ctx);
    p.hybrid_plan_ms = MsSince(t);
    p.critical_ms += p.hybrid_plan_ms;
    p.hybrid_delegated = hybrid.plan().delegated;
    p.hybrid_heavy_values = hybrid.plan().heavy_values;
    if (hybrid.applicable() && hybrid.ProfitableUnderAuto()) {
      util::Trace::Enable();
      t = Clock::now();
      db::JoinResult result = hybrid.Evaluate();
      p.hybrid_eval_ms = MsSince(t);
      util::TraceReport spans = util::Trace::Collect();
      util::Trace::Disable();
      p.hybrid_heavy_ms = SpanMs(spans, "hybrid.heavy");
      p.hybrid_light_ms = SpanMs(spans, "hybrid.light");
      p.hybrid_light_tuples = hybrid.plan().light_tuples;
      p.method = "hybrid";
      p.rows = result.tuples.size();
      p.critical_ms += p.hybrid_eval_ms;
      return p;
    }
  }

  ExecutionContext cold = ctx;
  cold.index_cache = nullptr;
  t = Clock::now();
  auto build = std::make_unique<db::GenericJoin>(query, db, cold);
  p.gj_build_ms = MsSince(t);
  build.reset();

  const std::uint64_t misses_before =
      mirror != nullptr ? mirror->stats().misses : 0;
  t = Clock::now();
  db::GenericJoin join(query, db, ctx);
  p.gj_ctor_ms = MsSince(t);
  if (mirror != nullptr) p.cache_misses = mirror->stats().misses - misses_before;
  t = Clock::now();
  db::JoinResult result = join.Evaluate();
  p.gj_search_ms = MsSince(t);
  p.gj_probes = join.stats().probes;
  p.gj_simd_blocks = join.stats().simd_blocks;
  p.rows = result.tuples.size();
  p.method = "generic_join";
  p.critical_ms += p.gj_ctor_ms + p.gj_search_ms;
  return p;
}

void AddRouteMetrics(const std::vector<RouteProbe>& probes, Result* r) {
  std::vector<double> parse, yannakakis, plan, eval, heavy, light;
  std::vector<double> light_tuples, build, search, cache_build;
  double probe_sum = 0, row_sum = 0, simd = 0, considered = 0, delegated = 0;
  for (const RouteProbe& p : probes) {
    parse.push_back(p.parse_us);
    if (p.method == "yannakakis") yannakakis.push_back(p.yannakakis_ms);
    if (p.hybrid_considered) {
      plan.push_back(p.hybrid_plan_ms);
      ++considered;
      if (p.hybrid_delegated) ++delegated;
    }
    if (p.method == "hybrid") {
      eval.push_back(p.hybrid_eval_ms);
      heavy.push_back(p.hybrid_heavy_ms);
      light.push_back(p.hybrid_light_ms);
      light_tuples.push_back(static_cast<double>(p.hybrid_light_tuples));
    }
    if (p.method == "generic_join") {
      build.push_back(p.gj_build_ms);
      search.push_back(p.gj_search_ms);
      probe_sum += static_cast<double>(p.gj_probes);
      row_sum += static_cast<double>(p.rows);
      simd += static_cast<double>(p.gj_simd_blocks);
      if (p.cache_misses > 0) {
        cache_build.push_back(p.gj_ctor_ms /
                              static_cast<double>(p.cache_misses));
      }
    }
  }
  r->Add("api.parse_us", Median(parse), "us");
  r->Add("index_cache.build_ms.p50", Median(cache_build), "ms");
  r->Add("generic_join.build_ms", Mean(build), "ms");
  r->Add("generic_join.search_ms", Mean(search), "ms");
  r->Add("generic_join.probes_per_row", probe_sum / std::max(1.0, row_sum),
         "ratio");
  r->Add("generic_join.simd_blocks", simd, "count");
  r->Add("yannakakis.ms", Mean(yannakakis), "ms");
  r->Add("hybrid.plan_ms", Mean(plan), "ms");
  r->Add("hybrid.eval_ms", Mean(eval), "ms");
  r->Add("hybrid.heavy_ms", Mean(heavy), "ms");
  r->Add("hybrid.light_ms", Mean(light), "ms");
  r->Add("hybrid.light_tuples_copied", Mean(light_tuples), "count");
  r->Add("hybrid.delegated_share",
         considered > 0 ? delegated / considered : 0.0, "ratio");
}

void AddKernelMetrics(std::uint64_t seed, std::size_t span,
                      std::size_t sort_rows, std::size_t words, Result* r) {
  util::Rng rng(seed);
  span = std::max<std::size_t>(span, 64);
  sort_rows = std::max(sort_rows, kernels::kRadixMinRows);
  words = std::max<std::size_t>(words, 1);

  // Two strictly increasing spans that overlap about half the time, the
  // shape of two trie levels joined on one attribute.
  std::vector<std::int64_t> a(span), b(span);
  std::int64_t va = 0, vb = 0;
  for (std::size_t i = 0; i < span; ++i) {
    va += 1 + static_cast<std::int64_t>(rng.NextBounded(3));
    vb += 1 + static_cast<std::int64_t>(rng.NextBounded(3));
    a[i] = va;
    b[i] = vb;
  }
  std::vector<std::int32_t> pos_a(span), pos_b(span);
  const double intersect_ns = NsPerCall(3.0, [&] {
    g_sink = g_sink + kernels::IntersectPairPositions(
                          a.data(), span, b.data(), span, pos_a.data(),
                          pos_b.data());
  });
  r->Add("kernels.intersect_ns_per_elem",
         intersect_ns / static_cast<double>(2 * span), "ns");

  // Binary rows with small ids, as the trie build sorts them.
  std::vector<std::int64_t> rows(2 * sort_rows);
  for (auto& v : rows) {
    v = static_cast<std::int64_t>(rng.NextBounded(sort_rows));
  }
  const std::int32_t cols[2] = {0, 1};
  std::vector<std::uint32_t> idx(sort_rows);
  const double sort_ns = NsPerCall(3.0, [&] {
    std::iota(idx.begin(), idx.end(), 0u);
    kernels::SortRowsByColumns(rows.data(), 2, sort_rows, cols, 2, idx.data(),
                               nullptr);
    g_sink = g_sink + idx[0];
  });
  r->Add("kernels.sort_ns_per_row", sort_ns / static_cast<double>(sort_rows),
         "ns");

  // One heavy-core row pair: OR into the product row, AND-popcount a
  // witness set.
  std::vector<std::uint64_t> dst(words), src(words);
  for (std::size_t i = 0; i < words; ++i) src[i] = rng.Next();
  const double or_ns = NsPerCall(3.0, [&] {
    kernels::OrWords(dst.data(), src.data(), words);
    g_sink = g_sink + kernels::AndPopcount(dst.data(), src.data(), words);
  });
  r->Add("kernels.or_words_ns_per_word",
         or_ns / static_cast<double>(2 * words), "ns");
}

}  // namespace qc::perfbench
