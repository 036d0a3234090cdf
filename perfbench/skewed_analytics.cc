// skewed-analytics: api::ExecuteQuery in-process (the query_cli path), one
// closed-loop caller, a fixed seeded sequence of triangle, 4-cycle and
// 4-clique queries over hub and Zipf graphs with hybrid=auto and two
// threads per query. One IndexCache capped near a third of the trie working
// set makes LRU evict, so trie builds land on the critical path. No server,
// WAL or IVM runs here.

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/query_api.h"
#include "bench.h"
#include "db/generic_join.h"
#include "db/parser.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace qc::perfbench {

namespace {

constexpr int kQueryThreads = 2;
constexpr int kSetupRepeats = 9;
constexpr std::size_t kSequenceRounds = 8;

/// Graph instances, each stored as a symmetric edge relation.
struct Instance {
  const char* name;
  bool hub;  ///< HubGraph(n, a hubs, b periphery edges) or
             ///< ZipfGraph(n, a edges, exponent).
  int n;
  int a;
  int b;
  double exponent;
};
const Instance kInstances[] = {
    {"H0", true, 34, 17, 20, 0},      // Dense heavy core: the MM route.
    {"H1", true, 60, 2, 120, 0},      // Few hubs: the planner declines.
    {"Z0", false, 4000, 4000, 0, 1.0},
    {"Z1", false, 1500, 2000, 0, 2.0},
};

const char* const kTriangle = "X(a,b), X(b,c), X(a,c)";
const char* const kFourCycle = "X(a,b), X(b,c), X(c,d), X(d,a)";
const char* const kFourClique =
    "X(a,b), X(a,c), X(a,d), X(b,c), X(b,d), X(c,d)";

struct QuerySpec {
  const char* relation;
  const char* pattern;
  int weight;  ///< Occurrences per round of the sequence.
};
const QuerySpec kQueries[] = {
    {"H0", kTriangle, 3}, {"H1", kTriangle, 2}, {"H1", kFourCycle, 1},
    {"H1", kFourClique, 1}, {"Z0", kTriangle, 3}, {"Z1", kTriangle, 2},
};

std::string QueryText(const QuerySpec& spec) {
  std::string text = spec.pattern;
  std::string out;
  for (char c : text) {
    if (c == 'X') {
      out += spec.relation;
    } else {
      out += c;
    }
  }
  return out;
}

db::FlatRelation SymmetricEdges(const graph::Graph& g) {
  db::FlatRelation edges(2);
  edges.Reserve(static_cast<std::size_t>(2 * g.num_edges()));
  for (const auto& [u, v] : g.Edges()) {
    db::Value row[2] = {u, v};
    edges.PushRow(row);
    row[0] = v;
    row[1] = u;
    edges.PushRow(row);
  }
  return edges;
}

db::Database Generate(std::uint64_t seed) {
  db::Database d;
  std::uint64_t salt = 0;
  for (const Instance& inst : kInstances) {
    util::Rng rng(kShapeSeed * 101 + ++salt);
    graph::Graph g = inst.hub ? graph::HubGraph(inst.n, inst.a, inst.b, &rng)
                              : graph::ZipfGraph(inst.n, inst.a,
                                                 inst.exponent, &rng);
    d.SetRelation(inst.name,
                  Relabel(SymmetricEdges(g),
                          Permutation(seed * 101 + salt,
                                      static_cast<std::size_t>(inst.n))));
  }
  return d;
}

/// The fixed query order: every query `weight` times per round, shuffled
/// per round. It comes from the shape seed, so every run evicts alike.
std::vector<std::size_t> Sequence() {
  util::Rng rng(kShapeSeed * 7 + 11);
  std::vector<std::size_t> out;
  for (std::size_t round = 0; round < kSequenceRounds; ++round) {
    std::vector<std::size_t> deck;
    for (std::size_t q = 0; q < std::size(kQueries); ++q) {
      for (int w = 0; w < kQueries[q].weight; ++w) deck.push_back(q);
    }
    rng.Shuffle(&deck);
    out.insert(out.end(), deck.begin(), deck.end());
  }
  return out;
}

std::uint64_t HashRows(const std::vector<db::Tuple>& rows) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const db::Tuple& row : rows) {
    for (db::Value v : row) {
      h ^= static_cast<std::uint64_t>(v);
      h *= 1099511628211ULL;
    }
    h ^= 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

struct Setup {
  db::Database db;
  std::vector<std::string> texts;
  std::size_t working_set = 0;
  std::unique_ptr<db::IndexCache> cache;
};

api::QueryRequest Request(const std::string& text) {
  api::QueryRequest req;
  req.query_text = text;
  req.options.threads = kQueryThreads;
  req.options.hybrid = HybridMode::kAuto;
  return req;
}

bool Completed(const api::QueryResponse& r) {
  return r.input_ok && !r.internal_error &&
         r.status == util::RunStatus::kCompleted;
}

/// Generate, size the cache against the working set, warm up.
std::unique_ptr<Setup> SetUp(std::uint64_t seed) {
  auto s = std::make_unique<Setup>();
  s->db = Generate(seed);
  for (const QuerySpec& q : kQueries) s->texts.push_back(QueryText(q));
  s->working_set = TrieWorkingSetBytes(s->texts, s->db, kQueryThreads);
  s->cache = std::make_unique<db::IndexCache>(s->working_set / 3);
  for (const std::string& text : s->texts) {
    api::ExecuteQuery(Request(text), s->db, s->cache.get());
  }
  return s;
}

void AddContext(const Setup& s, Result* result) {
  result->Context("mode", "closed loop, 1 caller, api::ExecuteQuery, "
                          "hybrid=auto");
  result->Context("query_threads", std::to_string(kQueryThreads));
  result->Context("index_cache_bytes",
                  std::to_string(s.cache->capacity_bytes()));
  result->Context("trie_working_set_bytes", std::to_string(s.working_set));
  std::string sizes;
  for (const Instance& inst : kInstances) {
    sizes += std::string(sizes.empty() ? "" : ", ") + inst.name + "=" +
             std::to_string(s.db.NumTuples(inst.name)) + " rows (" +
             (inst.hub ? "hub" : "zipf") + ")";
  }
  result->Context("dataset", sizes);
}

Result TimedRun(const Options& opts) {
  Result result;
  std::vector<double> setup_s;
  std::unique_ptr<Setup> s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    s.reset();
    const Clock::time_point t0 = Clock::now();
    s = SetUp(opts.seed);
    setup_s.push_back(MsSince(t0) / 1000);
  }
  const std::vector<std::size_t> seq = Sequence();
  std::vector<double> latency, busy_ms;
  std::map<std::size_t, std::pair<std::size_t, std::uint64_t>> seen;
  const Clock::time_point end = After(Clock::now(), opts.seconds);
  for (std::size_t i = 0; Clock::now() < end; ++i) {
    const std::size_t q = seq[i % seq.size()];
    const Clock::time_point t = Clock::now();
    api::QueryResponse resp =
        api::ExecuteQuery(Request(s->texts[q]), s->db, s->cache.get());
    const double ms = MsSince(t);
    busy_ms.push_back(ms);
    ++result.attempted;
    if (!Completed(resp)) {
      ++result.failed;
      latency.push_back(kFailedLatencyMs);
      continue;
    }
    latency.push_back(ms);
    // Outside the timed region: remember the first answer of each query,
    // check every later one against it.
    const std::size_t rows = resp.result.tuples.size();
    auto it = seen.find(q);
    if (it == seen.end()) {
      seen[q] = {rows, HashRows(resp.result.tuples)};
    } else if (it->second.first != rows) {
      result.Fail("answer size changed between runs of " + s->texts[q]);
    }
  }
  // The oracle: pure GenericJoin, hybrid planner bypassed.
  for (const auto& [q, answer] : seen) {
    auto parsed = db::ParseJoinQuery(s->texts[q]);
    db::JoinResult want = db::GenericJoin(*parsed, s->db).Evaluate();
    if (want.tuples.size() != answer.first ||
        HashRows(want.tuples) != answer.second) {
      result.Fail("answer diverges from pure GenericJoin: " + s->texts[q]);
    }
  }
  AddContext(*s, &result);
  result.Context("samples", std::to_string(latency.size()));
  result.Add("read_p50_ms", WindowedPercentile(latency, 0.5), "ms");
  result.Add("read_p99_ms", WindowedPercentile(latency, 0.99), "ms");
  result.Add("read_qps", WindowedMedian(busy_ms, [](std::vector<double> w) {
               double sum = 0;
               for (double ms : w) sum += ms;
               return sum > 0 ? static_cast<double>(w.size()) * 1000 / sum : 0;
             }),
             "1/s");
  result.Add("setup_s", Median(setup_s), "s");
  result.Add("peak_rss_mb", PeakRssMb(), "MB");
  return result;
}

/// Replays the sequence one query at a time: the request through
/// api::ExecuteQuery, then the same query through each layer's entry
/// points against a mirror cache of the same cap.
Result TracedRun(const Options& opts) {
  Result result;
  std::unique_ptr<Setup> s = SetUp(opts.seed);
  db::IndexCache mirror(s->cache->capacity_bytes());
  for (const std::string& text : s->texts) {
    ProbeRoute(text, s->db, &mirror, kQueryThreads);
  }
  const std::vector<std::size_t> seq = Sequence();
  std::vector<RouteProbe> probes;
  std::map<std::string, double> methods;
  double layer_ms = 0, request_ms = 0, arena_max = 0;
  std::uint64_t heavy_values_max = 0;
  const db::IndexCacheStats before = s->cache->stats();
  const Clock::time_point end = After(Clock::now(), opts.seconds);
  for (std::size_t i = 0; Clock::now() < end; ++i) {
    const std::string& text = s->texts[seq[i % seq.size()]];
    ++result.attempted;
    const Clock::time_point t = Clock::now();
    api::QueryResponse resp =
        api::ExecuteQuery(Request(text), s->db, s->cache.get());
    const double ms = MsSince(t);
    if (!Completed(resp)) ++result.failed;
    methods[resp.method] += 1;
    arena_max = std::max(
        arena_max,
        static_cast<double>(resp.report.stats.arena_high_water_bytes));
    const RouteProbe probe = ProbeRoute(text, s->db, &mirror, kQueryThreads);
    heavy_values_max = std::max(heavy_values_max, probe.hybrid_heavy_values);
    probes.push_back(probe);
    layer_ms += probe.critical_ms;
    request_ms += ms;
  }
  const db::IndexCacheStats after = s->cache->stats();
  const double n = std::max<double>(1, static_cast<double>(result.attempted));
  result.Add("core.method_share.generic_join", methods["generic-join"] / n,
             "ratio");
  result.Add("core.method_share.yannakakis", methods["yannakakis"] / n,
             "ratio");
  result.Add("core.method_share.hybrid", methods["hybrid-join"] / n, "ratio");
  const double hits = static_cast<double>(after.hits - before.hits);
  const double misses = static_cast<double>(after.misses - before.misses);
  result.Add("index_cache.hit_ratio",
             hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  result.Add("index_cache.evictions",
             static_cast<double>(after.evictions - before.evictions),
             "count");
  AddRouteMetrics(probes, &result);
  std::size_t span = 0, rows = 0;
  for (const Instance& inst : kInstances) {
    span = std::max(span, DistinctValues(s->db.Flat(inst.name), 0));
    rows = std::max(rows, s->db.NumTuples(inst.name));
  }
  // Heavy values are counted per attribute; a heavy-core matrix row spans
  // one attribute's heavy domain, in 64-bit words.
  AddKernelMetrics(opts.seed, span, rows, (heavy_values_max / 3 + 63) / 64,
                   &result);
  result.Add("arena.high_water_mb", arena_max / (1 << 20), "MB");
  result.Add("trace.coverage_ratio",
             request_ms > 0 ? layer_ms / request_ms : 0.0, "ratio");
  // Traced: the request with the process-global span trace collected;
  // plain: the same request without it.
  const std::string& hub_query = s->texts[0];
  result.Add("trace.overhead_pct",
             OverheadPct(
                 30,
                 [&] {
                   const Clock::time_point t = Clock::now();
                   api::ExecuteQuery(Request(hub_query), s->db,
                                     s->cache.get());
                   return MsSince(t);
                 },
                 [&] {
                   api::QueryRequest req = Request(hub_query);
                   req.collect_trace = true;
                   const Clock::time_point t = Clock::now();
                   api::ExecuteQuery(req, s->db, s->cache.get());
                   return MsSince(t);
                 }),
             "%");
  AddContext(*s, &result);
  for (std::size_t q = 0; q < s->texts.size(); ++q) {
    result.Context("query" + std::to_string(q), s->texts[q]);
  }
  return result;
}

}  // namespace

Result RunSkewedAnalytics(const Options& opts) {
  return opts.trace ? TracedRun(opts) : TimedRun(opts);
}

}  // namespace qc::perfbench
