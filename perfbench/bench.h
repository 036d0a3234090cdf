#ifndef QC_PERFBENCH_BENCH_H_
#define QC_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "api/wire.h"
#include "db/database.h"
#include "db/index_cache.h"
#include "server/client.h"

namespace qc::perfbench {

using Clock = std::chrono::steady_clock;

/// Command-line knobs shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for WAL files; run.py points it inside the checkout.
  std::string work_dir = ".bench_build/run";
  std::string git_sha = "unknown";
  std::uint64_t src_lines = 0;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Everything one workload run reports. `metrics` are the contract metrics
/// (end-to-end ones with tracing off, per-layer ones in the traced replay);
/// `extra` are the end-to-end metrics that apply to this workload only.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> extra;
  std::vector<std::pair<std::string, std::string>> context;
  std::vector<std::string> errors;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void AddExtra(std::string name, double value, std::string unit) {
    extra.push_back({std::move(name), value, std::move(unit)});
  }
  void Context(std::string key, std::string value) {
    context.emplace_back(std::move(key), std::move(value));
  }
  /// Records a verification failure; the run then reports correct = false.
  void Fail(std::string what) {
    correct = false;
    errors.push_back(std::move(what));
  }
};

Result RunServeMixed(const Options& opts);
Result RunIngestViews(const Options& opts);
Result RunSkewedAnalytics(const Options& opts);

/// Every per-layer metric with its unit, in report order. A traced run
/// reports all of them; a layer the workload never reaches reads 0.
const std::vector<std::pair<const char*, const char*>>& LayerMetricTable();

// --- timing and statistics -------------------------------------------------

double Ms(Clock::duration d);
double Us(Clock::duration d);
inline double MsSince(Clock::time_point t) { return Ms(Clock::now() - t); }
inline double UsSince(Clock::time_point t) { return Us(Clock::now() - t); }
Clock::time_point After(Clock::time_point t, double seconds);

/// Nearest-rank percentile, q in (0, 1]; 0 for an empty sample.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// `stat` of time-ordered samples, taken over up to 5 consecutive windows
/// of at least 1000 samples each and reduced by the median, so that a burst
/// of outside load on the shared machine spoils one window rather than the
/// figure. With 1000 samples a window still has 10 beyond its p99.
double WindowedMedian(const std::vector<double>& ordered,
                      const std::function<double(std::vector<double>)>& stat);
double WindowedPercentile(const std::vector<double>& ordered, double q);

/// Latency recorded for a failed or refused request: over every limit.
inline constexpr double kFailedLatencyMs = 1e9;

/// A served read that completed: accepted, executed and streamed in full.
inline bool ReadOk(const server::QueryReply& r) {
  return r.ok && !r.rejected && r.code == 0 && r.status == "completed";
}

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// `n` ascending arrival offsets in [0, seconds) of a seeded Poisson-like
/// schedule: exponential gaps rescaled so the count is exact and only the
/// spacing is random.
std::vector<double> ArrivalOffsets(std::uint64_t seed, std::size_t n,
                                   double seconds);

/// 100 * (median traced / median plain - 1) over `reps` alternating pairs;
/// each callable returns the milliseconds of the request it timed.
double OverheadPct(int reps, const std::function<double()>& plain,
                   const std::function<double()>& traced);

// --- data ------------------------------------------------------------------

/// Every workload draws the shape of its inputs (sizes, degree skew, hub
/// keys, the writer stream, arrival schedules, query orders) once from this
/// fixed seed; --seed relabels every value through a random permutation.
/// Runs on different seeds therefore measure the same amount of work on
/// differently laid-out inputs.
inline constexpr std::uint64_t kShapeSeed = 20211;

/// A seeded random permutation of [0, n).
std::vector<db::Value> Permutation(std::uint64_t seed, std::size_t n);

/// `rel` with every value v replaced by perm[v].
db::FlatRelation Relabel(const db::FlatRelation& rel,
                         const std::vector<db::Value>& perm);

/// `rows` distinct random pairs (a, b), a != b, over [0, domain).
db::FlatRelation RandomPairs(std::uint64_t seed, std::size_t rows,
                             std::int64_t domain);

/// Rows as the server streams them: space-separated values, one per line.
std::string FormatRows(const std::vector<db::Tuple>& rows);

/// Distinct values of column `col`.
std::size_t DistinctValues(const db::FlatRelation& rel, int col);

/// Number following `"key": ` in a JSON text (first occurrence after the
/// key `after`, when given), or `fallback`.
double JsonNumber(const std::string& json, const std::string& key,
                  double fallback = 0, const std::string& after = "");

/// EncodeFrame of every frame, then a FrameParser decoding them back: the
/// reply-encoding round trip of one request. Returns microseconds; `bytes`
/// gets the wire size, `ok` whether every frame came back.
double EncodeRoundTripUs(const std::vector<api::Frame>& frames,
                         std::size_t* bytes, bool* ok);

/// Bytes of every trie an uncapped cache holds after `queries` ran once
/// each against `db`: the trie working set.
std::size_t TrieWorkingSetBytes(const std::vector<std::string>& queries,
                                const db::Database& db, int threads);

// --- per-layer probes (probes.cc) ------------------------------------------

/// Layer timings of one query, taken by calling each layer's public entry
/// points in the order core::EvaluateQueryAuto routes them.
struct RouteProbe {
  double parse_us = 0;
  std::string method;  ///< "yannakakis", "hybrid" or "generic_join".
  double yannakakis_ms = 0;
  bool hybrid_considered = false;
  bool hybrid_delegated = false;
  double hybrid_plan_ms = 0;
  double hybrid_eval_ms = 0;
  double hybrid_heavy_ms = 0;
  double hybrid_light_ms = 0;
  std::uint64_t hybrid_light_tuples = 0;
  std::uint64_t hybrid_heavy_values = 0;
  double gj_build_ms = 0;   ///< Cold constructor, no cache.
  double gj_ctor_ms = 0;    ///< Constructor through the mirror cache.
  std::uint64_t cache_misses = 0;
  double gj_search_ms = 0;  ///< Evaluate on the constructed (warm) tries.
  std::uint64_t gj_probes = 0;
  std::uint64_t gj_simd_blocks = 0;
  std::uint64_t rows = 0;
  /// Layer time on the routed path: the parse plus what the chosen engine
  /// paid (cache lookups and builds included, cold reference builds not).
  double critical_ms = 0;
};

/// Probes one query against `db`. `mirror` is a benchmark-side IndexCache
/// that sees the same relation versions as the program's own cache.
RouteProbe ProbeRoute(const std::string& query_text, const db::Database& db,
                      db::IndexCache* mirror, int threads);

/// Adds the parse, router and engine metrics over a replay's probes.
void AddRouteMetrics(const std::vector<RouteProbe>& probes, Result* result);

/// Times the kernels on inputs of the given sizes and adds
/// kernels.*_ns_per_* metrics.
void AddKernelMetrics(std::uint64_t seed, std::size_t span,
                      std::size_t sort_rows, std::size_t words,
                      Result* result);

}  // namespace qc::perfbench

#endif  // QC_PERFBENCH_BENCH_H_
