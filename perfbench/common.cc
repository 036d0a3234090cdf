#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <set>
#include <unordered_set>

#include "api/query_api.h"
#include "bench.h"
#include "util/rng.h"

namespace qc::perfbench {

const std::vector<std::pair<const char*, const char*>>& LayerMetricTable() {
  static const std::vector<std::pair<const char*, const char*>> kTable = {
      {"server.queue_ms.p50", "ms"},
      {"server.queue_ms.p99", "ms"},
      {"server.exec_ms.p50", "ms"},
      {"server.overhead_ms.p50", "ms"},
      {"server.reply_bytes_per_read", "bytes"},
      {"server.rejected", "count"},
      {"server.queue_sheds", "count"},
      {"api.parse_us", "us"},
      {"api.encode_us", "us"},
      {"api.stage_us", "us"},
      {"core.method_share.generic_join", "ratio"},
      {"core.method_share.yannakakis", "ratio"},
      {"core.method_share.hybrid", "ratio"},
      {"mvcc.snapshot_us", "us"},
      {"mvcc.snapshot_builds_per_read", "ratio"},
      {"mvcc.commit_us.p50", "us"},
      {"mvcc.commit_us.p99", "us"},
      {"wal.append_us.p50", "us"},
      {"wal.sync_ms.p99", "ms"},
      {"wal.compact_ms", "ms"},
      {"wal.bytes_per_mutation", "bytes"},
      {"wal.syncs", "count"},
      {"wal.compactions", "count"},
      {"wal.replay_records_per_s", "1/s"},
      {"ivm.on_commit_us.p50", "us"},
      {"ivm.on_commit_us.p99", "us"},
      {"ivm.rows_per_update", "rows"},
      {"ivm.sweeps_per_update", "ratio"},
      {"ivm.full_recomputes", "count"},
      {"ivm.read_us", "us"},
      {"index_cache.hit_ratio", "ratio"},
      {"index_cache.evictions", "count"},
      {"index_cache.build_ms.p50", "ms"},
      {"generic_join.build_ms", "ms"},
      {"generic_join.search_ms", "ms"},
      {"generic_join.probes_per_row", "ratio"},
      {"generic_join.simd_blocks", "count"},
      {"yannakakis.ms", "ms"},
      {"hybrid.plan_ms", "ms"},
      {"hybrid.eval_ms", "ms"},
      {"hybrid.heavy_ms", "ms"},
      {"hybrid.light_ms", "ms"},
      {"hybrid.light_tuples_copied", "count"},
      {"hybrid.delegated_share", "ratio"},
      {"kernels.intersect_ns_per_elem", "ns"},
      {"kernels.sort_ns_per_row", "ns"},
      {"kernels.or_words_ns_per_word", "ns"},
      {"arena.high_water_mb", "MB"},
      {"trace.coverage_ratio", "ratio"},
      {"trace.overhead_pct", "%"},
  };
  return kTable;
}

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

double Us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

Clock::time_point After(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * values.size()));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double WindowedMedian(const std::vector<double>& ordered,
                      const std::function<double(std::vector<double>)>& stat) {
  constexpr std::size_t kMaxWindows = 5;
  constexpr std::size_t kMinWindowSamples = 1000;
  const std::size_t n = ordered.size();
  const std::size_t windows =
      std::clamp<std::size_t>(n / kMinWindowSamples, 1, kMaxWindows);
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows; ++w) {
    per_window.push_back(stat({ordered.begin() + n * w / windows,
                               ordered.begin() + n * (w + 1) / windows}));
  }
  return Median(per_window);
}

double WindowedPercentile(const std::vector<double>& ordered, double q) {
  return WindowedMedian(
      ordered, [q](std::vector<double> w) { return Percentile(std::move(w), q); });
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

std::vector<double> ArrivalOffsets(std::uint64_t seed, std::size_t n,
                                   double seconds) {
  util::Rng rng(seed);
  auto gap = [&rng] { return -std::log(1.0 - rng.NextDouble()); };
  std::vector<double> out(n);
  double t = 0;
  for (double& x : out) {
    t += gap();
    x = t;
  }
  const double total = t + gap();
  for (double& x : out) x = x / total * seconds;
  return out;
}

double OverheadPct(int reps, const std::function<double()>& plain,
                   const std::function<double()>& traced) {
  std::vector<double> a, b;
  for (int i = 0; i < reps; ++i) {
    // Alternate which side runs first so warm-up favours neither.
    if (i % 2 == 0) {
      a.push_back(plain());
      b.push_back(traced());
    } else {
      b.push_back(traced());
      a.push_back(plain());
    }
  }
  const double base = Median(a);
  return base > 0 ? 100.0 * (Median(b) / base - 1.0) : 0.0;
}

db::FlatRelation RandomPairs(std::uint64_t seed, std::size_t rows,
                             std::int64_t domain) {
  util::Rng rng(seed);
  std::set<std::pair<db::Value, db::Value>> seen;
  db::FlatRelation rel(2);
  rel.Reserve(rows);
  while (rel.size() < rows) {
    const db::Value row[2] = {
        static_cast<db::Value>(rng.NextBounded(domain)),
        static_cast<db::Value>(rng.NextBounded(domain))};
    if (row[0] == row[1] || !seen.insert({row[0], row[1]}).second) continue;
    rel.PushRow(row);
  }
  return rel;
}

std::vector<db::Value> Permutation(std::uint64_t seed, std::size_t n) {
  std::vector<db::Value> perm(n);
  std::iota(perm.begin(), perm.end(), db::Value{0});
  util::Rng rng(seed);
  rng.Shuffle(&perm);
  return perm;
}

db::FlatRelation Relabel(const db::FlatRelation& rel,
                         const std::vector<db::Value>& perm) {
  db::FlatRelation out(rel.arity());
  out.Reserve(rel.size());
  std::vector<db::Value> row(static_cast<std::size_t>(rel.arity()));
  for (std::size_t i = 0; i < rel.size(); ++i) {
    for (int c = 0; c < rel.arity(); ++c) {
      row[static_cast<std::size_t>(c)] =
          perm[static_cast<std::size_t>(rel.At(i, c))];
    }
    out.PushRow(row.data());
  }
  return out;
}

std::string FormatRows(const std::vector<db::Tuple>& rows) {
  std::string out;
  for (const db::Tuple& row : rows) {
    std::string line;
    for (db::Value v : row) {
      if (!line.empty()) line += ' ';
      line += std::to_string(v);
    }
    out += line;
    out += '\n';
  }
  return out;
}

std::size_t DistinctValues(const db::FlatRelation& rel, int col) {
  std::unordered_set<db::Value> values;
  for (std::size_t i = 0; i < rel.size(); ++i) values.insert(rel.At(i, col));
  return values.size();
}

double JsonNumber(const std::string& json, const std::string& key,
                  double fallback, const std::string& after) {
  std::size_t from = 0;
  if (!after.empty()) {
    from = json.find("\"" + after + "\"");
    if (from == std::string::npos) return fallback;
  }
  const std::string needle = "\"" + key + "\": ";
  const std::size_t pos = json.find(needle, from);
  if (pos == std::string::npos) return fallback;
  return std::strtod(json.c_str() + pos + needle.size(), nullptr);
}

double EncodeRoundTripUs(const std::vector<api::Frame>& frames,
                         std::size_t* bytes, bool* ok) {
  const Clock::time_point t = Clock::now();
  std::string wire;
  for (const api::Frame& f : frames) wire += api::EncodeFrame(f);
  api::FrameParser parser;
  parser.Feed(wire);
  api::Frame decoded;
  std::string error;
  std::size_t decoded_frames = 0;
  while (parser.Next(&decoded, &error) == api::FrameParser::Result::kFrame) {
    ++decoded_frames;
  }
  const double us = UsSince(t);
  *bytes = wire.size();
  *ok = decoded_frames == frames.size();
  return us;
}

std::size_t TrieWorkingSetBytes(const std::vector<std::string>& queries,
                                const db::Database& db, int threads) {
  db::IndexCache cache(std::size_t{1} << 40);
  for (const std::string& text : queries) {
    api::QueryRequest req;
    req.query_text = text;
    req.options.threads = threads;
    api::ExecuteQuery(req, db, &cache);
  }
  return cache.stats().bytes;
}

}  // namespace qc::perfbench
