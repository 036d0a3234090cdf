// serve-mixed: served reads plus single-tuple writes through an in-process
// QueryServer over loopback, WAL off, driven by an open-loop seeded arrival
// schedule on three connections. The data is uniform and the trie working
// set fits the IndexCache, so admission, snapshot pinning, the warm-trie
// search and reply streaming carry the work; WAL, IVM and the hybrid MM core
// stay idle.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/query_api.h"
#include "api/wire.h"
#include "bench.h"
#include "db/mvcc.h"
#include "server/client.h"
#include "server/server.h"
#include "util/rng.h"

namespace qc::perfbench {

namespace {

constexpr int kConnections = 3;
constexpr int kExecutors = 4;
constexpr int kQueryThreads = 1;
constexpr std::uint64_t kIndexCacheMb = 64;
constexpr std::int64_t kDomain = 1500;
constexpr std::size_t kEdges = 3000;     // E: triangle and 4-cycle reads.
constexpr std::size_t kPathHead = 100;   // R: head of the 3-path.
constexpr std::size_t kPathBody = 3000;  // S and T.
constexpr double kWriteShare = 0.10;
constexpr int kSetupRepeats = 9;
/// Offered rates over all connections (requests/s): the nominal rate, well
/// under saturation, then the steps slo_rps is picked from.
constexpr double kNominalRps = 400;
constexpr double kStepRps[] = {700, 1000, 1400};
/// Share of the measured seconds spent at the nominal rate; the steps split
/// the rest.
constexpr double kNominalShare = 0.6;
/// Frozen read p99 limit for slo_rps (perfbench/DESIGN.md says how it was
/// derived from the unloaded p50).
constexpr double kSloP99LimitMs = 10.0;
/// Generator lateness p99 above this makes the run invalid.
constexpr double kLateLimitMs = 10.0;

const char* const kReads[] = {
    "E(a,b), E(b,c), E(a,c)",
    "E(a,b), E(b,c), E(c,d), E(d,a)",
    "R(a,b), S(b,c), T(c,d)",
};
const char* const kWriteTargets[] = {"E", "E", "E", "R", "S", "T"};

struct Op {
  int read = -1;  ///< Index into kReads, or -1 for a write.
  std::string relation;
  db::Value a = 0;
  db::Value b = 0;

  std::string Body() const {
    return "relation " + relation + ":\n" + std::to_string(a) + " " +
           std::to_string(b) + "\n";
  }
};

struct Planned {
  double at_s = 0;  ///< Offset from the phase start.
  Op op;
};

/// One connection's share of a phase: an exact count of arrivals at
/// `rate / kConnections`, 10% of them writes, the reads cycling the shapes.
/// The schedule and the op order come from `shape`; the written values are
/// relabeled through the run's permutation.
std::vector<Planned> PlanConnection(std::uint64_t shape,
                                    const std::vector<db::Value>& perm,
                                    double rate, double seconds) {
  const auto n =
      static_cast<std::size_t>(rate * seconds / kConnections + 0.5);
  const std::vector<double> at = ArrivalOffsets(shape, n, seconds);
  util::Rng rng(shape ^ 0x9e3779b97f4a7c15ULL);
  const auto writes = static_cast<std::size_t>(n * kWriteShare + 0.5);
  std::vector<int> deck(n);
  for (std::size_t i = 0; i < n; ++i) {
    deck[i] = i < writes ? -1 : static_cast<int>((i - writes) % 3);
  }
  rng.Shuffle(&deck);
  std::vector<Planned> plan(n);
  for (std::size_t i = 0; i < n; ++i) {
    plan[i].at_s = at[i];
    plan[i].op.read = deck[i];
    if (deck[i] < 0) {
      plan[i].op.relation = kWriteTargets[rng.NextBounded(6)];
      plan[i].op.a = perm[rng.NextBounded(kDomain)];
      plan[i].op.b = perm[rng.NextBounded(kDomain)];
    }
  }
  return plan;
}

std::vector<std::vector<Planned>> PlanPhase(std::uint64_t seed, int phase,
                                            double rate, double seconds) {
  const std::vector<db::Value> perm = Permutation(seed, kDomain);
  std::vector<std::vector<Planned>> plans;
  for (int c = 0; c < kConnections; ++c) {
    plans.push_back(PlanConnection(
        kShapeSeed * 1000003ULL + static_cast<std::uint64_t>(phase) * 7919ULL +
            static_cast<std::uint64_t>(c),
        perm, rate, seconds));
  }
  return plans;
}

/// The server under test plus one client per connection.
struct Served {
  std::unique_ptr<server::QueryServer> server;
  std::vector<std::unique_ptr<server::Client>> clients;

  Served() = default;
  Served(const Served&) = delete;
  Served& operator=(const Served&) = delete;
  ~Served() {
    for (auto& c : clients) c->Close();
    if (server != nullptr) server->Stop();
  }
};

/// Generates the data, starts the server, connects and warms up: set-up.
std::unique_ptr<Served> SetUp(std::uint64_t seed, std::string* error) {
  auto s = std::make_unique<Served>();
  server::ServerOptions so;
  so.session.threads = kQueryThreads;
  so.session.index_cache_mb = kIndexCacheMb;
  so.admission.max_concurrent = kExecutors;
  so.admission.queue_capacity = 64;
  s->server = std::make_unique<server::QueryServer>(so);
  db::MvccDatabase& mvcc = s->server->database();
  const std::vector<db::Value> perm = Permutation(seed, kDomain);
  auto load = [&](const char* name, std::uint64_t salt, std::size_t rows) {
    mvcc.SetRelation(
        name, Relabel(RandomPairs(kShapeSeed * 8 + salt, rows, kDomain), perm));
  };
  load("E", 1, kEdges);
  load("R", 2, kPathHead);
  load("S", 3, kPathBody);
  load("T", 4, kPathBody);
  if (!s->server->Start(error)) return nullptr;
  for (int c = 0; c < kConnections; ++c) {
    auto client = std::make_unique<server::Client>();
    if (!client->Connect("127.0.0.1", s->server->port(), error)) {
      return nullptr;
    }
    for (const char* q : kReads) {
      if (!ReadOk(client->Query(q))) {
        *error = std::string("warm-up query failed: ") + q;
        return nullptr;
      }
    }
    s->clients.push_back(std::move(client));
  }
  return s;
}

struct Sample {
  bool write = false;
  bool ok = false;
  double latency_ms = 0;  ///< From the scheduled send.
  double late_ms = 0;     ///< Generator lateness of the send.
};

struct PhaseRun {
  std::vector<double> read_ms, write_ms;  ///< In due order.
  std::vector<double> late_ms;
  std::vector<Op> acked_writes;
  std::uint64_t attempted = 0, failed = 0, reads_ok = 0;
  double wall_s = 0;
  double final_lag_ms = 0;  ///< Worst latency of a connection's last request.
};

std::vector<Sample> Drive(server::Client* client,
                          const std::vector<Planned>& plan,
                          Clock::time_point start, Clock::time_point* end) {
  std::vector<Sample> out;
  out.reserve(plan.size());
  Clock::time_point free_at = start;
  for (const Planned& p : plan) {
    const Clock::time_point due = After(start, p.at_s);
    std::this_thread::sleep_until(due);
    const Clock::time_point sent = Clock::now();
    Sample s;
    s.write = p.op.read < 0;
    // Lateness counts only the generator's own delay: time past the later
    // of the due time and the previous reply (a slow reply is backlog).
    s.late_ms = std::max(0.0, Ms(sent - std::max(due, free_at)));
    if (s.write) {
      server::MutateReply r = client->Mutate(p.op.Body(), "abort");
      s.ok = r.ok && !r.rejected && r.code == 0 && r.applied == 1;
    } else {
      s.ok = ReadOk(client->Query(kReads[p.op.read]));
    }
    free_at = Clock::now();
    s.latency_ms = s.ok ? Ms(free_at - due) : kFailedLatencyMs;
    out.push_back(s);
  }
  *end = free_at;
  return out;
}

PhaseRun RunPhase(Served* served,
                  const std::vector<std::vector<Planned>>& plans) {
  PhaseRun run;
  std::vector<std::vector<Sample>> samples(kConnections);
  std::vector<Clock::time_point> ends(kConnections);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        samples[c] = Drive(served->clients[c].get(), plans[c], start, &ends[c]);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  // (due offset, latency): the connections' samples merged in due order.
  std::vector<std::pair<double, double>> reads, writes;
  for (int c = 0; c < kConnections; ++c) {
    for (std::size_t i = 0; i < samples[c].size(); ++i) {
      const Sample& s = samples[c][i];
      ++run.attempted;
      if (!s.ok) ++run.failed;
      (s.write ? writes : reads).emplace_back(plans[c][i].at_s, s.latency_ms);
      if (!s.write && s.ok) ++run.reads_ok;
      if (s.write && s.ok) run.acked_writes.push_back(plans[c][i].op);
      run.late_ms.push_back(s.late_ms);
    }
    if (!samples[c].empty()) {
      run.final_lag_ms =
          std::max(run.final_lag_ms, samples[c].back().latency_ms);
    }
    run.wall_s = std::max(run.wall_s, Ms(ends[c] - start) / 1000);
  }
  std::sort(reads.begin(), reads.end());
  std::sort(writes.begin(), writes.end());
  for (const auto& [at, ms] : reads) run.read_ms.push_back(ms);
  for (const auto& [at, ms] : writes) run.write_ms.push_back(ms);
  return run;
}

/// After the load: every read shape served must equal ExecuteQuery on the
/// snapshot at the same epoch, and every acknowledged write must be there.
void Verify(Served* served, const std::vector<Op>& acked, Result* result) {
  db::MvccSnapshot snap = served->server->database().Snapshot();
  for (const char* q : kReads) {
    server::QueryReply reply = served->clients[0]->Query(q);
    if (!ReadOk(reply) || reply.epoch != snap.epoch) {
      result->Fail(std::string("verification read failed: ") + q);
      continue;
    }
    api::QueryRequest req;
    req.query_text = q;
    req.options.threads = kQueryThreads;
    api::QueryResponse want = api::ExecuteQuery(req, *snap.db, nullptr);
    if (FormatRows(want.result.tuples) != reply.row_text) {
      result->Fail(std::string("served answer diverges from ExecuteQuery: ") +
                   q);
    }
  }
  std::map<std::string, std::set<std::pair<db::Value, db::Value>>> present;
  for (const char* rel : {"E", "R", "S", "T"}) {
    const db::FlatRelation& flat = snap.db->Flat(rel);
    for (std::size_t i = 0; i < flat.size(); ++i) {
      present[rel].insert({flat.At(i, 0), flat.At(i, 1)});
    }
  }
  for (const Op& op : acked) {
    if (present[op.relation].count({op.a, op.b}) == 0) {
      result->Fail("acknowledged write missing from " + op.relation);
      return;
    }
  }
}

void AddContext(Served* served, Result* result) {
  db::MvccSnapshot snap = served->server->database().Snapshot();
  const std::vector<std::string> reads(std::begin(kReads), std::end(kReads));
  result->Context("mode", "open loop, 3 connections, WAL off");
  result->Context("admission_executors", std::to_string(kExecutors));
  result->Context("query_threads", std::to_string(kQueryThreads));
  result->Context("index_cache_bytes", std::to_string(kIndexCacheMb << 20));
  result->Context("trie_working_set_bytes",
                  std::to_string(TrieWorkingSetBytes(reads, *snap.db,
                                                     kQueryThreads)));
  result->Context("dataset", "E=" + std::to_string(kEdges) +
                                 " R=" + std::to_string(kPathHead) +
                                 " S=T=" + std::to_string(kPathBody) +
                                 " pairs over domain " +
                                 std::to_string(kDomain));
  std::string steps;
  for (double r : kStepRps) steps += " " + std::to_string(static_cast<int>(r));
  result->Context("rates_rps",
                  "nominal " + std::to_string(static_cast<int>(kNominalRps)) +
                      ", steps" + steps);
  result->Context("slo_p99_limit_ms", std::to_string(kSloP99LimitMs));
}

Result TimedRun(const Options& opts) {
  Result result;
  std::vector<double> setup_s;
  std::unique_ptr<Served> served;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    served.reset();
    const Clock::time_point t0 = Clock::now();
    std::string error;
    served = SetUp(opts.seed, &error);
    if (served == nullptr) {
      result.Fail("set-up failed: " + error);
      return result;
    }
    setup_s.push_back(MsSince(t0) / 1000);
  }

  // The nominal rate first, then the steps, ascending.
  const double nominal_s = opts.seconds * kNominalShare;
  const double step_s =
      opts.seconds * (1 - kNominalShare) / std::size(kStepRps);
  std::vector<Op> acked;
  auto run_phase = [&](int phase, double rate, double seconds) {
    PhaseRun run =
        RunPhase(served.get(), PlanPhase(opts.seed, phase, rate, seconds));
    result.attempted += run.attempted;
    result.failed += run.failed;
    acked.insert(acked.end(), run.acked_writes.begin(),
                 run.acked_writes.end());
    return run;
  };
  auto passes = [](const PhaseRun& r) {
    return r.failed == 0 && Percentile(r.read_ms, 0.99) <= kSloP99LimitMs &&
           r.final_lag_ms <= kSloP99LimitMs;
  };
  const PhaseRun nominal = run_phase(0, kNominalRps, nominal_s);
  double slo_rps = passes(nominal) ? kNominalRps : 0;
  for (std::size_t i = 0; i < std::size(kStepRps); ++i) {
    const PhaseRun step =
        run_phase(static_cast<int>(i) + 1, kStepRps[i], step_s);
    if (passes(step)) slo_rps = std::max(slo_rps, kStepRps[i]);
    std::printf("  step %5.0f req/s: read p50 %.3f ms p99 %.3f ms, final lag "
                "%.3f ms, failed %llu -> %s\n",
                kStepRps[i], Percentile(step.read_ms, 0.5),
                Percentile(step.read_ms, 0.99), step.final_lag_ms,
                static_cast<unsigned long long>(step.failed),
                passes(step) ? "meets limit" : "over limit");
  }
  Verify(served.get(), acked, &result);
  AddContext(served.get(), &result);

  const double late_p99 = Percentile(nominal.late_ms, 0.99);
  result.AddExtra("gen.late_ms.p99", late_p99, "ms");
  result.AddExtra("slo_rps", slo_rps, "1/s");
  result.AddExtra("write_p50_ms", WindowedPercentile(nominal.write_ms, 0.5), "ms");
  result.AddExtra("write_p99_ms", WindowedPercentile(nominal.write_ms, 0.99), "ms");
  result.Context("nominal_samples",
                 std::to_string(nominal.read_ms.size()) + " reads, " +
                     std::to_string(nominal.write_ms.size()) + " writes");
  if (late_p99 > kLateLimitMs) {
    result.Fail("invalid run: generator lateness p99 " +
                std::to_string(late_p99) + " ms exceeds " +
                std::to_string(kLateLimitMs) + " ms");
  }
  result.Add("read_p50_ms", WindowedPercentile(nominal.read_ms, 0.5), "ms");
  result.Add("read_p99_ms", WindowedPercentile(nominal.read_ms, 0.99), "ms");
  result.Add("read_qps",
             static_cast<double>(nominal.reads_ok) / nominal.wall_s, "1/s");
  result.Add("setup_s", Median(setup_s), "s");
  result.Add("peak_rss_mb", PeakRssMb(), "MB");
  return result;
}

/// Replays the nominal phase's operations one at a time and times every
/// layer on each: snapshot, parse, route, engine, encode, and the served
/// round trip split into queue, execute and the rest.
Result TracedRun(const Options& opts) {
  Result result;
  std::string error;
  std::unique_ptr<Served> served = SetUp(opts.seed, &error);
  if (served == nullptr) {
    result.Fail("set-up failed: " + error);
    return result;
  }
  server::QueryServer& srv = *served->server;
  db::MvccDatabase& mvcc = srv.database();
  server::Client& client = *served->clients[0];

  std::vector<Planned> ops;
  for (auto& plan : PlanPhase(opts.seed, 0, kNominalRps,
                                     opts.seconds * kNominalShare)) {
    ops.insert(ops.end(), plan.begin(), plan.end());
  }
  std::stable_sort(ops.begin(), ops.end(),
                   [](const Planned& x, const Planned& y) {
                     return x.at_s < y.at_s;
                   });

  db::IndexCache mirror(kIndexCacheMb << 20);
  std::vector<RouteProbe> probes;
  std::vector<double> queue, exec, overhead, snapshot_us, encode_us, stage_us;
  std::vector<double> commit_us;
  std::map<std::string, double> methods;
  double reply_bytes = 0, arena_max = 0, layer_ms = 0, request_ms = 0;
  double hits0 = -1, misses0 = 0, evictions0 = 0;
  double hits1 = 0, misses1 = 0, evictions1 = 0;
  std::uint64_t reads = 0;
  const std::uint64_t builds0 = mvcc.stats().snapshot_builds;
  const Clock::time_point deadline = After(Clock::now(), opts.seconds);

  for (const Planned& p : ops) {
    if (Clock::now() > deadline) break;
    ++result.attempted;
    if (p.op.read < 0) {
      // The write path the server's mutate frame takes, called directly.
      const std::string body = p.op.Body();
      Clock::time_point t = Clock::now();
      api::DatasetStaging staged =
          api::StageDataset(body, *mvcc.Snapshot().db, false);
      const double stage = UsSince(t);
      stage_us.push_back(stage);
      db::WalRecord record;
      record.kind = db::WalRecord::Kind::kDataset;
      record.dataset = body;
      api::DatasetStaging staging;
      t = Clock::now();
      db::MutationResult committed = mvcc.MutateLoggedInPlace(
          record,
          [&](const db::Database& live) {
            staging = api::StageDataset(body, live, false);
            return staging.load.ok ? db::MutationResult::Ok()
                                   : db::MutationResult::Fail("rejected");
          },
          [&](db::Database& live) {
            return api::ApplyDataset(&staging, &live);
          });
      const double commit = UsSince(t);
      commit_us.push_back(commit);
      if (!committed || !staged.load.ok) ++result.failed;
      layer_ms += stage / 1000;
      request_ms += commit / 1000;
      continue;
    }
    const std::string text = kReads[p.op.read];
    ++reads;
    Clock::time_point t = Clock::now();
    db::MvccSnapshot snap = mvcc.Snapshot();
    const double snap_us = UsSince(t);
    snapshot_us.push_back(snap_us);
    const RouteProbe probe =
        ProbeRoute(text, *snap.db, &mirror, kQueryThreads);
    probes.push_back(probe);

    t = Clock::now();
    server::QueryReply reply = client.Query(text);
    const double rtt = MsSince(t);
    if (!ReadOk(reply)) {
      ++result.failed;
      continue;
    }
    const double q = JsonNumber(reply.report_json, "queue_ms");
    const double e = JsonNumber(reply.report_json, "wall_ms");
    queue.push_back(q);
    exec.push_back(e);
    overhead.push_back(rtt - q - e);
    arena_max = std::max(
        arena_max, JsonNumber(reply.report_json, "arena_high_water_bytes"));
    methods[reply.method] += 1;
    const double h = JsonNumber(reply.report_json, "hits", 0, "cache");
    const double m = JsonNumber(reply.report_json, "misses", 0, "cache");
    const double ev = JsonNumber(reply.report_json, "evictions", 0, "cache");
    if (hits0 < 0) {
      hits0 = h;
      misses0 = m;
      evictions0 = ev;
    }
    hits1 = h;
    misses1 = m;
    evictions1 = ev;

    // The reply frames of the same query, encoded and parsed back.
    api::Frame request;
    request.kind = "query";
    request.Add("id", "1");
    request.body = text;
    std::size_t bytes = 0;
    bool decoded = false;
    const double enc =
        EncodeRoundTripUs(srv.HandleRequest(request), &bytes, &decoded);
    if (!decoded) ++result.failed;
    encode_us.push_back(enc);
    reply_bytes += static_cast<double>(bytes);

    layer_ms += q + snap_us / 1000 + probe.critical_ms + enc / 1000;
    request_ms += rtt;
  }

  const server::ServerStats stats = srv.stats();
  const double nreads = std::max<double>(1, static_cast<double>(reads));
  result.Add("server.queue_ms.p50", Percentile(queue, 0.5), "ms");
  result.Add("server.queue_ms.p99", Percentile(queue, 0.99), "ms");
  result.Add("server.exec_ms.p50", Percentile(exec, 0.5), "ms");
  result.Add("server.overhead_ms.p50", Percentile(overhead, 0.5), "ms");
  result.Add("server.reply_bytes_per_read", reply_bytes / nreads, "bytes");
  result.Add("server.rejected",
             static_cast<double>(stats.admission.rejected +
                                 stats.admission.timed_out),
             "count");
  result.Add("server.queue_sheds", static_cast<double>(stats.queue_sheds),
             "count");
  result.Add("api.encode_us", Percentile(encode_us, 0.5), "us");
  result.Add("api.stage_us", Percentile(stage_us, 0.5), "us");
  result.Add("core.method_share.generic_join", methods["generic-join"] / nreads,
             "ratio");
  result.Add("core.method_share.yannakakis", methods["yannakakis"] / nreads,
             "ratio");
  result.Add("core.method_share.hybrid", methods["hybrid-join"] / nreads,
             "ratio");
  result.Add("mvcc.snapshot_us", Percentile(snapshot_us, 0.5), "us");
  result.Add("mvcc.snapshot_builds_per_read",
             static_cast<double>(stats.mvcc.snapshot_builds - builds0) /
                 nreads,
             "ratio");
  result.Add("mvcc.commit_us.p50", Percentile(commit_us, 0.5), "us");
  result.Add("mvcc.commit_us.p99", Percentile(commit_us, 0.99), "us");
  result.Add("wal.syncs", static_cast<double>(stats.wal.syncs), "count");
  result.Add("wal.compactions", static_cast<double>(stats.wal.compactions),
             "count");
  result.Add("ivm.full_recomputes",
             static_cast<double>(stats.ivm.full_recomputes), "count");
  const double lookups = (hits1 - hits0) + (misses1 - misses0);
  result.Add("index_cache.hit_ratio",
             lookups > 0 ? (hits1 - hits0) / lookups : 0.0, "ratio");
  result.Add("index_cache.evictions", evictions1 - evictions0, "count");
  AddRouteMetrics(probes, &result);
  AddKernelMetrics(opts.seed, DistinctValues(mvcc.Snapshot().db->Flat("E"), 0),
                   kEdges, 1, &result);
  result.Add("arena.high_water_mb", arena_max / (1 << 20), "MB");
  result.Add("trace.coverage_ratio",
             request_ms > 0 ? layer_ms / request_ms : 0.0, "ratio");
  // Traced: a served read issued right after the benchmark's own layer
  // probes for it; plain: the same read alone.
  int shape = 0;
  result.Add("trace.overhead_pct",
             OverheadPct(
                 60,
                 [&] {
                   const Clock::time_point t = Clock::now();
                   client.Query(kReads[shape % 3]);
                   return MsSince(t);
                 },
                 [&] {
                   const std::string text = kReads[shape++ % 3];
                   ProbeRoute(text, *mvcc.Snapshot().db, &mirror,
                              kQueryThreads);
                   const Clock::time_point t = Clock::now();
                   client.Query(text);
                   return MsSince(t);
                 }),
             "%");
  result.Context("replayed_ops", std::to_string(result.attempted));
  return result;
}

}  // namespace

Result RunServeMixed(const Options& opts) {
  return opts.trace ? TracedRun(opts) : TimedRun(opts);
}

}  // namespace qc::perfbench
