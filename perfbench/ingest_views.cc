// ingest-views: durable writes beside reads. The same QueryServer with the
// WAL on (fsync batch), two registered views (an acyclic chain join and a
// triangle count), one closed-loop writer over a fixed count of seeded
// 1-8-tuple batches, a share of them aimed at hub keys (the OuMv shape),
// and one open-loop reader of view_read and point queries. At the end the
// server stops and a fresh QueryServer recovers from the same directory.

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/query_api.h"
#include "bench.h"
#include "db/ivm.h"
#include "db/mvcc.h"
#include "db/wal.h"
#include "server/client.h"
#include "server/server.h"
#include "util/rng.h"

namespace qc::perfbench {

namespace {

constexpr std::int64_t kDomain = 4000;
constexpr std::size_t kChainHead = 1000;  // R(a,b)
constexpr std::size_t kChainMiddle = 4000;  // S(b,c): fanout 1.
constexpr std::size_t kChainTail = 125;     // T(c,d): fanout 1/32.
constexpr int kHubKeys = 8;                 // b values with a large S fanout.
constexpr int kHubFanout = 32;
constexpr std::int64_t kGraphVertices = 5000;
constexpr std::size_t kGraphEdges = 15000;  // E(a,b) for the triangle count.
constexpr int kGraphHubs = 4;
constexpr double kHubShare = 0.10;
constexpr int kPointRelations = 8;  // P0..P7: one key each.
/// The fixed writer stream of one cycle; a run repeats cycles until its
/// seconds are spent, and runs at least kMinCycles.
constexpr std::size_t kBatchesPerCycle = 20000;
constexpr int kMinCycles = 2;
constexpr double kReaderRps = 300;
constexpr std::uint64_t kWalBatchBytes = 64 << 10;
constexpr std::uint64_t kIndexCacheMb = 64;
constexpr int kExecutors = 4;
constexpr double kLateLimitMs = 5.0;

const char* const kChainView = "R(a,b), S(b,c), T(c,d)";

struct Universe {
  std::map<std::string, db::FlatRelation> relations;
  std::vector<db::Value> hub_keys;
  std::vector<db::Value> hub_vertices;
  std::vector<db::Value> perm;  ///< The seed's relabeling of all values.
};

/// The fixed-shape data, relabeled by the seed's permutation (kDomain <=
/// kGraphVertices, so one permutation covers every value).
Universe Generate(std::uint64_t seed) {
  Universe u;
  u.perm = Permutation(seed, kGraphVertices);
  util::Rng rng(kShapeSeed * 31 + 7);
  for (int i = 0; i < kHubKeys; ++i) {
    u.hub_keys.push_back(static_cast<db::Value>(rng.NextBounded(kDomain)));
  }
  for (int i = 0; i < kGraphHubs; ++i) {
    u.hub_vertices.push_back(
        static_cast<db::Value>(rng.NextBounded(kGraphVertices)));
  }
  u.relations["R"] = RandomPairs(kShapeSeed * 8 + 1, kChainHead, kDomain);
  db::FlatRelation s = RandomPairs(kShapeSeed * 8 + 2, kChainMiddle, kDomain);
  for (db::Value hub : u.hub_keys) {
    for (int i = 0; i < kHubFanout; ++i) {
      const db::Value row[2] = {
          hub, static_cast<db::Value>(rng.NextBounded(kDomain))};
      s.PushRow(row);
    }
  }
  u.relations["S"] = std::move(s);
  u.relations["T"] = RandomPairs(kShapeSeed * 8 + 3, kChainTail, kDomain);
  u.relations["E"] =
      RandomPairs(kShapeSeed * 8 + 4, kGraphEdges, kGraphVertices);
  // Point keys come from S, which the writer never touches: a point read
  // pays the snapshot pin its epoch needs, not a scan of the growing R.
  const db::FlatRelation& middle = u.relations["S"];
  for (int i = 0; i < kPointRelations; ++i) {
    db::FlatRelation p(1);
    const db::Value key = middle.At(rng.NextBounded(middle.size()), 0);
    p.PushRow(&key);
    u.relations[std::string("P") + std::to_string(i)] = std::move(p);
  }
  for (auto& [name, rel] : u.relations) rel = Relabel(rel, u.perm);
  for (db::Value& v : u.hub_keys) v = u.perm[static_cast<std::size_t>(v)];
  for (db::Value& v : u.hub_vertices) v = u.perm[static_cast<std::size_t>(v)];
  return u;
}

/// The fixed, seeded writer stream: dataset bodies of 1-8 tuples each.
std::vector<std::string> Batches(const Universe& u, std::size_t count) {
  util::Rng rng(kShapeSeed * 977 + 3);
  std::vector<std::string> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const int tuples = static_cast<int>(rng.NextInt(1, 8));
    const bool hub = rng.NextBool(kHubShare);
    const double pick = rng.NextDouble();
    // Head rows and edges only: S and T stay fixed, so the chain view
    // grows linearly with the stream and hub-aimed rows fan out through S.
    const char rel = pick < 0.5 ? 'R' : 'E';
    std::string body = std::string("relation ") + rel + ":\n";
    for (int t = 0; t < tuples; ++t) {
      db::Value a = 0, b = 0;
      if (rel == 'E') {
        a = u.perm[rng.NextBounded(kGraphVertices)];
        b = u.perm[rng.NextBounded(kGraphVertices)];
        if (hub) a = u.hub_vertices[rng.NextBounded(kGraphHubs)];
        if (hub && rng.NextBool(0.5)) std::swap(a, b);
      } else {
        a = u.perm[rng.NextBounded(kDomain)];
        b = u.perm[rng.NextBounded(kDomain)];
        // A hub-aimed R row joins through a key with a large S fanout.
        if (hub) b = u.hub_keys[rng.NextBounded(kHubKeys)];
      }
      body += std::to_string(a) + " " + std::to_string(b) + "\n";
    }
    out.push_back(std::move(body));
  }
  return out;
}

db::WalRecord DatasetRecord(const std::string& body) {
  db::WalRecord record;
  record.kind = db::WalRecord::Kind::kDataset;
  record.dataset = body;
  return record;
}

struct ViewSpec {
  const char* name;
  db::ViewDefinition::Kind kind;
  const char* body;
};
const ViewSpec kViews[] = {
    {"chain", db::ViewDefinition::Kind::kJoin, kChainView},
    {"tri", db::ViewDefinition::Kind::kTriangleCount, "E"},
};

db::ViewDefinition Definition(const ViewSpec& spec) {
  db::WalRecord record;
  record.kind = db::WalRecord::Kind::kViewDef;
  record.relation = spec.name;
  record.arity = static_cast<int>(spec.kind);
  record.dataset = spec.body;
  db::ViewDefinition def;
  db::ViewDefinitionFromRecord(record, &def);
  return def;
}

std::string PointQuery(std::size_t i) {
  return "P" + std::to_string(i % kPointRelations) + "(b), S(b,c)";
}

/// Log bytes of the whole writer stream (record payloads plus framing).
std::uint64_t StreamBytes(const std::vector<std::string>& batches) {
  std::uint64_t bytes = 0;
  for (const std::string& b : batches) {
    bytes += db::EncodeWalRecord(DatasetRecord(b)).size() + 8;
  }
  return bytes;
}

server::ServerOptions MakeOptions(const Options& opts,
                                  const std::vector<std::string>& batches) {
  server::ServerOptions so;
  so.session.threads = 1;
  so.session.index_cache_mb = kIndexCacheMb;
  so.admission.max_concurrent = kExecutors;
  so.wal.dir = opts.work_dir + "/ingest-views-" + std::to_string(opts.seed);
  so.wal.fsync = db::FsyncPolicy::kBatch;
  so.wal.batch_bytes = kWalBatchBytes;
  // The log rotates about six times over the writer stream, so every cycle
  // sees several compactions and each run dozens: read_p99_ms then sits well
  // inside the reads that waited out a compaction, not at their edge.
  so.wal.compact_bytes = StreamBytes(batches) / 6;
  return so;
}

struct Served {
  std::unique_ptr<server::QueryServer> server;
  server::Client writer;
  server::Client reader;

  Served() = default;
  Served(const Served&) = delete;
  Served& operator=(const Served&) = delete;
  ~Served() {
    writer.Close();
    reader.Close();
    if (server != nullptr) server->Stop();
  }
};

/// Fresh WAL directory, recover (empty), load, register the views, compact
/// so the log starts empty, start, connect, warm up.
std::unique_ptr<Served> SetUp(std::uint64_t seed,
                              const server::ServerOptions& so,
                              std::string* error) {
  std::error_code ec;
  std::filesystem::remove_all(so.wal.dir, ec);
  std::filesystem::create_directories(so.wal.dir, ec);
  auto s = std::make_unique<Served>();
  s->server = std::make_unique<server::QueryServer>(so);
  if (!s->server->Recover(error)) return nullptr;
  db::MvccDatabase& mvcc = s->server->database();
  Universe u = Generate(seed);
  for (auto& [name, rel] : u.relations) mvcc.SetRelation(name, std::move(rel));
  for (const ViewSpec& v : kViews) {
    db::MutationResult r = mvcc.RegisterView(Definition(v));
    if (!r) {
      *error = "view registration failed: " + r.message;
      return nullptr;
    }
  }
  db::MutationResult compacted = mvcc.CompactWal({});
  if (!compacted) {
    *error = "initial compaction failed: " + compacted.message;
    return nullptr;
  }
  if (!s->server->Start(error)) return nullptr;
  if (!s->writer.Connect("127.0.0.1", s->server->port(), error) ||
      !s->reader.Connect("127.0.0.1", s->server->port(), error)) {
    return nullptr;
  }
  for (const ViewSpec& v : kViews) {
    if (!ReadOk(s->reader.ViewRead(v.name))) {
      *error = std::string("warm-up view_read failed: ") + v.name;
      return nullptr;
    }
  }
  for (std::size_t i = 0; i < kPointRelations; ++i) {
    if (!ReadOk(s->reader.Query(PointQuery(i)))) {
      *error = "warm-up point query failed";
      return nullptr;
    }
  }
  return s;
}

/// The reader's repeating mix: the view named at slot i % 5, or a point
/// query where it is null. Point reads hold the middle of the latency order
/// (tri below, chain above), so the median read falls inside one kind's
/// latency band, not in the gap between two.
const char* const kReaderMix[] = {"chain", "tri", nullptr, "chain", "tri"};

server::QueryReply ReaderOp(server::Client* reader, std::size_t i) {
  const char* view = kReaderMix[i % std::size(kReaderMix)];
  return view != nullptr ? reader->ViewRead(view)
                         : reader->Query(PointQuery(i));
}

/// Relations (arity, flat data) and served view rows at one point in time.
struct State {
  std::map<std::string, std::pair<int, std::vector<db::Value>>> relations;
  std::map<std::string, std::string> views;
};

void CaptureRelations(const db::Database& db, State* state) {
  for (const std::string& name : db.RelationNames()) {
    state->relations[name] = {db.Arity(name), db.Flat(name).data()};
  }
}

std::string ServedViewRows(server::QueryServer* srv, const std::string& name) {
  api::Frame f;
  f.kind = "view_read";
  f.Add("id", "1").Add("name", name);
  std::string rows;
  for (const api::Frame& reply : srv->HandleRequest(f)) {
    if (reply.kind == "batch") rows += reply.body;
  }
  return rows;
}

/// Final view_read rows must equal RecomputeView at the same epoch; the
/// verified state is kept for the recovery check.
State VerifyViews(Served* served, Result* result) {
  State pre;
  db::MvccSnapshot snap = served->server->database().Snapshot();
  for (const ViewSpec& v : kViews) {
    server::QueryReply reply = served->reader.ViewRead(v.name);
    if (!ReadOk(reply) || reply.epoch != snap.epoch) {
      result->Fail(std::string("final view_read failed: ") + v.name);
      continue;
    }
    db::ViewRead want = db::RecomputeView(Definition(v), *snap.db, snap.epoch);
    if (!want.ok || FormatRows(want.rows) != reply.row_text) {
      result->Fail(std::string("view diverges from RecomputeView: ") + v.name);
    }
    pre.views[v.name] = reply.row_text;
  }
  CaptureRelations(*snap.db, &pre);
  return pre;
}

/// Recovers a fresh server from the stopped server's directory; it must
/// match `pre` bit for bit. Returns the Recover() time, view rebuild
/// included.
double RecoverAndVerify(const server::ServerOptions& so, const State& pre,
                        Result* result) {
  auto srv = std::make_unique<server::QueryServer>(so);
  std::string error;
  const Clock::time_point t = Clock::now();
  const bool ok = srv->Recover(&error);
  const double seconds = MsSince(t) / 1000;
  if (!ok) {
    result->Fail("recovery failed: " + error);
    return seconds;
  }
  State got;
  CaptureRelations(*srv->database().Snapshot().db, &got);
  if (got.relations != pre.relations) {
    result->Fail("recovered relations differ from the pre-stop state");
  }
  for (const auto& [name, rows] : pre.views) {
    if (ServedViewRows(srv.get(), name) != rows) {
      result->Fail("recovered view differs from the pre-stop state: " + name);
    }
  }
  return seconds;
}

void AddContext(const std::vector<std::string>& batches,
                const server::ServerOptions& so, Served* served,
                Result* result) {
  std::size_t tuples = 0;
  for (const std::string& b : batches) {
    tuples += static_cast<std::size_t>(std::count(b.begin(), b.end(), '\n')) -
              1;
  }
  result->Context("mode", "closed-loop writer, open-loop reader at " +
                              std::to_string(static_cast<int>(kReaderRps)) +
                              " req/s");
  result->Context("fsync", std::string(db::ToString(so.wal.fsync)) +
                               ", batch_bytes " +
                               std::to_string(so.wal.batch_bytes));
  result->Context("compact_bytes", std::to_string(so.wal.compact_bytes));
  result->Context("batches", std::to_string(batches.size()) + " (" +
                                 std::to_string(tuples) +
                                 " tuples), hub share " +
                                 std::to_string(kHubShare));
  result->Context("dataset",
                  "R=" + std::to_string(kChainHead) +
                      " S=" + std::to_string(kChainMiddle) + " (+" +
                      std::to_string(kHubKeys * kHubFanout) +
                      " hub rows) T=" + std::to_string(kChainTail) +
                      " over " + std::to_string(kDomain) +
                      ", E=" + std::to_string(kGraphEdges) + " over " +
                      std::to_string(kGraphVertices) + " vertices");
  result->Context("views", std::string("chain = ") + kChainView +
                               "; tri = triangle_count(E)");
  result->Context("admission_executors", std::to_string(kExecutors));
  result->Context("query_threads", "1");
  result->Context("index_cache_bytes", std::to_string(kIndexCacheMb << 20));
  std::vector<std::string> reads;
  for (std::size_t i = 0; i < kPointRelations; ++i) {
    reads.push_back(PointQuery(i));
  }
  result->Context(
      "trie_working_set_bytes",
      std::to_string(TrieWorkingSetBytes(
          reads, *served->server->database().Snapshot().db, 1)));
}

/// One cycle: a fresh server, the fixed writer stream beside the open-loop
/// reader, verification, stop, recovery from the same directory.
struct Cycle {
  std::vector<double> write_ms, read_ms, late_ms;
  std::uint64_t write_failed = 0, read_failed = 0;
  double setup_s = 0, writer_s = 0, recovery_s = 0;
};

Cycle RunCycle(const Options& opts, int index,
               const std::vector<std::string>& batches,
               const server::ServerOptions& so, Result* result) {
  Cycle cycle;
  const Clock::time_point t0 = Clock::now();
  std::string error;
  std::unique_ptr<Served> served = SetUp(opts.seed, so, &error);
  if (served == nullptr) {
    result->Fail("set-up failed: " + error);
    return cycle;
  }
  cycle.setup_s = MsSince(t0) / 1000;

  std::atomic<bool> writer_done{false};
  Clock::time_point writer_start = Clock::now(), writer_end = writer_start;
  std::thread writer([&] {
    writer_start = Clock::now();
    for (const std::string& body : batches) {
      const Clock::time_point t = Clock::now();
      server::MutateReply r = served->writer.Mutate(body, "abort");
      const bool ok = r.ok && !r.rejected && r.code == 0 && r.applied > 0;
      cycle.write_ms.push_back(ok ? MsSince(t) : kFailedLatencyMs);
      if (!ok) ++cycle.write_failed;
    }
    writer_end = Clock::now();
    writer_done.store(true);
  });
  std::thread reader([&] {
    util::Rng rng(kShapeSeed * 13 + static_cast<std::uint64_t>(index));
    Clock::time_point due = Clock::now();
    Clock::time_point free_at = due;
    for (std::size_t i = 0;; ++i) {
      due = After(due, -std::log(1.0 - rng.NextDouble()) / kReaderRps);
      std::this_thread::sleep_until(due);
      if (writer_done.load()) break;
      const Clock::time_point sent = Clock::now();
      cycle.late_ms.push_back(
          std::max(0.0, Ms(sent - std::max(due, free_at))));
      const bool ok = ReadOk(ReaderOp(&served->reader, i));
      free_at = Clock::now();
      cycle.read_ms.push_back(ok ? Ms(free_at - due) : kFailedLatencyMs);
      if (!ok) ++cycle.read_failed;
    }
  });
  writer.join();
  reader.join();
  cycle.writer_s = Ms(writer_end - writer_start) / 1000;

  const server::ServerStats stats = served->server->stats();
  if (stats.wal.compactions < 2) {
    result->Fail("fewer than 2 WAL compactions in a cycle");
  }
  const State pre = VerifyViews(served.get(), result);
  if (index == 0) {
    AddContext(batches, so, served.get(), result);
    result->Context("compactions_per_cycle",
                    std::to_string(stats.wal.compactions));
    for (const auto& [name, rows] : pre.views) {
      result->Context("final_view_rows." + name,
                      std::to_string(std::count(rows.begin(), rows.end(),
                                                '\n')));
    }
  }
  served.reset();  // Stop: the batch-fsync tail is synced on the way out.
  cycle.recovery_s = RecoverAndVerify(so, pre, result);
  std::error_code ec;
  std::filesystem::remove_all(so.wal.dir, ec);
  return cycle;
}

/// The child's side of RunCycleInChild: one line per sample or message.
std::string EncodeCycle(const Cycle& c, const Result& r) {
  std::string out;
  char line[96];
  auto samples = [&](char tag, const std::vector<double>& values) {
    for (double v : values) {
      std::snprintf(line, sizeof line, "%c %.17g\n", tag, v);
      out += line;
    }
  };
  samples('W', c.write_ms);
  samples('R', c.read_ms);
  samples('L', c.late_ms);
  std::snprintf(line, sizeof line, "S %.17g %.17g %.17g %llu %llu\n",
                c.setup_s, c.writer_s, c.recovery_s,
                static_cast<unsigned long long>(c.write_failed),
                static_cast<unsigned long long>(c.read_failed));
  out += line;
  for (const auto& [key, value] : r.context) {
    out += "C " + key + "\t" + value + "\n";
  }
  for (const std::string& e : r.errors) out += "E " + e + "\n";
  return out;
}

void DecodeCycle(const std::string& text, Cycle* c, Result* r) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.size() < 2) continue;
    const std::string rest = line.substr(2);
    switch (line[0]) {
      case 'W':
        c->write_ms.push_back(std::strtod(rest.c_str(), nullptr));
        break;
      case 'R':
        c->read_ms.push_back(std::strtod(rest.c_str(), nullptr));
        break;
      case 'L':
        c->late_ms.push_back(std::strtod(rest.c_str(), nullptr));
        break;
      case 'S': {
        unsigned long long wf = 0, rf = 0;
        std::sscanf(rest.c_str(), "%lf %lf %lf %llu %llu", &c->setup_s,
                    &c->writer_s, &c->recovery_s, &wf, &rf);
        c->write_failed = wf;
        c->read_failed = rf;
        break;
      }
      case 'C': {
        const std::size_t tab = rest.find('\t');
        r->Context(rest.substr(0, tab),
                   tab == std::string::npos ? "" : rest.substr(tab + 1));
        break;
      }
      case 'E':
        r->Fail(rest);
        break;
    }
  }
}

/// Runs one cycle in a forked child, so every cycle starts from a fresh heap
/// and its peak RSS is its own rather than the allocator history of the
/// cycles before it. The caller has no threads running. Returns the child's
/// peak RSS in MiB.
double RunCycleInChild(const Options& opts, int index,
                       const std::vector<std::string>& batches,
                       const server::ServerOptions& so, Cycle* cycle,
                       Result* result) {
  int fds[2];
  if (::pipe(fds) != 0) {
    result->Fail("pipe failed");
    return 0;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    result->Fail("fork failed");
    return 0;
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // Never outlive the benchmark.
    ::close(fds[0]);
    Result local;
    const std::string out =
        EncodeCycle(RunCycle(opts, index, batches, so, &local), local);
    std::size_t done = 0;
    while (done < out.size()) {
      const ssize_t n = ::write(fds[1], out.data() + done, out.size() - done);
      if (n <= 0) ::_exit(3);
      done += static_cast<std::size_t>(n);
    }
    ::_exit(0);
  }
  ::close(fds[1]);
  std::string text;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n <= 0) break;
    text.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  rusage usage{};
  ::wait4(pid, &status, 0, &usage);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    result->Fail("cycle " + std::to_string(index) + " process failed");
    return 0;
  }
  DecodeCycle(text, cycle, result);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB.
}

Result TimedRun(const Options& opts) {
  Result result;
  const std::vector<std::string> batches =
      Batches(Generate(opts.seed), kBatchesPerCycle);
  const server::ServerOptions so = MakeOptions(opts, batches);
  // The same fixed stream, repeated: more samples per run, medians across
  // cycles, and a state size that does not depend on the run length.
  const Clock::time_point deadline = After(Clock::now(), opts.seconds);
  std::vector<double> write_ms, read_ms, late_ms;
  std::vector<double> setup_s, mut_s, recovery_s, read_qps, peak_rss_mb;
  int cycles = 0;
  for (; cycles < kMinCycles || Clock::now() < deadline; ++cycles) {
    Cycle cycle;
    peak_rss_mb.push_back(
        RunCycleInChild(opts, cycles, batches, so, &cycle, &result));
    if (!result.correct) break;
    write_ms.insert(write_ms.end(), cycle.write_ms.begin(),
                    cycle.write_ms.end());
    read_ms.insert(read_ms.end(), cycle.read_ms.begin(), cycle.read_ms.end());
    late_ms.insert(late_ms.end(), cycle.late_ms.begin(), cycle.late_ms.end());
    setup_s.push_back(cycle.setup_s);
    recovery_s.push_back(cycle.recovery_s);
    mut_s.push_back(static_cast<double>(batches.size() - cycle.write_failed) /
                    cycle.writer_s);
    read_qps.push_back(
        static_cast<double>(cycle.read_ms.size() - cycle.read_failed) /
        cycle.writer_s);
    result.attempted += cycle.write_ms.size() + cycle.read_ms.size();
    result.failed += cycle.write_failed + cycle.read_failed;
  }
  result.Context("cycles", std::to_string(cycles));
  result.Context("read_samples", std::to_string(read_ms.size()));

  const double late_p99 = Percentile(late_ms, 0.99);
  result.AddExtra("gen.late_ms.p99", late_p99, "ms");
  result.AddExtra("write_p50_ms", WindowedPercentile(write_ms, 0.5), "ms");
  result.AddExtra("write_p99_ms", WindowedPercentile(write_ms, 0.99), "ms");
  result.AddExtra("write_mut_s", Median(mut_s), "1/s");
  result.AddExtra("recovery_s", Median(recovery_s), "s");
  if (late_p99 > kLateLimitMs) {
    result.Fail("invalid run: reader lateness p99 " +
                std::to_string(late_p99) + " ms exceeds " +
                std::to_string(kLateLimitMs) + " ms");
  }
  result.Add("read_p50_ms", WindowedPercentile(read_ms, 0.5), "ms");
  result.Add("read_p99_ms", WindowedPercentile(read_ms, 0.99), "ms");
  result.Add("read_qps", Median(read_qps), "1/s");
  result.Add("setup_s", Median(setup_s), "s");
  result.Add("peak_rss_mb", Median(peak_rss_mb), "MB");
  return result;
}

/// Replays the writer stream one batch at a time, with one reader op after
/// every third batch. Writes go through MvccDatabase::MutateLoggedInPlace
/// on the server's own database (WAL and views attached) for the commit
/// time, and through a shadow Database + Wal + ViewRegistry, one layer call
/// at a time, for the stage / append / OnCommit split.
Result TracedRun(const Options& opts) {
  Result result;
  const std::vector<std::string> batches =
      Batches(Generate(opts.seed), kBatchesPerCycle);
  const server::ServerOptions so = MakeOptions(opts, batches);
  std::string error;
  std::unique_ptr<Served> served = SetUp(opts.seed, so, &error);
  if (served == nullptr) {
    result.Fail("set-up failed: " + error);
    return result;
  }
  server::QueryServer& srv = *served->server;
  db::MvccDatabase& mvcc = srv.database();

  db::Database shadow = mvcc.Snapshot().db->Clone();
  db::ViewRegistry shadow_views;
  std::uint64_t shadow_epoch = 0;
  for (const ViewSpec& v : kViews) {
    shadow_views.Register(Definition(v), shadow, shadow_epoch);
  }
  db::WalOptions shadow_opts = so.wal;
  shadow_opts.dir = so.wal.dir + "-shadow";
  shadow_opts.compact_bytes = 0;
  std::error_code ec;
  std::filesystem::remove_all(shadow_opts.dir, ec);
  db::Wal shadow_wal;
  if (!shadow_wal.Open(shadow_opts, &error)) {
    result.Fail("shadow WAL open failed: " + error);
    return result;
  }

  const server::ServerStats before = srv.stats();
  const db::IvmStats ivm_before = shadow_views.stats();
  db::IndexCache mirror(kIndexCacheMb << 20);
  std::vector<RouteProbe> probes;
  std::vector<double> commit_us, compact_ms, stage_us, append_us, sync_ms;
  std::vector<double> on_commit_us, view_read_us, queue, exec, overhead,
      snapshot_us, encode_us;
  std::map<std::string, double> methods;
  double layer_ms = 0, request_ms = 0, arena_max = 0, reply_bytes = 0;
  std::uint64_t reads = 0, updates = 0;
  const Clock::time_point deadline = After(Clock::now(), opts.seconds);

  for (std::size_t i = 0; i < batches.size(); ++i) {
    if (Clock::now() > deadline) break;
    const std::string& body = batches[i];
    const db::WalRecord record = DatasetRecord(body);
    ++result.attempted;

    api::DatasetStaging staging;
    Clock::time_point t = Clock::now();
    db::MutationResult committed = mvcc.MutateLoggedInPlace(
        record,
        [&](const db::Database& live) {
          staging = api::StageDataset(body, live, false);
          return staging.load.ok ? db::MutationResult::Ok()
                                 : db::MutationResult::Fail("rejected");
        },
        [&](db::Database& live) { return api::ApplyDataset(&staging, &live); });
    const double commit = UsSince(t);
    commit_us.push_back(commit);
    if (!committed) ++result.failed;
    t = Clock::now();
    std::string compact_error;
    if (mvcc.MaybeCompactWal({}, &compact_error)) {
      compact_ms.push_back(MsSince(t));
    }

    // The same write, one layer at a time, on the shadow pipeline.
    t = Clock::now();
    api::DatasetStaging shadow_staging = api::StageDataset(body, shadow, false);
    const double stage = UsSince(t);
    stage_us.push_back(stage);
    const std::uint64_t syncs = shadow_wal.stats().syncs;
    t = Clock::now();
    const bool appended = shadow_wal.Append(record, &error);
    const double append = UsSince(t);
    append_us.push_back(append);
    if (shadow_wal.stats().syncs > syncs) sync_ms.push_back(append / 1000);
    std::vector<db::RelationDelta> deltas;
    for (const auto& block : shadow_staging.blocks) {
      deltas.push_back({block.relation, db::RelationDelta::Kind::kAppend,
                        shadow.NumTuples(block.relation)});
    }
    t = Clock::now();
    const bool applied = appended && shadow_staging.load.ok &&
                         api::ApplyDataset(&shadow_staging, &shadow);
    const double apply = UsSince(t);
    if (!applied) {
      ++result.failed;
      continue;
    }
    t = Clock::now();
    shadow_views.OnCommit(shadow, ++shadow_epoch, deltas);
    const double on_commit = UsSince(t);
    on_commit_us.push_back(on_commit);
    ++updates;
    layer_ms += (stage + append + apply + on_commit) / 1000;
    request_ms += commit / 1000;

    if (i % 3 != 2) continue;
    ++reads;
    const std::size_t op = i / 3;
    if (const char* name = kReaderMix[op % std::size(kReaderMix)]) {
      t = Clock::now();
      shadow_views.Read(name);
      const double read = UsSince(t);
      view_read_us.push_back(read);
      t = Clock::now();
      server::QueryReply reply = served->reader.ViewRead(name);
      const double rtt = MsSince(t);
      if (!ReadOk(reply)) ++result.failed;
      // The view reply's frames, encoded and parsed back.
      api::Frame request;
      request.kind = "view_read";
      request.Add("id", "1").Add("name", name);
      std::size_t bytes = 0;
      bool decoded = false;
      const double enc =
          EncodeRoundTripUs(srv.HandleRequest(request), &bytes, &decoded);
      if (!decoded) ++result.failed;
      layer_ms += (read + enc) / 1000;
      request_ms += rtt;
      continue;
    }
    const std::string text = PointQuery(op);
    t = Clock::now();
    db::MvccSnapshot snap = mvcc.Snapshot();
    const double snap_us = UsSince(t);
    snapshot_us.push_back(snap_us);
    const RouteProbe probe = ProbeRoute(text, *snap.db, &mirror, 1);
    probes.push_back(probe);
    t = Clock::now();
    server::QueryReply reply = served->reader.Query(text);
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
    methods[reply.method] += 1;
    arena_max = std::max(
        arena_max, JsonNumber(reply.report_json, "arena_high_water_bytes"));
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

  const server::ServerStats after = srv.stats();
  const db::IvmStats ivm_after = shadow_views.stats();
  const double point_reads = std::max<double>(1, probes.size());
  const double records = static_cast<double>(after.wal.records_appended -
                                             before.wal.records_appended);
  result.Add("server.queue_ms.p50", Percentile(queue, 0.5), "ms");
  result.Add("server.queue_ms.p99", Percentile(queue, 0.99), "ms");
  result.Add("server.exec_ms.p50", Percentile(exec, 0.5), "ms");
  result.Add("server.overhead_ms.p50", Percentile(overhead, 0.5), "ms");
  result.Add("server.rejected",
             static_cast<double>(after.admission.rejected +
                                 after.admission.timed_out),
             "count");
  result.Add("server.queue_sheds", static_cast<double>(after.queue_sheds),
             "count");
  result.Add("server.reply_bytes_per_read", reply_bytes / point_reads,
             "bytes");
  result.Add("api.encode_us", Percentile(encode_us, 0.5), "us");
  result.Add("api.stage_us", Percentile(stage_us, 0.5), "us");
  const double hits =
      static_cast<double>(after.cache.hits - before.cache.hits);
  const double misses =
      static_cast<double>(after.cache.misses - before.cache.misses);
  result.Add("index_cache.hit_ratio",
             hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  result.Add("index_cache.evictions",
             static_cast<double>(after.cache.evictions -
                                 before.cache.evictions),
             "count");
  result.Add("core.method_share.generic_join",
             methods["generic-join"] / point_reads, "ratio");
  result.Add("core.method_share.yannakakis",
             methods["yannakakis"] / point_reads, "ratio");
  result.Add("core.method_share.hybrid", methods["hybrid-join"] / point_reads,
             "ratio");
  result.Add("mvcc.snapshot_us", Percentile(snapshot_us, 0.5), "us");
  result.Add("mvcc.snapshot_builds_per_read",
             static_cast<double>(after.mvcc.snapshot_builds -
                                 before.mvcc.snapshot_builds) /
                 std::max<double>(1, reads),
             "ratio");
  result.Add("mvcc.commit_us.p50", Percentile(commit_us, 0.5), "us");
  result.Add("mvcc.commit_us.p99", Percentile(commit_us, 0.99), "us");
  result.Add("wal.append_us.p50", Percentile(append_us, 0.5), "us");
  result.Add("wal.sync_ms.p99", Percentile(sync_ms, 0.99), "ms");
  result.Add("wal.compact_ms", Mean(compact_ms), "ms");
  result.Add("wal.bytes_per_mutation",
             records > 0 ? static_cast<double>(after.wal.bytes_appended -
                                               before.wal.bytes_appended) /
                               records
                         : 0.0,
             "bytes");
  result.Add("wal.syncs",
             static_cast<double>(after.wal.syncs - before.wal.syncs), "count");
  result.Add("wal.compactions",
             static_cast<double>(after.wal.compactions -
                                 before.wal.compactions),
             "count");
  const double nupdates = std::max<double>(1, updates);
  result.Add("ivm.on_commit_us.p50", Percentile(on_commit_us, 0.5), "us");
  result.Add("ivm.on_commit_us.p99", Percentile(on_commit_us, 0.99), "us");
  result.Add("ivm.rows_per_update",
             static_cast<double>(ivm_after.rows_delta_applied -
                                 ivm_before.rows_delta_applied) /
                 nupdates,
             "rows");
  result.Add("ivm.sweeps_per_update",
             static_cast<double>(ivm_after.dirty_subtree_sweeps -
                                 ivm_before.dirty_subtree_sweeps) /
                 nupdates,
             "ratio");
  result.Add("ivm.full_recomputes",
             static_cast<double>(ivm_after.full_recomputes -
                                 ivm_before.full_recomputes),
             "count");
  result.Add("ivm.read_us", Percentile(view_read_us, 0.5), "us");
  AddRouteMetrics(probes, &result);
  AddKernelMetrics(opts.seed,
                   DistinctValues(mvcc.Snapshot().db->Flat("S"), 0),
                   kChainMiddle, 1, &result);
  result.Add("arena.high_water_mb", arena_max / (1 << 20), "MB");
  result.Add("trace.coverage_ratio",
             request_ms > 0 ? layer_ms / request_ms : 0.0, "ratio");
  // Traced: a view read right after the benchmark's own registry probe;
  // plain: the same read alone.
  result.Add("trace.overhead_pct",
             OverheadPct(
                 40,
                 [&] {
                   const Clock::time_point t = Clock::now();
                   served->reader.ViewRead("tri");
                   return MsSince(t);
                 },
                 [&] {
                   shadow_views.Read("tri");
                   const Clock::time_point t = Clock::now();
                   served->reader.ViewRead("tri");
                   return MsSince(t);
                 }),
             "%");

  served.reset();
  std::uint64_t replayed = 0;
  const Clock::time_point t = Clock::now();
  const db::WalRecovery rec =
      db::Wal::Replay(so.wal, [&](const db::WalRecord&) {
        ++replayed;
        return db::MutationResult::Ok();
      });
  const double replay_s = MsSince(t) / 1000;
  if (!rec.ok) result.Fail("WAL replay failed: " + rec.error);
  result.Add("wal.replay_records_per_s",
             replay_s > 0 ? static_cast<double>(replayed) / replay_s : 0.0,
             "1/s");
  shadow_wal.Close();
  std::filesystem::remove_all(so.wal.dir, ec);
  std::filesystem::remove_all(shadow_opts.dir, ec);
  result.Context("replayed_batches", std::to_string(updates));
  return result;
}

}  // namespace

Result RunIngestViews(const Options& opts) {
  return opts.trace ? TracedRun(opts) : TimedRun(opts);
}

}  // namespace qc::perfbench
