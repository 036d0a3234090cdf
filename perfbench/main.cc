// qc_perfbench: runs one workload of the qc benchmark and prints its result.
// perfbench/run.py builds it from source and starts it:
//
//   python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 10
//       --trace 0
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics with --trace 0, every per-layer metric
// with --trace 1. The line before it carries the context block and the
// workload-specific end-to-end metrics. Exit code 1 means a verification
// failed or the run was invalid, 2 a usage error.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"
#include "kernels/dispatch.h"
#include "util/json.h"

namespace {

using namespace qc::perfbench;

int Usage(const std::string& message) {
  std::fprintf(stderr,
               "qc_perfbench: %s\n"
               "usage: qc_perfbench --workload serve-mixed|ingest-views|"
               "skewed-analytics --seed N --seconds S --trace 0|1\n"
               "                    [--work-dir DIR] [--git-sha SHA] "
               "[--src-lines N]\n",
               message.c_str());
  return 2;
}

bool ParseArgs(int argc, char** argv, Options* opts, std::string* error) {
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[i + 1];
    char* end = nullptr;
    bool ok = true;
    if (flag == "--workload") {
      opts->workload = value;
    } else if (flag == "--seed") {
      opts->seed = std::strtoull(value.c_str(), &end, 10);
      ok = !value.empty() && *end == '\0';
    } else if (flag == "--seconds") {
      opts->seconds = std::strtod(value.c_str(), &end);
      ok = *end == '\0' && opts->seconds > 0 && opts->seconds <= 120;
    } else if (flag == "--trace") {
      ok = value == "0" || value == "1";
      opts->trace = value == "1";
    } else if (flag == "--work-dir") {
      opts->work_dir = value;
    } else if (flag == "--git-sha") {
      opts->git_sha = value;
    } else if (flag == "--src-lines") {
      opts->src_lines = std::strtoull(value.c_str(), &end, 10);
      ok = !value.empty() && *end == '\0';
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
    if (!ok) {
      *error = "bad value '" + value + "' for " + flag;
      return false;
    }
  }
  if (opts->workload.empty()) {
    *error = "--workload is required";
    return false;
  }
  return true;
}

void EmitMetrics(qc::util::JsonWriter& w, const std::vector<Metric>& metrics) {
  w.BeginObject();
  for (const Metric& m : metrics) {
    w.Key(m.name).BeginObject();
    w.Key("value").Double(m.value);
    w.Key("unit").String(m.unit);
    w.EndObject();
  }
  w.EndObject();
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  std::string error;
  if (!ParseArgs(argc, argv, &opts, &error)) return Usage(error);

  Result result;
  if (opts.workload == "serve-mixed") {
    result = RunServeMixed(opts);
  } else if (opts.workload == "ingest-views") {
    result = RunIngestViews(opts);
  } else if (opts.workload == "skewed-analytics") {
    result = RunSkewedAnalytics(opts);
  } else {
    return Usage("unknown workload " + opts.workload);
  }

  result.Context("seed", std::to_string(opts.seed));
  result.Context("git_sha", opts.git_sha);
  result.Context("simd_level", qc::kernels::SimdLevelName(
                                   qc::kernels::ActiveSimdLevel()));
  result.Context("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  result.Context("src_lines", std::to_string(opts.src_lines));
  result.Context("note",
                 "shared container: other tenants share the cores, memory "
                 "and disk, so the figures carry their noise and are not "
                 "those of a dedicated machine");

  std::vector<Metric> contract;
  if (opts.trace) {
    for (const auto& [name, unit] : LayerMetricTable()) {
      double value = 0;
      for (const Metric& m : result.metrics) {
        if (m.name == name) value = m.value;
      }
      contract.push_back({name, value, unit});
    }
  } else {
    contract = result.metrics;
  }

  std::printf("== qc perfbench  workload=%s seed=%llu seconds=%g trace=%d\n",
              opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.seconds,
              opts.trace ? 1 : 0);
  for (const auto& [key, value] : result.context) {
    std::printf("  context  %-28s %s\n", key.c_str(), value.c_str());
  }
  for (const Metric& m : result.extra) {
    std::printf("  workload %-33s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const Metric& m : contract) {
    std::printf("  metric   %-33s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("  attempted %llu failed %llu correct %s\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              result.correct ? "yes" : "NO");
  for (const std::string& e : result.errors) {
    std::printf("  FAILED   %s\n", e.c_str());
  }

  qc::util::JsonWriter detail;
  detail.BeginObject();
  detail.Key("workload").String(opts.workload);
  detail.Key("context").BeginObject();
  for (const auto& [key, value] : result.context) {
    detail.Key(key).String(value);
  }
  detail.EndObject();
  detail.Key("workload_metrics");
  EmitMetrics(detail, result.extra);
  detail.Key("errors").BeginArray();
  for (const std::string& e : result.errors) detail.String(e);
  detail.EndArray();
  detail.EndObject();
  std::printf("%s\n", detail.str().c_str());

  qc::util::JsonWriter w;
  w.BeginObject();
  w.Key("correct").Bool(result.correct);
  w.Key("attempted").Uint(std::max<std::uint64_t>(1, result.attempted));
  w.Key("failed").Uint(result.failed);
  w.Key("metrics");
  EmitMetrics(w, contract);
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
