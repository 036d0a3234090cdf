#include "api/session_options.h"

#include <cstring>

#include "util/parse.h"

namespace qc::api {

namespace {

bool ParseU64(std::string_view value, std::uint64_t* out) {
  if (value.empty() || value.size() > 20) return false;
  std::uint64_t v = 0;
  for (char c : value) {
    if (c < '0' || c > '9') return false;
    std::uint64_t next = v * 10 + static_cast<std::uint64_t>(c - '0');
    if (next < v) return false;  // Overflow.
    v = next;
  }
  *out = v;
  return true;
}

bool BadValue(const char* flag, std::string_view value, std::string* error) {
  *error = std::string(flag) + ": bad value '" +
           util::ClipForError(value) + "'";
  return false;
}

bool SetThreads(SessionOptions& o, std::string_view v, std::string* error) {
  std::uint64_t n;
  if (!ParseU64(v, &n) || n > 4096) return BadValue("--threads", v, error);
  o.threads = static_cast<int>(n);
  return true;
}

bool SetDeadlineMs(SessionOptions& o, std::string_view v, std::string* error) {
  if (!ParseU64(v, &o.deadline_ms)) return BadValue("--deadline-ms", v, error);
  return true;
}

bool SetMaxRows(SessionOptions& o, std::string_view v, std::string* error) {
  if (!ParseU64(v, &o.max_rows)) return BadValue("--max-rows", v, error);
  return true;
}

bool SetIndexCacheMb(SessionOptions& o, std::string_view v,
                     std::string* error) {
  // Cap at 1 TiB so `<< 20` can never overflow size_t on 64-bit.
  if (!ParseU64(v, &o.index_cache_mb) || o.index_cache_mb > (1u << 20)) {
    return BadValue("--index-cache-mb", v, error);
  }
  return true;
}

bool SetReportJson(SessionOptions& o, std::string_view v, std::string* error) {
  if (v.empty()) return BadValue("--report-json", v, error);
  o.report_json = std::string(v);
  return true;
}

bool SetOnInputError(SessionOptions& o, std::string_view v,
                     std::string* error) {
  if (v == "abort") {
    o.continue_on_input_error = false;
  } else if (v == "continue") {
    o.continue_on_input_error = true;
  } else {
    return BadValue("--on-input-error", v, error);
  }
  return true;
}

bool SetHybrid(SessionOptions& o, std::string_view v, std::string* error) {
  if (v == "auto") {
    o.hybrid = HybridMode::kAuto;
  } else if (v == "on") {
    o.hybrid = HybridMode::kOn;
  } else if (v == "off") {
    o.hybrid = HybridMode::kOff;
  } else {
    return BadValue("--hybrid", v, error);
  }
  return true;
}

bool SetHybridDelta(SessionOptions& o, std::string_view v,
                    std::string* error) {
  std::uint64_t n;
  if (!ParseU64(v, &n) || n > (1ull << 62)) {
    return BadValue("--hybrid-delta", v, error);
  }
  o.hybrid_delta = static_cast<std::int64_t>(n);
  return true;
}

}  // namespace

const std::vector<SessionOptionSpec>& SessionOptionTable() {
  static const std::vector<SessionOptionSpec> kTable = {
      {"--threads", "threads", "N",
       "worker threads for parallel engines (0 = QC_THREADS)", SetThreads},
      {"--deadline-ms", "deadline_ms", "N",
       "wall-clock cap in milliseconds (exit 4 on trip)", SetDeadlineMs},
      {"--max-rows", "max_rows", "N",
       "output-row cap (exit 5 on trip)", SetMaxRows},
      {"--index-cache-mb", "index_cache_mb", "N",
       "shared trie-index cache capacity in MiB (0 = off)", SetIndexCacheMb},
      {"--report-json", "report_json", "FILE",
       "write a machine-readable RunReport", SetReportJson},
      {"--on-input-error", "on_input_error", "abort|continue",
       "dataset error handling: reject everything or skip bad rows",
       SetOnInputError},
      {"--hybrid", "hybrid", "auto|on|off",
       "degree-split MM/WCOJ hybrid planner routing", SetHybrid},
      {"--hybrid-delta", "hybrid_delta", "N",
       "hybrid degree threshold override (0 = auto)", SetHybridDelta},
  };
  return kTable;
}

int ParseSessionFlag(int argc, char* const* argv, int i, SessionOptions* opts,
                     std::string* error) {
  for (const SessionOptionSpec& spec : SessionOptionTable()) {
    if (std::strcmp(argv[i], spec.flag) != 0) continue;
    if (i + 1 >= argc) {
      *error = std::string(spec.flag) + ": missing value";
      return -1;
    }
    if (!spec.set(*opts, argv[i + 1], error)) return -1;
    return 2;
  }
  return 0;
}

bool SetSessionOption(SessionOptions* opts, std::string_view key,
                      std::string_view value, std::string* error) {
  for (const SessionOptionSpec& spec : SessionOptionTable()) {
    if (key == spec.key) return spec.set(*opts, value, error);
  }
  *error = "unknown option '" + util::ClipForError(key) + "'";
  return false;
}

std::string SessionFlagsUsage() {
  std::string usage;
  for (const SessionOptionSpec& spec : SessionOptionTable()) {
    usage += std::string(" [") + spec.flag + " " + spec.value_name + "]";
  }
  return usage;
}

void SessionOptions::ApplyTo(ExecutionContext* ctx) const {
  ctx->threads = threads;
  ctx->hybrid_mode = hybrid;
  ctx->hybrid_delta = hybrid_delta;
}

std::shared_ptr<util::Budget> SessionOptions::MakeBudget() const {
  auto budget = std::make_shared<util::Budget>();
  if (deadline_ms > 0) {
    budget->ArmDeadlineAfter(static_cast<double>(deadline_ms) / 1000.0);
  }
  if (max_rows > 0) budget->ArmRowLimit(max_rows);
  return budget;
}

std::unique_ptr<db::IndexCache> SessionOptions::MakeIndexCache() const {
  if (index_cache_mb == 0) return nullptr;
  return std::make_unique<db::IndexCache>(
      static_cast<std::size_t>(index_cache_mb) << 20);
}

}  // namespace qc::api
