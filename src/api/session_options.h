#ifndef QC_API_SESSION_OPTIONS_H_
#define QC_API_SESSION_OPTIONS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/context.h"
#include "db/index_cache.h"
#include "util/budget.h"

namespace qc::api {

/// The one knob surface every front end shares: qc_serverd's session
/// defaults, query_cli's and fpt_toolbox's command lines, and the wire
/// protocol's per-request `option` fields are all this struct, parsed by
/// the single option table in session_options.cc. A tool never hand-rolls
/// `--deadline-ms` again; it loops ParseSessionFlag over argv and keeps its
/// genuinely private flags for itself.
struct SessionOptions {
  /// Worker threads for parallel engines (0 = QC_THREADS env, default 1).
  int threads = 0;
  /// Wall-clock cap per run in milliseconds (0 = none; exit code 4).
  std::uint64_t deadline_ms = 0;
  /// Output-row cap per run (0 = unlimited; exit code 5 on trip).
  std::uint64_t max_rows = 0;
  /// Shared trie-index cache capacity in MiB (0 = no cache).
  std::uint64_t index_cache_mb = 0;
  /// Where to write the machine-readable RunReport ("" = don't).
  std::string report_json;
  /// Dataset-input error handling: false = abort (reject the whole input,
  /// apply nothing), true = continue (apply valid rows, skip and report
  /// each bad one). See api::LoadDataset.
  bool continue_on_input_error = false;
  /// Degree-split hybrid MM/WCOJ planner routing (DESIGN.md §15): kAuto
  /// lets the autosolver pick, kOn forces the hybrid on every recognized
  /// pattern, kOff disables it.
  HybridMode hybrid = HybridMode::kAuto;
  /// Degree threshold Δ override for the hybrid split (0 = auto).
  std::int64_t hybrid_delta = 0;

  /// Copies the execution knobs onto a context (threads; budget limits are
  /// resolved through MakeBudget so callers can share one budget).
  void ApplyTo(ExecutionContext* ctx) const;

  /// A fresh budget armed with deadline_ms/max_rows (never null).
  std::shared_ptr<util::Budget> MakeBudget() const;

  /// An index cache of index_cache_mb MiB, or null when disabled.
  std::unique_ptr<db::IndexCache> MakeIndexCache() const;
};

/// One row of the shared option table; exposed so help text, CLI parsing
/// and wire-option validation all come from the same place.
struct SessionOptionSpec {
  const char* flag;        ///< CLI spelling, e.g. "--deadline-ms".
  const char* key;         ///< Wire/requests spelling, e.g. "deadline_ms".
  const char* value_name;  ///< Placeholder for usage text, e.g. "N".
  const char* help;        ///< One-line description.
  /// Parses `value` into `opts`; false (error filled) on a bad value.
  bool (*set)(SessionOptions& opts, std::string_view value,
              std::string* error);
};

const std::vector<SessionOptionSpec>& SessionOptionTable();

/// Tries to consume argv[i] (+ its value) as a session flag. Returns the
/// number of argv slots consumed (2 for every current flag), 0 when argv[i]
/// is not a session flag, or -1 on a malformed value (error filled, e.g.
/// "--deadline-ms: bad value 'x'").
int ParseSessionFlag(int argc, char* const* argv, int i, SessionOptions* opts,
                     std::string* error);

/// Sets one option by wire key ("deadline_ms", "max_rows", ...). False with
/// `error` filled for unknown keys or bad values.
bool SetSessionOption(SessionOptions* opts, std::string_view key,
                      std::string_view value, std::string* error);

/// " [--threads N] [--deadline-ms N] ..." — for usage lines.
std::string SessionFlagsUsage();

}  // namespace qc::api

#endif  // QC_API_SESSION_OPTIONS_H_
