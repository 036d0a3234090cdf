#include "db/hybrid_join.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <unordered_map>
#include <utility>

#include "db/generic_join.h"
#include "kernels/boolmm.h"
#include "util/trace.h"

namespace qc::db {

namespace {

/// True when work should stop (one work unit charged, budget tripped).
bool ChargeAndPoll(util::Budget* budget) {
  return budget != nullptr && budget->ChargeWork(1);
}

/// Set bits of `words[0..n)` as dense indices, in ascending order.
template <class Visit>
void ForEachBit(const std::uint64_t* words, std::size_t n, Visit&& visit) {
  for (std::size_t w = 0; w < n; ++w) {
    std::uint64_t bits = words[w];
    while (bits != 0) {
      visit(static_cast<int>(w * 64) + __builtin_ctzll(bits));
      bits &= bits - 1;
    }
  }
}

bool AnyBit(const std::uint64_t* words, std::size_t n) {
  for (std::size_t w = 0; w < n; ++w) {
    if (words[w] != 0) return true;
  }
  return false;
}

std::uint64_t PopcountWords(const std::uint64_t* words, std::size_t n) {
  std::uint64_t total = 0;
  for (std::size_t w = 0; w < n; ++w) {
    total += static_cast<std::uint64_t>(__builtin_popcountll(words[w]));
  }
  return total;
}

/// Occurrence counts of one raw column: a flat array over the column's
/// value range when that range is compact (the common vertex-id case), a
/// hash map otherwise. Duplicate base rows count once each.
class ColumnDegrees {
 public:
  ColumnDegrees(const FlatRelation& rows, int col) {
    if (rows.empty()) return;
    Value lo = rows.At(0, col), hi = lo;
    for (std::size_t r = 1; r < rows.size(); ++r) {
      lo = std::min(lo, rows.At(r, col));
      hi = std::max(hi, rows.At(r, col));
    }
    // hi - lo in unsigned arithmetic, compared before adding 1: a column
    // spanning INT64_MIN..INT64_MAX has span 2^64 - 1 and takes the hash
    // path instead of wrapping to an empty count array.
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
    if (span < 4 * rows.size() + 1024) {
      lo_ = lo;
      dense_.assign(static_cast<std::size_t>(span) + 1, 0);
      for (std::size_t r = 0; r < rows.size(); ++r) {
        ++dense_[Offset(rows.At(r, col))];
      }
    } else {
      for (std::size_t r = 0; r < rows.size(); ++r) ++sparse_[rows.At(r, col)];
    }
    min_count_ = std::numeric_limits<std::int64_t>::max();
    ForEach([&](Value, std::int64_t c) {
      min_count_ = std::min(min_count_, c);
    });
  }

  std::int64_t Of(Value value) const {
    if (!dense_.empty()) {
      const std::uint64_t off = Offset(value);
      return off < dense_.size() ? dense_[off] : 0;
    }
    auto it = sparse_.find(value);
    return it == sparse_.end() ? 0 : it->second;
  }

  /// Smallest count of a value present in the column; 0 when it is empty.
  std::int64_t min_count() const { return min_count_; }

  /// visit(value, count) for every value present in the column.
  template <class Visit>
  void ForEach(Visit&& visit) const {
    for (std::size_t i = 0; i < dense_.size(); ++i) {
      if (dense_[i] > 0) visit(lo_ + static_cast<Value>(i), dense_[i]);
    }
    for (const auto& [value, c] : sparse_) visit(value, c);
  }

 private:
  std::uint64_t Offset(Value value) const {
    return static_cast<std::uint64_t>(value) - static_cast<std::uint64_t>(lo_);
  }

  Value lo_ = 0;
  std::vector<std::int64_t> dense_;
  std::unordered_map<Value, std::int64_t> sparse_;
  std::int64_t min_count_ = 0;
};

/// Auto mode leaves instances with fewer atom rows than this to
/// GenericJoin: building the core costs more than it can save there.
constexpr std::size_t kMinCoreRows = 256;

/// Cost of one 64-bit word-AND of the heavy descent, in units of one
/// GenericJoin leapfrog step; fitted on the E20 triangle rows.
constexpr double kWordAndCost = 0.2;

}  // namespace

std::string ToString(HybridPattern pattern) {
  switch (pattern) {
    case HybridPattern::kNone:
      return "none";
    case HybridPattern::kTriangle:
      return "triangle";
    case HybridPattern::kFourCycle:
      return "4-cycle";
    case HybridPattern::kFourClique:
      return "4-clique";
    case HybridPattern::kFiveClique:
      return "5-clique";
  }
  return "?";
}

HybridPattern DetectHybridPattern(const JoinQuery& query) {
  const std::vector<std::string> attrs = query.AttributeOrder();
  const int k = static_cast<int>(attrs.size());
  if (k < 3 || k > 5 || query.atoms.empty()) return HybridPattern::kNone;
  const std::map<std::string, int> index = query.AttributeIndex();
  std::set<std::pair<int, int>> pairs;
  for (const Atom& atom : query.atoms) {
    // Arity 2 over two distinct attributes: F(a,a,b) names two attributes
    // but its columns 0 and 1 are not the pair (a, b).
    const std::vector<std::string>& a = atom.attributes;
    if (a.size() != 2 || a[0] == a[1]) return HybridPattern::kNone;
    int u = index.at(a[0]);
    int v = index.at(a[1]);
    if (u > v) std::swap(u, v);
    // A repeated pair would double-count in the disjoint partition.
    if (!pairs.insert({u, v}).second) return HybridPattern::kNone;
  }
  const std::size_t all = static_cast<std::size_t>(k) * (k - 1) / 2;
  if (pairs.size() == all) {
    if (k == 3) return HybridPattern::kTriangle;
    if (k == 4) return HybridPattern::kFourClique;
    return HybridPattern::kFiveClique;
  }
  if (k == 4 && pairs.size() == 4) {
    // 4 distinct pairs on 4 attributes with every attribute in exactly two
    // atoms is necessarily a single 4-cycle (two 2-cycles would need a
    // repeated pair, a triangle-plus-pendant has a degree-1 attribute).
    int deg[4] = {0, 0, 0, 0};
    for (const auto& [u, v] : pairs) {
      ++deg[u];
      ++deg[v];
    }
    for (int d : deg) {
      if (d != 2) return HybridPattern::kNone;
    }
    return HybridPattern::kFourCycle;
  }
  return HybridPattern::kNone;
}

HybridJoin::HybridJoin(const JoinQuery& query, const Database& db,
                       const ExecutionContext& ctx, std::int64_t delta)
    : query_(query), db_(db), ctx_(ctx), budget_(ctx.ResolveBudget()) {
  ctx_.budget = budget_;
  attribute_order_ = query.AttributeOrder();
  plan_.pattern = DetectHybridPattern(query);
  if (plan_.pattern == HybridPattern::kNone) return;
  for (const Atom& atom : query.atoms) {
    if (!db.HasRelation(atom.relation) || db.Flat(atom.relation).arity() != 2) {
      // Leave malformed queries to the default engine's diagnostics.
      plan_.pattern = HybridPattern::kNone;
      return;
    }
  }
  if (delta <= 0 && ctx_.hybrid_delta > 0) delta = ctx_.hybrid_delta;
  static const std::uint32_t kPartitionSpan =
      util::Trace::InternName("hybrid.partition");
  util::ScopedSpan span(kPartitionSpan);
  DegreePass(delta);
  ctx_.Count("hybrid.heavy_values", plan_.heavy_values);
}

int HybridJoin::HeavyDomain::IdOf(Value value) const {
  auto it = std::lower_bound(values.begin(), values.end(), value);
  return it != values.end() && *it == value
             ? static_cast<int>(it - values.begin())
             : -1;
}

void HybridJoin::DegreePass(std::int64_t delta_override) {
  const std::map<std::string, int> index = query_.AttributeIndex();
  const int k = static_cast<int>(attribute_order_.size());

  // Degree of value x for attribute d: its occurrence count in a raw column
  // holding d, and x is heavy iff SOME such count is over Δ. One histogram
  // per distinct (relation, column), so a pattern over one edge relation
  // counts two columns, not two per atom. Duplicate base rows inflate a raw
  // count relative to the set the phases evaluate; that only nudges a value
  // across the (free-to-choose) split, never the result.
  std::map<std::pair<std::string, int>, ColumnDegrees> degrees;
  auto column = [&](const std::string& relation,
                    int col) -> const ColumnDegrees* {
    auto key = std::make_pair(relation, col);
    auto it = degrees.find(key);
    if (it == degrees.end()) {
      it = degrees.emplace(key, ColumnDegrees(db_.Flat(relation), col)).first;
    }
    return &it->second;
  };
  std::vector<std::vector<const ColumnDegrees*>> columns_of(k);
  auto hold = [&](int d, const ColumnDegrees* c) {
    std::vector<const ColumnDegrees*>& cols = columns_of[d];
    if (std::find(cols.begin(), cols.end(), c) == cols.end()) {
      cols.push_back(c);
    }
  };
  std::size_t max_rows = 0, total_rows = 0;
  for (const Atom& atom : query_.atoms) {
    const int a0 = index.at(atom.attributes[0]);
    const int a1 = index.at(atom.attributes[1]);
    PatternAtom pa;
    pa.u = std::min(a0, a1);
    pa.v = std::max(a0, a1);
    pa.col_u = a0 < a1 ? 0 : 1;
    atoms_.push_back(std::move(pa));
    hold(a0, column(atom.relation, 0));
    hold(a1, column(atom.relation, 1));
    const std::size_t rows = db_.Flat(atom.relation).size();
    max_rows = std::max(max_rows, rows);
    total_rows += rows;
  }

  // Δ*: a column's values all occur more than Δ times iff Δ < its minimum
  // count, so every attribute has such a column iff Δ ≤ Δ*. Such a column
  // proves its attribute heavy in every result tuple (the tuple's value
  // occurs in it), so at Δ ≤ Δ* the light pass is provably empty.
  std::int64_t delta_star = std::numeric_limits<std::int64_t>::max();
  for (const auto& cols : columns_of) {
    std::int64_t best = 0;
    for (const ColumnDegrees* c : cols) best = std::max(best, c->min_count());
    delta_star = std::min(delta_star, best - 1);
  }

  // GenericJoin spends about one leapfrog intersection of min(deg u,
  // deg v) steps per atom row; the descent about one ⌈H/64⌉-word AND.
  std::map<std::string, double> intersect_steps;  // per relation
  auto favours_core = [&] {
    if (total_rows < kMinCoreRows) return false;
    std::size_t h = 0;
    for (const HeavyDomain& d : heavy_) h = std::max(h, d.values.size());
    double generic_join = 0;
    for (const Atom& atom : query_.atoms) {
      auto [it, fresh] = intersect_steps.try_emplace(atom.relation, 0.0);
      if (fresh) {
        const FlatRelation& rows = db_.Flat(atom.relation);
        const ColumnDegrees* c0 = column(atom.relation, 0);
        const ColumnDegrees* c1 = column(atom.relation, 1);
        for (std::size_t r = 0; r < rows.size(); ++r) {
          it->second += static_cast<double>(
              std::min(c0->Of(rows.At(r, 0)), c1->Of(rows.At(r, 1))));
        }
      }
      generic_join += it->second;
    }
    const double words = static_cast<double>((h + 63) / 64);
    return kWordAndCost * words * static_cast<double>(total_rows) <
           generic_join;
  };
  auto resolve = [&](std::int64_t delta) {
    plan_.threshold = delta;
    heavy_.assign(k, HeavyDomain());
    for (int d = 0; d < k; ++d) {
      std::vector<Value>& values = heavy_[d].values;
      for (const ColumnDegrees* c : columns_of[d]) {
        c->ForEach([&](Value x, std::int64_t count) {
          if (count > delta) values.push_back(x);
        });
      }
      std::sort(values.begin(), values.end());
      values.erase(std::unique(values.begin(), values.end()), values.end());
    }
    light_empty_ = delta <= delta_star;
    core_favoured_ = light_empty_ && favours_core();
  };
  if (delta_override > 0) {
    plan_.threshold_overridden = true;
    resolve(delta_override);
  } else {
    // Δ* when the core then pays; otherwise max(1, √N) over the largest
    // atom, the AGM-style balance point of the AYZ split.
    if (delta_star >= 1) resolve(delta_star);
    if (!core_favoured_) {
      resolve(std::max<std::int64_t>(
          1, static_cast<std::int64_t>(
                 std::sqrt(static_cast<double>(max_rows)))));
    }
  }
  for (const HeavyDomain& d : heavy_) plan_.heavy_values += d.values.size();
  // All-light fast path: the entire instance is the light part, so the
  // light pass runs unfiltered and there is no heavy core.
  plan_.delegated = plan_.heavy_values == 0;
}

void HybridJoin::BuildCore() {
  if (core_built_) return;
  core_built_ = true;
  // Straight from the raw rows: Set is idempotent, so duplicate rows and
  // row order do not matter and no sorted projection is needed.
  for (std::size_t a = 0; a < atoms_.size(); ++a) {
    PatternAtom& pa = atoms_[a];
    const FlatRelation& rows = db_.Flat(query_.atoms[a].relation);
    const HeavyDomain& hu = heavy_[pa.u];
    const HeavyDomain& hv = heavy_[pa.v];
    pa.fwd = graph::BoolMatrix(static_cast<int>(hu.values.size()),
                               static_cast<int>(hv.values.size()));
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const int iu = hu.IdOf(rows.At(r, pa.col_u));
      if (iu < 0) continue;
      const int iv = hv.IdOf(rows.At(r, 1 - pa.col_u));
      if (iv >= 0) pa.fwd.Set(iu, iv);
    }
    for (int i = 0; i < pa.fwd.rows(); ++i) {
      plan_.heavy_tuples +=
          PopcountWords(pa.fwd.RowWords(i), pa.fwd.words_per_row());
    }
  }
  ctx_.Count("hybrid.heavy_tuples", plan_.heavy_tuples);
}

void HybridJoin::RunLight(Mode mode, std::vector<Tuple>* out,
                          std::uint64_t* count, bool* found) {
  if (light_empty_) {
    plan_.light_rows = 0;
    return;
  }
  static const std::uint32_t kLightSpan =
      util::Trace::InternName("hybrid.light");
  util::ScopedSpan span(kLightSpan);
  // One pass over the original query and database (through ctx.index_cache
  // when set). Unless delegated, the leaf filter keeps exactly the tuples
  // with at least one light attribute; the all-heavy rest is RunHeavy's.
  GenericJoin gj(query_, db_, attribute_order_, ctx_);
  if (!plan_.delegated) {
    gj.SetLeafFilter([this](const Tuple& binding) {
      for (std::size_t d = 0; d < binding.size(); ++d) {
        if (!heavy_[d].IsHeavy(binding[d])) return true;
      }
      return false;
    });
  }
  switch (mode) {
    case Mode::kEvaluate:
      *out = gj.Evaluate().tuples;
      plan_.light_rows = out->size();
      break;
    case Mode::kCount:
      *count = gj.Count();
      plan_.light_rows = *count;
      break;
    case Mode::kIsEmpty:
      *found = !gj.IsEmpty();
      break;
  }
}

void HybridJoin::RunHeavy(Mode mode, std::vector<Tuple>* out,
                          std::uint64_t* count, bool* found) {
  static const std::uint32_t kHeavySpan =
      util::Trace::InternName("hybrid.heavy");
  util::ScopedSpan span(kHeavySpan);
  if (Stopped()) return;
  if (mode == Mode::kIsEmpty && *found) return;
  BuildCore();

  // Bitset descent in attribute order over dense heavy ids. Level j's
  // candidates are the word-AND of row ids[i] of every atom (i, j) with
  // i < j, or all of H_j when no neighbour of j is bound yet.
  const int k = static_cast<int>(attribute_order_.size());
  struct Level {
    std::vector<std::pair<int, const graph::BoolMatrix*>> parents;
    std::size_t words = 0;  ///< ⌈H_j / 64⌉; bits past H_j are zero.
    std::vector<std::uint64_t> scratch;
  };
  std::vector<Level> levels(k);
  for (const PatternAtom& pa : atoms_) {
    levels[pa.v].parents.emplace_back(pa.u, &pa.fwd);
  }
  for (int j = 0; j < k; ++j) {
    const std::size_t h = heavy_[j].values.size();
    Level& level = levels[j];
    level.words = (h + 63) / 64;
    level.scratch.assign(level.words, 0);
    if (level.parents.empty()) {
      for (std::size_t b = 0; b < h; ++b) {
        level.scratch[b / 64] |= std::uint64_t{1} << (b % 64);
      }
    }
  }
  std::vector<int> ids(k);
  // Row of parent p of level j at that parent's bound id.
  auto row = [&](int j, std::size_t p) {
    const auto& [parent, matrix] = levels[j].parents[p];
    return matrix->RowWords(ids[parent]);
  };
  // AND of the bound rows of the first `n` parents of level j.
  auto intersect = [&](int j, std::size_t n) -> const std::uint64_t* {
    Level& level = levels[j];
    if (n == 0) return level.scratch.data();
    if (n == 1) return row(j, 0);
    kernels::AndWords2(level.scratch.data(), row(j, 0), row(j, 1),
                       level.words);
    for (std::size_t p = 2; p < n; ++p) {
      kernels::AndWords2(level.scratch.data(), level.scratch.data(),
                         row(j, p), level.words);
    }
    return level.scratch.data();
  };

  Tuple binding(k);
  bool stop = false;
  auto descend = [&](auto& self, int j) -> void {
    const Level& level = levels[j];
    const std::size_t n = level.parents.size();
    if (j == k - 1) {
      switch (mode) {
        case Mode::kCount: {
          // The last AND fuses with its popcount.
          const std::uint64_t c =
              n >= 2 ? kernels::AndPopcount(intersect(j, n - 1),
                                            row(j, n - 1), level.words)
                     : PopcountWords(intersect(j, n), level.words);
          plan_.heavy_rows += c;
          *count += c;
          return;
        }
        case Mode::kIsEmpty:
          if (AnyBit(intersect(j, n), level.words)) {
            *found = true;
            stop = true;
          }
          return;
        case Mode::kEvaluate:
          ForEachBit(intersect(j, n), level.words, [&](int id) {
            if (stop) return;
            binding[j] = heavy_[j].values[id];
            out->push_back(binding);
            ++plan_.heavy_rows;
            // Charge after materializing, like GenericJoin: exactly
            // row_limit rows land at the limit.
            if (budget_ != nullptr && budget_->ChargeRows(1)) stop = true;
          });
          return;
      }
    }
    ForEachBit(intersect(j, n), level.words, [&](int id) {
      if (stop) return;
      if (ChargeAndPoll(budget_.get())) {
        stop = true;
        return;
      }
      ids[j] = id;
      binding[j] = heavy_[j].values[id];
      self(self, j + 1);
    });
  };
  descend(descend, 0);
}

JoinResult HybridJoin::Evaluate() {
  JoinResult result;
  result.attributes = attribute_order_;
  if (!applicable()) return result;
  plan_.heavy_rows = 0;
  RunLight(Mode::kEvaluate, &result.tuples, nullptr, nullptr);
  if (!plan_.delegated) {
    const std::size_t light_rows = result.tuples.size();
    RunHeavy(Mode::kEvaluate, &result.tuples, nullptr, nullptr);
    if (light_rows > 0) {
      // Both parts are in GenericJoin order and disjoint, so one merge
      // restores that order.
      static const std::uint32_t kMergeSpan =
          util::Trace::InternName("hybrid.merge");
      util::ScopedSpan span(kMergeSpan);
      std::inplace_merge(result.tuples.begin(),
                         result.tuples.begin() + light_rows,
                         result.tuples.end());
    }
  }
  run_status_ = budget_->status();
  result.truncated = run_status_ != util::RunStatus::kCompleted;
  ctx_.Count("hybrid.heavy_rows", plan_.heavy_rows);
  ctx_.Count("hybrid.light_rows", plan_.light_rows);
  return result;
}

std::uint64_t HybridJoin::Count() {
  if (!applicable()) return 0;
  plan_.heavy_rows = 0;
  std::uint64_t count = 0;
  RunLight(Mode::kCount, nullptr, &count, nullptr);
  if (!plan_.delegated) RunHeavy(Mode::kCount, nullptr, &count, nullptr);
  run_status_ = budget_->status();
  ctx_.Count("hybrid.heavy_rows", plan_.heavy_rows);
  ctx_.Count("hybrid.light_rows", plan_.light_rows);
  return count;
}

bool HybridJoin::IsEmpty() {
  if (!applicable()) return true;
  bool found = false;
  RunLight(Mode::kIsEmpty, nullptr, nullptr, &found);
  if (!found && !plan_.delegated) {
    RunHeavy(Mode::kIsEmpty, nullptr, nullptr, &found);
  }
  run_status_ = found ? util::RunStatus::kCompleted : budget_->status();
  return !found;
}

}  // namespace qc::db
