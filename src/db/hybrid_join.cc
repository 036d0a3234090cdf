#include "db/hybrid_join.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include "db/generic_join.h"
#include "db/joins.h"
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
    const std::vector<std::string> a = AtomAttributes(atom);
    if (a.size() != 2) return HybridPattern::kNone;
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
    if (!db.HasRelation(atom.relation)) {
      // Leave malformed queries to the default engine's diagnostics.
      plan_.pattern = HybridPattern::kNone;
      return;
    }
  }
  if (delta <= 0 && ctx_.hybrid_delta > 0) delta = ctx_.hybrid_delta;
  static const std::uint32_t kPartitionSpan =
      util::Trace::InternName("hybrid.partition");
  util::ScopedSpan span(kPartitionSpan);
  BuildPartition(db, delta);
  ctx_.Count("hybrid.heavy_values", plan_.heavy_values);
  ctx_.Count("hybrid.heavy_tuples", plan_.heavy_tuples);
}

void HybridJoin::BuildPartition(const Database& db,
                                std::int64_t delta_override) {
  const std::map<std::string, int> index = query_.AttributeIndex();
  const int k = static_cast<int>(attribute_order_.size());

  // Atom skeleton first: attribute pair and raw size only. The sorted
  // deduplicated projections are deferred until a heavy value is found, so
  // the all-light delegation decision costs one counting pass, not a sort.
  std::size_t max_rows = 0;
  for (const Atom& atom : query_.atoms) {
    std::vector<std::string> a = AtomAttributes(atom);
    int u = index.at(a[0]);
    int v = index.at(a[1]);
    PatternAtom pa;
    pa.u = std::min(u, v);
    pa.v = std::max(u, v);
    max_rows = std::max(max_rows, db.Flat(atom.relation).size());
    atoms_.push_back(std::move(pa));
  }

  if (plan_.pattern == HybridPattern::kFourCycle) {
    // Canonical traversal order: start at attribute 0, take its
    // smaller-indexed neighbour first — deterministic across runs.
    std::vector<std::vector<int>> adj(k);
    for (const PatternAtom& pa : atoms_) {
      adj[pa.u].push_back(pa.v);
      adj[pa.v].push_back(pa.u);
    }
    for (auto& nbrs : adj) std::sort(nbrs.begin(), nbrs.end());
    cycle_[0] = 0;
    cycle_[1] = adj[0][0];
    cycle_[3] = adj[0][1];
    cycle_[2] =
        adj[cycle_[1]][0] == 0 ? adj[cycle_[1]][1] : adj[cycle_[1]][0];
  }

  // Threshold: Δ = max(1, √N) over the largest atom unless overridden —
  // the AGM-style balance point where the light residual's O(N·Δ) work and
  // the heavy core's (N/Δ)-sized dimensions meet, exactly the AYZ pick.
  if (delta_override > 0) {
    plan_.threshold = delta_override;
    plan_.threshold_overridden = true;
  } else {
    plan_.threshold = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(
               std::sqrt(static_cast<double>(max_rows))));
  }
  const std::int64_t delta = plan_.threshold;

  // Degree of value x for attribute d: the MAX occurrence count over every
  // (atom, column) pair holding d, counted over the atom's raw rows. Heavy
  // iff deg > Δ — the single predicate both phases share (Δ-boundary values
  // are light). The max never needs merging: x is heavy exactly when SOME
  // column count clears Δ, so each column just contributes its over-Δ
  // values and the union is deduplicated at the end. Duplicate base rows
  // inflate a raw count relative to the deduplicated projection the phases
  // evaluate; that only nudges a value across the (free-to-choose) split,
  // never the result. Dense-ranged columns (the common vertex-id case)
  // count through a flat array; anything sparse falls back to hashing.
  //
  // A column whose every value is over Δ also proves that its attribute is
  // heavy in every result tuple (the tuple's value appears in that column).
  // When that holds for every attribute, no result tuple has a light
  // attribute and the light pass is skipped outright (`light_empty_`).
  std::vector<std::vector<Value>> heavy_candidates(k);
  std::vector<bool> all_heavy_column(k, false);
  for (const Atom& atom : query_.atoms) {
    const FlatRelation& rows = db.Flat(atom.relation);
    const std::vector<std::string> a = AtomAttributes(atom);
    const int attr_of_col[2] = {index.at(a[0]), index.at(a[1])};
    if (rows.empty()) continue;
    for (int col = 0; col < 2; ++col) {
      std::vector<Value>& out = heavy_candidates[attr_of_col[col]];
      bool all_heavy = true;
      auto tally = [&](Value value, std::int64_t c) {
        if (c > delta) {
          out.push_back(value);
        } else if (c > 0) {
          all_heavy = false;
        }
      };
      Value lo = rows.At(0, col), hi = lo;
      for (std::size_t r = 1; r < rows.size(); ++r) {
        const Value x = rows.At(r, col);
        lo = std::min(lo, x);
        hi = std::max(hi, x);
      }
      // hi - lo in unsigned arithmetic, compared before adding 1: a column
      // spanning INT64_MIN..INT64_MAX has span 2^64 - 1 and takes the hash
      // path instead of wrapping to an empty count array.
      const std::uint64_t span =
          static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
      if (span < 4 * rows.size() + 1024) {
        std::vector<std::int64_t> cnt(static_cast<std::size_t>(span) + 1, 0);
        for (std::size_t r = 0; r < rows.size(); ++r) {
          ++cnt[static_cast<std::size_t>(
              static_cast<std::uint64_t>(rows.At(r, col)) -
              static_cast<std::uint64_t>(lo))];
        }
        for (std::size_t i = 0; i < cnt.size(); ++i) {
          tally(lo + static_cast<Value>(i), cnt[i]);
        }
      } else {
        std::unordered_map<Value, std::int64_t> cnt;
        for (std::size_t r = 0; r < rows.size(); ++r) {
          ++cnt[rows.At(r, col)];
        }
        for (const auto& [value, c] : cnt) tally(value, c);
      }
      if (all_heavy) all_heavy_column[attr_of_col[col]] = true;
    }
  }
  light_empty_ = std::all_of(all_heavy_column.begin(), all_heavy_column.end(),
                             [](bool b) { return b; });
  heavy_.resize(k);
  for (int d = 0; d < k; ++d) {
    std::sort(heavy_candidates[d].begin(), heavy_candidates[d].end());
    heavy_candidates[d].erase(
        std::unique(heavy_candidates[d].begin(), heavy_candidates[d].end()),
        heavy_candidates[d].end());
    heavy_[d].values = std::move(heavy_candidates[d]);
    for (std::size_t i = 0; i < heavy_[d].values.size(); ++i) {
      heavy_[d].index.emplace(heavy_[d].values[i], static_cast<int>(i));
    }
    plan_.heavy_values += heavy_[d].values.size();
  }
  if (plan_.heavy_values == 0) {
    // All-light fast path: the entire instance is the light part, so the
    // light pass runs unfiltered and there is no heavy core.
    plan_.delegated = true;
    return;
  }

  // Heavy core, built only now that the split is real: per atom, the
  // both-ends-heavy tuples of its sorted deduplicated projection (columns
  // in global-index order, the representation the trie engine indexes) as
  // dense pairs, plus the bit-packed bi-adjacency (and its transpose, so
  // either orientation of a row intersection is a contiguous load).
  for (std::size_t a = 0; a < atoms_.size(); ++a) {
    PatternAtom& pa = atoms_[a];
    const FlatRelation rows = MaterializeSortedProjection(
        query_.atoms[a], db,
        {attribute_order_[pa.u], attribute_order_[pa.v]}, ctx_.arena);
    const HeavyDomain& hu = heavy_[pa.u];
    const HeavyDomain& hv = heavy_[pa.v];
    pa.fwd = graph::BoolMatrix(static_cast<int>(hu.values.size()),
                               static_cast<int>(hv.values.size()));
    pa.rev = graph::BoolMatrix(static_cast<int>(hv.values.size()),
                               static_cast<int>(hu.values.size()));
    for (std::size_t r = 0; r < rows.size(); ++r) {
      auto iu = hu.index.find(rows.At(r, 0));
      if (iu == hu.index.end()) continue;
      auto iv = hv.index.find(rows.At(r, 1));
      if (iv == hv.index.end()) continue;
      pa.heavy_pairs.emplace_back(iu->second, iv->second);
      pa.fwd.Set(iu->second, iv->second);
      pa.rev.Set(iv->second, iu->second);
    }
    plan_.heavy_tuples += pa.heavy_pairs.size();
  }
}

const HybridJoin::PatternAtom& HybridJoin::AtomOf(int i, int j) const {
  const int u = std::min(i, j);
  const int v = std::max(i, j);
  for (const PatternAtom& pa : atoms_) {
    if (pa.u == u && pa.v == v) return pa;
  }
  // Unreachable for detected patterns; keep the compiler honest.
  return atoms_.front();
}

const graph::BoolMatrix& HybridJoin::Mat(int i, int j) const {
  const PatternAtom& pa = AtomOf(i, j);
  return i < j ? pa.fwd : pa.rev;
}

bool HybridJoin::ProfitableUnderAuto() const {
  if (!applicable() || plan_.delegated) return false;
  // The heavy core pays when its average degree clears the word-parallel
  // break-even: each bitset row op touches H/64 words, so per-vertex work
  // amortizes once a heavy value participates in a few dozen heavy tuples.
  const std::uint64_t avg_heavy_degree =
      plan_.heavy_tuples / std::max<std::uint64_t>(1, plan_.heavy_values);
  return plan_.heavy_tuples >= 256 && avg_heavy_degree >= 16;
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
  switch (plan_.pattern) {
    case HybridPattern::kTriangle:
      HeavyTriangle(mode, out, count, found);
      break;
    case HybridPattern::kFourCycle:
      HeavyFourCycle(mode, out, count, found);
      break;
    case HybridPattern::kFourClique:
    case HybridPattern::kFiveClique:
      HeavyClique(mode, out, count, found);
      break;
    case HybridPattern::kNone:
      break;
  }
}

void HybridJoin::HeavyTriangle(Mode mode, std::vector<Tuple>* out,
                               std::uint64_t* count, bool* found) {
  // Attributes 0,1,2. MM prefilter: P = M(1,0)·M(0,2) marks the (b, c)
  // pairs with at least one heavy-0 witness; the per-pair witness set is
  // then one word-AND of two rows over the H_0 dimension.
  const graph::BoolMatrix* p = nullptr;
  graph::BoolMatrix product;
  {
    static const std::uint32_t kMmSpan = util::Trace::InternName("hybrid.mm");
    util::ScopedSpan mm_span(kMmSpan);
    product =
        Mat(1, 0).Multiply(Mat(0, 2), ctx_.ResolvedThreads(), budget_.get());
    p = &product;
  }
  if (Stopped()) return;
  const graph::BoolMatrix& m10 = Mat(1, 0);
  const graph::BoolMatrix& m20 = Mat(2, 0);
  const std::size_t wn = m10.words_per_row();  // H_0 words (== m20's)
  std::vector<std::uint64_t> witness(wn);
  Tuple binding(3);
  for (const auto& [b, c] : AtomOf(1, 2).heavy_pairs) {
    if (ChargeAndPoll(budget_.get())) return;
    if (!p->Test(b, c)) continue;
    switch (mode) {
      case Mode::kCount: {
        const std::uint64_t w =
            kernels::AndPopcount(m10.RowWords(b), m20.RowWords(c), wn);
        plan_.heavy_rows += w;
        *count += w;
        break;
      }
      case Mode::kIsEmpty:
        // The product bit already proves a witness exists.
        *found = true;
        return;
      case Mode::kEvaluate: {
        kernels::AndWords2(witness.data(), m10.RowWords(b), m20.RowWords(c),
                           wn);
        bool stop = false;
        ForEachBit(witness.data(), wn, [&](int a) {
          if (stop) return;
          binding[0] = heavy_[0].values[a];
          binding[1] = heavy_[1].values[b];
          binding[2] = heavy_[2].values[c];
          out->push_back(binding);
          ++plan_.heavy_rows;
          // Charge after materializing, like GenericJoin: exactly
          // row_limit rows land at the limit.
          if (budget_ != nullptr && budget_->ChargeRows(1)) stop = true;
        });
        if (stop) return;
        break;
      }
    }
  }
}

void HybridJoin::HeavyFourCycle(Mode mode, std::vector<Tuple>* out,
                                std::uint64_t* count, bool* found) {
  const int c0 = cycle_[0], c1 = cycle_[1], c2 = cycle_[2], c3 = cycle_[3];
  // Two MM prefilters over the opposite corner pair (c0, c2): P1 routes
  // through c1, P2 through c3. A bit set in both means at least one full
  // 4-cycle crosses that corner pair.
  graph::BoolMatrix p1, p2;
  {
    static const std::uint32_t kMmSpan = util::Trace::InternName("hybrid.mm");
    util::ScopedSpan mm_span(kMmSpan);
    p1 = Mat(c0, c1).Multiply(Mat(c1, c2), ctx_.ResolvedThreads(),
                              budget_.get());
    if (!Stopped()) {
      p2 = Mat(c0, c3).Multiply(Mat(c3, c2), ctx_.ResolvedThreads(),
                                budget_.get());
    }
  }
  if (Stopped()) return;
  const graph::BoolMatrix& m01 = Mat(c0, c1);
  const graph::BoolMatrix& m21 = Mat(c2, c1);
  const graph::BoolMatrix& m03 = Mat(c0, c3);
  const graph::BoolMatrix& m23 = Mat(c2, c3);
  const std::size_t corner_words = p1.words_per_row();  // H_c2 words
  const std::size_t b_words = m01.words_per_row();      // H_c1 words
  const std::size_t d_words = m03.words_per_row();      // H_c3 words
  std::vector<std::uint64_t> corners(corner_words);
  std::vector<std::uint64_t> side_b(b_words);
  std::vector<std::uint64_t> side_d(d_words);
  Tuple binding(4);
  const int rows = p1.rows();
  for (int x = 0; x < rows; ++x) {
    if (ChargeAndPoll(budget_.get())) return;
    kernels::AndWords2(corners.data(), p1.RowWords(x), p2.RowWords(x),
                       corner_words);
    bool stop = false;
    ForEachBit(corners.data(), corner_words, [&](int z) {
      if (stop) return;
      switch (mode) {
        case Mode::kCount: {
          // |witnesses through c1| x |witnesses through c3|, no
          // enumeration: both popcounts are nonzero by the prefilter.
          const std::uint64_t nb =
              kernels::AndPopcount(m01.RowWords(x), m21.RowWords(z), b_words);
          const std::uint64_t nd =
              kernels::AndPopcount(m03.RowWords(x), m23.RowWords(z), d_words);
          plan_.heavy_rows += nb * nd;
          *count += nb * nd;
          break;
        }
        case Mode::kIsEmpty:
          *found = true;
          stop = true;
          break;
        case Mode::kEvaluate: {
          kernels::AndWords2(side_b.data(), m01.RowWords(x), m21.RowWords(z),
                             b_words);
          kernels::AndWords2(side_d.data(), m03.RowWords(x), m23.RowWords(z),
                             d_words);
          binding[c0] = heavy_[c0].values[x];
          binding[c2] = heavy_[c2].values[z];
          ForEachBit(side_b.data(), b_words, [&](int b) {
            if (stop) return;
            binding[c1] = heavy_[c1].values[b];
            ForEachBit(side_d.data(), d_words, [&](int d) {
              if (stop) return;
              binding[c3] = heavy_[c3].values[d];
              out->push_back(binding);
              ++plan_.heavy_rows;
              if (budget_ != nullptr && budget_->ChargeRows(1)) stop = true;
            });
          });
          break;
        }
      }
    });
    if (stop) return;  // emptiness witnessed, or row budget tripped
  }
}

void HybridJoin::HeavyClique(Mode mode, std::vector<Tuple>* out,
                             std::uint64_t* count, bool* found) {
  // k-clique (k = 4 or 5) by bitset descent over the heavy tuples of atom
  // (0,1): candidate sets for each later attribute are word-ANDs of the
  // rows of every already-bound attribute.
  const bool five = plan_.pattern == HybridPattern::kFiveClique;
  const std::size_t w2 = Mat(0, 2).words_per_row();
  const std::size_t w3 = Mat(0, 3).words_per_row();
  const std::size_t w4 = five ? Mat(0, 4).words_per_row() : 0;
  std::vector<std::uint64_t> s2(w2), s3ab(w3), s3(w3), s4ab(w4), s4(w4),
      s4d(w4);
  Tuple binding(five ? 5 : 4);
  for (const auto& [a, b] : AtomOf(0, 1).heavy_pairs) {
    if (ChargeAndPoll(budget_.get())) return;
    kernels::AndWords2(s2.data(), Mat(0, 2).RowWords(a), Mat(1, 2).RowWords(b),
                       w2);
    if (!AnyBit(s2.data(), w2)) continue;
    kernels::AndWords2(s3ab.data(), Mat(0, 3).RowWords(a),
                       Mat(1, 3).RowWords(b), w3);
    if (five) {
      kernels::AndWords2(s4ab.data(), Mat(0, 4).RowWords(a),
                         Mat(1, 4).RowWords(b), w4);
    }
    binding[0] = heavy_[0].values[a];
    binding[1] = heavy_[1].values[b];
    bool stop = false;
    ForEachBit(s2.data(), w2, [&](int c) {
      if (stop) return;
      kernels::AndWords2(s3.data(), s3ab.data(), Mat(2, 3).RowWords(c), w3);
      binding[2] = heavy_[2].values[c];
      if (!five) {
        switch (mode) {
          case Mode::kCount: {
            const std::uint64_t n = PopcountWords(s3.data(), w3);
            plan_.heavy_rows += n;
            *count += n;
            break;
          }
          case Mode::kIsEmpty:
            if (AnyBit(s3.data(), w3)) {
              *found = true;
              stop = true;
            }
            break;
          case Mode::kEvaluate:
            ForEachBit(s3.data(), w3, [&](int d) {
              if (stop) return;
              binding[3] = heavy_[3].values[d];
              out->push_back(binding);
              ++plan_.heavy_rows;
              if (budget_ != nullptr && budget_->ChargeRows(1)) stop = true;
            });
            break;
        }
        return;
      }
      kernels::AndWords2(s4.data(), s4ab.data(), Mat(2, 4).RowWords(c), w4);
      ForEachBit(s3.data(), w3, [&](int d) {
        if (stop) return;
        binding[3] = heavy_[3].values[d];
        switch (mode) {
          case Mode::kCount: {
            const std::uint64_t n =
                kernels::AndPopcount(s4.data(), Mat(3, 4).RowWords(d), w4);
            plan_.heavy_rows += n;
            *count += n;
            break;
          }
          case Mode::kIsEmpty:
            if (kernels::AndPopcount(s4.data(), Mat(3, 4).RowWords(d), w4) >
                0) {
              *found = true;
              stop = true;
            }
            break;
          case Mode::kEvaluate:
            kernels::AndWords2(s4d.data(), s4.data(), Mat(3, 4).RowWords(d),
                               w4);
            ForEachBit(s4d.data(), w4, [&](int e) {
              if (stop) return;
              binding[4] = heavy_[4].values[e];
              out->push_back(binding);
              ++plan_.heavy_rows;
              if (budget_ != nullptr && budget_->ChargeRows(1)) stop = true;
            });
            break;
        }
      });
    });
    if (stop) return;  // emptiness witnessed, or row budget tripped
  }
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
    // The light output is already in GenericJoin order and disjoint from
    // the core, so sorting the core and merging restores that order.
    static const std::uint32_t kMergeSpan =
        util::Trace::InternName("hybrid.merge");
    util::ScopedSpan span(kMergeSpan);
    const auto mid = result.tuples.begin() + light_rows;
    std::sort(mid, result.tuples.end());
    std::inplace_merge(result.tuples.begin(), mid, result.tuples.end());
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
