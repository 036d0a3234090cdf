#ifndef QC_DB_GENERIC_JOIN_H_
#define QC_DB_GENERIC_JOIN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "core/context.h"
#include "db/database.h"
#include "db/index_cache.h"
#include "db/trie_index.h"
#include "util/budget.h"
#include "util/trace.h"

namespace qc::db {

/// Effort counters for the worst-case-optimal join. Also exported through
/// ExecutionContext::counters under "generic_join.nodes" /
/// "generic_join.probes" / "generic_join.gallops" (the unified
/// util::Counters surface); the per-instance trie size is exported once at
/// construction under "trie.nodes".
struct GenericJoinStats {
  std::uint64_t nodes = 0;    ///< Search-tree nodes (partial bindings).
  std::uint64_t probes = 0;   ///< Bounded binary searches, each counted once.
  std::uint64_t gallops = 0;  ///< Doubling steps of the galloping seeks.
  /// Blocked kernel calls of the two-holder SIMD intersection path
  /// (kernels::IntersectPairPositions); zero under QC_SIMD=scalar, where
  /// the historical leapfrog runs instead.
  std::uint64_t simd_blocks = 0;

  GenericJoinStats& operator+=(const GenericJoinStats& other) {
    nodes += other.nodes;
    probes += other.probes;
    gallops += other.gallops;
    simd_blocks += other.simd_blocks;
    return *this;
  }
};

/// Worst-case-optimal join in the Generic Join / Leapfrog Triejoin family
/// (Theorem 3.3, [54, 61]): attributes are bound one at a time in a global
/// order; at each step the candidate values are the intersection of the
/// matching trie levels of every relation containing the attribute.
///
/// Each atom is materialized into flat columnar storage (FlatRelation),
/// sorted once, and indexed by a TrieIndex whose level l holds the distinct
/// prefixes of length l+1 as contiguous (value, child-range) spans. The
/// search descends the tries: binding attribute d moves every holder atom
/// from its matched node to that node's child span — a pointer bump — and
/// the per-level intersection leapfrogs the holder spans with galloping
/// (doubling probe + bounded std::lower_bound). No tuple rows are ever
/// re-scanned or re-binary-searched during the descent. Runs in
/// O~(N^{rho*}) total time.
///
/// With `ctx.threads > 1` (or QC_THREADS set), Evaluate/Count/IsEmpty
/// partition the trie level-0 candidate values into contiguous chunks
/// executed on the shared ThreadPool with per-chunk buffers and stats,
/// merged in candidate order — the answer (and, for full traversals, the
/// stats) are bit-identical to the serial run at any thread count.
/// Enumerate always streams serially: its visitor contract (in-order
/// delivery, early stop) is order-sensitive.
///
/// The join observes the budget resolved from `ctx` (deadline, row limit,
/// cancellation): the search polls it once per node and Evaluate charges one
/// output row per materialized tuple. After any entry point, status()
/// reports how the run ended. Partial-result semantics on a trip:
/// Evaluate returns the rows materialized so far with `truncated = true`
/// (a subset of the true answer, at most `max_output_rows` rows when that
/// limit tripped); Count returns the count so far; IsEmpty's "empty" verdict
/// is only trustworthy when status() == kCompleted ("non-empty" is always
/// real). When the budget never trips, results are untouched.
///
/// When `ctx.index_cache` is set, construction looks each atom's trie up by
/// (relation name, relation version, projection signature) and only builds
/// on a miss — a warm cache skips materialize+sort+build entirely, and the
/// per-build "generic_join.build_trie" span is absent on hits. Answers and
/// stats are bit-identical with or without the cache at any thread count.
class GenericJoin {
 public:
  /// Prepares sorted tries for `query` over `db`. If `attribute_order` is
  /// empty, the first-appearance order is used.
  GenericJoin(const JoinQuery& query, const Database& db,
              std::vector<std::string> attribute_order = {},
              const ExecutionContext& ctx = ExecutionContext());

  /// Convenience: default attribute order with an execution context.
  GenericJoin(const JoinQuery& query, const Database& db,
              const ExecutionContext& ctx)
      : GenericJoin(query, db, {}, ctx) {}

  /// Materializes the full answer Q(D).
  JoinResult Evaluate();

  /// Decides emptiness (Boolean Join Query) with early exit.
  bool IsEmpty();

  /// |Q(D)| without materializing.
  std::uint64_t Count();

  /// Streams each answer tuple; return false from the visitor to stop.
  void Enumerate(const std::function<bool(const Tuple&)>& visitor);

  /// Restricts every entry point to the complete bindings `keep` accepts.
  /// The predicate runs at the leaf, before the binding reaches the visitor
  /// or the sink: a rejected binding is neither emitted, counted, nor
  /// charged against the row budget, so a row limit R still yields R kept
  /// rows. Must be safe to call concurrently (parallel runs share it).
  /// Internal to planners built on this engine (db::HybridJoin's light
  /// pass); not a user-facing option.
  void SetLeafFilter(std::function<bool(const Tuple&)> keep) {
    leaf_filter_ = std::move(keep);
  }

  const GenericJoinStats& stats() const { return stats_; }
  /// How the most recent Evaluate/Count/IsEmpty/Enumerate ended.
  util::RunStatus status() const { return run_status_; }
  const std::vector<std::string>& attribute_order() const {
    return attribute_order_;
  }
  /// Total nodes across all atom tries (also exported as "trie.nodes").
  std::uint64_t trie_nodes() const { return trie_nodes_; }

 private:
  /// One atom's index. The trie lives behind an IndexCache entry pointer in
  /// both modes: with ctx.index_cache set the entry may be shared with other
  /// evaluations (warm hits skip the build entirely); without a cache the
  /// constructor builds a private entry. Either way the trie is immutable
  /// for this object's lifetime — eviction can't invalidate it.
  struct AtomIndex {
    std::vector<int> attr_positions;  ///< Global order index per trie level.
    IndexCache::EntryPtr entry;       ///< Never null after construction.

    const TrieIndex& trie() const { return entry->trie; }
    bool no_rows() const { return entry->no_rows; }
  };

  /// Live node-index span of one atom at its current trie level.
  struct Span {
    std::int32_t begin = 0;
    std::int32_t end = 0;
  };

  /// Per-depth reusable scratch (leapfrog cursors and saved spans), sized
  /// once per chunk/run so the descent allocates nothing per node.
  struct DepthScratch {
    std::vector<std::int32_t> cursors;  ///< One per holder of the attribute.
    std::vector<const Value*> values;   ///< Cached level value arrays.
    std::vector<std::int32_t> ends;     ///< Cached span ends.
    std::vector<Span> saved;            ///< Holder spans before the descent.
    /// Match-position buffers of the two-holder SIMD path (kPairChunk
    /// entries each, sized on first use).
    std::vector<std::int32_t> pos_a;
    std::vector<std::int32_t> pos_b;
  };

  /// The depth-0 candidate values with each holder's matched level-0 node,
  /// stored flat (stride = number of depth-0 holders) — the unit of
  /// parallel work.
  struct RootCandidates {
    std::vector<Value> values;
    std::vector<std::int32_t> positions;  ///< values.size() x holders(0).
  };

  /// Galloping lower bound for `target` in vals[pos..end), requiring
  /// vals[pos] < target. Counts one probe plus one gallop per doubling step.
  std::int32_t GallopSeek(const Value* vals, std::int32_t pos,
                          std::int32_t end, Value target,
                          GenericJoinStats* stats) const;

  /// Leapfrogs the holder spans of attribute `depth`; calls
  /// `emit(value, matched_positions)` for every value of the intersection
  /// in ascending order. `emit` returns false to stop early.
  template <class Emit>
  void LeapfrogIntersect(int depth, const std::vector<Span>& spans,
                         DepthScratch& scratch, GenericJoinStats* stats,
                         Emit&& emit) const;

  /// A-side chunk length of the two-holder blocked intersection: large
  /// enough to amortize the kernel call, small enough that an early-stopped
  /// emit wastes at most one chunk of kernel work.
  static constexpr std::int32_t kPairChunk = 2048;

  /// Two-holder intersection through the dispatched SIMD kernel: the A span
  /// is walked in kPairChunk blocks, the B span clipped per block by a
  /// galloping upper bound, and each block handed to
  /// kernels::IntersectPairPositions. Emits the identical (value, cursors)
  /// sequence as the historical leapfrog — the engine-level answers stay
  /// bit-identical across QC_SIMD levels. `scratch` cursors/values/ends must
  /// already be loaded for the two holders.
  template <class Emit>
  void PairIntersect(DepthScratch& scratch, GenericJoinStats* stats,
                     Emit&& emit) const;

  /// Moves holder `(atom, col)` from matched node `pos` to its child span.
  Span DescendSpan(int atom, int col, std::int32_t pos) const;

  void Search(int depth, std::vector<Span>& spans,
              std::vector<DepthScratch>& scratch, Tuple& binding,
              const std::function<bool(const Tuple&)>& visitor, bool* stop,
              GenericJoinStats* stats) const;

  /// Enumerates the depth-0 intersection (the serial prefix of every
  /// parallel run). Returns false when some relation is empty or the query
  /// binds no attributes.
  bool ComputeRootCandidates(RootCandidates* candidates,
                             GenericJoinStats* stats) const;

  /// Runs the search subtree of candidate `i`. `spans` must hold every
  /// atom's full level-0 span; holder spans are restored before returning.
  /// `binding` is caller-owned scratch of size attribute_order().size().
  void SearchCandidate(const RootCandidates& candidates, std::size_t i,
                       std::vector<Span>& spans,
                       std::vector<DepthScratch>& scratch, Tuple& binding,
                       const std::function<bool(const Tuple&)>& visitor,
                       bool* stop, GenericJoinStats* stats) const;

  std::vector<Span> FullSpans() const;
  std::vector<DepthScratch> MakeScratch() const;

  /// True when some atom's relation is empty (the join is empty).
  bool HasEmptyAtom() const;

  int ResolvedThreads() const;

  /// Publishes one run's effort into ctx_.counters, if any.
  void ExportStats(const GenericJoinStats& run) const;

  std::vector<std::string> attribute_order_;
  std::vector<AtomIndex> atoms_;
  /// Atoms containing each attribute, with the trie level (column index) of
  /// the attribute in that atom.
  std::vector<std::vector<std::pair<int, int>>> atoms_of_attr_;
  /// Interned trace span ids (see DESIGN.md §9): the root intersection and
  /// one "generic_join.search.level<d>" per variable level. The per-level
  /// span is opened once per parent search node, so its count equals the
  /// number of nodes expanded at the level above — deterministic at any
  /// thread count because the traversal itself is.
  std::uint32_t root_span_ = 0;
  std::vector<std::uint32_t> level_spans_;
  std::uint64_t trie_nodes_ = 0;
  /// Optional leaf predicate (SetLeafFilter); empty keeps every binding.
  std::function<bool(const Tuple&)> leaf_filter_;
  GenericJoinStats stats_;
  ExecutionContext ctx_;
  /// Resolved once at construction and shared by every worker; never null.
  std::shared_ptr<util::Budget> budget_;
  util::RunStatus run_status_ = util::RunStatus::kCompleted;
};

}  // namespace qc::db

#endif  // QC_DB_GENERIC_JOIN_H_
