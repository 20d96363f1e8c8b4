#ifndef XPV_VIEWS_VIEW_CACHE_H_
#define XPV_VIEWS_VIEW_CACHE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "containment/oracle.h"
#include "pattern/pattern.h"
#include "rewrite/engine.h"
#include "util/memory_budget.h"
#include "views/view_index.h"
#include "xml/tree.h"

namespace xpv {

class IncrementalEvaluator;
class ThreadPool;

/// A named view definition.
struct ViewDefinition {
  std::string name;
  Pattern pattern;
};

/// A view materialized over one document: V has been applied to `doc` and
/// the result V(doc) — a set of subtrees of doc, identified by their root
/// nodes — is stored (Section 2.4).
///
/// Subtrees are kept as node ids into the original document rather than
/// deep copies: applying a rewriting R to the view then amounts to
/// evaluating R anchored at each stored node, which is exactly R(V(t)).
/// The anchored evaluation computes its embedding DP only over the stored
/// subtrees, so `Apply` costs O(|V(t)|-region), not O(|doc|) — the paper's
/// "answering through the view is insensitive to the rest of the
/// document". `MaterializeCopies()` produces standalone subtree copies
/// when a shipped-result cache is being simulated (see bench_view_cache).
class MaterializedView {
 public:
  /// Evaluates `definition.pattern` over `doc`. `doc` must outlive this.
  MaterializedView(ViewDefinition definition, const Tree& doc);

  /// An inert tombstone (empty definition, no outputs) — the state of a
  /// removed view slot awaiting reuse. `Apply` answers empty; `doc()` must
  /// not be called.
  MaterializedView() : definition_{std::string(), Pattern::Empty()} {}

  // Move-only (the persistent evaluator state is uniquely owned); defined
  // out of line — `IncrementalEvaluator` is incomplete here.
  ~MaterializedView();
  MaterializedView(MaterializedView&&) noexcept;
  MaterializedView& operator=(MaterializedView&&) noexcept;

  const ViewDefinition& definition() const { return definition_; }
  const Tree& doc() const { return *doc_; }

  /// Root nodes (in `doc`) of the subtrees in V(doc), sorted.
  const std::vector<NodeId>& outputs() const { return outputs_; }

  /// Deep copies of the result subtrees.
  [[nodiscard]] std::vector<Tree> MaterializeCopies() const;

  /// Applies a rewriting `r` to the materialized result: the union over
  /// o in outputs() of r(doc^o), as sorted node ids of `doc`. By
  /// Proposition 2.4 this equals (r ∘ V)(doc).
  [[nodiscard]] std::vector<NodeId> Apply(const Pattern& r) const;

  /// Estimated heap bytes held by this view (stored output ids, name,
  /// definition pattern) — what the owning cache charges against the
  /// service's `MemoryBudget`.
  size_t EstimatedBytes() const;

  /// `Apply` for several rewritings at once, sharing the anchored
  /// embedding DP over the stored subtrees: the group is packed into one
  /// bit space (`MultiEvaluator`), so n small rewritings cost roughly one
  /// DP pass plus n cheap selection sweeps instead of n passes. Result i
  /// equals `Apply(*rs[i])` exactly (empty rewritings yield empty
  /// results). The batched-answering path groups a cold batch's hits per
  /// view through this.
  [[nodiscard]] std::vector<std::vector<NodeId>> ApplyMany(
      const std::vector<const Pattern*>& rs) const;

  // ------------------------------------------------- incremental updates
  //
  // The owning cache drives these after `Tree::ApplyDelta` mutated the
  // document in place (same `Tree` object — `doc()` stays valid). A view
  // may only be updated while settled in its cache slot: the persistent
  // evaluator state created here points into this object's `definition_`,
  // so it must never be created on a view that will still be moved.

  /// Patches the stored result set after a delta this view is dirty
  /// under. Reuses the persistent bit-parallel DP state when present —
  /// remapping rows under compaction and recomputing only the delta's
  /// suffix and dirty-ancestor rows — and builds it with one full DP pass
  /// when absent (first dirty update, or the state was dropped by a
  /// skipped delta). Returns true on the incremental path, false when the
  /// full pass ran. Afterwards `outputs()` equals a fresh evaluation of
  /// the definition over the mutated document, bit for bit.
  [[nodiscard]] bool ApplyUpdate(const TreeDeltaReport& report);

  /// Rewrites the stored output ids through a compaction remap. Only
  /// valid on views the delta provably did not affect (every output
  /// survives); sorted order is preserved (remaps are order-preserving).
  void RemapOutputs(const std::vector<NodeId>& remap);

  /// Re-evaluates the view from scratch in place (the fallback when a
  /// delta's dirty region is too large) and drops the persistent DP state.
  void Rematerialize();

  /// Drops the persistent DP state. Called on views that skip a delta:
  /// their DP rows describe a tree shape that is now stale, so the next
  /// dirty update must rebuild rather than patch.
  void DropIncrementalState() { inc_.reset(); }

 private:
  ViewDefinition definition_;
  const Tree* doc_ = nullptr;
  std::vector<NodeId> outputs_;
  /// Persistent row state of the embedding DP over (pattern, doc), kept
  /// across updates so a delta recomputes only its affected rows. Lazily
  /// built by the first dirty `ApplyUpdate`; null until then and for
  /// views that never see a dirty delta.
  std::unique_ptr<IncrementalEvaluator> inc_;
};

/// Outcome of answering one query through the cache.
struct CacheAnswer {
  /// True if some cached view admitted an equivalent rewriting.
  bool hit = false;
  /// Slot index of the view used (when hit), -1 otherwise. The memo layer
  /// keys validity on it: a hit answer stays valid while that view's
  /// per-view epoch stands, a miss answer only while the whole document
  /// does (see `ViewCache::view_epoch`/`doc_epoch`).
  int view_slot = -1;
  /// Name of the view used (when hit).
  std::string view_name;
  /// The rewriting applied (when hit).
  Pattern rewriting = Pattern::Empty();
  /// Query result, as sorted node ids of the document. Always filled:
  /// on a miss the query is evaluated directly against the document.
  std::vector<NodeId> outputs;
};

/// Serving statistics: per answer the delta of its scan (see
/// `PlannedAnswer`), summed by the caller into running totals.
struct CacheStats {
  uint64_t queries = 0;
  uint64_t hits = 0;
  uint64_t rewrite_unknown = 0;  ///< Queries where some view got kUnknown.
};

/// One pre-resolved entry of a plan: a *distinct* (by canonical
/// fingerprint) nonempty query whose selection summary was already built by
/// the caller. `Service::AnswerBatch` canonicalizes a cross-document batch
/// once — parse, fingerprint, summary per distinct query, service-wide —
/// and hands every document slice these shared entries, so the per-query
/// setup cost is paid once per batch instead of once per (document, query).
/// Both pointers must stay alive and unmoved for the duration of the call.
struct PlannedQuery {
  const Pattern* pattern = nullptr;
  const SelectionSummary* summary = nullptr;
};

/// The answer of one planned (distinct) query plus the serving-stats delta
/// of its scan (`delta.queries == 1`). The caller fans duplicates out by
/// replaying the delta per request — and the `AnswerCache` memoizes the
/// pair, so a memo hit is stats-identical to an unmemoized scan.
struct PlannedAnswer {
  CacheAnswer answer;
  CacheStats delta;
};

/// What one `ViewCache::ApplyUpdate` did to the view set — the facade
/// folds these into the service's update counters.
struct ViewUpdateStats {
  int views_patched = 0;         ///< Incrementally patched via the DP state.
  int views_rematerialized = 0;  ///< Paid a full evaluation pass.
  int views_untouched = 0;       ///< Provably unaffected: no evaluation.
  bool fell_back = false;  ///< Dirty region over threshold: full rebuild.
};

/// A materialized-view cache over a single document: the end-to-end
/// application from the paper's introduction (answering queries from
/// cached views). For each query P it consults the view-pruning index
/// (per-view selection summaries built at `AddView` time), then asks the
/// rewrite engine for an equivalent rewriting R with R ∘ V ≡ P over each
/// admissible view, and on success answers R(V(t)) without touching the
/// parts of the document outside the view; otherwise it falls back to
/// direct evaluation.
///
/// `Execute` is the one answering entry: index pruning → one candidate
/// bundle per (query, first-admissible-view) pair, shared between the
/// oracle warm-up and the engine → worker-parallel answering over
/// per-worker oracle shards that read through the caller's synchronized
/// oracle and are absorbed back into it afterwards.
class ViewCache {
 public:
  /// `doc` must outlive the cache. `oracle` is unused: every `Execute`
  /// call answers through the synchronized oracle its caller supplies.
  /// The parameter stays only for source compatibility with existing
  /// callers and may be dropped once none passes it.
  explicit ViewCache(const Tree& doc, RewriteOptions options = {},
                     ContainmentOracle* oracle = nullptr);
  ~ViewCache();

  ViewCache(const ViewCache&) = delete;
  ViewCache& operator=(const ViewCache&) = delete;

  // Movable (the document is held by pointer). A moved-from cache may only
  // be destroyed or assigned to.
  ViewCache(ViewCache&&) noexcept;
  ViewCache& operator=(ViewCache&&) noexcept;

  /// Materializes and registers a view. Returns its slot index: a
  /// tombstoned slot when one is free (remove/re-add churn recycles slots
  /// instead of growing `views()` and the index forever), otherwise a new
  /// slot at the end of `views()`. Recycling preserves the deque's
  /// pointer-stability guarantee — live slots never move either way.
  int AddView(ViewDefinition definition);

  /// Re-materializes slot `index` with a new definition — the slot-reuse
  /// half of the remove/re-add lifecycle (`xpv::Service` recycles removed
  /// view slots through this). The slot keeps its position in the
  /// deterministic probe order.
  void ReplaceView(int index, ViewDefinition definition);

  /// Tombstones slot `index`: the view stops answering, its materialized
  /// data is dropped, and the slot can be revived with `ReplaceView`.
  void RemoveView(int index);

  /// True when slot `index` holds a live (non-tombstoned) view.
  bool view_active(int index) const {
    return index >= 0 && index < static_cast<int>(views_.size()) &&
           active_[static_cast<size_t>(index)] != 0;
  }

  /// Number of live views (`views().size()` minus the tombstoned slots).
  int num_active_views() const { return active_views_; }

  /// Applies the consequences of a document delta (already applied to the
  /// tree via `Tree::ApplyDelta`) to every live view. Per view it decides
  /// dirtiness from the selection summary (`DeltaMayAffectView`): dirty
  /// views are incrementally patched (or pay one full pass when their DP
  /// state is cold) and bump their per-view epoch; provably untouched
  /// views do no evaluation at all — at most an output-id remap under
  /// compaction — and keep their epoch, so their memoized answers stay
  /// valid. When the dirty region exceeds `fallback_fraction` of the new
  /// document, every view is fully re-materialized instead (worst case is
  /// never worse than a document replace). Bumps `doc_epoch()` (and the
  /// shape `epoch()` too when the delta compacted node ids, which
  /// invalidates every stored id). Not thread-safe — the facade holds the
  /// document stripe exclusively.
  [[nodiscard]] ViewUpdateStats ApplyUpdate(const TreeDeltaReport& report,
                                            double fallback_fraction);

  /// The view-set epoch: a monotonic counter bumped by every `AddView`,
  /// `ReplaceView` and `RemoveView` — and by every `ApplyUpdate` whose
  /// delta compacted node ids (stored ids went stale cache-wide). Answers
  /// are a pure function of (document, view set, query), so an
  /// epoch-tagged answer is valid exactly while the epoch stands — the
  /// `AnswerCache` keys on it and invalidation is one integer compare
  /// (see the epoch contract there).
  uint64_t epoch() const { return epoch_; }

  /// The document epoch: bumped by every non-empty `ApplyUpdate`. The
  /// validity stamp of memoized *miss* answers — they were computed over
  /// the whole document, so any update invalidates them.
  uint64_t doc_epoch() const { return doc_epoch_; }

  /// The per-view epoch of slot `slot`: bumped when the view's definition
  /// changes (`AddView`/`ReplaceView`/`RemoveView` on that slot) and when
  /// an update dirties the view — either its output set may have changed
  /// (`DeltaMayAffectView`) or the delta spliced content inside one of its
  /// result subtrees (a rewriting applied through the view reads that
  /// content). The validity stamp of memoized *hit* answers through this
  /// view: updates that provably don't affect the view leave its epoch —
  /// and so its memoized answers — untouched.
  uint64_t view_epoch(int slot) const {
    return view_epochs_[static_cast<size_t>(slot)];
  }

  /// All view slots, including tombstones (check `view_active`). A deque
  /// so growth never moves existing elements: pointers into a slot (e.g.
  /// `Service::view`'s `ViewDefinition*`) stay valid until that slot is
  /// removed or replaced, even across concurrent `AddView`s.
  const std::deque<MaterializedView>& views() const { return views_; }

  /// Answers the distinct, nonempty, summarized `queries` (one
  /// `PlannedQuery` per canonical fingerprint; the `Service` batch planner
  /// builds them once across all documents) and returns one
  /// `PlannedAnswer` per entry, in order, with `delta.queries == 1`.
  ///
  /// Per entry: first admissible view, candidate bundle shared between
  /// the `ContainedMany` oracle warm-up and `DecideRewrite`, then the scan
  /// in registration order. Hits are applied grouped per view
  /// (`ApplyMany`), misses share packed full-document evaluations. The
  /// entries are partitioned into `num_workers` chunks, each answered
  /// through its own oracle shard that reads through `oracle` under its
  /// shared lock and is absorbed back under the exclusive lock. The chunk
  /// partition depends only on (queries.size(), num_workers), so answers
  /// and deltas are worker-count-invariant. `pool` supplies the worker
  /// threads (not owned; its thread count need not match `num_workers`);
  /// when null the call runs as one chunk on the calling thread.
  ///
  /// Const and thread-safe: the caller must hold the view set stable for
  /// the duration of the call (the Service's per-document stripe lock, in
  /// shared mode). The calling thread's cancel token reaches every
  /// worker.
  [[nodiscard]] std::vector<PlannedAnswer> Execute(
      const std::vector<PlannedQuery>& queries, int num_workers,
      ThreadPool* pool, SynchronizedOracle* oracle) const;

  /// Points materialized-result byte accounting at the service's shared
  /// `MemoryBudget` (not owned; may be null). Charges the bytes of any
  /// views already resident. Setup-time only — must not race serving.
  void SetMemoryBudget(MemoryBudget* budget) {
    charge_ = ScopedCharge(budget);
    size_t total = 0;
    for (size_t b : slot_bytes_) total += b;
    charge_.Set(total);
  }

  /// Estimated bytes of all live materialized results.
  size_t resident_view_bytes() const { return charge_.bytes(); }

  /// The view-pruning index (per-view selection summaries).
  const ViewIndex& index() const { return index_; }

 private:
  /// The rewrite-decision half of a view scan: probes the admissible views
  /// for `query` (summarized as `summary`) in registration order;
  /// `prebuilt` optionally supplies the candidate bundle for view
  /// `prebuilt_vi`. On the first view admitting an equivalent rewriting,
  /// stores its slot in `*vi_out`, the rewriting in `*rewriting_out`,
  /// counts the hit, and returns true; otherwise returns false (the caller
  /// owns the fallback evaluation). Thread-safe: everything mutable is
  /// reached through `options`/`stats`.
  bool FindRewrite(const Pattern& query, const SelectionSummary& summary,
                   int prebuilt_vi, const CandidateBundle* prebuilt,
                   const RewriteOptions& options, CacheStats* stats,
                   int* vi_out, Pattern* rewriting_out) const;

  const Tree* doc_;
  RewriteOptions options_;  // `oracle` is set per call by Execute.
  std::deque<MaterializedView> views_;  // Stable slots; see views().
  std::vector<char> active_;  // Parallel to views_: 0 = tombstoned slot.
  std::vector<size_t> slot_bytes_;  // Parallel to views_: charged bytes.
  ScopedCharge charge_;  // Running budget charge for the live views.
  std::vector<int> free_slots_;  // Tombstoned slots awaiting AddView reuse.
  int active_views_ = 0;
  uint64_t epoch_ = 0;  // See epoch().
  uint64_t doc_epoch_ = 0;  // See doc_epoch().
  std::vector<uint64_t> view_epochs_;  // Parallel to views_; see view_epoch().
  ViewIndex index_;
};

}  // namespace xpv

#endif  // XPV_VIEWS_VIEW_CACHE_H_
