#ifndef XPV_API_SERVICE_H_
#define XPV_API_SERVICE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "containment/oracle.h"
#include "pattern/pattern.h"
#include "rewrite/engine.h"
#include "util/cancel.h"
#include "util/memory_budget.h"
#include "util/result.h"
#include "views/answer_cache.h"
#include "views/view_cache.h"
#include "xml/tree.h"

namespace xpv {

class ThreadPool;

/// Machine-readable classification of a `Service` failure. Every fallible
/// entry point of the serving facade reports one of these through
/// `ServiceResult` — no user input can reach an assert/abort through
/// `src/api/`.
enum class ServiceErrorCode {
  kParseError,         ///< Malformed XPath or XML input.
  kUnknownDocument,    ///< The handle was never minted (default/invalid).
  kDuplicateViewName,  ///< The document already has a view with this name.
  kEmptyPattern,       ///< The pattern is the empty pattern Υ.
  /// `UpdateDocument`: the delta references a node outside the document's
  /// (op-by-op evolving) id space, omits an insert subtree, or tries to
  /// delete the root. Detected by validation before any mutation — the
  /// document is unchanged.
  kInvalidDelta,
  /// The handle no longer (or never did) resolve on this Service: its
  /// target was removed or replaced, its slot was recycled for a newer
  /// object, or it was minted by a *different* Service instance. Stale
  /// handles are detected exactly — a recycled slot never silently
  /// resolves to the wrong document or view.
  kStaleHandle,
  /// The call's deadline expired before the item was answered. Items
  /// answered before expiry are returned alongside (partial batches); an
  /// already-expired call fails every item without planning any work.
  kDeadlineExceeded,
  /// The caller's `CancelToken` fired before the item was answered.
  kCancelled,
  /// Admission control refused the call: too many in-flight serving
  /// calls. Fails fast (no planning, no locks); `retry_after_ms` carries
  /// a backoff hint.
  kOverloaded,
  /// An internal fault (injected fault, allocation failure) was absorbed
  /// into a structured error instead of crashing. The Service stays
  /// consistent; the request may be retried.
  kInternal,
};

/// Stable identifier string for a code (e.g. "parse_error").
const char* ToString(ServiceErrorCode code);

/// A structured `Service` failure: code, human-readable message (for parse
/// errors including the one-line `position N: ...` summary plus caret
/// context), and — for `kParseError` on XPath input — the byte offset of
/// the offending character (-1 when unavailable).
struct ServiceError {
  ServiceErrorCode code = ServiceErrorCode::kParseError;
  std::string message;
  int64_t offset = -1;
  /// For `kOverloaded`: suggested backoff before retrying, scaled by how
  /// far past the admission limit the Service is. -1 otherwise.
  int64_t retry_after_ms = -1;
};

/// `Result` flavors used by the facade: structured errors, not strings.
/// `ServiceStatus` is the payload-free flavor of the mutation APIs
/// (`RemoveDocument`, `ReplaceDocument`, `RemoveView`).
template <typename T>
using ServiceResult = Result<T, ServiceError>;
using ServiceStatus = Result<void, ServiceError>;

/// Generation-tagged handle to a document registered with a `Service`.
///
/// `slot` is the dense storage index, `generation` disambiguates
/// successive occupants of a recycled slot, and `service` is the instance
/// tag of the minting Service — a handle fed to a different Service (which
/// also mints slots from 0) is rejected with `kStaleHandle` instead of
/// silently resolving to an unrelated document.
struct DocumentId {
  int32_t slot = -1;
  uint32_t generation = 0;
  uint32_t service = 0;

  [[nodiscard]] bool valid() const noexcept {
    return slot >= 0 && generation != 0 && service != 0;
  }
  friend bool operator==(DocumentId a, DocumentId b) {
    return a.slot == b.slot && a.generation == b.generation &&
           a.service == b.service;
  }
  friend bool operator!=(DocumentId a, DocumentId b) { return !(a == b); }
};

/// Generation-tagged handle to a view: the owning document plus the view's
/// slot within that document's cache and the slot's generation at mint
/// time. View generations are minted monotonically per document slot, so
/// neither `RemoveView` slot reuse nor `ReplaceDocument` (which drops all
/// views) can resurrect an old handle.
struct ViewId {
  DocumentId document;
  int32_t slot = -1;
  uint32_t generation = 0;

  [[nodiscard]] bool valid() const noexcept {
    return document.valid() && slot >= 0 && generation != 0;
  }
  friend bool operator==(ViewId a, ViewId b) {
    return a.document == b.document && a.slot == b.slot &&
           a.generation == b.generation;
  }
  friend bool operator!=(ViewId a, ViewId b) { return !(a == b); }
};

/// A typed query request: either an already-built `Pattern` or an XPath
/// string the Service parses on demand. Batches deduplicate requests by
/// the pattern's canonical fingerprint (two textually different XPaths for
/// isomorphic patterns are answered once). XPath parse failures surface as
/// `ServiceError`s; inside a batch they fail only their own slot.
class Query {
 public:
  Query(Pattern pattern)  // NOLINT(runtime/explicit)
      : pattern_(std::move(pattern)), has_pattern_(true) {}
  Query(std::string xpath)  // NOLINT(runtime/explicit)
      : pattern_(Pattern::Empty()), xpath_(std::move(xpath)) {}
  Query(std::string_view xpath)  // NOLINT(runtime/explicit)
      : Query(std::string(xpath)) {}
  // A null C string is treated as empty (which parses to a structured
  // "empty expression" error) — never undefined behavior.
  Query(const char* xpath)  // NOLINT(runtime/explicit)
      : Query(std::string(xpath == nullptr ? "" : xpath)) {}

  [[nodiscard]] bool holds_pattern() const noexcept { return has_pattern_; }
  /// The held pattern. Requires `holds_pattern()`.
  const Pattern& pattern() const { return pattern_; }
  /// The held XPath string. Requires `!holds_pattern()`.
  const std::string& xpath() const { return xpath_; }

 private:
  Pattern pattern_;
  std::string xpath_;
  bool has_pattern_ = false;
};

/// The serving-facade answer is the cache answer: hit/miss, the view and
/// rewriting used, and the query result as sorted node ids of the
/// document.
using Answer = CacheAnswer;

/// One request of a cross-document batch.
struct BatchItem {
  DocumentId document;
  Query query;
};

/// Per-item outcomes of `Service::AnswerBatch`, parallel to the request
/// vector: a slot fails alone (malformed XPath, stale handle) without
/// disturbing the other answers.
struct BatchAnswers {
  std::vector<ServiceResult<Answer>> answers;

  size_t size() const { return answers.size(); }
};

/// Per-call serving knobs for `Answer`/`AnswerBatch`. Deadlines and
/// cancellation are cooperative: the pipeline polls the combined token at
/// phase boundaries, between per-document batch slices, inside the
/// canonical-model odometer and the evaluation walks (amortized), and
/// while parked on single-flight latches — an expired call returns
/// structured `kDeadlineExceeded` per item with the already-answered
/// prefix intact, never a hang. Any item answered under a deadline is
/// bit-identical to the unconstrained answer.
struct CallOptions {
  /// Absolute deadline for the call. Unset = use the Service's
  /// `default_deadline` (which may itself be "none").
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Caller-held cancellation handle; `cancel.Cancel()` from any thread
  /// aborts the call at its next poll with `kCancelled` items. A default
  /// (null) token never fires.
  CancelToken cancel;
  /// `AnswerBatch` only: worker count; <= 0 means
  /// `ServiceOptions::default_workers`.
  int num_workers = 0;
};

/// Aggregated serving statistics across every document of a `Service`.
struct ServiceStats {
  uint64_t documents = 0;
  uint64_t views = 0;
  uint64_t queries = 0;          ///< Queries answered (hits + misses).
  uint64_t hits = 0;             ///< Answered through a view rewriting.
  uint64_t rewrite_unknown = 0;  ///< Queries where some view got kUnknown.
  uint64_t failed_requests = 0;  ///< Requests rejected with a ServiceError.
  uint64_t oracle_hits = 0;      ///< Shared containment-oracle hits.
  uint64_t oracle_misses = 0;    ///< Shared containment-oracle misses.
  /// Worker threads alive in the shared pool. The pool only ever grows in
  /// place (up to the hardware cap), so alternating small and large
  /// batches reuse threads instead of joining and re-spawning them.
  uint64_t pool_threads = 0;
  /// Epoch-keyed answer-memo counters (see `AnswerCache`): a hit served a
  /// stored answer without touching the rewrite engine; serving counters
  /// (`queries`/`hits`/`rewrite_unknown`) are unaffected either way — a
  /// memo hit replays the stored scan's deltas verbatim.
  uint64_t answer_cache_hits = 0;
  uint64_t answer_cache_misses = 0;
  uint64_t answer_cache_evictions = 0;
  uint64_t answer_cache_entries = 0;  ///< Resident memo entries.
  /// Inserts the memo's doorkeeper turned away: under capacity pressure a
  /// key must be presented twice before it may evict a resident entry, so
  /// one-off queries cannot sweep out the proven-hot memo.
  uint64_t answer_cache_doorkeeper_rejects = 0;
  // ----- overload / robustness counters (PR 7) -----
  uint64_t deadline_exceeded = 0;  ///< Items failed on an expired deadline.
  uint64_t cancelled = 0;          ///< Items failed on explicit cancel.
  uint64_t overloaded = 0;         ///< Calls refused by admission control.
  uint64_t internal_errors = 0;    ///< Faults absorbed into kInternal.
  uint64_t inflight_calls = 0;     ///< Serving calls running right now.
  /// Shared memory budget: estimated resident bytes across the answer
  /// memo, the containment oracle and all materialized views, and the
  /// configured limit (0 = unlimited; accounting still runs).
  uint64_t memory_used_bytes = 0;
  uint64_t memory_limit_bytes = 0;
  /// Degradation-ladder transitions: each rung fires only while the rung
  /// above left the budget over limit. Memo admission pauses are undone
  /// (with hysteresis) once usage falls below the low watermark.
  uint64_t memory_memo_shrinks = 0;
  uint64_t memory_oracle_shrinks = 0;
  uint64_t memory_admission_pauses = 0;
  uint64_t memory_admission_resumes = 0;
  /// Memo inserts dropped while admission was paused (the write was
  /// acknowledged and served; only memoization was skipped).
  uint64_t answer_cache_admission_drops = 0;
  /// Pool tasks refused by the bounded queue (ran inline on the
  /// submitting thread instead — backpressure, not failure).
  uint64_t pool_queue_rejections = 0;
  // ----- incremental update counters (PR 9) -----
  uint64_t updates_applied = 0;  ///< `UpdateDocument` calls that landed.
  /// Per-update view outcomes, summed: views patched through the
  /// persistent DP state vs. views that paid a full evaluation pass
  /// (cold DP state, or the whole update fell back) vs. views the
  /// dirtiness test proved untouched (no evaluation at all).
  uint64_t update_views_patched = 0;
  uint64_t update_views_rematerialized = 0;
  uint64_t update_views_untouched = 0;
  /// Updates whose dirty region exceeded `update_fallback_fraction` and
  /// re-materialized every view instead of patching.
  uint64_t update_fallbacks = 0;
  /// Memoized answers for this document still valid after an update
  /// (untouched views' hit entries) — the per-view epoch contract at work.
  uint64_t update_memo_entries_preserved = 0;
};

/// Configuration of a `Service`.
struct ServiceOptions {
  /// Engine options used by every per-document cache. The `oracle` field
  /// is ignored: the Service always injects its own shared oracle.
  RewriteOptions rewrite;
  /// Capacity of the shared containment oracle.
  size_t oracle_capacity = ContainmentOracle::kDefaultCapacity;
  /// Capacity (in entries) of the epoch-keyed answer memo probed by
  /// `Answer`/`AnswerBatch` before the rewrite engine runs. 0 disables
  /// memoization entirely (every request recomputes — the baseline the
  /// equivalence tests and benches compare against).
  size_t answer_cache_capacity = AnswerCache::kDefaultCapacity;
  /// Doorkeeper admission for the answer memo (see `AnswerCache`): under
  /// capacity pressure, first-seen keys are rejected once before they may
  /// displace resident entries. Only bites when the memo is full.
  bool answer_cache_doorkeeper = true;
  /// Worker count used by `AnswerBatch` when the call passes 0.
  int default_workers = 1;
  /// Default per-call deadline applied when a call does not carry its
  /// own (`CallOptions::deadline` wins). Zero = no default deadline.
  std::chrono::milliseconds default_deadline{0};
  /// Admission control: maximum concurrently executing serving calls
  /// (`Answer` + `AnswerBatch`). Calls past the limit fail fast with
  /// `kOverloaded` and a retry-after hint. 0 = unlimited.
  int max_inflight_calls = 0;
  /// Bound on the shared pool's task queue; a full queue makes batch
  /// submission run chunks inline on the submitting thread
  /// (backpressure) instead of growing the queue. 0 = unbounded.
  size_t max_queued_tasks = 0;
  /// Shared byte budget across the answer memo, the containment oracle
  /// and all materialized views. When estimated usage crosses the limit
  /// the Service degrades gracefully (shrink memo -> shrink oracle ->
  /// pause memo admission) instead of refusing writes. 0 = unlimited.
  size_t memory_budget_bytes = 0;
  /// `UpdateDocument` fallback threshold: when the delta's dirty region
  /// (touched nodes + dirty ancestor rows + inserted suffix) exceeds this
  /// fraction of the post-delta document, incremental per-view patching
  /// is abandoned and every view is fully re-materialized — the update's
  /// worst case is then one evaluation pass per view, never worse than
  /// `ReplaceDocument` plus re-adding the views.
  double update_fallback_fraction = 0.5;
};

/// The multi-document serving facade — the paper's end-to-end story (a
/// cache answering many users' queries from materialized views) behind one
/// stable front door:
///
///   Service service;
///   auto doc = service.AddDocument("<a><b><c/></b></a>");
///   service.AddView(doc.value(), "b-view", "a/b");
///   auto answer = service.Answer(doc.value(), "a/b/c");
///
/// Documents and views are interned behind generation-tagged
/// `DocumentId`/`ViewId` handles whose slots are recycled through free
/// lists: `RemoveDocument`/`RemoveView`/`ReplaceDocument` invalidate
/// outstanding handles *detectably* — every later use reports
/// `kStaleHandle` instead of resolving to the slot's new occupant. A
/// handle minted by another Service instance is rejected the same way.
/// Every fallible entry point returns `ServiceResult`/`ServiceStatus`
/// with a structured `ServiceError` instead of asserting.
///
/// Internally the Service owns ONE shared `ContainmentOracle` (behind a
/// `SynchronizedOracle`), ONE lazily created, grow-in-place `ThreadPool`,
/// and ONE epoch-keyed `AnswerCache`, injected into a `ViewCache` per
/// document: equivalence tests amortize across documents. `AnswerBatch`
/// is a service-wide batch planner — every query of a cross-document
/// batch is canonicalized ONCE (parse + canonical fingerprint + selection
/// summary per distinct fingerprint, across all documents), each
/// document's slice is probed against the answer memo, and only the
/// misses run the batched/parallel `ViewCache` pipeline on the shared
/// pool. A batch asking the same query over 50 documents pays the
/// per-query setup once; a repeated batch answers from the memo without
/// touching the rewrite engine at all.
///
/// Thread safety: `Answer`, `AnswerBatch`, `document`, `view`, `cache`,
/// `num_views`, `num_documents` and `stats` are *shared* operations — any
/// number may run concurrently from multiple threads. `AddDocument`,
/// `AddView`, `RemoveDocument`, `RemoveView` and `ReplaceDocument` are
/// *exclusive* per document (a striped `shared_mutex` per document slot;
/// `AddDocument`/`RemoveDocument` additionally serialize on the slot
/// table) and may run concurrently with shared operations on *other*
/// documents. Answers never tear: a query observes the view set either
/// before or after a concurrent mutation, and its outputs always equal
/// direct evaluation against the document. Pointers returned by
/// `document`/`view`/`cache` stay valid until that document (or view) is
/// removed or replaced — do not use them across a concurrent removal.
/// Move construction/assignment and destruction require external
/// quiescence. Movable, not copyable.
class Service {
 public:
  explicit Service(ServiceOptions options = {});
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;
  Service(Service&&) noexcept;
  Service& operator=(Service&&) noexcept;

  // ------------------------------------------------------------ documents

  /// Registers an already-built document. Infallible. Handles minted for
  /// previously removed slots carry a fresh generation.
  [[nodiscard]] DocumentId AddDocument(Tree document);

  /// Parses `xml` and registers the resulting document.
  [[nodiscard]] ServiceResult<DocumentId> AddDocument(std::string_view xml);

  /// Removes the document and all its views. The document handle and
  /// every `ViewId` on it become stale; the slot is recycled for future
  /// `AddDocument` calls with a bumped generation, so the old handles are
  /// rejected with `kStaleHandle` forever.
  [[nodiscard]] ServiceStatus RemoveDocument(DocumentId id);

  /// Replaces the document behind `id` in place: the *document* handle
  /// stays valid and now serves the new tree; all existing views are
  /// dropped (their `ViewId`s become stale — a view materialized over the
  /// old tree cannot answer for the new one).
  [[nodiscard]] ServiceStatus ReplaceDocument(DocumentId id, Tree document);

  /// As above, from XML (adds: parse error).
  [[nodiscard]] ServiceStatus ReplaceDocument(DocumentId id, std::string_view xml);

  /// Applies an ordered list of subtree inserts, subtree deletes and node
  /// relabels to the document *in place*, incrementally maintaining every
  /// layer above it: the bit-parallel DP re-runs only over the touched
  /// region (touched subtrees + dirty ancestor chains), materialized views
  /// splice their result sets instead of re-evaluating, and views the
  /// per-view dirtiness test proves untouched do no work at all — their
  /// memoized answers survive the update as cache hits (per-view epochs;
  /// see the README's "Incremental updates" section for the contract).
  ///
  /// Unlike `ReplaceDocument`, views SURVIVE: every `ViewId` remains
  /// valid and serves the post-delta document. Node-id stability: without
  /// delete compaction ids are stable; with deletes, surviving nodes are
  /// compacted order-preservingly and all stored answers re-key (the
  /// answer memo for this document is invalidated wholesale).
  ///
  /// When the dirty region exceeds `ServiceOptions::
  /// update_fallback_fraction` of the post-delta document, the update
  /// falls back to fully re-materializing every view (counted in
  /// `ServiceStats::update_fallbacks`).
  ///
  /// Errors: `kInvalidDelta` (validation failed; document unchanged),
  /// `kStaleHandle`/`kUnknownDocument`, `kDeadlineExceeded`/`kCancelled`
  /// (only before mutation begins — an update that started applying runs
  /// to completion), `kInternal` (injected fault or allocation failure
  /// before mutation; document unchanged).
  [[nodiscard]] ServiceStatus UpdateDocument(DocumentId id, DocumentDelta delta);

  /// As above with deadline/cancellation. The token is honored up to the
  /// point of no return (validation and admission), then masked: a delta
  /// is applied atomically or not at all, never half-way.
  [[nodiscard]] ServiceStatus UpdateDocument(DocumentId id, DocumentDelta delta,
                               const CallOptions& call);

  /// Number of live documents.
  [[nodiscard]] int num_documents() const;

  /// The document behind `id`, or null when `id` is stale/unknown.
  [[nodiscard]] const Tree* document(DocumentId id) const;

  // ---------------------------------------------------------------- views

  /// Materializes `pattern` over the document and registers it under
  /// `name` (unique per document; a removed view's name may be reused).
  /// Errors: stale/unknown document, duplicate view name, empty pattern.
  [[nodiscard]] ServiceResult<ViewId> AddView(DocumentId document, std::string name,
                                Pattern pattern);

  /// As above, from an XPath expression (adds: parse error with offset).
  [[nodiscard]] ServiceResult<ViewId> AddView(DocumentId document, std::string name,
                                std::string_view xpath);

  /// Removes one view: its handle becomes stale, its name and slot are
  /// recycled (the slot with a fresh generation).
  [[nodiscard]] ServiceStatus RemoveView(ViewId id);

  /// Number of live views on `document` (0 when stale/unknown).
  [[nodiscard]] int num_views(DocumentId document) const;

  /// The view definition behind `id`, or null when `id` is stale/unknown.
  [[nodiscard]] const ViewDefinition* view(ViewId id) const;

  // -------------------------------------------------------------- serving

  /// Answers one query against one document, probing the epoch-keyed
  /// answer memo first (a repeat of a recently answered query under an
  /// unchanged view set skips the rewrite engine; answers and serving
  /// stats are identical either way). It runs the same memo routine as
  /// one `AnswerBatch` slice. An empty pattern selects nothing and
  /// answers with an empty miss; a malformed XPath or stale/unknown
  /// document is a `ServiceError`.
  /// Safe to call concurrently with other shared operations and with
  /// mutations of other documents.
  /// (`xpv::Answer` is qualified because the member name shadows it.)
  [[nodiscard]] ServiceResult<xpv::Answer> Answer(DocumentId document, const Query& query);

  /// As above with per-call deadline/cancellation and admission control:
  /// an expired or cancelled call returns `kDeadlineExceeded`/
  /// `kCancelled`; past the in-flight limit it returns `kOverloaded`
  /// without planning any work.
  [[nodiscard]] ServiceResult<xpv::Answer> Answer(DocumentId document, const Query& query,
                                    const CallOptions& call);

  /// Answers a cross-document batch through the service-wide planner:
  /// items are resolved (documents looked up, XPath parsed), every
  /// distinct query (by canonical fingerprint) is summarized ONCE across
  /// all documents, each document slice probes the epoch-keyed answer
  /// memo, and the remaining misses run the batched/parallel `ViewCache`
  /// pipeline (shared candidate bundles, oracle shards) over the
  /// Service's shared pool. Answers come back in request order; a failed
  /// item (parse error, stale/unknown document) occupies its slot as an
  /// error without affecting the other items.
  ///
  /// `num_workers` <= 0 means `options.default_workers`. Answers and
  /// serving statistics are identical for every worker count, and
  /// identical with the memo on or off.
  [[nodiscard]] ServiceResult<BatchAnswers> AnswerBatch(const std::vector<BatchItem>& items,
                                          int num_workers = 0);

  /// As above with per-call deadline/cancellation and admission control.
  /// An already-expired call fails every item with `kDeadlineExceeded`
  /// in O(items) time (no locks, no planning — the <1ms fast path). A
  /// deadline expiring mid-batch returns the already-answered items
  /// (bit-identical to an unconstrained run) and fails the rest; the
  /// whole call errors with `kOverloaded` past the in-flight limit.
  [[nodiscard]] ServiceResult<BatchAnswers> AnswerBatch(const std::vector<BatchItem>& items,
                                          const CallOptions& call);

  // ------------------------------------------------------------ telemetry

  /// Aggregated statistics (computed on demand; safe concurrently).
  [[nodiscard]] ServiceStats stats() const;

  /// The shared containment oracle's table, unsynchronized — requires
  /// external quiescence (no concurrent Service calls); tests and
  /// telemetry only. Its raw `hits()` can lag `stats().oracle_hits`:
  /// fully-cached calls fold their hit counts outside the table (see
  /// `SynchronizedOracle::Absorb`), and only `stats()` adds them back.
  const ContainmentOracle& oracle() const;

  /// The per-document cache behind `id`, or null when `id` is
  /// stale/unknown — read-only escape hatch for view inspection and
  /// tests. Note: the Service's concurrent answer paths do NOT maintain
  /// the cache's own `stats()` (serving counters live in `stats()` at
  /// the Service level).
  [[nodiscard]] const ViewCache* cache(DocumentId id) const;

  /// The shared worker pool (null until a parallel batch created it) —
  /// test-only identity check that batches reuse one grow-in-place pool.
  const ThreadPool* pool_for_testing() const;

  /// The epoch-keyed answer memo (its own synchronization; safe
  /// concurrently) — telemetry and tests.
  const AnswerCache& answer_cache() const;

 private:
  struct Shard;    // One live document: tree + cache + view slot table.
  struct DocSlot;  // One document slot: stripe lock + generation + shard.
  struct State;    // All Service state, heap-stable so moves are cheap.
  struct SharedAccess;     // Stripe (shared) + live shard, or an error.
  struct ExclusiveAccess;  // Stripe (unique) + live shard + slot, or error.

  /// Validates tag + slot range and returns the slot (never null on Ok).
  /// The caller must still check `generation`/`shard` under the slot lock.
  DocSlot* FindSlot(DocumentId id, ServiceError* error) const;
  /// The shared preamble of every per-document entry point: resolve the
  /// slot, take its stripe in the named mode, and check liveness. On
  /// failure the returned access carries the error (no lock held).
  SharedAccess LockLiveShared(DocumentId id) const;
  ExclusiveAccess LockLiveExclusive(DocumentId id);
  /// All slot pointers, snapshotted under (then released from) the table
  /// lock — the telemetry walk must not hold it across stripe waits.
  std::vector<DocSlot*> SnapshotSlots() const;
  /// Lazily creates or grows (never replaces) the shared pool so it has
  /// >= `workers` threads, capped by the hardware.
  ThreadPool* EnsurePool(int workers);
  /// `Answer`'s body, run under the public wrapper's installed
  /// `CancelScope` — cancellation and fault exceptions propagate out to
  /// the wrapper, which maps them to structured errors.
  ServiceResult<xpv::Answer> AnswerUnderScope(DocumentId document,
                                              const Query& query);
  /// `AnswerBatch`'s body, run under the wrapper's `CancelScope`. A
  /// deadline/cancel firing mid-batch is handled HERE, per document
  /// slice: answered items keep their answers, the rest fail — only
  /// planning-phase cancellation propagates to the wrapper.
  BatchAnswers AnswerBatchUnderScope(const std::vector<BatchItem>& items,
                                     int workers);
  struct MemoQuery;  // One distinct query of a memo run.
  /// The one answering routine behind `Answer` (one query) and
  /// `AnswerBatch` (one call per document slice): serves `count` distinct
  /// queries on `slot`, whose stripe the caller holds shared and whose
  /// occupant is live. Each query is a memo hit (revalidated against the
  /// per-view epochs), joins a fill in flight elsewhere, or is computed —
  /// all misses of the run through one `ViewCache::Execute` call over
  /// `workers` shards on `pool` — and memoized. Stores each answer with
  /// its stats delta in `served[k]`; folding the deltas is the caller's.
  void ServeMemoRun(DocSlot* slot, const MemoQuery* queries, size_t count,
                    int workers, ThreadPool* pool,
                    std::shared_ptr<const AnswerCache::Entry>* served);
  /// The call's effective cancellation token: the caller's deadline (or
  /// `options.default_deadline` when unset) linked to the caller's
  /// explicit cancel handle. Null when neither is configured.
  CancelToken MakeCallToken(const CallOptions& call) const;
  /// Runs the degradation ladder when the shared budget is over limit
  /// (shrink memo -> shrink oracle -> pause memo admission), and undoes
  /// the admission pause with hysteresis once pressure clears. At most
  /// one thread relieves at a time; others skip.
  void RelievePressure();

  std::unique_ptr<State> state_;
};

}  // namespace xpv

#endif  // XPV_API_SERVICE_H_
