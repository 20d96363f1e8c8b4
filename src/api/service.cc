#include "api/service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "pattern/xpath_parser.h"
#include "util/fault.h"
#include "util/sync.h"
#include "util/thread_pool.h"
#include "xml/xml_parser.h"

namespace xpv {
namespace {

ServiceError MakeError(ServiceErrorCode code, std::string message,
                       int64_t offset = -1) {
  return ServiceError{code, std::move(message), offset, -1};
}

/// The structured error for an expired cancellation, from either the
/// thrown form (mid-call) or the token itself (the pre-call fast path).
/// Explicit cancellation wins over a deadline that also lapsed — the
/// caller asked for the abort, the clock merely agreed.
ServiceError CancelError(bool deadline_exceeded) {
  return deadline_exceeded
             ? MakeError(ServiceErrorCode::kDeadlineExceeded,
                         "deadline exceeded before the item was answered")
             : MakeError(ServiceErrorCode::kCancelled,
                         "call cancelled before the item was answered");
}

ServiceError InternalError(const std::exception& e) {
  return MakeError(ServiceErrorCode::kInternal,
                   std::string("internal fault absorbed: ") + e.what());
}

ServiceError XPathError(std::string_view what, std::string_view input,
                        const XPathParseError& error) {
  return MakeError(
      ServiceErrorCode::kParseError,
      std::string(what) + ": " + error.Format(input),
      static_cast<int64_t>(error.offset));
}

ServiceError StaleError(std::string message) {
  return MakeError(ServiceErrorCode::kStaleHandle, std::move(message));
}

ServiceError StaleDocumentError(DocumentId id) {
  return StaleError("stale document handle (slot " + std::to_string(id.slot) +
                    ", generation " + std::to_string(id.generation) +
                    "): the document was removed or replaced");
}

ServiceError StaleViewError(ViewId id) {
  return StaleError("stale view handle (slot " + std::to_string(id.slot) +
                    ", generation " + std::to_string(id.generation) +
                    "): the view was removed");
}

/// Mints unique, nonzero instance tags for `Service` objects process-wide,
/// so a handle can prove which Service minted it.
uint32_t MintServiceTag() {
  static std::atomic<uint32_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// Resolves a `Query` to the pattern to answer: the borrowed pattern of a
/// pattern-holding query, or the XPath parse result placed in `*storage`.
/// Null on parse failure with `*error` filled — the caller counts the
/// failure. Shared by `Answer` and the `AnswerBatch` planner so the two
/// paths cannot drift in error wording or accounting.
const Pattern* ResolveQueryPattern(const Query& query, Pattern* storage,
                                   ServiceError* error) {
  if (query.holds_pattern()) return &query.pattern();
  Result<Pattern, XPathParseError> parsed = ParseXPathDetailed(query.xpath());
  if (!parsed.ok()) {
    *error = XPathError("query", query.xpath(), parsed.error());
    return nullptr;
  }
  *storage = parsed.take();
  return storage;
}

}  // namespace

const char* ToString(ServiceErrorCode code) {
  switch (code) {
    case ServiceErrorCode::kParseError:
      return "parse_error";
    case ServiceErrorCode::kUnknownDocument:
      return "unknown_document";
    case ServiceErrorCode::kDuplicateViewName:
      return "duplicate_view_name";
    case ServiceErrorCode::kEmptyPattern:
      return "empty_pattern";
    case ServiceErrorCode::kInvalidDelta:
      return "invalid_delta";
    case ServiceErrorCode::kStaleHandle:
      return "stale_handle";
    case ServiceErrorCode::kDeadlineExceeded:
      return "deadline_exceeded";
    case ServiceErrorCode::kCancelled:
      return "cancelled";
    case ServiceErrorCode::kOverloaded:
      return "overloaded";
    case ServiceErrorCode::kInternal:
      return "internal";
  }
  return "unknown";
}

/// One live document. Heap-allocated so the `Tree` (whose address the
/// cache and its materialized views capture) and the cache stay put while
/// the slot table grows.
struct Service::Shard {
  Shard(Tree tree_in, const RewriteOptions& options, ContainmentOracle* oracle,
        MemoryBudget* budget)
      : tree(std::move(tree_in)), cache(tree, options, oracle) {
    // Materialized-view result bytes count against the shared budget from
    // the first AddView on.
    cache.SetMemoryBudget(budget);
  }

  Tree tree;
  ViewCache cache;
  std::unordered_map<std::string, int32_t> view_slot_by_name;

  /// Mint-time generation of each view slot, parallel to `cache.views()`
  /// (liveness itself is the cache's `view_active`; slot recycling is the
  /// cache's own tombstone free list). Generations come from the
  /// DocSlot's monotonic counter, so a recycled view slot never reuses
  /// one.
  std::vector<uint32_t> view_generations;

  /// True when `id` resolves to a live view of this shard: slot in range,
  /// not tombstoned, and minted under the same generation.
  bool ResolvesView(ViewId id) const {
    return id.slot >= 0 &&
           id.slot < static_cast<int32_t>(view_generations.size()) &&
           cache.view_active(id.slot) &&
           view_generations[static_cast<size_t>(id.slot)] == id.generation;
  }

  // Serving statistics. Answer paths hold the stripe lock in *shared*
  // mode, so concurrent answers fold their per-call deltas atomically.
  std::atomic<uint64_t> queries{0};
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> rewrite_unknown{0};

  void FoldStats(const CacheStats& delta) {
    queries.fetch_add(delta.queries, std::memory_order_relaxed);
    hits.fetch_add(delta.hits, std::memory_order_relaxed);
    rewrite_unknown.fetch_add(delta.rewrite_unknown,
                              std::memory_order_relaxed);
  }
};

/// One document slot: the stripe lock, the slot generation, and the
/// current occupant. Slots are heap-stable (the table holds pointers) and
/// never destroyed while the Service lives, so a resolved `DocSlot*`
/// outlives any table growth.
struct Service::DocSlot {
  /// Stripe: shared = answer/lookup, exclusive = mutate this document.
  /// Answer paths hold it through movable handles (the access structs,
  /// the batch's address-ordered stripe vector), which the analysis
  /// cannot track — those paths re-enter the checked world with
  /// `mu.AssertShared()` / `mu.AssertHeld()` at their guarded accesses.
  mutable SharedMutex mu;
  /// Bumped when the occupant is removed; handles carry the mint-time
  /// value, so a recycled slot rejects its previous occupants' handles.
  uint32_t generation XPV_GUARDED_BY(mu) = 1;
  /// Monotonic view-generation mint for this slot's whole lifetime: view
  /// handles stay detectably stale across `RemoveView` slot reuse AND
  /// across `ReplaceDocument` (which rebuilds the view table from
  /// scratch).
  uint32_t next_view_generation XPV_GUARDED_BY(mu) = 1;
  /// Answer-memo epoch contribution of this slot's PREVIOUS occupants:
  /// `RemoveDocument`/`ReplaceDocument` advance it past the dying cache's
  /// epoch, so `Epoch()` is monotonic across the slot's whole lifetime —
  /// an answer memoized against any earlier occupant (or earlier view
  /// set) can never be keyed equal to the current one.
  uint64_t epoch_base XPV_GUARDED_BY(mu) = 0;
  /// Null while the slot is free.
  std::unique_ptr<Shard> shard XPV_GUARDED_BY(mu);

  /// The slot's current view-set epoch, the invalidation key of the
  /// `AnswerCache` (see its contract). Requires a live shard.
  uint64_t Epoch() const XPV_REQUIRES_SHARED(mu) {
    return epoch_base + shard->cache.epoch();
  }

  /// Folds the dying occupant's epochs into `epoch_base` so the next
  /// occupant starts strictly above every epoch ever observed on this
  /// slot. Requires a live shard.
  void AdvanceEpochPastShard() XPV_REQUIRES(mu) {
    epoch_base += shard->cache.epoch() + 1;
  }

  /// Freshness stamp for a memoized answer computed NOW: the per-view
  /// epoch of the serving view for view hits, the document epoch for
  /// rewrite misses. `UpdateDocument` bumps exactly the epochs an update
  /// invalidates, so an entry is stale iff its stored stamp differs from
  /// this value — one integer compare at probe time. Requires a live
  /// shard; the stripe (shared suffices) orders the read against updates.
  uint64_t MemoValidity(const CacheAnswer& answer) const
      XPV_REQUIRES_SHARED(mu) {
    return answer.view_slot >= 0
               ? shard->cache.view_epoch(answer.view_slot)
               : shard->cache.doc_epoch();
  }

  /// True when a resident memo entry is still current (see MemoValidity).
  bool MemoFresh(const AnswerCache::Entry& entry) const
      XPV_REQUIRES_SHARED(mu) {
    return entry.validity == MemoValidity(entry.answer);
  }
};

/// One distinct query of a memo run: what `ViewCache::Execute` computes
/// on a miss, plus the fingerprint its memo key carries. The pointees
/// outlive the run.
struct Service::MemoQuery {
  const Pattern* pattern = nullptr;
  /// Null: summarized only if the query misses the memo.
  const SelectionSummary* summary = nullptr;
  uint64_t fingerprint = 0;
};

/// All Service state, heap-stable behind one pointer so moves are cheap
/// and the mutexes never have to move.
struct Service::State {
  explicit State(ServiceOptions options_in)
      : options(std::move(options_in)), tag(MintServiceTag()),
        oracle(options.oracle_capacity) {
    // The shared oracle is the only one the caches ever see; a caller-set
    // rewrite.oracle would dangle across documents, so it is cleared (the
    // per-call oracle is injected by the concurrent answer paths).
    options.rewrite.oracle = nullptr;
    oracle.SetMemoryBudget(&budget);
  }

  ServiceOptions options;
  const uint32_t tag;
  SynchronizedOracle oracle;  // Shared across documents.
  /// The shared byte budget (declared before `answers`, whose constructor
  /// takes its address). Advisory: components charge their resident
  /// bytes; `RelievePressure` reacts when the total crosses the limit.
  MemoryBudget budget{options.memory_budget_bytes};
  /// The epoch-keyed answer memo shared across documents (its own
  /// shared_mutex; lock order: any stripe before the memo's lock — memo
  /// code never touches stripes).
  AnswerCache answers{options.answer_cache_capacity,
                      options.answer_cache_doorkeeper, &budget};

  Mutex pool_mu;  // Guards pool creation/growth.
  std::unique_ptr<ThreadPool> pool XPV_GUARDED_BY(pool_mu);  // Shared.

  /// Guards the slot table and the free list. Lock order: `table_mu`
  /// before any `DocSlot::mu`; no code acquires `table_mu` while holding
  /// a stripe.
  mutable SharedMutex table_mu;
  std::vector<std::unique_ptr<DocSlot>> slots XPV_GUARDED_BY(table_mu);
  std::vector<int32_t> free_slots XPV_GUARDED_BY(table_mu);

  std::atomic<uint64_t> failed_requests{0};

  // ----- overload / robustness state (PR 7) -----
  /// Serving calls currently executing (admission control compares this
  /// against `options.max_inflight_calls`).
  std::atomic<int> inflight{0};
  std::atomic<uint64_t> deadline_items{0};
  std::atomic<uint64_t> cancelled_items{0};
  std::atomic<uint64_t> overload_rejects{0};
  std::atomic<uint64_t> internal_errors{0};
  /// Degradation-ladder transition counters and the single-relief guard
  /// (at most one thread walks the ladder at a time; others skip — the
  /// ladder is idempotent under pressure, re-running it concurrently
  /// would only thrash the caches).
  std::atomic<uint64_t> memo_shrinks{0};
  std::atomic<uint64_t> oracle_shrinks{0};
  std::atomic<uint64_t> admission_pauses{0};
  std::atomic<uint64_t> admission_resumes{0};
  std::atomic<bool> relieving{false};

  // ----- incremental update counters (PR 9) -----
  // Cumulative across the document lifecycle (stored here, not on the
  // shard, so retirement needs no folding).
  std::atomic<uint64_t> updates_applied{0};
  std::atomic<uint64_t> update_views_patched{0};
  std::atomic<uint64_t> update_views_rematerialized{0};
  std::atomic<uint64_t> update_views_untouched{0};
  std::atomic<uint64_t> update_fallbacks{0};
  std::atomic<uint64_t> update_memo_entries_preserved{0};

  /// RAII admission slot: acquired on construction, `admitted()` tells
  /// whether the call fit under the limit (release only happens when it
  /// did — a refused call never holds a slot).
  struct InflightSlot {
    explicit InflightSlot(State* state) : state_(state) {
      const int limit = state_->options.max_inflight_calls;
      occupancy_ = state_->inflight.fetch_add(1, std::memory_order_relaxed);
      admitted_ = limit <= 0 || occupancy_ < limit;
      if (!admitted_) {
        state_->inflight.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    ~InflightSlot() {
      if (admitted_) {
        state_->inflight.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    InflightSlot(const InflightSlot&) = delete;
    InflightSlot& operator=(const InflightSlot&) = delete;

    bool admitted() const { return admitted_; }

    /// The `kOverloaded` error for a refused call: the retry hint grows
    /// with how far past the limit the Service is (10ms per excess call,
    /// clamped to [10ms, 1s]) so a stampede spreads out instead of
    /// hammering in lockstep.
    ServiceError OverloadError() const {
      const int limit = state_->options.max_inflight_calls;
      ServiceError error = MakeError(
          ServiceErrorCode::kOverloaded,
          "admission control: " + std::to_string(occupancy_) +
              " serving calls in flight (limit " + std::to_string(limit) +
              ")");
      error.retry_after_ms = std::min<int64_t>(
          1000, 10 * static_cast<int64_t>(occupancy_ - limit + 1));
      return error;
    }

   private:
    State* state_;
    int occupancy_ = 0;
    bool admitted_ = false;
  };

  void CountCancel(bool deadline_exceeded, uint64_t items = 1) {
    failed_requests.fetch_add(items, std::memory_order_relaxed);
    (deadline_exceeded ? deadline_items : cancelled_items)
        .fetch_add(items, std::memory_order_relaxed);
  }

  // Serving counters of shards that were removed/replaced: `stats()`
  // totals must stay cumulative (monotonic) across document lifecycle.
  // `retire_epoch` ticks once per completed retirement; the stats() walk
  // retries when it observes a tick, so a removal racing the walk can
  // neither drop a shard's counters (folded but slot already visited)
  // nor double-count them.
  std::atomic<uint64_t> retired_queries{0};
  std::atomic<uint64_t> retired_hits{0};
  std::atomic<uint64_t> retired_rewrite_unknown{0};
  std::atomic<uint64_t> retire_epoch{0};

  void CountFailure() {
    failed_requests.fetch_add(1, std::memory_order_relaxed);
  }

  /// Folds a dying shard's counters into the retired totals. Requires the
  /// shard's stripe held exclusively (no concurrent folds).
  void RetireShard(const Shard& shard) {
    retired_queries.fetch_add(shard.queries.load(std::memory_order_relaxed),
                              std::memory_order_relaxed);
    retired_hits.fetch_add(shard.hits.load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
    retired_rewrite_unknown.fetch_add(
        shard.rewrite_unknown.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    retire_epoch.fetch_add(1, std::memory_order_release);
  }

  /// True when `slot` currently serves the document `id` was minted for.
  static bool Live(const DocSlot& slot, DocumentId id)
      XPV_REQUIRES_SHARED(slot.mu) {
    return slot.generation == id.generation && slot.shard != nullptr;
  }
};

Service::Service(ServiceOptions options)
    : state_(std::make_unique<State>(std::move(options))) {}

Service::~Service() = default;
Service::Service(Service&&) noexcept = default;
Service& Service::operator=(Service&&) noexcept = default;

/// Result of the shared-mode entry preamble: on success `shard` is
/// non-null, `slot` is its DocSlot (for epoch/scope reads) and `stripe`
/// holds the slot's lock; on failure `shard` is null, no lock is held,
/// and `error` explains why.
struct Service::SharedAccess {
  ReaderLockHandle stripe;
  DocSlot* slot = nullptr;
  Shard* shard = nullptr;
  ServiceError error;
};

/// Exclusive-mode flavor; also exposes the DocSlot for generation mints.
struct Service::ExclusiveAccess {
  WriterLockHandle stripe;
  DocSlot* slot = nullptr;
  Shard* shard = nullptr;
  ServiceError error;
};

Service::SharedAccess Service::LockLiveShared(DocumentId id) const {
  SharedAccess access;
  DocSlot* slot = FindSlot(id, &access.error);
  if (slot == nullptr) return access;
  access.stripe = ReaderLockHandle(slot->mu);
  slot->mu.AssertShared();  // Held via the movable handle above.
  if (!State::Live(*slot, id)) {
    access.stripe.Unlock();
    access.error = StaleDocumentError(id);
    return access;
  }
  access.slot = slot;
  access.shard = slot->shard.get();
  return access;
}

Service::ExclusiveAccess Service::LockLiveExclusive(DocumentId id) {
  ExclusiveAccess access;
  DocSlot* slot = FindSlot(id, &access.error);
  if (slot == nullptr) return access;
  access.stripe = WriterLockHandle(slot->mu);
  slot->mu.AssertHeld();  // Held via the movable handle above.
  if (!State::Live(*slot, id)) {
    access.stripe.Unlock();
    access.error = StaleDocumentError(id);
    return access;
  }
  access.slot = slot;
  access.shard = slot->shard.get();
  return access;
}

Service::DocSlot* Service::FindSlot(DocumentId id, ServiceError* error) const {
  if (id.slot < 0 || id.generation == 0 || id.service == 0) {
    *error = MakeError(ServiceErrorCode::kUnknownDocument,
                       "document handle was never minted (slot " +
                           std::to_string(id.slot) + ")");
    return nullptr;
  }
  if (id.service != state_->tag) {
    *error = StaleError(
        "document handle was minted by a different Service instance");
    return nullptr;
  }
  ReaderLock table(state_->table_mu);
  if (id.slot >= static_cast<int32_t>(state_->slots.size())) {
    *error = StaleDocumentError(id);
    return nullptr;
  }
  return state_->slots[static_cast<size_t>(id.slot)].get();
}

ThreadPool* Service::EnsurePool(int workers) {
  if (workers <= 1) return nullptr;
  // Threads are an execution resource, not part of the answer: the shard
  // partition (and hence every answer) depends only on the caller's
  // num_workers, so the pool size is capped by the hardware instead of
  // trusting the request — a huge num_workers must not exhaust
  // std::thread and terminate the process.
  const unsigned hw = std::thread::hardware_concurrency();
  const int cap = std::max(4, static_cast<int>(hw));
  const int threads = std::min(workers, cap);
  MutexLock lock(state_->pool_mu);
  if (state_->pool == nullptr) {
    state_->pool = std::make_unique<ThreadPool>(
        threads, state_->options.max_queued_tasks);
  } else {
    // Grow in place, never shrink, and NEVER replace: concurrent batches
    // may be running on this pool, and alternating small/large batches
    // must reuse the max-size pool instead of joining and re-spawning
    // threads per batch.
    state_->pool->EnsureThreads(threads);
  }
  return state_->pool.get();
}

CancelToken Service::MakeCallToken(const CallOptions& call) const {
  std::optional<std::chrono::steady_clock::time_point> deadline =
      call.deadline;
  if (!deadline.has_value() &&
      state_->options.default_deadline.count() > 0) {
    deadline =
        std::chrono::steady_clock::now() + state_->options.default_deadline;
  }
  // Derived() links the caller's explicit cancel handle (possibly null)
  // under the deadline, so EITHER expires the call.
  if (deadline.has_value()) return call.cancel.Derived(*deadline);
  return call.cancel;
}

void Service::RelievePressure() {
  State* s = state_.get();
  if (!s->budget.limited()) return;
  if (!s->budget.OverLimit()) {
    // Hysteresis re-admission: a paused memo resumes only once usage has
    // fallen well below the limit (not at limit-minus-one-byte), so the
    // ladder cannot flap on every insert.
    if (!s->answers.admitting() && s->budget.Below(0.7)) {
      s->answers.set_admitting(true);
      s->admission_resumes.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
  bool expected = false;
  if (!s->relieving.compare_exchange_strong(expected, true,
                                            std::memory_order_acquire)) {
    return;  // Another thread is already walking the ladder.
  }
  // The ladder: each rung runs only while the rung above left the budget
  // over limit. Writes are never refused — worst case the memo stops
  // memoizing (admission paused) while views and oracle keep serving.
  if (s->answers.ShrinkHalf() > 0) {
    s->memo_shrinks.fetch_add(1, std::memory_order_relaxed);
  }
  if (s->budget.OverLimit() && s->oracle.ShrinkHalf() > 0) {
    s->oracle_shrinks.fetch_add(1, std::memory_order_relaxed);
  }
  if (s->budget.OverLimit() && s->answers.admitting()) {
    s->answers.set_admitting(false);
    s->admission_pauses.fetch_add(1, std::memory_order_relaxed);
  }
  s->relieving.store(false, std::memory_order_release);
}

DocumentId Service::AddDocument(Tree document) {
  auto shard = std::make_unique<Shard>(std::move(document),
                                       state_->options.rewrite,
                                       &state_->oracle.unsynchronized(),
                                       &state_->budget);
  int32_t s;
  DocSlot* slot;
  {
    WriterLock table(state_->table_mu);
    if (!state_->free_slots.empty()) {
      s = state_->free_slots.back();
      state_->free_slots.pop_back();
    } else {
      state_->slots.push_back(std::make_unique<DocSlot>());
      s = static_cast<int32_t>(state_->slots.size()) - 1;
    }
    slot = state_->slots[static_cast<size_t>(s)].get();
  }
  // The stripe is taken AFTER releasing the table lock: a recycled slot's
  // stripe may still be held shared by stale-handle readers (e.g. a long
  // batch that resolved the slot before its generation check), and
  // waiting them out must not stall the whole service behind the table
  // writer. The slot itself is private here — it is off the free list and
  // its generation rejects every outstanding handle.
  WriterLock stripe(slot->mu);
  slot->shard = std::move(shard);
  return DocumentId{s, slot->generation, state_->tag};
}

ServiceResult<DocumentId> Service::AddDocument(std::string_view xml) {
  Result<Tree> parsed = ParseXml(xml);
  if (!parsed.ok()) {
    state_->CountFailure();
    return ServiceResult<DocumentId>::Error(
        MakeError(ServiceErrorCode::kParseError, "document: " + parsed.error()));
  }
  return AddDocument(parsed.take());
}

ServiceStatus Service::RemoveDocument(DocumentId id) {
  {
    // The stripe waits out in-flight answers on THIS document only —
    // traffic on other documents is untouched (holding the table lock
    // here would stall the whole service behind a long batch).
    ExclusiveAccess access = LockLiveExclusive(id);
    if (access.shard == nullptr) {
      state_->CountFailure();
      return ServiceStatus::Error(std::move(access.error));
    }
    access.slot->mu.AssertHeld();  // Held via access.stripe.
    state_->RetireShard(*access.shard);
    access.slot->AdvanceEpochPastShard();
    // Purge the dead document's memoized answers eagerly: they are
    // already unreachable (the epoch advanced), but their output vectors
    // would otherwise stay resident until capacity pressure sweeps them.
    // Under the exclusive stripe the slot cannot be recycled yet, so no
    // live entry of a successor can be swept by mistake.
    state_->answers.EraseScope(reinterpret_cast<uintptr_t>(access.slot));
    access.slot->shard.reset();
    ++access.slot->generation;
  }
  // The stripe is released before the table lock (order: table before
  // stripe, never the reverse). No double-free of the slot is possible —
  // a racing RemoveDocument fails the generation check above, and the
  // slot cannot be re-minted before this push because it is not on the
  // free list yet.
  WriterLock table(state_->table_mu);
  state_->free_slots.push_back(id.slot);
  return ServiceStatus();
}

ServiceStatus Service::ReplaceDocument(DocumentId id, Tree document) {
  ExclusiveAccess access = LockLiveExclusive(id);
  if (access.shard == nullptr) {
    state_->CountFailure();
    return ServiceStatus::Error(std::move(access.error));
  }
  access.slot->mu.AssertHeld();  // Held via access.stripe.
  // The document handle survives (same slot generation); every view dies
  // with the old shard, and `next_view_generation` is monotonic across the
  // swap, so the dropped views' handles stay detectably stale even after
  // their slots are re-minted on the new shard. (Shard construction is
  // cheap — the tree moves, the cache starts empty — so building it under
  // the stripe is fine.)
  state_->RetireShard(*access.shard);
  access.slot->AdvanceEpochPastShard();
  // Purge the replaced document's memoized answers (see RemoveDocument).
  state_->answers.EraseScope(reinterpret_cast<uintptr_t>(access.slot));
  access.slot->shard = std::make_unique<Shard>(
      std::move(document), state_->options.rewrite,
      &state_->oracle.unsynchronized(), &state_->budget);
  return ServiceStatus();
}

ServiceStatus Service::ReplaceDocument(DocumentId id, std::string_view xml) {
  Result<Tree> parsed = ParseXml(xml);
  if (!parsed.ok()) {
    state_->CountFailure();
    return ServiceStatus::Error(
        MakeError(ServiceErrorCode::kParseError, "document: " + parsed.error()));
  }
  return ReplaceDocument(id, parsed.take());
}

ServiceStatus Service::UpdateDocument(DocumentId id, DocumentDelta delta) {
  return UpdateDocument(id, std::move(delta), CallOptions{});
}

ServiceStatus Service::UpdateDocument(DocumentId id, DocumentDelta delta,
                                      const CallOptions& call) {
  const CancelToken token = MakeCallToken(call);
  if (token.Expired()) {
    const bool dl = !token.cancelled();
    state_->CountCancel(dl);
    return ServiceStatus::Error(CancelError(dl));
  }
  ExclusiveAccess access = LockLiveExclusive(id);
  if (access.shard == nullptr) {
    state_->CountFailure();
    return ServiceStatus::Error(std::move(access.error));
  }
  access.slot->mu.AssertHeld();  // Held via access.stripe.
  Shard* shard = access.shard;
  // --------------------------------------------- pre-mutation: abortable
  // Validation, the last cancellation poll and the fault hook all run
  // BEFORE the first byte of the document mutates: any abort here leaves
  // the document, its views and its memoized answers exactly as they were.
  std::string why;
  if (!shard->tree.ValidateDelta(delta, &why)) {
    state_->CountFailure();
    return ServiceStatus::Error(
        MakeError(ServiceErrorCode::kInvalidDelta, "delta: " + why));
  }
  try {
    CancelScope scope(token);
    PollCancellation();
    fault::Point("service.update");
  } catch (const CancelledError& e) {
    state_->CountCancel(e.deadline_exceeded());
    return ServiceStatus::Error(CancelError(e.deadline_exceeded()));
  } catch (const std::exception& e) {
    state_->CountFailure();
    state_->internal_errors.fetch_add(1, std::memory_order_relaxed);
    return ServiceStatus::Error(InternalError(e));
  }
  // ------------------------------------------ apply: the point of no return
  // The delta is applied under a MASKED cancellation scope: the evaluator
  // kernels poll the ambient token, and a half-applied delta must never
  // exist — once mutation starts, the update runs to completion even if
  // the caller's deadline lapses mid-apply.
  const uint64_t scope_key = reinterpret_cast<uintptr_t>(access.slot);
  TreeDeltaReport report;
  ViewUpdateStats vstats;
  {
    CancelScope mask{CancelToken()};  // A default token never expires.
    try {
      report = shard->tree.ApplyDelta(delta);
      vstats = shard->cache.ApplyUpdate(
          report, state_->options.update_fallback_fraction);
    } catch (const std::exception& e) {
      // Allocation failure mid-apply (injected faults cannot fire here —
      // the hook is pre-mutation). Best-effort consistency restoration:
      // force the full-fallback path of ApplyUpdate against the tree as
      // it now stands, which re-materializes every view from scratch and
      // orphans every memoized answer for this document. The views and
      // memo are then consistent with whatever tree state landed.
      TreeDeltaReport full;
      full.old_size = full.new_size = shard->tree.size();
      full.suffix_start = shard->tree.size();
      full.compacted = true;  // Bump the shape epoch: orphan all memo keys.
      full.touched_nodes = std::max<size_t>(1, shard->tree.size());
      try {
        // discard: recovery path — the update stats feed telemetry only,
        // and this re-materialization is accounted as an internal error
        // below, not as a regular update.
        (void)shard->cache.ApplyUpdate(full, /*fallback_fraction=*/0.0);
      } catch (const std::exception&) {
        // Even recovery failed (allocation). The stale views remain; the
        // epoch bump below still fences the memo.
      }
      state_->answers.EraseScope(scope_key);
      state_->CountFailure();
      state_->internal_errors.fetch_add(1, std::memory_order_relaxed);
      return ServiceStatus::Error(InternalError(e));
    }
  }
  if (report.compacted) {
    // Deletes re-keyed the surviving node ids: every memoized answer for
    // this document stores pre-delta ids. The cache's shape-epoch bump
    // already unkeyed them; purge eagerly so their output vectors do not
    // linger until capacity pressure (mirrors ReplaceDocument).
    state_->answers.EraseScope(scope_key);
  }
  // Count the memoized answers that survived (still keyed AND still
  // fresh) — the per-view epoch contract's observable win. Only
  // non-compacted updates can preserve entries.
  if (report.touched_nodes > 0 && !report.compacted &&
      state_->answers.enabled()) {
    const uint64_t cur_epoch = access.slot->Epoch();
    const ViewCache& cache = shard->cache;
    const size_t preserved = state_->answers.CountScope(
        scope_key,
        [&cache, cur_epoch](const AnswerCache::Key& k,
                            const AnswerCache::Entry& e) {
          if (k.epoch != cur_epoch) return false;
          const int vs = e.answer.view_slot;
          return e.validity == (vs >= 0 ? cache.view_epoch(vs)
                                        : cache.doc_epoch());
        });
    state_->update_memo_entries_preserved.fetch_add(
        preserved, std::memory_order_relaxed);
  }
  state_->updates_applied.fetch_add(1, std::memory_order_relaxed);
  state_->update_views_patched.fetch_add(
      static_cast<uint64_t>(vstats.views_patched), std::memory_order_relaxed);
  state_->update_views_rematerialized.fetch_add(
      static_cast<uint64_t>(vstats.views_rematerialized),
      std::memory_order_relaxed);
  state_->update_views_untouched.fetch_add(
      static_cast<uint64_t>(vstats.views_untouched), std::memory_order_relaxed);
  if (vstats.fell_back) {
    state_->update_fallbacks.fetch_add(1, std::memory_order_relaxed);
  }
  // Re-materialization and DP state may have charged the shared budget;
  // react outside the stripe (the ladder takes the memo and oracle locks).
  access.stripe.Unlock();
  RelievePressure();
  return ServiceStatus();
}

/// Snapshots the slot pointers under the table lock and RELEASES it
/// before any stripe is touched: stats/num_documents must not couple
/// table writers to a slow exclusive operation on one document. The
/// pointers stay valid — slots are heap-stable for the Service's life.
std::vector<Service::DocSlot*> Service::SnapshotSlots() const {
  ReaderLock table(state_->table_mu);
  std::vector<DocSlot*> slots;
  slots.reserve(state_->slots.size());
  for (const auto& slot : state_->slots) slots.push_back(slot.get());
  return slots;
}

int Service::num_documents() const {
  int n = 0;
  for (DocSlot* slot : SnapshotSlots()) {
    ReaderLock stripe(slot->mu);
    if (slot->shard != nullptr) ++n;
  }
  return n;
}

const Tree* Service::document(DocumentId id) const {
  SharedAccess access = LockLiveShared(id);
  return access.shard == nullptr ? nullptr : &access.shard->tree;
}

ServiceResult<ViewId> Service::AddView(DocumentId document, std::string name,
                                       Pattern pattern) {
  ExclusiveAccess access = LockLiveExclusive(document);
  if (access.shard == nullptr) {
    state_->CountFailure();
    return ServiceResult<ViewId>::Error(std::move(access.error));
  }
  access.slot->mu.AssertHeld();  // Held via access.stripe.
  Shard* shard = access.shard;
  if (pattern.IsEmpty()) {
    state_->CountFailure();
    return ServiceResult<ViewId>::Error(
        MakeError(ServiceErrorCode::kEmptyPattern,
                  "view '" + name + "': the empty pattern selects nothing"));
  }
  if (shard->view_slot_by_name.count(name) > 0) {
    state_->CountFailure();
    return ServiceResult<ViewId>::Error(
        MakeError(ServiceErrorCode::kDuplicateViewName,
                  "document already has a view named '" + name + "'"));
  }
  // The cache recycles tombstoned slots through its own free list (churn
  // keeps views()/index bounded); a re-added name always mints a FRESH
  // generation below, so a dead handle can never resurrect on the slot.
  // Materialization is the allocation-heavy step: a fault (injected or
  // real bad_alloc) before any shard bookkeeping mutates surfaces as a
  // structured kInternal with the document unchanged.
  int32_t vs;
  try {
    fault::Point("service.add_view");
    vs = shard->cache.AddView(ViewDefinition{name, std::move(pattern)});
  } catch (const std::exception& e) {
    state_->CountFailure();
    state_->internal_errors.fetch_add(1, std::memory_order_relaxed);
    return ServiceResult<ViewId>::Error(InternalError(e));
  }
  if (static_cast<size_t>(vs) >= shard->view_generations.size()) {
    shard->view_generations.resize(static_cast<size_t>(vs) + 1);
  }
  const uint32_t generation = access.slot->next_view_generation++;
  shard->view_generations[static_cast<size_t>(vs)] = generation;
  shard->view_slot_by_name.emplace(std::move(name), vs);
  const ViewId id{document, vs, generation};
  // View bytes just charged the shared budget; react before returning
  // (outside the stripe — the ladder takes the memo and oracle locks).
  access.stripe.Unlock();
  RelievePressure();
  return id;
}

ServiceResult<ViewId> Service::AddView(DocumentId document, std::string name,
                                       std::string_view xpath) {
  Result<Pattern, XPathParseError> parsed = ParseXPathDetailed(xpath);
  if (!parsed.ok()) {
    state_->CountFailure();
    return ServiceResult<ViewId>::Error(
        XPathError("view '" + name + "'", xpath, parsed.error()));
  }
  return AddView(document, std::move(name), parsed.take());
}

ServiceStatus Service::RemoveView(ViewId id) {
  ExclusiveAccess access = LockLiveExclusive(id.document);
  if (access.shard == nullptr) {
    state_->CountFailure();
    return ServiceStatus::Error(std::move(access.error));
  }
  Shard* shard = access.shard;
  if (!shard->ResolvesView(id)) {
    state_->CountFailure();
    return ServiceStatus::Error(StaleViewError(id));
  }
  shard->view_slot_by_name.erase(
      shard->cache.views()[static_cast<size_t>(id.slot)].definition().name);
  shard->cache.RemoveView(id.slot);  // Tombstones + queues the slot.
  return ServiceStatus();
}

int Service::num_views(DocumentId document) const {
  SharedAccess access = LockLiveShared(document);
  return access.shard == nullptr ? 0
                                 : access.shard->cache.num_active_views();
}

const ViewDefinition* Service::view(ViewId id) const {
  SharedAccess access = LockLiveShared(id.document);
  if (access.shard == nullptr || !access.shard->ResolvesView(id)) {
    return nullptr;
  }
  return &access.shard->cache.views()[static_cast<size_t>(id.slot)]
              .definition();
}

ServiceResult<xpv::Answer> Service::Answer(DocumentId document,
                                           const Query& query) {
  return Answer(document, query, CallOptions{});
}

ServiceResult<xpv::Answer> Service::Answer(DocumentId document,
                                           const Query& query,
                                           const CallOptions& call) {
  const CancelToken token = MakeCallToken(call);
  if (token.Expired()) {
    // Fast path: an already-dead call fails before any parsing or lock.
    const bool dl = !token.cancelled();
    state_->CountCancel(dl);
    return ServiceResult<xpv::Answer>::Error(CancelError(dl));
  }
  State::InflightSlot slot(state_.get());
  if (!slot.admitted()) {
    state_->CountFailure();
    state_->overload_rejects.fetch_add(1, std::memory_order_relaxed);
    return ServiceResult<xpv::Answer>::Error(slot.OverloadError());
  }
  CancelScope scope(token);
  try {
    ServiceResult<xpv::Answer> result = AnswerUnderScope(document, query);
    RelievePressure();
    return result;
  } catch (const CancelledError& e) {
    state_->CountCancel(e.deadline_exceeded());
    return ServiceResult<xpv::Answer>::Error(
        CancelError(e.deadline_exceeded()));
  } catch (const std::exception& e) {
    // Injected faults and allocation failures surface structurally; the
    // Service's own state is consistent (every mutation above either
    // completed or unwound without effect).
    state_->CountFailure();
    state_->internal_errors.fetch_add(1, std::memory_order_relaxed);
    return ServiceResult<xpv::Answer>::Error(InternalError(e));
  }
}

ServiceResult<xpv::Answer> Service::AnswerUnderScope(DocumentId document,
                                                     const Query& query) {
  // Parse BEFORE the stripe lock (no document state involved): the
  // critical section covers only the answering itself, and parse-failure
  // requests never touch the lock at all.
  Pattern parsed_storage = Pattern::Empty();
  ServiceError parse_error;
  const Pattern* pattern =
      ResolveQueryPattern(query, &parsed_storage, &parse_error);
  if (pattern == nullptr) {
    state_->CountFailure();
    return ServiceResult<xpv::Answer>::Error(std::move(parse_error));
  }
  SharedAccess access = LockLiveShared(document);
  if (access.shard == nullptr) {
    state_->CountFailure();
    return ServiceResult<xpv::Answer>::Error(std::move(access.error));
  }
  access.slot->mu.AssertShared();  // Held via access.stripe.
  if (pattern->IsEmpty()) {
    // Υ selects nothing: a constant empty miss, counted like any query,
    // that never touches the engine or the memo.
    access.shard->FoldStats(CacheStats{1, 0, 0});
    return xpv::Answer{};
  }
  // A one-entry run of the batch slice's memo routine. Its summary is
  // built only on a memo miss, so a memo hit costs one probe and the one
  // answer copy into the reply.
  const MemoQuery entry{pattern, nullptr, pattern->CanonicalFingerprint()};
  std::shared_ptr<const AnswerCache::Entry> served;
  ServeMemoRun(access.slot, &entry, 1, /*workers=*/1, /*pool=*/nullptr,
               &served);
  access.shard->FoldStats(served->delta);
  return served->answer;
}

void Service::ServeMemoRun(DocSlot* slot, const MemoQuery* queries,
                           size_t count, int workers, ThreadPool* pool,
                           std::shared_ptr<const AnswerCache::Entry>* served) {
  slot->mu.AssertShared();  // Held by the caller for the whole run.
  const ViewCache& cache = slot->shard->cache;
  // The memo key binds an answer to the view set observed under the
  // stripe the caller holds, so a hit is exactly what `Execute` would
  // compute — and replaying the stored delta keeps the serving counters
  // identical too.
  const uint64_t scope = reinterpret_cast<uintptr_t>(slot);
  const uint64_t epoch = slot->Epoch();
  AnswerCache& memo = state_->answers;
  const bool memoize = memo.enabled();

  // A query this run computes: `fill` is the flight it leads (publishing
  // resolves it, waking every waiter), or no flight for a stale refresh
  // (the probe hit but failed revalidation; a replacing Insert lands it)
  // and for every query of an unmemoized run.
  struct Miss {
    size_t pos = 0;
    AnswerCache::Fill fill;
  };
  // Computes `misses` through ONE `Execute` call, serves each from a local
  // entry and memoizes it. The memo write is an optimization: a fault in
  // it is absorbed, and an unpublished lead abandons its flight when its
  // fill is destroyed — waiters re-elect.
  auto compute = [&](std::vector<Miss>& misses) {
    slot->mu.AssertShared();  // Still held by the caller.
    std::deque<SelectionSummary> summaries;  // For entries without one.
    std::vector<PlannedQuery> plan;
    plan.reserve(misses.size());
    for (const Miss& miss : misses) {
      const MemoQuery& query = queries[miss.pos];
      const SelectionSummary* summary = query.summary;
      if (summary == nullptr) {
        summary = &summaries.emplace_back(SummarizeSelection(*query.pattern));
      }
      plan.push_back(PlannedQuery{query.pattern, summary});
    }
    std::vector<PlannedAnswer> computed =
        cache.Execute(plan, workers, pool, &state_->oracle);
    for (size_t j = 0; j < misses.size(); ++j) {
      Miss& miss = misses[j];
      const uint64_t validity = slot->MemoValidity(computed[j].answer);
      served[miss.pos] = std::make_shared<const AnswerCache::Entry>(
          AnswerCache::Entry{std::move(computed[j].answer), computed[j].delta,
                             validity});
      if (!memoize) continue;
      try {
        fault::Point("service.memo_write");
        if (miss.fill.leader()) {
          // discard: the shared entry is for waiters; this run serves
          // its own copy.
          (void)memo.Publish(miss.fill, *served[miss.pos]);
        } else {
          memo.Insert({scope, epoch, queries[miss.pos].fingerprint},
                      *served[miss.pos]);
        }
      } catch (const CancelledError&) {
        throw;
      } catch (const std::exception&) {
      }
    }
  };

  // Single-flight probe-or-arm per query: a fresh resident entry answers
  // at once (held by pointer, no deep copy); a miss either leads (computed
  // below) or joins a fill already in flight elsewhere and is waited on
  // LAST. Every flight this run leads is resolved before its first wait,
  // so two runs joining each other's keys always drain. Waiting is safe:
  // leaders and followers hold their stripes in SHARED mode, and a leader
  // only ever blocks on short hash-table critical sections. The miss
  // lists stay empty — and allocation-free — when every query hits.
  std::vector<Miss> misses;
  std::vector<Miss> joins;
  for (size_t k = 0; k < count; ++k) {
    if (!memoize) {
      misses.push_back(Miss{k, {}});
      continue;
    }
    AnswerCache::Fill fill =
        memo.BeginFill({scope, epoch, queries[k].fingerprint});
    if (fill.hit()) {
      // Revalidate against the per-view epochs: an in-place update bumps
      // exactly the epochs of the views it touched (and the doc epoch),
      // leaving the key's shape epoch alone — a stale hit is recomputed
      // and REPLACES the resident entry.
      if (slot->MemoFresh(*fill.entry())) {
        served[k] = fill.entry();
      } else {
        misses.push_back(Miss{k, {}});
      }
    } else if (fill.leader()) {
      misses.push_back(Miss{k, std::move(fill)});
    } else {
      joins.push_back(Miss{k, std::move(fill)});
    }
  }
  if (!misses.empty()) compute(misses);
  // Leads a memo-write fault left unpublished abandon their flights here,
  // before any wait: their waiters re-elect instead of waiting on a run
  // that is itself waiting.
  misses.clear();
  // Collect the joined fills. A null Wait() means every earlier leader of
  // that key unwound and the re-elected flight is now OURS: compute and
  // publish through the promoted fill. A STALE waited entry (published by
  // a leader whose stripe hold predates an intervening update) is
  // recomputed without a flight and lands via a replacing Insert.
  for (Miss& join : joins) {
    std::shared_ptr<const AnswerCache::Entry> entry = join.fill.Wait();
    if (entry == nullptr) {
      misses.push_back(std::move(join));
    } else if (!slot->MemoFresh(*entry)) {
      misses.push_back(Miss{join.pos, {}});
    } else {
      served[join.pos] = std::move(entry);
    }
  }
  if (!misses.empty()) compute(misses);
}

ServiceResult<BatchAnswers> Service::AnswerBatch(
    const std::vector<BatchItem>& items, int num_workers) {
  CallOptions call;
  call.num_workers = num_workers;
  return AnswerBatch(items, call);
}

ServiceResult<BatchAnswers> Service::AnswerBatch(
    const std::vector<BatchItem>& items, const CallOptions& call) {
  const size_t n = items.size();
  const CancelToken token = MakeCallToken(call);
  if (token.Expired()) {
    // The O(items) fast path: an already-expired call fails every item
    // with a structured error before any parsing, planning or lock —
    // constant work per item regardless of document or query size.
    const bool dl = !token.cancelled();
    state_->CountCancel(dl, n);
    BatchAnswers out;
    out.answers.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      out.answers.push_back(ServiceResult<xpv::Answer>::Error(CancelError(dl)));
    }
    return out;
  }
  State::InflightSlot slot(state_.get());
  if (!slot.admitted()) {
    state_->CountFailure();
    state_->overload_rejects.fetch_add(1, std::memory_order_relaxed);
    return ServiceResult<BatchAnswers>::Error(slot.OverloadError());
  }
  const int workers = call.num_workers > 0
                          ? call.num_workers
                          : std::max(state_->options.default_workers, 1);
  CancelScope scope(token);
  try {
    BatchAnswers out = AnswerBatchUnderScope(items, workers);
    RelievePressure();
    return out;
  } catch (const CancelledError& e) {
    // Cancellation escaped the per-slice handling (it fired during the
    // pre-stripe planning phase, before any item was answered): every
    // item fails, still structurally.
    state_->CountCancel(e.deadline_exceeded(), n);
    BatchAnswers out;
    out.answers.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      out.answers.push_back(
          ServiceResult<xpv::Answer>::Error(CancelError(e.deadline_exceeded())));
    }
    return out;
  } catch (const std::exception& e) {
    state_->CountFailure();
    state_->internal_errors.fetch_add(1, std::memory_order_relaxed);
    return ServiceResult<BatchAnswers>::Error(InternalError(e));
  }
}

BatchAnswers Service::AnswerBatchUnderScope(
    const std::vector<BatchItem>& items, int workers) {
  const size_t n = items.size();

  // ---------------------------------------------------- plan (pre-stripe)
  // Resolve every item up front (document slot lookup, XPath parse) and
  // canonicalize the queries ONCE service-wide: one plan entry per
  // distinct canonical fingerprint, carrying the pattern and its
  // selection summary. A batch asking the same query over many documents
  // pays parse + fingerprint + summary once, not once per (document,
  // query); candidate bundles stay per (document, query) and are fed from
  // this shared plan. A failed item keeps its error and stays out of the
  // batch; everything else proceeds.
  struct Resolved {
    DocSlot* slot = nullptr;  // Pre-generation-check resolution.
    Shard* shard = nullptr;   // Filled under the stripe lock below.
    int plan = -1;            // Plan entry; -1 = empty pattern (or failed).
    std::optional<ServiceError> error;  // Set iff the item failed.
  };
  struct PlanEntry {
    Pattern pattern;
    uint64_t fingerprint = 0;
    SelectionSummary summary;
  };
  std::vector<Resolved> resolved(n);
  std::deque<PlanEntry> plan;  // Stable addresses: PlannedQuery points in.
  std::unordered_map<uint64_t, int> plan_by_fp;
  // Batches routinely repeat a handful of documents: FindSlot (one table
  // lock + validation) runs once per distinct same-tag handle, keyed on
  // (slot, generation). The cache stores FindSlot's actual outcome —
  // pointer AND error — so the two paths cannot drift.
  struct CachedResolution {
    DocSlot* slot = nullptr;
    ServiceError error;  // FindSlot's error iff slot == nullptr.
  };
  std::unordered_map<uint64_t, CachedResolution> slot_cache;
  auto pack = [](DocumentId d) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(d.slot)) << 32) |
           static_cast<uint64_t>(d.generation);
  };
  for (size_t i = 0; i < n; ++i) {
    Resolved& r = resolved[i];
    const DocumentId id = items[i].document;
    // Only well-formed same-tag handles are cacheable: (slot, generation)
    // keys them uniquely, and FindSlot is deterministic for them within
    // this call.
    const bool cacheable =
        id.service == state_->tag && id.slot >= 0 && id.generation != 0;
    ServiceError slot_error;
    auto cached = cacheable ? slot_cache.find(pack(id)) : slot_cache.end();
    if (cached != slot_cache.end()) {
      r.slot = cached->second.slot;
      slot_error = cached->second.error;
    } else {
      r.slot = FindSlot(id, &slot_error);
      if (cacheable) {
        slot_cache.emplace(pack(id), CachedResolution{r.slot, slot_error});
      }
    }
    if (r.slot == nullptr) {
      state_->CountFailure();
      r.error = std::move(slot_error);
      continue;
    }
    const Query& query = items[i].query;
    Pattern parsed_storage = Pattern::Empty();
    ServiceError parse_error;
    const Pattern* pattern =
        ResolveQueryPattern(query, &parsed_storage, &parse_error);
    if (pattern == nullptr) {
      state_->CountFailure();
      r.error = std::move(parse_error);
      r.slot = nullptr;
      continue;
    }
    if (pattern->IsEmpty()) continue;  // Constant-empty answer; no plan.
    const uint64_t fp = pattern->CanonicalFingerprint();
    auto [entry, inserted] =
        plan_by_fp.try_emplace(fp, static_cast<int>(plan.size()));
    if (inserted) {
      // The only per-batch copy of a caller-held pattern happens here,
      // once per DISTINCT fingerprint; duplicates (and every later
      // document slice) share the plan entry's instance.
      SelectionSummary summary = SummarizeSelection(*pattern);
      plan.push_back(PlanEntry{query.holds_pattern()
                                   ? *pattern
                                   : std::move(parsed_storage),
                               fp, std::move(summary)});
    }
    r.plan = entry->second;
  }

  // Take the stripe locks of every distinct slot in shared mode for the
  // whole answering phase (the view sets must not mutate mid-batch), then
  // finish the per-item generation checks under them. The locks are
  // acquired in one canonical order (slot address) so two concurrent
  // batches over overlapping document sets cannot chase each other's
  // stripes in opposite directions.
  std::vector<DocSlot*> distinct_slots;
  {
    std::unordered_set<DocSlot*> seen;
    for (size_t i = 0; i < n; ++i) {
      DocSlot* slot = resolved[i].slot;
      if (slot != nullptr && seen.insert(slot).second) {
        distinct_slots.push_back(slot);
      }
    }
  }
  std::sort(distinct_slots.begin(), distinct_slots.end());
  std::vector<ReaderLockHandle> stripes;
  stripes.reserve(distinct_slots.size());
  std::unordered_map<DocSlot*, size_t> stripe_index;
  for (DocSlot* slot : distinct_slots) {
    stripe_index.emplace(slot, stripes.size());
    stripes.emplace_back(slot->mu);
  }
  std::vector<char> stripe_live(stripes.size(), 0);
  std::unordered_map<Shard*, size_t> stripe_of_shard;
  for (size_t i = 0; i < n; ++i) {
    Resolved& r = resolved[i];
    if (r.slot == nullptr) continue;
    r.slot->mu.AssertShared();  // Held via the stripe vector above.
    if (!State::Live(*r.slot, items[i].document)) {
      state_->CountFailure();
      r.error = StaleDocumentError(items[i].document);
      r.slot = nullptr;
      continue;
    }
    const size_t si = stripe_index.at(r.slot);
    stripe_live[si] = 1;
    r.shard = r.slot->shard.get();
    stripe_of_shard.emplace(r.shard, si);
  }
  // Drop the stripes of slots every item failed on (stale handles to a
  // freed slot) — holding a dead slot's lock for the whole answering
  // phase would needlessly delay an AddDocument recycling it.
  for (size_t k = 0; k < stripes.size(); ++k) {
    if (stripe_live[k] == 0) stripes[k].Unlock();
  }

  // Group the live items per document shard (in request order — the order
  // a per-document answering loop would see) and run each document's
  // slice through the batched/parallel pipeline on the shared pool.
  std::vector<Shard*> shard_order;
  std::unordered_map<Shard*, std::vector<size_t>> by_shard;
  for (size_t i = 0; i < n; ++i) {
    if (resolved[i].shard == nullptr) continue;
    auto [it, inserted] =
        by_shard.try_emplace(resolved[i].shard, std::vector<size_t>());
    if (inserted) shard_order.push_back(resolved[i].shard);
    it->second.push_back(i);
  }
  std::vector<std::optional<CacheAnswer>> answers(n);
  size_t live_items = 0;
  for (Shard* shard : shard_order) live_items += by_shard[shard].size();
  ThreadPool* pool =
      EnsurePool(std::min<int>(workers, static_cast<int>(live_items)));
  // A deadline/cancel (or absorbed-then-rethrown fault) firing inside a
  // slice aborts THAT slice and every later one; items already answered
  // keep their answers (bit-identical to an unconstrained run — answers
  // are pure functions of document, view set and query), the rest take
  // the abort error in the fan-out below. Remaining stripes are still
  // released in order.
  bool aborted = false;
  std::optional<ServiceError> abort_error;
  for (Shard* shard : shard_order) {
    const std::vector<size_t>& indices = by_shard[shard];
    // `stripes` was built in `distinct_slots` order, so the stripe index
    // recovers the shard's DocSlot (the memo scope).
    const size_t si = stripe_of_shard.at(shard);
    if (aborted) {
      stripes[si].Unlock();
      continue;
    }
    try {
      // A crisp slice boundary: once the call is dead no further slice
      // starts, even a fully-memoized one that would never poll again.
      PollCancellation();
      DocSlot* const slice_slot = distinct_slots[si];

      // Distinct plan entries of this slice, in first-appearance order.
      std::vector<MemoQuery> slice_plan;
      std::unordered_map<int, int> slice_pos;
      for (size_t i : indices) {
        const int p = resolved[i].plan;
        if (p < 0) continue;
        if (slice_pos.try_emplace(p, static_cast<int>(slice_plan.size()))
                .second) {
          const PlanEntry& entry = plan[static_cast<size_t>(p)];
          slice_plan.push_back(
              MemoQuery{&entry.pattern, &entry.summary, entry.fingerprint});
        }
      }
      // The distinct answers of this slice, by plan position: shared memo
      // entries or freshly computed ones — nothing is deep-copied until
      // the per-request fan-out below.
      std::vector<std::shared_ptr<const AnswerCache::Entry>> served(
          slice_plan.size());
      ServeMemoRun(slice_slot, slice_plan.data(), slice_plan.size(), workers,
                   pool, served.data());

      // Fold serving stats and fan the slice out in request order —
      // duplicates replay the distinct entry's delta.
      CacheStats delta;
      for (size_t i : indices) {
        ++delta.queries;
        const int p = resolved[i].plan;
        if (p < 0) {
          answers[i] = CacheAnswer{};  // Empty pattern: constant empty miss.
          continue;
        }
        const AnswerCache::Entry& entry =
            *served[static_cast<size_t>(slice_pos.at(p))];
        delta.hits += entry.delta.hits;
        delta.rewrite_unknown += entry.delta.rewrite_unknown;
        answers[i] = entry.answer;
      }
      shard->FoldStats(delta);
    } catch (const CancelledError& e) {
      aborted = true;
      abort_error = CancelError(e.deadline_exceeded());
    } catch (const std::exception& e) {
      // An injected fault (or bad_alloc) inside the pipeline fails this
      // slice's unanswered items structurally; earlier slices' answers
      // stand. Unpublished fills abandon on unwind — waiters re-elect.
      aborted = true;
      abort_error = InternalError(e);
    }
    // This document's slice is done — release its stripe so writers on it
    // are not held for the remaining documents' slices. (Each live slot
    // maps to exactly one shard, so each stripe unlocks exactly once.)
    stripes[si].Unlock();
  }

  BatchAnswers out;
  out.answers.reserve(n);
  uint64_t aborted_items = 0;
  for (size_t i = 0; i < n; ++i) {
    if (resolved[i].error.has_value()) {
      out.answers.push_back(
          ServiceResult<xpv::Answer>::Error(std::move(*resolved[i].error)));
    } else if (answers[i].has_value()) {
      out.answers.push_back(std::move(*answers[i]));
    } else {
      // The item's slice aborted before its fan-out: partial batch.
      ++aborted_items;
      out.answers.push_back(ServiceResult<xpv::Answer>::Error(
          abort_error.has_value() ? *abort_error : CancelError(true)));
    }
  }
  if (aborted_items > 0) {
    if (abort_error.has_value() &&
        abort_error->code == ServiceErrorCode::kInternal) {
      state_->failed_requests.fetch_add(aborted_items,
                                        std::memory_order_relaxed);
      state_->internal_errors.fetch_add(aborted_items,
                                        std::memory_order_relaxed);
    } else {
      state_->CountCancel(!abort_error.has_value() ||
                              abort_error->code ==
                                  ServiceErrorCode::kDeadlineExceeded,
                          aborted_items);
    }
  }
  return out;
}

ServiceStats Service::stats() const {
  ServiceStats stats;
  stats.failed_requests =
      state_->failed_requests.load(std::memory_order_relaxed);
  // Cumulative serving counters: live shards plus retired (removed or
  // replaced) ones, so totals never go backwards across the lifecycle.
  // The walk retries when a retirement completed mid-walk — otherwise a
  // shard folded into retired_* after its slot was visited would be
  // counted twice, or one folded before the retired_* read but reset
  // before its slot's visit would be dropped.
  // Bounded retries: under sustained retirement churn the walk accepts
  // the last (at-most-one-retirement-skewed) snapshot instead of
  // spinning until the writers pause.
  const std::vector<DocSlot*> slots = SnapshotSlots();
  for (int attempt = 0; attempt < 4; ++attempt) {
    const uint64_t epoch =
        state_->retire_epoch.load(std::memory_order_acquire);
    stats.documents = 0;
    stats.views = 0;
    stats.queries = state_->retired_queries.load(std::memory_order_relaxed);
    stats.hits = state_->retired_hits.load(std::memory_order_relaxed);
    stats.rewrite_unknown =
        state_->retired_rewrite_unknown.load(std::memory_order_relaxed);
    for (DocSlot* slot : slots) {
      ReaderLock stripe(slot->mu);
      if (slot->shard == nullptr) continue;
      ++stats.documents;
      stats.views +=
          static_cast<uint64_t>(slot->shard->cache.num_active_views());
      stats.queries += slot->shard->queries.load(std::memory_order_relaxed);
      stats.hits += slot->shard->hits.load(std::memory_order_relaxed);
      stats.rewrite_unknown +=
          slot->shard->rewrite_unknown.load(std::memory_order_relaxed);
    }
    if (state_->retire_epoch.load(std::memory_order_acquire) == epoch) break;
  }
  stats.oracle_hits = state_->oracle.hits();
  stats.oracle_misses = state_->oracle.misses();
  const AnswerCache::Stats memo = state_->answers.stats();
  stats.answer_cache_hits = memo.hits;
  stats.answer_cache_misses = memo.misses;
  stats.answer_cache_evictions = memo.evictions;
  stats.answer_cache_entries = state_->answers.size();
  stats.answer_cache_doorkeeper_rejects = memo.doorkeeper_rejects;
  stats.answer_cache_admission_drops = memo.admission_drops;
  stats.deadline_exceeded =
      state_->deadline_items.load(std::memory_order_relaxed);
  stats.cancelled = state_->cancelled_items.load(std::memory_order_relaxed);
  stats.overloaded = state_->overload_rejects.load(std::memory_order_relaxed);
  stats.internal_errors =
      state_->internal_errors.load(std::memory_order_relaxed);
  stats.inflight_calls = static_cast<uint64_t>(
      std::max(0, state_->inflight.load(std::memory_order_relaxed)));
  stats.memory_used_bytes = state_->budget.used();
  stats.memory_limit_bytes = state_->budget.limit();
  stats.memory_memo_shrinks =
      state_->memo_shrinks.load(std::memory_order_relaxed);
  stats.memory_oracle_shrinks =
      state_->oracle_shrinks.load(std::memory_order_relaxed);
  stats.memory_admission_pauses =
      state_->admission_pauses.load(std::memory_order_relaxed);
  stats.memory_admission_resumes =
      state_->admission_resumes.load(std::memory_order_relaxed);
  stats.updates_applied =
      state_->updates_applied.load(std::memory_order_relaxed);
  stats.update_views_patched =
      state_->update_views_patched.load(std::memory_order_relaxed);
  stats.update_views_rematerialized =
      state_->update_views_rematerialized.load(std::memory_order_relaxed);
  stats.update_views_untouched =
      state_->update_views_untouched.load(std::memory_order_relaxed);
  stats.update_fallbacks =
      state_->update_fallbacks.load(std::memory_order_relaxed);
  stats.update_memo_entries_preserved =
      state_->update_memo_entries_preserved.load(std::memory_order_relaxed);
  {
    MutexLock lock(state_->pool_mu);
    stats.pool_threads =
        state_->pool == nullptr
            ? 0
            : static_cast<uint64_t>(state_->pool->num_threads());
    stats.pool_queue_rejections =
        state_->pool == nullptr ? 0 : state_->pool->queue_rejections();
  }
  return stats;
}

const ContainmentOracle& Service::oracle() const {
  return state_->oracle.unsynchronized();
}

const ViewCache* Service::cache(DocumentId id) const {
  SharedAccess access = LockLiveShared(id);
  return access.shard == nullptr ? nullptr : &access.shard->cache;
}

const ThreadPool* Service::pool_for_testing() const {
  MutexLock lock(state_->pool_mu);
  return state_->pool.get();
}

const AnswerCache& Service::answer_cache() const { return state_->answers; }

}  // namespace xpv
