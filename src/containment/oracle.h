#ifndef XPV_CONTAINMENT_ORACLE_H_
#define XPV_CONTAINMENT_ORACLE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "containment/containment.h"
#include "pattern/pattern.h"
#include "util/hash.h"
#include "util/memory_budget.h"
#include "util/single_flight.h"
#include "util/sync.h"

namespace xpv {

class SynchronizedOracle;

/// A memoizing wrapper around the containment test.
///
/// The engine's equivalence tests are the only non-polynomial step of the
/// rewriting algorithm (Section 4), and cache-style applications
/// (`ViewCache`, the rule-coverage workloads) ask many containment
/// questions about overlapping patterns.
///
/// Keys are *interned 64-bit canonical fingerprints*
/// (`Pattern::CanonicalFingerprint`), so structurally isomorphic patterns
/// share entries without ever materializing encoding strings. One cache
/// entry carries both directions of a pattern pair (A ⊑ B and B ⊑ A) —
/// equivalence tests touch a single entry — and the table is bounded:
/// when `capacity` entries are reached, half the table is evicted by a
/// second-chance (clock) sweep — entries that have been hit since the
/// last sweep get their reference bit cleared and survive, cold entries
/// go first (counted in `evictions()`).
///
/// All misses are computed through the thread-local `ContainmentContext`
/// behind the free `Contained` function, so the canonical-model scratch
/// buffers amortize across every oracle instance on the thread. Not
/// thread-safe; use one oracle per thread.
///
/// For batch parallelism, an oracle can act as a *shard* over a shared
/// read-only parent set via `set_fallback`: local misses first probe the
/// fallback's table (copying what they find), and only then compute. A
/// fleet of shards over one frozen shared oracle is lock-free; after the
/// batch, `AbsorbFrom` merges each shard's entries (and counters) back
/// into the shared oracle. `ViewCache::Execute` runs its workers on such
/// shards over a `SynchronizedOracle`.
///
/// Because entries are keyed on pattern fingerprints only (documents never
/// enter the cache), one oracle is safely shared across documents: the
/// `xpv::Service` facade injects a single oracle into every per-document
/// `ViewCache`, so a (query, view) pair decided for one document answers
/// instantly for all others.
class ContainmentOracle {
 public:
  static constexpr size_t kDefaultCapacity = 1 << 16;

  ContainmentOracle() = default;
  explicit ContainmentOracle(size_t capacity) : capacity_(capacity) {}

  ContainmentOracle(const ContainmentOracle&) = delete;
  ContainmentOracle& operator=(const ContainmentOracle&) = delete;

  /// Memoized Contained(p1, p2).
  [[nodiscard]] bool Contained(const Pattern& p1, const Pattern& p2);

  /// Memoized equivalence. Both directions live in one cache entry, and
  /// the second direction is only computed when the first holds.
  [[nodiscard]] bool Equivalent(const Pattern& p1, const Pattern& p2);

  /// Batch interface: answers `out[i] = pairs[i].first ⊑ pairs[i].second`.
  /// Fingerprints are computed once per distinct pattern object in the
  /// batch, and duplicate pairs are answered from the entry filled by
  /// their first occurrence. Pointers must be non-null and alive for the
  /// duration of the call.
  [[nodiscard]] std::vector<char> ContainedMany(
      const std::vector<std::pair<const Pattern*, const Pattern*>>& pairs);

  /// Installs a read-only fallback probed on local misses (not owned; may
  /// be null to detach). With `fallback_mu` null the fallback must not be
  /// mutated while this oracle is in use — the single-owner batch path
  /// freezes the shared oracle, points every worker shard at it, and
  /// merges afterwards. With `fallback_mu` non-null every fallback probe
  /// takes the shared lock, so the fallback may concurrently absorb other
  /// shards under the exclusive lock (the `SynchronizedOracle` wiring of
  /// the thread-safe `xpv::Service`).
  ///
  /// With `flights` non-null (the `AttachShard` wiring), misses that
  /// survive the fallback probe run *single-flight*: concurrent shards
  /// missing the same directional pair rendezvous in the wrapper's
  /// flight registry and exactly one of them runs the containment DP
  /// (see `SynchronizedOracle::ContainedSingleFlight`).
  void set_fallback(const ContainmentOracle* fallback,
                    SharedMutex* fallback_mu = nullptr,
                    SynchronizedOracle* flights = nullptr) {
    fallback_ = fallback;
    fallback_mu_ = fallback_mu;
    flights_ = flights;
  }

  /// Merges every cached direction of `other` into this oracle: directions
  /// this table does not know are copied; directions both know are left
  /// as-is (they agree — containment is deterministic). Also folds
  /// `other`'s hit/miss counters into this oracle's, so a batch's sharded
  /// statistics survive the merge. `other`'s evictions are NOT folded:
  /// `evictions()` counts entries dropped from *this* table only.
  ///
  /// The merge is capacity-aware: room for the incoming keys is made with
  /// one up-front sweep that never evicts a key `other` is about to
  /// contribute, so merging a large shard into a near-capacity table
  /// cannot churn out the batch's own hot entries mid-merge.
  void AbsorbFrom(const ContainmentOracle& other);

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t evictions() const { return evictions_; }
  /// Number of cached directional answers (an entry whose two directions
  /// are both known counts twice).
  size_t size() const { return known_directions_; }
  /// Number of resident pair entries (each holds up to two directions).
  size_t entry_count() const { return cache_.size(); }
  size_t capacity() const { return capacity_; }

  /// Drops all cached entries and resets the counters.
  void Clear();

 private:
  /// Unordered pair of fingerprints; `fwd` answers lo ⊑ hi, `rev` hi ⊑ lo
  /// (lo/hi by fingerprint value, with the query direction normalized at
  /// lookup time).
  struct PairKey {
    uint64_t lo;
    uint64_t hi;
    bool operator==(const PairKey& other) const {
      return lo == other.lo && hi == other.hi;
    }
  };
  struct PairKeyHash {
    size_t operator()(const PairKey& k) const {
      return static_cast<size_t>(Mix64(k.lo ^ (k.hi * 0x9E3779B97F4A7C15ULL)));
    }
  };
  struct Entry {
    uint8_t fwd_known : 1;
    uint8_t fwd : 1;
    uint8_t rev_known : 1;
    uint8_t rev : 1;
    /// Second-chance reference bit: set when the entry answers a lookup,
    /// cleared by the eviction sweep.
    uint8_t ref : 1;
  };

  using Table = std::unordered_map<PairKey, Entry, PairKeyHash>;

  /// Looks up / computes one direction given precomputed fingerprints.
  bool ContainedByFingerprint(uint64_t fp1, uint64_t fp2, const Pattern& p1,
                              const Pattern& p2);
  /// Reads the cached fp1 ⊑ fp2 direction, if known. Counts nothing and
  /// touches no reference bit (used by `SynchronizedOracle` under its
  /// own locks).
  std::optional<bool> ProbeDirection(uint64_t fp1, uint64_t fp2) const;
  /// Writes one computed direction (eviction-aware; counts nothing).
  void StoreDirection(uint64_t fp1, uint64_t fp2, bool value);
  friend class SynchronizedOracle;
  /// Inserts `key` (evicting if full) and returns its entry.
  Entry& InsertEntry(const PairKey& key);
  void EvictHalf();
  /// Second-chance sweep evicting at least `need` entries, never touching
  /// keys present in `spare` (the set an in-flight merge is about to
  /// write). May evict fewer when only spared entries remain — the table
  /// then temporarily exceeds capacity until the next organic insert.
  void EvictAtLeastSparing(size_t need, const Table& spare);

  Table cache_;
  size_t capacity_ = kDefaultCapacity;
  size_t known_directions_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  const ContainmentOracle* fallback_ = nullptr;
  SharedMutex* fallback_mu_ = nullptr;
  SynchronizedOracle* flights_ = nullptr;
};

/// A `shared_mutex`-synchronized owner of a shared `ContainmentOracle` —
/// the concurrency wrapper the thread-safe `xpv::Service` serves through.
///
/// Concurrent `Answer`/`AnswerBatch` calls never touch the shared table
/// directly: each call answers through a private shard oracle whose
/// read-through probes take this wrapper's shared lock (`AttachShard`
/// wires `ContainmentOracle::set_fallback` with the mutex), and publishes
/// the shard's new entries and counters back with `Absorb` under the
/// exclusive lock. Containment misses therefore compute outside any lock;
/// the critical sections are hash-table probes and merges only.
class SynchronizedOracle {
 public:
  explicit SynchronizedOracle(
      size_t capacity = ContainmentOracle::kDefaultCapacity)
      : oracle_(capacity) {}

  ~SynchronizedOracle() {
    // Locked for the guarded read's sake only: destruction implies no
    // concurrent users, but the discipline holds everywhere.
    WriterLock lock(mu_);
    if (budget_ != nullptr) budget_->Release(charged_bytes_);
  }

  /// Points byte accounting at the Service's shared `MemoryBudget` (not
  /// owned; may be null). Setup-time only — must not race serving calls.
  void SetMemoryBudget(MemoryBudget* budget) { budget_ = budget; }

  /// Halves the shared table (exclusive lock) — the memory ladder's
  /// second rung. Every evicted direction is recomputable; correctness
  /// is untouched. Returns the pair entries dropped.
  size_t ShrinkHalf();

  /// Estimated resident bytes of the shared table (racy snapshot).
  size_t resident_bytes() const {
    return oracle_entry_bytes_.load(std::memory_order_relaxed);
  }

  /// Points `shard`'s read-through at the shared table and its miss path
  /// at this wrapper's single-flight registry. Probes take the shared
  /// lock; this wrapper must outlive the shard's use.
  void AttachShard(ContainmentOracle* shard) {
    shard->set_fallback(&oracle_, &mu_, this);
  }

  /// The single-flight miss path attached shards compute through:
  /// concurrent misses of the same *directional* pair (fp1 ⊑ fp2 — exact
  /// fingerprints, never hashes: a collision would return the wrong
  /// answer) elect one leader, who runs the containment DP with no lock
  /// held, writes the direction through to the shared table, and wakes
  /// the waiters with the value. Late arrivals re-probe the shared table
  /// under the registry lock, so a published direction is never
  /// recomputed. The wait is deadline-aware (the caller's installed
  /// `CancelToken` is polled; expiry throws `CancelledError` and leaves
  /// the flight intact for other waiters). When a leader unwinds without
  /// publishing, the waiters re-join and exactly one is promoted to
  /// re-run the DP — one dead leader costs one retry, not a stampede.
  [[nodiscard]] bool ContainedSingleFlight(uint64_t fp1, uint64_t fp2,
                                           const Pattern& p1,
                                           const Pattern& p2);

  uint64_t single_flight_leads() const { return flights_.leads(); }
  uint64_t single_flight_joins() const { return flights_.joins(); }
  uint64_t single_flight_abandons() const { return flights_.abandons(); }

  /// Publishes a shard's entries and hit/miss counters into the shared
  /// table (exclusive lock; capacity-aware, see `AbsorbFrom`). A shard
  /// that computed nothing (`misses() == 0` — every entry it holds is a
  /// read-through copy OF this table) folds only its hit counter, and
  /// does so atomically WITHOUT the exclusive lock: hot fully-cached
  /// traffic neither merges tables nor blocks concurrent read-throughs.
  void Absorb(const ContainmentOracle& shard) {
    if (shard.misses() == 0) {
      folded_hits_.fetch_add(shard.hits(), std::memory_order_relaxed);
      return;
    }
    WriterLock lock(mu_);
    oracle_.AbsorbFrom(shard);
    SyncBudgetLocked();
  }

  // Counter snapshots (shared lock; `folded_hits_` holds the hits of
  // miss-free shards folded outside the lock).
  uint64_t hits() const {
    return Snapshot(&ContainmentOracle::hits) +
           folded_hits_.load(std::memory_order_relaxed);
  }
  uint64_t misses() const { return Snapshot(&ContainmentOracle::misses); }
  uint64_t evictions() const { return Snapshot(&ContainmentOracle::evictions); }
  size_t size() const { return Snapshot(&ContainmentOracle::size); }
  /// Immutable after construction; snapshotted anyway so every access to
  /// the wrapped oracle goes through the lock discipline.
  size_t capacity() const { return Snapshot(&ContainmentOracle::capacity); }

  /// The wrapped oracle, unsynchronized — for single-threaded setup,
  /// teardown and tests only. Must not race attached shards or `Absorb`.
  /// Escape hatch: the caller's contract is external quiescence, which
  /// the analysis cannot see — this accessor exists to bypass the lock.
  ContainmentOracle& unsynchronized() XPV_NO_THREAD_SAFETY_ANALYSIS {
    return oracle_;
  }
  const ContainmentOracle& unsynchronized() const
      XPV_NO_THREAD_SAFETY_ANALYSIS {
    return oracle_;
  }

 private:
  /// Directional containment question, compared exactly.
  struct DirectionKey {
    uint64_t from;
    uint64_t to;
    bool operator==(const DirectionKey& other) const {
      return from == other.from && to == other.to;
    }
  };
  struct DirectionKeyHash {
    size_t operator()(const DirectionKey& k) const {
      return static_cast<size_t>(
          Mix64(k.from ^ (k.to * 0x9E3779B97F4A7C15ULL) ^ 0x5851F42D4C957F2DULL));
    }
  };

  template <typename R>
  R Snapshot(R (ContainmentOracle::*getter)() const) const {
    ReaderLock lock(mu_);
    return (oracle_.*getter)();
  }

  /// Reconciles the budget charge with the table's current entry count
  /// (requires the exclusive lock). Entries are fixed-size, so bytes are
  /// tracked as count × footprint rather than per-insert plumbing.
  void SyncBudgetLocked() XPV_REQUIRES(mu_);

  /// Estimated heap footprint of one resident pair entry (key + packed
  /// directions + hash-node overhead).
  static constexpr size_t kEntryFootprint =
      sizeof(uint64_t) * 2 + sizeof(uint8_t) + 4 * sizeof(void*);

  mutable SharedMutex mu_;
  ContainmentOracle oracle_ XPV_GUARDED_BY(mu_);
  MemoryBudget* budget_ = nullptr;
  /// Bytes currently charged to `budget_` (mutated under the exclusive
  /// lock; read lock-free by `resident_bytes`).
  size_t charged_bytes_ XPV_GUARDED_BY(mu_) = 0;
  std::atomic<size_t> oracle_entry_bytes_{0};
  std::atomic<uint64_t> folded_hits_{0};
  SingleFlight<DirectionKey, bool, DirectionKeyHash> flights_;
};

}  // namespace xpv

#endif  // XPV_CONTAINMENT_ORACLE_H_
