#ifndef XPV_REWRITE_CANDIDATES_H_
#define XPV_REWRITE_CANDIDATES_H_

#include <deque>
#include <utility>
#include <vector>

#include "pattern/pattern.h"

namespace xpv {

/// The two natural rewriting candidates w.r.t. a query P and a view V of
/// depths d >= k (Section 4): P≥k itself, and P≥k with the edges emanating
/// from its root relaxed to descendant edges (P≥k_r//).
struct NaturalCandidates {
  Pattern sub;      ///< P≥k.
  Pattern relaxed;  ///< P≥k_r//.

  /// True if the two candidates coincide (every root-emanating edge of P≥k
  /// is already a descendant edge), in which case one test suffices.
  bool coincide;
};

/// Builds the natural candidates. Runs in O(|P|) — this is the linear-time
/// construction claimed in Section 1 and benchmarked by
/// `bench_candidates_linear`. Requires 0 <= view_depth <= depth(p).
[[nodiscard]] NaturalCandidates MakeNaturalCandidates(const Pattern& p, int view_depth);

/// A (query, view) candidate set built once and shared: the natural
/// candidates plus their compositions with the view — everything the
/// engine's step-2 equivalence tests consume. Batch paths
/// (`ViewCache::Execute`, view-selection scoring) build one bundle per
/// (query, view) pair, push its forward containment pairs through
/// `ContainmentOracle::ContainedMany`, and then hand the same bundle to
/// `DecideRewrite` — which would otherwise reconstruct all four patterns
/// from scratch (this was the duplicated polynomial setup called out in
/// ROADMAP.md).
struct CandidateBundle {
  NaturalCandidates natural{Pattern::Empty(), Pattern::Empty(), true};
  Pattern sub_composition = Pattern::Empty();      ///< natural.sub ∘ V.
  Pattern relaxed_composition = Pattern::Empty();  ///< natural.relaxed ∘ V
                                                   ///< (empty if coincide).
};

/// Builds the bundle for query `p` over view `v` with depth(v) ==
/// `view_depth`. The caller must have checked
/// `ViolatesBasicNecessaryConditions(p, v)` already (bundles only exist
/// for admissible pairs; `DecideRewrite` relies on this to skip step 1).
[[nodiscard]] CandidateBundle MakeCandidateBundle(const Pattern& p, const Pattern& v,
                                    int view_depth);

/// In-place variant: rebuilds `*out` (all four patterns, via the algebra
/// `*Into` operations) with `*map` as node-map scratch. A warm bundle of
/// similar shape is rebuilt without heap allocation — the cold batch path
/// builds one bundle per (query, view) pair, so recycling the storage
/// removes the dominant malloc traffic of a scan.
void MakeCandidateBundleInto(const Pattern& p, const Pattern& v,
                             int view_depth, CandidateBundle* out,
                             std::vector<NodeId>* map);

/// A per-worker pool of recycled candidate bundles. `Build` returns a
/// bundle constructed in recycled storage whose address stays stable until
/// the next `Rewind` (entries live in a deque and are never moved), so the
/// batch pipeline can keep bundles for a whole chunk alive — pairs pushed
/// into `ContainedMany` point into them — while still reusing all pattern
/// buffers across chunks. Not thread-safe: one pool per worker thread.
class BundlePool {
 public:
  /// Recycles every previously built bundle (their storage is reused by
  /// subsequent `Build` calls; outstanding references become invalid).
  void Rewind() { used_ = 0; }

  /// Builds the (p, v) bundle in recycled storage. Valid until `Rewind`.
  [[nodiscard]] const CandidateBundle& Build(const Pattern& p, const Pattern& v,
                               int view_depth);

  size_t capacity() const { return pool_.size(); }

 private:
  std::deque<CandidateBundle> pool_;  // Stable addresses across growth.
  std::vector<NodeId> map_;
  size_t used_ = 0;
};

/// Appends the *forward* containment questions of `bundle` (composition ⊑
/// p, for each distinct candidate) to `*pairs`. These are exactly the
/// first-direction tests `DecideRewrite` issues in step 2, so warming them
/// through `ContainmentOracle::ContainedMany` lets the engine answer from
/// the cache; the reverse directions stay lazy (they are only needed when
/// a forward test holds). The appended pointers point into `bundle` and
/// `p`, which must stay alive and unmoved for the duration of use.
void AppendBundlePairs(
    const CandidateBundle& bundle, const Pattern& p,
    std::vector<std::pair<const Pattern*, const Pattern*>>* pairs);

}  // namespace xpv

#endif  // XPV_REWRITE_CANDIDATES_H_
