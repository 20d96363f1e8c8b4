// Test helpers that drive `ViewCache::Execute` the way the serving facade
// does: one plan entry per distinct canonical fingerprint, empty patterns
// answered as constant-empty misses outside the plan.

#ifndef XPV_TESTS_PLAN_UTIL_H_
#define XPV_TESTS_PLAN_UTIL_H_

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <utility>
#include <vector>

#include "containment/oracle.h"
#include "pattern/pattern.h"
#include "views/view_cache.h"
#include "views/view_index.h"

namespace xpv {
namespace testutil {

/// A query list folded into an `Execute` plan.
struct TestPlan {
  std::deque<SelectionSummary> summaries;  // Stable addresses for entries.
  std::vector<PlannedQuery> entries;       // One per distinct fingerprint.
  std::vector<int> entry_of;  // Per query: its entry, -1 = empty pattern.
};

/// Plans `queries` (which must outlive the plan).
inline TestPlan MakePlan(const std::vector<Pattern>& queries) {
  TestPlan plan;
  std::unordered_map<uint64_t, int> by_fingerprint;
  for (const Pattern& query : queries) {
    if (query.IsEmpty()) {
      plan.entry_of.push_back(-1);
      continue;
    }
    auto [it, inserted] = by_fingerprint.try_emplace(
        query.CanonicalFingerprint(), static_cast<int>(plan.entries.size()));
    if (inserted) {
      plan.summaries.push_back(SummarizeSelection(query));
      plan.entries.push_back(PlannedQuery{&query, &plan.summaries.back()});
    }
    plan.entry_of.push_back(it->second);
  }
  return plan;
}

/// Answers one nonempty query as `Service::Answer` does on a memo miss: a
/// one-entry plan on the calling thread. Adds its stats delta to `*stats`.
inline CacheAnswer AnswerOne(const ViewCache& cache, const Pattern& query,
                             SynchronizedOracle* oracle, CacheStats* stats) {
  const SelectionSummary summary = SummarizeSelection(query);
  std::vector<PlannedAnswer> answers =
      cache.Execute({PlannedQuery{&query, &summary}}, 1, nullptr, oracle);
  stats->queries += answers[0].delta.queries;
  stats->hits += answers[0].delta.hits;
  stats->rewrite_unknown += answers[0].delta.rewrite_unknown;
  return std::move(answers[0].answer);
}

}  // namespace testutil
}  // namespace xpv

#endif  // XPV_TESTS_PLAN_UTIL_H_
