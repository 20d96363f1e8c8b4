#include "rewrite/engine.h"

#include <cassert>

#include "containment/containment.h"
#include "containment/oracle.h"
#include "pattern/algebra.h"
#include "pattern/properties.h"
#include "pattern/serializer.h"
#include "rewrite/bruteforce.h"
#include "rewrite/candidates.h"

namespace xpv {
namespace {

std::string ChainToString(const CompletenessFinding& finding) {
  std::string out;
  for (size_t i = 0; i < finding.chain.size(); ++i) {
    if (i > 0) out += " -> ";
    out += RuleName(finding.chain[i]);
  }
  return out;
}

}  // namespace

RewriteResult DecideRewrite(const Pattern& p, const Pattern& v,
                            const RewriteOptions& options,
                            const CandidateBundle* precomputed) {
  assert(!p.IsEmpty() && !v.IsEmpty());
  RewriteResult result;

  // Step 1: necessary conditions. A precomputed bundle certifies that the
  // caller (batch warm-up, view-pruning index) already checked them.
  if (precomputed == nullptr) {
    if (auto violation = ViolatesBasicNecessaryConditions(p, v)) {
      result.status = RewriteStatus::kNotExists;
      result.violation = violation;
      result.explanation =
          "no rewriting: " + RuleName(violation->rule) + " — " +
          violation->detail;
      return result;
    }
  } else {
    assert(!ViolatesBasicNecessaryConditions(p, v).has_value());
  }

  // Step 2: construct and test the natural candidates. With an oracle both
  // directions of an equivalence land in one two-direction cache entry
  // (batch warm-ups, e.g. ViewCache::Execute, prefill the forward
  // direction via ContainedMany), and the reverse test still short-circuits
  // when the forward one fails.
  auto equivalent = [&options](const Pattern& a, const Pattern& b) {
    return options.oracle != nullptr ? options.oracle->Equivalent(a, b)
                                     : Equivalent(a, b);
  };
  // Self-built bundles go into thread-local recycled storage: DecideRewrite
  // never runs reentrantly on one thread (the multi-view driver issues its
  // calls sequentially), and everything returned is copied out.
  static thread_local CandidateBundle local;
  static thread_local std::vector<NodeId> local_map;
  if (precomputed == nullptr) {
    MakeCandidateBundleInto(p, v, SelectionInfo(v).depth(), &local,
                            &local_map);
  }
  const CandidateBundle& bundle = precomputed != nullptr ? *precomputed : local;
  const NaturalCandidates& candidates = bundle.natural;
  {
    ++result.stats.equivalence_tests;
    if (equivalent(bundle.sub_composition, p)) {
      result.status = RewriteStatus::kFound;
      result.rewriting = candidates.sub;
      result.explanation = "found: the natural candidate P>=k (" +
                           ToXPath(candidates.sub) + ") is a rewriting";
      return result;
    }
  }
  if (!candidates.coincide) {
    ++result.stats.equivalence_tests;
    if (equivalent(bundle.relaxed_composition, p)) {
      result.status = RewriteStatus::kFound;
      result.rewriting = candidates.relaxed;
      result.explanation = "found: the natural candidate P>=k_r// (" +
                           ToXPath(candidates.relaxed) + ") is a rewriting";
      return result;
    }
  }

  // Step 3: completeness conditions.
  ConditionsReport report = EvaluateConditions(p, v);
  if (report.violation.has_value()) {
    result.status = RewriteStatus::kNotExists;
    result.violation = report.violation;
    result.explanation = "no rewriting: " + RuleName(report.violation->rule) +
                         " — " + report.violation->detail;
    return result;
  }
  if (report.completeness.has_value()) {
    result.status = RewriteStatus::kNotExists;
    result.completeness = report.completeness;
    result.explanation =
        "no rewriting: both natural candidates failed and a completeness "
        "condition holds [" +
        ChainToString(*report.completeness) + "]: " +
        report.completeness->detail;
    return result;
  }

  // Step 4: optional brute force (Prop 3.4).
  if (options.enable_brute_force) {
    result.stats.used_brute_force = true;
    BruteForceOptions bf;
    bf.max_nodes = options.brute_force_max_nodes;
    bf.budget = options.brute_force_budget;
    BruteForceOutcome outcome = BruteForceRewrite(p, v, bf);
    result.stats.bruteforce_candidates = outcome.candidates_tested;
    if (outcome.found.has_value()) {
      result.status = RewriteStatus::kFound;
      result.rewriting = *outcome.found;
      result.explanation =
          "found by bounded enumeration (Prop 3.4): " +
          ToXPath(result.rewriting);
      return result;
    }
  }

  result.status = RewriteStatus::kUnknown;
  result.explanation =
      "unknown: both natural candidates failed, no completeness condition "
      "of Sections 4-5 applies" +
      std::string(options.enable_brute_force
                       ? ", and the budgeted enumeration found nothing"
                       : " (brute force disabled)");
  return result;
}

}  // namespace xpv
