// Differential test of the one answering path: `ViewCache::Execute`, and
// the `Service` entry points that run through it, against the naive
// reference evaluator on seeded random workloads (`RandomPattern` queries
// with duplicates and the empty pattern; `PrefixView`/`PerturbedView`
// views). Every answer must equal `reference::Eval`, a hit must come from
// the first view that admits an equivalent rewriting, the stats deltas
// must add up to the queries, and nothing may depend on the worker count.
// Doubles as the ThreadSanitizer target of the CI concurrency stress.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/service.h"
#include "containment/oracle.h"
#include "eval/reference.h"
#include "plan_util.h"
#include "rewrite/engine.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "views/view_cache.h"
#include "workload/generator.h"

namespace xpv {
namespace {

struct Workload {
  Tree doc;
  std::vector<ViewDefinition> views;
  std::vector<Pattern> queries;
};

/// Four random base patterns, a document seeded with matches of the first,
/// views derived from the bases (alternately prefix and perturbed), and 25
/// queries: fresh random patterns, repeats of the bases, and the empty
/// pattern.
Workload MakeWorkload(Rng& rng) {
  PatternGenOptions pattern_options;
  pattern_options.min_depth = 2;
  pattern_options.max_depth = 4;
  pattern_options.max_branches = 2;
  TreeGenOptions tree_options;
  tree_options.max_nodes = 300;
  std::vector<Pattern> base;
  for (int i = 0; i < 4; ++i) {
    base.push_back(RandomPattern(rng, pattern_options));
  }
  Workload w{DocumentWithMatches(rng, base[0], tree_options, 3), {}, {}};
  for (size_t i = 0; i < base.size(); ++i) {
    int k = 0;
    Pattern view = i % 2 == 0 ? PrefixView(rng, base[i], &k)
                              : PerturbedView(rng, base[i], &k);
    if (SummarizeSelection(view).depth == 0) continue;  // Whole-doc view.
    std::string name(1, 'v');
    name += std::to_string(i);
    w.views.push_back({std::move(name), std::move(view)});
  }
  for (int i = 0; i < 24; ++i) {
    const uint64_t pick = rng.Next() % 5;
    if (pick == 0) {
      w.queries.push_back(RandomPattern(rng, pattern_options));
    } else if (pick == 1 && i % 8 == 0) {
      w.queries.push_back(Pattern::Empty());
    } else {
      w.queries.push_back(base[static_cast<size_t>(rng.Next() % 4)]);
    }
  }
  w.queries.push_back(Pattern::Empty());
  return w;
}

/// The scan `Execute` must reproduce, decided view by view with a fresh
/// engine: the first slot admitting an equivalent rewriting (-1 if none),
/// and the kUnknown verdicts met before it.
struct ExpectedScan {
  int view_slot = -1;
  uint64_t unknown = 0;
};

ExpectedScan ScanByEngine(const std::vector<ViewDefinition>& views,
                          const Pattern& query) {
  ExpectedScan scan;
  for (size_t vi = 0; vi < views.size(); ++vi) {
    const RewriteStatus status =
        DecideRewrite(query, views[vi].pattern).status;
    if (status == RewriteStatus::kFound) {
      scan.view_slot = static_cast<int>(vi);
      return scan;
    }
    if (status == RewriteStatus::kUnknown) ++scan.unknown;
  }
  return scan;
}

void ExpectSamePlanned(const PlannedAnswer& actual,
                       const PlannedAnswer& expected, size_t entry) {
  EXPECT_EQ(actual.answer.hit, expected.answer.hit) << entry;
  EXPECT_EQ(actual.answer.view_slot, expected.answer.view_slot) << entry;
  EXPECT_EQ(actual.answer.view_name, expected.answer.view_name) << entry;
  EXPECT_EQ(actual.answer.outputs, expected.answer.outputs) << entry;
  EXPECT_EQ(actual.answer.rewriting.CanonicalEncoding(),
            expected.answer.rewriting.CanonicalEncoding())
      << entry;
  EXPECT_EQ(actual.delta.queries, expected.delta.queries) << entry;
  EXPECT_EQ(actual.delta.hits, expected.delta.hits) << entry;
  EXPECT_EQ(actual.delta.rewrite_unknown, expected.delta.rewrite_unknown)
      << entry;
}

TEST(ExecuteDifferentialTest, MatchesReferenceAtEveryWorkerCount) {
  Rng rng(20260730);
  ThreadPool pool(4);
  for (int round = 0; round < 4; ++round) {
    SCOPED_TRACE(round);
    const Workload w = MakeWorkload(rng);
    ViewCache cache(w.doc);
    for (const ViewDefinition& view : w.views) cache.AddView(view);
    const testutil::TestPlan plan = testutil::MakePlan(w.queries);

    std::vector<PlannedAnswer> one_worker;
    for (int workers : {1, 2, 4}) {
      SCOPED_TRACE(workers);
      SynchronizedOracle oracle;
      std::vector<PlannedAnswer> answers =
          cache.Execute(plan.entries, workers, &pool, &oracle);
      ASSERT_EQ(answers.size(), plan.entries.size());
      if (workers == 1) {
        one_worker = answers;
      } else {
        for (size_t e = 0; e < answers.size(); ++e) {
          ExpectSamePlanned(answers[e], one_worker[e], e);
        }
      }
    }

    CacheStats total;
    uint64_t hit_answers = 0;
    for (size_t q = 0; q < w.queries.size(); ++q) {
      const Pattern& query = w.queries[q];
      const int e = plan.entry_of[q];
      ++total.queries;
      if (e < 0) {
        EXPECT_TRUE(query.IsEmpty()) << q;
        EXPECT_TRUE(reference::Eval(query, w.doc).empty()) << q;
        continue;
      }
      const PlannedAnswer& answer = one_worker[static_cast<size_t>(e)];
      EXPECT_EQ(answer.answer.outputs, reference::Eval(query, w.doc)) << q;
      EXPECT_EQ(answer.delta.queries, 1u) << q;
      EXPECT_EQ(answer.delta.hits, answer.answer.hit ? 1u : 0u) << q;
      const ExpectedScan scan = ScanByEngine(w.views, query);
      EXPECT_EQ(answer.answer.view_slot, scan.view_slot) << q;
      EXPECT_EQ(answer.answer.hit, scan.view_slot >= 0) << q;
      EXPECT_EQ(answer.delta.rewrite_unknown, scan.unknown) << q;
      if (answer.answer.hit) {
        EXPECT_EQ(answer.answer.view_name,
                  w.views[static_cast<size_t>(scan.view_slot)].name)
            << q;
        ++hit_answers;
      }
      total.hits += answer.delta.hits;
    }
    EXPECT_EQ(total.queries, w.queries.size());
    EXPECT_EQ(total.hits, hit_answers);
  }
}

TEST(ExecuteDifferentialTest, RepeatedPlanReadsThroughSharedOracle) {
  // A second identical plan answers every containment question from the
  // shared oracle its first run's shards were absorbed into: no new
  // misses, identical answers.
  Rng rng(7);
  const Workload w = MakeWorkload(rng);
  ViewCache cache(w.doc);
  for (const ViewDefinition& view : w.views) cache.AddView(view);
  const testutil::TestPlan plan = testutil::MakePlan(w.queries);
  ThreadPool pool(3);
  SynchronizedOracle oracle;
  std::vector<PlannedAnswer> first =
      cache.Execute(plan.entries, 3, &pool, &oracle);
  const uint64_t misses_after_first = oracle.misses();
  std::vector<PlannedAnswer> second =
      cache.Execute(plan.entries, 3, &pool, &oracle);
  EXPECT_EQ(oracle.misses(), misses_after_first);
  ASSERT_EQ(second.size(), first.size());
  for (size_t e = 0; e < first.size(); ++e) {
    ExpectSamePlanned(second[e], first[e], e);
  }
}

TEST(ExecuteDifferentialTest, ServiceAnswerAndBatchMatchReference) {
  // The facade's two entry points run one memo routine over `Execute`:
  // single answers, cold and memoized batches at every worker count all
  // equal the reference, and the serving counters add up.
  Rng rng(99);
  Service service;
  std::vector<Workload> workloads;
  std::vector<DocumentId> docs;
  for (int d = 0; d < 3; ++d) {
    workloads.push_back(MakeWorkload(rng));
    docs.push_back(service.AddDocument(workloads.back().doc));
    for (const ViewDefinition& view : workloads.back().views) {
      ASSERT_TRUE(service.AddView(docs.back(), view.name, view.pattern).ok());
    }
  }
  std::vector<BatchItem> items;
  std::vector<const Pattern*> item_query;
  std::vector<size_t> item_doc;
  for (size_t i = 0; i < workloads[0].queries.size(); ++i) {
    for (size_t d = 0; d < docs.size(); ++d) {
      // Round-robin every document's queries so slices interleave.
      const std::vector<Pattern>& queries = workloads[d].queries;
      if (i >= queries.size()) continue;
      items.push_back({docs[d], Query(queries[i])});
      item_query.push_back(&queries[i]);
      item_doc.push_back(d);
    }
  }

  uint64_t answered = 0;
  uint64_t hits = 0;
  auto check = [&](const Answer& answer, size_t i) {
    const Workload& w = workloads[item_doc[i]];
    EXPECT_EQ(answer.outputs, reference::Eval(*item_query[i], w.doc)) << i;
    EXPECT_EQ(answer.hit, !item_query[i]->IsEmpty() &&
                              ScanByEngine(w.views, *item_query[i])
                                      .view_slot >= 0)
        << i;
    ++answered;
    if (answer.hit) ++hits;
  };
  for (int workers : {1, 2, 4}) {
    SCOPED_TRACE(workers);
    ServiceResult<BatchAnswers> batch = service.AnswerBatch(items, workers);
    ASSERT_TRUE(batch.ok());
    ASSERT_EQ(batch.value().size(), items.size());
    for (size_t i = 0; i < items.size(); ++i) {
      ASSERT_TRUE(batch.value().answers[i].ok()) << i;
      check(batch.value().answers[i].value(), i);
    }
  }
  for (size_t i = 0; i < items.size(); ++i) {
    ServiceResult<Answer> answer =
        service.Answer(items[i].document, items[i].query);
    ASSERT_TRUE(answer.ok()) << i;
    check(answer.value(), i);
  }
  EXPECT_EQ(service.stats().queries, answered);
  EXPECT_EQ(service.stats().hits, hits);
  EXPECT_EQ(service.stats().failed_requests, 0u);
}

}  // namespace
}  // namespace xpv
