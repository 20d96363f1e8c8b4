#include "views/view_cache.h"

#include <gtest/gtest.h>

#include "eval/evaluator.h"
#include "pattern/algebra.h"
#include "pattern/xpath_parser.h"
#include "plan_util.h"
#include "xml/xml_parser.h"

namespace xpv {
namespace {

Tree Doc(const char* xml) {
  auto result = ParseXml(xml);
  EXPECT_TRUE(result.ok()) << result.error();
  return result.take();
}

TEST(MaterializedViewTest, OutputsMatchDirectEvaluation) {
  Tree doc = Doc("<a><b><c/></b><b><d/></b><x><b/></x></a>");
  MaterializedView view({"v", MustParseXPath("a//b")}, doc);
  EXPECT_EQ(view.outputs(), Eval(MustParseXPath("a//b"), doc));
}

TEST(MaterializedViewTest, CopiesAreSubtrees) {
  Tree doc = Doc("<a><b><c/></b><b><d/></b></a>");
  MaterializedView view({"v", MustParseXPath("a/b")}, doc);
  std::vector<Tree> copies = view.MaterializeCopies();
  ASSERT_EQ(copies.size(), 2u);
  EXPECT_EQ(copies[0].CanonicalEncoding(0),
            doc.ExtractSubtree(1).CanonicalEncoding(0));
}

TEST(MaterializedViewTest, ApplyEqualsCompositionEvaluation) {
  // Proposition 2.4 at the evaluation level: R(V(t)) = (R ∘ V)(t).
  Tree doc = Doc(
      "<a><b><c><d/></c></b><b><c/></b><x><c><d/></c></x></a>");
  Pattern v = MustParseXPath("a/b");
  Pattern r = MustParseXPath("b/c");
  MaterializedView view({"v", v}, doc);
  EXPECT_EQ(view.Apply(r), Eval(Compose(r, v), doc));
}

TEST(MaterializedViewTest, ApplyWithDescendantRewriting) {
  Tree doc = Doc("<a><b><x><d/></x></b><b><d/></b></a>");
  Pattern v = MustParseXPath("a/b");
  Pattern r = MustParseXPath("b//d");
  MaterializedView view({"v", v}, doc);
  EXPECT_EQ(view.Apply(r), Eval(Compose(r, v), doc));
}

TEST(MaterializedViewTest, EmptyViewResult) {
  Tree doc = Doc("<a><c/></a>");
  MaterializedView view({"v", MustParseXPath("a/b")}, doc);
  EXPECT_TRUE(view.outputs().empty());
  EXPECT_TRUE(view.Apply(MustParseXPath("b/c")).empty());
}

/// Answers one query through `Execute` on a fresh private oracle.
CacheAnswer AnswerOne(const ViewCache& cache, const Pattern& query) {
  SynchronizedOracle oracle;
  CacheStats stats;
  return testutil::AnswerOne(cache, query, &oracle, &stats);
}

TEST(ViewCacheTest, HitAnswersFromView) {
  Tree doc = Doc("<a><b><c/><c/></b><b/></a>");
  ViewCache cache(doc);
  cache.AddView({"b-view", MustParseXPath("a/b")});
  SynchronizedOracle oracle;
  CacheStats stats;
  CacheAnswer answer = testutil::AnswerOne(cache, MustParseXPath("a/b/c"),
                                           &oracle, &stats);
  EXPECT_TRUE(answer.hit);
  EXPECT_EQ(answer.view_name, "b-view");
  EXPECT_EQ(answer.outputs, Eval(MustParseXPath("a/b/c"), doc));
  EXPECT_EQ(stats.hits, 1u);
}

TEST(ViewCacheTest, MissFallsBackToDirectEvaluation) {
  Tree doc = Doc("<a><b><c/></b><x><y/></x></a>");
  ViewCache cache(doc);
  cache.AddView({"b-view", MustParseXPath("a/b")});
  // No rewriting of a/x/y using a/b (label mismatch at depth 1).
  SynchronizedOracle oracle;
  CacheStats stats;
  CacheAnswer answer = testutil::AnswerOne(cache, MustParseXPath("a/x/y"),
                                           &oracle, &stats);
  EXPECT_FALSE(answer.hit);
  EXPECT_EQ(answer.view_slot, -1);
  EXPECT_EQ(answer.outputs, Eval(MustParseXPath("a/x/y"), doc));
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.queries, 1u);
}

TEST(ViewCacheTest, PicksAViewThatWorks) {
  Tree doc = Doc("<a><b><c><d/></c></b></a>");
  ViewCache cache(doc);
  cache.AddView({"x-view", MustParseXPath("a/x")});
  cache.AddView({"bc-view", MustParseXPath("a/b/c")});
  CacheAnswer answer = AnswerOne(cache, MustParseXPath("a/b/c/d"));
  EXPECT_TRUE(answer.hit);
  EXPECT_EQ(answer.view_name, "bc-view");
  EXPECT_EQ(answer.view_slot, 1);
  EXPECT_EQ(answer.outputs, Eval(MustParseXPath("a/b/c/d"), doc));
}

TEST(ViewCacheTest, HitAgreesWithDirectOnWildcardViews) {
  Tree doc = Doc(
      "<a><u><b/></u><v><b><b/></b></v><w><x><b/></x></w></a>");
  ViewCache cache(doc);
  cache.AddView({"star", MustParseXPath("a/*")});
  // Query a//*/b rewrites over a/* via the relaxed candidate *//b.
  CacheAnswer answer = AnswerOne(cache, MustParseXPath("a//*/b"));
  EXPECT_TRUE(answer.hit);
  EXPECT_EQ(answer.outputs, Eval(MustParseXPath("a//*/b"), doc));
}

TEST(ViewCacheTest, StatsAccumulate) {
  // One plan, one delta per entry: the deltas sum to the plan's counts.
  Tree doc = Doc("<a><b><c/></b></a>");
  ViewCache cache(doc);
  cache.AddView({"b-view", MustParseXPath("a/b")});
  const std::vector<Pattern> queries = {
      MustParseXPath("a/b/c"),  // Hit.
      MustParseXPath("a/b"),    // Hit (k = d).
      MustParseXPath("x/y"),    // Miss (root mismatch).
  };
  testutil::TestPlan plan = testutil::MakePlan(queries);
  SynchronizedOracle oracle;
  std::vector<PlannedAnswer> answers =
      cache.Execute(plan.entries, 1, nullptr, &oracle);
  CacheStats total;
  for (const PlannedAnswer& answer : answers) {
    EXPECT_EQ(answer.delta.queries, 1u);
    EXPECT_EQ(answer.delta.hits, answer.answer.hit ? 1u : 0u);
    total.queries += answer.delta.queries;
    total.hits += answer.delta.hits;
  }
  EXPECT_EQ(total.queries, 3u);
  EXPECT_EQ(total.hits, 2u);
}

TEST(ViewCacheTest, CacheIsMovable) {
  // The document is held by pointer and the oracle is the caller's, so a
  // cache can move — e.g. into the per-document shard the Service keeps —
  // and keep answering through the entries warmed before the move.
  Tree doc = Doc("<a><b><c/></b><b/></a>");
  ViewCache original(doc);
  original.AddView({"b-view", MustParseXPath("a/b")});
  SynchronizedOracle oracle;
  CacheStats stats;
  const Pattern query = MustParseXPath("a/b/c");
  CacheAnswer before = testutil::AnswerOne(original, query, &oracle, &stats);
  const uint64_t misses = oracle.misses();

  ViewCache moved = std::move(original);
  CacheAnswer after = testutil::AnswerOne(moved, query, &oracle, &stats);
  EXPECT_EQ(after.hit, before.hit);
  EXPECT_EQ(after.outputs, before.outputs);
  EXPECT_EQ(oracle.misses(), misses);
  EXPECT_GT(oracle.hits(), 0u);

  ViewCache assigned(doc);
  assigned = std::move(moved);
  EXPECT_EQ(AnswerOne(assigned, query).outputs, before.outputs);
}

TEST(ViewCacheTest, ExternalOracleIsSharedAcrossCaches) {
  Tree doc1 = Doc("<a><b><c/></b></a>");
  Tree doc2 = Doc("<a><b><c/><c/></b></a>");
  SynchronizedOracle oracle;
  ViewCache cache1(doc1);
  ViewCache cache2(doc2);
  cache1.AddView({"v", MustParseXPath("a/b")});
  cache2.AddView({"v", MustParseXPath("a/b")});

  CacheStats stats;
  const Pattern query = MustParseXPath("a/b/c");
  EXPECT_TRUE(testutil::AnswerOne(cache1, query, &oracle, &stats).hit);
  const uint64_t misses = oracle.misses();
  // The same (query, view) shape on another document reuses the shared
  // oracle's entries: no new containment computations.
  EXPECT_TRUE(testutil::AnswerOne(cache2, query, &oracle, &stats).hit);
  EXPECT_EQ(oracle.misses(), misses);
}

TEST(ViewCacheTest, RemoveAndReplaceViewLifecycle) {
  Tree doc = Doc("<a><b><c/></b><d><e/></d></a>");
  ViewCache cache(doc);
  const int b_slot = cache.AddView({"b-view", MustParseXPath("a/b")});
  EXPECT_EQ(cache.num_active_views(), 1);
  EXPECT_TRUE(cache.view_active(b_slot));
  EXPECT_TRUE(AnswerOne(cache, MustParseXPath("a/b/c")).hit);

  cache.RemoveView(b_slot);
  EXPECT_EQ(cache.num_active_views(), 0);
  EXPECT_FALSE(cache.view_active(b_slot));
  // The tombstoned slot is skipped, the answer still correct (direct).
  CacheAnswer miss = AnswerOne(cache, MustParseXPath("a/b/c"));
  EXPECT_FALSE(miss.hit);
  EXPECT_EQ(miss.outputs, Eval(MustParseXPath("a/b/c"), doc));
  // The materialized data was dropped with the tombstone.
  EXPECT_TRUE(cache.views()[static_cast<size_t>(b_slot)].outputs().empty());

  cache.ReplaceView(b_slot, {"d-view", MustParseXPath("a/d")});
  EXPECT_EQ(cache.num_active_views(), 1);
  EXPECT_TRUE(cache.view_active(b_slot));
  CacheAnswer hit = AnswerOne(cache, MustParseXPath("a/d/e"));
  EXPECT_TRUE(hit.hit);
  EXPECT_EQ(hit.view_name, "d-view");
  EXPECT_EQ(hit.outputs, Eval(MustParseXPath("a/d/e"), doc));
}

TEST(ViewCacheTest, AddRemoveChurnRecyclesTombstonedSlots) {
  // Regression: AddView used to append a brand-new slot forever, so
  // add/remove churn grew views_/active_/ViewIndex without bound (and
  // every view scan with them). Tombstoned slots must be recycled.
  Tree doc = Doc("<a><b><c/></b><d/></a>");
  ViewCache cache(doc);
  const int slot = cache.AddView({"v0", MustParseXPath("a/b")});
  const size_t slots_after_first = cache.views().size();
  const int index_after_first = cache.index().size();

  for (int i = 0; i < 100; ++i) {
    cache.RemoveView(slot);
    const int reused =
        cache.AddView({"v" + std::to_string(i + 1), MustParseXPath("a/b")});
    // The same slot comes back; nothing grows.
    EXPECT_EQ(reused, slot);
    EXPECT_EQ(cache.views().size(), slots_after_first);
    EXPECT_EQ(cache.index().size(), index_after_first);
    EXPECT_EQ(cache.num_active_views(), 1);
  }
  // The recycled slot answers for its current definition.
  CacheAnswer hit = AnswerOne(cache, MustParseXPath("a/b/c"));
  EXPECT_TRUE(hit.hit);
  EXPECT_EQ(hit.view_name, "v100");
  EXPECT_EQ(hit.outputs, Eval(MustParseXPath("a/b/c"), doc));
}

TEST(ViewCacheTest, ReplaceViewUnlinksTheSlotFromTheFreeList) {
  // ReplaceView revives a tombstone directly (the Service's historical
  // slot-reuse path); a later AddView must NOT recycle that slot again
  // and clobber the live view.
  Tree doc = Doc("<a><b><c/></b><d><e/></d></a>");
  ViewCache cache(doc);
  const int slot = cache.AddView({"b-view", MustParseXPath("a/b")});
  cache.RemoveView(slot);
  cache.ReplaceView(slot, {"d-view", MustParseXPath("a/d")});
  ASSERT_TRUE(cache.view_active(slot));

  const int fresh = cache.AddView({"b-again", MustParseXPath("a/b")});
  EXPECT_NE(fresh, slot);
  EXPECT_EQ(cache.num_active_views(), 2);
  EXPECT_TRUE(AnswerOne(cache, MustParseXPath("a/d/e")).hit);
  EXPECT_TRUE(AnswerOne(cache, MustParseXPath("a/b/c")).hit);
}

TEST(ViewCacheTest, EpochBumpsOnEveryViewSetMutation) {
  // The AnswerCache invalidation contract: every AddView/ReplaceView/
  // RemoveView moves the epoch strictly forward (RemoveView of a
  // tombstone is a no-op and must not).
  Tree doc = Doc("<a><b/><d/></a>");
  ViewCache cache(doc);
  uint64_t last = cache.epoch();
  const int slot = cache.AddView({"v", MustParseXPath("a/b")});
  EXPECT_GT(cache.epoch(), last);
  last = cache.epoch();
  cache.ReplaceView(slot, {"w", MustParseXPath("a/d")});
  EXPECT_GT(cache.epoch(), last);
  last = cache.epoch();
  cache.RemoveView(slot);
  EXPECT_GT(cache.epoch(), last);
  last = cache.epoch();
  cache.RemoveView(slot);  // Already tombstoned: no state change.
  EXPECT_EQ(cache.epoch(), last);
  cache.AddView({"x", MustParseXPath("a/b")});  // Recycles the slot.
  EXPECT_GT(cache.epoch(), last);
}

}  // namespace
}  // namespace xpv
