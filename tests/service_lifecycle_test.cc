// Generation-tagged handle lifecycle of the serving facade:
// RemoveDocument/RemoveView/ReplaceDocument recycle slots through free
// lists while every outstanding handle stays *detectably* stale
// (kStaleHandle), including handles minted by a different Service
// instance — a recycled or foreign handle must never silently resolve to
// the wrong document or view.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/service.h"
#include "eval/evaluator.h"
#include "pattern/xpath_parser.h"
#include "xml/xml_parser.h"

namespace xpv {
namespace {

Tree Doc(const char* xml) {
  auto result = ParseXml(xml);
  EXPECT_TRUE(result.ok()) << result.error();
  return result.take();
}

TEST(ServiceLifecycleTest, RemoveDocumentInvalidatesEveryEntryPoint) {
  Service service;
  DocumentId doc = service.AddDocument(Doc("<a><b><c/></b></a>"));
  ServiceResult<ViewId> view = service.AddView(doc, "v", "a/b");
  ASSERT_TRUE(view.ok());
  ASSERT_TRUE(service.Answer(doc, "a/b/c").ok());

  ASSERT_TRUE(service.RemoveDocument(doc).ok());
  EXPECT_EQ(service.num_documents(), 0);

  // Every lookup on the dead handle reports kStaleHandle (or null for the
  // pointer-returning escape hatches).
  ServiceResult<Answer> answer = service.Answer(doc, "a/b/c");
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.error().code, ServiceErrorCode::kStaleHandle);
  EXPECT_EQ(service.document(doc), nullptr);
  EXPECT_EQ(service.cache(doc), nullptr);
  EXPECT_EQ(service.num_views(doc), 0);
  EXPECT_EQ(service.view(view.value()), nullptr);

  ServiceResult<ViewId> add = service.AddView(doc, "w", "a/b");
  ASSERT_FALSE(add.ok());
  EXPECT_EQ(add.error().code, ServiceErrorCode::kStaleHandle);

  // Removing twice is stale, not a crash or a double free.
  ServiceStatus again = service.RemoveDocument(doc);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.error().code, ServiceErrorCode::kStaleHandle);
}

TEST(ServiceLifecycleTest, RecycledDocumentSlotRejectsTheOldHandle) {
  Service service;
  DocumentId first = service.AddDocument(Doc("<a><b/></a>"));
  ASSERT_TRUE(service.RemoveDocument(first).ok());

  // The freed slot is recycled for the next document...
  DocumentId second = service.AddDocument(Doc("<r><s/></r>"));
  EXPECT_EQ(second.slot, first.slot);
  // ...under a different generation, so the handles stay distinct and the
  // old one keeps failing instead of resolving to the new document.
  EXPECT_NE(second.generation, first.generation);
  EXPECT_NE(first, second);
  EXPECT_EQ(service.document(first), nullptr);
  ServiceResult<Answer> stale = service.Answer(first, "a/b");
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.error().code, ServiceErrorCode::kStaleHandle);

  ASSERT_NE(service.document(second), nullptr);
  EXPECT_TRUE(service.Answer(second, "r/s").ok());
  EXPECT_EQ(service.num_documents(), 1);
}

TEST(ServiceLifecycleTest, ForeignServiceHandleIsRejected) {
  // Regression: both Services mint slot 0 first, so a dense un-tagged
  // handle from one used on the other silently returned the WRONG
  // document. The instance tag now rejects it with kStaleHandle.
  Service one;
  Service two;
  DocumentId doc_one = one.AddDocument(Doc("<a><b/></a>"));
  DocumentId doc_two = two.AddDocument(Doc("<x><y/></x>"));
  EXPECT_EQ(doc_one.slot, doc_two.slot);
  EXPECT_NE(doc_one, doc_two);

  EXPECT_EQ(two.document(doc_one), nullptr);
  EXPECT_EQ(one.document(doc_two), nullptr);

  ServiceResult<Answer> crossed = two.Answer(doc_one, "a/b");
  ASSERT_FALSE(crossed.ok());
  EXPECT_EQ(crossed.error().code, ServiceErrorCode::kStaleHandle);

  ServiceResult<ViewId> crossed_view = two.AddView(doc_one, "v", "a/b");
  ASSERT_FALSE(crossed_view.ok());
  EXPECT_EQ(crossed_view.error().code, ServiceErrorCode::kStaleHandle);

  ServiceStatus crossed_remove = two.RemoveDocument(doc_one);
  ASSERT_FALSE(crossed_remove.ok());
  EXPECT_EQ(crossed_remove.error().code, ServiceErrorCode::kStaleHandle);

  // View handles carry the foreign document and are rejected the same way.
  ServiceResult<ViewId> view_one = one.AddView(doc_one, "v", "a/b");
  ASSERT_TRUE(view_one.ok());
  EXPECT_EQ(two.view(view_one.value()), nullptr);
  ServiceStatus crossed_view_remove = two.RemoveView(view_one.value());
  ASSERT_FALSE(crossed_view_remove.ok());
  EXPECT_EQ(crossed_view_remove.error().code,
            ServiceErrorCode::kStaleHandle);

  // Both Services still serve their own handles.
  EXPECT_TRUE(one.Answer(doc_one, "a/b").ok());
  EXPECT_TRUE(two.Answer(doc_two, "x/y").ok());
}

TEST(ServiceLifecycleTest, NeverMintedHandleIsUnknownNotStale) {
  Service service;
  (void)service.AddDocument(Doc("<a/>"));  // discard: the handle is deliberately lost — the test probes never-minted handles
  // Default and hand-rolled handles were never minted by ANY Service:
  // they report kUnknownDocument (stale is reserved for handles that once
  // resolved here or were minted elsewhere).
  ServiceResult<Answer> unknown = service.Answer(DocumentId{}, "a");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.error().code, ServiceErrorCode::kUnknownDocument);
  ServiceResult<Answer> forged = service.Answer(DocumentId{7}, "a");
  ASSERT_FALSE(forged.ok());
  EXPECT_EQ(forged.error().code, ServiceErrorCode::kUnknownDocument);
}

TEST(ServiceLifecycleTest, RemoveViewStopsAnsweringAndRecyclesTheSlot) {
  Service service;
  DocumentId doc = service.AddDocument(Doc("<a><b><c/></b><d/></a>"));
  ServiceResult<ViewId> view = service.AddView(doc, "v", "a/b");
  ASSERT_TRUE(view.ok());
  ServiceResult<Answer> before = service.Answer(doc, "a/b/c");
  ASSERT_TRUE(before.ok());
  EXPECT_TRUE(before.value().hit);

  ASSERT_TRUE(service.RemoveView(view.value()).ok());
  EXPECT_EQ(service.num_views(doc), 0);
  EXPECT_EQ(service.view(view.value()), nullptr);

  // The query still answers (direct evaluation), just not through the
  // dead view — and outputs stay correct.
  ServiceResult<Answer> after = service.Answer(doc, "a/b/c");
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after.value().hit);
  EXPECT_EQ(after.value().outputs, before.value().outputs);

  // Double remove is stale.
  ServiceStatus again = service.RemoveView(view.value());
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.error().code, ServiceErrorCode::kStaleHandle);

  // The name and the slot are recycled — under a fresh generation, so the
  // old handle still fails instead of resolving to the new view.
  ServiceResult<ViewId> reused = service.AddView(doc, "v", "a/d");
  ASSERT_TRUE(reused.ok());
  EXPECT_EQ(reused.value().slot, view.value().slot);
  EXPECT_NE(reused.value().generation, view.value().generation);
  EXPECT_EQ(service.view(view.value()), nullptr);
  ASSERT_NE(service.view(reused.value()), nullptr);
  EXPECT_EQ(service.view(reused.value())->name, "v");
  EXPECT_EQ(service.num_views(doc), 1);

  // The recycled slot answers for its new definition.
  ServiceResult<Answer> via_new = service.Answer(doc, "a/d");
  ASSERT_TRUE(via_new.ok());
  EXPECT_TRUE(via_new.value().hit);
  EXPECT_EQ(via_new.value().view_name, "v");
}

TEST(ServiceLifecycleTest, RemovedViewNoLongerShadowsLaterViews) {
  // The view scan probes slots in order; a removed slot must be skipped, not
  // answered from its tombstone.
  Service service;
  DocumentId doc =
      service.AddDocument(Doc("<a><b><c/></b><b><d/></b></a>"));
  ServiceResult<ViewId> v0 = service.AddView(doc, "v0", "a/b");
  ASSERT_TRUE(v0.ok());
  ServiceResult<ViewId> v1 = service.AddView(doc, "v1", "a//b");
  ASSERT_TRUE(v1.ok());

  ServiceResult<Answer> first = service.Answer(doc, "a/b/c");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().view_name, "v0");

  ASSERT_TRUE(service.RemoveView(v0.value()).ok());
  ServiceResult<Answer> second = service.Answer(doc, "a/b/c");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().outputs, first.value().outputs);
}

TEST(ServiceLifecycleTest, ReplaceDocumentKeepsHandleDropsViews) {
  Service service;
  DocumentId doc = service.AddDocument(Doc("<a><b><c/></b></a>"));
  ServiceResult<ViewId> view = service.AddView(doc, "v", "a/b");
  ASSERT_TRUE(view.ok());

  ASSERT_TRUE(service.ReplaceDocument(doc, Doc("<a><b><c/><c/></b></a>")).ok());

  // The document handle survives and serves the new tree.
  ASSERT_NE(service.document(doc), nullptr);
  ServiceResult<Answer> answer = service.Answer(doc, "a/b/c");
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer.value().outputs.size(), 2u);
  EXPECT_EQ(answer.value().outputs,
            Eval(MustParseXPath("a/b/c"), *service.document(doc)));

  // The views died with the old tree: handle stale, count zero.
  EXPECT_EQ(service.num_views(doc), 0);
  EXPECT_EQ(service.view(view.value()), nullptr);
  ServiceStatus removed = service.RemoveView(view.value());
  ASSERT_FALSE(removed.ok());
  EXPECT_EQ(removed.error().code, ServiceErrorCode::kStaleHandle);

  // A re-added view reuses slot 0 under a NEVER-seen generation: the
  // pre-replace handle still cannot resolve to it.
  ServiceResult<ViewId> reborn = service.AddView(doc, "v", "a/b");
  ASSERT_TRUE(reborn.ok());
  EXPECT_EQ(reborn.value().slot, view.value().slot);
  EXPECT_NE(reborn.value().generation, view.value().generation);
  EXPECT_EQ(service.view(view.value()), nullptr);
  ASSERT_NE(service.view(reborn.value()), nullptr);
}

TEST(ServiceLifecycleTest, ReplaceDocumentParseErrorLeavesTheOldDocument) {
  Service service;
  DocumentId doc = service.AddDocument(Doc("<a><b/></a>"));
  ServiceStatus bad = service.ReplaceDocument(doc, "<a><b></a>");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, ServiceErrorCode::kParseError);
  // The old document still serves.
  ASSERT_NE(service.document(doc), nullptr);
  EXPECT_TRUE(service.Answer(doc, "a/b").ok());
}

TEST(ServiceLifecycleTest, BatchSlotsFailAloneOnStaleHandles) {
  Service service;
  DocumentId live = service.AddDocument(Doc("<a><b><c/></b></a>"));
  ASSERT_TRUE(service.AddView(live, "v", "a/b").ok());
  DocumentId dead = service.AddDocument(Doc("<x><y/></x>"));
  ASSERT_TRUE(service.RemoveDocument(dead).ok());

  Service other;
  DocumentId foreign = other.AddDocument(Doc("<q><r/></q>"));

  std::vector<BatchItem> items = {
      {live, "a/b/c"},
      {dead, "x/y"},     // Stale: fails alone.
      {foreign, "q/r"},  // Foreign: fails alone.
      {live, "a/b"},
  };
  ServiceResult<BatchAnswers> batch = service.AnswerBatch(items, 2);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch.value().size(), items.size());
  EXPECT_TRUE(batch.value().answers[0].ok());
  ASSERT_FALSE(batch.value().answers[1].ok());
  EXPECT_EQ(batch.value().answers[1].error().code,
            ServiceErrorCode::kStaleHandle);
  ASSERT_FALSE(batch.value().answers[2].ok());
  EXPECT_EQ(batch.value().answers[2].error().code,
            ServiceErrorCode::kStaleHandle);
  EXPECT_TRUE(batch.value().answers[3].ok());
  EXPECT_TRUE(batch.value().answers[3].value().hit);
}

TEST(ServiceLifecycleTest, StatsTrackTheLiveSetOnly) {
  Service service;
  DocumentId d1 = service.AddDocument(Doc("<a><b/></a>"));
  DocumentId d2 = service.AddDocument(Doc("<a><b/><c/></a>"));
  ASSERT_TRUE(service.AddView(d1, "v", "a/b").ok());
  ASSERT_TRUE(service.AddView(d2, "v", "a/b").ok());
  ServiceResult<ViewId> w = service.AddView(d2, "w", "a/c");
  ASSERT_TRUE(w.ok());

  EXPECT_EQ(service.stats().documents, 2u);
  EXPECT_EQ(service.stats().views, 3u);

  ASSERT_TRUE(service.RemoveView(w.value()).ok());
  EXPECT_EQ(service.stats().views, 2u);

  ASSERT_TRUE(service.RemoveDocument(d1).ok());
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.documents, 1u);
  EXPECT_EQ(stats.views, 1u);
  EXPECT_EQ(service.num_documents(), 1);
  // The failed_requests counter survives mutations (none failed here).
  EXPECT_EQ(stats.failed_requests, 0u);
}

TEST(ServiceLifecycleTest, ServingCountersStayCumulativeAcrossRemovals) {
  // stats() totals are monotonic: a removed or replaced document retires
  // its counters into the Service instead of taking them to the grave.
  Service service;
  DocumentId doc = service.AddDocument(Doc("<a><b><c/></b></a>"));
  ASSERT_TRUE(service.AddView(doc, "v", "a/b").ok());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(service.Answer(doc, "a/b/c").ok());
  ASSERT_EQ(service.stats().queries, 3u);
  const uint64_t hits_before = service.stats().hits;

  ASSERT_TRUE(service.ReplaceDocument(doc, Doc("<a><b/></a>")).ok());
  EXPECT_EQ(service.stats().queries, 3u);
  EXPECT_EQ(service.stats().hits, hits_before);
  ASSERT_TRUE(service.Answer(doc, "a/b").ok());
  EXPECT_EQ(service.stats().queries, 4u);

  ASSERT_TRUE(service.RemoveDocument(doc).ok());
  EXPECT_EQ(service.stats().queries, 4u);
  EXPECT_EQ(service.stats().hits, hits_before);
  EXPECT_EQ(service.stats().documents, 0u);
}

TEST(ServiceLifecycleTest, ViewPointersSurviveLaterAddViews) {
  // The documented contract: a ViewDefinition* from view() stays valid
  // until THAT view is removed or replaced — later AddViews must not
  // invalidate it (view slots live in a deque, not a reallocating
  // vector).
  Service service;
  DocumentId doc = service.AddDocument(Doc("<a><b/><c/><d/><e/></a>"));
  ServiceResult<ViewId> first = service.AddView(doc, "first", "a/b");
  ASSERT_TRUE(first.ok());
  const ViewDefinition* held = service.view(first.value());
  ASSERT_NE(held, nullptr);
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(
        service.AddView(doc, "v" + std::to_string(i), "a/c").ok());
  }
  EXPECT_EQ(held->name, "first");
  EXPECT_EQ(held, service.view(first.value()));
}

TEST(ServiceLifecycleTest, ReAddingARemovedViewNameMintsAFreshHandle) {
  // Regression (tombstone hygiene): re-adding a view under a name freed
  // by RemoveView must succeed with a FRESH ViewId — neither failing
  // kDuplicateViewName (the name is free) nor resurrecting the dead
  // slot's generation (the old handle must stay stale forever).
  Service service;
  DocumentId doc = service.AddDocument(Doc("<a><b><c/></b><d/></a>"));
  ServiceResult<ViewId> first = service.AddView(doc, "v", "a/b");
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(service.RemoveView(first.value()).ok());

  ServiceResult<ViewId> second = service.AddView(doc, "v", "a/b");
  ASSERT_TRUE(second.ok()) << second.error().message;
  EXPECT_NE(second.value(), first.value());
  EXPECT_NE(second.value().generation, first.value().generation);
  EXPECT_EQ(service.view(first.value()), nullptr);
  ASSERT_NE(service.view(second.value()), nullptr);
  EXPECT_EQ(service.view(second.value())->name, "v");

  // The old handle cannot remove/resolve the reborn view.
  ServiceStatus stale = service.RemoveView(first.value());
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.error().code, ServiceErrorCode::kStaleHandle);
  EXPECT_EQ(service.num_views(doc), 1);
  ServiceResult<Answer> answer = service.Answer(doc, "a/b/c");
  ASSERT_TRUE(answer.ok());
  EXPECT_TRUE(answer.value().hit);
  EXPECT_EQ(answer.value().view_name, "v");
}

TEST(ServiceLifecycleTest, ViewChurnKeepsTheSlotTableBounded) {
  // Service-level half of the tombstone-recycling regression: sustained
  // AddView/RemoveView churn must not grow the per-document view table
  // (or the index every view scan walks) without bound.
  Service service;
  DocumentId doc = service.AddDocument(Doc("<a><b><c/></b></a>"));
  ServiceResult<ViewId> resident = service.AddView(doc, "keep", "a/b");
  ASSERT_TRUE(resident.ok());
  ASSERT_NE(service.cache(doc), nullptr);
  const size_t slots_before = service.cache(doc)->views().size();

  for (int i = 0; i < 200; ++i) {
    ServiceResult<ViewId> churn =
        service.AddView(doc, "w" + std::to_string(i % 2), "a//b");
    ASSERT_TRUE(churn.ok());
    ASSERT_TRUE(service.RemoveView(churn.value()).ok());
  }
  // One extra slot (the churn views recycle it), not 200.
  EXPECT_LE(service.cache(doc)->views().size(), slots_before + 1);
  EXPECT_EQ(service.cache(doc)->index().size(),
            static_cast<int>(service.cache(doc)->views().size()));
  EXPECT_EQ(service.num_views(doc), 1);
  EXPECT_TRUE(service.Answer(doc, "a/b/c").value().hit);
}

TEST(ServiceLifecycleTest, RecycledDocumentSlotNeverServesMemoizedAnswers) {
  // The answer memo keys on (slot, epoch, fingerprint); the slot's epoch
  // is monotonic across occupants, so a recycled slot can never serve an
  // answer memoized for the document it replaced — even for the same
  // query under a new handle.
  Service service;
  DocumentId first = service.AddDocument(Doc("<a><b><c/></b></a>"));
  ServiceResult<Answer> original = service.Answer(first, "a/b/c");
  ASSERT_TRUE(original.ok());
  EXPECT_EQ(original.value().outputs.size(), 1u);
  ASSERT_TRUE(service.Answer(first, "a/b/c").ok());  // Memoized now.
  ASSERT_GT(service.stats().answer_cache_entries, 0u);
  ASSERT_TRUE(service.RemoveDocument(first).ok());
  // The dead document's memo entries are purged eagerly, not left to pin
  // their answer vectors until capacity pressure.
  EXPECT_EQ(service.stats().answer_cache_entries, 0u);

  DocumentId second = service.AddDocument(Doc("<a><b><c/><c/></b></a>"));
  ASSERT_EQ(second.slot, first.slot);  // Recycled.
  ServiceResult<Answer> fresh = service.Answer(second, "a/b/c");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh.value().outputs.size(), 2u);
  EXPECT_EQ(fresh.value().outputs,
            Eval(MustParseXPath("a/b/c"), *service.document(second)));
}

TEST(ServiceLifecycleTest, StaleHandleErrorCodeName) {
  EXPECT_STREQ(ToString(ServiceErrorCode::kStaleHandle), "stale_handle");
}

}  // namespace
}  // namespace xpv
