// The multi-document serving facade: handle interning, Result-typed
// failure paths (nothing aborts on user input), and the cross-document
// batch pipeline. Answers against the reference evaluator are checked in
// execute_differential_test.cc.

#include "api/service.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "containment/oracle.h"
#include "eval/evaluator.h"
#include "pattern/xpath_parser.h"
#include "plan_util.h"
#include "views/view_cache.h"
#include "xml/xml_parser.h"

namespace xpv {
namespace {

Tree Doc(const char* xml) {
  auto result = ParseXml(xml);
  EXPECT_TRUE(result.ok()) << result.error();
  return result.take();
}

TEST(ServiceTest, AddDocumentFromXmlAndAnswer) {
  Service service;
  ServiceResult<DocumentId> doc =
      service.AddDocument("<a><b><c/><c/></b><b/></a>");
  ASSERT_TRUE(doc.ok()) << doc.error().message;
  EXPECT_TRUE(doc.value().valid());
  EXPECT_EQ(service.num_documents(), 1);

  ServiceResult<ViewId> view = service.AddView(doc.value(), "b-view", "a/b");
  ASSERT_TRUE(view.ok()) << view.error().message;
  EXPECT_TRUE(view.value().valid());
  EXPECT_EQ(service.view(view.value())->name, "b-view");

  ServiceResult<Answer> answer = service.Answer(doc.value(), "a/b/c");
  ASSERT_TRUE(answer.ok()) << answer.error().message;
  EXPECT_TRUE(answer.value().hit);
  EXPECT_EQ(answer.value().view_name, "b-view");
  EXPECT_EQ(answer.value().outputs,
            Eval(MustParseXPath("a/b/c"), *service.document(doc.value())));
}

TEST(ServiceTest, MalformedXmlDocumentIsAParseError) {
  Service service;
  ServiceResult<DocumentId> doc = service.AddDocument("<a><b></a>");
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(doc.error().code, ServiceErrorCode::kParseError);
  EXPECT_EQ(service.num_documents(), 0);
  EXPECT_EQ(service.stats().failed_requests, 1u);
}

TEST(ServiceTest, MalformedViewXPathCarriesOffset) {
  Service service;
  DocumentId doc = service.AddDocument(Doc("<a><b/></a>"));
  ServiceResult<ViewId> view = service.AddView(doc, "bad", "a[b//]");
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.error().code, ServiceErrorCode::kParseError);
  EXPECT_EQ(view.error().offset, 5);
  EXPECT_NE(view.error().message.find("position 5: expected step"),
            std::string::npos)
      << view.error().message;
  // The caret context line points at the offending byte.
  EXPECT_NE(view.error().message.find("a[b//]"), std::string::npos);
  EXPECT_EQ(service.num_views(doc), 0);
}

TEST(ServiceTest, DeeplyNestedQueryIsAParseErrorNotACrash) {
  // A 40 000-deep predicate nest must not overflow the parser's stack
  // inside Answer: it fails structurally at the '[' opening level 257.
  Service service;
  DocumentId doc = service.AddDocument(Doc("<a><b/></a>"));
  std::string query = "a";
  for (int i = 0; i < 40000; ++i) query += "[b";
  query.append(40000, ']');
  ServiceResult<Answer> answer = service.Answer(doc, query);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.error().code, ServiceErrorCode::kParseError);
  EXPECT_EQ(answer.error().offset, 1 + 2 * 256);
  EXPECT_EQ(service.stats().failed_requests, 1u);
}

TEST(ServiceTest, DuplicateViewNameIsRejected) {
  Service service;
  DocumentId doc = service.AddDocument(Doc("<a><b/><c/></a>"));
  ASSERT_TRUE(service.AddView(doc, "v", "a/b").ok());
  ServiceResult<ViewId> dup = service.AddView(doc, "v", "a/c");
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.error().code, ServiceErrorCode::kDuplicateViewName);
  EXPECT_EQ(service.num_views(doc), 1);
  // The same name is fine on a different document.
  DocumentId other = service.AddDocument(Doc("<a><b/></a>"));
  EXPECT_TRUE(service.AddView(other, "v", "a/b").ok());
}

TEST(ServiceTest, UnknownDocumentIsRejected) {
  Service service;
  DocumentId real = service.AddDocument(Doc("<a><b/></a>"));
  DocumentId bogus{7};
  ServiceResult<ViewId> view = service.AddView(bogus, "v", "a/b");
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.error().code, ServiceErrorCode::kUnknownDocument);

  ServiceResult<Answer> answer = service.Answer(bogus, "a/b");
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.error().code, ServiceErrorCode::kUnknownDocument);

  EXPECT_EQ(service.document(bogus), nullptr);
  EXPECT_EQ(service.document(DocumentId{}), nullptr);
  EXPECT_NE(service.document(real), nullptr);
}

TEST(ServiceTest, EmptyViewPatternIsRejected) {
  Service service;
  DocumentId doc = service.AddDocument(Doc("<a/>"));
  ServiceResult<ViewId> view = service.AddView(doc, "v", Pattern::Empty());
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.error().code, ServiceErrorCode::kEmptyPattern);
}

TEST(ServiceTest, EmptyPatternQueryAnswersLikeViewCache) {
  // Υ selects nothing; the facade answers it as an empty miss instead of
  // erroring, so pattern-level callers keep the same semantics.
  Service service;
  DocumentId doc = service.AddDocument(Doc("<a><b/></a>"));
  ServiceResult<Answer> answer = service.Answer(doc, Pattern::Empty());
  ASSERT_TRUE(answer.ok());
  EXPECT_FALSE(answer.value().hit);
  EXPECT_TRUE(answer.value().outputs.empty());
}

TEST(ServiceTest, AnswerEquivalentToDirectViewCachePerDocument) {
  const char* xml =
      "<a><b><c/><c><d/></c></b><b><c/><e/></b><x><b><c/></b><y/></x></a>";
  const char* views[][2] = {{"v0", "a/b"}, {"v1", "a/x"}};
  const char* queries[] = {"a/b/c",  "a/b",   "a//b/c", "a/x/y",
                           "a/b[e]", "a/q/r", "a/b/c/d"};

  Service service;
  DocumentId doc = service.AddDocument(Doc(xml));
  Tree direct_doc = Doc(xml);
  ViewCache direct(direct_doc);
  for (const auto& [name, view] : views) {
    ASSERT_TRUE(service.AddView(doc, name, view).ok());
    direct.AddView({name, MustParseXPath(view)});
  }
  SynchronizedOracle oracle;
  CacheStats direct_stats;
  for (const char* query : queries) {
    ServiceResult<Answer> answer = service.Answer(doc, query);
    ASSERT_TRUE(answer.ok()) << query;
    CacheAnswer expected = testutil::AnswerOne(direct, MustParseXPath(query),
                                               &oracle, &direct_stats);
    EXPECT_EQ(answer.value().hit, expected.hit) << query;
    EXPECT_EQ(answer.value().view_name, expected.view_name) << query;
    EXPECT_EQ(answer.value().outputs, expected.outputs) << query;
    EXPECT_EQ(answer.value().rewriting.CanonicalEncoding(),
              expected.rewriting.CanonicalEncoding())
        << query;
  }
  EXPECT_EQ(service.stats().queries, direct_stats.queries);
  EXPECT_EQ(service.stats().hits, direct_stats.hits);
}

TEST(ServiceTest, BatchFailedSlotsDoNotDisturbTheOthers) {
  Service service;
  DocumentId doc = service.AddDocument(Doc("<a><b><c/></b></a>"));
  ASSERT_TRUE(service.AddView(doc, "v", "a/b").ok());
  std::vector<BatchItem> items = {
      {doc, "a/b/c"},
      {doc, "a[b//"},     // Malformed: fails alone.
      {DocumentId{42}, "a/b"},  // Unknown document: fails alone.
      {doc, "a/b"},
  };
  ServiceResult<BatchAnswers> batch = service.AnswerBatch(items, 2);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch.value().size(), items.size());

  EXPECT_TRUE(batch.value().answers[0].ok());
  EXPECT_TRUE(batch.value().answers[0].value().hit);

  ASSERT_FALSE(batch.value().answers[1].ok());
  EXPECT_EQ(batch.value().answers[1].error().code,
            ServiceErrorCode::kParseError);
  EXPECT_GE(batch.value().answers[1].error().offset, 0);

  ASSERT_FALSE(batch.value().answers[2].ok());
  EXPECT_EQ(batch.value().answers[2].error().code,
            ServiceErrorCode::kUnknownDocument);

  EXPECT_TRUE(batch.value().answers[3].ok());
  EXPECT_TRUE(batch.value().answers[3].value().hit);

  EXPECT_EQ(service.stats().failed_requests, 2u);
  EXPECT_EQ(service.stats().queries, 2u);
}

TEST(ServiceTest, SharedOracleAmortizesAcrossDocuments) {
  // Two documents with the same view/query shapes: the second document's
  // equivalence tests must be answered from the shared oracle (its miss
  // count does not grow).
  Service service;
  DocumentId d1 = service.AddDocument(Doc("<a><b><c/></b></a>"));
  DocumentId d2 = service.AddDocument(Doc("<a><b><c/><c/></b><b/></a>"));
  ASSERT_TRUE(service.AddView(d1, "v", "a/b").ok());
  ASSERT_TRUE(service.AddView(d2, "v", "a/b").ok());

  ASSERT_TRUE(service.Answer(d1, "a/b/c").ok());
  const uint64_t misses_after_first = service.oracle().misses();
  ServiceResult<Answer> second = service.Answer(d2, "a/b/c");
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().hit);
  EXPECT_EQ(service.oracle().misses(), misses_after_first);
  EXPECT_GT(service.oracle().hits(), 0u);
}

TEST(ServiceTest, QueriesDeduplicateByCanonicalFingerprint) {
  // Textually different XPaths with isomorphic patterns are answered as
  // one distinct query by the batch pipeline.
  Service service;
  DocumentId doc = service.AddDocument(Doc("<a><b><c/></b><b><d/></b></a>"));
  ASSERT_TRUE(service.AddView(doc, "v", "a/b").ok());
  std::vector<BatchItem> items = {
      {doc, "a[b/c]/b"},
      {doc, " a [ b / c ] / b "},  // Same pattern, different spelling.
      {doc, Query(MustParseXPath("a[b/c]/b"))},
  };
  ServiceResult<BatchAnswers> batch = service.AnswerBatch(items, 1);
  ASSERT_TRUE(batch.ok());
  for (const auto& slot : batch.value().answers) {
    ASSERT_TRUE(slot.ok());
    EXPECT_EQ(slot.value().outputs,
              batch.value().answers[0].value().outputs);
  }
  // Three requests counted, one scan performed: hits/misses accrued once.
  EXPECT_EQ(service.stats().queries, 3u);
  ASSERT_NE(service.cache(doc), nullptr);
  EXPECT_EQ(service.cache(doc)->num_active_views(), 1);
}

TEST(ServiceTest, NullCStringQueryIsAParseErrorNotUB) {
  Service service;
  DocumentId doc = service.AddDocument(Doc("<a><b/></a>"));
  const char* null_xpath = nullptr;
  ServiceResult<Answer> answer = service.Answer(doc, null_xpath);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.error().code, ServiceErrorCode::kParseError);
}

TEST(ServiceTest, HugeWorkerCountIsCappedNotFatal) {
  // The shard partition depends on num_workers, but the thread pool is
  // capped by the hardware — an absurd request must neither spawn that
  // many threads nor change the answers.
  Service service;
  DocumentId doc = service.AddDocument(Doc("<a><b><c/></b><b><d/></b></a>"));
  ASSERT_TRUE(service.AddView(doc, "v", "a/b").ok());
  std::vector<BatchItem> items = {
      {doc, "a/b/c"}, {doc, "a/b/d"}, {doc, "a/b"}};
  ServiceResult<BatchAnswers> batch = service.AnswerBatch(items, 1 << 20);
  ASSERT_TRUE(batch.ok());
  for (size_t i = 0; i < items.size(); ++i) {
    ASSERT_TRUE(batch.value().answers[i].ok()) << i;
    ServiceResult<Answer> single =
        service.Answer(doc, items[i].query);
    ASSERT_TRUE(single.ok()) << i;
    EXPECT_EQ(batch.value().answers[i].value().outputs,
              single.value().outputs)
        << i;
  }
}

TEST(ServiceTest, RepeatedBatchesAnswerFromTheMemoIdentically) {
  // The acceptance bar of the batch-planner issue: the memoized/deduped
  // AnswerBatch must return answers AND serving stats identical to the
  // unmemoized pipeline, for 1/2/4 workers — while repeated batches
  // actually hit the memo.
  const char* xmls[] = {
      "<a><b><c/><c><d/></c></b><b><e/></b></a>",
      "<a><b><c/></b><x><b><c/></b></x></a>",
      "<a><b/><b><c/></b></a>",
  };
  const char* queries[] = {"a/b/c", "a/b", "a//b/c", "a/b/c", "q/z"};

  for (int workers : {1, 2, 4}) {
    SCOPED_TRACE(workers);
    Service memoized;  // Default: answer memo on.
    ServiceOptions off;
    off.answer_cache_capacity = 0;  // The unmemoized baseline.
    Service baseline(off);
    std::vector<DocumentId> mids, bids;
    for (const char* xml : xmls) {
      mids.push_back(memoized.AddDocument(Doc(xml)));
      bids.push_back(baseline.AddDocument(Doc(xml)));
      ASSERT_TRUE(memoized.AddView(mids.back(), "v", "a/b").ok());
      ASSERT_TRUE(baseline.AddView(bids.back(), "v", "a/b").ok());
    }
    // Every query over every document — the cross-document dedup regime.
    std::vector<BatchItem> mitems, bitems;
    for (size_t d = 0; d < mids.size(); ++d) {
      for (const char* q : queries) {
        mitems.push_back({mids[d], q});
        bitems.push_back({bids[d], q});
      }
    }

    for (int round = 0; round < 3; ++round) {
      SCOPED_TRACE(round);
      ServiceResult<BatchAnswers> got = memoized.AnswerBatch(mitems, workers);
      ServiceResult<BatchAnswers> want = baseline.AnswerBatch(bitems, workers);
      ASSERT_TRUE(got.ok());
      ASSERT_TRUE(want.ok());
      ASSERT_EQ(got.value().size(), want.value().size());
      for (size_t i = 0; i < got.value().size(); ++i) {
        ASSERT_TRUE(got.value().answers[i].ok()) << i;
        ASSERT_TRUE(want.value().answers[i].ok()) << i;
        const Answer& g = got.value().answers[i].value();
        const Answer& w = want.value().answers[i].value();
        EXPECT_EQ(g.hit, w.hit) << i;
        EXPECT_EQ(g.view_name, w.view_name) << i;
        EXPECT_EQ(g.outputs, w.outputs) << i;
        EXPECT_EQ(g.rewriting.CanonicalEncoding(),
                  w.rewriting.CanonicalEncoding())
            << i;
      }
      // Serving counters are memo-invariant: hits replay the stored scan's
      // delta, so the two services agree query for query.
      EXPECT_EQ(memoized.stats().queries, baseline.stats().queries);
      EXPECT_EQ(memoized.stats().hits, baseline.stats().hits);
      EXPECT_EQ(memoized.stats().rewrite_unknown,
                baseline.stats().rewrite_unknown);
    }
    // The memo worked: repeated batches hit, the baseline never does.
    EXPECT_GT(memoized.stats().answer_cache_hits, 0u);
    EXPECT_GT(memoized.stats().answer_cache_entries, 0u);
    EXPECT_EQ(baseline.stats().answer_cache_hits, 0u);
    EXPECT_EQ(baseline.stats().answer_cache_entries, 0u);
  }
}

TEST(ServiceTest, SingleAnswersShareTheMemoWithBatches) {
  // Answer and AnswerBatch key the same memo: a batch fills it, a single
  // repeat of one of its queries hits without a new scan (and both paths
  // replay identical serving stats).
  Service service;
  DocumentId doc = service.AddDocument(Doc("<a><b><c/></b></a>"));
  ASSERT_TRUE(service.AddView(doc, "v", "a/b").ok());
  std::vector<BatchItem> items = {{doc, "a/b/c"}, {doc, "a/b"}};
  ASSERT_TRUE(service.AnswerBatch(items, 1).ok());
  const uint64_t hits_before = service.stats().answer_cache_hits;
  const uint64_t oracle_misses_before = service.stats().oracle_misses;

  ServiceResult<Answer> repeat = service.Answer(doc, "a/b/c");
  ASSERT_TRUE(repeat.ok());
  EXPECT_TRUE(repeat.value().hit);
  EXPECT_GT(service.stats().answer_cache_hits, hits_before);
  // A memo hit runs no equivalence tests at all.
  EXPECT_EQ(service.stats().oracle_misses, oracle_misses_before);
  EXPECT_EQ(service.stats().queries, items.size() + 1);
}

TEST(ServiceTest, MemoInvalidatesOnViewAndDocumentMutations) {
  // The epoch contract: AddView/RemoveView/ReplaceDocument each bump the
  // document's epoch, so memoized answers from before the mutation are
  // unreachable — answers always reflect the current view set/document.
  Service service;
  DocumentId doc = service.AddDocument(Doc("<a><b><c/></b></a>"));
  ServiceResult<Answer> miss = service.Answer(doc, "a/b/c");
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss.value().hit);
  ASSERT_TRUE(service.Answer(doc, "a/b/c").ok());  // Memoize the miss.

  // AddView: the same query must now answer through the view.
  ServiceResult<ViewId> view = service.AddView(doc, "v", "a/b");
  ASSERT_TRUE(view.ok());
  ServiceResult<Answer> hit = service.Answer(doc, "a/b/c");
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit.value().hit);
  EXPECT_EQ(hit.value().outputs, miss.value().outputs);

  // RemoveView: back to a direct-evaluation miss, not the stale hit.
  ASSERT_TRUE(service.RemoveView(view.value()).ok());
  ServiceResult<Answer> miss_again = service.Answer(doc, "a/b/c");
  ASSERT_TRUE(miss_again.ok());
  EXPECT_FALSE(miss_again.value().hit);
  EXPECT_EQ(miss_again.value().outputs, miss.value().outputs);

  // ReplaceDocument: outputs must track the new tree immediately.
  ASSERT_TRUE(
      service.ReplaceDocument(doc, Doc("<a><b><c/><c/></b></a>")).ok());
  ServiceResult<Answer> replaced = service.Answer(doc, "a/b/c");
  ASSERT_TRUE(replaced.ok());
  EXPECT_EQ(replaced.value().outputs.size(), 2u);
  EXPECT_EQ(replaced.value().outputs,
            Eval(MustParseXPath("a/b/c"), *service.document(doc)));
}

TEST(ServiceTest, ServiceIsMovable) {
  Service service;
  DocumentId doc = service.AddDocument(Doc("<a><b><c/></b></a>"));
  ASSERT_TRUE(service.AddView(doc, "v", "a/b").ok());

  Service moved = std::move(service);
  ServiceResult<Answer> answer = moved.Answer(doc, "a/b/c");
  ASSERT_TRUE(answer.ok());
  EXPECT_TRUE(answer.value().hit);
}

TEST(ServiceTest, ErrorCodeNames) {
  EXPECT_STREQ(ToString(ServiceErrorCode::kParseError), "parse_error");
  EXPECT_STREQ(ToString(ServiceErrorCode::kUnknownDocument),
               "unknown_document");
  EXPECT_STREQ(ToString(ServiceErrorCode::kDuplicateViewName),
               "duplicate_view_name");
  EXPECT_STREQ(ToString(ServiceErrorCode::kEmptyPattern), "empty_pattern");
}

}  // namespace
}  // namespace xpv
