// Experiment C11: the batched answering pipeline.
//
// Measures ViewCache::Execute on a whole batch plan — view-pruning index,
// shared candidate bundles, duplicate folding and the worker-parallel
// oracle shards — against a loop of one-query plans on cache-style
// traffic (a hot set of repeated queries over materialized views, plus
// misses). The tracked claim: batches of >= 64 queries answer at >= 2x
// the throughput of the one-query loop.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/service.h"
#include "bench_util.h"
#include "containment/oracle.h"
#include "pattern/xpath_parser.h"
#include "util/thread_pool.h"
#include "views/view_cache.h"
#include "xml/tree.h"

namespace xpv {
namespace {

/// A catalogue document: two small structured regions (books, journal
/// articles) embedded in a large amount of unrelated content — the regime
/// where answering from materialized views pays.
Tree CatalogueDoc(int noise_nodes, int entries) {
  Tree doc(L("lib"));
  NodeId section = doc.AddChild(doc.root(), L("section"));
  for (int i = 0; i < entries; ++i) {
    NodeId book = doc.AddChild(section, L("book"));
    NodeId title = doc.AddChild(book, L("title"));
    doc.AddChild(title, L("text"));
    doc.AddChild(book, L("author"));
  }
  NodeId journal = doc.AddChild(doc.root(), L("journal"));
  for (int i = 0; i < entries / 2; ++i) {
    NodeId article = doc.AddChild(journal, L("article"));
    doc.AddChild(article, L("title"));
    doc.AddChild(article, L("ref"));
  }
  NodeId misc = doc.AddChild(doc.root(), L("misc"));
  NodeId cur = misc;
  for (int i = 0; i < noise_nodes; ++i) {
    cur = doc.AddChild(cur, L(i % 3 == 0 ? "x" : (i % 3 == 1 ? "y" : "z")));
    if (i % 7 == 0) cur = misc;
  }
  return doc;
}

std::vector<ViewDefinition> CatalogueViews() {
  return {
      {"books", MustParseXPath("lib/section/book")},
      {"articles", MustParseXPath("lib/journal/article")},
  };
}

/// The distinct query pool: 12 view-answerable queries and 4 misses that
/// fall back to full-document evaluation.
std::vector<Pattern> QueryPool() {
  return {
      MustParseXPath("lib/section/book/title"),        // Hot.
      MustParseXPath("lib/section/book/author"),       // Hot.
      MustParseXPath("lib/journal/article/title"),     // Hot.
      MustParseXPath("lib/section/book//text"),        // Hot.
      MustParseXPath("lib/section/book"),
      MustParseXPath("lib/section/book/title/text"),
      MustParseXPath("lib/section/book[author]/title"),
      MustParseXPath("lib/journal/article/ref"),
      MustParseXPath("lib/journal/article//title"),
      MustParseXPath("lib/journal/article"),
      MustParseXPath("lib/section/book[title]/author"),
      MustParseXPath("lib/section/book/*"),
      MustParseXPath("lib/misc/x"),    // Miss.
      MustParseXPath("lib/misc/x/y"),  // Miss.
      MustParseXPath("lib/misc//z"),   // Miss.
      MustParseXPath("lib/*/nothing"), // Miss.
  };
}

/// Cache-style traffic: 75% of the batch cycles over the four hot queries,
/// the rest walks the whole pool. Deterministic.
std::vector<Pattern> Traffic(int batch_size) {
  std::vector<Pattern> pool = QueryPool();
  std::vector<Pattern> batch;
  batch.reserve(static_cast<size_t>(batch_size));
  for (int i = 0; i < batch_size; ++i) {
    // 3 of every 4 slots rotate uniformly over the 4 hot queries (the
    // i/4 shift keeps all four in rotation); the 4th slot walks the pool.
    const size_t pick = (i % 4 != 3)
                            ? static_cast<size_t>(i + i / 4) % 4
                            : static_cast<size_t>(i / 4) % pool.size();
    batch.push_back(pool[pick]);
  }
  return batch;
}

/// Answers `batch` through ONE plan, the way `Service::AnswerBatch` does
/// for a document slice: one entry per distinct canonical fingerprint,
/// `Execute` over `workers` shards, then the fan-out to request order.
std::vector<CacheAnswer> AnswerBatch(const ViewCache& cache,
                                     const std::vector<Pattern>& batch,
                                     int workers, ThreadPool* pool,
                                     SynchronizedOracle* oracle) {
  std::deque<SelectionSummary> summaries;
  std::vector<PlannedQuery> plan;
  std::vector<size_t> entry_of;
  std::unordered_map<uint64_t, size_t> by_fingerprint;
  for (const Pattern& query : batch) {
    auto [it, inserted] =
        by_fingerprint.try_emplace(query.CanonicalFingerprint(), plan.size());
    if (inserted) {
      summaries.push_back(SummarizeSelection(query));
      plan.push_back(PlannedQuery{&query, &summaries.back()});
    }
    entry_of.push_back(it->second);
  }
  std::vector<PlannedAnswer> planned =
      cache.Execute(plan, workers, pool, oracle);
  std::vector<CacheAnswer> answers;
  answers.reserve(batch.size());
  for (size_t e : entry_of) answers.push_back(planned[e].answer);
  return answers;
}

/// Answers one query through a one-entry plan, the way `Service::Answer`
/// does on a memo miss.
CacheAnswer AnswerOne(const ViewCache& cache, const Pattern& query,
                      SynchronizedOracle* oracle) {
  const SelectionSummary summary = SummarizeSelection(query);
  return std::move(
      cache.Execute({PlannedQuery{&query, &summary}}, 1, nullptr, oracle)[0]
          .answer);
}

/// A pool for `workers` > 1, none otherwise (Execute then runs inline).
std::unique_ptr<ThreadPool> PoolFor(int workers) {
  return workers > 1 ? std::make_unique<ThreadPool>(workers) : nullptr;
}

void VerifyBatchIdentity() {
  Tree doc = CatalogueDoc(2048, 32);
  ViewCache cache(doc);
  for (const ViewDefinition& view : CatalogueViews()) cache.AddView(view);
  std::vector<Pattern> batch = Traffic(64);
  std::unique_ptr<ThreadPool> pool = PoolFor(4);
  SynchronizedOracle batch_oracle;
  std::vector<CacheAnswer> answers =
      AnswerBatch(cache, batch, 4, pool.get(), &batch_oracle);
  SynchronizedOracle loop_oracle;
  size_t hits = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    CacheAnswer expected = AnswerOne(cache, batch[i], &loop_oracle);
    if (answers[i].hit != expected.hit ||
        answers[i].outputs != expected.outputs) {
      std::abort();
    }
    if (answers[i].hit) ++hits;
  }
  std::printf(
      "C11 check: one 64-query plan (4 workers) == loop of one-query plans "
      "(%zu view hits)\n",
      hits);
}

/// The sequential path: one one-query plan per query.
void BM_AnswerSequentialLoop(benchmark::State& state) {
  Tree doc = CatalogueDoc(8192, 64);
  ViewCache cache(doc);
  for (const ViewDefinition& view : CatalogueViews()) cache.AddView(view);
  std::vector<Pattern> batch = Traffic(static_cast<int>(state.range(0)));
  SynchronizedOracle oracle;
  for (auto _ : state) {
    size_t outputs = 0;
    for (const Pattern& query : batch) {
      outputs += AnswerOne(cache, query, &oracle).outputs.size();
    }
    benchmark::DoNotOptimize(outputs);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch.size()));
}
BENCHMARK(BM_AnswerSequentialLoop)->Arg(64)->Arg(256)->UseRealTime();

/// The batched path: the whole batch as one plan.
void BM_AnswerManyBatch(benchmark::State& state) {
  Tree doc = CatalogueDoc(8192, 64);
  ViewCache cache(doc);
  for (const ViewDefinition& view : CatalogueViews()) cache.AddView(view);
  std::vector<Pattern> batch = Traffic(static_cast<int>(state.range(0)));
  const int workers = static_cast<int>(state.range(1));
  std::unique_ptr<ThreadPool> pool = PoolFor(workers);
  SynchronizedOracle oracle;
  for (auto _ : state) {
    std::vector<CacheAnswer> answers =
        AnswerBatch(cache, batch, workers, pool.get(), &oracle);
    benchmark::DoNotOptimize(answers.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch.size()));
  state.counters["workers"] = workers;
}
// Wall-clock timing: with workers > 1 the work runs on pool threads whose
// CPU time Google Benchmark's per-process CPU clock does not attribute.
BENCHMARK(BM_AnswerManyBatch)
    ->ArgsProduct({{64, 256}, {1, 4}})
    ->ArgNames({"batch", "workers"})
    ->UseRealTime();

/// The Service-level batch planner on repeated multi-document traffic: the
/// same cross-document batch re-issued against one Service (memo=1, the
/// default epoch-keyed AnswerCache) vs. the unmemoized pipeline (memo=0).
/// The tracked claim: the memoized repeated batch reaches >= 1.5x the
/// unmemoized throughput (in practice far more — a warm batch answers
/// entirely from the memo without touching the rewrite engine).
void BM_ServiceRepeatedBatch(benchmark::State& state) {
  const int batch_size = static_cast<int>(state.range(0));
  const bool memo = state.range(1) != 0;
  constexpr int kDocs = 8;

  ServiceOptions options;
  if (!memo) options.answer_cache_capacity = 0;
  Service service(options);
  std::vector<DocumentId> docs;
  for (int d = 0; d < kDocs; ++d) {
    DocumentId id = service.AddDocument(CatalogueDoc(1024, 32));
    for (const ViewDefinition& view : CatalogueViews()) {
      if (!service.AddView(id, view.name, view.pattern).ok()) std::abort();
    }
    docs.push_back(id);
  }
  // Cache-style traffic fanned over the documents: the same query set
  // repeats on every document (the cross-document dedup regime).
  std::vector<Pattern> traffic = Traffic(batch_size);
  std::vector<BatchItem> items;
  items.reserve(traffic.size());
  for (size_t i = 0; i < traffic.size(); ++i) {
    items.push_back(
        {docs[i % docs.size()], Query(std::move(traffic[i]))});
  }

  for (auto _ : state) {
    ServiceResult<BatchAnswers> batch = service.AnswerBatch(items, 1);
    if (!batch.ok()) std::abort();
    benchmark::DoNotOptimize(batch.value().size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(items.size()));
  state.counters["memo"] = memo ? 1 : 0;
  state.counters["docs"] = kDocs;
}
BENCHMARK(BM_ServiceRepeatedBatch)
    ->ArgsProduct({{64, 256}, {0, 1}})
    ->ArgNames({"batch", "memo"})
    ->UseRealTime();

/// The deadline tax: the SAME repeated memoized batch as
/// BM_ServiceRepeatedBatch(memo=1) but every call carries a generous
/// (never-expiring) deadline through CallOptions — so the combined
/// cancel token exists and every cooperative poll point actually loads
/// it. The tracked claim: within noise of the deadline-free path (the
/// polls are amortized reads of one atomic).
void BM_ServiceBatchWithDeadline(benchmark::State& state) {
  const int batch_size = static_cast<int>(state.range(0));
  constexpr int kDocs = 8;
  Service service;
  std::vector<DocumentId> docs;
  for (int d = 0; d < kDocs; ++d) {
    DocumentId id = service.AddDocument(CatalogueDoc(1024, 32));
    for (const ViewDefinition& view : CatalogueViews()) {
      if (!service.AddView(id, view.name, view.pattern).ok()) std::abort();
    }
    docs.push_back(id);
  }
  std::vector<Pattern> traffic = Traffic(batch_size);
  std::vector<BatchItem> items;
  items.reserve(traffic.size());
  for (size_t i = 0; i < traffic.size(); ++i) {
    items.push_back({docs[i % docs.size()], Query(std::move(traffic[i]))});
  }

  for (auto _ : state) {
    CallOptions call;
    call.num_workers = 1;
    call.deadline =
        std::chrono::steady_clock::now() + std::chrono::hours(1);
    ServiceResult<BatchAnswers> batch = service.AnswerBatch(items, call);
    if (!batch.ok()) std::abort();
    benchmark::DoNotOptimize(batch.value().size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(items.size()));
  state.counters["docs"] = kDocs;
}
BENCHMARK(BM_ServiceBatchWithDeadline)->Arg(64)->Arg(256)->UseRealTime();

/// The cold floor: every iteration answers the batch through a FRESH
/// Service — empty containment oracle, answer memo disabled — so nothing
/// is amortized across iterations. The containment DP, the rewrite
/// pipeline, and the evaluator all run from scratch on every batch. This
/// is the path the SIMD bit kernel, the arena scratch, and the banked
/// candidate bundles attack; Service construction, view materialization
/// and the teardown of the Service, the items and the result are excluded
/// from the timed region.
void BM_ColdAnswerBatch(benchmark::State& state) {
  const int batch_size = static_cast<int>(state.range(0));
  constexpr int kDocs = 8;
  ServiceOptions options;
  options.answer_cache_capacity = 0;  // Cold by construction: no memo.
  std::vector<Pattern> traffic = Traffic(batch_size);

  for (auto _ : state) {
    state.PauseTiming();
    {
      Service service(options);
      std::vector<DocumentId> docs;
      for (int d = 0; d < kDocs; ++d) {
        DocumentId id = service.AddDocument(CatalogueDoc(1024, 32));
        for (const ViewDefinition& view : CatalogueViews()) {
          if (!service.AddView(id, view.name, view.pattern).ok()) {
            std::abort();
          }
        }
        docs.push_back(id);
      }
      std::vector<BatchItem> items;
      items.reserve(traffic.size());
      for (size_t i = 0; i < traffic.size(); ++i) {
        items.push_back({docs[i % docs.size()], Query(traffic[i])});
      }
      state.ResumeTiming();
      ServiceResult<BatchAnswers> batch = service.AnswerBatch(items, 1);
      state.PauseTiming();
      if (!batch.ok()) std::abort();
      benchmark::DoNotOptimize(batch.value().size());
    }  // The result, the items and the Service die untimed.
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * batch_size);
  state.counters["docs"] = kDocs;
}
BENCHMARK(BM_ColdAnswerBatch)->Arg(64)->Arg(256)->UseRealTime();

/// The PR-9 update regime: a write-heavy loop of small deltas, each
/// followed by re-answering the hot queries. incremental=1 goes through
/// `UpdateDocument` (views spliced or proven untouched, memo preserved
/// via per-view epochs); incremental=0 is the pre-PR-9 equivalent —
/// `ReplaceDocument` with the post-delta tree plus re-`AddView`, which
/// re-materializes every view and orphans the whole answer memo. The
/// deltas land in the noise region (labels disjoint from both views), so
/// the incremental path proves the views untouched and the re-answers
/// replay as memo hits. The tracked claim: incremental=1 sustains >= 3x
/// the items/s of incremental=0.
void BM_UpdateHeavyBatch(benchmark::State& state) {
  const bool incremental = state.range(0) != 0;
  Service service;
  DocumentId doc = service.AddDocument(CatalogueDoc(4096, 32));
  for (const ViewDefinition& view : CatalogueViews()) {
    if (!service.AddView(doc, view.name, view.pattern).ok()) std::abort();
  }
  // The replace twin mutates its own shadow tree with the same deltas and
  // ships the result wholesale.
  Tree shadow = CatalogueDoc(4096, 32);
  NodeId misc = kNoNode;
  for (NodeId n = 0; n < shadow.size(); ++n) {
    if (shadow.label(n) == L("misc")) misc = n;
  }
  if (misc == kNoNode) std::abort();

  const std::vector<Pattern> hot = {
      MustParseXPath("lib/section/book/title"),
      MustParseXPath("lib/section/book/author"),
      MustParseXPath("lib/journal/article/title"),
      MustParseXPath("lib/journal/article/ref"),
  };
  // Warm the memo so the incremental path starts from the steady state.
  for (const Pattern& q : hot) {
    if (!service.Answer(doc, Query(q)).ok()) std::abort();
  }

  int flip = 0;
  for (auto _ : state) {
    // One small delta: graft a 2-node noise subtree under <misc> and
    // relabel one noise node. Insert-only, so node ids stay stable and
    // the memo survives compaction-free.
    Tree graft(L("x"));
    graft.AddChild(graft.root(), L("y"));
    DocumentDelta delta;
    delta.InsertSubtree(misc, std::move(graft));
    delta.Relabel(misc + 1, L(++flip % 2 == 0 ? "y" : "z"));

    if (incremental) {
      if (!service.UpdateDocument(doc, std::move(delta)).ok()) std::abort();
    } else {
      (void)shadow.ApplyDelta(delta);  // discard: shadow-tree bookkeeping; the report is unused on the replace arm
      if (!service.ReplaceDocument(doc, shadow).ok()) std::abort();
      for (const ViewDefinition& view : CatalogueViews()) {
        if (!service.AddView(doc, view.name, view.pattern).ok()) std::abort();
      }
    }
    size_t outputs = 0;
    for (const Pattern& q : hot) {
      ServiceResult<Answer> answer = service.Answer(doc, Query(q));
      if (!answer.ok()) std::abort();
      outputs += answer.value().outputs.size();
    }
    benchmark::DoNotOptimize(outputs);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(1 + hot.size()));
  ServiceStats stats = service.stats();
  state.counters["incremental"] = incremental ? 1 : 0;
  state.counters["memo_hits"] = static_cast<double>(stats.answer_cache_hits);
  state.counters["views_untouched"] =
      static_cast<double>(stats.update_views_untouched);
}
BENCHMARK(BM_UpdateHeavyBatch)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"incremental"})
    ->UseRealTime();

}  // namespace
}  // namespace xpv

int main(int argc, char** argv) {
  xpv::benchutil::PrintHeader(
      "C11", "batched answering pipeline (index + bundles + worker shards)",
      "Claims: one batch plan equals the loop of one-query plans answer-"
      "for-answer and reaches >= 2x its throughput on batches of >= 64 "
      "queries; the Service batch planner's answer memo reaches >= 1.5x "
      "the unmemoized pipeline on repeated multi-document batches; the "
      "incremental update loop (UpdateDocument + re-answer) reaches >= 3x "
      "the ReplaceDocument-equivalent's throughput on small deltas.");
  xpv::VerifyBatchIdentity();
  xpv::benchutil::InitWithJsonOutput(argc, argv, "BENCH_answer_many.json");
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
