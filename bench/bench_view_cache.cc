// Experiment C5 (Section 2.4 / Prop 2.4): answering queries from
// materialized views.
//
// Verifies the end-to-end identity R(V(t)) = P(t) on generated documents,
// then measures the payoff the paper's introduction motivates: once V(t)
// is materialized, answering P through the rewriting touches only the view
// results, which is much cheaper than evaluating P over the full document
// when |V(t)| << |t|.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_util.h"
#include "containment/oracle.h"
#include "eval/evaluator.h"
#include "pattern/algebra.h"
#include "pattern/xpath_parser.h"
#include "rewrite/engine.h"
#include "views/view_cache.h"
#include "xml/tree.h"

namespace xpv {
namespace {

/// A document shaped like a library catalogue: a small `lib/section/book`
/// region embedded in a large amount of unrelated content.
Tree CatalogueDoc(int noise_nodes, int books) {
  Tree doc(L("lib"));
  NodeId section = doc.AddChild(doc.root(), L("section"));
  for (int i = 0; i < books; ++i) {
    NodeId book = doc.AddChild(section, L("book"));
    NodeId title = doc.AddChild(book, L("title"));
    doc.AddChild(title, L("text"));
    doc.AddChild(book, L("author"));
  }
  // Noise: deep unrelated subtrees.
  NodeId misc = doc.AddChild(doc.root(), L("misc"));
  NodeId cur = misc;
  for (int i = 0; i < noise_nodes; ++i) {
    cur = doc.AddChild(cur, L(i % 3 == 0 ? "x" : (i % 3 == 1 ? "y" : "z")));
    if (i % 7 == 0) cur = misc;
  }
  return doc;
}

void VerifyIdentity() {
  Tree doc = CatalogueDoc(500, 50);
  Pattern v = MustParseXPath("lib/section/book");
  Pattern p = MustParseXPath("lib/section/book/title");
  MaterializedView view({"books", v}, doc);
  RewriteResult rewrite = DecideRewrite(p, v);
  if (rewrite.status != RewriteStatus::kFound) std::abort();
  std::vector<NodeId> via_view = view.Apply(rewrite.rewriting);
  std::vector<NodeId> direct = Eval(p, doc);
  if (via_view != direct) std::abort();
  std::printf("C5 check: R(V(t)) = P(t) on a %d-node document (%zu "
              "results)\n", doc.size(), direct.size());
}

void BM_DirectEvaluation(benchmark::State& state) {
  Tree doc = CatalogueDoc(static_cast<int>(state.range(0)), 64);
  Pattern p = MustParseXPath("lib/section/book/title");
  for (auto _ : state) {
    std::vector<NodeId> out = Eval(p, doc);
    benchmark::DoNotOptimize(out.size());
  }
  state.counters["doc_nodes"] = doc.size();
}
BENCHMARK(BM_DirectEvaluation)
    ->RangeMultiplier(4)
    ->Range(1024, 65536);

/// Answering through the materialized view: the rewriting is applied to the
/// copied view results only (a shipped-results cache), independent of the
/// noise size.
void BM_AnswerFromMaterializedCopies(benchmark::State& state) {
  Tree doc = CatalogueDoc(static_cast<int>(state.range(0)), 64);
  Pattern v = MustParseXPath("lib/section/book");
  Pattern p = MustParseXPath("lib/section/book/title");
  MaterializedView view({"books", v}, doc);
  std::vector<Tree> copies = view.MaterializeCopies();
  RewriteResult rewrite = DecideRewrite(p, v);
  if (rewrite.status != RewriteStatus::kFound) std::abort();
  const Pattern& r = rewrite.rewriting;
  for (auto _ : state) {
    size_t results = 0;
    for (const Tree& t : copies) results += Eval(r, t).size();
    benchmark::DoNotOptimize(results);
  }
  state.counters["doc_nodes"] = doc.size();
  state.counters["view_results"] = static_cast<double>(copies.size());
}
BENCHMARK(BM_AnswerFromMaterializedCopies)
    ->RangeMultiplier(4)
    ->Range(1024, 65536);

/// Full cache pipeline including the rewrite decision per query.
void BM_CachePipeline(benchmark::State& state) {
  Tree doc = CatalogueDoc(8192, 64);
  ViewCache cache(doc);
  cache.AddView({"books", MustParseXPath("lib/section/book")});
  Pattern queries[] = {
      MustParseXPath("lib/section/book/title"),
      MustParseXPath("lib/section/book/author"),
      MustParseXPath("lib/section/book//text"),
      MustParseXPath("lib/misc/x"),  // Miss.
  };
  // One one-query plan per call, as `Service::Answer` runs on a memo miss.
  SynchronizedOracle oracle;
  size_t i = 0;
  for (auto _ : state) {
    const Pattern& query = queries[i++ % 4];
    const SelectionSummary summary = SummarizeSelection(query);
    std::vector<PlannedAnswer> answer =
        cache.Execute({PlannedQuery{&query, &summary}}, 1, nullptr, &oracle);
    benchmark::DoNotOptimize(answer[0].answer.outputs.size());
  }
}
BENCHMARK(BM_CachePipeline);

}  // namespace
}  // namespace xpv

int main(int argc, char** argv) {
  xpv::benchutil::PrintHeader(
      "C5", "materialized-view answering (Section 2.4, Prop 2.4)",
      "Claims: R(V(t)) = P(t); answering via the view is insensitive to "
      "document regions outside the view.");
  xpv::VerifyIdentity();
  xpv::benchutil::InitWithJsonOutput(argc, argv, "BENCH_view_cache.json");
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
