#include "stream.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <unordered_set>
#include <utility>

#include "containment/containment.h"
#include "pattern/serializer.h"
#include "rewrite/candidates.h"
#include "util/hash.h"
#include "util/rng.h"
#include "views/view_index.h"
#include "workload/generator.h"
#include "xml/label.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

namespace servebench {
namespace {

using xpv::DocumentDelta;
using xpv::GenLabel;
using xpv::Pattern;
using xpv::Rng;
using xpv::Tree;

// Workload shapes. Sizes are chosen so that one pass takes well under a
// second on a 4-core x86 host and a 20 s run measures many passes.
const WorkloadSpec kHotAnswer = [] {
  WorkloadSpec s;
  s.kind = Workload::kHotAnswer;
  s.name = "hot-answer";
  // One document per client on a 4-core host, so each has one writer in
  // update-mix. 4 x 192 = 768 (document, query) keys: well inside the
  // 8192-entry memo. Zipf 0.8 leaves update-mix reads mostly missing the
  // memo (about 1 in 5 hits), so its median is a miss, not the boundary
  // between hits and misses.
  s.documents = 4;
  s.doc_nodes = 1000;
  s.views_per_doc = 6;
  s.pool_queries = 192;
  s.zipf_s = 0.8;
  s.requests_per_client = 100000;
  s.latency_stride = 32;
  s.pass_seconds = 0.8;
  return s;
}();

const WorkloadSpec kColdBatch = [] {
  WorkloadSpec s;
  s.kind = Workload::kColdBatch;
  s.name = "cold-batch";
  s.documents = 8;
  s.doc_nodes = 1000;
  s.views_per_doc = 6;
  s.requests_per_client = 16;  // One client: 16 batches of 64 items.
  s.batch_items = 64;
  s.warmup_batches = 2;
  s.pass_seconds = 0.11;
  return s;
}();

const WorkloadSpec kUpdateMix = [] {
  WorkloadSpec s = kHotAnswer;
  s.kind = Workload::kUpdateMix;
  s.name = "update-mix";
  s.requests_per_client = 12000;
  s.write_fraction = 0.1;
  s.latency_stride = 8;
  s.pass_seconds = 0.45;
  return s;
}();

Rng SubRng(uint64_t seed, uint64_t tag, uint64_t a = 0, uint64_t b = 0) {
  uint64_t h = xpv::HashCombine64(xpv::Mix64(seed), tag);
  h = xpv::HashCombine64(h, a);
  return Rng(xpv::HashCombine64(h, b));
}

double Uniform01(Rng& rng) {
  return static_cast<double>(rng.Next() >> 11) * 0x1.0p-53;
}

// The containment test behind every rewrite decision enumerates up to
// ExpansionBound(P2)^(descendant edges of P1) canonical models and has no
// budget, so one unlucky (query, view) pair can run for minutes. A run
// must end in bounded time whatever the seed, so the generator keeps only
// pairs whose worst-case model count is at most `kMaxModels`. Heavy pairs
// up to that size (milliseconds each) stay in the stream and set
// cold-batch's tail; a higher cap made that tail depend on the seed.
constexpr double kMaxModels = 1 << 15;

int DescendantEdges(const Pattern& p) {
  int m = 0;
  for (xpv::NodeId n = 1; n < p.size(); ++n) {
    m += p.edge(n) == xpv::EdgeType::kDescendant;
  }
  return m;
}

double ModelsBound(const Pattern& p1, const Pattern& p2) {
  return std::pow(static_cast<double>(xpv::ExpansionBound(p2)),
                  DescendantEdges(p1));
}

/// Worst-case canonical models of the equivalence tests `DecideRewrite`
/// runs for query `q` over view `v` (0 when the index prunes the pair).
double WorstModels(const Pattern& q, const xpv::SelectionSummary& qs,
                   const Pattern& v, const xpv::SelectionSummary& vs) {
  if (!xpv::AdmissibleBySummaries(qs, vs)) return 0;
  const xpv::CandidateBundle b = xpv::MakeCandidateBundle(q, v, vs.depth);
  double worst = std::max(ModelsBound(b.sub_composition, q),
                          ModelsBound(q, b.sub_composition));
  if (!b.natural.coincide) {
    worst = std::max({worst, ModelsBound(b.relaxed_composition, q),
                      ModelsBound(q, b.relaxed_composition)});
  }
  return worst;
}

/// The parsed views of one document, for screening queries against them.
struct DocViews {
  std::vector<Pattern> patterns;
  std::vector<xpv::SelectionSummary> summaries;
};

// A query from the generator's default shapes, rooted at the documents'
// root label so that it can select something, redrawn until every pair it
// forms with the document's views is within `kMaxModels`.
Pattern DrawQuery(Rng& rng, const DocViews& views) {
  for (;;) {
    Pattern p = xpv::RandomPattern(rng, xpv::PatternGenOptions{});
    p.set_label(p.root(), GenLabel(0));
    const xpv::SelectionSummary ps = xpv::SummarizeSelection(p);
    bool bounded = true;
    for (size_t i = 0; bounded && i < views.patterns.size(); ++i) {
      bounded = WorstModels(p, ps, views.patterns[i], views.summaries[i]) <=
                kMaxModels;
    }
    if (bounded) return p;
  }
}

// A view derived from a fresh draw: a prefix of it or a perturbed prefix,
// alternately. Root-only views would answer every query, so the prefix
// keeps at least one selection step.
Pattern DrawView(Rng& rng, int i) {
  for (;;) {
    Pattern base = xpv::RandomPattern(rng, xpv::PatternGenOptions{});
    base.set_label(base.root(), GenLabel(0));
    int k = 0;
    Pattern v = i % 2 == 0 ? xpv::PrefixView(rng, base, &k)
                           : xpv::PerturbedView(rng, base, &k);
    if (k >= 1) return v;
  }
}

// Cumulative Zipf(s) weights over ranks 1..n.
std::vector<double> ZipfCdf(int n, double s) {
  std::vector<double> cdf(static_cast<size_t>(n));
  double total = 0;
  for (int r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf[static_cast<size_t>(r)] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

int SampleRank(Rng& rng, const std::vector<double>& cdf) {
  const double u = Uniform01(rng);
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  return static_cast<int>(
      std::min<ptrdiff_t>(it - cdf.begin(),
                          static_cast<ptrdiff_t>(cdf.size()) - 1));
}

Tree ParseOrDie(const std::string& xml) {
  xpv::Result<Tree> tree = xpv::ParseXml(xml);
  if (!tree.ok()) std::abort();  // The generator wrote this XML itself.
  return tree.take();
}

// Documents, views and the hot pool: a function of `seed` alone.
void BuildSetup(const WorkloadSpec& spec, uint64_t seed, Stream* out,
                std::vector<Tree>* shadows, std::vector<DocViews>* doc_views) {
  for (int d = 0; d < spec.documents; ++d) {
    Rng rng = SubRng(seed, 1, static_cast<uint64_t>(d));
    xpv::TreeGenOptions options;
    options.max_nodes = spec.doc_nodes;
    options.max_depth = 10;
    options.max_fanout = 5;
    Tree tree = xpv::RandomTree(rng, options);
    tree.set_label(tree.root(), GenLabel(0));
    out->doc_xml.push_back(xpv::WriteXml(tree));
    // The Service numbers nodes in parse order, so the shadow is the parse
    // of the same text, not the generated tree.
    shadows->push_back(ParseOrDie(out->doc_xml.back()));

    std::vector<std::pair<std::string, std::string>> views;
    DocViews parsed;
    for (int v = 0; v < spec.views_per_doc; ++v) {
      parsed.patterns.push_back(DrawView(rng, v));
      parsed.summaries.push_back(
          xpv::SummarizeSelection(parsed.patterns.back()));
      std::string name = "v";
      name += std::to_string(v);
      views.emplace_back(std::move(name), xpv::ToXPath(parsed.patterns.back()));
    }
    out->views.push_back(std::move(views));
    doc_views->push_back(std::move(parsed));
  }
  if (spec.pool_queries == 0) return;
  Rng rng = SubRng(seed, 2);
  for (int d = 0; d < spec.documents; ++d) {
    std::unordered_set<uint64_t> seen;
    while (static_cast<int>(seen.size()) < spec.pool_queries) {
      const Pattern q = DrawQuery(rng, (*doc_views)[static_cast<size_t>(d)]);
      if (seen.insert(q.CanonicalFingerprint()).second) {
        out->pool.push_back(QueryKey{d, xpv::ToXPath(q)});
      }
    }
  }
  // Zipf ranks are assigned in a seeded order, so the hottest keys are
  // spread over the documents.
  for (size_t i = out->pool.size(); i > 1; --i) {
    std::swap(out->pool[i - 1], out->pool[rng.Below(i)]);
  }
}

std::vector<QueryKey> DrawBatch(Rng& rng, const WorkloadSpec& spec,
                                const std::vector<DocViews>& doc_views) {
  std::vector<QueryKey> batch;
  batch.reserve(static_cast<size_t>(spec.batch_items));
  for (int i = 0; i < spec.batch_items; ++i) {
    const int doc = rng.IntIn(0, spec.documents - 1);
    batch.push_back(QueryKey{
        doc, xpv::ToXPath(DrawQuery(rng, doc_views[static_cast<size_t>(doc)]))});
  }
  return batch;
}

void AppendDelta(const DocumentDelta& delta, std::string* out) {
  for (const xpv::DeltaOp& op : delta.ops) {
    switch (op.kind) {
      case xpv::DeltaOp::Kind::kInsertSubtree:
        *out += " I " + std::to_string(op.node) + " " +
                xpv::WriteXml(*op.subtree);
        break;
      case xpv::DeltaOp::Kind::kDeleteSubtree:
        *out += " D " + std::to_string(op.node);
        break;
      case xpv::DeltaOp::Kind::kRelabel:
        *out += " R " + std::to_string(op.node) + " " +
                xpv::LabelName(op.label);
        break;
    }
  }
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec* spec : AllWorkloads()) {
    if (name == spec->name) return spec;
  }
  return nullptr;
}

std::vector<const WorkloadSpec*> AllWorkloads() {
  return {&kHotAnswer, &kColdBatch, &kUpdateMix};
}

uint64_t Stream::query_items() const {
  uint64_t n = 0;
  for (const auto& client : requests) {
    for (const Request& r : client) {
      if (r.kind == Request::Kind::kAnswer) ++n;
      if (r.kind == Request::Kind::kBatch) {
        n += batches[static_cast<size_t>(r.index)].size();
      }
    }
  }
  return n;
}

uint64_t Stream::update_calls() const {
  uint64_t n = 0;
  for (const auto& client : requests) {
    for (const Request& r : client) n += r.kind == Request::Kind::kUpdate;
  }
  return n;
}

Stream BuildStream(const WorkloadSpec& spec, uint64_t seed, int pass,
                   int clients) {
  Stream s;
  s.spec = &spec;
  s.seed = seed;
  s.pass = pass;
  s.clients = spec.kind == Workload::kColdBatch ? 1 : clients;
  std::vector<Tree> shadows;
  std::vector<DocViews> doc_views;
  // Every pass draws its own documents, views and hot pool: one heavy view
  // (many descendant edges and wildcards) can cost a thousand times the
  // typical one, and the keys at the top Zipf ranks set most of a hot
  // pass's cost, so a run must average over many draws to be steady
  // across seeds.
  BuildSetup(spec, xpv::HashCombine64(seed, static_cast<uint64_t>(pass)), &s,
             &shadows, &doc_views);
  s.requests.resize(static_cast<size_t>(s.clients));
  const uint64_t p = static_cast<uint64_t>(pass);

  if (spec.kind == Workload::kColdBatch) {
    Rng rng = SubRng(seed, 3, p);
    for (int b = 0; b < spec.warmup_batches; ++b) {
      s.warmup_batches.push_back(static_cast<int>(s.batches.size()));
      s.batches.push_back(DrawBatch(rng, spec, doc_views));
    }
    for (int b = 0; b < spec.requests_per_client; ++b) {
      s.requests[0].push_back(Request{Request::Kind::kBatch,
                                      static_cast<int32_t>(s.batches.size())});
      s.batches.push_back(DrawBatch(rng, spec, doc_views));
    }
    return s;
  }

  const std::vector<double> cdf =
      ZipfCdf(static_cast<int>(s.pool.size()), spec.zipf_s);
  if (spec.kind == Workload::kUpdateMix) {
    s.history.resize(static_cast<size_t>(spec.documents));
  }
  for (int c = 0; c < s.clients; ++c) {
    Rng rng = SubRng(seed, 4, p, static_cast<uint64_t>(c));
    std::vector<int> own;
    for (int d = 0; d < spec.documents; ++d) {
      if (WriterOf(d, s.clients) == c) own.push_back(d);
    }
    auto& out = s.requests[static_cast<size_t>(c)];
    out.reserve(static_cast<size_t>(spec.requests_per_client));
    for (int i = 0; i < spec.requests_per_client; ++i) {
      if (!own.empty() && spec.write_fraction > 0 &&
          rng.Chance(spec.write_fraction)) {
        Update u;
        u.doc = own[rng.Below(own.size())];
        Tree& shadow = shadows[static_cast<size_t>(u.doc)];
        u.delta = xpv::RandomDelta(rng, shadow, xpv::DeltaGenOptions{});
        // discard: the shadow only needs the mutation; the report feeds
        // incremental layers the generator does not have.
        (void)shadow.ApplyDelta(u.delta);
        auto& history = s.history[static_cast<size_t>(u.doc)];
        history.push_back(u.delta);
        u.version = static_cast<int>(history.size());
        out.push_back(Request{Request::Kind::kUpdate,
                              static_cast<int32_t>(s.updates.size())});
        s.updates.push_back(std::move(u));
      } else {
        out.push_back(Request{Request::Kind::kAnswer, SampleRank(rng, cdf)});
      }
    }
  }
  if (spec.kind == Workload::kUpdateMix) s.final_docs = std::move(shadows);
  return s;
}

std::string Serialize(const Stream& s) {
  std::string out = "stream " + std::string(s.spec->name) + " seed " +
                    std::to_string(s.seed) + " pass " +
                    std::to_string(s.pass) + " clients " +
                    std::to_string(s.clients) + "\n";
  for (size_t d = 0; d < s.doc_xml.size(); ++d) {
    out += "doc " + std::to_string(d) + " " + s.doc_xml[d] + "\n";
    for (const auto& [name, xpath] : s.views[d]) {
      out += "view " + std::to_string(d) + " " + name + " " + xpath + "\n";
    }
  }
  for (const QueryKey& k : s.pool) {
    out += "pool " + std::to_string(k.doc) + " " + k.xpath + "\n";
  }
  for (const auto& batch : s.batches) {
    out += "batch";
    for (const QueryKey& k : batch) {
      out += ' ';
      out += std::to_string(k.doc);
      out += ':';
      out += k.xpath;
    }
    out += "\n";
  }
  for (int b : s.warmup_batches) out += "warmup " + std::to_string(b) + "\n";
  for (size_t c = 0; c < s.requests.size(); ++c) {
    out += "client " + std::to_string(c) + "\n";
    for (const Request& r : s.requests[c]) {
      switch (r.kind) {
        case Request::Kind::kAnswer:
          out += "A " + std::to_string(r.index) + "\n";
          break;
        case Request::Kind::kBatch:
          out += "B " + std::to_string(r.index) + "\n";
          break;
        case Request::Kind::kUpdate: {
          const Update& u = s.updates[static_cast<size_t>(r.index)];
          out += "U " + std::to_string(u.doc) + " " + std::to_string(u.version);
          AppendDelta(u.delta, &out);
          out += "\n";
          break;
        }
      }
    }
  }
  for (size_t d = 0; d < s.final_docs.size(); ++d) {
    out += "final " + std::to_string(d) + " " +
           xpv::WriteXml(s.final_docs[d]) + "\n";
  }
  return out;
}

}  // namespace servebench
