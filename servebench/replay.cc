#include "replay.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <fstream>
#include <memory>
#include <thread>
#include <unordered_map>
#include <utility>

#include "eval/evaluator.h"
#include "pattern/xpath_parser.h"
#include "rewrite/candidates.h"
#include "rewrite/engine.h"
#include "util/sync.h"
#include "util/thread_pool.h"
#include "views/answer_cache.h"
#include "views/view_cache.h"
#include "views/view_index.h"
#include "xml/xml_parser.h"

namespace servebench {
namespace {

using Clock = std::chrono::steady_clock;
using xpv::Pattern;

// ------------------------------------------------------------------ spans

enum Layer : uint8_t {
  kRequest,  // The replayed call itself; its self time is replay glue.
  kParse,
  kFingerprint,
  kMemo,
  kIndex,
  kCandidates,
  kEquiv,
  kDecide,
  kApply,
  kFallback,
  kDelta,
  kViewUpdate,
  kXmlParse,
  kMaterialize,
  kLayers,
};

constexpr const char* kLayerName[kLayers] = {
    "api.request",       "pattern.parse",     "pattern.fingerprint",
    "views.memo",        "views.index",       "rewrite.candidates",
    "containment.equiv", "rewrite.decide",    "views.apply",
    "eval.fallback",     "xml.delta",         "views.update",
    "xml.parse",         "views.materialize",
};

constexpr uint32_t kSetupRequest = ~uint32_t{0};

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // Index in the same thread's log, or -1.
  uint32_t request = 0;
  Layer layer = kRequest;
};

/// One thread's spans, appended without locks by that thread only.
struct SpanLog {
  std::vector<Span> spans;
  std::vector<int32_t> open;
  bool main = false;  // The replay's calling thread.
};

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Span collection for one replay. Each thread finds its own log through
/// a thread-local pointer tagged with the tracer's generation; the logs
/// themselves live in the tracer, so they outlive pool threads and are
/// read once the replay has ended.
class Tracer {
 public:
  Tracer()
      : generation_(next_generation_.fetch_add(1) + 1),
        owner_(std::this_thread::get_id()) {}

  bool enabled = false;

  SpanLog* ThreadLog() {
    if (tls_generation_ != generation_) {
      xpv::MutexLock lock(mu_);
      logs_.emplace_back();
      logs_.back().main = std::this_thread::get_id() == owner_;
      tls_log_ = &logs_.back();
      tls_generation_ = generation_;
    }
    return tls_log_;
  }

  /// All logs. Requires quiescence: no thread records any more.
  std::deque<SpanLog>& logs() XPV_NO_THREAD_SAFETY_ANALYSIS { return logs_; }

  static void SetRequest(uint32_t request) { tls_request_ = request; }
  static uint32_t request() { return tls_request_; }

 private:
  static inline std::atomic<uint64_t> next_generation_{0};
  static inline thread_local uint64_t tls_generation_ = 0;
  static inline thread_local SpanLog* tls_log_ = nullptr;
  static inline thread_local uint32_t tls_request_ = 0;
  const uint64_t generation_;
  const std::thread::id owner_;
  xpv::Mutex mu_;
  std::deque<SpanLog> logs_ XPV_GUARDED_BY(mu_);
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, Layer layer)
      : log_(tracer.enabled ? tracer.ThreadLog() : nullptr) {
    if (log_ == nullptr) return;
    index_ = static_cast<int32_t>(log_->spans.size());
    log_->spans.push_back(Span{NowNs(), 0,
                               log_->open.empty() ? -1 : log_->open.back(),
                               Tracer::request(), layer});
    log_->open.push_back(index_);
  }
  ~ScopedSpan() {
    if (log_ == nullptr) return;
    log_->spans[static_cast<size_t>(index_)].end_ns = NowNs();
    log_->open.pop_back();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int32_t index_ = -1;
};

// ----------------------------------------------------------------- replay

/// Work counts taken where the work happens (shared by the batch workers).
struct Counters {
  std::atomic<uint64_t> index_probes{0};  // (query, view) pairs probed.
  std::atomic<uint64_t> admissible{0};
  std::atomic<uint64_t> equiv_calls{0};
  std::atomic<uint64_t> decide_found{0};
  std::atomic<uint64_t> decide_unknown{0};
  std::atomic<uint64_t> computed{0};  // Queries that missed the memo.
  std::atomic<uint64_t> fallbacks{0};
  std::atomic<uint64_t> delta_ops{0};
};

struct ReplayDoc {
  xpv::Tree tree{xpv::LabelId{0}};
  std::unique_ptr<xpv::ViewCache> cache;  // Reads `tree`; never moves.
};

/// One replay of a stream through the layer functions.
class Replayer {
 public:
  Replayer(const Stream& s, int workers, bool traced)
      : s_(s), workers_(std::max(1, workers)) {
    tracer_.enabled = traced;
  }

  /// Parses the documents and materializes the views (traced, as set-up),
  /// then warms the memo and oracle like the Service's warm-up (untraced).
  void Setup() {
    const bool traced = tracer_.enabled;
    Tracer::SetRequest(kSetupRequest);
    for (size_t d = 0; d < s_.doc_xml.size(); ++d) {
      auto doc = std::make_unique<ReplayDoc>();
      {
        ScopedSpan span(tracer_, kXmlParse);
        xpv::Result<xpv::Tree> tree = xpv::ParseXml(s_.doc_xml[d]);
        if (!tree.ok()) {
          mismatches_.push_back("document " + std::to_string(d) +
                                " does not parse");
          return;
        }
        doc->tree = tree.take();
      }
      xpv::RewriteOptions options;
      doc->cache = std::make_unique<xpv::ViewCache>(doc->tree, options, &oracle_);
      for (const auto& [name, xpath] : s_.views[d]) {
        xpv::Result<Pattern> view = xpv::ParseXPath(xpath);
        if (!view.ok()) {
          mismatches_.push_back("view " + xpath + " does not parse");
          return;
        }
        ScopedSpan span(tracer_, kMaterialize);
        // discard: slots are assigned in registration order, 0, 1, ...
        (void)doc->cache->AddView(xpv::ViewDefinition{name, view.take()});
      }
      docs_.push_back(std::move(doc));
    }
    tracer_.enabled = false;
    uint64_t ignored_digest = 0;
    for (const QueryKey& k : s_.pool) {
      // discard: warm-up only fills the memo and the oracle.
      (void)AnswerOne(static_cast<size_t>(k.doc), k.xpath, &ignored_digest);
    }
    std::vector<uint64_t> ignored;
    for (int b : s_.warmup_batches) {
      Batch(s_.batches[static_cast<size_t>(b)], &ignored);
    }
    tracer_.enabled = traced;
    counters_ = std::make_unique<Counters>();  // Counts the loop only.
  }

  /// Replays the clients' requests, interleaved round-robin, and compares
  /// every answer with the Service's (`logs` from the same stream). Returns
  /// the wall time of the loop.
  double Run(const std::vector<ClientLog>& logs) {
    const Clock::time_point start = Clock::now();
    uint32_t request = 0;
    std::vector<size_t> answered(s_.requests.size(), 0);
    size_t longest = 0;
    for (const auto& r : s_.requests) longest = std::max(longest, r.size());
    std::vector<uint64_t> digests;
    for (size_t i = 0; i < longest; ++i) {
      for (size_t c = 0; c < s_.requests.size(); ++c) {
        if (i >= s_.requests[c].size()) continue;
        const Request& r = s_.requests[c][i];
        Tracer::SetRequest(++request);
        switch (r.kind) {
          case Request::Kind::kAnswer: {
            const QueryKey& k = s_.pool[static_cast<size_t>(r.index)];
            const size_t d = static_cast<size_t>(k.doc);
            uint64_t digest = kFailedDigest;
            std::shared_ptr<const xpv::AnswerCache::Entry> hit;
            {
              ScopedSpan root(tracer_, kRequest);
              hit = AnswerOne(d, k.xpath, &digest);
            }
            // Harness work stays outside the request span.
            if (hit != nullptr) digest = AnswerDigest(hit->answer.outputs);
            Compare(logs, c, answered[c]++, d, digest, k.xpath);
            break;
          }
          case Request::Kind::kBatch: {
            const auto& items = s_.batches[static_cast<size_t>(r.index)];
            {
              ScopedSpan root(tracer_, kRequest);
              Batch(items, &digests);
            }
            for (size_t j = 0; j < items.size(); ++j) {
              Compare(logs, c, answered[c]++,
                      static_cast<size_t>(items[j].doc), digests[j],
                      items[j].xpath);
            }
            break;
          }
          case Request::Kind::kUpdate: {
            ScopedSpan root(tracer_, kRequest);
            ApplyUpdate(s_.updates[static_cast<size_t>(r.index)]);
            break;
          }
        }
      }
    }
    return std::chrono::duration<double>(Clock::now() - start).count();
  }

  Tracer& tracer() { return tracer_; }
  const Counters& counters() const { return *counters_; }
  std::vector<std::string>& mismatches() { return mismatches_; }
  uint64_t compared() const { return compared_; }

 private:
  /// The Service path of one `Answer`: parse, fingerprint, memo probe,
  /// then on a miss the view scan and the memo insert. Returns the fresh
  /// memo entry on a hit; on a miss sets `*digest` and returns null.
  std::shared_ptr<const xpv::AnswerCache::Entry> AnswerOne(
      size_t d, const std::string& xpath, uint64_t* digest) {
    ReplayDoc& doc = *docs_[d];
    Pattern p = Pattern::Empty();
    {
      ScopedSpan span(tracer_, kParse);
      xpv::Result<Pattern> parsed = xpv::ParseXPath(xpath);
      if (!parsed.ok()) return nullptr;
      p = parsed.take();
    }
    uint64_t fp = 0;
    {
      ScopedSpan span(tracer_, kFingerprint);
      fp = p.CanonicalFingerprint();
    }
    const xpv::AnswerCache::Key key{d + 1, doc.cache->epoch(), fp};
    std::shared_ptr<const xpv::AnswerCache::Entry> entry;
    {
      ScopedSpan span(tracer_, kMemo);
      entry = memo_.Lookup(key);
    }
    if (entry != nullptr && entry->validity == Validity(doc, entry->answer)) {
      return entry;
    }
    xpv::CacheAnswer answer;
    Compute(p, doc, &oracle_, &answer);
    *digest = AnswerDigest(answer.outputs);
    const uint64_t validity = Validity(doc, answer);
    ScopedSpan span(tracer_, kMemo);
    memo_.Insert(key, xpv::AnswerCache::Entry{std::move(answer), {}, validity});
    return nullptr;
  }

  /// `ViewCache::ScanViews` step by step: index pruning, then per
  /// admissible view the candidate bundle, the equivalence tests the
  /// decision needs (through `oracle`, so `DecideRewrite` reads them back
  /// from it), the decision, and the answer through the view — or, when no
  /// view admits a rewriting, evaluation over the whole document.
  void Compute(const Pattern& p, const ReplayDoc& doc,
               xpv::ContainmentOracle* oracle, xpv::CacheAnswer* out) {
    const xpv::ViewCache& cache = *doc.cache;
    ++counters_->computed;
    std::vector<int> admissible;
    {
      ScopedSpan span(tracer_, kIndex);
      const xpv::SelectionSummary summary = xpv::SummarizeSelection(p);
      cache.index().AppendAdmissible(summary, &admissible);
    }
    counters_->index_probes += static_cast<uint64_t>(cache.index().size());
    counters_->admissible += admissible.size();
    xpv::RewriteOptions options;
    options.oracle = oracle;
    std::vector<std::pair<const Pattern*, const Pattern*>> pairs;
    for (int vi : admissible) {
      const xpv::MaterializedView& view = cache.views()[static_cast<size_t>(vi)];
      const Pattern& vp = view.definition().pattern;
      xpv::CandidateBundle bundle;
      {
        ScopedSpan span(tracer_, kCandidates);
        bundle = xpv::MakeCandidateBundle(p, vp, cache.index().view_summary(vi).depth);
      }
      {
        // The order DecideRewrite tests in: P>=k, then P>=k_r// unless the
        // two coincide, stopping at the first equivalence.
        ScopedSpan span(tracer_, kEquiv);
        pairs.clear();
        xpv::AppendBundlePairs(bundle, p, &pairs);
        for (const auto& [composition, query] : pairs) {
          ++counters_->equiv_calls;
          if (oracle->Equivalent(*composition, *query)) break;
        }
      }
      xpv::RewriteResult result;
      {
        ScopedSpan span(tracer_, kDecide);
        result = xpv::DecideRewrite(p, vp, options, &bundle);
      }
      if (result.status == xpv::RewriteStatus::kFound) {
        ++counters_->decide_found;
        out->hit = true;
        out->view_slot = vi;
        out->view_name = view.definition().name;
        out->rewriting = std::move(result.rewriting);
        ScopedSpan span(tracer_, kApply);
        out->outputs = view.Apply(out->rewriting);
        return;
      }
      if (result.status == xpv::RewriteStatus::kUnknown) ++counters_->decide_unknown;
    }
    ++counters_->fallbacks;
    ScopedSpan span(tracer_, kFallback);
    out->outputs = xpv::Eval(p, doc.tree);
  }

  /// `Service::AnswerBatch`: the planner parses, fingerprints and probes
  /// the memo on the calling thread; the misses run in `workers_`
  /// contiguous chunks on a pool, each chunk through its own oracle shard
  /// over the shared oracle, merged back afterwards.
  void Batch(const std::vector<QueryKey>& items, std::vector<uint64_t>* digests) {
    const size_t n = items.size();
    digests->assign(n, kFailedDigest);
    std::vector<Pattern> patterns(n, Pattern::Empty());
    std::vector<xpv::AnswerCache::Key> keys(n);
    std::vector<size_t> misses;
    for (size_t i = 0; i < n; ++i) {
      const size_t d = static_cast<size_t>(items[i].doc);
      {
        ScopedSpan span(tracer_, kParse);
        xpv::Result<Pattern> parsed = xpv::ParseXPath(items[i].xpath);
        if (!parsed.ok()) continue;
        patterns[i] = parsed.take();
      }
      uint64_t fp = 0;
      {
        ScopedSpan span(tracer_, kFingerprint);
        fp = patterns[i].CanonicalFingerprint();
      }
      keys[i] = xpv::AnswerCache::Key{d + 1, docs_[d]->cache->epoch(), fp};
      std::shared_ptr<const xpv::AnswerCache::Entry> entry;
      {
        ScopedSpan span(tracer_, kMemo);
        entry = memo_.Lookup(keys[i]);
      }
      if (entry != nullptr &&
          entry->validity == Validity(*docs_[d], entry->answer)) {
        (*digests)[i] = AnswerDigest(entry->answer.outputs);
      } else {
        misses.push_back(i);
      }
    }
    if (misses.empty()) return;
    std::vector<xpv::CacheAnswer> answers(misses.size());
    const int chunks = std::clamp(workers_, 1, static_cast<int>(misses.size()));
    std::vector<std::unique_ptr<xpv::ContainmentOracle>> shards;
    for (int w = 0; w < chunks; ++w) {
      shards.push_back(std::make_unique<xpv::ContainmentOracle>(oracle_.capacity()));
      shards.back()->set_fallback(&oracle_);
    }
    auto run_chunk = [&](int w, size_t begin, size_t end, uint32_t request) {
      Tracer::SetRequest(request);
      for (size_t j = begin; j < end; ++j) {
        const size_t i = misses[j];
        Compute(patterns[i], *docs_[static_cast<size_t>(items[i].doc)],
                shards[static_cast<size_t>(w)].get(), &answers[j]);
      }
    };
    if (chunks == 1) {
      run_chunk(0, 0, misses.size(), Tracer::request());
    } else {
      if (pool_ == nullptr) pool_ = std::make_unique<xpv::ThreadPool>(workers_);
      xpv::ThreadPool::TaskGroup group(pool_.get());
      const size_t base = misses.size() / static_cast<size_t>(chunks);
      const size_t extra = misses.size() % static_cast<size_t>(chunks);
      size_t begin = 0;
      for (int w = 0; w < chunks; ++w) {
        const size_t end = begin + base + (static_cast<size_t>(w) < extra ? 1 : 0);
        group.Submit([&run_chunk, w, begin, end, request = Tracer::request()] {
          run_chunk(w, begin, end, request);
        });
        begin = end;
      }
      group.Wait();
      group.RethrowIfFailed();
    }
    for (const auto& shard : shards) oracle_.AbsorbFrom(*shard);
    ScopedSpan span(tracer_, kMemo);
    for (size_t j = 0; j < misses.size(); ++j) {
      const size_t i = misses[j];
      ReplayDoc& doc = *docs_[static_cast<size_t>(items[i].doc)];
      (*digests)[i] = AnswerDigest(answers[j].outputs);
      const uint64_t validity = Validity(doc, answers[j]);
      memo_.Insert(keys[i], xpv::AnswerCache::Entry{std::move(answers[j]), {},
                                                    validity});
    }
  }

  /// `Service::UpdateDocument`: validate and apply the tree delta, then
  /// let the view cache patch, skip or rematerialize each view.
  void ApplyUpdate(const Update& u) {
    ReplayDoc& doc = *docs_[static_cast<size_t>(u.doc)];
    // The stream's own delta may have been moved into the Service; the
    // history keeps an identical copy.
    const xpv::DocumentDelta& delta =
        s_.history[static_cast<size_t>(u.doc)][static_cast<size_t>(u.version - 1)];
    xpv::TreeDeltaReport report;
    {
      ScopedSpan span(tracer_, kDelta);
      std::string why;
      if (!doc.tree.ValidateDelta(delta, &why)) {
        mismatches_.push_back("replayed delta rejected: " + why);
        return;
      }
      report = doc.tree.ApplyDelta(delta);
    }
    counters_->delta_ops += delta.ops.size();
    versions_[static_cast<size_t>(u.doc)] = static_cast<uint32_t>(u.version);
    ScopedSpan span(tracer_, kViewUpdate);
    // discard: the Service's own update counters are read instead.
    (void)doc.cache->ApplyUpdate(report,
                                 xpv::ServiceOptions{}.update_fallback_fraction);
  }

  /// The Service's memo freshness stamp (per-view epoch for view hits,
  /// document epoch for fallbacks).
  static uint64_t Validity(const ReplayDoc& doc, const xpv::CacheAnswer& a) {
    return a.view_slot >= 0 ? doc.cache->view_epoch(a.view_slot)
                            : doc.cache->doc_epoch();
  }

  /// Compares the replay's answer with the Service's. With concurrent
  /// writers the Service's answer may reflect any version in its guard
  /// range; it is compared only when that range is exactly the version the
  /// replay answered at.
  void Compare(const std::vector<ClientLog>& logs, size_t client, size_t at,
               size_t doc, uint64_t digest, const std::string& xpath) {
    if (logs.empty()) return;
    const ClientLog& log = logs[client];
    if (!log.versions.empty()) {
      const auto [lo, hi] = log.versions[at];
      if (lo != hi || lo != versions_[doc]) return;
    }
    ++compared_;
    if (log.digests[at] != digest && mismatches_.size() < 10) {
      mismatches_.push_back("replay answer of " + xpath +
                            " differs from the Service's");
    }
  }

  const Stream& s_;
  const int workers_;
  Tracer tracer_;
  std::unique_ptr<Counters> counters_ = std::make_unique<Counters>();
  std::vector<std::unique_ptr<ReplayDoc>> docs_;
  std::vector<uint32_t> versions_ = std::vector<uint32_t>(s_.doc_xml.size(), 0);
  xpv::ContainmentOracle oracle_;
  xpv::AnswerCache memo_{xpv::AnswerCache::kDefaultCapacity,
                         xpv::ServiceOptions{}.answer_cache_doorkeeper};
  std::unique_ptr<xpv::ThreadPool> pool_;
  std::vector<std::string> mismatches_;
  uint64_t compared_ = 0;
};

// ---------------------------------------------------------------- report

/// Which end-to-end metric each layer should move, and on which workload.
struct Target {
  const char* prefix;
  const char* moves;
};

constexpr Target kTargets[] = {
    {"pattern.", "answer_p50_us, throughput_qps on hot-answer"},
    {"views.memo.", "answer_p50_us on hot-answer and update-mix"},
    {"views.index.", "batch_p50_ms on cold-batch"},
    {"rewrite.", "batch_p50_ms on cold-batch"},
    {"containment.", "batch_p99_ms, throughput_qps on cold-batch"},
    {"eval.", "batch_p50_ms on cold-batch, answer_p50_us on update-mix"},
    {"views.apply.", "batch_p50_ms on cold-batch, answer_p50_us on update-mix"},
    {"xml.delta.", "update_p50_us, update_p99_us on update-mix"},
    {"views.update.", "update_p50_us, update_p99_us on update-mix"},
    {"xml.parse.", "setup_s on every workload"},
    {"views.materialize.", "setup_s on every workload"},
    {"util.pool.", "batch_p50_ms on cold-batch"},
    {"api.residual", "throughput_qps on hot-answer, update_p99_us on update-mix"},
    {"trace.", "(tracing cost; no end-to-end metric)"},
};

const char* TargetOf(const std::string& name) {
  for (const Target& t : kTargets) {
    if (name.rfind(t.prefix, 0) == 0) return t.moves;
  }
  return "";
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

ReplayReport RunReplay(const ReplayInputs& in) {
  ReplayReport report;
  const Stream& s = *in.stream;

  Replayer plain(s, in.workers, /*traced=*/false);
  plain.Setup();
  const double plain_s = plain.Run(*in.logs);

  Replayer traced(s, in.workers, /*traced=*/true);
  traced.Setup();
  const double traced_s = traced.Run(*in.logs);
  for (Replayer* r : {&plain, &traced}) {
    report.mismatches.insert(report.mismatches.end(), r->mismatches().begin(),
                             r->mismatches().end());
  }

  // Self time per layer, and per request the layer time on its critical
  // path: the calling thread's spans plus the slowest worker's.
  double busy_ns[kLayers] = {};
  uint64_t calls[kLayers] = {};
  std::unordered_map<uint32_t, double> main_ns, worker_ns, root_ns;
  std::deque<SpanLog>& logs = traced.tracer().logs();
  std::ofstream spans_out;
  if (!in.spans_path.empty()) {
    spans_out.open(in.spans_path);
    spans_out << "thread\trequest\tlayer\tstart_ns\tend_ns\tparent\n";
  }
  for (size_t t = 0; t < logs.size(); ++t) {
    const SpanLog& log = logs[t];
    std::vector<int64_t> child_ns(log.spans.size(), 0);
    for (const Span& sp : log.spans) {
      if (sp.parent >= 0) {
        child_ns[static_cast<size_t>(sp.parent)] += sp.end_ns - sp.start_ns;
      }
    }
    std::unordered_map<uint32_t, double> thread_ns;
    for (size_t i = 0; i < log.spans.size(); ++i) {
      const Span& sp = log.spans[i];
      const double self = static_cast<double>(sp.end_ns - sp.start_ns - child_ns[i]);
      busy_ns[sp.layer] += self;
      ++calls[sp.layer];
      if (spans_out.is_open()) {
        spans_out << t << '\t' << sp.request << '\t' << kLayerName[sp.layer]
                  << '\t' << sp.start_ns << '\t' << sp.end_ns << '\t'
                  << sp.parent << '\n';
      }
      if (sp.request == kSetupRequest) continue;
      if (sp.layer == kRequest) {
        root_ns[sp.request] += static_cast<double>(sp.end_ns - sp.start_ns);
      } else {
        thread_ns[sp.request] += self;
      }
    }
    for (const auto& [request, ns] : thread_ns) {
      if (log.main) {
        main_ns[request] += ns;
      } else {
        worker_ns[request] = std::max(worker_ns[request], ns);
      }
    }
  }
  std::vector<double> per_request_us;
  double root_total = 0;
  double layer_total = 0;
  for (const auto& [request, ns] : root_ns) {
    const double layers = main_ns[request] + worker_ns[request];
    per_request_us.push_back(layers * 1e-3);
    root_total += ns;
    layer_total += layers;
  }
  const double layers_p50_us = Median(per_request_us);
  const double residual_us = in.untraced_p50_us - layers_p50_us;
  const double glue = Ratio(root_total - layer_total, root_total);

  const Counters& c = traced.counters();
  const ServiceDeltas& sd = in.deltas;
  auto ms = [&busy_ns](Layer l) { return busy_ns[l] * 1e-6; };
  const double memo_lookups = static_cast<double>(sd.memo_hits + sd.memo_misses);
  const double oracle_probes = static_cast<double>(sd.oracle_hits + sd.oracle_misses);
  const double view_outcomes = static_cast<double>(
      sd.views_patched + sd.views_rematerialized + sd.views_untouched);
  auto d = [](uint64_t v) { return static_cast<double>(v); };
  auto ld = [](const std::atomic<uint64_t>& v) {
    return static_cast<double>(v.load());
  };
  report.metrics = {
      {"pattern.parse.calls", "count", d(calls[kParse])},
      {"pattern.parse.busy_ms", "ms", ms(kParse)},
      {"pattern.fingerprint.calls", "count", d(calls[kFingerprint])},
      {"pattern.fingerprint.busy_ms", "ms", ms(kFingerprint)},
      {"views.memo.lookups", "count", memo_lookups},
      {"views.memo.hit_ratio", "ratio", Ratio(d(sd.memo_hits), memo_lookups)},
      {"views.memo.evictions", "count", d(sd.memo_evictions)},
      {"views.memo.singleflight_joins", "count", d(sd.memo_joins)},
      {"views.memo.busy_ms", "ms", ms(kMemo)},
      {"views.index.busy_ms", "ms", ms(kIndex)},
      {"views.index.admissible_ratio", "ratio",
       Ratio(ld(c.admissible), ld(c.index_probes))},
      {"rewrite.candidates.busy_ms", "ms", ms(kCandidates)},
      {"rewrite.decide.calls", "count", d(calls[kDecide])},
      {"rewrite.decide.busy_ms", "ms", ms(kDecide)},
      {"rewrite.decide.found_ratio", "ratio",
       Ratio(ld(c.decide_found), d(calls[kDecide]))},
      {"rewrite.decide.unknown", "count", ld(c.decide_unknown)},
      {"containment.equiv.calls", "count", ld(c.equiv_calls)},
      {"containment.equiv.busy_ms", "ms", ms(kEquiv)},
      {"containment.oracle.hit_ratio", "ratio",
       Ratio(d(sd.oracle_hits), oracle_probes)},
      {"containment.oracle.misses", "count", d(sd.oracle_misses)},
      {"eval.fallback.calls", "count", d(calls[kFallback])},
      {"eval.fallback.busy_ms", "ms", ms(kFallback)},
      {"eval.fallback.ratio", "ratio", Ratio(ld(c.fallbacks), ld(c.computed))},
      {"views.apply.calls", "count", d(calls[kApply])},
      {"views.apply.busy_ms", "ms", ms(kApply)},
      {"xml.delta.ops", "count", ld(c.delta_ops)},
      {"xml.delta.busy_ms", "ms", ms(kDelta)},
      {"views.update.busy_ms", "ms", ms(kViewUpdate)},
      {"views.update.untouched_ratio", "ratio",
       Ratio(d(sd.views_untouched), view_outcomes)},
      {"views.update.fallbacks", "count", d(sd.update_fallbacks)},
      {"xml.parse.busy_ms", "ms", ms(kXmlParse)},
      {"views.materialize.busy_ms", "ms", ms(kMaterialize)},
      {"util.pool.threads", "count", d(sd.pool_threads)},
      {"util.pool.queue_rejections", "count", d(sd.pool_queue_rejections)},
      {"api.residual_us", "us", residual_us},
      {"trace.overhead_frac", "ratio", traced_s / plain_s - 1},
  };

  std::printf("per-layer (traced replay of pass 0: %zu requests, %llu answers "
              "compared with the Service's):\n",
              per_request_us.size(),
              static_cast<unsigned long long>(traced.compared()));
  for (const auto& [name, unit, value] : report.metrics) {
    std::printf("  %-32s %14.6g %-6s -> %s\n", name.c_str(), value,
                unit.c_str(), TargetOf(name));
  }
  // Layer self times partition each request's span time, so the layers of
  // the median request plus the residual are the untraced median exactly.
  // What the layer spans leave uncovered inside a request span is replay
  // glue: tracer bookkeeping, and for batches the pool hand-off and shard
  // merge. Past the tolerance the breakdown is missing a layer.
  constexpr double kGlueTolerance = 0.25;
  std::printf(
      "reconcile: untraced median %.4f us = layer self time of the median "
      "request %.4f us + api.residual_us %.4f us; replay time outside layer "
      "spans %.2f%% (tolerance %.0f%%: %s)\n",
      in.untraced_p50_us, layers_p50_us, residual_us, glue * 100,
      kGlueTolerance * 100, glue <= kGlueTolerance ? "ok" : "EXCEEDED");
  std::printf("trace: untraced replay %.4f s, traced replay %.4f s\n", plain_s,
              traced_s);
  return report;
}

}  // namespace servebench
