#include "measure.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <thread>
#include <utility>

#include "eval/reference.h"
#include "pattern/xpath_parser.h"
#include "util/hash.h"
#include "xml/xml_parser.h"

namespace servebench {
namespace {

using Clock = std::chrono::steady_clock;
using xpv::DocumentId;
using xpv::Service;

int64_t Nanos(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

double Seconds(Clock::time_point a, Clock::time_point b) {
  return static_cast<double>(Nanos(a, b)) * 1e-9;
}

/// Per-document write sequence, seqlock style: the single writer stores
/// 2v - 1 before the call that produces version v and 2v after it. A
/// reader that loads s0 before its call and s1 after it observed a
/// version in [s0 / 2, (s1 + 1) / 2].
struct VersionGuard {
  std::atomic<uint32_t> seq{0};
};

ServiceDeltas ReadDeltas(const Service& service) {
  const xpv::ServiceStats s = service.stats();
  ServiceDeltas d;
  d.memo_hits = s.answer_cache_hits;
  d.memo_misses = s.answer_cache_misses;
  d.memo_evictions = s.answer_cache_evictions;
  d.memo_joins = service.answer_cache().fill_stats().joins;
  d.oracle_hits = s.oracle_hits;
  d.oracle_misses = s.oracle_misses;
  d.pool_threads = s.pool_threads;
  d.pool_queue_rejections = s.pool_queue_rejections;
  d.views_patched = s.update_views_patched;
  d.views_rematerialized = s.update_views_rematerialized;
  d.views_untouched = s.update_views_untouched;
  d.update_fallbacks = s.update_fallbacks;
  return d;
}

ServiceDeltas Minus(const ServiceDeltas& a, const ServiceDeltas& b) {
  ServiceDeltas d;
  d.memo_hits = a.memo_hits - b.memo_hits;
  d.memo_misses = a.memo_misses - b.memo_misses;
  d.memo_evictions = a.memo_evictions - b.memo_evictions;
  d.memo_joins = a.memo_joins - b.memo_joins;
  d.oracle_hits = a.oracle_hits - b.oracle_hits;
  d.oracle_misses = a.oracle_misses - b.oracle_misses;
  // Gauges, not counters: the value at the end of the loop.
  d.pool_threads = a.pool_threads;
  d.pool_queue_rejections = a.pool_queue_rejections - b.pool_queue_rejections;
  d.views_patched = a.views_patched - b.views_patched;
  d.views_rematerialized = a.views_rematerialized - b.views_rematerialized;
  d.views_untouched = a.views_untouched - b.views_untouched;
  d.update_fallbacks = a.update_fallbacks - b.update_fallbacks;
  return d;
}

// Resident set size now, from /proc/self/statm.
double ResidentMb() {
  std::ifstream statm("/proc/self/statm");
  long total = 0;
  long resident = 0;
  if (!(statm >> total >> resident)) return 0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

xpv::Tree ParseTree(const std::string& xml) {
  xpv::Result<xpv::Tree> tree = xpv::ParseXml(xml);
  return tree.ok() ? tree.take() : xpv::Tree(xpv::LabelId{0});
}

uint64_t ReferenceDigest(const std::string& xpath, const xpv::Tree& doc) {
  xpv::Result<xpv::Pattern> p = xpv::ParseXPath(xpath);
  if (!p.ok()) return kFailedDigest;
  return AnswerDigest(xpv::reference::Eval(p.value(), doc));
}

bool SameTree(const xpv::Tree& a, const xpv::Tree& b) {
  if (a.size() != b.size()) return false;
  for (xpv::NodeId n = 0; n < a.size(); ++n) {
    if (a.label(n) != b.label(n) || a.parent(n) != b.parent(n) ||
        a.children(n) != b.children(n)) {
      return false;
    }
  }
  return true;
}

// The gate checks one answer in `every` where each check costs a fresh
// reference evaluation: a cold-batch item (distinct queries) or an
// update-mix read (evaluated at its own document version). The sample is
// chosen by a hash of (seed, pass, client, position).
constexpr uint64_t kBatchItemSampleEvery = 4;
constexpr uint64_t kReadSampleEvery = 8;

bool Sampled(const Stream& s, int client, size_t position, uint64_t every) {
  uint64_t h = xpv::HashCombine64(xpv::Mix64(s.seed), static_cast<uint64_t>(s.pass));
  h = xpv::HashCombine64(h, static_cast<uint64_t>(client));
  h = xpv::HashCombine64(h, position);
  return h % every == 0;
}

/// Hot answer and cold batch: documents never change. Every hot answer is
/// compared with its key's reference evaluation (computed once per key);
/// cold-batch items are compared on a 1-in-`kBatchItemSampleEvery` sample.
void GateStatic(const Stream& s, const std::vector<ClientLog>& logs,
                PassResult* out) {
  std::vector<xpv::Tree> docs;
  for (const std::string& xml : s.doc_xml) docs.push_back(ParseTree(xml));
  std::vector<uint64_t> pool_ref(s.pool.size(), 0);
  std::vector<char> pool_done(s.pool.size(), 0);
  for (size_t c = 0; c < logs.size(); ++c) {
    size_t next = 0;
    for (const Request& r : s.requests[c]) {
      if (r.kind == Request::Kind::kAnswer) {
        const uint64_t got = logs[c].digests[next++];
        const size_t k = static_cast<size_t>(r.index);
        if (!pool_done[k]) {
          const QueryKey& key = s.pool[k];
          pool_ref[k] = ReferenceDigest(key.xpath, docs[static_cast<size_t>(key.doc)]);
          pool_done[k] = 1;
        }
        ++out->checked;
        if (got != kFailedDigest && got != pool_ref[k]) {
          out->mismatches.push_back("answer of pool key " + std::to_string(k) +
                                    " (" + s.pool[k].xpath + ")");
        }
      } else if (r.kind == Request::Kind::kBatch) {
        for (const QueryKey& item : s.batches[static_cast<size_t>(r.index)]) {
          const size_t at = next++;
          if (!Sampled(s, static_cast<int>(c), at, kBatchItemSampleEvery)) {
            continue;
          }
          const uint64_t got = logs[c].digests[at];
          ++out->checked;
          if (got != kFailedDigest &&
              got != ReferenceDigest(item.xpath,
                                     docs[static_cast<size_t>(item.doc)])) {
            out->mismatches.push_back("batch item " + item.xpath);
          }
        }
      }
    }
  }
}

/// Update mix: every final document must equal its shadow, and each
/// sampled read must equal the reference evaluation at some version its
/// guard range allows.
void GateUpdates(const Stream& s, const Service& service,
                 const std::vector<DocumentId>& ids,
                 const std::vector<ClientLog>& logs, PassResult* out) {
  for (size_t d = 0; d < ids.size(); ++d) {
    const xpv::Tree* doc = service.document(ids[d]);
    if (doc == nullptr || !SameTree(*doc, s.final_docs[d])) {
      out->mismatches.push_back("final document " + std::to_string(d) +
                                " differs from its shadow tree");
    }
  }
  struct Pending {
    int key;
    uint64_t digest;
    uint32_t lo, hi;
    bool matched = false;
  };
  std::vector<std::vector<Pending>> per_doc(ids.size());
  for (size_t c = 0; c < logs.size(); ++c) {
    size_t next = 0;
    for (size_t i = 0; i < s.requests[c].size(); ++i) {
      const Request& r = s.requests[c][i];
      if (r.kind != Request::Kind::kAnswer) continue;
      const size_t at = next++;
      if (!Sampled(s, static_cast<int>(c), i, kReadSampleEvery)) continue;
      const uint64_t got = logs[c].digests[at];
      if (got == kFailedDigest) continue;
      const QueryKey& key = s.pool[static_cast<size_t>(r.index)];
      per_doc[static_cast<size_t>(key.doc)].push_back(
          Pending{r.index, got, logs[c].versions[at].first,
                  logs[c].versions[at].second});
    }
  }
  for (size_t d = 0; d < ids.size(); ++d) {
    std::vector<Pending>& reads = per_doc[d];
    if (reads.empty()) continue;
    xpv::Tree doc = ParseTree(s.doc_xml[d]);
    const auto& history = s.history[d];
    for (uint32_t v = 0;; ++v) {
      for (Pending& p : reads) {
        if (p.matched || v < p.lo || v > p.hi) continue;
        const QueryKey& key = s.pool[static_cast<size_t>(p.key)];
        p.matched = ReferenceDigest(key.xpath, doc) == p.digest;
      }
      if (v >= history.size()) break;
      // discard: only the mutated tree is needed here.
      (void)doc.ApplyDelta(history[v]);
    }
    for (const Pending& p : reads) {
      ++out->checked;
      if (!p.matched) {
        out->mismatches.push_back(
            "document " + std::to_string(d) + " read of " +
            s.pool[static_cast<size_t>(p.key)].xpath + " matches no version in [" +
            std::to_string(p.lo) + ", " + std::to_string(p.hi) + "]");
      }
    }
  }
}

}  // namespace

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

uint64_t AnswerDigest(const std::vector<xpv::NodeId>& outputs) {
  uint64_t h = xpv::Mix64(outputs.size());
  for (xpv::NodeId n : outputs) {
    h = xpv::HashCombine64(h, static_cast<uint64_t>(n));
  }
  return h;
}

PassResult RunPass(Stream& s, int workers, bool keep_logs) {
  PassResult out;
  // Hand the previous pass's freed heap back to the system, so the resident
  // size read after this pass's loop is this pass's own.
  malloc_trim(0);
  Service service;  // Default ServiceOptions, as a user gets them.
  const bool update_mix = s.spec->kind == Workload::kUpdateMix;

  // ------------------------------------------------------------ set-up
  const Clock::time_point setup_start = Clock::now();
  std::vector<DocumentId> ids;
  for (size_t d = 0; d < s.doc_xml.size(); ++d) {
    xpv::ServiceResult<DocumentId> id = service.AddDocument(s.doc_xml[d]);
    if (!id.ok()) {
      out.mismatches.push_back("AddDocument failed: " + id.error().message);
      return out;
    }
    ids.push_back(id.value());
    for (const auto& [name, xpath] : s.views[d]) {
      xpv::ServiceResult<xpv::ViewId> view =
          service.AddView(ids.back(), name, xpath);
      if (!view.ok()) {
        out.mismatches.push_back("AddView " + xpath + " failed: " +
                                 view.error().message);
        return out;
      }
    }
  }
  std::vector<xpv::Query> pool;
  pool.reserve(s.pool.size());
  for (const QueryKey& k : s.pool) pool.emplace_back(k.xpath);
  std::vector<std::vector<xpv::BatchItem>> batches;
  batches.reserve(s.batches.size());
  for (const auto& batch : s.batches) {
    std::vector<xpv::BatchItem> items;
    items.reserve(batch.size());
    for (const QueryKey& k : batch) {
      items.push_back(xpv::BatchItem{ids[static_cast<size_t>(k.doc)], k.xpath});
    }
    batches.push_back(std::move(items));
  }
  xpv::CallOptions batch_call;
  batch_call.num_workers = workers;
  // Warm-up: every hot key once (fills the memo and the oracle), or the
  // cold stream's warm-up batches (starts the pool, warms thread scratch).
  for (size_t k = 0; k < pool.size(); ++k) {
    if (!service.Answer(ids[static_cast<size_t>(s.pool[k].doc)], pool[k]).ok()) {
      out.mismatches.push_back("warm-up answer failed: " + s.pool[k].xpath);
    }
  }
  for (int b : s.warmup_batches) {
    if (!service.AnswerBatch(batches[static_cast<size_t>(b)], batch_call).ok()) {
      out.mismatches.push_back("warm-up batch failed");
    }
  }
  out.setup_s = Seconds(setup_start, Clock::now());

  // ------------------------------------------------------- timed loop
  const ServiceDeltas before = ReadDeltas(service);
  std::vector<VersionGuard> guards(ids.size());
  std::vector<ClientLog> logs(s.requests.size());
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  auto client = [&](size_t c) {
    ClientLog& log = logs[c];
    const std::vector<Request>& requests = s.requests[c];
    log.digests.reserve(requests.size());
    ready.fetch_add(1);
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    const size_t stride = static_cast<size_t>(s.spec->latency_stride);
    for (size_t i = 0; i < requests.size(); ++i) {
      const Request& r = requests[i];
      const bool keep = i % stride == 0;
      switch (r.kind) {
        case Request::Kind::kAnswer: {
          const size_t k = static_cast<size_t>(r.index);
          const size_t d = static_cast<size_t>(s.pool[k].doc);
          const uint32_t s0 = update_mix ? guards[d].seq.load() : 0;
          const Clock::time_point t0 = Clock::now();
          xpv::ServiceResult<xpv::Answer> a = service.Answer(ids[d], pool[k]);
          const Clock::time_point t1 = Clock::now();
          if (update_mix) {
            const uint32_t s1 = guards[d].seq.load();
            log.versions.emplace_back(s0 / 2, (s1 + 1) / 2);
          }
          if (keep) log.latency.answer.push_back(Nanos(t0, t1));
          ++log.attempted;
          if (a.ok()) {
            log.digests.push_back(AnswerDigest(a.value().outputs));
          } else {
            ++log.failed;
            log.digests.push_back(kFailedDigest);
          }
          break;
        }
        case Request::Kind::kBatch: {
          const auto& items = batches[static_cast<size_t>(r.index)];
          const Clock::time_point t0 = Clock::now();
          xpv::ServiceResult<xpv::BatchAnswers> a =
              service.AnswerBatch(items, batch_call);
          const Clock::time_point t1 = Clock::now();
          if (keep) log.latency.batch.push_back(Nanos(t0, t1));
          log.attempted += items.size();
          for (size_t j = 0; j < items.size(); ++j) {
            if (a.ok() && a.value().answers[j].ok()) {
              log.digests.push_back(
                  AnswerDigest(a.value().answers[j].value().outputs));
            } else {
              ++log.failed;
              log.digests.push_back(kFailedDigest);
            }
          }
          break;
        }
        case Request::Kind::kUpdate: {
          Update& u = s.updates[static_cast<size_t>(r.index)];
          const size_t d = static_cast<size_t>(u.doc);
          const uint32_t v = static_cast<uint32_t>(u.version);
          guards[d].seq.store(2 * v - 1);
          const Clock::time_point t0 = Clock::now();
          xpv::ServiceStatus st = service.UpdateDocument(ids[d], std::move(u.delta));
          const Clock::time_point t1 = Clock::now();
          guards[d].seq.store(2 * v);
          if (keep) log.latency.update.push_back(Nanos(t0, t1));
          ++log.attempted;
          if (!st.ok()) ++log.failed;
          break;
        }
      }
    }
  };
  std::vector<std::thread> threads;
  for (size_t c = 0; c < s.requests.size(); ++c) threads.emplace_back(client, c);
  while (ready.load() < static_cast<int>(threads.size())) std::this_thread::yield();
  const Clock::time_point loop_start = Clock::now();
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  out.loop_s = Seconds(loop_start, Clock::now());
  out.rss_mb = ResidentMb();
  out.deltas = Minus(ReadDeltas(service), before);

  for (ClientLog& log : logs) {
    out.attempted += log.attempted;
    out.failed += log.failed;
    auto append = [](std::vector<int64_t>* to, const std::vector<int64_t>& from) {
      to->insert(to->end(), from.begin(), from.end());
    };
    append(&out.latency.answer, log.latency.answer);
    append(&out.latency.batch, log.latency.batch);
    append(&out.latency.update, log.latency.update);
  }
  out.query_items = s.query_items();

  // ------------------------------------------- correctness, at quiescence
  const Clock::time_point gate_start = Clock::now();
  if (update_mix) {
    GateUpdates(s, service, ids, logs, &out);
  } else {
    GateStatic(s, logs, &out);
  }
  out.gate_s = Seconds(gate_start, Clock::now());
  if (keep_logs) out.logs = std::move(logs);
  return out;
}

}  // namespace servebench
