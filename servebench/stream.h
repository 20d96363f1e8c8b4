// Seeded request streams for the serving benchmark.
//
// A stream is everything one measured pass sends to an `xpv::Service`:
// the documents (as XML text), the view definitions (as XPath text), the
// warm-up requests and one request list per client. It is a pure function
// of (workload, seed, pass, clients): the same arguments produce a
// byte-identical `Serialize` output, which `stream_test` checks.
//
// The generator owns one shadow tree per document. Update deltas are drawn
// from the shadow and applied to it, so no delta is ever built from
// `Service::document()` while clients are running; each document has a
// single writer client, and `history` keeps every delta so the correctness
// gate can rebuild any intermediate document state.

#ifndef XPV_SERVEBENCH_STREAM_H_
#define XPV_SERVEBENCH_STREAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "xml/tree.h"

namespace servebench {

enum class Workload { kHotAnswer, kColdBatch, kUpdateMix };

/// Fixed shape of one workload. Every count is per pass.
struct WorkloadSpec {
  Workload kind = Workload::kHotAnswer;
  const char* name = "";
  int documents = 0;          ///< Documents registered with the Service.
  int doc_nodes = 0;          ///< Nodes per generated document (max).
  int views_per_doc = 0;      ///< Views materialized on every document.
  int pool_queries = 0;       ///< Hot pool: distinct queries per document.
  double zipf_s = 0;          ///< Hot pool: Zipf exponent over the keys.
  int requests_per_client = 0;  ///< Answer/update calls, or batches.
  int batch_items = 0;        ///< Cold batch: items per AnswerBatch call.
  int warmup_batches = 0;     ///< Cold batch: batches sent during set-up.
  /// Every call is timed; one call in `latency_stride` (by position in its
  /// client's list) keeps its latency for the percentiles, so the samples
  /// a long run keeps stay small beside the Service's own memory.
  int latency_stride = 1;
  /// Timed-loop seconds of one pass on a 4-core x86 host. A run of
  /// `--seconds S` measures a fixed S / pass_seconds passes, so every run
  /// with the same arguments does the same work whatever the host's speed.
  double pass_seconds = 1;
  double write_fraction = 0;  ///< Update mix: share of calls that write.
};

/// The spec for `name`, or nullptr when no workload has that name.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Every workload, in the order the smoke mode runs them.
std::vector<const WorkloadSpec*> AllWorkloads();

/// One request of a client, 8 bytes: query requests name a hot-pool key
/// (`Answer`) or a batch (`AnswerBatch`); writes name an entry of
/// `Stream::updates` for the client's own document (`UpdateDocument`).
struct Request {
  enum class Kind : uint8_t { kAnswer, kBatch, kUpdate };
  Kind kind = Kind::kAnswer;
  int32_t index = -1;  ///< Into `pool`, `batches` or `updates` by kind.
};

/// One document write: the delta that turns `version - 1` into `version`.
struct Update {
  int doc = -1;
  int version = 0;
  xpv::DocumentDelta delta;
};

/// A (document, XPath) pair: one hot-pool key or one batch item.
struct QueryKey {
  int doc = 0;
  std::string xpath;
};

/// Everything one pass sends.
struct Stream {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  int pass = 0;
  int clients = 0;

  std::vector<std::string> doc_xml;  ///< Per document.
  /// Per document: (name, XPath) of every view, in registration order.
  std::vector<std::vector<std::pair<std::string, std::string>>> views;

  std::vector<QueryKey> pool;                 ///< Hot keys (hot, update).
  std::vector<std::vector<QueryKey>> batches;  ///< Cold batches.
  std::vector<int> warmup_batches;            ///< Indices into `batches`.
  std::vector<std::vector<Request>> requests;  ///< Per client.
  std::vector<Update> updates;  ///< Named by kUpdate requests.

  /// Update mix only: per document, every delta in version order
  /// (`history[d][v]` turns version v into v + 1) and the final shadow
  /// tree the Service's document must equal at quiescence.
  std::vector<std::vector<xpv::DocumentDelta>> history;
  std::vector<xpv::Tree> final_docs;

  /// Query calls (`Answer` calls plus batch items) and update calls.
  uint64_t query_items() const;
  uint64_t update_calls() const;
};

/// Builds the stream of pass `pass` for `spec` under `seed`: every pass of
/// a run is a different but fixed draw of documents, views, hot pool and
/// requests.
Stream BuildStream(const WorkloadSpec& spec, uint64_t seed, int pass,
                   int clients);

/// Canonical byte encoding of the whole stream (documents, views, pool,
/// batches, every request and delta). Equal streams serialize equally.
std::string Serialize(const Stream& stream);

/// Which client writes document `doc` (each document has one writer).
inline int WriterOf(int doc, int clients) { return doc % clients; }

}  // namespace servebench

#endif  // XPV_SERVEBENCH_STREAM_H_
