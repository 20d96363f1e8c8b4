// One measured pass of a workload against a fresh `xpv::Service`, and the
// correctness gate that checks it.

#ifndef XPV_SERVEBENCH_MEASURE_H_
#define XPV_SERVEBENCH_MEASURE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "api/service.h"
#include "stream.h"

namespace servebench {

/// Per-call latencies in nanoseconds, one vector per call type (every
/// `latency_stride`-th call of each client).
struct Latencies {
  std::vector<int64_t> answer;
  std::vector<int64_t> batch;
  std::vector<int64_t> update;
};

/// The digest a failed answer is logged with.
inline constexpr uint64_t kFailedDigest = ~uint64_t{0};

/// What one client saw, in its own request order.
struct ClientLog {
  Latencies latency;
  /// One digest per answered query (Answer call or batch item), or
  /// `kFailedDigest` when that item failed.
  std::vector<uint64_t> digests;
  /// Update mix: per Answer call, the range of versions of its document
  /// the answer may reflect (see `VersionGuard` in measure.cc).
  std::vector<std::pair<uint32_t, uint32_t>> versions;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// Counters read from the Service over the timed loop only (after minus
/// before), for the per-layer report.
struct ServiceDeltas {
  uint64_t memo_hits = 0;
  uint64_t memo_misses = 0;
  uint64_t memo_evictions = 0;
  uint64_t memo_joins = 0;
  uint64_t oracle_hits = 0;
  uint64_t oracle_misses = 0;
  uint64_t pool_threads = 0;
  uint64_t pool_queue_rejections = 0;
  uint64_t views_patched = 0;
  uint64_t views_rematerialized = 0;
  uint64_t views_untouched = 0;
  uint64_t update_fallbacks = 0;
};

struct PassResult {
  double setup_s = 0;     ///< Parse + materialize + warm-up.
  double loop_s = 0;      ///< Wall time of the timed loop.
  double gate_s = 0;      ///< Correctness gate (not measured).
  double rss_mb = 0;      ///< Resident memory right after the timed loop.
  uint64_t query_items = 0;
  uint64_t attempted = 0;  ///< Answer calls + batch items + update calls.
  uint64_t failed = 0;     ///< Non-ok ServiceResults among them.
  uint64_t checked = 0;    ///< Answers compared with the reference.
  std::vector<std::string> mismatches;  ///< Empty when the gate passed.
  Latencies latency;
  ServiceDeltas deltas;
  std::vector<ClientLog> logs;  ///< Per client; only with `keep_logs`.
};

/// Runs one pass: builds a Service with default options, registers the
/// stream's documents and views, warms it up, runs the clients, and then,
/// at quiescence, runs the correctness gate. `workers` is the
/// `AnswerBatch` worker count; `keep_logs` keeps the clients' answer logs
/// for the traced replay to compare against.
PassResult RunPass(Stream& stream, int workers, bool keep_logs);

/// The canonical 64-bit digest of an answer's node ids.
uint64_t AnswerDigest(const std::vector<xpv::NodeId>& outputs);

/// The median of `v` (0 when empty).
double Median(std::vector<double> v);

}  // namespace servebench

#endif  // XPV_SERVEBENCH_MEASURE_H_
