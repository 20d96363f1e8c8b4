// The traced run: a replay of one pass's stream that calls each layer's
// public functions directly, in the order `ViewCache::ScanViews` uses, and
// records a span around every call. The spans give per-layer call counts
// and self times; the replay's answers must equal the Service's.

#ifndef XPV_SERVEBENCH_REPLAY_H_
#define XPV_SERVEBENCH_REPLAY_H_

#include <string>
#include <tuple>
#include <vector>

#include "measure.h"
#include "stream.h"

namespace servebench {

struct ReplayInputs {
  const Stream* stream = nullptr;  ///< The stream of pass 0.
  /// The Service's answers to that stream, per client.
  const std::vector<ClientLog>* logs = nullptr;
  /// Untraced median per-call latency of the same pass.
  double untraced_p50_us = 0;
  ServiceDeltas deltas;            ///< Service counters over pass 0's loop.
  int workers = 1;                 ///< `AnswerBatch` worker count.
  std::string spans_path;          ///< When set, every span is written here.
};

struct ReplayReport {
  /// (name, unit, value) of every per-layer metric, in report order.
  std::vector<std::tuple<std::string, std::string, double>> metrics;
  std::vector<std::string> mismatches;  ///< Empty when the replay agreed.
};

/// Replays the stream twice (spans off, then on), prints the per-layer
/// table with each metric's target, and returns the metrics.
ReplayReport RunReplay(const ReplayInputs& in);

}  // namespace servebench

#endif  // XPV_SERVEBENCH_REPLAY_H_
