// The serving benchmark: one command that drives an `xpv::Service` with a
// seeded request stream, checks every timed answer, and prints the
// end-to-end metrics (untraced) or the per-layer breakdown (traced).
//
//   servebench --workload hot-answer --seed 1 --seconds 10 --trace 0
//   servebench --smoke        # every workload briefly, gate on
//
// The last line of standard output is one JSON object with the keys
// `correct`, `attempted`, `failed` and `metrics`. A wrong answer or a
// malformed stream prints `"correct": false` and exits with status 1.

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "measure.h"
#include "replay.h"
#include "stream.h"

#ifndef XPVBENCH_SIMD
#define XPVBENCH_SIMD "unknown"
#endif
#ifndef XPVBENCH_BUILD_TYPE
#define XPVBENCH_BUILD_TYPE "unknown"
#endif

namespace servebench {
namespace {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string source_id = "unknown";
  std::string spans_path;
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "servebench: %s\n"
               "usage: servebench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--source-id ID] [--spans FILE]\n"
               "       servebench --smoke\n",
               why.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(a.seconds >= 0)) Usage("bad --seconds " + value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("bad --trace " + value);
      a.trace = value == "1";
    } else if (flag == "--source-id") {
      a.source_id = value;
    } else if (flag == "--spans") {
      a.spans_path = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!a.smoke && a.workload.empty()) Usage("--workload is required");
  return a;
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return 1;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// CPU ticks the hypervisor gave to other guests ("steal") and all ticks,
/// from the first line of /proc/stat.
std::pair<uint64_t, uint64_t> StealTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t steal = 0;
  uint64_t total = 0;
  in >> cpu;
  for (int field = 0; field < 10; ++field) {
    uint64_t v = 0;
    if (!(in >> v)) break;
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

double LoadAverage() {
  double load[1] = {-1};
  return getloadavg(load, 1) == 1 ? load[0] : -1;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// A percentile of a sample, reported only when at least `kBeyond`
/// samples lie beyond it.
struct Percentile {
  bool supported = false;
  double value = 0;  // Same unit as the samples.
  size_t n = 0;
  size_t beyond = 0;
};

constexpr size_t kBeyond = 10;

Percentile PercentileOf(std::vector<int64_t>& sorted_ns, double q) {
  Percentile p;
  p.n = sorted_ns.size();
  if (p.n == 0) return p;
  const double rank = q * static_cast<double>(p.n - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, p.n - 1);
  const double frac = rank - static_cast<double>(lo);
  p.value = static_cast<double>(sorted_ns[lo]) * (1 - frac) +
            static_cast<double>(sorted_ns[hi]) * frac;
  p.beyond = p.n - 1 - lo;
  p.supported = p.beyond >= kBeyond;
  return p;
}

/// A percentile over every call type together.
Percentile CallsPercentile(const Latencies& l, double q) {
  std::vector<int64_t> calls;
  for (const auto* v : {&l.answer, &l.batch, &l.update}) {
    calls.insert(calls.end(), v->begin(), v->end());
  }
  std::sort(calls.begin(), calls.end());
  return PercentileOf(calls, q);
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

struct RunSummary {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;  // Printed in the final JSON line.
};

std::string ResultJson(const RunSummary& r) {
  std::string out = "{\"correct\": " + std::string(r.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(r.metrics[i].name) + ": {\"value\": " +
           Num(r.metrics[i].value) + ", \"unit\": " +
           JsonString(r.metrics[i].unit) + "}";
  }
  return out + "}}";
}

void PrintPercentiles(const char* call, const char* unit, double scale,
                      std::vector<int64_t> ns) {
  std::sort(ns.begin(), ns.end());
  for (const auto& [label, q] : {std::pair<const char*, double>{"p50", 0.50},
                                 {"p99", 0.99}}) {
    const Percentile p = PercentileOf(ns, q);
    if (ns.empty()) {
      std::printf("  %s_%s_%s  absent (no %s calls in this workload)\n", call,
                  label, unit, call);
    } else if (!p.supported) {
      std::printf("  %s_%s_%s  not reported: %zu samples, %zu beyond (< %zu)\n",
                  call, label, unit, p.n, p.beyond, kBeyond);
    } else {
      std::printf("  %s_%s_%s  %.4f %s  (n=%zu, %zu beyond)\n", call, label,
                  unit, p.value * scale, unit, p.n, p.beyond);
    }
  }
}

/// Runs the untraced passes of one workload and, with `trace`, the traced
/// replay. Prints the human-readable report; returns the JSON summary.
RunSummary RunWorkload(const WorkloadSpec& spec, const Args& args,
                       double seconds, int min_passes, size_t min_calls) {
  const int nproc = Nproc();
  const Clock::time_point run_start = Clock::now();
  const auto [steal_start, ticks_start] = StealTicks();
  const double load_start = LoadAverage();
  RunSummary summary;
  std::vector<double> setups;
  std::vector<double> throughputs;
  std::vector<double> rss;
  Latencies all;
  std::vector<ClientLog> first_logs;  // Pass 0, for the traced replay.
  ServiceDeltas first_deltas;
  double first_p50_us = 0;
  uint64_t checked = 0;
  double loop_total = 0;
  uint64_t items_total = 0;
  int passes = 0;
  std::vector<std::string> mismatches;
  double gen_s = 0;
  double gate_s = 0;
  // A fixed number of whole passes: `seconds` worth on the reference host
  // (see WorkloadSpec::pass_seconds), and at least enough for `min_calls`
  // kept latency samples. Only the wall-clock guard, which keeps a slow
  // host inside the run's time limit, can end a run early.
  int planned = min_passes;
  while (passes < planned &&
         std::chrono::duration<double>(Clock::now() - run_start).count() <
             90.0) {
    const Clock::time_point gen_start = Clock::now();
    Stream stream = BuildStream(spec, args.seed, passes, nproc);
    gen_s += std::chrono::duration<double>(Clock::now() - gen_start).count();
    if (passes == 0) {
      size_t kept_per_pass = 0;
      const size_t stride = static_cast<size_t>(spec.latency_stride);
      for (const auto& requests : stream.requests) {
        kept_per_pass += (requests.size() + stride - 1) / stride;
      }
      planned = std::max(
          {min_passes,
           static_cast<int>(std::ceil(seconds / spec.pass_seconds)),
           static_cast<int>((min_calls + kept_per_pass - 1) /
                            std::max<size_t>(kept_per_pass, 1))});
      // Size and touch the pooled samples once, so the harness's share of
      // the resident memory read after every pass is the same.
      for (std::vector<int64_t>* v : {&all.answer, &all.batch, &all.update}) {
        v->resize(kept_per_pass * static_cast<size_t>(planned));
        v->clear();
      }
    }
    PassResult r = RunPass(stream, nproc, args.trace && passes == 0);
    if (passes == 0) {
      first_logs = std::move(r.logs);
      first_deltas = r.deltas;
      first_p50_us = CallsPercentile(r.latency, 0.50).value * 1e-3;
    }
    gate_s += r.gate_s;
    setups.push_back(r.setup_s);
    throughputs.push_back(static_cast<double>(r.query_items) / r.loop_s);
    rss.push_back(r.rss_mb);
    loop_total += r.loop_s;
    items_total += r.query_items;
    summary.attempted += r.attempted;
    summary.failed += r.failed;
    checked += r.checked;
    for (auto [to, from] : {std::pair{&all.answer, &r.latency.answer},
                            std::pair{&all.batch, &r.latency.batch},
                            std::pair{&all.update, &r.latency.update}}) {
      to->insert(to->end(), from->begin(), from->end());
    }
    mismatches.insert(mismatches.end(), r.mismatches.begin(),
                      r.mismatches.end());
    ++passes;
    if (!r.mismatches.empty()) break;
  }

  const auto [steal_end, ticks_end] = StealTicks();
  const double steal =
      ticks_end > ticks_start
          ? static_cast<double>(steal_end - steal_start) /
                static_cast<double>(ticks_end - ticks_start)
          : 0;
  std::printf(
      "servebench %s seed %llu: %d of %d passes, %.3f s timed "
      "(stream generation %.3f s, correctness gate %.3f s, host steal "
      "%.1f%%)\n",
      spec.name, static_cast<unsigned long long>(args.seed), passes, planned,
      loop_total, gen_s, gate_s, steal * 100);
  const Stream first = BuildStream(spec, args.seed, 0, nproc);
  std::printf(
      "provenance {\"workload\": %s, \"seed\": %llu, \"nproc\": %d, "
      "\"cpu\": %s, \"loadavg_start\": %.2f, \"steal_frac\": %.4f, "
      "\"source\": %s, \"simd\": %s, "
      "\"build_type\": %s, \"passes\": %d, \"query_items_per_pass\": %llu, "
      "\"updates_per_pass\": %llu, \"clients\": %zu, \"batch_workers\": %d}\n",
      JsonString(spec.name).c_str(),
      static_cast<unsigned long long>(args.seed), nproc,
      JsonString(CpuModel()).c_str(), load_start, steal,
      JsonString(args.source_id).c_str(), JsonString(XPVBENCH_SIMD).c_str(),
      JsonString(XPVBENCH_BUILD_TYPE).c_str(), passes,
      static_cast<unsigned long long>(first.query_items()),
      static_cast<unsigned long long>(first.update_calls()),
      first.requests.size(), nproc);

  const Percentile p50 = CallsPercentile(all, 0.50);
  const Percentile p99 = CallsPercentile(all, 0.99);
  const double setup_s = Median(setups);
  const double qps = Median(throughputs);
  const double rss_mb = Median(rss);

  std::printf("end-to-end (untraced):\n");
  std::printf("  setup_s  %.6f s  (median of %zu set-ups)\n", setup_s,
              setups.size());
  std::vector<double> sorted_qps = throughputs;
  std::sort(sorted_qps.begin(), sorted_qps.end());
  std::printf("  throughput_qps  %.1f 1/s  (median of %d passes; min %.1f, "
              "max %.1f; all passes together %.1f)\n",
              qps, passes, sorted_qps.front(), sorted_qps.back(),
              static_cast<double>(items_total) / loop_total);
  PrintPercentiles("answer", "us", 1e-3, all.answer);
  PrintPercentiles("batch", "ms", 1e-6, all.batch);
  PrintPercentiles("update", "us", 1e-3, all.update);
  std::printf("  latency_p50_us  %.4f us  (all calls, n=%zu)\n", p50.value * 1e-3,
              p50.n);
  std::printf("  latency_p99_us  %.4f us  (all calls, n=%zu, %zu beyond)\n",
              p99.value * 1e-3, p99.n, p99.beyond);
  std::printf("  failed_frac  %.6g  (%llu of %llu operations)\n",
              summary.attempted == 0
                  ? 0.0
                  : static_cast<double>(summary.failed) /
                        static_cast<double>(summary.attempted),
              static_cast<unsigned long long>(summary.failed),
              static_cast<unsigned long long>(summary.attempted));
  std::printf("  rss_mb  %.3f MB  (median of %d passes)\n", rss_mb, passes);

  if (min_calls > 0 && !p99.supported) {
    mismatches.push_back("too few calls for latency_p99_us: " +
                         std::to_string(p99.n));
  }

  if (args.trace && mismatches.empty()) {
    ReplayInputs in;
    in.stream = &first;
    in.logs = &first_logs;
    in.untraced_p50_us = first_p50_us;
    in.deltas = first_deltas;
    in.workers = nproc;
    in.spans_path = args.spans_path;
    ReplayReport rep = RunReplay(in);
    mismatches.insert(mismatches.end(), rep.mismatches.begin(),
                      rep.mismatches.end());
    for (const auto& [name, unit, value] : rep.metrics) {
      summary.metrics.push_back(Metric{name, unit, value});
    }
  } else if (!args.trace) {
    summary.metrics = {{"setup_s", "s", setup_s},
                       {"throughput_qps", "1/s", qps},
                       {"latency_p50_us", "us", p50.value * 1e-3},
                       {"latency_p99_us", "us", p99.value * 1e-3},
                       {"rss_mb", "MB", rss_mb}};
  }

  std::printf("correctness: %llu answers compared with reference::Eval%s\n",
              static_cast<unsigned long long>(checked),
              spec.kind == Workload::kUpdateMix
                  ? " (1 read in 8, plus every final document)"
              : spec.kind == Workload::kColdBatch ? " (1 batch item in 4)"
                                                  : " (every answer)");
  for (size_t i = 0; i < mismatches.size() && i < 10; ++i) {
    std::printf("  MISMATCH: %s\n", mismatches[i].c_str());
  }
  summary.correct = mismatches.empty();
  return summary;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  if (args.smoke) {
    bool ok = true;
    RunSummary last;
    for (const WorkloadSpec* spec : AllWorkloads()) {
      Args one = args;
      one.trace = true;
      last = RunWorkload(*spec, one, 0, 1, 0);
      ok = ok && last.correct && last.failed == 0;
    }
    last.correct = ok;
    std::printf("%s\n", ResultJson(last).c_str());
    return ok ? 0 : 1;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) Usage("unknown workload " + args.workload);
  // 1000 kept calls leave 10 beyond the 99th percentile.
  RunSummary summary = RunWorkload(*spec, args, args.seconds, 3, 1000);
  std::printf("%s\n", ResultJson(summary).c_str());
  return summary.correct ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) { return servebench::Main(argc, argv); }
