#!/usr/bin/env python3
"""Builds and runs the xpv serving benchmark.

Run from the root of a source checkout:

    python3 servebench/run.py --workload hot-answer --seed 1 --seconds 10 --trace 0
    python3 servebench/run.py --smoke          # every workload briefly, gate on
    python3 servebench/run.py --test           # stream determinism test
    python3 servebench/run.py --compare A B    # two saved outputs side by side

The first call configures and builds `servebench/` (which compiles the
library from `src/`) into `$CARGO_TARGET_DIR`, or `.bench_build` when that
is unset; later calls only rebuild what changed. Build output goes to
standard error, so the last line of standard output is the benchmark's JSON
result. The exit status is the benchmark's: 0 only when every answer was
correct.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 175
# Provenance fields that must agree for two results to be compared.
COMPARABLE = ("workload", "nproc", "cpu", "simd", "build_type", "passes",
              "query_items_per_pass", "updates_per_pass", "clients",
              "batch_workers")
# Above this share of CPU time stolen by the hypervisor, timings mostly
# measure the other guests on the host.
MAX_STEAL = 0.02


def fail(message):
    print(f"servebench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no xpv sources next to {BENCH_DIR.name}/ (expected "
             "CMakeLists.txt and src/ in the checkout root)")
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps.append(["cmake", "--build", str(out), "-j", jobs, "--target",
                  "servebench", "stream_test"])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return out


def source_id():
    """The git commit, or a digest of the sources outside a git checkout."""
    try:
        sha = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cc", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree:" + digest.hexdigest()[:12]


def run(binary, args):
    try:
        done = subprocess.run([str(binary)] + args, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{binary.name} did not finish within {RUN_TIMEOUT_S} s")
    return done.returncode


def parse_output(path):
    provenance, result = None, None
    for line in Path(path).read_text().splitlines():
        if line.startswith("provenance "):
            provenance = json.loads(line[len("provenance "):])
        elif line.startswith("{"):
            result = json.loads(line)
    if provenance is None or result is None:
        fail(f"{path}: no provenance line or no result line")
    return provenance, result


def compare(a, b):
    """Prints two results side by side, or why they are not comparable."""
    (pa, ra), (pb, rb) = parse_output(a), parse_output(b)
    differ = [k for k in COMPARABLE if pa.get(k) != pb.get(k)]
    if differ:
        print("not comparable: provenance differs in " + ", ".join(
            f"{k} ({pa.get(k)!r} vs {pb.get(k)!r})" for k in differ))
        return 1
    noisy = [p.get("steal_frac", 0) for p in (pa, pb)
             if p.get("steal_frac", 0) > MAX_STEAL]
    if noisy:
        print(f"not comparable: the hypervisor took {max(noisy):.1%} of the "
              f"CPU during a run (limit {MAX_STEAL:.0%})")
        return 1
    if pa.get("seed") != pb.get("seed"):
        print(f"note: different seeds ({pa.get('seed')} vs {pb.get('seed')})")
    print(f"{'metric':34} {'A':>16} {'B':>16} {'B/A':>8}")
    for name, ma in ra["metrics"].items():
        mb = rb["metrics"].get(name)
        if mb is None:
            continue
        ratio = mb["value"] / ma["value"] if ma["value"] else float("nan")
        print(f"{name:34} {ma['value']:16.6g} {mb['value']:16.6g} "
              f"{ratio:8.3f}  {ma['unit']}")
    return 0


def main(argv):
    if argv[:1] == ["--compare"]:
        if len(argv) != 3:
            fail("usage: run.py --compare A B")
        return compare(argv[1], argv[2])
    out = build()
    if argv == ["--test"]:
        return run(out / "stream_test", [])
    if argv == ["--smoke"]:
        return run(out / "servebench", ["--smoke", "--source-id", source_id()])
    return run(out / "servebench", argv + ["--source-id", source_id()])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
