#!/usr/bin/env python3
"""End-to-end caldb benchmark: build perfbench from source, run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload adhoc_mixed --seed 1 --seconds 10 --trace 0

Workloads: adhoc_mixed, prepared_durable and rule_firing, the ones
BENCHMARK.json lists, and calendar_sessions (see perfbench/README.md).
--trace 0 reports the end-to-end metrics,
--trace 1 the per-layer ones.  The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it,
"PERFBENCH {...}", holds every metric of the workload plus the
environment stamp.  --out FILE appends both, as one JSON line, to FILE
for perfbench/compare.py.  --smoke runs tiny inputs for a fraction of a
second (perfbench/smoke_test.py).

The build goes to $CARGO_TARGET_DIR (default .bench_build)/perfbench, an
optimized CMake build of perfbench/ that compiles the library from src/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORKLOADS = ("adhoc_mixed", "prepared_durable", "calendar_sessions", "rule_firing")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_root():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures (once) and builds perfbench; returns the binary's path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no caldb sources under {ROOT / 'src'}; run from a full checkout")
    build_dir = build_root() / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-20000:])
            fail("build failed: " + " ".join(step))
    return build_dir / "perfbench"


def git_sha():
    """HEAD's commit from .git, without running git or leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", help="append this run's record to FILE")
    args = parser.parse_args()

    binary = build()
    work_dir = build_root() / "perfbench-work"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir), "--git-sha", git_sha()]
    if args.smoke:
        cmd.append("--smoke")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("PERFBENCH "):
        fail(f"{args.workload} exited with code {done.returncode}")
    detail = json.loads(lines[-2][len("PERFBENCH "):])
    result = json.loads(lines[-1])

    if args.out:
        record = dict(detail, seed=args.seed, result=result)
        with open(args.out, "a") as out:
            out.write(json.dumps(record, sort_keys=True) + "\n")
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
