#!/usr/bin/env python3
"""The benchmark's own test: every workload, both trace modes, --smoke.

    python3 perfbench/smoke_test.py

Checks that each run exits 0 and that its last stdout line is the result
object BENCHMARK.json describes: exactly the keys correct, attempted,
failed and metrics; correct is true; every listed metric is present
with its unit, and no other.  It then feeds the runs' --out records to
compare.py.  Exits non-zero on the first mismatch.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, str(ROOT / "perfbench"))
from run import WORKLOADS  # noqa: E402  (every workload, listed or not)


def check(condition, message):
    if not condition:
        sys.exit(f"smoke_test: FAIL: {message}")


def expected(trace):
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    return {m["name"]: m["unit"] for m in listed}


def main():
    work = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    work.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        out = Path(tmp) / "smoke.jsonl"
        for workload in WORKLOADS:
            for trace in (0, 1):
                cmd = SPEC["command"] + ["--workload", workload, "--seed", "7",
                                         "--seconds", "1", "--trace", str(trace),
                                         "--smoke", "--out", str(out)]
                done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                      text=True, timeout=900)
                what = f"{workload} --trace {trace}"
                check(done.returncode == 0, f"{what} exited {done.returncode}")
                result = json.loads(done.stdout.splitlines()[-1])
                check(set(result) == {"correct", "attempted", "failed", "metrics"},
                      f"{what}: result keys {sorted(result)}")
                check(result["correct"] is True and result["failed"] == 0,
                      f"{what}: {result['failed']} failed operations")
                check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
                      f"{what}: attempted {result['attempted']}")
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                check(got == expected(trace), f"{what}: metrics {sorted(got)}")
                for name, metric in result["metrics"].items():
                    check(isinstance(metric["value"], (int, float)),
                          f"{what}: {name} is not a number")
                print(f"smoke_test: ok {what}")
        done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "compare.py"),
                               str(out), str(out)], stdout=subprocess.PIPE, text=True)
        check(done.returncode == 0, "compare.py failed")
        check("unchanged" in done.stdout and "worse" not in done.stdout,
              "compare.py of a result set against itself must be all unchanged")
        print("smoke_test: ok compare.py")


if __name__ == "__main__":
    main()
