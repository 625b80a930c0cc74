"""Smoke test of the benchmark harness.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json at its tiny size, untraced and traced,
and checks that each run exits 0, prints exactly the result keys, reports
every metric BENCHMARK.json names with its unit, and has no failed op
(ok_ratio 1, so fail_ratio 0).  Then checks that the benchmark exits non-zero
without a result in a directory that holds only BENCHMARK.json and
perfbench/.  Exits 1 and lists the problems if any check fails.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_run(spec, workload, trace):
    kind = "per_layer" if trace else "end_to_end"
    proc = run_bench(ROOT, workload, trace)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-1000:]}"]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(line) != RESULT_KEYS:
        problems.append(f"result keys {sorted(line)}")
    want = {m["name"]: m["unit"] for m in spec[kind]}
    got = {name: m["unit"] for name, m in line["metrics"].items()}
    if got != want:
        problems.append(f"{kind} metrics differ from BENCHMARK.json: "
                        f"missing {sorted(want.keys() - got.keys())}, "
                        f"extra {sorted(got.keys() - want.keys())}, "
                        f"units {sorted(n for n in want.keys() & got.keys() if want[n] != got[n])}")
    if not line["correct"] or line["failed"] != 0 or line["attempted"] < 1:
        problems.append(f"attempted {line['attempted']}, failed {line['failed']}, "
                        f"correct {line['correct']}")
    if not trace and line["metrics"]["ok_ratio"]["value"] != 1.0:
        problems.append("ok_ratio is not 1")
    return problems


def check_bare_directory(workload):
    """Without the program's sources the benchmark must fail, not report."""
    bare = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, workload, 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"exit code {proc.returncode} and stdout {proc.stdout[-200:]!r}"]
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems += [f"{workload} --trace {trace}: {p}"
                         for p in check_run(spec, workload, trace)]
    first = spec["workloads"][0]["name"]
    problems += [f"bare directory: {p}" for p in check_bare_directory(first)]
    for p in problems:
        print(p, file=sys.stderr)
    print("smoke: FAIL" if problems else "smoke: ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
