"""Write golden.json: what the seed commit outputs for every pool seed.

    python3 perfbench/golden.py

For each workload, size and program seed in the pool it stores the value
run.observe() returns: the sha256 of records.csv for sweep and consistency,
and the L2(mu_n) distance from u to the continuum minimiser for denoise.
Regenerate it only at a commit whose outputs define correct, and say so in
the change that does: every later op is checked against this file.
"""

import json
import os
import shutil
import sys
import tempfile

import run


def main():
    sys.path.insert(0, run.SRC)
    import polylap.cli  # noqa: F401  (shared by every forked op)

    golden = {}
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT)
    try:
        outdir = os.path.join(workdir, "op")
        for workload, sizes in run.WORKLOADS.items():
            for size, args in sizes.items():
                values = golden.setdefault(workload, {}).setdefault(size, {})
                for seed in range(run.SEED_POOL):
                    argv = args + [f"--seed={seed}"]
                    result, _ = run.run_op(argv, outdir, traced=False)
                    if result is None or result["rc"] != 0:
                        raise SystemExit(f"{workload} {size} seed {seed} failed")
                    values[str(seed)] = run.observe(argv, outdir)
                print(workload, size, "done", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(run.HERE, "golden.json"), "w", encoding="utf-8") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
