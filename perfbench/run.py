"""polylap benchmark: four CLI workloads, timed untraced or traced per module.

Run from the root of a checkout:

    python3 perfbench/run.py --workload denoise_d2 --seed 0 --seconds 30 --trace 0

One op is one call of the public entry point `polylap.cli.main` with the
workload's generated arguments.  Ops run one at a time, each in a fresh child
forked from this process after `polylap.cli` is imported, so the child's peak
RSS belongs to that op alone and no op pays the interpreter start-up, which
`setup_s` measures on its own.  Ops repeat until `--seconds` have passed;
the set-up measurements are spread over the same seconds, between ops.
Every op is checked against golden outputs of the seed commit (golden.json).

`--trace 0` reports the end-to-end metrics; `--trace 1` alternates untraced
and traced ops and reports per-module numbers (see spans.py).  The last line
of stdout is the JSON result; the line before it records the environment.
DESIGN.md explains the workloads, the metrics and what each should move.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from time import perf_counter

# Pinned before NumPy loads here, so every forked op inherits one BLAS thread.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)

import spans  # noqa: E402  (loads NumPy)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SEED_POOL = 32  # program seeds with golden outputs; --seed is reduced modulo this
TAIL_PERCENTILE = 75  # ten ops lie beyond it once a run makes 40 ops
SETUP_REPEATS = 5
NOMINAL_REFERENCE_S = 0.1  # reference kernel seconds on the nominal host
OP_TIMEOUT_S = 60
DIST_RTOL = 1e-6  # solving to tol 1e-13 instead of 1e-10 moved it by 2e-11

D2_MODES = "--modes=1,0:1.0:0.0;0,2:0.0:0.5"
D3_MODES = "--modes=1,0,0:1.0:0.0;0,2,1:0.0:0.5"

# Generated CLI arguments per workload and size; "tiny" is for smoke.py.
WORKLOADS = {
    "denoise_d2": {
        "full": ["denoise", "--d=2", "--n=3400", "--eps=0.05", "--s=2", "--tau=0.01",
                 "--tol=1e-10", D2_MODES],
        "tiny": ["denoise", "--d=2", "--n=400", "--eps=0.15", "--s=2", "--tau=0.01",
                 "--tol=1e-10", D2_MODES],
    },
    "denoise_d3": {
        "full": ["denoise", "--d=3", "--n=5200", "--eps=0.125", "--s=1", "--tau=0.001",
                 "--tol=1e-10", D3_MODES],
        "tiny": ["denoise", "--d=3", "--n=600", "--eps=0.25", "--s=1", "--tau=0.001",
                 "--tol=1e-10", D3_MODES],
    },
    "consistency_d1": {
        "full": ["consistency", "--eps_grid=0.2,0.14,0.1", "--trials=2", "--k_mult=2.9"],
        "tiny": ["consistency", "--eps_grid=0.3,0.2", "--trials=2", "--k_mult=0.5"],
    },
    "sweep_d1": {
        "full": ["sweep", "--d=1", "--s=1", "--n_grid=1024,2048,4096,8192,16384,32768",
                 "--trials=7", "--threads=1"],
        "tiny": ["sweep", "--d=1", "--s=1", "--n_grid=256,512", "--trials=2",
                 "--threads=1"],
    },
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def per_layer_units():
    units = {m: ("count" if m.endswith(".calls") else "s") for m, _, _ in spans.SPAN_METRICS}
    units.update({m: "count" for m in spans.COUNT_METRICS})
    units["graph.apply.bytes_computed"] = "B"
    units["graph.apply.flops"] = "flop"
    units["cli.records_bytes"] = "B"
    units["trace_overhead_s"] = "s"
    return units


class GateError(Exception):
    """An op's output differs from what the seed commit produced."""


def cli_params(argv):
    return dict(a[2:].split("=", 1) for a in argv[1:])


def points_per_op(argv):
    """Cloud points one op samples and processes."""
    from polylap.experiments import default_n_rule

    p = cli_params(argv)
    trials = int(p.get("trials", 1))
    if argv[0] == "denoise":
        return int(p["n"])
    if argv[0] == "sweep":
        return trials * sum(int(n) for n in p["n_grid"].split(","))
    rule = default_n_rule(float(p["k_mult"]), 1, 1)
    return trials * sum(rule(float(e)) for e in p["eps_grid"].split(","))


def observe(argv, outdir):
    """The output the gate compares with golden.json.

    sweep and consistency: the sha256 of records.csv, which must be
    byte-identical.  denoise: after checking the reported residual against
    tol, the L2(mu_n) distance from u to the exact continuum minimiser at the
    nodes.
    """
    with open(os.path.join(outdir, "records.csv"), "rb") as f:
        records = f.read()
    if argv[0] != "denoise":
        return hashlib.sha256(records).hexdigest()

    import numpy as np
    from polylap.cli import parse_modes
    from polylap.continuum import continuum_solve_uniform
    from polylap.geometry import INDICATOR, sigma_eta

    p = cli_params(argv)
    d, n = int(p["d"]), int(p["n"])
    with open(os.path.join(outdir, "summary.json"), encoding="utf-8") as f:
        residual = json.load(f)["solver_residual"]
    if not residual <= float(p["tol"]):
        raise GateError(f"solver_residual {residual} exceeds tol {p['tol']}")
    data = np.loadtxt(records.decode().splitlines()[1:], delimiter=",", ndmin=2)
    if data.shape != (n, d + 2):
        raise GateError(f"records.csv has shape {data.shape}, want {(n, d + 2)}")
    u_star = continuum_solve_uniform(
        parse_modes(p["modes"], d), float(p["tau"]), int(p["s"]),
        sigma_eta(INDICATOR, d),
    )
    x, u = data[:, :d], data[:, d + 1]
    return float(np.sqrt(np.mean((u - u_star.evaluate(x)) ** 2)))


def check(observed, golden):
    if isinstance(golden, str):
        if observed != golden:
            raise GateError(f"records.csv sha256 {observed} differs from golden {golden}")
    elif not abs(observed / golden - 1.0) <= DIST_RTOL:
        raise GateError(f"distance to continuum minimiser {observed!r} differs from "
                        f"golden {golden!r} by more than {DIST_RTOL:g} relative")


def _child(argv, outdir, traced, read_fd, write_fd):
    """Body of the forked op process; never returns."""
    code = 1
    try:
        os.close(read_fd)
        signal.alarm(OP_TIMEOUT_S)  # default action ends the child
        log = os.open(os.path.join(outdir, "log.txt"), os.O_WRONLY | os.O_CREAT, 0o644)
        os.dup2(log, 1)
        os.dup2(log, 2)
        import polylap.cli as cli

        tracer = spans.Tracer() if traced else None
        if traced:
            spans.install(tracer)
        start = perf_counter()
        rc = cli.main(argv + ["--out", outdir])
        op_s = perf_counter() - start
        result = {"rc": rc, "op_s": op_s, "trace": spans.summary(tracer) if traced else None}
        with os.fdopen(write_fd, "w") as pipe:
            json.dump(result, pipe)
        code = 0
    except BaseException:
        traceback.print_exc()
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)


def run_op(argv, outdir, traced):
    """Run one op in a forked child; return (result or None, peak RSS in MB)."""
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        _child(argv, outdir, traced, read_fd, write_fd)
    os.close(write_fd)
    reaped = False
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            payload = pipe.read()
        _, status, usage = os.wait4(pid, 0)
        reaped = True
    finally:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    ok = os.waitstatus_to_exitcode(status) == 0 and payload
    return (json.loads(payload) if ok else None), usage.ru_maxrss / 1024.0


def gate(argv, outdir, result, golden):
    """None if the op is correct, else the reason it failed."""
    if result is None:
        return "op process did not finish"
    if result["rc"] != 0:
        return f"polylap exited with code {result['rc']}"
    try:
        check(observe(argv, outdir), golden)
    except (GateError, OSError, ValueError, KeyError) as err:
        return str(err)
    return None


def measure_setup():
    """Seconds for a fresh interpreter to import polylap and polylap.cli."""
    env = dict(os.environ, PYTHONPATH=SRC)
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import polylap, polylap.cli"], env=env,
                   cwd=ROOT, check=True, timeout=OP_TIMEOUT_S, stdout=subprocess.DEVNULL)
    return perf_counter() - start


class SpeedReference:
    """A fixed kernel, timed between ops, that tells how fast the host runs.

    On a shared host the same op takes up to 40% longer for minutes at a
    time when other tenants are busy.  The kernel is a frozen mix of the kind
    of work an op does (SciPy CSR products, a NumPy sort, an interpreter
    loop, each about a third) and is part of the benchmark, so no program
    change moves it.  Every timed event is scaled to the nominal host, where
    the kernel takes NOMINAL_REFERENCE_S, by the mean of the kernel times
    just before and just after it.
    """

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp

        rng = np.random.default_rng(0)
        n = 4500
        self.matrix = sp.random(n, n, density=80_000 / n**2, random_state=rng, format="csr")
        self.vector = rng.random(n)
        self.values = rng.random(300_000)
        self.sort = np.sort
        self.time()  # warm-up
        self.last = self.time()

    def time(self):
        start = perf_counter()
        for _ in range(350):
            self.matrix @ self.vector
        for _ in range(10):
            self.sort(self.values)
        total = 0
        for i in range(350_000):
            total += i * i
        return perf_counter() - start

    def scale(self):
        """Nominal seconds per host second for the event that just ended."""
        now = self.time()
        factor = 2 * NOMINAL_REFERENCE_S / (self.last + now)
        self.last = now
        return factor


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: os.environ[k] for k in PINNED_ENV},
    }


def percentile(values, pct):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[pct - 1]


def log_tail(outdir):
    try:
        with open(os.path.join(outdir, "log.txt"), encoding="utf-8", errors="replace") as f:
            return f.read()[-2000:]
    except OSError:
        return "(no log)"


def load_golden(workload, size):
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as f:
        return json.load(f)[workload][size]


def run(workload, seed, seconds, traced, size="full"):
    """Run the ops of one benchmark run; return (details, result line)."""
    program_seed = seed % SEED_POOL
    argv = WORKLOADS[workload][size] + [f"--seed={program_seed}"]
    golden = load_golden(workload, size)[str(program_seed)]
    points = points_per_op(argv)
    # Set-up is measured at evenly spaced moments of the run, so that its
    # median, like the op median, spans the whole run.
    setup_due = [] if traced else [seconds * (i + 0.5) / SETUP_REPEATS
                                   for i in range(SETUP_REPEATS)]
    setup = []

    ops = []
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        outdir = os.path.join(workdir, "op")
        reference = SpeedReference()
        start = perf_counter()
        while len(ops) < 1 + traced or perf_counter() - start < seconds:
            if setup_due and perf_counter() - start >= setup_due[0]:
                setup.append((measure_setup(), reference.scale()))
                setup_due.pop(0)
                continue
            traced_op = traced and len(ops) % 2 == 1
            result, rss_mb = run_op(argv, outdir, traced_op)
            scale = reference.scale()
            failure = gate(argv, outdir, result, golden)
            if failure:
                print(f"op {len(ops)} failed: {failure}\n{log_tail(outdir)}", file=sys.stderr)
            elif traced_op:
                result["trace"]["cli.records_bytes"] = float(
                    os.path.getsize(os.path.join(outdir, "records.csv")))
            ops.append({"result": result, "rss_mb": rss_mb, "failed": failure is not None,
                        "traced": traced_op, "scale": scale})
        for _ in setup_due:
            setup.append((measure_setup(), reference.scale()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(op["failed"] for op in ops)
    done = [op for op in ops if op["result"] is not None]
    plain = [op["result"]["op_s"] * op["scale"] for op in done if not op["traced"]]
    if not plain or (traced and len(done) == len(plain)):
        raise RuntimeError("no op finished; nothing to report")

    median = statistics.median
    if traced:
        units = per_layer_units()
        traces = [op["result"]["trace"] for op in done if op["traced"]]
        values = {m: median(t.get(m, 0.0) for t in traces) for m in units}
        values["trace_overhead_s"] = median(
            op["result"]["op_s"] * op["scale"] for op in done if op["traced"]) - median(plain)
    else:
        values = {
            "setup_s": median(t * scale for t, scale in setup),
            "op_s_p50": median(plain),
            "op_s_tail": percentile(plain, TAIL_PERCENTILE),
            "points_per_s": median(points / t for t in plain),
            "peak_rss_mb": median(op["rss_mb"] for op in done),
            "ok_ratio": (len(ops) - failed) / len(ops),
        }
        units = END_TO_END_UNITS
    details = {
        "workload": workload,
        "seed": seed,
        "program_seed": program_seed,
        "cli_args": argv,
        "points_per_op": points,
        "ops": len(ops),
        "timed_ops": len(plain),
        "tail_percentile": TAIL_PERCENTILE,
        "host_op_s_p50": median(op["result"]["op_s"] for op in done if not op["traced"]),
        "host_setup_s": median(t for t, _ in setup) if setup else None,
        "speed_scale_p50": median(op["scale"] for op in done),
        "environment": environment(),
    }
    line = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in sorted(units)},
    }
    return details, line


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the harness smoke test")
    args = parser.parse_args()
    # On SIGTERM, unwind through run_op's cleanup so no op process outlives us.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not os.path.isfile(os.path.join(SRC, "polylap", "cli.py")):
        print(f"polylap sources not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import polylap.cli  # noqa: F401  (imported once here, shared by every forked op)

    details, line = run(args.workload, args.seed, args.seconds, bool(args.trace),
                        "tiny" if args.tiny else "full")
    print(json.dumps(details))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
