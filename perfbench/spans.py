"""Per-module spans and counters for one benchmark op.

`install()` wraps the public functions of each polylap module at the place
where another module calls them (the name bound in the caller's namespace,
or the method on the operator class), so nothing in the program itself
changes.  Spans are kept in memory and reduced to per-module numbers when
the op ends:

  <name>.s       inclusive seconds of all outermost spans of that name
  <name>.self_s  seconds minus the time covered by direct child spans
  <name>.calls   number of spans

Byte and flop counts for an operator apply are computed from n and nnz by a
fixed model of the arrays each kernel streams; they are not measured.
"""

from __future__ import annotations

import functools
import math
from collections import defaultdict
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.stack = []  # [name, start, child_seconds]
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)

    def call(self, name, fn, *args, **kwargs):
        if any(frame[0] == name for frame in self.stack):
            return fn(*args, **kwargs)  # re-entry: count only the outermost span
        frame = [name, perf_counter(), 0.0]
        self.stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - frame[1]
            self.stack.pop()
            if self.stack:
                self.stack[-1][2] += elapsed
            self.seconds[name] += elapsed
            self.self_seconds[name] += elapsed - frame[2]
            self.calls[name] += 1


def csr_apply_cost(n, nnz, index_bytes, indptr_bytes):
    """(bytes, flops) of (2/(n eps^2)) (D u - W u) on a CSR graph.

    SpMV streams values, column indices, row pointers and one gathered u
    value per stored entry and writes n outputs; D*u, the subtraction and the
    scaling read and write eight more float64 vectors of length n.
    """
    bytes_ = nnz * (8 + index_bytes + 8) + (n + 1) * indptr_bytes + 8 * n + 8 * n * 8
    return bytes_, 2 * nnz + 3 * n


def interval_apply_cost(n):
    """(bytes, flops) of IntervalLaplacian.apply: a prefix sum, two int32
    gathers, the int8 wrap correction and six elementwise float64 passes."""
    return 233 * n, 9 * n


def install(tracer):
    """Wrap every traced call site in the current process (an op child)."""
    import polylap.cli as cli
    import polylap.continuum as continuum
    import polylap.experiments as xp
    import polylap.graph as graph
    from polylap.solver import SolverError

    def wrap(owner, attr, name, after=None):
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = tracer.call(name, fn, *args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, wrapper)

    counts = tracer.counts

    def count_edges(args, g):
        counts["graph.edges"] += g.edge_count

    def count_csr_apply(args, _):
        g = args[0]
        b, f = csr_apply_cost(g.n, g.indices.size, g.indices.itemsize, g.indptr.itemsize)
        counts["graph.apply.bytes_computed"] += b
        counts["graph.apply.flops"] += f

    def count_interval_apply(args, _):
        b, f = interval_apply_cost(args[0].n)
        counts["graph.apply.bytes_computed"] += b
        counts["graph.apply.flops"] += f

    def count_points(args, _):
        counts["continuum.evaluate.points"] += math.prod(np.shape(args[1])[:-1])

    def count_records(args, _):
        counts["experiments.trials"] += len(args[0])

    def traced_solve(fn):
        @functools.wraps(fn)
        def solve(*args, **kwargs):
            try:
                report = fn(*args, **kwargs)
            except SolverError as err:
                counts["solver.failed"] += 1
                counts["solver.cg_iters"] += err.report.iterations
                raise
            counts["solver.cg_iters"] += report.iterations
            return report

        return solve

    for module in (cli, xp):
        module.solve_resolvent = traced_solve(module.solve_resolvent)
        wrap(module, "solve_resolvent", "solver.solve_resolvent")
        wrap(module, "sample_cloud", "geometry.sample_cloud")
        wrap(module, "build_graph", "graph.build_graph", count_edges)
    wrap(graph.IntervalLaplacian, "__init__", "graph.interval_init")
    wrap(graph.KernelGraph, "apply", "graph.apply", count_csr_apply)
    wrap(graph.IntervalLaplacian, "apply", "graph.apply", count_interval_apply)
    wrap(cli, "dirichlet_energy", "graph.dirichlet_energy")
    for attr in ("continuum_solve_uniform", "continuum_laplacian_uniform", "exact_bias"):
        wrap(xp, attr, "continuum.reference")
    wrap(continuum.FourierFunction, "evaluate", "continuum.evaluate", count_points)
    wrap(xp, "run_trial", "experiments.run_trial")
    wrap(xp, "gen_labels", "experiments.gen_labels")
    wrap(xp, "write_records_csv", "experiments.write_records_csv", count_records)
    wrap(xp, "rate_sweep", "experiments.sweep")
    wrap(xp, "consistency_sweep", "experiments.sweep")
    wrap(cli, "main", "cli.main")


# (metric, span name, field) for every per-op number taken from spans
SPAN_METRICS = [
    ("geometry.sample_cloud.s", "geometry.sample_cloud", "s"),
    ("geometry.sample_cloud.calls", "geometry.sample_cloud", "calls"),
    ("graph.build_graph.s", "graph.build_graph", "s"),
    ("graph.build_graph.calls", "graph.build_graph", "calls"),
    ("graph.interval_init.s", "graph.interval_init", "s"),
    ("graph.apply.s", "graph.apply", "s"),
    ("graph.apply.calls", "graph.apply", "calls"),
    ("graph.dirichlet_energy.s", "graph.dirichlet_energy", "s"),
    ("solver.solve_resolvent.s", "solver.solve_resolvent", "s"),
    ("solver.solve_resolvent.self_s", "solver.solve_resolvent", "self_s"),
    ("continuum.reference.s", "continuum.reference", "s"),
    ("continuum.evaluate.s", "continuum.evaluate", "s"),
    ("experiments.run_trial.s", "experiments.run_trial", "s"),
    ("experiments.run_trial.self_s", "experiments.run_trial", "self_s"),
    ("experiments.gen_labels.s", "experiments.gen_labels", "s"),
    ("experiments.write_records_csv.s", "experiments.write_records_csv", "s"),
    ("experiments.sweep.self_s", "experiments.sweep", "self_s"),
    ("cli.main.s", "cli.main", "s"),
    ("cli.self_s", "cli.main", "self_s"),
]

COUNT_METRICS = [
    "graph.edges",
    "graph.apply.bytes_computed",
    "graph.apply.flops",
    "solver.cg_iters",
    "solver.failed",
    "continuum.evaluate.points",
    "experiments.trials",
]


def summary(tracer):
    """Per-op module numbers; layers the op never entered read 0."""
    fields = {"s": tracer.seconds, "self_s": tracer.self_seconds, "calls": tracer.calls}
    out = {metric: float(fields[f].get(span, 0.0)) for metric, span, f in SPAN_METRICS}
    out.update({metric: float(tracer.counts.get(metric, 0.0)) for metric in COUNT_METRICS})
    return out
