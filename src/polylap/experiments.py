"""Monte-Carlo trials, parameter schedules, and convergence-rate estimation.

A trial samples a cloud, builds the epsilon-graph, denoises labels through
the resolvent, and compares against the exact continuum solution (uniform
density only, where the Fourier references are closed-form):

  variance_err    ||u_n - u*_tau|_nodes||      (discrete vs continuum minimiser)
  bias_err        ||u*_tau - g||               (analytic, n-independent)
  total_err       ||u_n - g|_nodes||

Each Fourier mode's cosine and sine are evaluated once per trial, in
blocks of points.  In run_trial g and u*_tau share their waves at the
operator's nodes (FourierFunction.evaluate_with); in consistency_sweep
Delta^s u and Delta_eps^s u share theirs, and each block's sums go straight
into the squared residuals against Delta_n^s u (FourierFunction.
squared_errors), so the reference phase holds 24 bytes per point.

Rate fits use medians over trials; the heavy-tailed failure events the
high-probability bounds allow would wreck a mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .blocks import BLOCK
from .continuum import (
    FourierFunction,
    continuum_laplacian_uniform,
    continuum_solve_uniform,
    exact_bias,
    mode_multiplier,
    nonlocal_multiplier,
)
from .geometry import (
    INDICATOR,
    UNIFORM,
    DensitySpec,
    KernelProfile,
    check_cloud,
    check_eps,
    make_rng,
    sample_cloud,
    sigma_eta,
    unit_ball_volume,
)
from .graph import (
    IntervalLaplacian,
    apply_poly_laplacian,
    build_graph,
    check_power,
    cloud_shape,
    degree_statistics,
    l2_mu_n,
)
from .solver import (
    DEFAULT_TOL,
    SolverError,
    ansatz_signal,
    check_residual,
    check_tol,
    solve_resolvent,
)


def derive_seed(base_seed, *path) -> int:
    """Independent child seed from a counter-based stream at (base, *path)."""
    ss = np.random.SeedSequence(entropy=int(base_seed), spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class NoiseSpec:
    """Mean-zero sub-Gaussian label noise."""

    kind: str = "gaussian"
    scale: float = 0.1  # sd / halfwidth / amplitude depending on kind

    def __post_init__(self):
        if self.kind not in ("gaussian", "uniform", "rademacher"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if not 0.0 <= self.scale < math.inf:  # NaN fails too
            raise ValueError(f"noise_scale must be finite and >= 0, got {self.scale}")

    def sample(self, rng, n):
        if self.kind == "gaussian":
            return rng.standard_normal(n) * self.scale
        if self.kind == "uniform":
            return rng.uniform(-self.scale, self.scale, n)
        return self.scale * (2.0 * rng.integers(0, 2, n) - 1.0)


def gen_labels(g: FourierFunction, points, noise: NoiseSpec, seed: int):
    """y_i = g(x_i) + xi_i with iid noise at the (n, d) points, deterministic
    given the seed."""
    return g.evaluate(points) + noise.sample(make_rng(seed), len(points))


def _check_multiplier(name, value):
    """Reject a rule constant that is not finite and > 0, NaN included."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and > 0, got {value}")


@dataclass(frozen=True)
class Schedule:
    """eps(n) and tau(n) rules for the spline-style rate regime.

    eps(n) = eps_mult * (log n / n)^(1/(d+4s)), capped at the torus metric
    limit 1/2; tau(n) = tau_mult * eps(n)^s.

    The predicted exponent s/(d+4s) of rate_sweep holds only once Delta_eps
    resolves the modes of g (2 pi k_max eps << 1), the bias is near-linear in
    tau (tau lambda_kmax <= 1), and tau/eps^(2s) is large enough for the graph
    regulariser to damp the noise.  The default constants are not in that
    regime for small n: at eps near the cap 1/2 the d=1 graph is nearly
    complete, and for d=1, s=1, n <= 32768 they give eps(n) in [0.30, 0.50]
    and tau lambda_1 > 7, so u*_tau is close to 0 and the error does not move
    with n.  Acceptance criterion 5 runs with eps_mult = tau_mult = 0.1.
    """

    d: int
    s: int
    n_grid: tuple
    eps_mult: float = 1.5
    tau_mult: float = 1.0

    def __post_init__(self):
        grid = tuple(int(n) for n in self.n_grid)
        if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("n_grid must be nonempty and strictly increasing")
        if grid[0] < 2:  # eps(n) needs log n > 0
            raise ValueError(f"n_grid entries must be >= 2, got {grid[0]}")
        check_power(self.s)
        _check_multiplier("eps_mult", self.eps_mult)
        _check_multiplier("tau_mult", self.tau_mult)
        object.__setattr__(self, "n_grid", grid)

    def eps_of(self, n):
        return min(self.eps_mult * (math.log(n) / n) ** (1.0 / (self.d + 4 * self.s)), 0.5)

    def tau_of(self, n):
        return self.tau_mult * self.eps_of(n) ** self.s


@dataclass(frozen=True)
class TrialConfig:
    g: FourierFunction
    noise: NoiseSpec
    d: int
    s: int
    n: int
    eps: float
    tau: float
    base_seed: int
    n_index: int = 0
    trial: int = 0
    tol: float = DEFAULT_TOL


@dataclass
class ExperimentRecord:
    n: int
    d: int
    s: int
    eps: float
    tau: float
    seed: int
    trial: int
    variance_err: float
    bias_err: float
    bias_sample_err: float
    total_err: float
    consistency_err: float
    solver_iterations: int
    solver_residual: float
    failed: bool = False


RECORD_FIELDS = [f.name for f in fields(ExperimentRecord)]


# an explicit build peaks at about 27 (d = 2) to 35 (d = 3) bytes of RSS
# per undirected edge, so the cap is about 0.7 GB
MAX_EXPLICIT_EDGES = 20_000_000


def check_operator_size(n, d, eps, kernel):
    """Whether make_operator builds the O(n) IntervalLaplacian (d = 1 with the
    indicator kernel) and not the explicit epsilon-graph, which raises
    MemoryError here if its expected edge count exceeds MAX_EXPLICIT_EDGES."""
    if d == 1 and kernel.kind == "indicator":
        return True
    edges = n * (n - 1) / 2 * unit_ball_volume(d) * eps**d
    if edges > MAX_EXPLICIT_EDGES:
        raise MemoryError(f"explicit graph of ~{edges:.3g} edges exceeds {MAX_EXPLICIT_EDGES}")
    return False


def make_operator(points, eps, kernel, want_order=False):
    """Laplacian operator on an (n, d) array of points, node coordinates in
    operator order, and the permutation mapping input order to operator
    order (None if unchanged or not requested; the permutation costs memory
    at very large n).

    The one place that builds an operator, in the form check_operator_size
    picks; an oversized explicit graph raises MemoryError before it is built.
    """
    if check_operator_size(*cloud_shape(points), eps, kernel):
        op = IntervalLaplacian(points, eps)
        order = None
        if want_order:
            # np.argsort(x, kind="stable") by way of the faster default sort:
            # distinct values have only one sorting permutation, so the
            # stable sort runs only when the sorted op.x has equal neighbours
            order = np.argsort(points[:, 0])
            if np.any(op.x[1:] == op.x[:-1]):
                order = np.argsort(points[:, 0], kind="stable")
        return op, op.x.reshape(-1, 1), order
    return build_graph(points, eps, kernel), points, None


def run_trial(cfg: TrialConfig) -> ExperimentRecord:
    """One denoising trial against the exact uniform-density references."""
    cloud_seed = derive_seed(cfg.base_seed, cfg.n_index, cfg.trial, 0)
    noise_seed = derive_seed(cfg.base_seed, cfg.n_index, cfg.trial, 1)
    points = sample_cloud(UNIFORM, cfg.n, cfg.d, cloud_seed)
    op, nodes, order = make_operator(points, cfg.eps, INDICATOR, want_order=True)
    sigma = sigma_eta(INDICATOR, cfg.d)
    u_star = continuum_solve_uniform(cfg.g, cfg.tau, cfg.s, sigma)
    # g and u*_tau share their waves, evaluated once at the operator's nodes;
    # the noise is drawn in sampling order and gathered into node order, so
    # the (point, noise) pairing does not depend on the operator form
    g_nodes, u_star_nodes = cfg.g.evaluate_with(nodes, u_star)
    xi = cfg.noise.sample(make_rng(noise_seed), cfg.n)
    y = g_nodes + (xi if order is None else xi[order])
    del points, nodes, xi, order  # the solve's peak is the trial's; none is needed there
    bias = exact_bias(cfg.g, cfg.tau, cfg.s, sigma)

    try:
        report = check_residual(solve_resolvent(op, y, cfg.tau, cfg.s, tol=cfg.tol), cfg.tol)
    except SolverError as err:
        report = err.report
        failed = True
    else:
        failed = False

    u = report.solution
    return ExperimentRecord(
        n=cfg.n,
        d=cfg.d,
        s=cfg.s,
        eps=cfg.eps,
        tau=cfg.tau,
        seed=cfg.base_seed,
        trial=cfg.trial,
        variance_err=l2_mu_n(u - u_star_nodes),
        bias_err=bias,
        bias_sample_err=l2_mu_n(u_star_nodes - g_nodes),
        total_err=l2_mu_n(u - g_nodes),
        consistency_err=float("nan"),
        solver_iterations=report.iterations,
        solver_residual=report.final_relative_residual,
        failed=failed,
    )


def _ols_slope(x, y):
    """Least-squares slope of y against x and its standard error; NaN for
    both when x has fewer than two distinct values."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.unique(x).size < 2:
        return float("nan"), float("nan")
    xc = x - x.mean()
    slope = float(xc @ (y - y.mean()) / (xc @ xc))
    resid = y - (y.mean() + slope * xc)
    dof = max(x.size - 2, 1)
    stderr = float(np.sqrt(resid @ resid / dof / (xc @ xc)))
    return slope, stderr


@dataclass
class SweepResult:
    records: list
    slope_vs_n: float
    slope_vs_n_stderr: float
    slope_vs_rate: float
    slope_vs_rate_stderr: float
    predicted_exponent: float
    failure_count: int


def check_trials(trials):
    """Reject a trial count below one."""
    if trials < 1:
        raise ValueError("trials must be >= 1")


def check_sweep_inputs(schedule, trials_per_n, tol):
    """Reject what rate_sweep cannot run, in the order it would fail on it."""
    check_trials(trials_per_n)
    check_tol(tol)
    for n in schedule.n_grid:
        check_operator_size(n, schedule.d, schedule.eps_of(n), INDICATOR)


def rate_sweep(
    schedule: Schedule,
    g: FourierFunction,
    noise: NoiseSpec,
    trials_per_n: int,
    base_seed: int,
    tol: float = DEFAULT_TOL,
    map_fn=map,
) -> SweepResult:
    """Run trials over the schedule and fit log-log error slopes.

    The fit regresses log(median total_err) on log(n) and on log(log n / n);
    the predicted exponent for the latter is s / (d + 4s).  Failed trials are
    excluded from the fit and counted.
    """
    check_sweep_inputs(schedule, trials_per_n, tol)
    configs = [
        TrialConfig(
            g=g,
            noise=noise,
            d=schedule.d,
            s=schedule.s,
            n=n,
            eps=schedule.eps_of(n),
            tau=schedule.tau_of(n),
            base_seed=base_seed,
            n_index=i,
            trial=t,
            tol=tol,
        )
        for i, n in enumerate(schedule.n_grid)
        for t in range(trials_per_n)
    ]
    records = list(map_fn(run_trial, configs))

    errs = [(r.n, r.total_err) for r in records if not r.failed]
    slope_n, se_n = _median_slope(schedule.n_grid, errs, math.log)
    slope_r, se_r = _median_slope(schedule.n_grid, errs, lambda n: math.log(math.log(n) / n))
    return SweepResult(
        records=records,
        slope_vs_n=slope_n,
        slope_vs_n_stderr=se_n,
        slope_vs_rate=slope_r,
        slope_vs_rate_stderr=se_r,
        predicted_exponent=schedule.s / (schedule.d + 4 * schedule.s),
        failure_count=sum(r.failed for r in records),
    )


def default_n_rule(k_mult: float, d: int, s: int):
    """n(eps) = ceil(k_mult * log(1/eps) / eps^(d+4s)), for eps in (0, 1/2]
    and the powers s >= 1 that consistency_sweep compares."""
    check_power(s)
    _check_multiplier("k_mult", k_mult)

    def rule(eps):
        check_eps(eps)
        return int(math.ceil(k_mult * math.log(1.0 / eps) / eps ** (d + 4 * s)))

    return rule


@dataclass
class ConsistencyResult:
    """Operator consistency split into its deterministic and stochastic parts.

    On the uniform torus the total ||Delta_n^s u - Delta^s u|| is the sum of
    the nonlocal bias ||(Delta_eps^s - Delta^s) u||, which is O(eps^2) for a
    symmetric kernel and dominates, and the stochastic part
    ||Delta_n^s u - Delta_eps^s u||, which the n(eps) rule of default_n_rule
    makes O(eps) up to a log.  The O(eps) rate is fitted on the latter.
    """

    records: list  # ExperimentRecord; consistency_err is the total
    slope: float  # log-log slope of the median total against eps
    slope_stderr: float
    stochastic_err: list  # per record: ||Delta_n^s u - Delta_eps^s u|_nodes||
    nonlocal_bias: dict  # eps -> ||(Delta_eps^s - Delta^s) u|| (closed form)
    stochastic_slope: float  # log-log slope of the median stochastic part
    stochastic_slope_stderr: float


def _median_slope(grid, pairs, x_of):
    """OLS slope and stderr of log(median value) against x_of(key) over the
    grid keys that have (key, value) pairs; NaN for a degenerate fit (fewer
    than two keys left, or a median that is not positive)."""
    xs, medians = [], []
    for key in grid:
        values = [v for k, v in pairs if k == key]
        if values:
            xs.append(x_of(key))
            medians.append(float(np.median(values)))
    if not all(m > 0.0 for m in medians):
        return float("nan"), float("nan")
    return _ols_slope(xs, [math.log(m) for m in medians])


# largest cloud consistency_sweep samples
CONSISTENCY_N_CAP = 100_000_000


def check_consistency_inputs(d, s, eps_grid, n_rule, trials):
    """Reject what consistency_sweep cannot run, before it samples a cloud:
    fewer than one trial, a power s that is not an integer >= 1, or an n(eps)
    above CONSISTENCY_N_CAP or with too large an explicit graph (MemoryError)."""
    check_trials(trials)
    check_power(s)  # s = 0 would compare u with itself, s < 0 with an inverse power
    for eps in eps_grid:
        n = n_rule(eps)
        if n > CONSISTENCY_N_CAP:
            raise MemoryError(f"n(eps={eps}) = {n} exceeds the cap {CONSISTENCY_N_CAP}")
        check_operator_size(n, d, eps, INDICATOR)


def consistency_sweep(
    u: FourierFunction,
    s: int,
    eps_grid,
    n_rule,
    trials: int,
    base_seed: int,
) -> ConsistencyResult:
    """Empirical ||Delta_n^s u - Delta_rho^s u|_nodes|| across an eps grid,
    with its split against the exact nonlocal reference Delta_eps^s u.

    Uniform density and indicator kernel only (both continuum references
    are modewise-exact there).  The total is dominated by the O(eps^2)
    nonlocal bias of the symmetric kernel, so its slope against eps sits
    near 2; the O(eps) operator consistency is checked by the slope of the
    stochastic part ||Delta_n^s u - Delta_eps^s u||.

    A trial keeps one signal: u at the nodes, which every apply overwrites
    with its product (apply_poly_laplacian with out=lu), so it peaks at the
    operator, that signal and one apply's prefix sums, 36 bytes per point.
    The squared residuals against both references then come from one pass
    over their waves (FourierFunction.squared_errors), the second written
    into the signal: the nodes, the signal and one new array, 24 bytes per
    point.
    """
    d = u.d
    check_consistency_inputs(d, s, eps_grid, n_rule, trials)
    sigma = sigma_eta(INDICATOR, d)
    ref = continuum_laplacian_uniform(u, sigma, s)
    records, stochastic, nonlocal_bias = [], [], {}
    for i, eps in enumerate(eps_grid):
        n = n_rule(eps)
        mult = {k: nonlocal_multiplier(k, eps) ** s for k in u.modes}
        nonlocal_bias[float(eps)] = u.map_modes(
            lambda k: mult[k] - mode_multiplier(k, sigma, s)
        ).l2_norm_uniform()
        ref_eps = u.map_modes(lambda k: mult[k])  # Delta_eps^s u, exactly
        for t in range(trials):
            seed = derive_seed(base_seed, i, t)
            points = sample_cloud(UNIFORM, n, d, seed)
            op, nodes, _ = make_operator(points, eps, INDICATOR)
            del points  # the fast path keeps its own sorted copy; free the original
            # Delta_n^s u, every apply in place on the evaluated signal
            lu = u.evaluate(nodes)
            apply_poly_laplacian(op, lu, s, out=lu)
            del op  # nodes keeps the coordinates; free the rest of the operator
            # (Delta_n^s u - ref)^2 for both references from one pass over
            # their waves, the second into lu: l2_mu_n's arithmetic
            squares = ref.squared_errors(nodes, lu, ref_eps)
            err, stoch = (float(np.sqrt(np.mean(q))) for q in squares)
            del nodes, lu, squares  # before the next trial's arrays
            stochastic.append(stoch)
            records.append(
                ExperimentRecord(
                    n=n, d=d, s=s, eps=float(eps), tau=0.0, seed=base_seed, trial=t,
                    variance_err=float("nan"), bias_err=float("nan"),
                    bias_sample_err=float("nan"), total_err=float("nan"),
                    consistency_err=err, solver_iterations=0, solver_residual=0.0,
                )
            )
    slope, se = _median_slope(eps_grid, [(r.eps, r.consistency_err) for r in records], math.log)
    st_slope, st_se = _median_slope(
        eps_grid, [(r.eps, v) for r, v in zip(records, stochastic)], math.log
    )
    return ConsistencyResult(records, slope, se, stochastic, nonlocal_bias, st_slope, st_se)


@dataclass
class DegreeSummary:
    min_normalized_degree: float
    max_normalized_degree: float
    max_neighbor_count: int
    neighbor_cap: float
    within_cap: bool


# neighbor cap of degree_concentration_check, in units of the mean count
DEGREE_CAP_MULT = 10.0


def check_degree_inputs(n, d, eps, density, kernel, trials):
    """Reject what degree_concentration_check cannot run, in the order it
    would fail on it, eps first: the regime and size checks read it."""
    check_eps(eps)
    if n * eps**d < 1.0:
        raise ValueError("need n * eps^d >= 1")
    check_trials(trials)
    check_cloud(density, n, d)
    check_operator_size(n, d, eps, kernel)


def degree_concentration_check(
    n: int,
    d: int,
    eps: float,
    density: DensitySpec,
    kernel: KernelProfile,
    trials: int,
    base_seed: int,
) -> DegreeSummary:
    """Degree min/max and neighbor-count cap across independent clouds.

    Requires n eps^d >= 1, the concentration regime.  The neighbor cap is
    DEGREE_CAP_MULT times the unit-ball volume factor times n eps^d.
    """
    check_degree_inputs(n, d, eps, density, kernel, trials)
    lo, hi, cnt = math.inf, -math.inf, 0
    for t in range(trials):
        points = sample_cloud(density, n, d, derive_seed(base_seed, t))
        op, _, _ = make_operator(points, eps, kernel)
        mn, mx, mc = degree_statistics(op)
        lo, hi, cnt = min(lo, mn), max(hi, mx), max(cnt, mc)
    cap = DEGREE_CAP_MULT * unit_ball_volume(d) * n * eps**d
    return DegreeSummary(lo, hi, cnt, cap, cnt <= cap)


def ansatz_norm_sweep(
    eps_grid,
    n: int,
    d: int,
    tau: float,
    s: int,
    noise: NoiseSpec,
    trials: int,
    base_seed: int,
):
    """Median of ||w_tilde|| * tau / eps^(2s) per eps; bounded spread checks
    the degree-only response estimate."""
    check_trials(trials)
    out = []
    for i, eps in enumerate(eps_grid):
        vals = []
        for t in range(trials):
            points = sample_cloud(UNIFORM, n, d, derive_seed(base_seed, i, t, 0))
            op, _, _ = make_operator(points, eps, INDICATOR)
            rng = make_rng(derive_seed(base_seed, i, t, 1))
            xi = noise.sample(rng, n)
            w = ansatz_signal(op, xi, tau, s)
            vals.append(l2_mu_n(w) * tau / eps ** (2 * s))
        out.append((float(eps), float(np.median(vals))))
    return out


def write_csv(path, header, columns):
    """Deterministic CSV: header, then a row per index of the equal-length array
    columns, BLOCK rows at a time, each value the repr of its Python scalar."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for a in range(0, len(columns[0]), BLOCK):
            rows = zip(*(c[a:a + BLOCK].tolist() for c in columns))
            f.writelines(",".join(map(repr, row)) + "\n" for row in rows)


def write_records_csv(records, path):
    """write_csv of ExperimentRecords, one column per field and failed as 0/1."""
    columns = {name: np.array([getattr(r, name) for r in records]) for name in RECORD_FIELDS}
    columns["failed"] = columns["failed"].astype(np.int8)
    write_csv(path, RECORD_FIELDS, list(columns.values()))
