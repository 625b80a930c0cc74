"""Acceptance gate: eight criteria, each printing one PASS/FAIL line.

Each test asserts its criterion at the pinned tolerance and prints a single
summary line so the run log doubles as an acceptance report.
"""

import math
import time

import numpy as np
import pytest

from polylap.continuum import (
    FourierFunction,
    bias_bound,
    continuum_laplacian_uniform,
    exact_bias,
    mode_multiplier,
)
from polylap.experiments import (
    NoiseSpec,
    Schedule,
    ansatz_norm_sweep,
    consistency_sweep,
    default_n_rule,
    degree_concentration_check,
    rate_sweep,
)
from polylap.geometry import (
    INDICATOR,
    UNIFORM,
    make_rng,
    sample_cloud,
    sigma_eta,
    torus_distance,
)
from polylap.graph import (
    build_graph,
    dirichlet_energy,
    inner_mu_n,
    l2_mu_n,
)
from polylap.solver import ResolventProblem, solve_resolvent, solve_resolvent_dense
from polylap import cli
from oracles import (
    GridField,
    nonlocal_laplacian,
    pseudo_spectral_continuum_laplacian,
    sample_on_grid,
)

G_TEST = FourierFunction.from_modes(1, [((1,), 1.0, 0.0), ((2,), 0.0, 0.5)])


def report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_oracle_equivalence():
    """CG vs dense spectral solve within 1e-8 on 20 random instances."""
    rng = make_rng(101)
    cases = [(s, tau) for s in (1, 2, 3) for tau in (0.01, 1.0, 100.0)]
    worst = 0.0
    for k in range(20):
        d = 1 + k % 2
        n = int(rng.integers(30, 300))
        s, tau = cases[k % len(cases)]
        graph = build_graph(sample_cloud(UNIFORM, n, d, 5000 + k), 0.25)
        y = rng.standard_normal(n)
        p = ResolventProblem(graph, y, tau, s)
        diff = l2_mu_n(solve_resolvent(p).solution - solve_resolvent_dense(p))
        worst = max(worst, diff)
    report("criterion 1: oracle equivalence", worst < 1e-8, f"worst diff {worst:.2e}")


def test_criterion_2_non_expansiveness():
    """||u|| <= ||y|| (1 + 1e-8) on 100 random problems."""
    rng = make_rng(102)
    worst = 0.0
    combos = [(s, tau) for s in (1, 2, 3) for tau in (0.0, 0.01, 1.0, 100.0)]
    for k in range(100):
        n = int(rng.integers(20, 120))
        graph = build_graph(sample_cloud(UNIFORM, n, 1, 6000 + k), 0.25)
        y = rng.standard_normal(n)
        s, tau = combos[k % len(combos)]
        u = solve_resolvent(ResolventProblem(graph, y, tau, s)).solution
        worst = max(worst, l2_mu_n(u) / l2_mu_n(y))
    report("criterion 2: non-expansiveness", worst <= 1.0 + 1e-8, f"worst ratio {worst:.12f}")


def test_criterion_3_bias_theorem():
    """Exact bias <= tau ||Delta^s g|| and the half-power bound, modewise."""
    sigma = sigma_eta(INDICATOR, 1)
    ok = abs(sigma - 2.0 / 3.0) < 1e-12
    for s in (1, 2):
        for tau in (1e-3, 1e-2, 1e-1):
            bound = bias_bound(G_TEST, tau, s, sigma)
            ok &= exact_bias(G_TEST, tau, s, sigma) <= bound
            half = G_TEST.map_modes(
                lambda k: mode_multiplier(k, sigma, s / 2.0)
                * tau
                * mode_multiplier(k, sigma, s)
                / (1.0 + tau * mode_multiplier(k, sigma, s))
            ).l2_norm_uniform()
            ok &= half <= math.sqrt(tau / 2.0) * continuum_laplacian_uniform(
                G_TEST, sigma, s
            ).l2_norm_uniform() + 1e-15
    report("criterion 3: bias theorem inequalities", ok)


def test_criterion_4_consistency_slope():
    """||(Delta_n - Delta_eps) u|| slope vs eps in [0.6, 1.4] (pinned schedule).

    The total ||(Delta_n - Delta_rho) u|| is the stochastic part plus the
    deterministic nonlocal bias ||(Delta_eps - Delta_rho) u||, which is O(eps^2)
    for the symmetric kernel on the uniform torus and dominates the total.  The
    O(eps) rate is the stochastic part's; at every eps the median total must
    differ from the closed-form bias by at most the median stochastic part.
    """
    u = FourierFunction.from_modes(1, [((1,), 0.0, 1.0)])
    eps_grid = [0.2, 0.14, 0.1, 0.07]
    t0 = time.time()
    res = consistency_sweep(u, 1, eps_grid, default_n_rule(40, 1, 1), 5, 0)
    elapsed = time.time() - t0
    split_ok = True
    for eps in eps_grid:
        total = np.median([r.consistency_err for r in res.records if r.eps == eps])
        stoch = np.median([v for r, v in zip(res.records, res.stochastic_err) if r.eps == eps])
        split_ok &= abs(total - res.nonlocal_bias[eps]) <= stoch
    bias_slope = np.polyfit(
        np.log(eps_grid), np.log([res.nonlocal_bias[e] for e in eps_grid]), 1
    )[0]
    ok = 0.6 <= res.stochastic_slope <= 1.4 and split_ok and elapsed < 600
    report(
        "criterion 4: consistency slope in [0.6, 1.4]",
        ok,
        f"stochastic slope {res.stochastic_slope:.3f} +- {res.stochastic_slope_stderr:.3f}, "
        f"total {res.slope:.3f} +- {res.slope_stderr:.3f}, bias {bias_slope:.3f}, "
        f"split {'holds' if split_ok else 'fails'}, {elapsed:.0f}s",
    )


def test_criterion_5_rate_sweep():
    """Slope of log median total_err vs log(log n / n) in [0.10, 0.30].

    The exponent s/(d+4s) is asymptotic, so the schedule must put every n of
    the grid in its regime, checked for the top mode k_max of G_TEST:
    (a) 2 pi k_max eps <= 1: Delta_eps resolves the modes of g (its top-mode
        multiplier is within 5% of the local one);
    (b) tau lambda_kmax <= 1: the bias is near-linear in tau;
    (c) tau / eps^(2s) >= 1: the graph regulariser damps high-frequency noise
        (the scale of criterion 7).
    The Schedule defaults fail (a) and (b) on this grid.
    """
    sch = Schedule(
        d=1, s=1, n_grid=(1024, 2048, 4096, 8192, 16384, 32768), eps_mult=0.1, tau_mult=0.1
    )
    eps = [sch.eps_of(n) for n in sch.n_grid]
    tau = [sch.tau_of(n) for n in sch.n_grid]
    k_max = G_TEST.max_abs_mode()
    lam_max = mode_multiplier((k_max,), sigma_eta(INDICATOR, 1), sch.s)
    assert 2.0 * math.pi * k_max * max(eps) <= 1.0, "regime (a): eps too large"
    assert max(tau) * lam_max <= 1.0, "regime (b): tau too large"
    assert min(t / e ** (2 * sch.s) for t, e in zip(tau, eps)) >= 1.0, "regime (c): tau too small"
    t0 = time.time()
    res = rate_sweep(sch, G_TEST, NoiseSpec("gaussian", 0.1), 10, 0)
    elapsed = time.time() - t0
    ok = 0.10 <= res.slope_vs_rate <= 0.30 and res.failure_count == 0 and elapsed < 1800
    report(
        "criterion 5: rate-sweep slope in [0.10, 0.30] (predicted 0.20)",
        ok,
        f"slope {res.slope_vs_rate:.3f} +- {res.slope_vs_rate_stderr:.3f}, "
        f"{res.failure_count} failures, {elapsed:.0f}s",
    )


def test_criterion_6_invariant_suites():
    """Operator invariants, construction oracle, quadrature and spectral accuracy."""
    ok = True
    # Laplacian symmetry / PSD / nullspace
    g = build_graph(sample_cloud(UNIFORM, 150, 1, 7000), 0.15)
    rng = make_rng(106)
    for _ in range(20):
        u, w = rng.standard_normal(150), rng.standard_normal(150)
        lu = g.apply(u)
        ok &= abs(inner_mu_n(lu, w) - inner_mu_n(u, g.apply(w))) < 1e-11 * max(
            1.0, abs(inner_mu_n(lu, w))
        )
        ok &= inner_mu_n(lu, u) >= -1e-10 * l2_mu_n(u) ** 2
    ok &= np.max(np.abs(g.apply(np.ones(150)))) < 1e-12 * 150

    # cell list vs brute force edge sets
    for d in (1, 2, 3):
        pts = sample_cloud(UNIFORM, 100, d, 7100 + d)
        graph = build_graph(pts, 0.3, INDICATOR)
        brute = {
            (i, j)
            for i in range(100)
            for j in range(i + 1, 100)
            if torus_distance(pts[i], pts[j]) < 0.3
        }
        stored = set()
        for i in range(graph.n):
            for p in range(graph.indptr[i], graph.indptr[i + 1]):
                j = int(graph.indices[p])
                if j > i:
                    stored.add((i, j))
        ok &= stored == brute

    # dirichlet energy double-sum identity
    u = rng.standard_normal(150)
    import scipy.sparse as sp

    w_mat = sp.csr_matrix((g.weights, g.indices, g.indptr), shape=(g.n, g.n)).toarray()
    explicit = float(np.sum(w_mat * (u[:, None] - u[None, :]) ** 2)) / (g.n**2 * g.eps**2)
    ok &= abs(dirichlet_energy(g, u, 1) - explicit) < 1e-10 * max(explicit, 1.0)

    # sigma_eta analytic values
    for d, val in [(1, 2 / 3), (2, math.pi / 4), (3, 4 * math.pi / 15)]:
        ok &= abs(sigma_eta(INDICATOR, d) - val) < 1e-9 * val

    # nonlocal Laplacian closed-form oracle at quad_m = 64
    cos1 = FourierFunction.from_modes(1, [((1,), 1.0, 0.0)])
    for eps in (0.2, 0.1):
        exact = 4.0 / eps**2 * (1.0 - math.sin(2 * math.pi * eps) / (2 * math.pi * eps))
        got = nonlocal_laplacian(cos1, UNIFORM, eps, INDICATOR, [0.0], quad_m=64)
        ok &= abs(got - exact) < 1e-6 * abs(exact)

    # pseudo-spectral band-limited exactness
    m = 32
    phi = sample_on_grid(cos1, m, 1)
    out = pseudo_spectral_continuum_laplacian(phi, GridField(np.ones(m)), 2.0 / 3.0)
    ref = sample_on_grid(continuum_laplacian_uniform(cos1, 2.0 / 3.0, 1), m, 1)
    ok &= np.max(np.abs(out.values - ref.values)) < 1e-9

    report("criterion 6: invariant suites", ok)


def test_criterion_7_degree_concentration():
    """Normalized degrees in [1, 3] across 10 seeds; ansatz spread factor < 5."""
    summary = degree_concentration_check(10_000, 1, 0.05, UNIFORM, INDICATOR, 10, 0)
    ok = 1.0 <= summary.min_normalized_degree and summary.max_normalized_degree <= 3.0
    ok &= summary.within_cap
    sweep = ansatz_norm_sweep(
        [0.2, 0.14, 0.1, 0.07], 2000, 1, 0.1, 1, NoiseSpec("gaussian", 0.1), 3, 0
    )
    vals = [v for _, v in sweep]
    spread = max(vals) / min(vals)
    ok &= spread < 5.0
    report(
        "criterion 7: degree concentration + ansatz spread",
        ok,
        f"degrees [{summary.min_normalized_degree:.3f}, "
        f"{summary.max_normalized_degree:.3f}], spread {spread:.2f}",
    )


def test_criterion_8_reproducibility(tmp_path):
    """Two identical cmd_sweep runs produce byte-identical records.csv."""
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[sweep]\n"
        "n_grid = 1024,2048,4096,8192,16384,32768\n"
        "trials = 10\n"
        "seed = 0\n"
        "modes = 1:1.0:0.0;2:0.0:0.5\n"
    )
    blobs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = cli.main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        blobs.append((out / "records.csv").read_bytes())
    report("criterion 8: byte-identical sweep reruns", blobs[0] == blobs[1])
