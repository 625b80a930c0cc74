"""Trials, schedules, sweeps, and the records CSV format."""

import ast
import csv
import math
import multiprocessing
import os
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import special

from polylap import experiments as xp
from polylap import blocks
from polylap.continuum import (
    FourierFunction,
    bias_bound,
    continuum_solve_uniform,
    exact_bias,
    nonlocal_multiplier,
)
from polylap.experiments import (
    RECORD_FIELDS,
    ExperimentRecord,
    NoiseSpec,
    Schedule,
    TrialConfig,
    ansatz_norm_sweep,
    consistency_sweep,
    default_n_rule,
    degree_concentration_check,
    derive_seed,
    gen_labels,
    rate_sweep,
    run_trial,
    write_records_csv,
)
from polylap.geometry import (
    INDICATOR,
    PLATEAU,
    UNIFORM,
    DensitySpec,
    make_rng,
    sample_cloud,
)
from polylap.blocks import BLOCK
from polylap.graph import (
    IntervalLaplacian,
    apply_poly_laplacian,
    build_graph,
    dirichlet_energy,
    l2_mu_n,
)
from polylap.solver import (
    ResolventProblem,
    SolveReport,
    ansatz_signal,
    solve_resolvent,
    solve_resolvent_dense,
)

G_DEFAULT = FourierFunction.from_modes(1, [((1,), 1.0, 0.0), ((2,), 0.0, 0.5)])
# peak bytes per point of a d=1 consistency trial, plus a fixed slack for
# block-sized work arrays
MEMORY_BUDGET = 37
MEMORY_SLACK = 32 * BLOCK
SINE = [((1,), 0.0, 1.0)]
COS_SIN = [((1,), 0.3, 1.0)]  # a cosine and a sine in one mode


def explicit_operator(points, eps, kernel, want_order=False):
    """make_operator without the d=1 fast path: always the explicit graph."""
    return build_graph(points, eps, kernel), points, None


class TestSeeds:
    def test_deterministic_and_distinct(self):
        assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)
        seen = {derive_seed(7, i, t) for i in range(5) for t in range(5)}
        assert len(seen) == 25


class TestNoiseSpec:
    def test_rademacher_support(self):
        xi = NoiseSpec("rademacher", 1.0).sample(make_rng(1), 1000)
        assert set(np.unique(xi)) == {-1.0, 1.0}

    def test_gaussian_variance_band(self):
        xi = NoiseSpec("gaussian", 0.1).sample(make_rng(2), 100_000)
        assert 0.0095 <= float(np.var(xi)) <= 0.0105

    def test_mean_zero(self):
        for kind in ("gaussian", "uniform", "rademacher"):
            xi = NoiseSpec(kind, 0.5).sample(make_rng(3), 1_000_000)
            se = float(np.std(xi)) / math.sqrt(xi.size)
            assert abs(float(np.mean(xi))) <= 4.0 * se

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec("laplace", 0.1)
        with pytest.raises(ValueError):
            NoiseSpec("gaussian", -1.0)


class TestGenLabels:
    def test_vanishing_noise(self):
        cloud = sample_cloud(UNIFORM, 200, 1, 5)
        y = gen_labels(G_DEFAULT, cloud, NoiseSpec("gaussian", 1e-12), 6)
        assert np.max(np.abs(y - G_DEFAULT.evaluate(cloud))) < 1e-10

    def test_deterministic(self):
        cloud = sample_cloud(UNIFORM, 50, 1, 7)
        noise = NoiseSpec("gaussian", 0.1)
        assert np.array_equal(
            gen_labels(G_DEFAULT, cloud, noise, 8), gen_labels(G_DEFAULT, cloud, noise, 8)
        )


class TestSchedule:
    def test_rules(self):
        sch = Schedule(d=1, s=1, n_grid=(1024, 2048), eps_mult=1.5, tau_mult=1.0)
        n = 2048
        expected = min(1.5 * (math.log(n) / n) ** 0.2, 0.5)
        assert sch.eps_of(n) == pytest.approx(expected, rel=1e-14)
        assert sch.tau_of(n) == pytest.approx(sch.eps_of(n), rel=1e-14)

    def test_eps_capped_at_half(self):
        sch = Schedule(d=1, s=1, n_grid=(16, 1024), eps_mult=1.5)
        assert sch.eps_of(16) == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            Schedule(d=1, s=1, n_grid=(1024, 512))
        with pytest.raises(ValueError):
            Schedule(d=1, s=1, n_grid=(), eps_mult=1.5)
        with pytest.raises(ValueError):
            Schedule(d=1, s=1, n_grid=(1024,), eps_mult=-1.0)
        # eps(n) divides by log n, which is 0 at n = 1
        with pytest.raises(ValueError, match="n_grid entries must be >= 2"):
            Schedule(d=1, s=1, n_grid=(1, 64))
        with pytest.raises(ValueError, match="s must be >= 1, got 0"):
            Schedule(d=1, s=0, n_grid=(64,))

    @pytest.mark.parametrize("name", ["eps_mult", "tau_mult"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_multiplier_validation(self, name, value):
        # a NaN or infinite eps_mult once failed as a tau error or was capped
        with pytest.raises(ValueError, match=f"{name} must be finite and > 0, got {value}"):
            Schedule(d=1, s=1, n_grid=(64,), **{name: value})


def make_cfg(**kw):
    base = dict(
        g=G_DEFAULT,
        noise=NoiseSpec("gaussian", 0.1),
        d=1,
        s=1,
        n=512,
        eps=0.2,
        tau=0.1,
        base_seed=0,
    )
    base.update(kw)
    return TrialConfig(**base)


class TestRunTrial:
    def test_interpolation_limit(self):
        rec = run_trial(make_cfg(noise=NoiseSpec("gaussian", 1e-12), tau=0.0))
        assert rec.total_err <= 1e-9
        assert not rec.failed

    def test_constant_signal(self):
        g_const = FourierFunction.from_modes(1, [((0,), 2.0, 0.0)])
        rec = run_trial(make_cfg(g=g_const, tau=0.5))
        assert rec.bias_err == 0.0
        # total error vs g equals variance vs u* since u* = g here
        assert rec.total_err == pytest.approx(rec.variance_err, rel=1e-12)

    def test_triangle_inequality(self):
        for trial in range(5):
            rec = run_trial(make_cfg(trial=trial))
            assert rec.total_err <= rec.variance_err + rec.bias_sample_err + 1e-8

    def test_fast_path_matches_explicit(self, monkeypatch):
        a = run_trial(make_cfg())
        monkeypatch.setattr(xp, "make_operator", explicit_operator)
        b = run_trial(make_cfg())
        # same cloud and noise stream; norms are permutation-invariant
        assert a.total_err == pytest.approx(b.total_err, rel=1e-7, abs=1e-9)
        assert a.variance_err == pytest.approx(b.variance_err, rel=1e-7, abs=1e-9)

    def test_s2_matches_dense_oracle(self, monkeypatch):
        # the s = 2 solve runs COCG on (I + i sqrt(tau) Delta); a trial must
        # record what the spectral oracle's solution would give
        def dense(p, tol):
            return SolveReport(solve_resolvent_dense(p), 0, 0.0)

        for k, tau in enumerate((1e-4, 1e-2, 1.0)):
            cfg = make_cfg(s=2, n=400, eps=0.1, tau=tau, trial=k)
            a = run_trial(cfg)
            with monkeypatch.context() as m:
                m.setattr(xp, "solve_resolvent", dense)
                b = run_trial(cfg)
            assert not a.failed and a.solver_residual <= cfg.tol
            assert a.variance_err == pytest.approx(b.variance_err, rel=0, abs=1e-9)
            assert a.total_err == pytest.approx(b.total_err, rel=0, abs=1e-9)

    def test_true_residual_above_tol_recorded_as_failure(self):
        # d = 2, tau / eps^4 = 2e6 and N(1, 1) labels: the true residual of
        # the s = 2 solve rounds to above tol, so the trial is failed
        g_mean = FourierFunction.from_modes(2, [((0, 0), 1.0, 0.0)])
        cfg = make_cfg(g=g_mean, noise=NoiseSpec("gaussian", 1.0), d=2, s=2, n=400,
                       eps=0.1, tau=200.0)
        rec = run_trial(cfg)
        assert rec.failed and rec.solver_residual > cfg.tol
        assert math.isfinite(rec.variance_err)

    def test_solver_residual_recorded(self):
        rec = run_trial(make_cfg())
        assert rec.solver_residual <= 1e-10
        assert rec.solver_iterations >= 1

    def test_memory_budget(self, traced_peak):
        # the s = 1 solve holds the operator (20 B/pt), g, u*_tau and the
        # labels at the nodes (24), CG's x, r, d, work buffer (which also
        # holds z), product buffer and diagonal (48), and an apply's prefix
        # sums (8): the sampled cloud, the nodes, the noise and the order are
        # freed before they would add to that
        n = 1_000_000
        rec, peak = traced_peak(run_trial, make_cfg(n=n, eps=0.3, tau=0.3))
        assert not rec.failed
        assert peak <= 100 * n + MEMORY_SLACK, f"{peak / n:.2f} B/pt"


class TestRateSweep:
    def test_smoke_and_bias_constancy(self):
        sch = Schedule(d=1, s=1, n_grid=(256, 512, 1024))
        res = rate_sweep(sch, G_DEFAULT, NoiseSpec("gaussian", 0.1), 3, 0)
        assert len(res.records) == 9
        assert res.failure_count == 0
        assert res.predicted_exponent == pytest.approx(0.2)
        assert np.isfinite(res.slope_vs_rate)
        # bias is analytic: identical across trials sharing (g, tau, s)
        for n in sch.n_grid:
            biases = {r.bias_err for r in res.records if r.n == n}
            assert len(biases) == 1

    def test_predicted_exponents(self):
        assert Schedule(d=1, s=2, n_grid=(64,)).s / (1 + 4 * 2) == pytest.approx(2 / 9)

    def test_variance_decreases_with_n(self):
        sch = Schedule(d=1, s=1, n_grid=(512, 1024, 2048, 4096))
        res = rate_sweep(sch, G_DEFAULT, NoiseSpec("gaussian", 0.1), 10, 1)
        med = [
            float(np.median([r.variance_err for r in res.records if r.n == n]))
            for n in sch.n_grid
        ]
        inversions = sum(b > a for a, b in zip(med, med[1:]))
        assert inversions <= 1

    def test_bad_trials(self):
        sch = Schedule(d=1, s=1, n_grid=(64,))
        with pytest.raises(ValueError, match="^trials must be >= 1$"):
            rate_sweep(sch, G_DEFAULT, NoiseSpec("gaussian", 0.1), 0, 0)

    def test_explicit_cap_before_any_trial(self, refuse):
        # the n=1024 trial ran before the n=8192 graph failed the cap
        refuse("sample_cloud")
        g = FourierFunction.from_modes(2, [((1, 0), 1.0, 0.0)])
        with pytest.raises(MemoryError, match="~2.45e\\+07 edges"):
            rate_sweep(Schedule(d=2, s=1, n_grid=(1024, 8192)), g, NoiseSpec(), 1, 0)

    def test_single_n_nan_slopes(self):
        # one n leaves nothing to fit: NaN slopes, not a 0/0 RuntimeWarning
        sch = Schedule(d=1, s=1, n_grid=(256,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = rate_sweep(sch, G_DEFAULT, NoiseSpec("gaussian", 0.1), 2, 0)
        assert len(res.records) == 2
        for slope in (res.slope_vs_n, res.slope_vs_n_stderr, res.slope_vs_rate,
                      res.slope_vs_rate_stderr):
            assert math.isnan(slope)

    def test_forked_workers_after_block_threads(self, monkeypatch, tmp_path):
        # block-loop threads do not survive fork: a worker forked once this
        # process runs its pool must start its own, or a trial with more than
        # one BLOCK of points would wait forever on the parent's threads
        monkeypatch.setattr(blocks, "WORKERS", 2)
        IntervalLaplacian(np.arange(2 * BLOCK) / (2 * BLOCK), 0.1)
        assert blocks._pool[0] == os.getpid()
        sch = Schedule(d=1, s=1, n_grid=(BLOCK + 1, 2 * BLOCK))
        args = (sch, G_DEFAULT, NoiseSpec("gaussian", 0.1), 2, 3)
        with multiprocessing.get_context("fork").Pool(2) as pool:
            forked = rate_sweep(*args, map_fn=lambda fn, cfgs: pool.map_async(fn, cfgs).get(120))
        serial = rate_sweep(*args)
        assert forked.failure_count == 0 and len(forked.records) == 4
        write_records_csv(forked.records, tmp_path / "forked.csv")
        write_records_csv(serial.records, tmp_path / "serial.csv")
        assert (tmp_path / "forked.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()

    def test_median_slope_skips_empty_keys(self):
        # a grid key whose trials all failed has no pairs: it is left out of
        # the fit instead of reaching np.median([])
        pairs = [(1, 1.0), (4, 3.0), (4, 4.0), (4, 5.0)]
        slope, stderr = xp._median_slope((1, 2, 4), pairs, math.log)
        assert (slope, stderr) == (1.0, 0.0)
        assert all(math.isnan(v) for v in xp._median_slope((1, 2), [(1, 1.0)], math.log))


class TestConsistencySweep:
    @pytest.mark.parametrize("s", [0, -1])
    def test_power_below_one_rejected(self, s):
        u = FourierFunction.from_modes(1, [((1,), 0.0, 1.0)])
        with pytest.raises(ValueError, match="s must be >= 1"):
            consistency_sweep(u, s, [0.2], lambda e: 200, 1, 0)
        with pytest.raises(ValueError, match="s must be >= 1"):
            default_n_rule(40, 1, s)

    def test_constant_zero_error(self):
        u = FourierFunction.from_modes(1, [((0,), 3.0, 0.0)])
        res = consistency_sweep(u, 1, [0.2, 0.1], lambda e: 200, 2, 0)
        assert all(r.consistency_err < 1e-10 for r in res.records)
        assert all(v < 1e-10 for v in res.stochastic_err)
        assert res.nonlocal_bias == {0.2: 0.0, 0.1: 0.0}

    @pytest.mark.parametrize("eps", [0.2, 0.14, 0.1, 0.07])
    def test_nonlocal_bias_closed_form(self, eps):
        # sin(2 pi x): Delta_eps multiplier 4/eps^2 (1 - sinc(2 pi eps)) against
        # the local sigma_eta 4 pi^2 = (2/3) 4 pi^2, and ||sin|| = 1/sqrt(2)
        u = FourierFunction.from_modes(1, [((1,), 0.0, 1.0)])
        res = consistency_sweep(u, 1, [eps], lambda e: 300, 1, 0)
        a = 2.0 * math.pi * eps
        exact = abs(4.0 / eps**2 * (1.0 - math.sin(a) / a) - 2.0 / 3.0 * 4.0 * math.pi**2)
        assert res.nonlocal_bias[eps] == pytest.approx(exact / math.sqrt(2.0), rel=1e-9)

    def test_stochastic_part_matches_direct_evaluation(self):
        u = FourierFunction.from_modes(1, [((1,), 0.3, 1.0), ((3,), -0.2, 0.5)])
        eps, n, s = 0.15, 3000, 2
        res = consistency_sweep(u, s, [eps], lambda e: n, 1, 5)
        cloud = sample_cloud(UNIFORM, n, 1, derive_seed(5, 0, 0))
        op = IntervalLaplacian(cloud[:, 0], eps)
        nodes = op.x.reshape(-1, 1)
        ref_eps = u.map_modes(lambda k: nonlocal_multiplier(k, eps) ** s)
        lu = apply_poly_laplacian(op, u.evaluate(nodes), s)
        assert res.stochastic_err[0] == l2_mu_n(lu - ref_eps.evaluate(nodes))

    @pytest.mark.parametrize("eps", [0.2, 0.1])
    def test_nonlocal_bias_closed_form_d2(self, eps):
        # cos(2 pi x_1) + 0.5 sin(2 pi (x_1 + x_2)): Delta_eps multiplier
        # (2/eps^2) (pi - J_1(2 pi r) / r), r = |k| eps, against the local
        # sigma_eta 4 pi^2 |k|^2 = pi^3 |k|^2; the 64^2-node quadrature that
        # gave the multipliers before was about 1.5% high
        u = FourierFunction.from_modes(2, [((1, 0), 1.0, 0.0), ((1, 1), 0.0, 0.5)])
        res = consistency_sweep(u, 1, [eps], lambda e: 200, 1, 0)
        gaps = []
        for k2 in (1, 2):
            r = math.sqrt(k2) * eps
            mult = 2.0 / eps**2 * (math.pi - special.j1(2.0 * math.pi * r) / r)
            gaps.append(math.pi**3 * k2 - mult)
        exact = math.sqrt(0.5 * gaps[0] ** 2 + 0.5 * (0.5 * gaps[1]) ** 2)
        assert res.nonlocal_bias[eps] == pytest.approx(exact, rel=1e-12)

    def test_single_eps_nan_slopes(self):
        u = FourierFunction.from_modes(1, [((1,), 0.0, 1.0)])
        res = consistency_sweep(u, 1, [0.2], lambda e: 200, 2, 0)
        assert math.isnan(res.slope) and math.isnan(res.stochastic_slope)
        assert math.isnan(res.stochastic_slope_stderr)
        assert len(res.stochastic_err) == len(res.records) == 2

    def test_bad_trials(self):
        u = FourierFunction.from_modes(1, [((1,), 0.0, 1.0)])
        with pytest.raises(ValueError, match="trials"):
            consistency_sweep(u, 1, [0.3, 0.2], lambda e: 200, 0, 0)

    @pytest.mark.parametrize("eps", [0.0, -0.1, 0.6, float("nan")])
    def test_n_rule_rejects_eps_outside_half_interval(self, eps):
        with pytest.raises(ValueError, match=r"must lie in \(0, 1/2\]"):
            default_n_rule(40, 1, 1)(eps)

    def test_memory_cap(self):
        # the default rule asks for n(0.05) = 383453732 > CONSISTENCY_N_CAP
        u = FourierFunction.from_modes(1, [((1,), 0.0, 1.0)])
        with pytest.raises(MemoryError):
            consistency_sweep(u, 1, [0.05], default_n_rule(40, 1, 1), 1, 0)

    def test_memory_cap_before_any_cloud(self, refuse):
        # the cap is checked on the whole grid before the first trial runs
        refuse("sample_cloud")
        u = FourierFunction.from_modes(1, [((1,), 0.0, 1.0)])
        with pytest.raises(MemoryError, match="n\\(eps=0.05\\)"):
            consistency_sweep(u, 1, [0.3, 0.05], default_n_rule(40, 1, 1), 1, 0)

    def test_explicit_cap_before_any_cloud(self, refuse):
        # in d=2 the rule asks for n(0.2) = 1005899 points, far past the graph cap
        refuse("sample_cloud")
        u = FourierFunction.from_modes(2, [((1, 0), 0.0, 1.0)])
        with pytest.raises(MemoryError, match="~6.36e\\+10 edges"):
            consistency_sweep(u, 1, [0.2], default_n_rule(40, 2, 1), 1, 0)

    @pytest.mark.parametrize(
        "s, modes",
        [(1, SINE), (2, SINE), (1, COS_SIN), (2, COS_SIN)],
        ids=["1", "2", "cos_sin-1", "cos_sin-2"],
    )
    def test_memory_budget(self, traced_peak, s, modes):
        # a d=1 trial holds at most the operator (20 B/pt), the signal,
        # which every apply overwrites, and the prefix sums (8 B/pt each):
        # the sampled cloud, the operator's index arrays and the previous
        # trial's arrays are freed before they would add to that, and the
        # references are evaluated in blocks, however many waves a mode has.
        # The workers' span buffers share one block's room
        n = 1_000_000
        u = FourierFunction.from_modes(1, modes)
        for workers in (1, 2):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(blocks, "WORKERS", workers)
                res, peak = traced_peak(consistency_sweep, u, s, [0.1], lambda e: n, 2, 3)
            assert [r.n for r in res.records] == [n, n]
            assert peak <= MEMORY_BUDGET * n + MEMORY_SLACK, f"{workers}: {peak / n:.2f} B/pt"

    def test_s2_errors_decrease(self):
        # n(eps) must follow the d + 4s rule or the fluctuation term takes
        # over as eps shrinks; s = 2 needs the steeper exponent
        u = FourierFunction.from_modes(1, [((1,), 0.0, 1.0)])
        eps_grid = [0.4, 0.3, 0.2]
        res = consistency_sweep(u, 2, eps_grid, default_n_rule(5, 1, 2), 3, 2)
        med = [
            float(np.median([r.consistency_err for r in res.records if r.eps == e]))
            for e in eps_grid
        ]
        assert med[0] > med[1] > med[2]


class TestDegreeConcentration:
    def test_uniform_band(self):
        summary = degree_concentration_check(10_000, 1, 0.05, UNIFORM, INDICATOR, 3, 0)
        assert summary.min_normalized_degree >= 1.0
        assert summary.max_normalized_degree <= 3.0
        assert summary.within_cap

    def test_trivial_cap(self):
        summary = degree_concentration_check(100, 1, 0.5, UNIFORM, INDICATOR, 2, 0)
        assert summary.max_neighbor_count <= 99

    def test_regime_validation(self):
        with pytest.raises(ValueError):
            degree_concentration_check(10, 2, 0.05, UNIFORM, INDICATOR, 1, 0)
        with pytest.raises(ValueError, match="trials"):
            degree_concentration_check(10_000, 1, 0.05, UNIFORM, INDICATOR, 0, 0)

    def test_explicit_cap_before_any_cloud(self, refuse):
        refuse("sample_cloud")
        with pytest.raises(MemoryError, match="~6.7e\\+08 edges"):
            degree_concentration_check(200_000, 3, 0.2, UNIFORM, INDICATOR, 1, 0)

    def test_d1_indicator_builds_no_explicit_graph(self, refuse):
        # the call of acceptance criterion 7
        refuse("build_graph")
        summary = degree_concentration_check(10_000, 1, 0.05, UNIFORM, INDICATOR, 10, 0)
        assert 1.0 <= summary.min_normalized_degree
        assert summary.max_normalized_degree <= 3.0
        assert summary.within_cap

    @pytest.mark.parametrize(
        "n, eps, density, trials",
        [
            (10_000, 0.05, UNIFORM, 1),
            (100, 0.5, UNIFORM, 2),
            (3000, 0.01, DensitySpec("cosine_bump", 0.5, (1,)), 3),
        ],
    )
    def test_interval_matches_explicit(self, monkeypatch, n, eps, density, trials):
        fast = degree_concentration_check(n, 1, eps, density, INDICATOR, trials, 4)
        monkeypatch.setattr(xp, "make_operator", explicit_operator)
        slow = degree_concentration_check(n, 1, eps, density, INDICATOR, trials, 4)
        for name in ("min_normalized_degree", "max_normalized_degree"):
            assert getattr(fast, name) == pytest.approx(getattr(slow, name), rel=1e-12)
        assert fast.max_neighbor_count == slow.max_neighbor_count
        assert fast.neighbor_cap == slow.neighbor_cap
        assert fast.within_cap == slow.within_cap


class TestMakeOperator:
    def test_explicit_size_guard(self, refuse):
        refuse("build_graph")
        points = sample_cloud(UNIFORM, 100_000, 1, 0)
        with pytest.raises(MemoryError, match="edges"):
            xp.make_operator(points, 0.05, PLATEAU)
        op, _, _ = xp.make_operator(points, 0.05, INDICATOR)  # interval form: no cap
        assert op.n == 100_000

    @pytest.mark.parametrize("kernel", [INDICATOR, PLATEAU])
    def test_points_not_a_cloud(self, kernel):
        # a 1-D array once failed with "not enough values to unpack"
        with pytest.raises(ValueError, match=r"^points must be an \(n, d\) array"):
            xp.make_operator(np.array([0.1, 0.2, 0.5]), 0.2, kernel)

    def test_only_caller_of_the_constructors(self):
        # one dispatch: no other function in the package builds an operator
        constructors = {"build_graph", "IntervalLaplacian"}

        def callers(node, scope):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                scope = f"{scope}.{node.name}"
            if isinstance(node, ast.Call):
                func = node.func
                if getattr(func, "id", getattr(func, "attr", None)) in constructors:
                    yield scope
            for child in ast.iter_child_nodes(node):
                yield from callers(child, scope)

        found = set()
        for path in Path(xp.__file__).parent.glob("*.py"):
            found.update(callers(ast.parse(path.read_text(encoding="utf-8")), path.stem))
        assert found == {"experiments.make_operator"}


class TestOperatorOrder:
    @pytest.mark.parametrize("n", [1, 2, 50, 5000])
    @pytest.mark.parametrize("grid", [None, 64])
    def test_equals_stable_argsort(self, n, grid):
        # on a 1/64 grid most coordinates are tied; the stable order keeps
        # tied points in sampling order
        for seed in range(3):
            x = sample_cloud(UNIFORM, n, 1, 900 + seed)
            if grid:
                x = np.floor(x * grid) / grid
            _, nodes, order = xp.make_operator(x, 0.1, INDICATOR, want_order=True)
            assert np.array_equal(order, np.argsort(x[:, 0], kind="stable"))
            assert np.array_equal(nodes[:, 0], x[order, 0])

    def test_reversed_and_constant(self):
        for x in (np.linspace(0.9, 0.0, 200), np.full(200, 0.25), np.repeat([0.5, 0.1], 100)):
            _, _, order = xp.make_operator(x.reshape(-1, 1), 0.1, INDICATOR, want_order=True)
            assert np.array_equal(order, np.argsort(x, kind="stable"))


class TestAnsatzNormSweep:
    def test_bounded_spread(self):
        out = ansatz_norm_sweep(
            [0.2, 0.14, 0.1, 0.07], 2000, 1, 0.1, 1, NoiseSpec("gaussian", 0.1), 3, 0
        )
        vals = [v for _, v in out]
        assert max(vals) / min(vals) < 5.0

    def test_bad_trials(self):
        with pytest.raises(ValueError, match="trials"):
            ansatz_norm_sweep([0.2], 200, 1, 0.1, 1, NoiseSpec("gaussian", 0.1), 0, 0)


class TestRecordsCSV:
    def make_records(self):
        return [
            ExperimentRecord(
                n=100, d=1, s=1, eps=0.1, tau=0.01, seed=0, trial=t,
                variance_err=0.1 * t + 0.05, bias_err=0.123456789012345,
                bias_sample_err=0.2, total_err=0.3, consistency_err=float("nan"),
                solver_iterations=12, solver_residual=1e-11, failed=(t == 2),
            )
            for t in range(3)
        ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "records.csv"
        records = self.make_records()
        write_records_csv(records, path)
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 3
        for rec, row in zip(records, rows):
            assert list(row) == RECORD_FIELDS
            for name in RECORD_FIELDS:
                want, text = getattr(rec, name), row[name]
                if isinstance(want, bool):
                    assert text == ("1" if want else "0")
                elif isinstance(want, int):
                    assert int(text) == want
                elif math.isnan(want):
                    assert math.isnan(float(text))
                else:
                    assert float(text) == want

    def test_byte_determinism(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_records_csv(self.make_records(), p1)
        write_records_csv(self.make_records(), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header(self, tmp_path):
        path = tmp_path / "records.csv"
        write_records_csv([], path)
        assert path.read_text().strip() == ",".join(RECORD_FIELDS)

    def test_bytes_of_the_per_type_form(self, tmp_path):
        # the bytes of the per-value writer the shared one replaced: a bool
        # as 0/1, a float (np.float64 too) as repr(float(v)), else str(v)
        def per_type(records):
            lines = [",".join(RECORD_FIELDS)]
            for r in records:
                row = []
                for name in RECORD_FIELDS:
                    v = getattr(r, name)
                    if isinstance(v, bool):
                        row.append("1" if v else "0")
                    elif isinstance(v, float):
                        row.append(repr(float(v)))
                    else:
                        row.append(str(v))
                lines.append(",".join(row))
            return "".join(line + "\n" for line in lines).encode()

        values = [-0.0, float("nan"), math.inf, -math.inf, 5e-324, 1e16, 0.1 + 0.2,
                  np.float64(0.1)]
        records = [
            ExperimentRecord(
                n=100 + t, d=1, s=2, eps=v, tau=values[-1 - t], seed=2**64 + 1 if t else t,
                trial=t, variance_err=v, bias_err=np.float64(v), bias_sample_err=-v,
                total_err=v * 3, consistency_err=values[t - 1], solver_iterations=t,
                solver_residual=np.float64(values[-1 - t]), failed=t % 3 == 1,
            )
            for t, v in enumerate(values)
        ]
        path = tmp_path / "records.csv"
        write_records_csv(records, path)
        assert path.read_bytes() == per_type(records)
        assert b"np." not in path.read_bytes()


def boundary_operator():
    return build_graph(sample_cloud(UNIFORM, 40, 1, 3), 0.2)


# every function that takes tau, called with a given tau
TAU_TAKERS = {
    "ResolventProblem": lambda tau: ResolventProblem(boundary_operator(), np.ones(40), tau, 1),
    "continuum_solve_uniform": lambda tau: continuum_solve_uniform(G_DEFAULT, tau, 1, 1.0),
    "bias_bound": lambda tau: bias_bound(G_DEFAULT, tau, 1, 1.0),
    "exact_bias": lambda tau: exact_bias(G_DEFAULT, tau, 1, 1.0),
    "ansatz_signal": lambda tau: ansatz_signal(boundary_operator(), np.ones(40), tau, 1),
}

# every function that takes a Laplacian power s >= 1, called with a given s
POWER_TAKERS = {
    "Schedule": lambda s: Schedule(d=1, s=s, n_grid=(64,)),
    "default_n_rule": lambda s: default_n_rule(40, 1, s),
    "consistency_sweep": lambda s: consistency_sweep(
        FourierFunction.from_modes(1, SINE), s, [0.2], lambda e: 200, 1, 0
    ),
    "dirichlet_energy": lambda s: dirichlet_energy(boundary_operator(), np.ones(40), s),
    "ansatz_signal": lambda s: ansatz_signal(boundary_operator(), np.ones(40), 0.1, s),
    "solve_resolvent": lambda s: solve_resolvent(
        ResolventProblem(boundary_operator(), np.ones(40), 0.1, s)
    ),
}


class TestParameterBoundaries:
    """One check per parameter: check_tau for tau, check_power for s."""

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("taker", TAU_TAKERS)
    def test_bad_tau(self, taker, tau):
        # exact_bias once returned a bias for tau = -1, and NaN passed every
        # one of them but ResolventProblem
        with pytest.raises(ValueError, match="tau must be finite and >= 0"):
            TAU_TAKERS[taker](tau)

    @pytest.mark.parametrize("s", [0, -1, 1.5])
    @pytest.mark.parametrize("taker", POWER_TAKERS)
    def test_bad_power(self, taker, s):
        # s = 1.5 passed Schedule, default_n_rule and ansatz_signal, and
        # dirichlet_energy raised a TypeError from range()
        with pytest.raises(ValueError, match="s must be|integer s >= 1"):
            POWER_TAKERS[taker](s)
