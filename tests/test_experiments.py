"""Trials, schedules, sweeps, and the records CSV format."""

import csv
import math
import warnings

import numpy as np
import pytest

from polylap import experiments as xp
from polylap.continuum import FourierFunction, nonlocal_laplacian
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
from polylap.graph import (
    BLOCK,
    IntervalLaplacian,
    apply_poly_laplacian,
    build_graph,
    l2_mu_n,
)
from polylap.solver import SolveReport, solve_resolvent_dense

G_DEFAULT = FourierFunction.from_modes(1, [((1,), 1.0, 0.0), ((2,), 0.0, 0.5)])
# peak bytes per point of a d=1 consistency trial, plus a fixed slack for
# block-sized work arrays
MEMORY_BUDGET = 45
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
        with pytest.raises(ValueError):
            rate_sweep(sch, G_DEFAULT, NoiseSpec("gaussian", 0.1), 0, 0)

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

    def test_median_slope_skips_empty_keys(self):
        # a grid key whose trials all failed has no pairs: it is left out of
        # the fit instead of reaching np.median([])
        pairs = [(1, 1.0), (4, 3.0), (4, 4.0), (4, 5.0)]
        slope, stderr = xp._median_slope((1, 2, 4), pairs, math.log)
        assert (slope, stderr) == (1.0, 0.0)
        assert all(math.isnan(v) for v in xp._median_slope((1, 2), [(1, 1.0)], math.log))


class TestConsistencySweep:
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
        ref_eps = u.map_modes(
            lambda k: nonlocal_laplacian(
                FourierFunction.from_modes(1, [(k, 1.0, 0.0)]), UNIFORM, eps, INDICATOR, [0.0]
            )
            ** s
        )
        lu = apply_poly_laplacian(op, u.evaluate(nodes), s)
        assert res.stochastic_err[0] == l2_mu_n(lu - ref_eps.evaluate(nodes))

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
        u = FourierFunction.from_modes(1, [((1,), 0.0, 1.0)])
        with pytest.raises(MemoryError):
            consistency_sweep(
                u, 1, [0.05], default_n_rule(40, 1, 1), 1, 0, n_cap=10_000
            )

    @pytest.mark.parametrize(
        "s, modes",
        [(1, SINE), (2, SINE), (1, COS_SIN), (2, COS_SIN)],
        ids=["1", "2", "cos_sin-1", "cos_sin-2"],
    )
    def test_memory_budget(self, traced_peak, s, modes):
        # a d=1 trial holds at most the operator (20 B/pt), the signal, the
        # prefix sums and one apply's result (8 B/pt each): the sampled cloud,
        # the inputs of earlier applies, the operator's index arrays and the
        # previous trial's arrays are freed before they would add to that,
        # and the references are evaluated in blocks, however many waves a
        # mode has
        n = 1_000_000
        u = FourierFunction.from_modes(1, modes)
        res, peak = traced_peak(consistency_sweep, u, s, [0.1], lambda e: n, 2, 3)
        assert [r.n for r in res.records] == [n, n]
        assert peak <= MEMORY_BUDGET * n + MEMORY_SLACK, f"{peak / n:.2f} B/pt"

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
