"""Resolvent solves: CG path, dense spectral oracle, and the diagonal ansatz."""

import numpy as np
import pytest

from polylap.geometry import UNIFORM, make_rng, sample_cloud
from polylap.graph import (
    IntervalLaplacian,
    apply_poly_laplacian,
    build_graph,
    dense_spectrum,
    dirichlet_energy,
    l2_mu_n,
)
from polylap.solver import (
    DEFAULT_TOL,
    ResolventProblem,
    SolverError,
    ansatz_signal,
    check_residual,
    solve_resolvent,
    solve_resolvent_dense,
)


def two_point_graph():
    return build_graph(np.array([[0.0], [0.1]]), 0.2)


def random_graph(n, d, seed, eps=0.2):
    return build_graph(sample_cloud(UNIFORM, n, d, seed), eps)


class TestResolventProblem:
    def test_validation(self):
        g = two_point_graph()
        with pytest.raises(ValueError):
            ResolventProblem(g, np.zeros(2), -1.0, 1)
        with pytest.raises(ValueError):
            ResolventProblem(g, np.zeros(2), 1.0, -1)
        with pytest.raises(ValueError):
            ResolventProblem(g, np.zeros(3), 1.0, 1)

    @pytest.mark.parametrize("tau", [np.nan, np.inf])
    def test_non_finite_tau(self, tau):
        with pytest.raises(ValueError, match="finite"):
            ResolventProblem(two_point_graph(), [1.0, 0.0], tau)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_labels(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ResolventProblem(two_point_graph(), [1.0, bad], 0.1)

    def test_fractional_s_passes_through(self):
        g = random_graph(40, 1, 27)
        y = make_rng(28).standard_normal(40)
        p = ResolventProblem(g, y, 0.01, 1.5)
        assert p.s == 1.5
        with pytest.raises(ValueError, match="integer s"):
            solve_resolvent(p)
        vals, vecs = dense_spectrum(g)
        filt = 1.0 + 0.01 * np.clip(vals, 0.0, None) ** 1.5
        expected = vecs @ ((vecs.T @ y / g.n) / filt)
        assert np.array_equal(solve_resolvent_dense(p), expected)


class TestSolveResolvent:
    def test_tau_zero_identity(self):
        g = random_graph(50, 1, 1)
        y = make_rng(2).standard_normal(50)
        report = solve_resolvent(ResolventProblem(g, y, 0.0))
        assert np.array_equal(report.solution, y)
        assert report.iterations == 0

    def test_constant_labels_fixed_point(self):
        g = random_graph(80, 1, 3)
        y = np.full(80, 1.7)
        report = solve_resolvent(ResolventProblem(g, y, 0.5, 2))
        assert np.allclose(report.solution, y, atol=1e-8)

    def test_two_point_hand_solve(self):
        # A = I + 0.01 * [[125,-125],[-125,125]] = [[2.25,-1.25],[-1.25,2.25]]
        report = solve_resolvent(ResolventProblem(two_point_graph(), [1.0, 0.0], 0.01))
        assert report.solution == pytest.approx([9.0 / 14.0, 5.0 / 14.0], abs=1e-10)
        assert report.final_relative_residual <= 1e-10

    def test_energy_history_non_increasing(self):
        # CG minimizes the quadratic objective over a growing Krylov space, so
        # the recorded energy decreases monotonically (the plain residual norm
        # does not and is diagnostic only)
        g = random_graph(150, 1, 5, eps=0.1)
        y = make_rng(6).standard_normal(150)
        tau, s = 0.05, 1
        report = solve_resolvent(ResolventProblem(g, y, tau, s))
        energies = np.array(report.energy_history)
        assert len(energies) == len(report.residual_history)
        assert np.all(np.diff(energies) <= 1e-13)
        # the recurrence tracks the directly evaluated objective
        u = report.solution
        from polylap.graph import inner_mu_n

        au = tau * apply_poly_laplacian(g, u, s) + u
        direct = 0.5 * inner_mu_n(au, u) - inner_mu_n(y, u)
        assert energies[-1] == pytest.approx(direct, rel=1e-8)

    def test_non_expansive(self):
        rng = make_rng(9)
        for k in range(25):
            g = random_graph(int(rng.integers(20, 80)), 1, 1000 + k)
            y = rng.standard_normal(g.n)
            for s, tau in [(1, 0.0), (1, 0.01), (2, 1.0), (3, 100.0)]:
                u = solve_resolvent(ResolventProblem(g, y, tau, s)).solution
                assert l2_mu_n(u) <= l2_mu_n(y) * (1 + 1e-10)

    def test_energy_first_order_optimality(self):
        g = random_graph(60, 1, 11)
        y = make_rng(12).standard_normal(60)
        tau, s = 0.1, 1

        def energy(u):
            return l2_mu_n(u - y) ** 2 + tau * dirichlet_energy(g, u, s)

        u = solve_resolvent(ResolventProblem(g, y, tau, s)).solution
        e0 = energy(u)
        rng = make_rng(13)
        for _ in range(50):
            dv = rng.standard_normal(60)
            dv *= 0.01 / l2_mu_n(dv)
            assert e0 <= energy(u + dv) + 1e-12

    def test_max_iters_error_carries_report(self):
        g = random_graph(100, 1, 15, eps=0.05)
        y = make_rng(16).standard_normal(100)
        with pytest.raises(SolverError) as exc:
            solve_resolvent(ResolventProblem(g, y, 10.0, 2), max_iters=2)
        report = exc.value.report
        assert report.iterations == 2
        assert report.solution.shape == (100,)
        assert report.final_relative_residual > 0

    def test_check_residual(self):
        # d = 2, tau / eps^4 = 2e6, labels with an N(0, 1) mean: CG's
        # recurrence reaches tol, but the recomputed true residual does not
        # (nor does that of the dense oracle's solution, though the iterate
        # matches it); check_residual raises with the report attached
        g = random_graph(400, 2, 3001, eps=0.1)
        y = make_rng(3010).standard_normal(g.n)
        p = ResolventProblem(g, y, 200.0, 2)
        report = solve_resolvent(p)
        assert report.residual_history[-1] <= DEFAULT_TOL < report.final_relative_residual
        au = 200.0 * apply_poly_laplacian(g, report.solution, 2) + report.solution
        assert l2_mu_n(au - y) / l2_mu_n(y) == report.final_relative_residual
        assert l2_mu_n(report.solution - solve_resolvent_dense(p)) < 1e-8
        with pytest.raises(SolverError, match="true residual") as exc:
            check_residual(report)
        assert exc.value.report is report
        assert check_residual(report, tol=1e-7) is report
        # a solve that meets tol passes through
        met = solve_resolvent(ResolventProblem(g, y - y.mean(), 200.0, 2))
        assert check_residual(met) is met

    def test_validation(self):
        g = two_point_graph()
        p = ResolventProblem(g, [1.0, 0.0], 0.1)
        with pytest.raises(ValueError):
            solve_resolvent(p, tol=0.0)
        for tol in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                solve_resolvent(p, tol=tol)
        with pytest.raises(ValueError):
            solve_resolvent(ResolventProblem(g, np.array([1.0, 0.0]), 0.1, 1.5))


def pcg_reference(p, tol):
    """The PCG loop as written before its passes went in place."""
    g, tau, s = p.graph, p.tau, int(p.s)
    diag = tau * (2.0 * g.degrees / (g.n * g.eps**2)) ** s + 1.0
    y_norm = l2_mu_n(p.y)
    u, r = np.zeros(g.n), p.y.copy()
    z = r / diag
    d = z.copy()
    rz = float(r @ z)
    history = [l2_mu_n(r) / y_norm]
    while True:
        ad = tau * apply_poly_laplacian(g, d, s) + d
        alpha = rz / float(d @ ad)
        u += alpha * d
        r -= alpha * ad
        history.append(l2_mu_n(r) / y_norm)
        if history[-1] <= tol:
            return u, history
        z = r / diag
        rz_new = float(r @ z)
        d = z + (rz_new / rz) * d
        rz = rz_new


class TestRealPCGBitwise:
    def test_matches_reference_loop(self):
        ops = [
            random_graph(150, 2, 3101, eps=0.2),
            IntervalLaplacian(sample_cloud(UNIFORM, 300, 1, 3102)[:, 0], 0.1),
        ]
        for k, op in enumerate(ops):
            y = make_rng(3103 + k).standard_normal(op.n)
            for s, tau in [(1, 0.05), (3, 1e-4)]:
                p = ResolventProblem(op, y, tau, s)
                u, history = pcg_reference(p, 1e-10)
                report = solve_resolvent(p, tol=1e-10)
                assert np.array_equal(report.solution.view(np.int64), u.view(np.int64))
                assert report.residual_history == history


class TestShiftedPairCG:
    """s = 2 solves u = Re z with (I + i sqrt(tau) Delta) z = y by COCG."""

    TOL = 1e-10

    @staticmethod
    def stiff_cases():
        # tau / eps^4 >= 1e6 on both operator forms
        g = random_graph(400, 2, 3001, eps=0.1)
        op = IntervalLaplacian(sample_cloud(UNIFORM, 450, 1, 3002)[:, 0], 0.05)
        return [(g, 200.0), (op, 10.0)]

    @staticmethod
    def labels(n, seed):
        # mean-free: the resolvent keeps a constant exactly, but Delta of a
        # constant rounds to about 1e-16 D, which tau Delta^2 lifts to a
        # residual floor of about 1e-16 tau ||Delta||^2 |mean| (5e-9 for the
        # exact solution here with an N(0,1) mean)
        y = make_rng(seed).standard_normal(n)
        return y - y.mean()

    @staticmethod
    def real_residual(op, y, tau, u):
        au = tau * apply_poly_laplacian(op, u, 2) + u
        return l2_mu_n(au - y) / l2_mu_n(y)

    def test_matches_dense_oracle_when_stiff(self):
        for k, (op, tau) in enumerate(self.stiff_cases()):
            assert tau / op.eps**4 >= 1e6
            y = self.labels(op.n, 3010 + k)
            p = ResolventProblem(op, y, tau, 2)
            report = solve_resolvent(p, tol=self.TOL)
            assert report.solution.dtype == np.float64
            assert l2_mu_n(report.solution - solve_resolvent_dense(p)) < 1e-8
            assert report.final_relative_residual <= self.TOL
            assert self.real_residual(op, y, tau, report.solution) <= self.TOL
            assert report.energy_history == []
            assert report.residual_history[-1] <= self.TOL

    def test_history_bounds_the_real_residual(self):
        op, tau = self.stiff_cases()[0]
        y = self.labels(op.n, 3020)
        p = ResolventProblem(op, y, tau, 2)
        for k in (1, 2, 5, 20, 60):
            with pytest.raises(SolverError) as exc:
                solve_resolvent(p, tol=self.TOL, max_iters=k)
            report = exc.value.report
            assert report.iterations == k
            assert len(report.residual_history) == k + 1
            assert self.real_residual(op, y, tau, report.solution) <= report.residual_history[-1]

    def test_error_carries_real_solution(self):
        op, tau = self.stiff_cases()[1]
        y = self.labels(op.n, 3030)
        with pytest.raises(SolverError) as exc:
            solve_resolvent(ResolventProblem(op, y, tau, 2), max_iters=3)
        u = exc.value.report.solution
        assert u.dtype == np.float64 and u.shape == (op.n,)
        assert u.flags.c_contiguous


class TestDenseOracle:
    def test_matches_cg_on_random_instances(self):
        rng = make_rng(21)
        cases = [(s, tau) for s in (1, 2, 3) for tau in (0.01, 1.0, 100.0)]
        for k in range(20):
            d = 1 + k % 2
            n = int(rng.integers(30, 300))
            g = random_graph(n, d, 2000 + k, eps=0.25)
            y = rng.standard_normal(n)
            s, tau = cases[k % len(cases)]
            p = ResolventProblem(g, y, tau, s)
            u_cg = solve_resolvent(p).solution
            u_dense = solve_resolvent_dense(p)
            assert l2_mu_n(u_cg - u_dense) < 1e-8, (k, n, d, s, tau)

    def test_matches_cg_on_interval_laplacian(self):
        op = IntervalLaplacian(sample_cloud(UNIFORM, 200, 1, 2100)[:, 0], 0.15)
        y = make_rng(2101).standard_normal(op.n)
        for s, tau in [(1, 0.01), (2, 1.0), (3, 100.0)]:
            p = ResolventProblem(op, y, tau, s)
            assert l2_mu_n(solve_resolvent(p).solution - solve_resolvent_dense(p)) < 1e-8

    def test_tau_zero(self):
        g = random_graph(40, 1, 23)
        y = make_rng(24).standard_normal(40)
        assert np.allclose(solve_resolvent_dense(ResolventProblem(g, y, 0.0)), y, atol=1e-9)

    def test_s_zero_scalar_resolvent(self):
        g = random_graph(40, 1, 25)
        y = make_rng(26).standard_normal(40)
        u = solve_resolvent_dense(ResolventProblem(g, y, 3.0, 0))
        assert np.allclose(u, y / 4.0, atol=1e-9)

    def test_eigenvector_direction_shrinkage(self):
        g = random_graph(100, 1, 27, eps=0.3)
        vals, vecs = dense_spectrum(g)
        tau, s = 0.05, 2
        for i in (1, 5, 20):
            y = vecs[:, i]
            u = solve_resolvent_dense(ResolventProblem(g, y, tau, s))
            expected = y / (1.0 + tau * max(vals[i], 0.0) ** s)
            assert l2_mu_n(u - expected) < 1e-8

    def test_non_integer_s(self):
        g = random_graph(60, 1, 29, eps=0.3)
        y = make_rng(30).standard_normal(60)
        u = solve_resolvent_dense(ResolventProblem(g, y, 0.1, 1.5))
        assert l2_mu_n(u) <= l2_mu_n(y) * (1 + 1e-10)


class TestAnsatz:
    def test_tau_zero_identity(self):
        g = two_point_graph()
        xi = np.array([0.3, -0.4])
        assert np.array_equal(ansatz_signal(g, xi, 0.0), xi)

    def test_isolated_node_passthrough(self):
        g = build_graph(np.array([[0.0], [0.5]]), 0.1)
        xi = np.array([2.0, -3.0])
        assert np.array_equal(ansatz_signal(g, xi, 5.0), xi)

    def test_two_point_hand_value(self):
        out = ansatz_signal(two_point_graph(), np.array([1.0, 1.0]), 0.01, 1)
        assert out == pytest.approx([1 / 2.25, 1 / 2.25], rel=1e-14)

    def test_validation(self):
        g = two_point_graph()
        with pytest.raises(ValueError):
            ansatz_signal(g, np.zeros(2), 0.1, 0)
        with pytest.raises(ValueError):
            ansatz_signal(g, np.zeros(2), -0.1, 1)
