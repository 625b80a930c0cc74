"""Exact Fourier references, nonlocal Laplacian quadrature, pseudo-spectral path."""

import math

import numpy as np
import pytest
from scipy import special

from polylap import blocks
from polylap.continuum import (
    FourierFunction,
    bias_bound,
    continuum_laplacian_uniform,
    continuum_solve_uniform,
    exact_bias,
    mode_multiplier,
    nonlocal_multiplier,
)
from polylap.geometry import (
    INDICATOR,
    UNIFORM,
    DensitySpec,
    sample_cloud,
    sigma_eta,
    unit_ball_volume,
)
from polylap.blocks import BLOCK
from oracles import (
    GridField,
    grid_points,
    nonlocal_laplacian,
    pseudo_spectral_continuum_laplacian,
    sample_on_grid,
)

SIGMA1 = 2.0 / 3.0  # sigma_eta(INDICATOR, 1)
COEFF = SIGMA1 * 4.0 * math.pi**2  # eigenvalue of mode k=1, d=1


def cos1():
    return FourierFunction.from_modes(1, [((1,), 1.0, 0.0)])


class TestFourierFunction:
    def test_canonicalization_merges_negatives(self):
        # cos is even, sin is odd: a survives, b flips
        f = FourierFunction.from_modes(1, [((1,), 1.0, 0.5), ((-1,), 1.0, 0.5)])
        assert f.modes == {(1,): (2.0, 0.0)}

    def test_zero_mode_drops_sine(self):
        f = FourierFunction.from_modes(1, [((0,), 2.0, 3.0)])
        assert f.modes == {(0,): (2.0, 0.0)}

    def test_evaluation(self):
        f = FourierFunction.from_modes(1, [((1,), 1.0, 0.0), ((2,), 0.0, 0.5)])
        x = np.array([[0.0], [0.25], [0.4]])
        expected = np.cos(2 * np.pi * x[:, 0]) + 0.5 * np.sin(4 * np.pi * x[:, 0])
        assert np.allclose(f.evaluate(x), expected, atol=1e-14)

    def test_parseval_norm(self):
        f = FourierFunction.from_modes(1, [((0,), 2.0, 0.0), ((1,), 1.0, 1.0)])
        assert f.l2_norm_uniform() == pytest.approx(math.sqrt(4.0 + 1.0), rel=1e-15)

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            FourierFunction.from_modes(2, [((1,), 1.0, 0.0)])


def evaluate_reference(f, x):
    """FourierFunction.evaluate as first written: one wave at a time."""
    out = np.zeros(x.shape[:-1])
    for k, (a, b) in f.modes.items():
        phase = 2.0 * np.pi * (x @ np.asarray(k, dtype=float))
        if a:
            out += a * np.cos(phase)
        if b:
            out += b * np.sin(phase)
    return out


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestEvaluateWith:
    # constant, cos-only, sin-only and two-wave modes
    G = FourierFunction.from_modes(
        1, [((0,), 0.7, 0.0), ((1,), 1.0, 0.0), ((2,), 0.0, 0.5), ((3,), 0.3, -0.2)]
    )

    @pytest.mark.parametrize("tau, s", [(0.0, 1), (1e-3, 1), (1e-4, 2)])
    def test_bitwise_at_sorted_nodes(self, tau, s):
        # run_trial evaluates at the sorted d=1 nodes; evaluating at the
        # sampled points and permuting must give the same bits, so the
        # records do not depend on the operator's node order
        x = sample_cloud(UNIFORM, 2000, 1, 17)
        order = np.argsort(x[:, 0], kind="stable")
        u_star = continuum_solve_uniform(self.G, tau, s, SIGMA1)
        g_pts, u_pts = self.G.evaluate_with(x, u_star)
        nodes = x[order]
        assert same_bits(g_pts[order], evaluate_reference(self.G, nodes))
        assert same_bits(u_pts[order], evaluate_reference(u_star, nodes))
        assert same_bits(self.G.evaluate(x), evaluate_reference(self.G, x))

    def test_bitwise_d1_signed_zeros(self):
        # the d=1 phase is a multiply, which keeps the sign of -0.0 * k where
        # the matmul gives +0.0; the outputs must not tell the two apart
        x = sample_cloud(UNIFORM, 3 * BLOCK + 17, 1, 5)
        x[::7], x[3::7] = 0.0, -0.0
        assert np.signbit(x[3, 0]) and not np.signbit(x[0, 0])
        lap = continuum_laplacian_uniform(self.G, SIGMA1, 1)
        for workers in (1, 2):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(blocks, "WORKERS", workers)
                outs = self.G.evaluate_with(x, lap)
            for fn, got in zip((self.G, lap), outs):
                assert same_bits(got, evaluate_reference(fn, x))

    def test_bitwise_d2_and_derived_subset(self):
        # points in blocks, shared by one or two workers: each block's x @ k
        # must be bitwise the full product
        n = 3 * BLOCK + 17
        for zero, cos_k, sin_k, both_k in [
            ((0, 0), (1, 0), (0, 2), (1, 1)),
            ((0, 0, 0), (1, 0, -1), (0, 2, 1), (1, 1, 3)),
        ]:
            d = len(zero)
            f = FourierFunction.from_modes(
                d, [(zero, -1.5, 0.0), (cos_k, 1.0, 0.0), (sin_k, 0.0, 0.5), (both_k, 0.2, 0.4)]
            )
            lap = continuum_laplacian_uniform(f, SIGMA1, 2)  # drops the constant mode
            cos_only = f.map_modes(lambda k: 0.0 if k == sin_k else 3.0)
            x = sample_cloud(UNIFORM, n, d, 4)
            for workers in (1, 2):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(blocks, "WORKERS", workers)
                    outs = f.evaluate_with(x, lap, cos_only)
                for fn, got in zip((f, lap, cos_only), outs):
                    assert same_bits(got, evaluate_reference(fn, x))

    def test_validation(self):
        a = FourierFunction.from_modes(1, [((1,), 1.0, 0.0), ((2,), 0.0, 1.0)])
        b = FourierFunction.from_modes(1, [((2,), 0.0, 1.0), ((1,), 1.0, 0.0)])
        x = np.zeros((3, 1))
        with pytest.raises(ValueError, match="mode order"):
            a.evaluate_with(x, b)
        with pytest.raises(ValueError, match="dimension"):
            a.evaluate_with(x, FourierFunction.from_modes(2, [((1, 0), 1.0, 0.0)]))


def squared_errors_reference(signal, f, x):
    """(signal - f(x))**2 with f evaluated one wave at a time."""
    diff = signal - evaluate_reference(f, x)
    return diff * diff


class TestSquaredErrors:
    G = TestEvaluateWith.G

    def check(self, x, fns, seed):
        # one and two workers, each output bitwise the reference's, the last
        # written into the signal
        signal = np.random.default_rng(seed).standard_normal(x.shape[:-1])
        for workers in (1, 2):
            given = signal.copy()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(blocks, "WORKERS", workers)
                outs = fns[0].squared_errors(x, given, *fns[1:])
            assert outs[-1] is given
            assert len(outs) == len(fns)
            for fn, got in zip(fns, outs):
                assert same_bits(got, squared_errors_reference(signal, fn, x))

    def test_bitwise_d1_signed_zeros(self):
        x = sample_cloud(UNIFORM, 3 * BLOCK + 17, 1, 5)
        x[::7], x[3::7] = 0.0, -0.0
        lap = continuum_laplacian_uniform(self.G, SIGMA1, 1)  # drops the constant mode
        self.check(x, (self.G, lap), 1)
        self.check(x, (lap,), 2)

    def test_bitwise_d2_d3_and_derived_subset(self):
        n = 3 * BLOCK + 17
        for zero, cos_k, sin_k, both_k in [
            ((0, 0), (1, 0), (0, 2), (1, 1)),
            ((0, 0, 0), (1, 0, -1), (0, 2, 1), (1, 1, 3)),
        ]:
            d = len(zero)
            f = FourierFunction.from_modes(
                d, [(zero, -1.5, 0.0), (cos_k, 1.0, 0.0), (sin_k, 0.0, 0.5), (both_k, 0.2, 0.4)]
            )
            lap = continuum_laplacian_uniform(f, SIGMA1, 2)  # drops the constant mode
            cos_only = f.map_modes(lambda k: 0.0 if k == sin_k else 3.0)  # lacks sin_k
            x = sample_cloud(UNIFORM, n, d, 4)
            self.check(x, (f, lap, cos_only), 3)
            self.check(x, (lap,), 4)

    def test_validation(self):
        a = FourierFunction.from_modes(1, [((1,), 1.0, 0.0), ((2,), 0.0, 1.0)])
        b = FourierFunction.from_modes(1, [((2,), 0.0, 1.0), ((1,), 1.0, 0.0)])
        x = np.zeros((3, 1))
        with pytest.raises(ValueError, match="mode order"):
            a.squared_errors(x, np.zeros(3), b)
        with pytest.raises(ValueError, match="dimension"):
            a.squared_errors(x, np.zeros(3), FourierFunction.from_modes(2, [((1, 0), 1.0, 0.0)]))
        read_only = np.zeros(3)
        read_only.flags.writeable = False
        for signal in (
            np.zeros(4), np.zeros((3, 1)), np.zeros(3, np.float32), [0.0, 0.0, 0.0],
            np.zeros(6)[::2], read_only,
        ):
            with pytest.raises(ValueError, match=r"signal must be .* of shape \(3,\)"):
                a.squared_errors(x, signal)

    def test_memory(self, traced_peak, check_peak):
        # two functions: one new n-length array beside the signal, plus the
        # workers' span buffers, which share one block's room
        n = 1_000_000
        x = sample_cloud(UNIFORM, n, 1, 6)
        lap = continuum_laplacian_uniform(self.G, SIGMA1, 1)
        for workers in (1, 2):
            signal = np.zeros(n)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(blocks, "WORKERS", workers)
                _, peak = traced_peak(self.G.squared_errors, x, signal, lap)
            check_peak(peak, n, 8, 48 * BLOCK, f"{workers} workers")


class TestContinuumLaplacian:
    def test_constant_in_nullspace(self):
        f = FourierFunction.from_modes(1, [((0,), 1.0, 0.0)])
        assert continuum_laplacian_uniform(f, SIGMA1, 1).modes == {}

    def test_mode_one_coefficient(self):
        out = continuum_laplacian_uniform(cos1(), SIGMA1, 1)
        assert out.modes[(1,)][0] == pytest.approx(26.31894506957162, rel=1e-12)

    def test_s2_squares_multiplier(self):
        out1 = continuum_laplacian_uniform(cos1(), SIGMA1, 2)
        assert out1.modes[(1,)][0] == pytest.approx(COEFF**2, rel=1e-12)

    def test_matches_sigma_eta_oracle(self):
        assert sigma_eta(INDICATOR, 1) == pytest.approx(SIGMA1, rel=1e-10)


class TestContinuumSolve:
    def test_tau_zero(self):
        g = cos1()
        assert continuum_solve_uniform(g, 0.0, 1, SIGMA1).modes == g.modes

    def test_mode_one_division(self):
        out = continuum_solve_uniform(cos1(), 0.01, 1, SIGMA1)
        assert out.modes[(1,)][0] == pytest.approx(0.7916468899017788, rel=1e-12)

    def test_norm_non_expansive(self):
        g = FourierFunction.from_modes(1, [((1,), 1.0, 0.0), ((2,), 0.0, 0.5)])
        for tau in (0.0, 0.01, 1.0, 100.0):
            u = continuum_solve_uniform(g, tau, 2, SIGMA1)
            assert u.l2_norm_uniform() <= g.l2_norm_uniform() + 1e-15

    def test_round_trip_identity(self):
        g = FourierFunction.from_modes(1, [((1,), 1.0, 0.0), ((2,), 0.0, 0.5)])
        tau, s = 0.03, 2
        u = continuum_solve_uniform(g, tau, s, SIGMA1)
        back = u.map_modes(lambda k: 1.0 + tau * mode_multiplier(k, SIGMA1, s))
        for k in g.modes:
            assert back.modes[k][0] == pytest.approx(g.modes[k][0], rel=1e-14)
            assert back.modes[k][1] == pytest.approx(g.modes[k][1], rel=1e-14)

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            continuum_solve_uniform(cos1(), -0.1, 1, SIGMA1)


class TestBias:
    def test_tau_zero(self):
        assert bias_bound(cos1(), 0.0, 1, SIGMA1) == 0.0
        assert exact_bias(cos1(), 0.0, 1, SIGMA1) == 0.0

    def test_hand_values(self):
        assert bias_bound(cos1(), 0.01, 1, SIGMA1) == pytest.approx(
            0.01 * COEFF / math.sqrt(2), rel=1e-12
        )
        lam = COEFF
        expected = (0.01 * lam / (1 + 0.01 * lam)) / math.sqrt(2)
        assert exact_bias(cos1(), 0.01, 1, SIGMA1) == pytest.approx(expected, rel=1e-12)

    def test_theorem_inequality_strict(self):
        g = FourierFunction.from_modes(1, [((1,), 1.0, 0.0), ((2,), 0.0, 0.5)])
        for s in (1, 2):
            for tau in (1e-3, 1e-2, 1e-1):
                assert exact_bias(g, tau, s, SIGMA1) < bias_bound(g, tau, s, SIGMA1)

    def test_half_power_remark_inequality(self):
        # || Delta^{s/2} (g - u*_tau) || <= sqrt(tau/2) * || Delta^s g ||
        g = FourierFunction.from_modes(1, [((1,), 1.0, 0.0), ((2,), 0.0, 0.5)])
        for s in (1, 2):
            for tau in (1e-3, 1e-2, 1e-1):
                diff = g.map_modes(
                    lambda k: mode_multiplier(k, SIGMA1, s / 2.0)
                    * tau
                    * mode_multiplier(k, SIGMA1, s)
                    / (1.0 + tau * mode_multiplier(k, SIGMA1, s))
                )
                rhs = math.sqrt(tau / 2.0) * continuum_laplacian_uniform(
                    g, SIGMA1, s
                ).l2_norm_uniform()
                assert diff.l2_norm_uniform() <= rhs + 1e-15


class TestNonlocalLaplacian:
    def test_constant_zero(self):
        rho = DensitySpec("cosine_bump", 0.5, (1,))
        val = nonlocal_laplacian(lambda x: np.ones(len(x)), rho, 0.2, INDICATOR, [0.3])
        assert abs(val) < 1e-12

    def test_closed_form_oracle(self):
        # d=1, uniform, indicator, g=cos(2 pi x), x=0:
        # (4/eps^2) (1 - sin(2 pi eps) / (2 pi eps))
        g = cos1()
        for eps in (0.2, 0.1, 0.05):
            exact = 4.0 / eps**2 * (1.0 - math.sin(2 * math.pi * eps) / (2 * math.pi * eps))
            got = nonlocal_laplacian(g, UNIFORM, eps, INDICATOR, [0.0], quad_m=64)
            assert got == pytest.approx(exact, rel=1e-6)

    def test_eps_squared_consistency_slope(self):
        g = cos1()
        ref = continuum_laplacian_uniform(g, SIGMA1, 1).evaluate(np.array([[0.0]]))[0]
        eps_grid = [0.2, 0.1, 0.05, 0.025]
        errs = [
            abs(nonlocal_laplacian(g, UNIFORM, e, INDICATOR, [0.0], quad_m=64) - ref)
            for e in eps_grid
        ]
        slope = np.polyfit(np.log(eps_grid), np.log(errs), 1)[0]
        assert 1.7 <= slope <= 2.3

    def test_validation(self):
        for eps in (0.6, np.nan):
            with pytest.raises(ValueError, match=r"must lie in \(0, 1/2\]"):
                nonlocal_laplacian(cos1(), UNIFORM, eps, INDICATOR, [0.0])
        with pytest.raises(ValueError):
            nonlocal_laplacian(cos1(), UNIFORM, 0.1, INDICATOR, [0.0], quad_m=4)


def ball_transform_polar(t, d):
    """Integral of cos(2 pi t z_1) over the unit ball, d = 2 or 3, by polar
    quadrature: Gauss-Legendre in the radius, and in the angle the trapezoid
    rule (d = 2) or Gauss-Legendre in cos(theta) (d = 3)."""
    r, wr = np.polynomial.legendre.leggauss(48)
    r, wr = (r + 1.0) / 2.0, wr / 2.0
    if d == 2:
        theta = 2.0 * np.pi * np.arange(64) / 64
        inner = 2.0 * np.pi * np.mean(np.cos(2.0 * np.pi * t * np.outer(r, np.cos(theta))), axis=1)
        return float(np.sum(wr * r * inner))
    c, wc = np.polynomial.legendre.leggauss(48)
    inner = 2.0 * np.pi * np.cos(2.0 * np.pi * t * np.outer(r, c)) @ wc
    return float(np.sum(wr * r * r * inner))


def multiplier_series(k, eps):
    """nonlocal_multiplier as its power series in x = 2 pi^2 r^2, r = |k| eps:
    (2/eps^2) omega_d times the sum over j >= 1 of
    (-1)^(j+1) x^j / (j! (d+2) (d+4) ... (d+2j)), term j being the unit
    ball's mean of the x^j term of 1 - cos(2 pi r h_1).  For x < 1e-3 each
    term is below 1e-3 of the last, so ten terms sum to full precision."""
    d = len(k)
    x = 2.0 * math.pi**2 * sum(c * c for c in k) * eps**2
    term, total = -1.0, 0.0
    for j in range(1, 11):
        term *= -x / (j * (d + 2 * j))
        total += term
    return 2.0 / eps**2 * unit_ball_volume(d) * total


class TestNonlocalMultiplier:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("eps", [0.2, 0.1, 0.05])
    def test_matches_quadrature_d1(self, k, eps):
        # the d=1 tensor quadrature is spectrally accurate: the support fills
        # the cube
        g = FourierFunction.from_modes(1, [((k,), 1.0, 0.0)])
        want = nonlocal_laplacian(g, UNIFORM, eps, INDICATOR, [0.0], quad_m=64)
        assert nonlocal_multiplier((k,), eps) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("k", [(1, 0), (1, 1), (2, 1), (1, 0, 0), (1, 1, 0), (1, 1, 1)])
    @pytest.mark.parametrize("eps", [0.2, 0.1, 0.05])
    def test_matches_polar_quadrature(self, k, eps):
        d = len(k)
        ball = {2: math.pi, 3: 4.0 * math.pi / 3.0}[d]
        t = math.sqrt(sum(c * c for c in k)) * eps
        want = 2.0 / eps**2 * (ball - ball_transform_polar(t, d))
        assert nonlocal_multiplier(k, eps) == pytest.approx(want, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_strictly_below_local(self, d):
        # 1 - cos(x) < x^2 / 2 for x != 0, averaged over the ball
        sigma = sigma_eta(INDICATOR, d)
        for k in [(1,) + (0,) * (d - 1), (1,) * d, (3,) + (0,) * (d - 1)]:
            for eps in (0.5, 0.2, 0.1, 0.05, 0.01):
                m = nonlocal_multiplier(k, eps)
                assert 0.0 < m < mode_multiplier(k, sigma, 1), (k, eps)

    @pytest.mark.parametrize("k", [(1,), (2,), (1, 0), (2, 1), (1, 0, 0), (1, 1, 1)])
    @pytest.mark.parametrize("eps", [1e-3, 1e-4, 1e-5])
    def test_small_r_matches_series(self, k, eps):
        # the Bessel form omega_d - r^(-d/2) J_(d/2)(2 pi r) cancelled to
        # 1e-11..1e-10 relative at eps = 1e-3 and to 4e-6 at eps = 1e-5
        assert nonlocal_multiplier(k, eps) == pytest.approx(
            multiplier_series(k, eps), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("k1, eps", [
        (1, 0.05), (1, 0.3), (3, 0.35), (8, 0.45), (25, 0.38), (150, 0.4),
    ], ids=["r0.05", "r0.3", "r1.05", "r3.6", "r9.5", "r60"])
    def test_matches_bessel_form(self, d, k1, eps):
        # r from 0.05 to 60: one quadrature panel up to r = 4, sixteen at 60
        r = k1 * eps
        ball = r ** (-d / 2.0) * special.jv(d / 2.0, 2.0 * math.pi * r)
        want = 2.0 / eps**2 * (unit_ball_volume(d) - ball)
        k = (k1,) + (0,) * (d - 1)
        assert nonlocal_multiplier(k, eps) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_zero_mode_exactly_zero(self):
        for d in (1, 2, 3):
            m = nonlocal_multiplier((0,) * d, 0.1)
            assert m == 0.0 and type(m) is float

    @pytest.mark.parametrize("eps", [0.0, 0.6, float("nan")])
    def test_eps_validated(self, eps):
        with pytest.raises(ValueError, match=r"must lie in \(0, 1/2\]"):
            nonlocal_multiplier((1,), eps)


class TestPseudoSpectral:
    def test_uniform_matches_fourier(self):
        m = 32
        phi = sample_on_grid(cos1(), m, 1)
        rho = GridField(np.ones(m))
        out = pseudo_spectral_continuum_laplacian(phi, rho, SIGMA1)
        ref = sample_on_grid(continuum_laplacian_uniform(cos1(), SIGMA1, 1), m, 1)
        assert np.max(np.abs(out.values - ref.values)) < 1e-10

    def test_constant_zero_field(self):
        m = 16
        rho_fn = DensitySpec("cosine_bump", 0.5, (1,))
        rho = GridField(rho_fn.eval(grid_points(m, 1)))
        out = pseudo_spectral_continuum_laplacian(GridField(np.full(m, 2.0)), rho, SIGMA1)
        assert np.max(np.abs(out.values)) < 1e-12

    def test_product_rule_cross_check(self):
        # rho = 1 + 0.5 cos(2 pi x), phi = sin(2 pi x):
        # -(sigma/rho) (rho^2 phi')' = -sigma (2 rho' phi' + rho phi'')
        m = 64
        x = np.arange(m) / m
        rho_v = 1.0 + 0.5 * np.cos(2 * np.pi * x)
        rho_p = -np.pi * np.sin(2 * np.pi * x)
        phi_p = 2 * np.pi * np.cos(2 * np.pi * x)
        phi_pp = -4 * np.pi**2 * np.sin(2 * np.pi * x)
        analytic = -SIGMA1 * (2 * rho_p * phi_p + rho_v * phi_pp)
        phi = GridField(np.sin(2 * np.pi * x))
        out = pseudo_spectral_continuum_laplacian(phi, GridField(rho_v), SIGMA1)
        assert np.max(np.abs(out.values - analytic)) < 1e-9

    def test_2d_uniform(self):
        g = FourierFunction.from_modes(2, [((1, 2), 0.7, 0.3)])
        m = 16
        phi = sample_on_grid(g, m, 2)
        rho = GridField(np.ones((m, m)))
        out = pseudo_spectral_continuum_laplacian(phi, rho, SIGMA1)
        ref = sample_on_grid(continuum_laplacian_uniform(g, SIGMA1, 1), m, 2)
        assert np.max(np.abs(out.values - ref.values)) < 1e-9

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            GridField(np.ones(7))  # odd
        with pytest.raises(ValueError):
            GridField(np.ones(2))  # too small
        with pytest.raises(ValueError):
            GridField(np.ones((8, 4)))  # not square
        with pytest.raises(ValueError):
            pseudo_spectral_continuum_laplacian(
                GridField(np.ones(8)), GridField(np.zeros(8)), SIGMA1
            )

