"""Exact Fourier references, nonlocal Laplacian quadrature, pseudo-spectral path."""

import math

import numpy as np
import pytest

from polylap.continuum import (
    FourierFunction,
    GridField,
    bias_bound,
    continuum_laplacian_uniform,
    continuum_solve_uniform,
    exact_bias,
    grid_points,
    mode_multiplier,
    nonlocal_laplacian,
    pseudo_spectral_continuum_laplacian,
    sample_on_grid,
)
from polylap.geometry import INDICATOR, UNIFORM, DensitySpec, sample_cloud, sigma_eta
from polylap.graph import BLOCK

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
        # run_trial evaluates at the sampled points and permutes into the
        # d=1 operator order; the parent evaluated at the sorted nodes
        x = sample_cloud(UNIFORM, 2000, 1, 17)
        order = np.argsort(x[:, 0], kind="stable")
        u_star = continuum_solve_uniform(self.G, tau, s, SIGMA1)
        g_pts, u_pts = self.G.evaluate_with(x, u_star)
        nodes = x[order]
        assert same_bits(g_pts[order], evaluate_reference(self.G, nodes))
        assert same_bits(u_pts[order], evaluate_reference(u_star, nodes))
        assert same_bits(self.G.evaluate(x), evaluate_reference(self.G, x))

    def test_bitwise_d2_and_derived_subset(self):
        # points in blocks: each block's x @ k must be bitwise the full product
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
        with pytest.raises(ValueError):
            nonlocal_laplacian(cos1(), UNIFORM, 0.6, INDICATOR, [0.0])
        with pytest.raises(ValueError):
            nonlocal_laplacian(cos1(), UNIFORM, 0.1, INDICATOR, [0.0], quad_m=4)


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

