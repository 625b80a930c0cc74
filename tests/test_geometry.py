"""Torus metric, kernels, densities, sampling, and the kernel moment."""

import math

import numpy as np
import pytest
from scipy import stats

from polylap import geometry
from polylap.geometry import (
    INDICATOR,
    PLATEAU,
    UNIFORM,
    DensitySpec,
    KernelProfile,
    make_rng,
    sample_cloud,
    sigma_eta,
    torus_distance,
)


class TestTorusDistance:
    def test_wraparound(self):
        assert torus_distance([0.1], [0.9]) == pytest.approx(0.2, abs=1e-15)

    def test_identity(self):
        rng = make_rng(0)
        for _ in range(10):
            x = rng.random(3)
            assert torus_distance(x, x) == 0.0

    def test_diagonal_2d(self):
        got = torus_distance([0.0, 0.0], [0.5, 0.5])
        assert got == pytest.approx(math.sqrt(0.5), rel=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            torus_distance([0.1], [0.1, 0.2])

    def test_metric_axioms_random_triples(self):
        rng = make_rng(1)
        x, y, z = (rng.random((1000, 2)) for _ in range(3))
        dxy = torus_distance(x, y)
        dyx = torus_distance(y, x)
        dxz = torus_distance(x, z)
        dzy = torus_distance(z, y)
        assert np.all(dxy >= 0.0)
        assert np.array_equal(dxy, dyx)
        assert np.all(dxy <= dxz + dzy + 1e-12)
        assert np.all(dxy <= math.sqrt(2) / 2 + 1e-15)

    def test_broadcasting(self):
        x = make_rng(2).random((5, 1, 2))
        y = make_rng(3).random((1, 7, 2))
        assert torus_distance(x, y).shape == (5, 7)


class TestKernelProfile:
    GRID = np.arange(0, 1.2001, 0.001)

    @pytest.mark.parametrize("kernel", [INDICATOR, PLATEAU], ids=["indicator", "plateau"])
    def test_invariants_on_grid(self, kernel):
        vals = kernel.eval(self.GRID)
        # eta(t) > 1/2 for t <= 1/2
        assert np.all(vals[self.GRID <= 0.5] > 0.5)
        # non-increasing
        assert np.all(np.diff(vals) <= 1e-15)
        # vanishing beyond the support
        assert np.all(vals[self.GRID >= 1.0] == 0.0)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)

    def test_plateau_shape(self):
        assert PLATEAU.eval(0.25) == 1.0
        assert PLATEAU.eval(0.5) == 1.0
        assert PLATEAU.eval(0.75) == pytest.approx(0.5, abs=1e-15)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            KernelProfile("tent")


class TestSigmaEta:
    # analytic second moments of the indicator kernel over the unit ball
    ORACLES = {1: 2.0 / 3.0, 2: math.pi / 4.0, 3: 4.0 * math.pi / 15.0}

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_indicator_ball_moment(self, d):
        assert sigma_eta(INDICATOR, d) == pytest.approx(self.ORACLES[d], rel=1e-9)

    def test_plateau_smaller_than_indicator(self):
        for d in (1, 2):
            v = sigma_eta(PLATEAU, d)
            assert 0.0 < v < sigma_eta(INDICATOR, d)

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            sigma_eta(INDICATOR, 0)

    def test_quadrature_once_per_kernel_and_dimension(self, monkeypatch):
        calls = []
        quad = geometry.integrate.quad

        def counting_quad(*args, **kwargs):
            calls.append(args)
            return quad(*args, **kwargs)

        sigma_eta.cache_clear()
        monkeypatch.setattr(geometry.integrate, "quad", counting_quad)
        try:
            first = [sigma_eta(k, d) for k in (INDICATOR, PLATEAU) for d in (1, 2)]
            again = [sigma_eta(k, d) for k in (INDICATOR, PLATEAU) for d in (1, 2)]
            assert sigma_eta(KernelProfile("indicator"), 1) == first[0]  # equal key
            assert len(calls) == 4
            assert again == first
        finally:
            sigma_eta.cache_clear()


class TestDensity:
    def test_uniform_is_one(self):
        x = make_rng(4).random((20, 2))
        assert np.all(UNIFORM.eval(x) == 1.0)

    def test_cosine_bump_values(self):
        spec = DensitySpec("cosine_bump", 0.5, (1,))
        assert spec.eval(np.array([[0.0]]))[0] == pytest.approx(1.5, abs=1e-15)
        assert spec.eval(np.array([[0.5]]))[0] == pytest.approx(0.5, abs=1e-15)
        assert spec.rho_min == 0.5 and spec.rho_max == 1.5

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            DensitySpec("gaussian_bump")
        with pytest.raises(ValueError):
            DensitySpec("cosine_bump", 1.0, (1,))
        with pytest.raises(ValueError):
            DensitySpec("cosine_bump", 0.5, (0,))


class TestSampleCloud:
    def test_determinism(self):
        a = sample_cloud(UNIFORM, 4, 1, 7)
        b = sample_cloud(UNIFORM, 4, 1, 7)
        assert np.array_equal(a, b)
        assert a.shape == (4, 1)
        assert np.all((a >= 0.0) & (a < 1.0))

    def test_single_point(self):
        c = sample_cloud(UNIFORM, 1, 3, 0)
        assert c.shape == (1, 3)
        assert np.all((c >= 0.0) & (c < 1.0))

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            sample_cloud(UNIFORM, 0, 1, 0)
        with pytest.raises(ValueError):
            sample_cloud(DensitySpec("cosine_bump", 0.5, (1,)), 10, 2, 0)

    def test_cosine_bump_histogram(self):
        spec = DensitySpec("cosine_bump", 0.5, (1,))
        n = 100_000
        pts = sample_cloud(spec, n, 1, 42)[:, 0]
        counts, edges = np.histogram(pts, bins=10, range=(0.0, 1.0))
        for c, a, b in zip(counts, edges[:-1], edges[1:]):
            # analytic bin mass of rho(x) = 1 + 0.5 cos(2 pi x)
            mass = (b - a) + 0.5 * (math.sin(2 * math.pi * b) - math.sin(2 * math.pi * a)) / (
                2 * math.pi
            )
            se = math.sqrt(n * mass * (1 - mass))
            assert abs(c - n * mass) <= 3.0 * se

    def test_cosine_bump_ks_smoke(self):
        # statistical smoke test at one fixed seed, 1% critical value
        spec = DensitySpec("cosine_bump", 0.5, (1,))
        n = 100_000
        pts = sample_cloud(spec, n, 1, 123)[:, 0]
        cdf = lambda x: x + 0.5 * np.sin(2 * np.pi * x) / (2 * np.pi)
        stat = stats.kstest(pts, cdf).statistic
        assert stat < 1.6276 / math.sqrt(n)
