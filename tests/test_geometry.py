"""Torus metric, kernels, densities, sampling, and the kernel moment."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from scipy import special, stats

from polylap import blocks
from polylap.blocks import BLOCK
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
    unit_ball_volume,
)


PI_50 = Decimal("3.1415926535897932384626433832795028841971693993751")


def ball_volume_50(d):
    """omega_d to 50 digits: pi^(d // 2) q_d with the rational q_0 = 1,
    q_1 = 2 and q_d = (2 / d) q_(d-2), from omega_d = (2 pi / d) omega_(d-2)."""
    q = Fraction(1 + d % 2)
    for j in range(d, 1, -2):
        q *= Fraction(2, j)
    with localcontext() as ctx:
        ctx.prec = 50
        return PI_50 ** (d // 2) * q.numerator / q.denominator


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

    @pytest.mark.parametrize("d", range(1, 8))
    def test_bitwise_sum_over_coordinates(self, d, stream):
        # the coordinate-by-coordinate sum against one np.sum over the
        # coordinate axis, as the metric was first written
        def summed(x, y):
            diff = np.abs(x - y)
            diff = np.minimum(diff, 1.0 - diff)
            return np.sqrt(np.sum(diff * diff, axis=-1))

        rng = stream(4, d)
        wraps = [(0.0, 0.5), (0.0, np.nextafter(1.0, 0.0)), (0.3, 0.3), (0.5, 0.0)]
        x, y = rng.random((2, 1000, d))
        for k, (a, b) in enumerate(wraps):
            x[k], y[k] = a, b
            x[10 + k, k % d], y[10 + k, k % d] = a, b
        xb, yb = rng.random((40, 1, d)), rng.random((1, 30, d))
        xb[:4, 0] = y[:4]  # wrap and equal points inside the broadcast too
        yb[0, :4] = x[:4]
        cases = [(x, y), (xb, yb), (x[0], y[0]), (x[:5], y[3]), (x.T.copy().T, y)]
        for a, b in cases:
            got, want = torus_distance(a, b), summed(a, b)
            assert np.shape(got) == np.shape(want)
            assert np.array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64))
        assert torus_distance([0.0] * d, [0.5] + [0.0] * (d - 1)) == 0.5
        assert torus_distance(x[2], x[2]) == 0.0


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

    def test_indicator_bits_pinned(self):
        # these bits reach records.csv through the continuum reference of
        # every sweep and consistency trial, so they must not move
        pinned = {1: "0x1.5555555555556p-1", 2: "0x1.921fb54442d18p-1",
                  3: "0x1.acee9f37bebd7p-1", 4: "0x1.a51a6625307d2p-1"}
        assert {d: sigma_eta(INDICATOR, d).hex() for d in pinned} == pinned

    @pytest.mark.parametrize("d", range(1, 9))
    def test_exact_radial_integral(self, d):
        # integral of eta(r) r^(d+1) over [0, 1] in exact arithmetic:
        # eta = 1 on [0, 1) for the indicator; for the plateau eta = 1 on
        # [0, 1/2] and 2 (1 - r) on [1/2, 1)
        half = Fraction(1, 2)
        exact = {
            INDICATOR: Fraction(1, d + 2),
            PLATEAU: half ** (d + 2) / (d + 2)
            + 2 * ((1 - half ** (d + 2)) / (d + 2) - (1 - half ** (d + 3)) / (d + 3)),
        }
        for kernel, radial in exact.items():
            want = float(ball_volume_50(d) * radial.numerator / radial.denominator)
            assert abs(sigma_eta(kernel, d) - want) <= 4 * math.ulp(want), kernel.kind


class TestUnitBallVolume:
    def test_low_dimensions(self):
        # 2 at d = 1 exactly; the Gamma(d/2 + 1) form gave 1.9999999999999998
        assert unit_ball_volume(1) == 2.0 and type(unit_ball_volume(1)) is float
        assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-15)
        assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-15)

    @pytest.mark.parametrize("d", range(1, 7))
    def test_bits_of_the_scipy_gamma_form(self, d):
        # sigma_eta, and so records.csv, takes these bits
        want = 2.0 * math.pi ** (d / 2.0) / special.gamma(d / 2.0) / d
        assert unit_ball_volume(d) == want

    @pytest.mark.parametrize("d", range(1, 11))
    def test_within_one_ulp(self, d):
        # correctly rounded at d = 7, where scipy's Gamma(3.5) is one ulp off
        want = float(ball_volume_50(d))
        assert abs(unit_ball_volume(d) - want) <= math.ulp(want)
        if d == 7:
            assert unit_ball_volume(d) == want


class TestDensity:
    def test_uniform_is_one(self):
        x = make_rng(4).random((20, 2))
        assert np.all(UNIFORM.eval(x) == 1.0)

    def test_cosine_bump_values(self):
        spec = DensitySpec("cosine_bump", 0.5, (1,))
        assert spec.eval(np.array([[0.0]]))[0] == pytest.approx(1.5, abs=1e-15)
        assert spec.eval(np.array([[0.5]]))[0] == pytest.approx(0.5, abs=1e-15)
        assert spec.rho_max == 1.5

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

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("size", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 17],
                             ids=["1", "BLOCK-1", "BLOCK", "BLOCK+1", "3BLOCK+17"])
    def test_uniform_spans_bitwise_one_stream(self, size, d, workers):
        # n * d coordinates near size, on the side of it that keeps one
        # block or crosses into several; with three workers the spans start
        # off a multiple of Philox's four draws per counter step
        n = max(1, size // d) if size <= BLOCK else -(-size // d)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(blocks, "WORKERS", workers)
            got = sample_cloud(UNIFORM, n, d, 91)
        want = make_rng(91).random((n, d))
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

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
