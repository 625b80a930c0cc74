"""Exact continuum references on the unit torus.

For uniform density the weighted operator acts modewise on trigonometric
polynomials: mode k picks up the multiplier (sigma * 4 pi^2 |k|^2)^s, so
resolvent solves, norms, and the bias bound are all closed-form.  The
nonlocal (epsilon-averaged) Laplacian is a Fourier multiplier under the
uniform density, a one-dimensional integral that Gauss-Legendre quadrature
takes to 3e-15 relative (`nonlocal_multiplier`).  The module needs NumPy
only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .blocks import run_blocks
from .geometry import check_eps, check_tau, unit_ball_volume


# nonlocal_multiplier's quadrature: Gauss-Legendre nodes per panel, the
# largest r = |k| eps one panel takes, and panels evaluated per array
MULTIPLIER_NODES = 64
MULTIPLIER_PANEL_R = 4.0
MULTIPLIER_PANEL_CHUNK = 1024
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(MULTIPLIER_NODES)


def _canonical_mode(k):
    """Return (k', flip) with k' the stored representative of {k, -k}."""
    k = tuple(int(c) for c in k)
    for c in k:
        if c > 0:
            return k, False
        if c < 0:
            return tuple(-c for c in k), True
    return k, False  # zero mode


@dataclass(frozen=True)
class FourierFunction:
    """Finite real trigonometric polynomial sum_k a_k cos(2 pi k.x) + b_k sin(2 pi k.x).

    Only one representative of each +-k pair is stored; the zero mode carries
    a cosine (constant) term only.
    """

    d: int
    modes: dict = field(default_factory=dict)

    @staticmethod
    def from_modes(d, entries):
        """entries: iterable of (k_vector, a, b)."""
        modes = {}
        for k, a, b in entries:
            if len(k) != d:
                raise ValueError("mode vector length must equal d")
            kk, flip = _canonical_mode(k)
            a0, b0 = modes.get(kk, (0.0, 0.0))
            if flip:
                b = -b
            if all(c == 0 for c in kk):
                b = 0.0  # sin(0) contributes nothing
            modes[kk] = (a0 + float(a), b0 + float(b))
        modes = {k: v for k, v in modes.items() if v != (0.0, 0.0)}
        return FourierFunction(d, modes)

    def evaluate(self, x):
        """Evaluate at points x of shape (..., d)."""
        return self.evaluate_with(x)[0]

    def evaluate_with(self, x, *derived):
        """[self.evaluate(x), *(f.evaluate(x) for f in derived)] with the cosine
        and sine of each mode computed once for all of them.

        Each derived function must list its modes in this one's order, as
        map_modes keeps them.  Points are taken in blocks of BLOCK, shared
        by the block loops' workers (`blocks.run_blocks`): per block and
        mode, the phase 2 pi x.k and each needed wave are computed once and
        c * wave is added into the block's slice of every output, mode by
        mode, cosine before sine (`_add_waves`).  So each output is bitwise
        what evaluating that function alone gives, for any worker count, and
        beside the outputs each worker holds three arrays of BLOCK // WORKERS
        points, 24 * BLOCK bytes (1.5 MB) in all.  In d = 1 the phase is one
        multiply, about ten times faster than the matmul of a one-column
        block; it differs from it only in the sign of a zero phase, which
        the waves and their sums into the outputs do not keep.  In d >= 2
        the matmul's BLAS sum sets the bits, so it stays.
        """
        x, pts, waves = self._waves(x, derived)
        outs = [np.zeros(len(pts)) for _ in range(1 + len(derived))]

        def evaluate_span(a, b, work):
            _add_waves(pts, a, b, waves, [out[a:b] for out in outs], work[:, : b - a])

        run_blocks(len(pts), evaluate_span, lambda size: np.empty((3, size)))
        return [out.reshape(x.shape[:-1]) for out in outs]

    def squared_errors(self, x, signal, *derived):
        """[(signal - f(x))**2 for f in (self, *derived)], each f(x) bitwise
        evaluate_with's, from one pass over the waves.

        signal is a C-contiguous float64 array of shape x.shape[:-1]; the
        last output is written into it, the others into new arrays, so two
        functions cost one new array.  Each block sums every function's
        waves into zeroed span buffers, as evaluate_with sums them into its
        outputs, then subtracts each sum from the block's signal and squares
        in place.  Beside the outputs each worker holds three arrays of
        BLOCK // WORKERS points and one more per function: 40 * BLOCK bytes
        (2.6 MB) in all for two functions.
        """
        x, pts, waves = self._waves(x, derived)
        if not (
            isinstance(signal, np.ndarray)
            and signal.dtype == np.float64
            and signal.shape == x.shape[:-1]
            and signal.flags.c_contiguous
            and signal.flags.writeable
        ):
            raise ValueError(
                f"signal must be a writeable C-contiguous float64 array of shape {x.shape[:-1]}"
            )
        flat = signal.reshape(-1)
        outs = [np.empty(len(pts)) for _ in derived] + [flat]  # flat written last

        def errors_span(a, b, work):
            sums = work[3:, : b - a]
            sums.fill(0.0)
            _add_waves(pts, a, b, waves, sums, work[:3, : b - a])
            for out, ref in zip(outs, sums):
                err = out[a:b]
                np.subtract(flat[a:b], ref, out=err)
                err *= err

        run_blocks(len(pts), errors_span, lambda size: np.empty((3 + len(outs), size)))
        return [out.reshape(x.shape[:-1]) for out in outs[:-1]] + [signal]

    def _waves(self, x, derived):
        """x as a float array, its points as an (n, d) array, and per mode of
        this function its wave vector k and the (a, b) of each of (self,
        *derived); ValueError if a point or a derived function does not fit."""
        x = np.asarray(x, dtype=float)
        fns = (self, *derived)
        for f in fns:
            if x.shape[-1] != f.d:
                raise ValueError("point dimension mismatch")
            if list(f.modes) != [k for k in self.modes if k in f.modes]:
                raise ValueError("derived modes must follow this function's mode order")
        waves = [
            (np.asarray(k, dtype=float), [f.modes.get(k, (0.0, 0.0)) for f in fns])
            for k in self.modes
        ]
        return x, x.reshape(-1, self.d), waves

    __call__ = evaluate

    def map_modes(self, fn):
        """New function with each (a,b) scaled by fn(k) (a real multiplier)."""
        out = {}
        for k, (a, b) in self.modes.items():
            m = fn(k)
            if m != 0.0 and (a or b):
                out[k] = (a * m, b * m)
        return FourierFunction(self.d, out)

    def l2_norm_uniform(self):
        """Parseval norm under the uniform density."""
        total = 0.0
        for k, (a, b) in self.modes.items():
            if all(c == 0 for c in k):
                total += a * a
            else:
                total += 0.5 * (a * a + b * b)
        return math.sqrt(total)

    def max_abs_mode(self):
        return max((max(abs(c) for c in k) for k in self.modes), default=0)


def _add_waves(pts, a, b, waves, sums, work):
    """Add the waves of every function at pts[a:b] into its span array in
    sums, mode by mode, cosine before sine; work holds the phase, wave and
    term arrays of b - a points.  The one arithmetic behind evaluate_with
    and squared_errors, so both keep the same bits."""
    phase, wave, term = work
    for k, coefs in waves:
        if len(k) == 1:
            np.multiply(pts[a:b, 0], k[0], out=phase)
        else:
            np.matmul(pts[a:b], k, out=phase)
        phase *= 2.0 * np.pi
        for i, wave_fn in enumerate((np.cos, np.sin)):
            if any(c[i] for c in coefs):
                wave_fn(phase, out=wave)
                for total, c in zip(sums, coefs):
                    if c[i]:
                        np.multiply(c[i], wave, out=term)
                        total += term


def mode_multiplier(k, sigma, s):
    k2 = sum(c * c for c in k)
    return (sigma * 4.0 * math.pi**2 * k2) ** s


def nonlocal_multiplier(k, eps):
    """Multiplier of Delta_eps (indicator kernel, uniform density) on mode k;
    0.0 exactly for the zero mode.

    It is (2/eps^2) times the unit ball's mean of 1 - cos(2 pi r h_1), with
    r = |k| eps, computed in the form that cancels nothing:
    (4/eps^2) omega_(d-1) times the integral of cos^d(phi) sin^2(pi r sin phi)
    over [-pi/2, pi/2], with omega_0 = 1.  The integrand is entire, so
    Gauss-Legendre on 1 + floor(r / MULTIPLIER_PANEL_R) equal panels of
    MULTIPLIER_NODES each converges fast: against a 50-digit reference the
    relative error stays below 3e-15 for d <= 5 and r <= 30.  The Bessel
    form (2/eps^2) (omega_d - r^(-d/2) J_(d/2)(2 pi r)) (Stein & Weiss 1971)
    of the same multiplier cancels at small r: 1e-10 relative at r = 1e-3,
    4e-6 at r = 1e-5.
    """
    check_eps(eps)
    r, d = math.hypot(*k) * eps, len(k)
    if r == 0.0:
        return 0.0
    panels = 1 + int(r / MULTIPLIER_PANEL_R)
    half = 0.5 * math.pi / panels
    integral = 0.0
    for first in range(0, panels, MULTIPLIER_PANEL_CHUNK):
        index = np.arange(first, min(first + MULTIPLIER_PANEL_CHUNK, panels))
        phi = ((2.0 * index + 1.0) * half - 0.5 * math.pi)[:, None] + half * _GL_NODES
        wave = np.sin(math.pi * r * np.sin(phi))
        integral += half * float(np.sum(_GL_WEIGHTS * np.cos(phi) ** d * wave * wave))
    omega = unit_ball_volume(d - 1) if d > 1 else 1.0
    return 4.0 / eps**2 * omega * integral


def continuum_laplacian_uniform(g: FourierFunction, sigma: float, s=1) -> FourierFunction:
    """Apply the s-th power of the weighted Laplacian under uniform density."""
    return g.map_modes(lambda k: mode_multiplier(k, sigma, s))


def continuum_solve_uniform(g: FourierFunction, tau: float, s, sigma: float) -> FourierFunction:
    """Exact minimiser of the continuum objective: divide mode k by 1 + tau lambda_k^..."""
    check_tau(tau)
    return g.map_modes(lambda k: 1.0 / (1.0 + tau * mode_multiplier(k, sigma, s)))


def bias_bound(g: FourierFunction, tau: float, s, sigma: float) -> float:
    """tau * || Delta^s g || in L2 of the uniform density, computed modewise."""
    check_tau(tau)
    return tau * continuum_laplacian_uniform(g, sigma, s).l2_norm_uniform()


def exact_bias(g: FourierFunction, tau: float, s, sigma: float) -> float:
    """|| u*_tau - g ||: modewise tau lambda / (1 + tau lambda) shrinkage."""
    check_tau(tau)
    diff = g.map_modes(
        lambda k: tau * mode_multiplier(k, sigma, s)
        / (1.0 + tau * mode_multiplier(k, sigma, s))
    )
    return diff.l2_norm_uniform()
