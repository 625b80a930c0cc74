"""Exact continuum references on the unit torus.

For uniform density the weighted operator acts modewise on trigonometric
polynomials: mode k picks up the multiplier (sigma * 4 pi^2 |k|^2)^s, so
resolvent solves, norms, and the bias bound are all closed-form.  Non-uniform
smooth densities get operator application only, via pseudo-spectral
differentiation on a periodic grid.  The nonlocal (epsilon-averaged)
Laplacian is evaluated by tensor quadrature for consistency experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import DensitySpec, KernelProfile


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
        map_modes keeps them.  Every output is accumulated from zeros by
        += a cos, then += b sin, mode by mode in its own order, so it is
        bitwise what evaluating that function alone gives.  The last wave of
        a mode overwrites the phase, so a single-wave mode allocates no wave
        array.
        """
        x = np.asarray(x, dtype=float)
        fns = (self, *derived)
        for f in fns:
            if x.shape[-1] != f.d:
                raise ValueError("point dimension mismatch")
            if list(f.modes) != [k for k in self.modes if k in f.modes]:
                raise ValueError("derived modes must follow this function's mode order")
        outs = [np.zeros(x.shape[:-1]) for _ in fns]
        for k in self.modes:
            coefs = [f.modes.get(k, (0.0, 0.0)) for f in fns]
            waves = [i for i in (0, 1) if any(c[i] for c in coefs)]
            phase = 2.0 * np.pi * (x @ np.asarray(k, dtype=float))
            for i in waves:
                wave = (np.cos, np.sin)[i](phase, out=phase if i == waves[-1] else None)
                for out, c in zip(outs, coefs):
                    if c[i]:
                        out += c[i] * wave
        return outs

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


def mode_multiplier(k, sigma, s):
    k2 = sum(c * c for c in k)
    return (sigma * 4.0 * math.pi**2 * k2) ** s


def continuum_laplacian_uniform(g: FourierFunction, sigma: float, s=1) -> FourierFunction:
    """Apply the s-th power of the weighted Laplacian under uniform density."""
    return g.map_modes(lambda k: mode_multiplier(k, sigma, s))


def continuum_solve_uniform(g: FourierFunction, tau: float, s, sigma: float) -> FourierFunction:
    """Exact minimiser of the continuum objective: divide mode k by 1 + tau lambda_k^..."""
    if tau < 0:
        raise ValueError("tau must be >= 0")
    return g.map_modes(lambda k: 1.0 / (1.0 + tau * mode_multiplier(k, sigma, s)))


def bias_bound(g: FourierFunction, tau: float, s, sigma: float) -> float:
    """tau * || Delta^s g || in L2 of the uniform density, computed modewise."""
    if tau < 0:
        raise ValueError("tau must be >= 0")
    return tau * continuum_laplacian_uniform(g, sigma, s).l2_norm_uniform()


def exact_bias(g: FourierFunction, tau: float, s, sigma: float) -> float:
    """|| u*_tau - g ||: modewise tau lambda / (1 + tau lambda) shrinkage."""
    diff = g.map_modes(
        lambda k: tau * mode_multiplier(k, sigma, s)
        / (1.0 + tau * mode_multiplier(k, sigma, s))
    )
    return diff.l2_norm_uniform()


def nonlocal_laplacian(
    g,
    rho: DensitySpec,
    eps: float,
    kernel: KernelProfile,
    x,
    quad_m: int = 64,
) -> float:
    """(2/eps^2) * integral of eta_eps(|x-y|) (g(x) - g(y)) rho(y) dy.

    Tensor-product Gauss-Legendre quadrature on the bounding cube
    [x - eps, x + eps]^d; the integrand vanishes outside the kernel support.
    Gauss nodes make the d=1 indicator case spectrally accurate (the support
    fills the cube); for d >= 2 the ball boundary caps the attainable order.
    """
    if quad_m < 8:
        raise ValueError("quad_m must be >= 8")
    if eps <= 0 or eps > 0.5:
        raise ValueError("eps must lie in (0, 1/2]")
    x = np.asarray(x, dtype=float).reshape(-1)
    d = x.size
    nodes, wts = np.polynomial.legendre.leggauss(quad_m)
    nodes = nodes * eps  # offsets in [-eps, eps]
    wts = wts * eps
    grids = np.meshgrid(*([nodes] * d), indexing="ij")
    offsets = np.stack([gr.reshape(-1) for gr in grids], axis=-1)
    wgrids = np.meshgrid(*([wts] * d), indexing="ij")
    weight = np.prod(np.stack([wg.reshape(-1) for wg in wgrids], axis=-1), axis=-1)

    y = (x[None, :] + offsets) % 1.0
    r = np.sqrt(np.sum(offsets * offsets, axis=-1))
    eta = kernel.eval(r / eps) * eps ** (-d)
    gx = float(np.asarray(g(x[None, :])).reshape(-1)[0])
    gy = np.asarray(g(y)).reshape(-1)
    integrand = eta * (gx - gy) * rho.eval(y)
    return float(2.0 / eps**2 * np.sum(weight * integrand))


@dataclass(frozen=True)
class GridField:
    """Values on a regular periodic m^d grid with spacing 1/m."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        m = v.shape[0]
        if m < 4 or m % 2 != 0:
            raise ValueError("grid size must be even and >= 4")
        if any(s != m for s in v.shape):
            raise ValueError("grid must be square (m per axis)")
        object.__setattr__(self, "values", v)

    @property
    def m(self):
        return self.values.shape[0]

    @property
    def d(self):
        return self.values.ndim


def grid_points(m, d):
    axes = [np.arange(m) / m] * d
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack(grids, axis=-1)


def sample_on_grid(fn, m, d) -> GridField:
    pts = grid_points(m, d)
    return GridField(np.asarray(fn(pts.reshape(-1, d))).reshape((m,) * d))


def pseudo_spectral_continuum_laplacian(
    phi: GridField, rho: GridField, sigma: float
) -> GridField:
    """-(sigma/rho) div(rho^2 grad phi) via FFT differentiation.

    Exact for band-limited phi, rho whose product stays below the Nyquist
    frequency (bandwidth < m/4 is always safe).
    """
    if phi.values.shape != rho.values.shape:
        raise ValueError("phi and rho must share a grid")
    if np.any(rho.values <= 0.0):
        raise ValueError("density must be strictly positive on the grid")
    v = phi.values
    m, d = phi.m, phi.d
    freqs = 2.0j * np.pi * np.fft.fftfreq(m, d=1.0 / m)

    def partial(f, axis):
        shape = [1] * d
        shape[axis] = m
        return np.real(np.fft.ifftn(np.fft.fftn(f) * freqs.reshape(shape)))

    rho2 = rho.values**2
    div = np.zeros_like(v)
    for ax in range(d):
        div += partial(rho2 * partial(v, ax), ax)
    return GridField(-sigma / rho.values * div)

