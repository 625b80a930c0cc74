"""Torus domain primitives: wrap metric, densities, kernel profiles, kernel moments.

The domain is the unit torus [0,1)^d.  Distances are Euclidean lengths of the
coordinatewise minimal displacement, so no pair of points is farther apart
than sqrt(d)/2.  Densities integrate to one analytically and are bounded away
from zero, which keeps rejection sampling cheap.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate, special


def torus_distance(x, y):
    """Wrap-around Euclidean distance between points (or arrays of points).

    Broadcasts over leading axes; the last axis is the coordinate axis.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[-1] != y.shape[-1]:
        raise ValueError(
            f"dimension mismatch: {x.shape[-1]} vs {y.shape[-1]}"
        )
    diff = np.abs(x - y)
    diff = np.minimum(diff, 1.0 - diff)
    return np.sqrt(np.sum(diff * diff, axis=-1))


@dataclass(frozen=True)
class KernelProfile:
    """Radial kernel profile eta(t), supported on [0,1).

    kind is "indicator" (eta = 1 on [0,1)) or "plateau" (eta = 1 on [0,1/2],
    linearly decaying to 0 at t = 1).  Both satisfy eta(t) > 1/2 for t <= 1/2
    and are non-increasing.  The common tent kernel 1 - t fails the first
    requirement at t = 1/2 and is deliberately not offered.
    """

    kind: str = "indicator"

    def __post_init__(self):
        if self.kind not in ("indicator", "plateau"):
            raise ValueError(f"unknown kernel profile {self.kind!r}")

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "indicator":
            return np.where(t < 1.0, 1.0, 0.0)
        out = np.clip(2.0 * (1.0 - t), 0.0, 1.0)
        return np.where(t < 1.0, out, 0.0)


INDICATOR = KernelProfile("indicator")
PLATEAU = KernelProfile("plateau")


@dataclass(frozen=True)
class DensitySpec:
    """Sampling density on the torus.

    "uniform": rho = 1.  "cosine_bump": rho(x) = 1 + a*cos(2*pi*k.x) with
    amplitude a in [0,1) and integer mode vector k != 0; the cosine
    integrates to zero so the total mass is one for both kinds.
    """

    kind: str = "uniform"
    amplitude: float = 0.0
    mode: tuple = field(default=())

    def __post_init__(self):
        if self.kind not in ("uniform", "cosine_bump"):
            raise ValueError(f"unknown density kind {self.kind!r}")
        if self.kind == "cosine_bump":
            if not (0.0 <= self.amplitude < 1.0):
                raise ValueError("amplitude must lie in [0,1)")
            if not self.mode or all(k == 0 for k in self.mode):
                raise ValueError("cosine_bump needs a nonzero mode vector")
            object.__setattr__(self, "mode", tuple(int(k) for k in self.mode))

    @property
    def rho_min(self):
        return 1.0 if self.kind == "uniform" else 1.0 - self.amplitude

    @property
    def rho_max(self):
        return 1.0 if self.kind == "uniform" else 1.0 + self.amplitude

    def eval(self, x):
        """Evaluate rho at points x, shape (..., d)."""
        x = np.asarray(x, dtype=float)
        if self.kind == "uniform":
            return np.ones(x.shape[:-1])
        k = np.asarray(self.mode, dtype=float)
        if x.shape[-1] != k.size:
            raise ValueError("point dimension does not match mode vector")
        return 1.0 + self.amplitude * np.cos(2.0 * np.pi * (x @ k))


UNIFORM = DensitySpec("uniform")


def make_rng(seed, *path):
    """Counter-based generator; (seed, *path) indexes an independent stream."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def sample_cloud(spec: DensitySpec, n: int, d: int, seed: int) -> np.ndarray:
    """Draw n iid points from the density by rejection against rho_max, as an
    (n, d) array on [0,1)^d.

    Deterministic given the seed.  A proposal cap (1000x the expected number
    needed) turns a malformed spec into an error instead of a hang.
    """
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    if spec.kind == "cosine_bump" and len(spec.mode) != d:
        raise ValueError("mode vector length must equal d")
    rng = make_rng(seed)
    if spec.kind == "uniform":
        return rng.random((n, d))

    accept_rate = 1.0 / spec.rho_max  # mass is 1, proposals uniform
    max_proposals = int(1000 * n / accept_rate)
    chunks = []
    accepted = 0
    proposed = 0
    while accepted < n:
        m = min(max(2 * (n - accepted), 1024), max_proposals - proposed)
        if m <= 0:
            raise RuntimeError("rejection sampling exceeded proposal cap")
        pts = rng.random((m, d))
        keep = rng.random(m) < spec.eval(pts) / spec.rho_max
        chunks.append(pts[keep])
        accepted += int(keep.sum())
        proposed += m
    return np.concatenate(chunks)[:n]


@functools.cache
def sigma_eta(kernel: KernelProfile, d: int) -> float:
    """Second moment of the kernel: integral of eta(|h|) h_1^2 over R^d.

    Reduced to a radial integral against r^(d+1) times the surface average
    of omega_1^2, and evaluated by adaptive quadrature so every profile goes
    through the same code path.  Analytic ball moments serve as oracles in
    the tests.  Memoised: the quadrature runs once per (kernel, d).
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    # integral of omega_1^2 over the unit sphere S^{d-1}
    surface = 2.0 * math.pi ** (d / 2.0) / special.gamma(d / 2.0)
    angular = surface / d
    radial, err = integrate.quad(
        lambda r: kernel.eval(r) * r ** (d + 1), 0.0, 1.0, points=[0.5], limit=200
    )
    value = angular * radial
    if err > 1e-10 * max(abs(value), 1.0):
        raise RuntimeError("kernel moment quadrature did not converge")
    return value
