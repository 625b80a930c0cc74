"""Torus domain primitives: wrap metric, densities, kernel profiles, kernel moments.

The domain is the unit torus [0,1)^d.  Distances are Euclidean lengths of the
coordinatewise minimal displacement, so no pair of points is farther apart
than sqrt(d)/2.  Densities have total mass one analytically and are bounded
away from zero, which keeps rejection sampling cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .blocks import run_blocks


def check_eps(eps):
    """Reject a neighborhood radius outside (0, 1/2], NaN included: no pair of
    points on the unit torus is farther apart than 1/2 in one coordinate."""
    if not 0.0 < eps <= 0.5:
        raise ValueError(f"eps={eps} must lie in (0, 1/2]")


def check_tau(tau):
    """Reject a resolvent weight that is negative or not finite."""
    if not (np.isfinite(tau) and tau >= 0):
        raise ValueError("tau must be finite and >= 0")


def torus_distance(x, y, out=None, work=None):
    """Wrap-around Euclidean distance between points (or arrays of points).

    Broadcasts over leading axes; the last axis is the coordinate axis.  The
    squares are summed coordinate by coordinate, in coordinate order (for
    d < 8 bitwise what np.sum over the last axis gives), so every temporary
    is one coordinate wide.  `build_graph` passes transposed (d, m) arrays,
    whose coordinates are then contiguous rows, and its own buffers: out,
    float64 of the result's shape, takes the distances, and work, float64
    of shape (2, *result shape), the temporaries, so the call allocates no
    array; the bits are those of a call without them.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[-1] != y.shape[-1]:
        raise ValueError(
            f"dimension mismatch: {x.shape[-1]} vs {y.shape[-1]}"
        )
    shape = np.broadcast_shapes(x.shape[:-1], y.shape[:-1])
    total = np.empty(shape) if out is None else out
    work = np.empty((2, *shape)) if work is None else work
    diff, flip = work[0, ...], work[1, ...]
    total.fill(0.0)
    for k in range(x.shape[-1]):
        np.subtract(x[..., k], y[..., k], out=diff)
        np.abs(diff, out=diff)
        np.subtract(1.0, diff, out=flip)
        np.minimum(diff, flip, out=diff)
        diff *= diff
        total += diff
    np.sqrt(total, out=total)
    return total[()] if out is None else out  # a scalar for two points


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


# eta = alpha + beta t on [0, 1/2] and on [1/2, 1), as (alpha, beta) per piece
_LINEAR_PIECES = {"indicator": ((1.0, 0.0), (1.0, 0.0)), "plateau": ((1.0, 0.0), (2.0, -2.0))}

INDICATOR = KernelProfile("indicator")
PLATEAU = KernelProfile("plateau")


@dataclass(frozen=True)
class DensitySpec:
    """Sampling density on the torus.

    "uniform": rho = 1.  "cosine_bump": rho(x) = 1 + a*cos(2*pi*k.x) with
    amplitude a in [0,1) and integer mode vector k != 0; the cosine has
    mean zero, so the total mass is one for both kinds.
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


def make_rng(seed):
    """Counter-based generator; each seed indexes an independent stream."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))


def check_cloud(spec: DensitySpec, n: int, d: int):
    """Reject a cloud that sample_cloud cannot draw: n or d below 1, or a
    density mode of another dimension than d."""
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    if spec.kind == "cosine_bump" and len(spec.mode) != d:
        raise ValueError("mode vector length must equal d")


def sample_cloud(spec: DensitySpec, n: int, d: int, seed: int) -> np.ndarray:
    """Draw n iid points from the density, as an (n, d) array on [0,1)^d.

    Deterministic given the seed.  A uniform cloud is bitwise
    make_rng(seed).random((n, d)), filled span by span by the block loops,
    which run up to one BLOCK of coordinates inline.  Philox is
    counter-based, with four raw draws per counter step and one raw draw per
    double, so the span from flat index a advances a fresh copy of the
    stream by a // 4 steps and discards a % 4 draws.  Other densities are
    drawn serially by rejection against rho_max; a proposal cap (1000x the
    expected number needed) turns a malformed spec into an error instead of
    a hang.
    """
    check_cloud(spec, n, d)
    rng = make_rng(seed)
    if spec.kind == "uniform":
        seed_seq = rng.bit_generator.seed_seq
        out = np.empty((n, d))
        flat = out.reshape(-1)

        def fill_span(a, b, _):
            bits = np.random.Philox(seed_seq)
            bits.advance(a // 4)
            bits.random_raw(a % 4)
            np.random.Generator(bits).random(out=flat[a:b])

        run_blocks(n * d, fill_span, lambda size: None)
        return out

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


def unit_ball_volume(d: int) -> float:
    """omega_d, the unit ball's volume: the unit sphere's area over d,
    2 pi^(d/2) / Gamma(d/2) / d.

    Gamma(d/2) is (d/2 - 1)! for even d and sqrt(pi) (d-2)!! / 2^((d-1)/2)
    for odd d.  For d <= 6 this keeps the bits of scipy.special.gamma, which
    sigma_eta and so records.csv depend on; at d = 7 it is exact, where
    scipy's Gamma(3.5) is one ulp off (math.gamma differs at d = 3 and 5).
    """
    if d % 2 == 0:
        gamma = float(math.factorial(d // 2 - 1))
    else:
        gamma = math.sqrt(math.pi) * math.prod(range(d - 2, 0, -2)) / 2 ** ((d - 1) // 2)
    return float(2.0 * math.pi ** (d / 2.0) / gamma / d)


def sigma_eta(kernel: KernelProfile, d: int) -> float:
    """Second moment of the kernel: integral of eta(|h|) h_1^2 over R^d.

    In polar coordinates this is the integral of omega_1^2 over the unit
    sphere, unit_ball_volume(d), times the radial integral of
    eta(r) r^(d+1) over [0, 1].  Both profiles are linear on [0, 1/2] and on
    [1/2, 1], eta = alpha + beta r, so the radial integral is in closed form:
    the sum over the two pieces [a, b] of
    alpha (b^(d+2) - a^(d+2)) / (d+2) + beta (b^(d+3) - a^(d+3)) / (d+3).
    For the indicator kernel at d <= 4 the sum keeps the bits that adaptive
    quadrature over the same two pieces gave, and records.csv depends on
    them; the single term 1/(d+2) would be one ulp low at d = 1.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    radial = 0.0
    for (a, b), (alpha, beta) in zip(((0.0, 0.5), (0.5, 1.0)), _LINEAR_PIECES[kernel.kind]):
        radial += (alpha * (b ** (d + 2) - a ** (d + 2)) / (d + 2)
                   + beta * (b ** (d + 3) - a ** (d + 3)) / (d + 3))
    return unit_ball_volume(d) * radial
