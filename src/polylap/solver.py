"""Matrix-free solves of (tau * Delta^s + I) u = y.

The conjugate-gradient path works on any Laplacian operator (explicit graph
or the d=1 interval form) and never assembles a matrix.  The diagonal of the
shifted operator, tau * (2 D_ii / (n eps^2))^s + 1, is a natural Jacobi-style
preconditioner because the degree term dominates the off-diagonal averaging.
A dense spectral solve backs it up as an oracle for small n, and is the only
path that accepts non-integer s.

The condition number satisfies kappa <= 1 + tau * ||Delta||_op^s which grows
like 1 + tau / eps^(2s); iteration counts rise accordingly for small eps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import DENSE_THRESHOLD, apply_poly_laplacian, dense_spectrum, l2_mu_n

DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class ResolventProblem:
    graph: object
    y: np.ndarray
    tau: float
    s: float = 1  # CG requires a positive integer; the dense oracle takes any s >= 0

    def __post_init__(self):
        if self.tau < 0:
            raise ValueError("tau must be >= 0")
        if self.s < 0:
            raise ValueError("s must be >= 0")
        y = np.asarray(self.y, dtype=float)
        if y.shape != (self.graph.n,):
            raise ValueError("label length does not match graph size")
        if not np.all(np.isfinite(y)):
            raise ValueError("labels must be finite")
        object.__setattr__(self, "y", y)


@dataclass
class SolveReport:
    solution: np.ndarray
    iterations: int
    final_relative_residual: float
    preconditioner: str
    residual_history: list = field(default_factory=list)
    # quadratic objective (1/2)<Au,u> - <y,u> per iterate; CG minimizes it over
    # a growing Krylov space, so this sequence is non-increasing (the plain
    # residual norm is not, and is reported for diagnostics only)
    energy_history: list = field(default_factory=list)


class SolverError(RuntimeError):
    """Raised when CG hits the iteration cap; carries the best iterate."""

    def __init__(self, message, report: SolveReport):
        super().__init__(message)
        self.report = report


def ansatz_signal(graph, xi, tau, s: int = 1):
    """Degree-only resolvent response: xi_i / (tau (2 D_ii / (n eps^2))^s + 1).

    Doubles as a smallness diagnostic (its norm scales like eps^(2s)/tau)
    and as the preconditioner diagonal.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    if tau < 0:
        raise ValueError("tau must be >= 0")
    return np.asarray(xi, dtype=float) / _shifted_diagonal(graph, tau, s)


def _shifted_diagonal(graph, tau, s):
    """Diagonal of tau * Delta^s + I with only the degree term kept."""
    return tau * (2.0 * graph.degrees / (graph.n * graph.eps**2)) ** s + 1.0


def _operator(graph, tau, s):
    def apply_a(u):
        return tau * apply_poly_laplacian(graph, u, s) + u

    return apply_a


def solve_resolvent(
    p: ResolventProblem,
    tol: float = DEFAULT_TOL,
    max_iters: int | None = None,
    preconditioner: str = "DiagonalAnsatz",
) -> SolveReport:
    """Preconditioned CG from a zero initial guess.

    Stops when ||A u - y|| / ||y|| <= tol in L2(mu_n).  tau = 0 is the exact
    identity shortcut.  Exceeding max_iters raises SolverError with the best
    iterate attached so the caller can accept or retry.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if p.s != int(p.s) or p.s < 1:
        raise ValueError("CG path requires integer s >= 1; use the dense oracle")
    if preconditioner not in ("None", "DiagonalAnsatz"):
        raise ValueError(f"unknown preconditioner {preconditioner!r}")
    n = p.graph.n
    if max_iters is None:
        max_iters = 10 * n
    y = p.y
    y_norm = l2_mu_n(y)
    if p.tau == 0.0 or y_norm == 0.0:
        u = y.copy()
        energy = -0.5 * float(y @ y) / n
        return SolveReport(u, 0, 0.0, preconditioner, [0.0], [energy])

    apply_a = _operator(p.graph, p.tau, int(p.s))
    if preconditioner == "DiagonalAnsatz":
        diag = _shifted_diagonal(p.graph, p.tau, int(p.s))
        apply_m = lambda r: r / diag
    else:
        apply_m = lambda r: r

    u = np.zeros(n)
    r = y.copy()
    z = apply_m(r)
    d = z.copy()
    rz = float(r @ z)
    history = [l2_mu_n(r) / y_norm]
    # phi(u) = (1/2)<Au,u> - <y,u> in L2(mu_n); each step lowers it by
    # (alpha/2) r'z, which is the exact CG energy recurrence
    energy = 0.0
    energies = [energy]
    iterations = 0
    for k in range(1, max_iters + 1):
        ad = apply_a(d)
        dad = float(d @ ad)
        if dad <= 0.0 or not np.isfinite(dad):
            # search direction annihilated: the residual has hit the floating
            # point floor and the requested tolerance is unreachable
            report = SolveReport(u, iterations, history[-1], preconditioner, history, energies)
            raise SolverError(
                f"CG stagnated at residual {history[-1]:.3e} (tol={tol} unreachable)",
                report,
            )
        alpha = rz / dad
        u += alpha * d
        r -= alpha * ad
        energy -= 0.5 * alpha * rz / n
        energies.append(energy)
        iterations = k
        rel = l2_mu_n(r) / y_norm
        history.append(rel)
        if rel <= tol:
            break
        z = apply_m(r)
        rz_new = float(r @ z)
        d = z + (rz_new / rz) * d
        rz = rz_new
    else:
        report = SolveReport(u, iterations, history[-1], preconditioner, history, energies)
        raise SolverError(
            f"CG did not reach tol={tol} in {max_iters} iterations "
            f"(residual {history[-1]:.3e})",
            report,
        )
    # recompute the true residual; the recurrence can drift slightly
    final = l2_mu_n(apply_a(u) - y) / y_norm
    return SolveReport(u, iterations, final, preconditioner, history, energies)


def solve_resolvent_dense(p: ResolventProblem, threshold: int = DENSE_THRESHOLD):
    """Spectral-oracle solve: divide eigencoefficients by 1 + tau * lambda^s.

    Accepts any real s >= 0 (s = 0 degenerates to u = y / (1 + tau)).
    """
    vals, vecs = dense_spectrum(p.graph, threshold=threshold)
    lam = np.clip(vals, 0.0, None)
    coeffs = vecs.T @ p.y / p.graph.n  # <y, q_i> in L2(mu_n)
    s = p.s
    filt = coeffs / (1.0 + p.tau * lam**s)
    return vecs @ filt


def resolvent_problem(graph, y, tau, s=1):
    return ResolventProblem(graph, np.asarray(y, dtype=float), float(tau), s)
