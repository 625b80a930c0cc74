"""Matrix-free solves of (tau * Delta^s + I) u = y.

The conjugate-gradient path works on any Laplacian operator (explicit graph
or the d=1 interval form) and never assembles a matrix.  The diagonal of the
shifted operator, tau * (2 D_ii / (n eps^2))^s + 1, is a natural Jacobi-style
preconditioner because the degree term dominates the off-diagonal averaging.
solve_resolvent_dense backs it up as a spectral oracle for small n; it takes
any real s >= 0, where solve_resolvent takes only an integer s >= 1.

The condition number satisfies kappa <= 1 + tau * ||Delta||_op^s, which grows
like 1 + tau / eps^(2s), and CG iterations grow like sqrt(kappa).  For s = 2
the factorisation 1 + tau lam^2 = |1 + i sqrt(tau) lam|^2 gives
(I + tau Delta^2)^-1 y = Re (I + i sqrt(tau) Delta)^-1 y for real y, and that
complex symmetric system is solved by COCG (van der Vorst & Melissen, IEEE
Trans. Magn. 1990) in the Krylov space of Delta itself, so its iterations
grow like (tau ||Delta||^2)^(1/4) instead.  It runs the same loop on complex
arrays with the diagonal 1 + sqrt(tau) 2 D_ii / (n eps^2) and stops on a
certified bound of the real residual.  s = 1 and s >= 3 use plain PCG: the
complex pole pairs of 1 / (1 + tau lam^3) give shifted matrices with an
indefinite Hermitian part, where COCG has no convergence guarantee, and a
partial-fraction sum of such solves multiplies each term's residual by the
other factors, up to (1 + tau^(1/3) ||Delta||)^2, in the real residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import check_tau
from .graph import apply_poly_laplacian, check_power, dense_spectrum, l2_mu_n

DEFAULT_TOL = 1e-10


def _labels(graph, y):
    """y as a float array, or ValueError unless it is finite with shape (n,)."""
    y = np.asarray(y, dtype=float)
    if y.shape != (graph.n,):
        raise ValueError("label length does not match graph size")
    if not np.all(np.isfinite(y)):
        raise ValueError("labels must be finite")
    return y


def check_tol(tol):
    """Reject a solver tolerance that is not positive and finite."""
    if not (tol > 0 and np.isfinite(tol)):
        raise ValueError("tol must be positive and finite")


@dataclass
class SolveReport:
    solution: np.ndarray
    iterations: int
    final_relative_residual: float
    # relative residual per iterate; for s = 2 the certified bound
    # (1 + sqrt(tau) ||Delta||) ||r|| / ||y|| on the real residual
    residual_history: list = field(default_factory=list)
    # quadratic objective (1/2)<Au,u> - <y,u> per iterate; CG minimizes it over
    # a growing Krylov space, so this sequence is non-increasing (the plain
    # residual norm is not, and is reported for diagnostics only).  Empty for
    # s = 2: COCG minimises no energy of A
    energy_history: list = field(default_factory=list)


class SolverError(RuntimeError):
    """Raised when CG breaks down or hits the iteration cap, or by
    check_residual; carries the best iterate."""

    def __init__(self, message, report: SolveReport):
        super().__init__(message)
        self.report = report


def ansatz_signal(graph, xi, tau, s: int = 1):
    """Degree-only resolvent response: xi_i / (tau (2 D_ii / (n eps^2))^s + 1),
    a smallness diagnostic whose norm scales like eps^(2s)/tau."""
    check_power(s)
    check_tau(tau)
    return _labels(graph, xi) / _shifted_diagonal(graph, graph.degrees, tau, s)


def _shifted_diagonal(graph, degrees, tau, s):
    """Diagonal of tau * Delta^s + I with only the degree term kept, from
    the graph's degrees."""
    return tau * (2.0 * degrees / (graph.n * graph.eps**2)) ** s + 1.0


def _operator(graph, tau, s):
    def apply_a(u, out=None):
        """(tau Delta^s + I) u, written into out if given (not u itself)."""
        out = apply_poly_laplacian(graph, u, s, out=out)
        out *= tau
        out += u
        return out

    return apply_a


def _shifted_pair_operator(graph, sigma):
    """z -> (I + i sigma Delta) z, with Delta applied to Re z and Im z apart
    into two real buffers made once, so a call given out (which must not
    be z) makes no n-length array of its own."""
    lap_re, lap_im = np.empty(graph.n), np.empty(graph.n)

    def apply_b(z, out=None):
        if out is None:
            out = np.empty_like(z)
        graph.apply(z.real, out=lap_re)
        graph.apply(z.imag, out=lap_im)
        np.multiply(lap_im, sigma, out=lap_im)
        np.subtract(z.real, lap_im, out=out.real)
        np.multiply(lap_re, sigma, out=lap_re)
        np.add(z.imag, lap_re, out=out.imag)
        return out

    return apply_b


def _cg(apply_a, diag, y, y_norm, bound, tol, max_iters, dtype):
    """Jacobi-preconditioned CG from zero on A x = y: z = r / diag, with diag
    the real degree-only diagonal of _shifted_diagonal, applied every step.

    For real symmetric positive definite A this is PCG.  For complex
    symmetric A it is COCG: the same recurrences, with the unconjugated
    bilinear form r @ z in place of the inner product.  The stop rule
    certifies bound * ||r|| / ||y|| <= tol.  Returns (x, steps, residual
    history, energy history, None) or, when CG breaks down or runs out of
    steps, the same with an error message last.  Energies are kept for
    real A only, where CG minimises them.

    The loop allocates no n-length array of its own (an apply still makes
    its prefix sums or W u): x, r, d, one work buffer that also holds z,
    and one that apply_a(d, out=...) writes A d into are made once, so a
    step holds five vectors besides y and diag.
    """
    n = y.size
    real = dtype is float
    x = np.zeros(n, dtype)
    r = y.astype(dtype)
    # z is read only between its division and the direction update, so it
    # shares the work buffer; A d goes into a buffer of its own
    tmp = np.empty(n, dtype)
    z = np.divide(r, diag, out=tmp)
    d = z.copy()
    ad = np.empty(n, dtype)
    rz = r @ z

    def norm(v):
        if real:  # the passes of l2_mu_n, into a kept buffer
            np.multiply(v, v, out=tmp)
            return float(np.sqrt(np.mean(tmp)))
        return float(np.sqrt(np.vdot(v, v).real / n))

    history = [bound * norm(r) / y_norm]
    # phi(x) = (1/2)<Ax,x> - <y,x> in L2(mu_n); each step lowers it by
    # (alpha/2) r'z, which is the exact CG energy recurrence
    energy = 0.0
    energies = [energy] if real else []
    k = 0
    while k < max_iters:
        apply_a(d, out=ad)
        dad = d @ ad
        if dad == 0.0 or not np.isfinite(dad) or (real and dad < 0.0):
            # search direction annihilated: the residual has hit the floating
            # point floor and the requested tolerance is unreachable
            return x, k, history, energies, (
                f"CG stagnated at residual {history[-1]:.3e} (tol={tol} unreachable)"
            )
        alpha = rz / dad
        np.multiply(d, alpha, out=tmp)
        x += tmp
        np.multiply(ad, alpha, out=tmp)
        r -= tmp
        k += 1
        if real:
            energy -= 0.5 * alpha * rz / n
            energies.append(float(energy))
        history.append(bound * norm(r) / y_norm)
        if history[-1] <= tol:
            return x, k, history, energies, None
        np.divide(r, diag, out=z)
        rz_new = r @ z
        d *= rz_new / rz
        d += z
        rz = rz_new
    return x, k, history, energies, (
        f"CG did not reach tol={tol} in {max_iters} iterations (residual {history[-1]:.3e})"
    )


def solve_resolvent(
    graph, y, tau: float, s: int = 1, *, tol: float = DEFAULT_TOL, max_iters: int | None = None
) -> SolveReport:
    """(tau Delta^s + I)^-1 y for the operator graph and labels y (length
    graph.n, finite), by preconditioned CG from a zero initial guess (COCG
    for s = 2).

    Stops when the relative residual ||A u - y|| / ||y|| in L2(mu_n) is
    certified <= tol; for s = 2 the residual history holds that bound.
    tau = 0 is the exact identity shortcut.  Exceeding max_iters raises
    SolverError with the best (real) iterate attached so the caller can
    accept or retry.  The true residual is recomputed at the end and
    reported; check_residual compares it with tol.
    """
    check_tau(tau)
    check_power(s)
    y = _labels(graph, y)
    check_tol(tol)
    s, n = int(s), graph.n
    if max_iters is None:
        max_iters = 10 * n
    y_norm = l2_mu_n(y)
    if tau == 0.0 or y_norm == 0.0:
        u = y.copy()
        energy = -0.5 * float(y @ y) / n
        return SolveReport(u, 0, 0.0, [0.0], [energy])

    apply_a = _operator(graph, tau, s)
    degrees = graph.degrees  # read once: IntervalLaplacian derives them on each access
    if s == 2:
        # (I + tau Delta^2)^-1 y = Re (I + i sigma Delta)^-1 y with sigma =
        # sqrt(tau).  The real residual of u = Re z is Re r + sigma Delta Im r,
        # so (1 + sigma ||Delta||) ||r|| bounds it; Gershgorin gives
        # ||Delta|| <= 4 max D / (n eps^2)
        sigma = float(np.sqrt(tau))
        lam_max = 4.0 * float(degrees.max()) / (n * graph.eps**2)
        apply_cg = _shifted_pair_operator(graph, sigma)
        diag = _shifted_diagonal(graph, degrees, sigma, 1)
        bound, dtype = 1.0 + sigma * lam_max, complex
    else:
        apply_cg, diag = apply_a, _shifted_diagonal(graph, degrees, tau, s)
        bound, dtype = 1.0, float
    del degrees  # not held through the solve
    x, k, history, energies, failure = _cg(apply_cg, diag, y, y_norm, bound, tol, max_iters, dtype)
    u = x.real.copy() if s == 2 else x
    if failure is not None:
        raise SolverError(failure, SolveReport(u, k, history[-1], history, energies))
    # recompute the true residual; the recurrence can drift slightly
    final = l2_mu_n(apply_a(u) - y) / y_norm
    return SolveReport(u, k, final, history, energies)


def check_residual(report: SolveReport, tol: float = DEFAULT_TOL) -> SolveReport:
    """The report, or SolverError with it attached when its recomputed true
    residual is above tol although the recurrence certified tol.

    solve_resolvent itself returns such a report: at stiff settings the
    residual of even the exact solution rounds to about
    1e-16 tau ||Delta||^s ||u|| / ||y||, so tol can be unreachable while the
    iterate is as accurate as the oracle's (tol = 1e-10 at s = 3, tau = 100
    in acceptance criteria 1 and 2).  Trials and `polylap denoise` call this,
    so a trial that misses tol is failed and the command exits 2.
    """
    if report.final_relative_residual > tol:
        raise SolverError(
            f"true residual {report.final_relative_residual:.3e} exceeds tol={tol}", report
        )
    return report


def solve_resolvent_dense(graph, y, tau: float, s: float = 1):
    """Spectral-oracle solve: divide eigencoefficients by 1 + tau * lambda^s.

    Accepts any real s >= 0 (s = 0 degenerates to u = y / (1 + tau)).
    """
    check_tau(tau)
    if not (np.isfinite(s) and s >= 0):
        raise ValueError(f"s must be finite and >= 0, got {s}")
    y = _labels(graph, y)
    vals, vecs = dense_spectrum(graph)
    lam = np.clip(vals, 0.0, None)
    coeffs = vecs.T @ y / graph.n  # <y, q_i> in L2(mu_n)
    filt = coeffs / (1.0 + tau * lam**s)
    return vecs @ filt
