"""Epsilon-neighborhood kernel graphs and matrix-free graph Laplacians.

Weights are stored already scaled, W_ij = eps^(-d) * eta(dist/eps); the
Laplacian applies the extra 2/(n eps^2) factor at apply time.  Candidate
pairs come from a periodic `scipy.spatial.cKDTree`; W is assembled once as a
CSR matrix with neighbor lists sorted by index, which makes floating-point
sums reproducible.

For d = 1 with the indicator kernel the neighborhood of each point is a
contiguous window in sorted order, so `IntervalLaplacian` applies the same
operator in O(n) per product without storing any edges.  It is exactly
equivalent to the explicit graph (tested) and is what makes the large-n
sweeps fit in memory: it keeps 20 bytes per point and works in blocks of
BLOCK points, so one apply peaks at about 44 bytes per point with its input,
prefix sums and result.  Its construction finds the window ends in O(n) too:
a block's shifted coordinates x - eps and x + eps are at most two ascending
runs each, and each run is merged into the slice of sorted points that holds
its answers by a stable sort of bit-pattern keys, with no binary search per
point.  `experiments.make_operator` is the one place that picks between the
two forms.  Both share one operator protocol: `n`, `eps`, `degrees`,
`neighbor_counts()` and `apply(u)`.  All else here uses only that protocol,
and so does the solver; `dense_spectrum` assembles its matrix from `apply`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree

from .geometry import INDICATOR, KernelProfile, torus_distance

DENSE_THRESHOLD = 500
# points per block of IntervalLaplacian's construction and apply
BLOCK = 1 << 15


def l2_mu_n(u):
    """Empirical root-mean-square norm sqrt((1/n) sum u_i^2)."""
    u = np.asarray(u, dtype=float)
    return float(np.sqrt(np.mean(u * u)))


def inner_mu_n(u, v):
    return float(np.mean(np.asarray(u) * np.asarray(v)))


@dataclass(frozen=True)
class KernelGraph:
    """Symmetric weight matrix W, held once as a sorted CSR matrix (both
    directions stored); indptr, indices and weights are read-only views."""

    n: int
    eps: float
    w: sp.csr_matrix
    degrees: np.ndarray

    @property
    def indptr(self):
        return _readonly(self.w.indptr)

    @property
    def indices(self):
        return _readonly(self.w.indices)

    @property
    def weights(self):
        return _readonly(self.w.data)

    @property
    def edge_count(self):
        """Number of undirected edges."""
        return self.w.nnz // 2

    def neighbor_counts(self):
        return np.diff(self.w.indptr)

    def apply(self, u):
        """(2/(n eps^2)) (D - W) u."""
        u = np.asarray(u, dtype=float)
        if u.shape != (self.n,):
            raise ValueError(f"signal length {u.shape} does not match n={self.n}")
        scale = 2.0 / (self.n * self.eps**2)
        return scale * (self.degrees * u - self.w @ u)


def _readonly(a):
    view = a.view()
    view.flags.writeable = False
    return view


def _validate_eps(eps):
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if eps > 0.5:
        raise ValueError("eps must be <= 1/2 on the unit torus")


def _from_pairs(n, eps, i, j, w) -> KernelGraph:
    """KernelGraph with W_ij = W_ji = w for each unordered pair (i, j)."""
    coo = sp.coo_matrix(
        (np.concatenate([w, w]), (np.concatenate([i, j]), np.concatenate([j, i]))),
        shape=(n, n),
    )
    csr = coo.tocsr()
    csr.sort_indices()
    # row sums accumulated in stored order, so apply(u) is reproducible
    return KernelGraph(n, float(eps), csr, csr @ np.ones(n))


def build_graph(points, eps: float, kernel: KernelProfile = INDICATOR) -> KernelGraph:
    """Exact epsilon-graph on an (n, d) array of points: all and only pairs
    with torus distance < eps.

    A periodic k-d tree proposes the pairs within a slightly larger radius;
    the torus distance and the kernel weight alone decide which of them are
    edges, so the edge set does not depend on how the tree rounds distances.
    """
    _validate_eps(eps)
    n, d = points.shape
    if n == 0:
        raise ValueError("cloud is empty")
    if not (points.min() >= 0.0 and points.max() < 1.0):  # NaN fails both tests
        raise ValueError("points must be finite and lie in [0,1)^d")
    pairs = cKDTree(points, boxsize=1.0).query_pairs(eps * (1 + 1e-12), output_type="ndarray")
    i, j = pairs[:, 0], pairs[:, 1]
    dist = torus_distance(points[i], points[j])
    w = kernel.eval(dist / eps) * eps ** (-d)
    keep = (dist < eps) & (w > 0.0)
    return _from_pairs(n, eps, i[keep], j[keep], w[keep])


def apply_poly_laplacian(graph, u, s: int):
    """s-fold composition of the Laplacian; s = 0 returns u unchanged."""
    if s < 0:
        raise ValueError("s must be >= 0")
    v = np.asarray(u, dtype=float)
    for _ in range(s):
        v = graph.apply(v)
    return v


def dirichlet_energy(graph, u, s: int = 1) -> float:
    """<Delta^s u, u> in L2(mu_n), split symmetrically for numerical hygiene."""
    if s < 1:
        raise ValueError("s must be >= 1")
    lo = apply_poly_laplacian(graph, u, s // 2)
    hi = graph.apply(lo) if s % 2 else lo  # Delta^ceil(s/2) u
    return inner_mu_n(hi, lo)


def dense_spectrum(op):
    """Full eigendecomposition of either operator form; eigenvectors
    orthonormal in L2(mu_n), indexed in the operator's node order.

    Only for n <= DENSE_THRESHOLD: beyond that use the matrix-free operations.
    """
    if op.n > DENSE_THRESHOLD:
        raise ValueError(
            f"n={op.n} exceeds dense threshold {DENSE_THRESHOLD}; use the matrix-free path"
        )
    # column j is the Laplacian applied to the j-th unit vector
    lap = np.column_stack([op.apply(e) for e in np.eye(op.n)])
    vals, vecs = np.linalg.eigh(lap)
    # eigh returns euclidean-orthonormal columns; rescale for the (1/n) inner product
    return vals, vecs * np.sqrt(op.n)


def degree_statistics(graph):
    """(min, max) of normalized degrees (1/n) sum_j W_ij and max neighbor count."""
    norm_deg = graph.degrees / graph.n
    counts = graph.neighbor_counts()
    return float(norm_deg.min()), float(norm_deg.max()), int(counts.max())


def _merge_searchsorted(x, q, side, out, keys, is_query, steps):
    """out[k] = np.searchsorted(x, q[k], side) for ascending non-negative x
    and q, found by merging q into the slice of x that holds the answers.

    Non-negative doubles order like their bit patterns, so each value
    becomes the uint64 key bits << 1 | tag, with -0.0 read as +0.0.  Tagging
    x 0 and q 1 puts a query after the points equal to it (side="right"),
    the reverse tags put it before them (side="left").  A stable sort of the
    keys, NumPy's timsort, merges the two presorted runs in linear time, and
    the k-th query's answer is its merged position minus k plus the slice
    start.  Each merge takes at most BLOCK queries and a slice of at most
    BLOCK points, so the work buffers, keys and is_query with room for both
    and steps = arange(at most BLOCK), stay block-sized however the points
    cluster.
    """
    n, k = x.size, q.size
    # queries with answer <= c are those below x[c] (right) or up to it (left)
    other = "left" if side == "right" else "right"
    x_tag, q_tag = (0, 1) if side == "right" else (1, 0)
    i = 0
    while i < k:
        start = int(np.searchsorted(x, q[i], side))
        c, j = start + BLOCK, min(i + BLOCK, k)
        if c < n:
            j = i + int(np.searchsorted(q[i:j], x[c], other))
        stop = int(np.searchsorted(x, q[j - 1], side))
        m, size = stop - start, stop - start + j - i
        merged, bits = keys[:size], keys[:size].view(np.float64)
        np.add(x[start:stop], 0.0, out=bits[:m])
        np.add(q[i:j], 0.0, out=bits[m:])
        merged <<= 1
        merged[:m] |= x_tag
        merged[m:] |= q_tag
        merged.sort(kind="stable")
        tags = is_query[:size]
        np.bitwise_and(merged, 1, out=tags, casting="unsafe")
        if not q_tag:
            np.logical_not(tags, out=tags)
        at = np.flatnonzero(tags)
        at -= steps[: j - i]
        at += start
        out[i:j] = at
        i = j


class IntervalLaplacian:
    """Matrix-free d=1 indicator-kernel Laplacian on sorted points.

    Every neighborhood {j : torus_dist(x_i, x_j) < eps} is a cyclic window in
    sorted order, so W u reduces to windowed prefix sums.  Signals are indexed
    in sorted-coordinate order.  The operator keeps 20 bytes per point (x and
    the int32 window ends and neighbor counts); construction and apply work
    in blocks of BLOCK points, so an apply holds no other n-length array than
    u, the prefix sums and its result.  The window ends of a block are found
    in O(BLOCK) by merging its shifted coordinates, at most two ascending
    runs, into the sorted points (`_merge_searchsorted`), not by one binary
    search per point.
    """

    def __init__(self, points_1d, eps):
        _validate_eps(eps)
        x = np.sort(np.asarray(points_1d, dtype=float).reshape(-1))
        n = x.size
        if n == 0:
            raise ValueError("cloud is empty")
        if not (x[0] >= 0.0 and x[-1] < 1.0):  # sorting puts NaN last
            raise ValueError("points must be finite and lie in [0,1)")
        # Conceptually the points are tripled to (x-1, x, x+1) and each window
        # (x_i - eps, x_i + eps) is located around the middle copy.  Since
        # eps <= 1/2 the window endpoints spill at most one period either way,
        # so the searches run on x itself with wrapped query values and keep
        # only the residue index.  The wrapped queries, x - eps < 0 and
        # x + eps >= 1, are a prefix and a suffix of the sorted points, so
        # the wrap count of a window, 0, 1 or 2, needs only their two ends,
        # and each block's queries form at most two ascending runs.
        self.n = n
        self.eps = float(eps)
        self.x = x
        self._lo_rem = np.empty(n, np.int32)
        self._hi_rem = np.empty(n, np.int32)
        self._counts = np.empty(n, np.int32)
        self._below_end = 0  # x_i - eps < 0 for i < _below_end
        self._above_start = n  # x_i + eps >= 1 for i >= _above_start
        size = min(n, BLOCK)
        q = np.empty(size)
        work = (np.empty(2 * size, np.uint64), np.empty(2 * size, bool), np.arange(size))
        for a in range(0, n, BLOCK):
            b = min(a + BLOCK, n)
            qb, lo, hi = q[: b - a], self._lo_rem[a:b], self._hi_rem[a:b]
            np.subtract(x[a:b], eps, out=qb)
            below = int(np.searchsorted(qb, 0.0))
            qb[:below] += 1.0
            _merge_searchsorted(x, qb[:below], "right", lo[:below], *work)
            _merge_searchsorted(x, qb[below:], "right", lo[below:], *work)
            np.add(x[a:b], eps, out=qb)
            above = int(np.searchsorted(qb, 1.0))
            qb[above:] -= 1.0
            _merge_searchsorted(x, qb[:above], "left", hi[:above], *work)
            _merge_searchsorted(x, qb[above:], "left", hi[above:], *work)
            self._below_end += below
            self._above_start -= b - a - above
            # the window holds hi - lo + n * wraps points, the point itself once
            counts = self._counts[a:b]
            np.subtract(hi, lo, out=counts)
            counts -= 1
            counts[:below] += n
            counts[above:] += n

    @property
    def degrees(self):
        """sum_j W_ij with W = 1/eps per neighbor, computed on each access."""
        return self._counts / self.eps

    def neighbor_counts(self):
        return self._counts.astype(np.int64)

    def apply(self, u):
        u = np.asarray(u, dtype=float)
        if u.shape != (self.n,):
            raise ValueError(f"signal length {u.shape} does not match n={self.n}")
        # window sums from prefix sums, then every pass in place, block by
        # block.  take copies each int32 index block to intp; mode="clip"
        # lets it write into out directly, which mode="raise" would buffer
        n, eps = self.n, self.eps
        cum = np.empty(n + 1)
        cum[0] = 0.0
        np.cumsum(u, out=cum[1:])
        total = cum[-1]
        scale = 2.0 / (n * eps**2)
        out = np.empty(n)
        tmp = np.empty(min(n, BLOCK))
        for a in range(0, n, BLOCK):
            b = min(a + BLOCK, n)
            o, t, ub = out[a:b], tmp[: b - a], u[a:b]
            cum.take(self._hi_rem[a:b], out=o, mode="clip")
            cum.take(self._lo_rem[a:b], out=t, mode="clip")
            o -= t
            # + wraps * total: once on the prefix and the suffix of wrapped
            # windows, 0 * total between them, or 2 * total where they overlap
            below = min(max(self._below_end - a, 0), b - a)
            above = min(max(self._above_start - a, 0), b - a)
            first, last = sorted((below, above))
            o[:first] += total
            o[first:last] += (2.0 if above < below else 0.0) * total
            o[last:] += total
            o -= ub  # exclude self
            o /= eps  # W u
            np.divide(self._counts[a:b], eps, out=t)  # degrees
            t *= ub
            np.subtract(t, o, out=o)
            o *= scale
        return out
