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
sweeps fit in memory.  `experiments.make_operator` is the one place that
picks between the two forms.  Both share one operator protocol: `n`, `d`,
`eps`, `kernel`, `degrees`, `neighbor_counts()` and `apply(u)`.  All else
here but the edge-list I/O uses only that protocol, and so does the solver;
`dense_spectrum` assembles its matrix from `apply`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree

from .geometry import INDICATOR, KernelProfile, PointCloud, make_rng, torus_distance

DENSE_THRESHOLD = 500


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
    d: int
    eps: float
    kernel: KernelProfile
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


def _from_pairs(n, d, eps, kernel, i, j, w) -> KernelGraph:
    """KernelGraph with W_ij = W_ji = w for each unordered pair (i, j)."""
    coo = sp.coo_matrix(
        (np.concatenate([w, w]), (np.concatenate([i, j]), np.concatenate([j, i]))),
        shape=(n, n),
    )
    csr = coo.tocsr()
    csr.sort_indices()
    # row sums accumulated in stored order, so apply(u) is reproducible
    return KernelGraph(n, d, float(eps), kernel, csr, csr @ np.ones(n))


def build_graph(cloud: PointCloud, eps: float, kernel: KernelProfile = INDICATOR) -> KernelGraph:
    """Exact epsilon-graph: all and only pairs with torus distance < eps.

    A periodic k-d tree proposes the pairs within a slightly larger radius;
    the torus distance and the kernel weight alone decide which of them are
    edges, so the edge set does not depend on how the tree rounds distances.
    """
    _validate_eps(eps)
    pts = cloud.points
    n, d = pts.shape
    if n == 0:
        raise ValueError("cloud is empty")
    if not (pts.min() >= 0.0 and pts.max() < 1.0):  # NaN fails both tests
        raise ValueError("points must be finite and lie in [0,1)^d")
    pairs = cKDTree(pts, boxsize=1.0).query_pairs(eps * (1 + 1e-12), output_type="ndarray")
    i, j = pairs[:, 0], pairs[:, 1]
    dist = torus_distance(pts[i], pts[j])
    w = kernel.eval(dist / eps) * eps ** (-d)
    keep = (dist < eps) & (w > 0.0)
    return _from_pairs(n, d, eps, kernel, i[keep], j[keep], w[keep])


def apply_laplacian(graph, u):
    """v_i = (2/(n eps^2)) sum_j W_ij (u_i - u_j).  Constants map to zero."""
    return graph.apply(u)


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
    hi = apply_poly_laplacian(graph, u, (s + 1) // 2)
    lo = apply_poly_laplacian(graph, u, s // 2)
    return inner_mu_n(hi, lo)


def operator_norm_estimate(graph, iters: int = 50, seed: int = 0) -> float:
    """Power-iteration estimate of the largest eigenvalue of the Laplacian."""
    if iters < 1:
        raise ValueError("iters must be >= 1")
    rng = make_rng(seed, 0x9E37)
    v = rng.standard_normal(graph.n)
    est = 0.0
    for _ in range(iters):
        av = graph.apply(v)
        nv = np.linalg.norm(av)
        if nv == 0.0:
            return est
        est = float(v @ av / (v @ v))
        v = av / nv
    return max(est, 0.0)


def dense_spectrum(op, threshold: int = DENSE_THRESHOLD):
    """Full eigendecomposition of either operator form; eigenvectors
    orthonormal in L2(mu_n), indexed in the operator's node order.

    Only for n <= threshold: beyond that use the matrix-free operations.
    """
    if op.n > threshold:
        raise ValueError(
            f"n={op.n} exceeds dense threshold {threshold}; use the matrix-free path"
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


class IntervalLaplacian:
    """Matrix-free d=1 indicator-kernel Laplacian on sorted points.

    Every neighborhood {j : torus_dist(x_i, x_j) < eps} is a cyclic window in
    sorted order, so W u reduces to windowed prefix sums.  Signals are indexed
    in sorted-coordinate order.
    """

    d = 1

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
        # so the searches run on x itself with wrapped query values; only the
        # residue index (int32) and wrap count (int8) are kept, which is what
        # lets clouds of ~10^8 points fit in memory.
        v = x - eps
        below = v < 0.0
        v[below] += 1.0
        lo = np.searchsorted(x, v, side="right").astype(np.int32)
        lo_wraps = np.where(below, 0, 1).astype(np.int8)
        del v, below
        w = x + eps
        above = w >= 1.0
        w[above] -= 1.0
        hi = np.searchsorted(x, w, side="left").astype(np.int32)
        hi_wraps = np.where(above, 2, 1).astype(np.int8)
        del w, above

        self.n = n
        self.eps = float(eps)
        self.kernel = INDICATOR
        self.x = x
        self._lo_rem = lo
        self._hi_rem = hi
        self._wraps = (hi_wraps - lo_wraps).astype(np.int8)
        self.degrees = self.neighbor_counts() / eps  # sum_j W_ij with W = 1/eps per neighbor

    def neighbor_counts(self):
        return (
            self._hi_rem.astype(np.int64)
            - self._lo_rem
            + self._wraps.astype(np.int64) * self.n
            - 1  # the window includes the point itself once
        )

    def apply(self, u):
        u = np.asarray(u, dtype=float)
        if u.shape != (self.n,):
            raise ValueError(f"signal length {u.shape} does not match n={self.n}")
        # window sums from prefix sums, then every pass in place.  take
        # copies an int32 index to intp for the call; up to ~10^5 points it
        # is still about 3x faster than int32 fancy indexing
        cum = np.empty(self.n + 1)
        cum[0] = 0.0
        np.cumsum(u, out=cum[1:])
        out = cum.take(self._hi_rem)
        tmp = cum.take(self._lo_rem)
        out -= tmp
        np.multiply(self._wraps, cum[-1], out=tmp)
        out += tmp
        out -= u  # exclude self
        out /= self.eps  # W u
        np.multiply(self.degrees, u, out=tmp)
        np.subtract(tmp, out, out=out)
        out *= 2.0 / (self.n * self.eps**2)
        return out


def save_edgelist(graph: KernelGraph, path):
    """Plain-text export: header `n d eps kernel`, then `i j w` per edge."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{graph.n} {graph.d} {graph.eps!r} {graph.kernel.kind}\n")
        for i in range(graph.n):
            for p in range(graph.indptr[i], graph.indptr[i + 1]):
                j = graph.indices[p]
                if j > i:
                    f.write(f"{i} {j} {float(graph.weights[p])!r}\n")


def load_edgelist(path) -> KernelGraph:
    with open(path, encoding="utf-8") as f:
        header = f.readline().split()
        n, d, eps, kind = int(header[0]), int(header[1]), float(header[2]), header[3]
        rows, cols, vals = [], [], []
        for line in f:
            a, b, w = line.split()
            rows.append(int(a))
            cols.append(int(b))
            vals.append(float(w))
    return _from_pairs(
        n, d, eps, KernelProfile(kind), np.array(rows, dtype=np.int64),
        np.array(cols, dtype=np.int64), np.array(vals),
    )
