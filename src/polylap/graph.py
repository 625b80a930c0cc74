"""Epsilon-neighborhood kernel graphs and matrix-free graph Laplacians.

Weights are stored already scaled, W_ij = eps^(-d) * eta(dist/eps); the
Laplacian applies the extra 2/(n eps^2) factor at apply time.  Candidate
pairs come from a uniform cell grid (Bentley, Stanat & Williams 1977):
cells at least eps/2 wide, the points sorted by cell, and for every point
one or two ranges of sorted positions per forward row of cells
(`_grid_pairs`).  Chunks of at most PAIR_CHUNK candidates are gathered one
coordinate row at a time into work buffers made once and measured by
`geometry.torus_distance`, the one copy of the wrap metric.  W is assembled
once as a CSR matrix born sorted: the row-major keys row * n + col of both
directions of every edge, sorted in place, are its entries in stored order
and their residues mod n its column indices, and bincounts of the rows give
the row pointers, with no permutation, no COO matrix and no per-row sort.
The weights follow the sorted entries: the indicator's one constant eps^-d,
or the plateau profile at each stored pair's distance measured again.
Neighbor lists sorted by index make floating-point sums reproducible.
`build_graph` imports scipy.sparse itself, and nothing else here uses
SciPy, so a run that builds no explicit graph never loads it.

For d = 1 with the indicator kernel the neighborhood of each point is a
contiguous window in sorted order, so `IntervalLaplacian` applies the same
operator in O(n) per product without storing any edges.  It is exactly
equivalent to the explicit graph (tested) and is what makes the large-n
sweeps fit in memory: it keeps 16 bytes per point and works in blocks of
`blocks.BLOCK` (2^16) points, so one apply peaks at about 32 bytes per
point with its input, which it may overwrite, and the prefix sums (40 with
a separate result).  Its construction finds the window ends in O(n) too: a
block's shifted coordinates x - eps and x + eps are at most two ascending
runs each, and each run is merged into the slice of sorted points that
holds its answers by a stable sort of bit-pattern keys, with no binary
search per point.  Beyond one block the block loops run on a thread pool
of one worker per CPU this process may run on (`blocks.run_blocks`); each
worker's buffers are 1/WORKERS of the serial set, so the bytes per point
stay the same, and the results are bitwise those of the serial loop.
`experiments.make_operator` is the one place that picks between the two
forms.  Both share one operator protocol: `n`, `eps`, `degrees`,
`neighbor_counts()` and `apply(u, out=None)`, which writes the result into
out when given (float64 of shape (n,), u itself allowed) and returns it,
bitwise what a fresh call returns.  All else here uses only that protocol,
and so does the solver; `dense_spectrum` assembles its matrix from `apply`.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .blocks import run_blocks
from .geometry import INDICATOR, KernelProfile, check_eps, torus_distance

if TYPE_CHECKING:
    import scipy.sparse as sp

DENSE_THRESHOLD = 500
# the build's cell grid: at most this many cells per axis (`_cells_per_axis`),
# and candidate pairs measured per chunk
MAX_CELLS_PER_AXIS = 1 << 20
PAIR_CHUNK = 1 << 14


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

    def apply(self, u, out=None):
        """(2/(n eps^2)) (D - W) u, written into out if given (u itself
        allowed)."""
        u, out = _signal_and_out(self.n, u, out)
        wu = self.w @ u  # complete before out, which may be u, is written
        np.multiply(self.degrees, u, out=out)
        out -= wu
        out *= 2.0 / (self.n * self.eps**2)
        return out


def _signal_and_out(n, u, out):
    """u as a float64 signal of length n, and the array an apply writes:
    out, which must be float64 of shape (n,), or a new one.  out may be u
    itself but no other view that overlaps it."""
    u = np.asarray(u, dtype=float)
    if u.shape != (n,):
        raise ValueError(f"signal length {u.shape} does not match n={n}")
    if out is None:
        return u, np.empty(n)
    if not (isinstance(out, np.ndarray) and out.shape == (n,) and out.dtype == np.float64):
        raise ValueError(f"out must be a float64 array of shape ({n},)")
    return u, out


def _readonly(a):
    view = a.view()
    view.flags.writeable = False
    return view


def cloud_shape(points):
    """(n, d) of an (n, d) array of points; ValueError for any other shape."""
    shape = np.shape(points)
    if len(shape) != 2:
        raise ValueError(f"points must be an (n, d) array, got shape {shape}")
    return shape


def build_graph(points, eps: float, kernel: KernelProfile = INDICATOR) -> KernelGraph:
    """Exact epsilon-graph on an (n, d) array of points: all and only pairs
    with torus distance < eps.

    A uniform cell grid proposes the candidate pairs (`_grid_pairs`); the
    torus distance alone decides which of them are edges, so the edge set
    does not depend on how the grid rounds.  Both profiles are positive
    below t = 1, and for doubles a < b the quotient a / b rounds below 1, so
    every edge has a positive weight.  W is assembled already sorted: the
    row-major keys row * n + col of both directions, sorted in place, are
    the entries in the order CSR stores them, and their residues mod n the
    column indices.  The weights follow the sorted entries: the constant
    eps^-d for the indicator, the profile at each stored pair's torus
    distance for the plateau (`_profile_weights`).
    """
    import scipy.sparse as sp  # here, so that a run without an explicit graph loads no SciPy

    check_eps(eps)
    points = np.asarray(points, dtype=float)
    n, d = cloud_shape(points)
    if n == 0:
        raise ValueError("cloud is empty")
    if not (points.min() >= 0.0 and points.max() < 1.0):  # NaN fails both tests
        raise ValueError("points must be finite and lie in [0,1)^d")
    # int32 point and column indices, as scipy picks them; it narrows indptr itself
    index_dtype = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    i, j = _grid_edges(points, eps, index_dtype)
    indptr = np.zeros(n + 1, np.int64)
    np.cumsum(np.bincount(i, minlength=n) + np.bincount(j, minlength=n), out=indptr[1:])
    keys = np.empty(2 * i.size, np.int64)  # keys are distinct
    np.multiply(i, n, out=keys[: i.size], dtype=np.int64)
    keys[: i.size] += j
    np.multiply(j, n, out=keys[i.size :], dtype=np.int64)
    keys[i.size :] += i
    del i, j
    keys.sort()
    indices = np.remainder(keys, n, out=keys).astype(index_dtype)
    del keys
    if kernel.kind == "indicator":
        data = np.full(indices.size, eps ** (-d))
    else:
        data = _profile_weights(points, eps, kernel, indptr, indices)
    csr = sp.csr_matrix((data, indices, indptr), shape=(n, n))
    csr.has_canonical_format = True  # sorted rows, no duplicate entries
    # row sums accumulated in stored order, so apply(u) is reproducible
    return KernelGraph(n, float(eps), csr, csr @ np.ones(n))


def _profile_weights(points, eps, kernel, indptr, indices):
    """eps^-d eta(dist / eps) for every stored entry of the CSR pattern
    (indptr, indices), its pair's torus distance measured again, PAIR_CHUNK
    entries at a time straight into the result.  The metric is bitwise
    symmetric, so each weight has the bits the candidate pair's distance
    would give."""
    d = points.shape[1]
    cols, buffers, scale = np.array(points.T), _pair_buffers(d), eps ** (-d)
    data = np.empty(indices.size)
    for a in range(0, indices.size, PAIR_CHUNK):
        b = min(a + PAIR_CHUNK, indices.size)
        # rows first..last-1 hold the entries a..b-1
        first = int(np.searchsorted(indptr, a, "right")) - 1
        last = int(np.searchsorted(indptr, b))
        rows = np.repeat(np.arange(first, last), np.diff(indptr[first : last + 1].clip(a, b)))
        t = _pair_distances(cols, rows, indices[a:b], data[a:b], buffers)
        t /= eps
        np.multiply(kernel.eval(t), scale, out=t)
    return data


def _pair_buffers(d):
    """The work buffers of `_pair_distances` for pairs in d dimensions."""
    return np.empty((d, PAIR_CHUNK)), np.empty((d, PAIR_CHUNK)), np.empty((2, PAIR_CHUNK))


def _pair_distances(cols, p, q, out, buffers):
    """The torus distances of at most PAIR_CHUNK pairs (p, q) of columns of
    the float64 (d, n) coordinates cols, written into out: each coordinate
    row gathered into the work buffers of `_pair_buffers`, which indexing
    does faster than take or a gather of whole points."""
    x, y, work = buffers
    size = p.size
    for xk, yk, ck in zip(x, y, cols):
        xk[:size] = ck[p]
        yk[:size] = ck[q]
    return torus_distance(x[:, :size].T, y[:, :size].T, out, work[:, :size])


def _cells_per_axis(n, d, eps):
    """Cells per axis of the grid `_grid_pairs` puts on n points in d
    dimensions: m = min(floor(2 / (eps (1 + 1e-9))), floor(n^(1/d)),
    MAX_CELLS_PER_AXIS), or 1 when m < 5.

    A cell is wider than eps / 2 by a relative 1e-9, which covers the
    rounding of the cell coordinates x * m while m <= MAX_CELLS_PER_AXIS, so
    two points closer than eps lie at most two cells apart on every axis.
    There are at most n cells, and with fewer than 5 per axis the five-cell
    reach of a point would meet itself across the wrap, so one cell holds
    every point.
    """
    root = round(n ** (1.0 / d))
    root -= root**d > n
    m = min(int(2.0 / (eps * (1 + 1e-9))), root, MAX_CELLS_PER_AXIS)
    return m if m >= 5 else 1


def _grid_edges(points, eps, index_dtype):
    """Edges i, j (index_dtype) of the epsilon-graph, the pairs at torus
    distance < eps, in the order the grid proposes them.  Each chunk of at
    most PAIR_CHUNK candidate pairs is measured (`_pair_distances`) and
    filtered.  The kept edges are joined every 64 chunks and at the end: the
    small per-chunk arrays come from the allocator's heap, and joined early
    they are reused instead of staying resident through the assembly (about
    13 bytes of RSS less per edge on clouds of millions of edges)."""
    n, d = points.shape
    cols = np.array(points.T, dtype=float)  # float64 (d, n), also for float32 clouds
    m = _cells_per_axis(n, d, eps)
    cell = np.zeros(n, np.int64)  # row-major cell ids
    for xk in cols:
        cell *= m
        cell += (xk * m).astype(np.int64)  # below m: x < 1 rounds x * m below m
    # points ordered by cell through keys cell * n + point (at most n cells)
    # sorted in place: the assembly's sort, so a build loads no argsort code
    # (0.25 MB of RSS per process)
    cell *= n
    cell += np.arange(n)
    cell.sort()
    cell, perm = np.divmod(cell, n)
    cols = cols[:, perm]
    perm = perm.astype(index_dtype)
    buffers, dist = _pair_buffers(d), np.empty(PAIR_CHUNK)
    joined, found = [], [(np.empty(0, index_dtype), np.empty(0, index_dtype))]
    for p, q in _grid_pairs(cell, m, d):
        near = np.flatnonzero(_pair_distances(cols, p, q, dist[: p.size], buffers) < eps)
        found.append((perm[p[near]], perm[q[near]]))
        if len(found) == 64:
            joined.append(_join(found))
            found = []
    return _join(joined + found)


def _join(parts):
    """Each of the arrays of the (i, j) pairs parts, concatenated."""
    return tuple(np.concatenate(part) for part in zip(*parts))


def _grid_pairs(cell, m, d):
    """Candidate pairs (p, q) of positions in the sorted row-major cell ids
    cell of a grid of m cells per axis: every unordered pair of points at
    most two cells apart on every axis, once, as (p, q) arrays of at most
    PAIR_CHUNK pairs.

    A row, the m cells along the last axis, is contiguous in the sorted
    order.  In each forward row offset in {-2..2}^(d-1) (first nonzero
    entry positive) a point's partners are the cells c-2..c+2 around its
    last-axis cell c; in its own row they are the points after it up to
    the end of cell c+2.  Either is one range of positions and, where the
    cells wrap, a second, looked up in the cell start table.
    """
    n = cell.size
    start = np.zeros(m**d + 1, np.int64)
    np.cumsum(np.bincount(cell, minlength=m**d), out=start[1:])
    row, c = np.divmod(cell, m)
    stop = np.minimum(c + 3, m)  # cells c..c+2 of the row end before stop
    own = np.arange(n)
    # own row: after p up to cell c+2, then cells 0..c+2-m where that wraps
    base = row * m
    wrap = np.flatnonzero(c > m - 3) if m > 1 else own[:0]
    yield from _range_pairs(
        np.concatenate([own, wrap]),
        np.concatenate([own + 1, start[base[wrap]]]),
        np.concatenate([start[base + stop], start[base[wrap] + c[wrap] + 3 - m]]),
    )
    if m == 1 or d == 1:
        return
    # other rows: cells c-2..c+2, wrapped either below 0 or past m - 1
    wrap = np.flatnonzero((c < 2) | (c > m - 3))
    src = np.concatenate([own, wrap])
    first = np.maximum(c - 2, 0)
    wrap_first = np.where(c[wrap] < 2, c[wrap] - 2 + m, 0)
    wrap_stop = np.where(c[wrap] < 2, m, c[wrap] + 3 - m)
    rows = (m,) * (d - 1)
    coords = np.unravel_index(row, rows)
    for offset in itertools.product(range(-2, 3), repeat=d - 1):
        if offset <= (0,) * (d - 1):
            continue
        shifted = [k + o for k, o in zip(coords, offset)]
        base = np.ravel_multi_index(shifted, rows, mode="wrap") * m
        yield from _range_pairs(
            src,
            np.concatenate([start[base + first], start[base[wrap] + wrap_first]]),
            np.concatenate([start[base + stop], start[base[wrap] + wrap_stop]]),
        )


def _range_pairs(src, lo, hi):
    """(src[r], q) for every q in [lo[r], hi[r]) and every r, in order, as
    (p, q) arrays of at most PAIR_CHUNK pairs."""
    ends = np.cumsum(hi - lo)
    total = int(ends[-1])
    shift = hi - ends  # the t-th pair of range r has q = t + shift[r]
    first = 0  # first range not yet done
    for t0 in range(0, total, PAIR_CHUNK):
        t1 = min(t0 + PAIR_CHUNK, total)
        last = int(np.searchsorted(ends, t1)) + 1
        # pairs of ranges first..last-1 within [t0, t1)
        span = np.minimum(ends[first:last], t1)
        span -= np.maximum(ends[first:last] - hi[first:last] + lo[first:last], t0)
        r = np.repeat(np.arange(first, last), span)
        q = shift[r]
        q += np.arange(t0, t1)
        yield src[r], q
        first = int(np.searchsorted(ends, t1, "right"))


def check_power(s):
    """Reject a power of the Laplacian that is not an integer >= 1, NaN
    included: Delta^s is composed of s applies."""
    if not float(s).is_integer():
        raise ValueError(f"need an integer s >= 1, got {s}")
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")


def apply_poly_laplacian(graph, u, s: int, out=None):
    """Delta^s u, the s-fold composition of the Laplacian, written into out
    if given (u itself allowed) like the operator's apply(u, out=None): the
    first apply writes out, every later one overwrites it.  s = 0 returns u
    unchanged and leaves out alone."""
    if s != 0:
        check_power(s)
    v = np.asarray(u, dtype=float)
    for _ in range(int(s)):
        v = out = graph.apply(v, out=out)
    return v


def dirichlet_energy(graph, u, s: int = 1) -> float:
    """<Delta^s u, u> in L2(mu_n), split symmetrically for numerical hygiene."""
    check_power(s)
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


def _merge_searchsorted(x, src, shift, wrap, side, out, keys, is_query, steps):
    """out[k] = np.searchsorted(x, q[k], side) for the queries
    q = (src + shift) + wrap, with x and q ascending and non-negative, found
    by merging q into the slice of x that holds the answers.

    Non-negative doubles order like their bit patterns, so each value
    becomes the uint64 key bits << 1 | tag, with -0.0 read as +0.0: x gets
    0.0 added, and a sum is -0.0 only if both terms are, which wrap (0.0 or
    +-1.0) never is.  Tagging x 0 and q 1 puts a query after
    the points equal to it (side="right"), the reverse tags put it before
    them (side="left").  A stable sort of the keys, NumPy's timsort, merges
    the two presorted runs in linear time, and the k-th query's answer is
    its merged position minus k plus the slice start.  Each merge takes at
    most cap = steps.size queries, written straight into the keys, and a
    slice of at most cap points, so the work buffers, keys and is_query with
    room for 2 * cap and steps = arange(cap), bound the memory however the
    points cluster.
    """
    n, k, cap = x.size, src.size, steps.size
    # queries with answer <= c are those below x[c] (right) or up to it (left)
    other = "left" if side == "right" else "right"
    x_tag, q_tag = (0, 1) if side == "right" else (1, 0)
    i = 0
    while i < k:
        j = min(i + cap, k)
        qs = keys[: j - i].view(np.float64)
        np.add(src[i:j], shift, out=qs)
        qs += wrap
        start = int(np.searchsorted(x, qs[0], side))
        c = start + cap
        if c < n:
            j = i + int(np.searchsorted(qs, x[c], other))
        stop = int(np.searchsorted(x, qs[j - i - 1], side))
        size = j - i + stop - start
        merged = keys[:size]
        np.add(x[start:stop], 0.0, out=merged[j - i :].view(np.float64))
        merged <<= 1
        merged[: j - i] |= q_tag
        merged[j - i :] |= x_tag
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


def _merge_buffers(size):
    """The keys, is_query and steps buffers of merges capped at size."""
    return np.empty(2 * size, np.uint64), np.empty(2 * size, bool), np.arange(size)


# the most points whose window ends, positions 0..n, an int32 holds
MAX_INTERVAL_POINTS = np.iinfo(np.int32).max


def check_interval_size(n):
    """Reject a d=1 cloud of more points than MAX_INTERVAL_POINTS: its window
    ends would wrap in the int32 rows of IntervalLaplacian."""
    if n > MAX_INTERVAL_POINTS:
        raise ValueError(
            f"n={n} exceeds {MAX_INTERVAL_POINTS}, the most points IntervalLaplacian indexes"
        )


class IntervalLaplacian:
    """Matrix-free d=1 indicator-kernel Laplacian on sorted points, given
    as a 1-D array of coordinates or an (n, 1) cloud.

    Every neighborhood {j : torus_dist(x_i, x_j) < eps} is a cyclic window in
    sorted order, so W u reduces to windowed prefix sums.  Signals are indexed
    in sorted-coordinate order.  The operator keeps 16 bytes per point: x,
    and the int32 window ends as the two rows of one (2, n) block; a
    window's neighbor count is derived from its ends where it is needed
    (`_span_counts`).  Construction and apply work in blocks of BLOCK = 2^16
    points, shared by the CPUs this process may run on (`blocks.run_blocks`),
    so an apply holds no other n-length array than u, the prefix sums and its
    result: 32 bytes per point with the operator when it writes into u
    (apply(u, out=u)), 40 with a separate result.  Every worker holds its
    own buffers for BLOCK // WORKERS points, so all of them together take
    what one serial block does: about 34 * BLOCK bytes (2.2 MB) in the
    construction, 16 * BLOCK (1 MB) in an apply.  The window ends of a
    block are found in O(BLOCK) by merging its shifted coordinates, at most
    two ascending runs, into the sorted points (`_merge_searchsorted`), not
    by one binary search per point.
    """

    def __init__(self, points, eps):
        check_eps(eps)
        x = np.asarray(points, dtype=float)
        if x.shape not in ((x.size,), (x.size, 1)):
            raise ValueError(f"points must be a 1-D or an (n, 1) array, got shape {x.shape}")
        check_interval_size(x.size)
        x = np.sort(x.reshape(-1))
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
        # one (2, n) allocation, not two: from n = 2^19 on it reaches the
        # 4 MiB at which NumPy asks for huge pages, which an array of n
        # int32 reaches only from 2^20
        self._lo_rem, self._hi_rem = np.empty((2, n), np.int32)
        # x_i - eps < 0 for i < _below_end, x_i + eps >= 1 for i >= _above_start
        self._below_end = bisect_left(x, True, key=lambda v: v - eps >= 0.0)
        self._above_start = bisect_left(x, True, key=lambda v: v + eps >= 1.0)
        run_blocks(n, self._init_span, _merge_buffers)

    def _wrap_ends(self, a, b):
        """Ends of the wrapped prefix and suffix, relative to the span [a, b)."""
        below = min(max(self._below_end - a, 0), b - a)
        above = min(max(self._above_start - a, 0), b - a)
        return below, above

    def _wrap_regions(self, a, b):
        """(first, last, k) for the span [a, b): its windows wrap once before
        first and from last on, and k times between them, 2 where the prefix
        and the suffix overlap, else 0."""
        below, above = self._wrap_ends(a, b)
        first, last = sorted((below, above))
        return first, last, 2 if above < below else 0

    def _init_span(self, a, b, work):
        x, eps = self.x, self.eps
        lo, hi = self._lo_rem[a:b], self._hi_rem[a:b]
        below, above = self._wrap_ends(a, b)
        _merge_searchsorted(x, x[a : a + below], -eps, 1.0, "right", lo[:below], *work)
        _merge_searchsorted(x, x[a + below : b], -eps, 0.0, "right", lo[below:], *work)
        _merge_searchsorted(x, x[a : a + above], eps, 0.0, "left", hi[:above], *work)
        _merge_searchsorted(x, x[a + above : b], eps, -1.0, "left", hi[above:], *work)

    def _span_counts(self, a, b, out, regions):
        """The neighbor counts of the points [a, b), whose _wrap_regions are
        regions, written into out (float64 or int64) and returned: a window
        holds hi - lo + n * wraps points, the point itself once.  Every count
        is exact in float64 too."""
        n = self.n
        first, last, k = regions
        np.subtract(self._hi_rem[a:b], self._lo_rem[a:b], out=out)
        out[:first] += n - 1
        out[first:last] += k * n - 1
        out[last:] += n - 1
        return out

    @property
    def degrees(self):
        """sum_j W_ij with W = 1/eps per neighbor, computed on each access."""
        n = self.n
        degrees = self._span_counts(0, n, np.empty(n), self._wrap_regions(0, n))
        degrees /= self.eps
        return degrees

    def neighbor_counts(self):
        n = self.n
        return self._span_counts(0, n, np.empty(n, np.int64), self._wrap_regions(0, n))

    def apply(self, u, out=None):
        """(2/(n eps^2)) (D - W) u in sorted order, written into out if given
        (u itself allowed)."""
        u, out = _signal_and_out(self.n, u, out)
        # window sums from prefix sums, complete before any span runs, then
        # every pass block by block in two span buffers.  Each span reads
        # its u[a:b] before it writes out[a:b], so out may be u.  take
        # copies each int32 index block to intp; mode="clip" lets it write
        # into the buffer directly, which mode="raise" would buffer
        n, eps = self.n, self.eps
        cum = np.empty(n + 1)
        cum[0] = 0.0
        np.cumsum(u, out=cum[1:])
        total = cum[-1]
        scale = 2.0 / (n * eps**2)

        def apply_span(a, b, work):
            w, t, ub = work[0, : b - a], work[1, : b - a], u[a:b]
            cum.take(self._hi_rem[a:b], out=w, mode="clip")
            cum.take(self._lo_rem[a:b], out=t, mode="clip")
            w -= t
            # + wraps * total: once on the prefix and the suffix of wrapped
            # windows, 0 * total between them, or 2 * total where they overlap
            first, last, k = regions = self._wrap_regions(a, b)
            w[:first] += total
            w[first:last] += k * total
            w[last:] += total
            w -= ub  # exclude self
            w /= eps  # W u
            # the degrees, from counts written into t: a separate int32
            # buffer is fresh memory, whose page faults cost more per apply
            self._span_counts(a, b, t, regions)
            t /= eps
            t *= ub
            o = out[a:b]
            np.subtract(t, w, out=o)
            o *= scale

        run_blocks(n, apply_span, _span_buffers)
        return out


def _span_buffers(size):
    """The two work buffers of an apply span of at most size points."""
    return np.empty((2, size))
