"""Graph construction, matrix-free Laplacian application, and energies."""

import math
import os
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from polylap import blocks
from polylap import graph as graph_module
from polylap.geometry import (
    INDICATOR,
    PLATEAU,
    UNIFORM,
    KernelProfile,
    make_rng,
    sample_cloud,
    torus_distance,
)
from polylap.blocks import BLOCK
from polylap.graph import (
    MAX_INTERVAL_POINTS,
    IntervalLaplacian,
    apply_poly_laplacian,
    build_graph,
    degree_statistics,
    dense_spectrum,
    dirichlet_energy,
    inner_mu_n,
    l2_mu_n,
)


def two_point_graph():
    return build_graph(np.array([[0.0], [0.1]]), 0.2, INDICATOR)


def brute_force_edges(points, eps, kernel, d, block=256):
    """All-pairs reference edge set with weights, a block of rows at a time:
    every pair i < j with torus distance < eps and positive weight."""
    points = np.asarray(points, dtype=float)
    n = len(points)
    edges = {}
    for start in range(0, n, block):
        rows = np.arange(start, min(start + block, n))
        dist = torus_distance(points[rows, None, :], points[None, :, :])
        i, j = np.nonzero((dist < eps) & (np.arange(n) > rows[:, None]))
        w = kernel.eval(dist[i, j] / eps) * eps ** (-d)
        keep = w > 0.0
        for a, b, wv in zip(rows[i[keep]], j[keep], w[keep]):
            edges[(int(a), int(b))] = float(wv)
    return edges


def stored_edges(graph):
    edges = {}
    for i in range(graph.n):
        for p in range(graph.indptr[i], graph.indptr[i + 1]):
            j = int(graph.indices[p])
            if j > i:
                edges[(i, j)] = float(graph.weights[p])
    return edges


def dense_laplacian(graph):
    w = sp.csr_matrix(
        (graph.weights, graph.indices, graph.indptr), shape=(graph.n, graph.n)
    ).toarray()
    return 2.0 / (graph.n * graph.eps**2) * (np.diag(graph.degrees) - w)


def sum_formula_distance(x, y):
    """The torus metric as first written: one np.sum over the coordinate axis."""
    diff = np.abs(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))
    diff = np.minimum(diff, 1.0 - diff)
    return np.sqrt(np.sum(diff * diff, axis=-1))


def coo_assembly(points, eps, kernel):
    """W and its row sums as build_graph assembled them before the sorted
    keys: (m, d) row gathers, the summed metric, a COO matrix of both
    directions, tocsr and sort_indices."""
    n, d = points.shape
    pairs = cKDTree(points, boxsize=1.0).query_pairs(eps * (1 + 1e-12), output_type="ndarray")
    i, j = pairs[:, 0], pairs[:, 1]
    dist = sum_formula_distance(points[i], points[j])
    w = kernel.eval(dist / eps) * eps ** (-d)
    keep = (dist < eps) & (w > 0.0)
    i, j, w = i[keep], j[keep], w[keep]
    coo = sp.coo_matrix(
        (np.concatenate([w, w]), (np.concatenate([i, j]), np.concatenate([j, i]))),
        shape=(n, n),
    )
    csr = coo.tocsr()
    csr.sort_indices()
    return csr, csr @ np.ones(n)


def assert_csr_matches_coo_assembly(points, eps, kernel=INDICATOR):
    # build_graph gets the points as they are, float32 included; the
    # oracle their exact float64 values
    points = np.asarray(points)
    g = build_graph(points, eps, kernel)
    ref, ref_degrees = coo_assembly(points.astype(float), eps, kernel)
    for got, want in [(g.indptr, ref.indptr), (g.indices, ref.indices)]:
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert_bitwise(g.weights, ref.data)
    assert_bitwise(g.degrees, ref_degrees)
    # the canonical-format flag is true: sorting and merging a copy that
    # does not carry it changes nothing
    copy = sp.csr_matrix((g.weights.copy(), g.indices.copy(), g.indptr.copy()), shape=g.w.shape)
    copy.sort_indices()
    copy.sum_duplicates()
    assert g.w.has_sorted_indices and g.w.has_canonical_format
    assert np.array_equal(copy.indptr, g.indptr) and np.array_equal(copy.indices, g.indices)
    assert_bitwise(copy.data, g.weights)
    return g


class TestAvailableCpus:
    def test_affinity_mask_over_cpu_count(self, monkeypatch):
        # as under taskset -c 0 on a two-CPU host
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert blocks.available_cpus() == 1

    @pytest.mark.parametrize("count, cpus", [(3, 3), (None, 1)])
    def test_cpu_count_without_affinity(self, monkeypatch, count, cpus):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert blocks.available_cpus() == cpus


class TestBuildGraph:
    def test_three_point_hand_example(self):
        g = build_graph(np.array([[0.0], [0.1], [0.5]]), 0.2, INDICATOR)
        assert stored_edges(g) == {(0, 1): pytest.approx(5.0, rel=1e-15)}
        assert g.edge_count == 1

    def test_empty_graph(self):
        g = build_graph(np.array([[0.0], [0.5]]), 0.1, INDICATOR)
        assert g.edge_count == 0
        assert np.all(g.degrees == 0.0)
        assert degree_statistics(g) == (0.0, 0.0, 0)

    def test_eps_validation(self):
        # a NaN eps once built a graph with no edges
        cloud = sample_cloud(UNIFORM, 10, 1, 0)
        for eps in (0.0, 0.6, np.nan):
            with pytest.raises(ValueError, match=r"must lie in \(0, 1/2\]"):
                build_graph(cloud, eps)

    def test_points_not_a_cloud(self):
        # a 1-D array once failed with "not enough values to unpack"
        with pytest.raises(ValueError, match=r"^points must be an \(n, d\) array"):
            build_graph(np.array([0.1, 0.2, 0.5]), 0.2)

    def test_nested_list_matches_array(self):
        # a list of rows once failed with "'list' object has no attribute 'min'"
        cloud = sample_cloud(UNIFORM, 200, 2, 0)
        from_list, from_array = build_graph(cloud.tolist(), 0.2), build_graph(cloud, 0.2)
        for field in ("indptr", "indices", "weights"):
            a, b = getattr(from_list, field), getattr(from_array, field)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("bad", [-0.2, 1.0, 1.7, np.nan, np.inf, -np.inf])
    def test_points_outside_unit_torus(self, bad):
        pts = sample_cloud(UNIFORM, 10, 2, 0).copy()
        pts[3, 1] = bad
        with pytest.raises(ValueError, match=r"\[0,1\)"):
            build_graph(pts, 0.2)
        with pytest.raises(ValueError, match=r"\[0,1\)"):
            IntervalLaplacian(pts[:, 1], 0.2)

    def test_invariants(self):
        g = build_graph(sample_cloud(UNIFORM, 200, 2, 5), 0.15, PLATEAU)
        w = sp.csr_matrix((g.weights, g.indices, g.indptr), shape=(g.n, g.n))
        # no diagonal, exact symmetry, degrees equal row sums
        assert w.diagonal().max() == 0.0
        assert (w != w.T).nnz == 0
        with pytest.raises(ValueError):
            g.weights[0] = 1.0  # W is stored once; the views are read-only
        rows = np.asarray(w.sum(axis=1)).reshape(-1)
        assert np.allclose(rows, g.degrees, rtol=1e-12, atol=0)
        # every stored edge is inside the radius
        pts = sample_cloud(UNIFORM, 200, 2, 5)
        for (i, j), _ in stored_edges(g).items():
            assert torus_distance(pts[i], pts[j]) < g.eps

    def test_brute_force_equality_2000_points(self):
        cloud = sample_cloud(UNIFORM, 2000, 2, 9)
        g = build_graph(cloud, 0.1, INDICATOR)
        ref = brute_force_edges(cloud, 0.1, INDICATOR, 2)
        got = stored_edges(g)
        assert set(got) == set(ref)
        for k in ref:
            assert got[k] == pytest.approx(ref[k], rel=1e-14)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_brute_force_random_instances(self, d, stream):
        # 20 instances total across dimensions; varied eps and kernels
        kernels = [INDICATOR, PLATEAU]
        cases = 7 if d < 3 else 6
        for case in range(cases):
            rng = stream(100 + d, case)
            n = int(rng.integers(30, 120))
            eps = float(rng.uniform(0.05, 0.5))
            kernel = kernels[case % 2]
            cloud = sample_cloud(UNIFORM, n, d, int(rng.integers(0, 2**31)))
            g = build_graph(cloud, eps, kernel)
            ref = brute_force_edges(cloud, eps, kernel, d)
            got = stored_edges(g)
            assert set(got) == set(ref), (d, case)
            for k in ref:
                assert got[k] == pytest.approx(ref[k], rel=1e-13)

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        d=st.integers(1, 3),
        eps_64ths=st.integers(1, 32),
        kernel=st.sampled_from([INDICATOR, PLATEAU]),
    )
    def test_brute_force_on_grid_points(self, data, d, eps_64ths, kernel):
        # grid points and eps in multiples of 1/64 put pairs exactly at
        # distance eps, also across the wrap; none of them may be an edge
        cells = data.draw(st.lists(
            st.tuples(*[st.integers(0, 63)] * d), min_size=1, max_size=40
        ))
        points = np.array(cells, dtype=float) / 64.0
        eps = eps_64ths / 64.0
        g = assert_csr_matches_coo_assembly(points, eps, kernel)
        ref = brute_force_edges(points, eps, kernel, d)
        got = stored_edges(g)
        assert set(got) == set(ref)
        for k in ref:
            assert got[k] == pytest.approx(ref[k], rel=1e-14)

    def test_duplicate_points_legal(self):
        g = build_graph(np.array([[0.3], [0.3]]), 0.1, INDICATOR)
        assert stored_edges(g) == {(0, 1): pytest.approx(10.0)}


class TestCellGrid:
    """The cell grid that proposes build_graph's candidate pairs, against
    the all-pairs reference and the cKDTree + COO assembly."""

    @pytest.mark.parametrize("n, d, eps, m", [
        (1000, 2, 0.125, 15),  # 2/eps = 16 cells would be exactly eps/2 wide
        (1000, 1, 0.25, 7),
        (1000, 2, 0.02, 31),  # at most n cells
        (2**21, 1, 1e-9, graph_module.MAX_CELLS_PER_AXIS),
        (1000, 3, 0.39, 5),
        (1000, 2, 0.4, 1),  # fewer than 5 cells per axis: one cell
        (1000, 3, 0.4000001, 1),
        (624, 4, 0.05, 1),  # n < 5^d
        (625, 4, 0.05, 5),
        (1, 1, 0.01, 1),
    ])
    def test_cells_per_axis(self, n, d, eps, m):
        assert graph_module._cells_per_axis(n, d, eps) == m

    @settings(max_examples=150, deadline=None)
    @given(
        d=st.integers(1, 4),
        n=st.integers(1, 800),
        eps=st.one_of(
            st.sampled_from([0.125, 0.25]),  # 2/eps an integer
            st.floats(0.4, 0.5, exclude_min=True),  # one cell
            st.floats(0.01, 0.5),
        ),
        kernel=st.sampled_from([INDICATOR, PLATEAU]),
        on_edges=st.floats(0.0, 1.0),
        duplicates=st.floats(0.0, 0.5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_brute_force(self, d, n, eps, kernel, on_edges, duplicates, seed):
        # a share of the coordinates on the grid's own cell edges k/m or
        # one ulp either side, and a share of the points copies of others
        rng = np.random.default_rng(seed)
        n = min(n, 5**d + 150)
        m = graph_module._cells_per_axis(n, d, eps)
        edges = np.arange(m) / m
        pool = np.concatenate([edges, np.nextafter(edges[1:], 0.0), np.nextafter(edges, 1.0)])
        points = rng.random((n, d))
        snap = rng.random((n, d)) < on_edges
        points[snap] = rng.choice(pool, snap.sum())
        copy = rng.random(n) < duplicates
        points[copy] = points[rng.integers(0, n, copy.sum())]
        g = assert_csr_matches_coo_assembly(points, eps, kernel)
        ref = brute_force_edges(points, eps, kernel, d)
        got = stored_edges(g)
        assert set(got) == set(ref)
        for k in ref:
            assert got[k] == pytest.approx(ref[k], rel=1e-14)


class TestSortedAssembly:
    """build_graph's CSR, born sorted from row-major keys, against the COO
    assembly it replaced: the same bits, index order and dtypes (grid points
    at exactly eps are checked in test_brute_force_on_grid_points)."""

    @pytest.mark.parametrize("kernel", [INDICATOR, PLATEAU], ids=["indicator", "plateau"])
    @pytest.mark.parametrize("d, n", [(1, 600), (2, 500), (3, 400), (4, 700), (5, 3200)])
    def test_random_clouds(self, d, n, kernel):
        for seed, eps in enumerate([0.02, 0.11, 0.3, 0.5]):
            g = assert_csr_matches_coo_assembly(sample_cloud(UNIFORM, n, d, 80 + seed), eps, kernel)
            assert g.edge_count > 0 or eps == 0.02

    @pytest.mark.parametrize("points, eps", [
        ([[0.3], [0.3], [0.3], [0.7]], 0.1),  # duplicate points
        ([[0.25, 0.5], [0.25, 0.5], [0.75, 0.5]], 0.5),
        ([[0.4]], 0.5),  # n = 1
        ([[0.1, 0.2, 0.3]], 0.2),
        ([[0.0], [0.5]], 0.5),  # n = 2 at exactly eps
        ([[0.0, 0.0], [0.99, 0.01]], 0.5),  # n = 2 across the wrap
        ([[0.0, 0.0], [0.5, 0.5], [0.0, 0.5], [0.5, 0.0]], 0.25),  # no edges
        # torus distance one ulp below eps: the plateau's smallest weight
        ([[0.0], [np.nextafter(0.25, 0.0)]], 0.25),
    ], ids=["duplicates", "duplicates-half", "n1-d1", "n1-d3", "n2-at-eps", "n2-wrap",
            "edgeless", "n2-below-eps"])
    def test_small_clouds(self, points, eps):
        assert_csr_matches_coo_assembly(points, eps, PLATEAU)
        g = assert_csr_matches_coo_assembly(points, eps)
        assert g.indptr.dtype == g.indices.dtype == np.int32

    @pytest.mark.parametrize("kernel", [INDICATOR, PLATEAU], ids=["indicator", "plateau"])
    @pytest.mark.parametrize("d, n", [(1, 600), (2, 500), (3, 400), (4, 700)])
    def test_float32_clouds(self, d, n, kernel, stream):
        # the grid measures float32 clouds in float64, as the oracle does
        for seed, eps in enumerate([0.02, 0.11, 0.3, 0.5]):
            points = stream(90 + seed).random((n, d), dtype=np.float32)
            g = assert_csr_matches_coo_assembly(points, eps, kernel)
            assert g.edge_count > 0 or eps == 0.02

    # traced peak bytes per undirected edge of one build: keys sorted in
    # place measured 54.8 (d = 2) and 34.3 (d = 3) with the indicator, 54.8
    # and 38.7 with the plateau's chunked weights (unchunked 137 and 168);
    # an argsort of the keys 63 and 49, the cKDTree candidates with the
    # sorted assembly 65 and 81, and with the COO assembly 105 and 120
    @pytest.mark.parametrize("n, d, eps, kind, budget", [
        (3400, 2, 0.05, "indicator", 60),
        (3400, 2, 0.05, "plateau", 60),
        (5200, 3, 0.125, "indicator", 38),
        (5200, 3, 0.125, "plateau", 43),
    ])
    def test_memory_budget(self, traced_peak, check_peak, n, d, eps, kind, budget):
        points = sample_cloud(UNIFORM, n, d, 0)
        g, peak = traced_peak(build_graph, points, eps, KernelProfile(kind))
        check_peak(peak, g.edge_count, budget, unit="edge")


class TestApplyLaplacian:
    def test_constant_in_nullspace(self):
        g = build_graph(sample_cloud(UNIFORM, 150, 1, 3), 0.1)
        out = g.apply(np.full(150, 3.7))
        assert np.max(np.abs(out)) < 1e-12 * 150

    def test_two_point_hand_values(self):
        g = two_point_graph()
        assert g.apply(np.array([1.0, 0.0])) == pytest.approx([125.0, -125.0])

    def test_linearity(self):
        g = build_graph(sample_cloud(UNIFORM, 100, 2, 8), 0.2)
        rng = make_rng(17)
        u, w = rng.standard_normal(100), rng.standard_normal(100)
        lhs = g.apply(2.0 * u - 3.0 * w)
        rhs = 2.0 * g.apply(u) - 3.0 * g.apply(w)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            two_point_graph().apply(np.zeros(3))

    def test_matches_dense_matrix(self, stream):
        for seed, d in [(1, 1), (2, 2)]:
            n = 250
            g = build_graph(sample_cloud(UNIFORM, n, d, seed), 0.15)
            lap = dense_laplacian(g)
            u = stream(seed, 1).standard_normal(n)
            assert np.allclose(g.apply(u), lap @ u, atol=1e-12 * n)

    def test_symmetry_and_psd(self):
        g = build_graph(sample_cloud(UNIFORM, 120, 1, 21), 0.1)
        rng = make_rng(22)
        for _ in range(100):
            u, w = rng.standard_normal(120), rng.standard_normal(120)
            lu, lw = g.apply(u), g.apply(w)
            a, b = inner_mu_n(lu, w), inner_mu_n(u, lw)
            assert a == pytest.approx(b, rel=1e-11, abs=1e-11)
            assert inner_mu_n(lu, u) >= -1e-10 * l2_mu_n(u) ** 2


class TestPolyLaplacian:
    def test_s1_matches_single_apply(self):
        g = build_graph(sample_cloud(UNIFORM, 80, 1, 2), 0.2)
        u = make_rng(5).standard_normal(80)
        assert np.array_equal(apply_poly_laplacian(g, u, 1), g.apply(u))

    def test_two_point_square(self):
        out = apply_poly_laplacian(two_point_graph(), np.array([1.0, 0.0]), 2)
        assert out == pytest.approx([31250.0, -31250.0])

    def test_s0_identity_and_negative_error(self):
        g = two_point_graph()
        u = np.array([1.0, 2.0])
        assert np.array_equal(apply_poly_laplacian(g, u, 0), u)
        for s in (-1, 1.5, math.nan):  # 1.5 once raised a TypeError from range()
            with pytest.raises(ValueError, match="s must be >= 1|integer s >= 1"):
                apply_poly_laplacian(g, u, s)

    def test_constant_nullspace_any_power(self):
        g = build_graph(sample_cloud(UNIFORM, 60, 1, 6), 0.2)
        for s in (1, 2, 3):
            assert np.max(np.abs(apply_poly_laplacian(g, np.ones(60), s))) < 1e-9


class TestDirichletEnergy:
    def test_double_sum_identity(self):
        g = build_graph(sample_cloud(UNIFORM, 200, 1, 13), 0.1)
        u = make_rng(14).standard_normal(200)
        # (1/(n^2 eps^2)) sum_ij W_ij (u_i - u_j)^2
        w = sp.csr_matrix((g.weights, g.indices, g.indptr), shape=(g.n, g.n)).toarray()
        diff2 = (u[:, None] - u[None, :]) ** 2
        explicit = float(np.sum(w * diff2)) / (g.n**2 * g.eps**2)
        assert dirichlet_energy(g, u, 1) == pytest.approx(explicit, rel=1e-10)

    def test_constant_zero(self):
        g = build_graph(sample_cloud(UNIFORM, 50, 1, 1), 0.2)
        assert dirichlet_energy(g, np.full(50, 2.0), 1) == pytest.approx(0.0, abs=1e-12)

    def test_s2_is_norm_of_laplacian(self):
        g = build_graph(sample_cloud(UNIFORM, 120, 1, 19), 0.15)
        u = make_rng(20).standard_normal(120)
        assert dirichlet_energy(g, u, 2) == pytest.approx(
            l2_mu_n(g.apply(u)) ** 2, rel=1e-12
        )

    def test_nonnegative(self):
        g = build_graph(sample_cloud(UNIFORM, 80, 2, 23), 0.2)
        rng = make_rng(24)
        for s in (1, 2, 3):
            for _ in range(10):
                u = rng.standard_normal(80)
                assert dirichlet_energy(g, u, s) >= -1e-10 * l2_mu_n(u) ** 2

    def test_invalid_s(self):
        with pytest.raises(ValueError):
            dirichlet_energy(two_point_graph(), np.zeros(2), 0)

    def test_matches_two_sided_form_with_fewer_applies(self, monkeypatch):
        # <Delta^ceil(s/2) u, Delta^floor(s/2) u> bitwise, from ceil(s/2)
        # applies: the odd power is one more apply of the even one
        ops = [
            build_graph(sample_cloud(UNIFORM, 150, 2, 31), 0.2),
            build_graph(sample_cloud(UNIFORM, 200, 3, 32), 0.3, PLATEAU),
            IntervalLaplacian(sample_cloud(UNIFORM, 300, 1, 33)[:, 0], 0.1),
        ]
        calls = []
        for cls in {type(op) for op in ops}:
            monkeypatch.setattr(
                cls, "apply",
                lambda *args, f=cls.apply, **kwargs: calls.append(1) or f(*args, **kwargs),
            )
        for k, op in enumerate(ops):
            u = make_rng(34 + k).standard_normal(op.n)
            for s in (1, 2, 3, 4):
                hi = apply_poly_laplacian(op, u, (s + 1) // 2)
                lo = apply_poly_laplacian(op, u, s // 2)
                calls.clear()
                assert dirichlet_energy(op, u, s) == inner_mu_n(hi, lo)
                assert len(calls) == (s + 1) // 2


class TestDenseSpectrum:
    def test_two_point_eigenvalues(self):
        vals, vecs = dense_spectrum(two_point_graph())
        assert vals == pytest.approx([0.0, 250.0], abs=1e-10)

    def test_nullspace_constant_eigenvector(self):
        g = build_graph(sample_cloud(UNIFORM, 100, 1, 41), 0.3)
        vals, vecs = dense_spectrum(g)
        assert abs(vals[0]) < 1e-9
        v0 = vecs[:, 0]
        assert np.max(np.abs(v0 - v0.mean())) < 1e-8

    def test_mu_n_orthonormality(self):
        g = build_graph(sample_cloud(UNIFORM, 150, 1, 43), 0.2)
        _, vecs = dense_spectrum(g)
        gram = vecs.T @ vecs / g.n
        assert np.max(np.abs(gram - np.eye(g.n))) < 1e-8

    def test_spectral_energy_matches_dirichlet(self):
        g = build_graph(sample_cloud(UNIFORM, 120, 1, 47), 0.2)
        vals, vecs = dense_spectrum(g)
        u = make_rng(48).standard_normal(120)
        coeffs = vecs.T @ u / g.n
        spectral = float(np.sum(np.clip(vals, 0, None) * coeffs**2))
        assert spectral == pytest.approx(dirichlet_energy(g, u, 1), abs=1e-8)

    @pytest.mark.parametrize(
        "d, eps, kernel", [(1, 0.2, INDICATOR), (2, 0.3, PLATEAU), (3, 0.4, INDICATOR)]
    )
    def test_matches_eigh_of_assembled_matrix(self, d, eps, kernel):
        # the columns of apply(e_j) reproduce (2/(n eps^2)) (D - W) bit for bit
        g = build_graph(sample_cloud(UNIFORM, 150, d, 44), eps, kernel)
        vals, vecs = np.linalg.eigh(dense_laplacian(g))
        got_vals, got_vecs = dense_spectrum(g)
        assert np.array_equal(got_vals, vals)
        assert np.array_equal(got_vecs, vecs * np.sqrt(g.n))

    @pytest.mark.parametrize("eps", [0.03, 0.2, 0.5])
    def test_interval_matches_explicit(self, eps):
        cloud = sample_cloud(UNIFORM, 200, 1, 45)
        vals, _ = dense_spectrum(IntervalLaplacian(cloud[:, 0], eps))
        ref, _ = dense_spectrum(build_graph(cloud, eps))
        assert np.max(np.abs(vals - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_threshold_error(self):
        g = build_graph(sample_cloud(UNIFORM, 600, 1, 49), 0.05)
        with pytest.raises(ValueError, match="matrix-free"):
            dense_spectrum(g)


class TestDegreeStatistics:
    def test_two_point(self):
        assert degree_statistics(two_point_graph()) == (2.5, 2.5, 1)

    def test_uniform_concentration_band(self):
        g = build_graph(sample_cloud(UNIFORM, 10_000, 1, 51), 0.05)
        mn, mx, _ = degree_statistics(g)
        assert 1.0 <= mn and mx <= 3.0


class TestIntervalLaplacian:
    @pytest.mark.parametrize("eps", [0.01, 0.07, 0.2, 0.45, 0.5])
    def test_matches_explicit_graph(self, eps):
        n = 300
        cloud = sample_cloud(UNIFORM, n, 1, 61)
        g = build_graph(cloud, eps, INDICATOR)
        order = np.argsort(cloud[:, 0])
        il = IntervalLaplacian(cloud[:, 0], eps)
        u = make_rng(62).standard_normal(n)
        assert np.allclose(il.apply(u[order]), g.apply(u)[order], atol=1e-9)
        assert np.allclose(il.degrees, g.degrees[order], atol=1e-9)
        assert np.array_equal(il.neighbor_counts(), g.neighbor_counts()[order])

    def test_point_shapes(self):
        # an (n, 2) cloud once became a 2n-point operator on its flattened
        # coordinates
        cloud = sample_cloud(UNIFORM, 50, 1, 64)
        assert np.array_equal(IntervalLaplacian(cloud, 0.1).x, np.sort(cloud[:, 0]))
        for shape in [(50, 2), (50, 1, 1), (2, 25), ()]:
            with pytest.raises(ValueError, match=r"^points must be a 1-D or an \(n, 1\) array"):
                IntervalLaplacian(np.full(shape, 0.25), 0.1)

    def test_constant_nullspace(self):
        il = IntervalLaplacian(sample_cloud(UNIFORM, 500, 1, 63)[:, 0], 0.1)
        assert np.max(np.abs(il.apply(np.ones(500)))) < 1e-10

    def test_validation(self):
        with pytest.raises(ValueError):
            IntervalLaplacian([0.1, 0.2], 0.6)
        # a NaN eps once joined every pair of points
        with pytest.raises(ValueError, match=r"eps=nan must lie in \(0, 1/2\]"):
            IntervalLaplacian([0.1, 0.2], np.nan)
        with pytest.raises(ValueError):
            IntervalLaplacian([], 0.1)


class IntervalReference:
    """IntervalLaplacian as first written: full-length searches, int8 wrap
    counts, int64 neighbor counts, stored float64 degrees and a temporary
    per step of the apply."""

    def __init__(self, x, eps):
        x = np.sort(np.asarray(x, dtype=float))
        n = x.size
        v = x - eps
        below = v < 0.0
        v[below] += 1.0
        self.lo = np.searchsorted(x, v, side="right")
        w = x + eps
        above = w >= 1.0
        w[above] -= 1.0
        self.hi = np.searchsorted(x, w, side="left")
        self.wraps = (np.where(above, 2, 1) - np.where(below, 0, 1)).astype(np.int8)
        self.counts = self.hi - self.lo + self.wraps.astype(np.int64) * n - 1
        self.degrees = self.counts / eps
        self.n, self.eps = n, eps

    def apply(self, u):
        cum = np.concatenate([[0.0], np.cumsum(u)])
        out = cum[self.hi] - cum[self.lo]
        out += self.wraps * cum[-1]
        wsum = (out - u) / self.eps
        scale = 2.0 / (self.n * self.eps**2)
        return scale * (self.degrees * u - wsum)


def assert_bitwise(got, ref):
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))


def assert_matches_reference(x, eps, signals, workers=(1, 2)):
    """IntervalLaplacian(x, eps) against the reference, bitwise, with each
    worker count of the block loops."""
    ref = IntervalReference(x, eps)
    for count in workers:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(blocks, "WORKERS", count)
            il = IntervalLaplacian(x, eps)
            assert np.array_equal(il._lo_rem, ref.lo) and np.array_equal(il._hi_rem, ref.hi)
            assert_bitwise(il.neighbor_counts(), ref.counts)
            assert_bitwise(il.degrees, ref.degrees)
            for u in signals:
                assert_bitwise(il.apply(u), ref.apply(u))
    return il, ref


# values where the bit-pattern keys could go wrong: signed zeros, the
# smallest subnormal, a tie-prone grid and the ends of [0, 1]
EDGE_VALUES = [0.0, -0.0, 5e-324, 1e-310, 0.25, 0.5, 1 - 2.0**-53, 1.0]
UNIT_FLOATS = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(0.0, 1.0))


class TestMergeSearchsorted:
    @settings(max_examples=300, deadline=None)
    @given(
        x=st.lists(UNIT_FLOATS, min_size=1, max_size=40),
        q=st.lists(UNIT_FLOATS, max_size=40),
        side=st.sampled_from(["left", "right"]),
        shift_wrap=st.sampled_from([(0.0, 0.0), (-0.0, 1.0), (0.25, 0.0), (0.25, -0.25)]),
        cap=st.integers(1, 9),
    )
    def test_matches_searchsorted(self, x, q, side, shift_wrap, cap):
        # a small cap splits the slices and query runs into many merges
        x, q = np.array(sorted(x)), np.array(sorted(q))
        shift, wrap = shift_wrap
        out = np.full(q.size, -1)
        work = graph_module._merge_buffers(cap)
        graph_module._merge_searchsorted(x, q, shift, wrap, side, out, *work)
        assert np.array_equal(out, np.searchsorted(x, (q + shift) + wrap, side))


# three full blocks and a partial one
N_BLOCKS = 3 * BLOCK + 17
# peak bytes per point of a d=1 operator build and apply, plus a fixed slack
# for block-sized work arrays
MEMORY_BUDGET = 41
MEMORY_SLACK = 32 * BLOCK


@pytest.fixture(scope="class")
def large_interval():
    """A 10^7-point d=1 operator and a signal with a constant mode, so the
    prefix sums grow to about n."""
    op = IntervalLaplacian(sample_cloud(UNIFORM, 10_000_000, 1, 90)[:, 0], 0.01)
    return op, 1.0 + np.sin(2 * np.pi * op.x)


class TestIntervalPrefixSumAccuracy:
    """apply against math.fsum over sampled windows, within the a-posteriori
    bound for recursive summation (Higham, The accuracy of floating-point
    summation, SIAM J. Sci. Comput. 1993): each prefix sum c_k is off by at
    most u * sum_{j <= k} |c_j|, with u the unit roundoff."""

    @pytest.mark.parametrize("s", [1, 2])
    def test_sampled_windows_within_bound(self, large_interval, s):
        op, u = large_interval
        v = u if s == 1 else op.apply(u)  # the input of the s-th apply
        got = op.apply(v)
        n, eps = op.n, op.eps
        unit = np.finfo(float).eps / 2
        cum = np.concatenate([[0.0], np.cumsum(v)])
        err_cum = unit * np.concatenate([[0.0], np.cumsum(np.abs(cum[1:]))])
        counts = op.neighbor_counts()
        gain = 2.0 / (n * eps**3)  # Delta v_i = gain * sum_j (v_i - v_j)
        picks = [0, 1, n // 2, n - 2, n - 1, BLOCK - 1, BLOCK, 7 * BLOCK]
        picks += make_rng(91).integers(0, n, 8).tolist()
        reach = int(3 * eps * n)  # three times the expected half-window
        worst = 0.0
        for i in picks:
            near = (i + np.arange(-reach, reach + 1)) % n
            window = near[torus_distance(op.x[i : i + 1], op.x[near, None]) < eps]
            assert window.size == counts[i] + 1
            ref = gain * math.fsum([v[i]] * counts[i] + (-v[window[window != i]]).tolist())
            lo, hi = op._lo_rem[i], op._hi_rem[i]
            wraps = (counts[i] + 1 - hi + lo) // n
            # the error of the prefix sums used, then the rounding of the later
            # passes: each is at most unit times its result, which is at most
            # size (times 1/eps, 2/eps or gain); then 1% for the bound's own
            # rounding, and the rounding of ref
            size = abs(cum[hi]) + abs(cum[lo]) + wraps * abs(cum[n]) + (counts[i] + 1) * abs(v[i])
            bound = gain * (err_cum[hi] + err_cum[lo] + wraps * err_cum[n] + 10 * unit * size)
            bound = 1.01 * bound + 2 * unit * abs(ref)
            assert abs(got[i] - ref) <= bound, (i, got[i], ref, bound)
            worst = max(worst, bound)
        # the bound is tight enough to say something at this n
        assert worst < 1e-3 * np.abs(got).max()


class TestIntervalApplyBitwise:
    @pytest.mark.parametrize("eps", [0.003, 0.05, 0.2, 0.45, 0.5])
    # ids that do not move with BLOCK
    @pytest.mark.parametrize("n", [1, 7, 1000, N_BLOCKS], ids=["1", "7", "1000", "3BLOCK+17"])
    def test_matches_reference(self, n, eps, stream):
        x = sample_cloud(UNIFORM, n, 1, 70 + n)[:, 0]
        rng = stream(71, n)
        signals = (rng.standard_normal(n), np.ones(n), np.zeros(n), rng.random(n) - 0.5)
        il, ref = assert_matches_reference(x, eps, signals)
        if n == N_BLOCKS and eps >= 0.45:
            # block boundaries inside both wrapped regions
            assert ref.wraps[BLOCK - 1] == ref.wraps[BLOCK] == 1
            assert ref.wraps[2 * BLOCK - 1] == ref.wraps[2 * BLOCK] == 1

    def test_more_workers_than_cpus(self):
        # eight threads that switch every microsecond share the span counter;
        # a span taken twice or never would leave a window end unwritten
        x = sample_cloud(UNIFORM, N_BLOCKS, 1, 80)[:, 0]
        signal = make_rng(81).standard_normal(N_BLOCKS)
        interval = sys.getswitchinterval()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(blocks, "_pool", None)
            sys.setswitchinterval(1e-6)
            try:
                assert_matches_reference(x, 0.05, [signal], workers=[8])
            finally:
                sys.setswitchinterval(interval)
                if blocks._pool is not None:  # the eight-worker pool
                    blocks._pool[1].shutdown()

    @pytest.mark.parametrize("eps", [1 / 64, 0.125, 0.3, 0.5])
    def test_grid_with_ties_across_blocks(self, eps):
        # 1/64-grid points: many equal coordinates, and pairs at distance
        # exactly eps, which the open window excludes
        x = make_rng(75).integers(0, 64, N_BLOCKS) / 64.0
        rng = make_rng(76)
        assert_matches_reference(x, eps, (rng.standard_normal(N_BLOCKS), -np.zeros(N_BLOCKS)))

    def test_wrapping_windows_covered(self):
        # points at both ends of the circle: windows cross 0 and 1
        x = np.array([0.0, 0.01, 0.02, 0.5, 0.97, 0.99, 0.999])
        _, ref = assert_matches_reference(x, 0.05, [make_rng(72).standard_normal(x.size)])
        assert np.any(ref.wraps == 1) and np.any(ref.wraps == 0)

    def test_overlapping_wraps_and_non_finite_signals(self):
        # at eps = 1/2, x + eps rounds up to 1 just below x = 1/2, so one
        # window wraps at both ends; non-finite sums must propagate the same
        x = np.array([0.0, 0.1, 0.25, 0.5 - 2**-54, 0.5 - 2**-53, 0.5, 0.75, 0.999])
        signals = [np.arange(8.0) - 3.3, np.full(8, 1e308)]
        signals += [np.where(np.arange(8) == 1, v, 1.0) for v in (np.inf, np.nan)]
        with np.errstate(invalid="ignore", over="ignore"):
            _, ref = assert_matches_reference(x, 0.5, signals)
        assert np.any(ref.wraps == 2)

    def test_overlapping_wraps_past_the_first_span(self):
        # the window of 0.5 - 2^-54 wraps at both ends (see above); among
        # 3 * BLOCK uniform points it sorts into the second block, so a span
        # that does not start at 0 derives the count of a twice-wrapped window
        x = np.concatenate([sample_cloud(UNIFORM, 3 * BLOCK, 1, 83)[:, 0],
                            [0.5 - 2**-54, 0.5 - 2**-53]])
        _, ref = assert_matches_reference(x, 0.5, [make_rng(84).standard_normal(x.size)])
        twice = np.flatnonzero(ref.wraps == 2)
        assert twice.size and twice.min() >= BLOCK

    def test_too_many_points(self):
        # a zero-stride view of 2^31 points, so nothing that size is made;
        # their window ends would wrap in int32
        x = np.broadcast_to(0.5, (MAX_INTERVAL_POINTS + 1,))
        with pytest.raises(ValueError, match=f"n={MAX_INTERVAL_POINTS + 1} exceeds"):
            IntervalLaplacian(x, 0.1)

    def test_non_finite_signals_keep_callers_errstate(self):
        # the pool threads run under the caller's NumPy error state: an inf
        # early in u makes every later prefix sum inf and inf - inf invalid
        x = sample_cloud(UNIFORM, N_BLOCKS, 1, 82)[:, 0]
        signals = [np.where(np.arange(N_BLOCKS) == k, np.inf, 1.0) for k in (5, 2 * BLOCK)]
        with np.errstate(invalid="ignore"):
            assert_matches_reference(x, 0.05, signals)

    def test_signed_zeros(self):
        # -0.0 equals +0.0 as a coordinate, and x - eps or x + eps - 1 is
        # exactly 0.0 at x = 1/4 and x = 3/4
        x = np.array([0.0, -0.0, 0.0, -0.0, 0.25, 0.5, 0.75, -0.0, 0.75, 0.25])
        _, ref = assert_matches_reference(x, 0.25, [np.arange(10.0)])
        assert ref.lo[np.sort(x) == 0.25].min() == 5  # all five zeros count

    @pytest.mark.parametrize("eps", [5e-324, 1e-310, 2.0**-53, 0.3, 0.5])
    def test_subnormal_and_top_coordinates(self, eps):
        x = np.array([5e-324, 1e-323, 1e-310, 2.0**-1022, 0.3, 1 - 2.0**-53, 1 - 2.0**-52])
        if eps < 1e-300:  # 1/eps overflows, so compare the windows and counts
            with np.errstate(over="ignore"):  # the reference's stored degrees
                il, ref = IntervalLaplacian(x, eps), IntervalReference(x, eps)
            assert np.array_equal(il._lo_rem, ref.lo) and np.array_equal(il._hi_rem, ref.hi)
            assert_bitwise(il.neighbor_counts(), ref.counts)
        else:
            assert_matches_reference(x, eps, [np.linspace(-1.0, 1.0, x.size)])

    def test_queries_rounding_to_zero_and_one(self):
        # just below x = eps, x - eps + 1 rounds to 1.0; at x = 0.9, x + eps
        # is 1.0, which wraps to 0.0
        eps = 0.1
        below_eps = np.nextafter(eps, 0.0)
        x = np.array([0.0, below_eps, eps, 0.5, np.nextafter(0.9, 0.0), 0.9, 1 - 2.0**-53])
        assert below_eps - eps + 1.0 == 1.0 and 0.9 + eps == 1.0
        _, ref = assert_matches_reference(x, eps, [np.cos(np.arange(7.0))])
        assert ref.lo[1] == x.size and ref.hi[5] == 0

    @pytest.mark.parametrize("x", [[0.3], [0.0, 0.5], [0.25, 0.75], [0.1, 0.1]], ids=str)
    def test_one_and_two_points_half_eps(self, x):
        assert_matches_reference(np.array(x), 0.5, [np.arange(1.0, len(x) + 1.0)])

    @pytest.mark.parametrize("eps", [1e-4, 0.01, 0.5])
    def test_clustered_cloud(self, eps):
        # the sparse points' windows reach into a cluster of many blocks
        rng = make_rng(79)
        x = np.concatenate([rng.random(N_BLOCKS) * 1e-3, rng.random(300), [0.0005] * 5000])
        assert_matches_reference(x, eps, [rng.standard_normal(x.size)])

    def test_memory_budget(self, traced_peak, check_peak):
        # init, then one apply, on its own copy of the points: the operator's
        # 16 B/pt, u, the prefix sums and the result, plus block-sized work
        # arrays (in all, 40 B/pt and about 16 * BLOCK bytes)
        n = 1_000_000
        x = sample_cloud(UNIFORM, n, 1, 77)[:, 0]

        def init_and_apply():
            op = IntervalLaplacian(x, 0.05)
            return op.apply(np.sin(2 * np.pi * op.x))

        for workers in (1, 2):  # the workers' buffers share one block's room
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(blocks, "WORKERS", workers)
                _, peak = traced_peak(init_and_apply)
            check_peak(peak, n, MEMORY_BUDGET, MEMORY_SLACK, f"{workers} workers")

    def test_memory_budget_clustered(self, traced_peak, check_peak):
        # 99% of the points in [0, 1e-3): the windows of the sparse points
        # reach into the cluster, whose slice the merge takes BLOCK points at
        # a time.  The init alone holds the operator's 16 B/pt and its
        # block-sized buffers (about 34 * BLOCK bytes, split among the
        # workers), whatever the density
        n = 1_000_000
        rng = make_rng(78)
        x = np.concatenate([rng.random(n - n // 100) * 1e-3, rng.random(n // 100)])

        def init_and_apply():
            op = IntervalLaplacian(x, 0.05)
            return op.apply(np.sin(2 * np.pi * op.x))

        for workers in (1, 2):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(blocks, "WORKERS", workers)
                _, init_peak = traced_peak(IntervalLaplacian, x, 0.05)
                _, peak = traced_peak(init_and_apply)
            check_peak(init_peak, n, 16, 48 * BLOCK, f"{workers} workers, init")
            check_peak(peak, n, MEMORY_BUDGET, MEMORY_SLACK, f"{workers} workers")

    def test_input_not_modified(self):
        u = make_rng(73).standard_normal(200)
        keep = u.copy()
        IntervalLaplacian(sample_cloud(UNIFORM, 200, 1, 74)[:, 0], 0.1).apply(u)
        assert np.array_equal(u, keep)



def assert_out_forms_agree(apply, u, ref):
    """apply(u), apply(u, out=buf) and apply(u, out=u) all bitwise ref; the
    first leaves u alone and the second returns buf."""
    keep = u.copy()
    assert_bitwise(apply(u), ref)
    assert_bitwise(u, keep)
    buf = np.full(u.size, np.nan)
    assert apply(u, out=buf) is buf
    assert_bitwise(buf, ref)
    assert_bitwise(u, keep)
    assert apply(u, out=u) is u
    assert_bitwise(u, ref)


def signed_zero_signal(rng, n):
    """Normal values with +0.0 and -0.0 sprinkled in."""
    u = rng.standard_normal(n)
    u[::5] = 0.0
    u[2::7] = -0.0
    return u


class TestApplyOut:
    """apply(u, out=None): the result written into out, u itself allowed,
    bitwise what a fresh call returns."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "n", [1, 7, BLOCK - 1, BLOCK + 1, N_BLOCKS],
        ids=["1", "7", "BLOCK-1", "BLOCK+1", "3BLOCK+17"],
    )
    def test_interval_in_place(self, n, workers, stream):
        rng = stream(90, n)
        # a 1/64 grid half of the time: equal coordinates across spans
        x = np.where(rng.random(n) < 0.5, rng.integers(0, 64, n) / 64.0, rng.random(n))
        ref = IntervalReference(x, 0.05)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(blocks, "WORKERS", workers)
            op = IntervalLaplacian(x, 0.05)
            for u in (signed_zero_signal(rng, n), -np.zeros(n)):
                assert_out_forms_agree(op.apply, u, ref.apply(u))

    @pytest.mark.parametrize("d", [1, 2])
    def test_explicit_in_place(self, d):
        g = build_graph(sample_cloud(UNIFORM, 300, d, 91), 0.15)
        u = signed_zero_signal(make_rng(92), 300)
        scale = 2.0 / (g.n * g.eps**2)
        # the formula of the fresh apply, written out
        ref = scale * (g.degrees * u - g.w @ u)
        assert_out_forms_agree(g.apply, u, ref)

    @pytest.mark.parametrize("s", [1, 2, 3])
    @pytest.mark.parametrize("form", ["explicit", "interval-1", "interval-2"])
    def test_poly_laplacian_in_place(self, form, s, stream):
        # apply_poly_laplacian(op, u, s, out) follows apply's protocol:
        # bitwise s fresh applies, whichever array it writes
        rng = stream(93, s)
        with pytest.MonkeyPatch.context() as mp:
            if form == "explicit":
                op = build_graph(sample_cloud(UNIFORM, 300, 2, 94), 0.15)
            else:
                mp.setattr(blocks, "WORKERS", int(form[-1]))
                op = IntervalLaplacian(rng.random(N_BLOCKS), 0.05)
            u = signed_zero_signal(rng, op.n)
            ref = u
            for _ in range(s):
                ref = op.apply(ref)
            assert_out_forms_agree(
                lambda v, out=None: apply_poly_laplacian(op, v, s, out=out), u, ref
            )

    @pytest.mark.parametrize("out", [
        np.empty(9), np.empty(10, np.float32), np.empty((10, 1)), np.empty(10, complex),
        [0.0] * 10,
    ], ids=["short", "float32", "column", "complex", "list"])
    def test_bad_out(self, out):
        ops = [
            build_graph(sample_cloud(UNIFORM, 10, 2, 95), 0.3),
            IntervalLaplacian(sample_cloud(UNIFORM, 10, 1, 96)[:, 0], 0.3),
        ]
        for op in ops:
            with pytest.raises(ValueError, match="out must be a float64 array of shape"):
                op.apply(np.ones(10), out=out)
