"""Graph construction, matrix-free Laplacian application, and energies."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from polylap.geometry import (
    INDICATOR,
    PLATEAU,
    UNIFORM,
    PointCloud,
    make_rng,
    sample_cloud,
    torus_distance,
)
from polylap.graph import (
    IntervalLaplacian,
    apply_laplacian,
    apply_poly_laplacian,
    build_graph,
    degree_statistics,
    dense_spectrum,
    dirichlet_energy,
    inner_mu_n,
    l2_mu_n,
    load_edgelist,
    operator_norm_estimate,
    save_edgelist,
)


def two_point_graph():
    cloud = PointCloud(np.array([[0.0], [0.1]]), UNIFORM, 0)
    return build_graph(cloud, 0.2, INDICATOR)


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


class TestBuildGraph:
    def test_three_point_hand_example(self):
        cloud = PointCloud(np.array([[0.0], [0.1], [0.5]]), UNIFORM, 0)
        g = build_graph(cloud, 0.2, INDICATOR)
        assert stored_edges(g) == {(0, 1): pytest.approx(5.0, rel=1e-15)}
        assert g.edge_count == 1

    def test_empty_graph(self):
        cloud = PointCloud(np.array([[0.0], [0.5]]), UNIFORM, 0)
        g = build_graph(cloud, 0.1, INDICATOR)
        assert g.edge_count == 0
        assert np.all(g.degrees == 0.0)
        assert degree_statistics(g) == (0.0, 0.0, 0)

    def test_eps_validation(self):
        cloud = sample_cloud(UNIFORM, 10, 1, 0)
        with pytest.raises(ValueError):
            build_graph(cloud, 0.0)
        with pytest.raises(ValueError):
            build_graph(cloud, 0.6)

    @pytest.mark.parametrize("bad", [-0.2, 1.0, 1.7, np.nan, np.inf, -np.inf])
    def test_points_outside_unit_torus(self, bad):
        pts = sample_cloud(UNIFORM, 10, 2, 0).points.copy()
        pts[3, 1] = bad
        with pytest.raises(ValueError, match=r"\[0,1\)"):
            build_graph(PointCloud(pts, UNIFORM, 0), 0.2)
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
        pts = sample_cloud(UNIFORM, 200, 2, 5).points
        for (i, j), _ in stored_edges(g).items():
            assert torus_distance(pts[i], pts[j]) < g.eps

    def test_brute_force_equality_2000_points(self):
        cloud = sample_cloud(UNIFORM, 2000, 2, 9)
        g = build_graph(cloud, 0.1, INDICATOR)
        ref = brute_force_edges(cloud.points, 0.1, INDICATOR, 2)
        got = stored_edges(g)
        assert set(got) == set(ref)
        for k in ref:
            assert got[k] == pytest.approx(ref[k], rel=1e-14)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_brute_force_random_instances(self, d):
        # 20 instances total across dimensions; varied eps and kernels
        kernels = [INDICATOR, PLATEAU]
        cases = 7 if d < 3 else 6
        for case in range(cases):
            rng = make_rng(100 + d, case)
            n = int(rng.integers(30, 120))
            eps = float(rng.uniform(0.05, 0.5))
            kernel = kernels[case % 2]
            cloud = sample_cloud(UNIFORM, n, d, int(rng.integers(0, 2**31)))
            g = build_graph(cloud, eps, kernel)
            ref = brute_force_edges(cloud.points, eps, kernel, d)
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
        g = build_graph(PointCloud(points, UNIFORM, 0), eps, kernel)
        ref = brute_force_edges(points, eps, kernel, d)
        got = stored_edges(g)
        assert set(got) == set(ref)
        for k in ref:
            assert got[k] == pytest.approx(ref[k], rel=1e-14)

    def test_duplicate_points_legal(self):
        cloud = PointCloud(np.array([[0.3], [0.3]]), UNIFORM, 0)
        g = build_graph(cloud, 0.1, INDICATOR)
        assert stored_edges(g) == {(0, 1): pytest.approx(10.0)}


class TestApplyLaplacian:
    def test_constant_in_nullspace(self):
        g = build_graph(sample_cloud(UNIFORM, 150, 1, 3), 0.1)
        out = apply_laplacian(g, np.full(150, 3.7))
        assert np.max(np.abs(out)) < 1e-12 * 150

    def test_two_point_hand_values(self):
        g = two_point_graph()
        assert apply_laplacian(g, np.array([1.0, 0.0])) == pytest.approx([125.0, -125.0])

    def test_linearity(self):
        g = build_graph(sample_cloud(UNIFORM, 100, 2, 8), 0.2)
        rng = make_rng(17)
        u, w = rng.standard_normal(100), rng.standard_normal(100)
        lhs = apply_laplacian(g, 2.0 * u - 3.0 * w)
        rhs = 2.0 * apply_laplacian(g, u) - 3.0 * apply_laplacian(g, w)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            apply_laplacian(two_point_graph(), np.zeros(3))

    def test_matches_dense_matrix(self):
        for seed, d in [(1, 1), (2, 2)]:
            n = 250
            g = build_graph(sample_cloud(UNIFORM, n, d, seed), 0.15)
            lap = dense_laplacian(g)
            u = make_rng(seed, 1).standard_normal(n)
            assert np.allclose(apply_laplacian(g, u), lap @ u, atol=1e-12 * n)

    def test_symmetry_and_psd(self):
        g = build_graph(sample_cloud(UNIFORM, 120, 1, 21), 0.1)
        rng = make_rng(22)
        for _ in range(100):
            u, w = rng.standard_normal(120), rng.standard_normal(120)
            lu, lw = apply_laplacian(g, u), apply_laplacian(g, w)
            a, b = inner_mu_n(lu, w), inner_mu_n(u, lw)
            assert a == pytest.approx(b, rel=1e-11, abs=1e-11)
            assert inner_mu_n(lu, u) >= -1e-10 * l2_mu_n(u) ** 2


class TestPolyLaplacian:
    def test_s1_matches_single_apply(self):
        g = build_graph(sample_cloud(UNIFORM, 80, 1, 2), 0.2)
        u = make_rng(5).standard_normal(80)
        assert np.array_equal(apply_poly_laplacian(g, u, 1), apply_laplacian(g, u))

    def test_two_point_square(self):
        out = apply_poly_laplacian(two_point_graph(), np.array([1.0, 0.0]), 2)
        assert out == pytest.approx([31250.0, -31250.0])

    def test_s0_identity_and_negative_error(self):
        g = two_point_graph()
        u = np.array([1.0, 2.0])
        assert np.array_equal(apply_poly_laplacian(g, u, 0), u)
        with pytest.raises(ValueError):
            apply_poly_laplacian(g, u, -1)

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
            l2_mu_n(apply_laplacian(g, u)) ** 2, rel=1e-12
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


class TestOperatorNorm:
    def test_empty_graph_zero(self):
        cloud = PointCloud(np.array([[0.0], [0.5]]), UNIFORM, 0)
        g = build_graph(cloud, 0.1)
        assert operator_norm_estimate(g) == 0.0

    def test_two_point_value(self):
        assert operator_norm_estimate(two_point_graph(), iters=100) == pytest.approx(
            250.0, rel=1e-8
        )

    def test_eps_squared_scaling(self):
        # ||Delta||_op ~ C / eps^2: estimate * eps^2 varies by less than 3x
        vals = []
        for eps in (0.05, 0.1, 0.2):
            g = build_graph(sample_cloud(UNIFORM, 4000, 1, 31), eps)
            vals.append(operator_norm_estimate(g, iters=30) * eps**2)
        assert max(vals) / min(vals) < 3.0

    def test_bad_iters(self):
        with pytest.raises(ValueError):
            operator_norm_estimate(two_point_graph(), iters=0)


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
        vals, _ = dense_spectrum(IntervalLaplacian(cloud.points[:, 0], eps))
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
        order = np.argsort(cloud.points[:, 0])
        il = IntervalLaplacian(cloud.points[:, 0], eps)
        u = make_rng(62).standard_normal(n)
        assert np.allclose(il.apply(u[order]), g.apply(u)[order], atol=1e-9)
        assert np.allclose(il.degrees, g.degrees[order], atol=1e-9)
        assert np.array_equal(il.neighbor_counts(), g.neighbor_counts()[order])

    def test_constant_nullspace(self):
        il = IntervalLaplacian(sample_cloud(UNIFORM, 500, 1, 63).points[:, 0], 0.1)
        assert np.max(np.abs(il.apply(np.ones(500)))) < 1e-10

    def test_validation(self):
        with pytest.raises(ValueError):
            IntervalLaplacian([0.1, 0.2], 0.6)
        with pytest.raises(ValueError):
            IntervalLaplacian([], 0.1)


def interval_apply_reference(il, u):
    """IntervalLaplacian.apply as first written, with a temporary per step."""
    cum = np.concatenate([[0.0], np.cumsum(u)])
    total = cum[-1]
    out = cum[il._hi_rem] - cum[il._lo_rem]
    out += il._wraps * total
    wsum = (out - u) / il.eps
    scale = 2.0 / (il.n * il.eps**2)
    return scale * (il.degrees * u - wsum)


class TestIntervalApplyBitwise:
    @pytest.mark.parametrize("eps", [0.003, 0.05, 0.2, 0.45, 0.5])
    @pytest.mark.parametrize("n", [1, 7, 1000])
    def test_matches_reference(self, n, eps):
        x = sample_cloud(UNIFORM, n, 1, 70 + n).points[:, 0]
        il = IntervalLaplacian(x, eps)
        rng = make_rng(71, n)
        for u in (rng.standard_normal(n), np.ones(n), np.zeros(n), rng.random(n) - 0.5):
            got = il.apply(u)
            ref = interval_apply_reference(il, u)
            assert got.dtype == ref.dtype and np.array_equal(
                got.view(np.int64), ref.view(np.int64)
            )

    def test_wrapping_windows_covered(self):
        # points at both ends of the circle: windows cross 0 and 1
        x = np.array([0.0, 0.01, 0.02, 0.5, 0.97, 0.99, 0.999])
        il = IntervalLaplacian(x, 0.05)
        assert np.any(il._wraps == 1) and np.any(il._wraps == 0)
        u = make_rng(72).standard_normal(x.size)
        assert np.array_equal(
            il.apply(u).view(np.int64), interval_apply_reference(il, u).view(np.int64)
        )

    def test_input_not_modified(self):
        u = make_rng(73).standard_normal(200)
        keep = u.copy()
        IntervalLaplacian(sample_cloud(UNIFORM, 200, 1, 74).points[:, 0], 0.1).apply(u)
        assert np.array_equal(u, keep)


class TestEdgelistIO:
    def test_round_trip(self, tmp_path):
        cloud = sample_cloud(UNIFORM, 120, 2, 71)
        g = build_graph(cloud, 0.2, PLATEAU)
        path = tmp_path / "graph.edges"
        save_edgelist(g, path)
        h = load_edgelist(path)
        assert (h.n, h.d, h.eps, h.kernel.kind) == (g.n, g.d, g.eps, g.kernel.kind)
        assert np.array_equal(h.indptr, g.indptr)
        assert np.array_equal(h.indices, g.indices)
        assert np.array_equal(h.weights, g.weights)
        assert np.allclose(h.degrees, g.degrees, rtol=1e-12)
