"""KNN graph and random-walk eigensystem checks.

Diffusion distances from the eigensystem are compared against the defining
quantity: the stationary-weighted L2 distance between rows of the dense
t-step transition matrix, computed by repeated matrix multiplication.
"""

import numpy as np
import pytest
import scipy.sparse as sparse

from dsirc.diffusion import (
    DiffusionSystem,
    DisconnectedGraphError,
    KnnGraph,
    diffusion_distance,
    diffusion_system,
    knn_graph,
    knn_indices,
    nearest_in_diffusion,
)


def brute_knn(x, k):
    n = x.shape[0]
    out = np.empty((n, k), dtype=np.intp)
    dists = np.empty((n, k))
    for i in range(n):
        d = np.array(
            [np.inf if j == i else float(np.linalg.norm(x[i] - x[j])) for j in range(n)]
        )
        order = np.argsort(d, kind="stable")[:k]
        out[i] = order
        dists[i] = d[order]
    return out, dists


# ---------------------------------------------------------------------------
# knn


def test_knn_indices_match_brute_force():
    rng = np.random.default_rng(0)
    for trial in range(15):
        n = int(rng.integers(8, 50))
        k = int(rng.integers(1, min(n - 1, 7) + 1))
        x = rng.uniform(size=(n, 4))
        got, _ = knn_indices(x, k)
        want, _ = brute_knn(x, k)
        np.testing.assert_array_equal(got, want)


def test_knn_distances_sorted_and_correct():
    rng = np.random.default_rng(1)
    x = rng.uniform(size=(30, 5))
    idx, dist = knn_indices(x, 6)
    _, want = brute_knn(x, 6)
    np.testing.assert_allclose(dist, want, rtol=1e-10, atol=1e-12)
    assert np.all(np.diff(dist, axis=1) >= 0)
    for i in range(30):
        for rank, j in enumerate(idx[i]):
            assert dist[i, rank] == pytest.approx(
                float(np.linalg.norm(x[i] - x[j])), abs=1e-12
            )


def test_knn_duplicate_rows_find_each_other():
    rng = np.random.default_rng(2)
    x = rng.uniform(size=(10, 3))
    x[7] = x[2]
    idx, dist = knn_indices(x, 1)
    assert idx[2, 0] == 7 and idx[7, 0] == 2
    # the blocked gram-product distance leaves sqrt-of-rounding residue
    assert dist[2, 0] <= 1e-6 and dist[7, 0] <= 1e-6


def test_knn_indices_validation():
    x = np.zeros((5, 2))
    with pytest.raises(ValueError):
        knn_indices(x, 0)
    with pytest.raises(ValueError):
        knn_indices(x, 5)
    with pytest.raises(ValueError):
        knn_indices(np.zeros(5), 1)


def test_knn_graph_is_symmetrized_union():
    rng = np.random.default_rng(3)
    x = rng.uniform(size=(25, 3))
    graph = knn_graph(knn_indices(x, 4)[0])
    directed, _ = brute_knn(x, 4)
    want = np.zeros((25, 25))
    for i in range(25):
        for j in directed[i]:
            want[i, j] = 1.0
            want[j, i] = 1.0
    np.testing.assert_array_equal(graph.adjacency.toarray(), want)
    degrees = np.asarray(graph.adjacency.sum(axis=1)).ravel()
    assert np.all(degrees >= 4) and np.all(degrees <= 8)


def test_knn_graph_validation():
    bad = sparse.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        KnnGraph(bad, 1)
    with_diag = sparse.csr_matrix(np.array([[1.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        KnnGraph(with_diag, 1)
    weighted = sparse.csr_matrix(np.array([[0.0, 2.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        KnnGraph(weighted, 1)


# ---------------------------------------------------------------------------
# eigensystem


def connected_system(n=25, k_n=5, seed=4, n_eigenpairs=None):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, 3))
    graph = knn_graph(knn_indices(x, k_n)[0])
    return diffusion_system(graph, n_eigenpairs if n_eigenpairs else n)


def test_stationary_pair_comes_first():
    system = connected_system()
    assert system.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(system.eigenvectors[:, 0], 1.0, atol=1e-9)
    assert np.all(np.abs(system.eigenvalues) <= 1.0)
    assert np.all(np.diff(np.abs(system.eigenvalues)) <= 1e-12)


def test_eigenvectors_orthonormal_under_stationary_weights():
    system = connected_system()
    gram = system.eigenvectors.T @ (system.pi[:, None] * system.eigenvectors)
    np.testing.assert_allclose(gram, np.eye(system.n), atol=1e-9)


def test_diffusion_distance_matches_transition_matrix_power():
    system = connected_system()
    adj = system.graph.adjacency.toarray()
    p_matrix = adj / adj.sum(axis=1, keepdims=True)
    rng = np.random.default_rng(5)
    for t in (1, 2, 3, 6):
        p_t = np.linalg.matrix_power(p_matrix, t)
        for _ in range(8):
            i, j = rng.integers(0, system.n, size=2)
            want = np.sqrt(np.sum((p_t[i] - p_t[j]) ** 2 / system.pi))
            got = diffusion_distance(system, int(i), int(j), t)
            assert got == pytest.approx(want, abs=1e-9)


def test_sparse_solver_agrees_with_dense_reference():
    rng = np.random.default_rng(6)
    x = rng.uniform(size=(200, 3))
    graph = knn_graph(knn_indices(x, 6)[0])
    system = diffusion_system(graph, 10)  # n > dense cutoff, k << n: sparse path
    adj = graph.adjacency.toarray()
    degrees = adj.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(degrees)
    s_matrix = adj * inv_sqrt[:, None] * inv_sqrt[None, :]
    eigvals, eigvecs = np.linalg.eigh(s_matrix)
    order = np.lexsort((-eigvals, -np.abs(eigvals)))[:10]
    np.testing.assert_allclose(system.eigenvalues, eigvals[order], atol=1e-8)
    psi = eigvecs[:, order] * inv_sqrt[:, None] * np.sqrt(degrees.sum())
    for t in (1, 4):
        want = psi * np.abs(eigvals[order]) ** t
        for i, j in ((0, 50), (3, 120), (77, 199)):
            assert diffusion_distance(system, i, j, t) == pytest.approx(
                float(np.linalg.norm(want[i] - want[j])), rel=1e-6, abs=1e-9
            )


def test_disconnected_graph_is_rejected():
    rng = np.random.default_rng(7)
    blob_a = rng.uniform(size=(10, 3))
    blob_b = rng.uniform(size=(10, 3)) + 100.0
    graph = knn_graph(knn_indices(np.vstack([blob_a, blob_b]), 3)[0])
    with pytest.raises(DisconnectedGraphError):
        diffusion_system(graph, 5)


def test_diffusion_system_validation():
    system = connected_system()
    with pytest.raises(ValueError):
        diffusion_system(system.graph, 0)
    with pytest.raises(ValueError):
        diffusion_system(system.graph, system.n + 1)
    with pytest.raises(ValueError):
        system.embedding(-1.0)
    with pytest.raises(IndexError):
        diffusion_distance(system, 0, system.n, 1.0)


def test_nearest_in_diffusion_matches_pointwise_distances():
    system = connected_system(seed=8)
    rng = np.random.default_rng(9)
    for _ in range(10):
        i = int(rng.integers(0, system.n))
        cand = rng.choice(system.n, size=6, replace=False)
        t = float(rng.uniform(0.5, 8.0))
        got = nearest_in_diffusion(system, i, cand, t)
        dists = {int(c): diffusion_distance(system, i, int(c), t) for c in cand}
        best = min(sorted(dists), key=lambda c: dists[c])
        assert got == best


def test_nearest_in_diffusion_validation():
    system = connected_system()
    with pytest.raises(ValueError):
        nearest_in_diffusion(system, 0, [], 1.0)
    with pytest.raises(IndexError):
        nearest_in_diffusion(system, 0, [system.n], 1.0)


def test_self_distance_is_zero():
    system = connected_system()
    assert diffusion_distance(system, 4, 4, 3.0) == 0.0
