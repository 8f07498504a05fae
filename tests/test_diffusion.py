"""KNN graph and random-walk eigensystem checks.

Diffusion distances from the eigensystem are compared against the defining
quantity: the stationary-weighted L2 distance between rows of the dense
t-step transition matrix, computed by repeated matrix multiplication.
"""

import importlib
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sparse
import scipy.sparse.linalg

from dsirc.core import cube_to_cloud
from dsirc.diffusion import (
    DiffusionSystem,
    DisconnectedGraphError,
    diffusion_system,
    knn_graph,
    knn_indices,
)
from dsirc.sar import IciConfig, sar
from dsirc.synth import SynthConfig, synth_hsi


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


def argsort_knn(x, k):
    """``knn_indices`` by its definition: each row's float64 squared
    distances to every row, one ``einsum`` over each row of differences,
    and the first k columns of a stable argsort with the row itself last."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    idx = np.empty((n, k), dtype=np.intp)
    dist = np.empty((n, k))
    for i in range(n):
        diff = x - x[i]
        d2 = np.einsum("ij,ij->i", diff, diff)
        d2[i] = np.inf
        order = np.argsort(d2, kind="stable")[:k]
        idx[i] = order
        dist[i] = np.sqrt(d2[order])
    return idx, dist


def coo_knn_graph(neighbors):
    """``knn_graph``'s adjacency built through COO, as it was before the
    direct CSR construction."""
    n, k_n = neighbors.shape
    rows = np.repeat(np.arange(n, dtype=np.intp), k_n)
    directed = sparse.csr_matrix(
        (np.ones(rows.shape[0]), (rows, neighbors.ravel())), shape=(n, n)
    )
    symmetric = directed.maximum(directed.T).tocsr()
    symmetric.sort_indices()
    return symmetric


def coo_s_matrix(adjacency):
    """``diffusion_system``'s ``S = D^{-1/2} W D^{-1/2}`` built through COO,
    as it was before the direct CSR construction."""
    n = adjacency.shape[0]
    degrees = np.asarray(adjacency.sum(axis=1)).ravel().astype(np.float64)
    inv_sqrt = 1.0 / np.sqrt(degrees)
    coo = adjacency.tocoo()
    s_data = coo.data * (inv_sqrt[coo.row] * inv_sqrt[coo.col])
    return sparse.csr_matrix((s_data, (coo.row, coo.col)), shape=(n, n))


def assert_csr_equal(got, want):
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b)


def use_small_blocks(monkeypatch, n, block_rows, chunk_rows):
    # The search's Gram blocks and screened row chunks shrink to the given
    # row counts, and its element budget with them.
    monkeypatch.setattr(importlib.import_module("dsirc.diffusion"), "_BLOCK_ROWS", block_rows)
    monkeypatch.setattr(importlib.import_module("dsirc.core"), "_BLOCK_ELEMENTS", chunk_rows * n)


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
    # Distances come from differences, which are exactly zero here.
    assert dist[2, 0] == 0.0 and dist[7, 0] == 0.0


def assert_knn_equals_argsort(x, ks):
    # A stable sort's first k columns are the same for every k.
    want_idx, want_dist = argsort_knn(x, max(ks))
    for k in ks:
        got_idx, got_dist = knn_indices(x, k)
        np.testing.assert_array_equal(got_idx, want_idx[:, :k])
        np.testing.assert_array_equal(got_dist, want_dist[:, :k])


def assert_knn_prefix(x, ks, k_max):
    # The search at k is the first k columns of the search at k_max; a
    # sweep reads every k_n from one search at the largest.
    big_idx, big_dist = knn_indices(x, k_max)
    for k in ks:
        assert k < k_max
        got_idx, got_dist = knn_indices(x, k)
        np.testing.assert_array_equal(got_idx, big_idx[:, :k])
        np.testing.assert_array_equal(got_dist, big_dist[:, :k])


def test_knn_partial_sort_equals_argsort_on_lattice_ties():
    # Integer points: squared distances are small integers, so the k-th
    # value is tied with columns outside the partition in most rows.
    x = np.random.default_rng(20).integers(0, 4, size=(300, 3)).astype(np.float64)
    assert_knn_equals_argsort(x, (1, 2, 7, 20, 64, 299))
    assert_knn_prefix(x, (1, 2, 7, 20, 64), 100)


def test_knn_partial_sort_equals_argsort_on_duplicate_rows():
    rng = np.random.default_rng(21)
    base = rng.uniform(size=(60, 5))
    x = base[rng.integers(0, 60, size=240)]
    assert_knn_equals_argsort(x, (1, 3, 8, 30, 239))
    assert_knn_prefix(x, (1, 3, 4, 8, 30), 100)


def test_knn_partial_sort_equals_argsort_across_blocks():
    # The search's 256-row blocks and its budget's row chunks split this
    # cloud many times; rounded coordinates add boundary ties.
    diffusion = importlib.import_module("dsirc.diffusion")
    x = np.round(np.random.default_rng(22).uniform(size=(2100, 3)), 2)
    assert diffusion._BLOCK_ROWS < x.shape[0]
    assert importlib.import_module("dsirc.core")._BLOCK_ELEMENTS // x.shape[0] < diffusion._BLOCK_ROWS
    assert_knn_equals_argsort(x, (1, 10, 40))
    assert_knn_prefix(x, (1, 10, 40), 100)


@pytest.mark.parametrize("block_rows, chunk_rows", [(7, 3), (5, 5), (4, 9), (1, 1)])
def test_knn_small_blocks_and_chunks_equal_argsort(monkeypatch, block_rows, chunk_rows):
    # Chunks that do not divide a block, a chunk equal to the block, a chunk
    # clamped to the block, and one row per block, on clouds whose distances
    # tie at almost every k: integer lattice points, and small multiples of
    # 1/8 with every row repeated.
    rng = np.random.default_rng(20)
    lattice = rng.integers(0, 4, size=(300, 3)).astype(np.float64)
    duplicates = (rng.integers(0, 16, size=(60, 5)) / 8.0)[rng.integers(0, 60, size=240)]
    use_small_blocks(monkeypatch, 300, block_rows, chunk_rows)
    assert_knn_equals_argsort(lattice, (1, 2, 7, 20, 299))
    use_small_blocks(monkeypatch, 240, block_rows, chunk_rows)
    assert_knn_equals_argsort(duplicates, (1, 3, 8, 239))


def test_knn_small_chunks_equal_argsort_on_inexact_data(monkeypatch):
    # Chunks only split the screen's row-local passes and the exact step's
    # gathers, so they leave every value unchanged on any data.
    rng = np.random.default_rng(21)
    x = rng.uniform(size=(60, 5))[rng.integers(0, 60, size=240)]
    monkeypatch.setattr(importlib.import_module("dsirc.core"), "_BLOCK_ELEMENTS", 7 * 240)
    assert_knn_equals_argsort(x, (1, 3, 8, 239))


def test_knn_ties_at_k_on_both_sides_of_a_chunk_boundary(monkeypatch):
    # Points 0, 1, ..., 39 on a line.  At k = 3 every row from 2 to 37 has
    # its 3rd and 4th smallest squared distances equal (4 and 4), so the
    # screen must keep both and the tie rule pick one; at k = 2 (1 and 1,
    # then 4) none is tied at the k-th.
    x = np.arange(40.0)[:, None]
    use_small_blocks(monkeypatch, 40, block_rows=8, chunk_rows=3)
    d2 = (x - x.T) ** 2
    np.fill_diagonal(d2, np.inf)
    ranked = np.sort(d2, axis=1)
    tied = ranked[:, 2] == ranked[:, 3]
    # Chunks start at rows 3, 6, 8, 11, ...: rows on each side are tied.
    for boundary in (3, 6, 8, 11, 14, 16):
        assert tied[boundary - 1] and tied[boundary]
    assert not np.any(ranked[:, 1] == ranked[:, 2])
    assert_knn_equals_argsort(x, (2, 3))


def test_knn_search_holds_at_most_two_block_buffers():
    # Besides the outputs: the float32 Gram buffer of 256 rows, the float32
    # copy of the spectra, three per-row vectors, the float32 chunk buffer
    # and at most six more arrays of the 65,536-value budget (kept pairs'
    # rows and columns, their padded columns and distances, and the exact
    # step's gather and sums): 8.2 MB at this size, where the float64
    # search's bound was 14.4 MB.
    diffusion = importlib.import_module("dsirc.diffusion")
    n, bands = 4096, 30
    x = np.random.default_rng(24).uniform(size=(n, bands))
    tracemalloc.start()
    try:
        idx, dist = knn_indices(x, 100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    budget = importlib.import_module("dsirc.core")._BLOCK_ELEMENTS
    gram = diffusion._BLOCK_ROWS * n * 4
    bound = gram + n * bands * 4 + 16 * n + 4 * budget + 6 * 8 * budget
    assert bound < 14_400_000
    assert peak - idx.nbytes - dist.nbytes <= bound


@pytest.mark.parametrize("n", [257, 2049, 2100])
def test_knn_distances_equal_across_blocks_and_budgets(monkeypatch, n):
    # With n not a multiple of 8, a Gram product rounds its last columns
    # differently with the block's row count, and a one-row block (the
    # 257th row here) runs as a GEMV: distances from the Gram identity moved
    # with the partition.  Differences do not, so every partition gives the
    # oracle's values exactly; the screen only has to be safe in each.
    diffusion = importlib.import_module("dsirc.diffusion")
    assert n % 8
    for bands in (3, 30):
        x = np.random.default_rng(bands).uniform(size=(n, bands))
        want_idx, want_dist = argsort_knn(x, 40)
        for block_rows, budget in [(256, 65_536), (7, 3 * n + 5), (1, n - 1), (64, 1200)]:
            monkeypatch.setattr(diffusion, "_BLOCK_ROWS", block_rows)
            monkeypatch.setattr(importlib.import_module("dsirc.core"), "_BLOCK_ELEMENTS", budget)
            for k in (1, 40):
                idx, dist = knn_indices(x, k)
                np.testing.assert_array_equal(idx, want_idx[:, :k])
                np.testing.assert_array_equal(dist, want_dist[:, :k])


def screened_widths(monkeypatch):
    """Make the search log the widest row of kept columns in each chunk;
    returns the log."""
    diffusion = importlib.import_module("dsirc.diffusion")
    exact, log = diffusion._squared_distances, []

    def logged(x, first, cols):
        log.append(cols.shape[1])
        return exact(x, first, cols)

    monkeypatch.setattr(diffusion, "_squared_distances", logged)
    return log


def test_knn_screen_is_centred_on_offset_data(monkeypatch):
    # A cloud 1e4 from the origin, as integer radiances sit: uncentred, the
    # float32 bound would exceed every distance and keep every column.
    x = np.random.default_rng(30).uniform(size=(400, 30)) + 1e4
    widths = screened_widths(monkeypatch)
    assert_knn_equals_argsort(x, (1, 10, 40))
    assert max(widths) < 2 * 40


def test_knn_screen_keeps_near_duplicates():
    # Copies 1e-7 apart relatively: float32 cannot tell them apart, so the
    # screen keeps them all and the float64 step orders them.
    rng = np.random.default_rng(31)
    base = rng.uniform(1.0, 2.0, size=(50, 30))[rng.integers(0, 50, size=300)]
    x = base * (1.0 + 1e-7 * rng.standard_normal(base.shape))
    assert_knn_equals_argsort(x, (1, 5, 40, 299))


def test_knn_screen_holds_on_sar_cloud():
    # Reconstructed spectra lie far closer to their neighbours than their
    # norms, where the screen keeps the most columns per row.
    scene = synth_hsi(SynthConfig(height=24, width=24, bands=10, seed=3))
    x = sar(cube_to_cloud(scene.cube), IciConfig(tau=1.0)).spectra
    assert_knn_equals_argsort(x, (1, 10, 100))


def test_knn_screen_keeps_exactly_k_on_separated_distances(monkeypatch):
    # Points at powers of 1.1 on a line: each row's distances differ by far
    # more than the screen's bound, so it keeps exactly k columns per row.
    x = 1.1 ** np.arange(50.0)[:, None]
    widths = screened_widths(monkeypatch)
    for k in (1, 2, 10, 30):
        widths.clear()
        assert_knn_equals_argsort(x, (k,))
        assert widths and set(widths) == {k}


def test_knn_screen_floor_covers_spectra_scaled_below_float32():
    # Two spectra at +-1e21 set the scale but not the mean, which leaves the
    # others near 1e-21 after scaling: their float32 products are subnormal,
    # with rounding only the floor covers.
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x = np.vstack([np.full((1, 4), 1e21), np.full((1, 4), -1e21), rng.uniform(size=(80, 4))])
        assert_knn_equals_argsort(x, (1, 10, 40))


def test_knn_screen_holds_on_lattice_ties_and_at_every_neighbour():
    # Integer points in 8 bands tie at almost every k; k = n - 1 keeps
    # every other row.
    x = np.random.default_rng(32).integers(0, 3, size=(200, 8)).astype(np.float64)
    assert_knn_equals_argsort(x, (1, 7, 50, 199))
    y = np.random.default_rng(33).uniform(size=(60, 5))
    assert_knn_equals_argsort(y, (59,))


@pytest.fixture(scope="module")
def neighbors_4096():
    # A 4,096-node k_n = 100 search, the size of the 64x64 scenes.
    return knn_indices(np.random.default_rng(24).uniform(size=(4096, 30)), 100)[0]


def test_knn_graph_holds_at_most_twice_its_adjacency(neighbors_4096):
    # The pattern is symmetrized with one-byte entries and 32-bit columns,
    # its diagonal checked, and kept as the adjacency: building and
    # checking the graph takes at most 15 bytes per stored edge (14.4 at
    # this size), plus two row-pointer arrays.  Twice a float64 CSR of the
    # same graph would be 24 bytes per edge.
    tracemalloc.start()
    try:
        graph = knn_graph(neighbors_4096)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    adj = graph.adjacency
    assert adj.data.dtype == np.bool_
    assert adj.indices.dtype == adj.indptr.dtype == np.int32
    assert peak <= 15 * adj.nnz + 2 * adj.indptr.nbytes


def test_transition_matrix_setup_holds_two_edge_arrays(monkeypatch, neighbors_4096):
    # S's values are formed in one per-edge array, with one more for the
    # column gather: the peak up to the solver is two per-edge float arrays
    # plus a few per-node ones.
    class Stop(Exception):
        pass

    seen = {}

    def record(s_matrix, **kw):
        seen["peak"] = tracemalloc.get_traced_memory()[1]
        seen["s"] = s_matrix
        raise Stop

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", record)
    graph = knn_graph(neighbors_4096)
    tracemalloc.start()
    try:
        with pytest.raises(Stop):
            diffusion_system(graph, 50)
    finally:
        tracemalloc.stop()
    n = graph.n
    assert seen["s"].nnz == graph.adjacency.nnz
    assert seen["peak"] <= 2 * seen["s"].data.nbytes + 16 * n * 8


def test_knn_indices_validation():
    x = np.zeros((5, 2))
    with pytest.raises(ValueError):
        knn_indices(x, 0)
    with pytest.raises(ValueError):
        knn_indices(x, 5)
    with pytest.raises(ValueError):
        knn_indices(np.zeros(5), 1)
    for bad in (np.nan, np.inf):
        x[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            knn_indices(x, 1)


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
    np.testing.assert_array_equal(degrees, want.sum(axis=1))


def test_knn_graph_validation():
    cases = [
        (np.array([1, 0]), "2-D integer"),
        (np.array([[1.0], [0.0]]), "2-D integer"),
        (np.zeros((2, 0), dtype=np.intp), "at least one row and one column"),
        (np.array([[1], [-1], [0]]), r"in \[0, 2\]"),
        (np.array([[1], [3], [0]]), r"in \[0, 2\]"),
        (np.array([[1], [1], [0]]), "lists its own index"),
    ]
    for neighbors, cause in cases:
        with pytest.raises(ValueError, match=cause):
            knn_graph(neighbors)


@pytest.mark.parametrize("case", ["fixture", "k=1", "k=n-1"])
def test_knn_graph_invariants(case, neighbors_4096):
    # What diffusion_system relies on and no longer re-checks: a symmetric
    # pattern with an empty diagonal, one-byte True entries, sorted int32
    # columns, and every node's degree from its own k_n up to n - 1.  The
    # pixels that list a node are not bounded by k_n: at k_n = 100 the
    # fixture's largest degree is 896.
    if case == "fixture":
        neighbors = neighbors_4096
    else:
        x = np.random.default_rng(28).uniform(size=(200, 4))
        neighbors = knn_indices(x, 1 if case == "k=1" else 199)[0]
    k_n = neighbors.shape[1]
    adj = knn_graph(neighbors).adjacency
    assert (adj != adj.T).nnz == 0
    assert not adj.diagonal().any()
    assert adj.data.dtype == np.bool_ and adj.data.all()
    assert adj.indices.dtype == np.int32
    rising = np.diff(adj.indices) > 0
    rising[adj.indptr[1:-1] - 1] = True  # each new row starts afresh
    assert rising.all()
    lengths = np.diff(adj.indptr)
    assert lengths.min() >= k_n and lengths.max() <= adj.shape[0] - 1


def test_knn_graph_equals_coo_construction():
    rng = np.random.default_rng(25)
    lattice = rng.integers(0, 4, size=(200, 3)).astype(np.float64)
    duplicates = rng.uniform(size=(50, 4))[rng.integers(0, 50, size=200)]
    for x in (rng.uniform(size=(200, 3)), lattice, duplicates):
        for k in (1, 6, 40, 199):
            neighbors = knn_indices(x, k)[0]
            got, want = knn_graph(neighbors).adjacency, coo_knn_graph(neighbors)
            for name in ("indices", "indptr"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype, name
                np.testing.assert_array_equal(a, b)
            # The graph keeps the pattern: one-byte True where the oracle has 1.0.
            assert got.data.dtype == np.bool_
            np.testing.assert_array_equal(got.data, want.data == 1.0)
            assert got.data.all()


# ---------------------------------------------------------------------------
# eigensystem


def connected_graph(n=25, k_n=5, seed=4):
    x = np.random.default_rng(seed).uniform(size=(n, 3))
    return knn_graph(knn_indices(x, k_n)[0])


def connected_system(n=25, k_n=5, seed=4, n_eigenpairs=None):
    return diffusion_system(connected_graph(n, k_n, seed), n_eigenpairs if n_eigenpairs else n)


def stationary(graph):
    """``pi = deg / sum(deg)``, the degrees summed off the adjacency."""
    degrees = np.asarray(graph.adjacency.sum(axis=1), dtype=np.float64).ravel()
    return degrees / degrees.sum()


def test_stationary_pair_comes_first():
    system = connected_system()
    assert system.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(system.eigenvectors[:, 0], 1.0, atol=1e-9)
    assert np.all(np.abs(system.eigenvalues) <= 1.0)
    assert np.all(np.diff(np.abs(system.eigenvalues)) <= 1e-12)


def test_stationary_pair_is_exact():
    # Solved, the pair is (1, constant) only up to rounding, which a large t
    # would leave as the whole embedding.
    rng = np.random.default_rng(5)
    for n, n_pairs in ((300, 50), (60, 60)):  # sparse and dense solvers
        x = rng.uniform(size=(n, 3))
        system = diffusion_system(knn_graph(knn_indices(x, 5)[0]), n_pairs)
        assert system.eigenvalues[0] == 1.0
        assert np.all(system.eigenvectors[:, 0] == 1.0)
        assert np.unique(system.embedding(1e9)[:, 0]).size == 1


def test_eigenvectors_are_c_ordered_from_both_solvers():
    # Picking the solvers' columns leaves them Fortran-ordered; the
    # predecessor scan's row norms are taken on C-ordered rows.
    rng = np.random.default_rng(5)
    for n, n_pairs in ((300, 50), (60, 60)):  # sparse and dense solvers
        x = rng.uniform(size=(n, 3))
        system = diffusion_system(knn_graph(knn_indices(x, 5)[0]), n_pairs)
        assert system.eigenvectors.dtype == np.float64
        assert system.eigenvectors.flags.c_contiguous
        assert system.embedding(2.0).flags.c_contiguous


def test_eigenvectors_orthonormal_under_stationary_weights():
    graph = connected_graph()
    system = diffusion_system(graph, graph.n)
    gram = system.eigenvectors.T @ (stationary(graph)[:, None] * system.eigenvectors)
    np.testing.assert_allclose(gram, np.eye(system.n), atol=1e-9)


def test_diffusion_distance_matches_transition_matrix_power():
    graph = connected_graph()
    system = diffusion_system(graph, graph.n)
    pi = stationary(graph)
    adj = graph.adjacency.toarray()
    p_matrix = adj / adj.sum(axis=1, keepdims=True)
    rng = np.random.default_rng(5)
    for t in (1, 2, 3, 6):
        p_t = np.linalg.matrix_power(p_matrix, t)
        embedding = system.embedding(t)
        for _ in range(8):
            i, j = rng.integers(0, system.n, size=2)
            want = np.sqrt(np.sum((p_t[i] - p_t[j]) ** 2 / pi))
            got = np.linalg.norm(embedding[i] - embedding[j])
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
        got = system.embedding(t)
        for i, j in ((0, 50), (3, 120), (77, 199)):
            assert np.linalg.norm(got[i] - got[j]) == pytest.approx(
                float(np.linalg.norm(want[i] - want[j])), rel=1e-6, abs=1e-9
            )


def test_transition_matrix_equals_coo_construction(monkeypatch):
    # Record the S each solver is given: the sparse path (n > 128, few
    # pairs) and the dense one (n <= 128).
    given = []
    eigsh, eigh = scipy.sparse.linalg.eigsh, np.linalg.eigh
    monkeypatch.setattr(
        scipy.sparse.linalg, "eigsh", lambda s, **kw: given.append(s) or eigsh(s, **kw)
    )
    monkeypatch.setattr(np.linalg, "eigh", lambda s: given.append(s) or eigh(s))
    rng = np.random.default_rng(26)
    for n, k in ((300, 8), (100, 5)):
        graph = knn_graph(knn_indices(rng.uniform(size=(n, 3)), k)[0])
        want = coo_s_matrix(graph.adjacency)
        given.clear()
        diffusion_system(graph, 10)
        (s_matrix,) = given
        if n > 128:
            assert_csr_equal(s_matrix, want)
        else:
            np.testing.assert_array_equal(s_matrix, want.toarray())


def test_disconnected_graph_is_rejected():
    rng = np.random.default_rng(7)
    blob_a = rng.uniform(size=(10, 3))
    blob_b = rng.uniform(size=(10, 3)) + 100.0
    graph = knn_graph(knn_indices(np.vstack([blob_a, blob_b]), 3)[0])
    with pytest.raises(DisconnectedGraphError):
        diffusion_system(graph, 5)


def test_diffusion_system_validation():
    graph = connected_graph()
    system = diffusion_system(graph, graph.n)
    with pytest.raises(ValueError):
        diffusion_system(graph, 0)
    with pytest.raises(ValueError):
        diffusion_system(graph, system.n + 1)
    with pytest.raises(ValueError):
        system.embedding(-1.0)
