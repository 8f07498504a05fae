"""Mode-based clustering stages against plain-loop reference versions.

Each stage (bandwidth selection, KDE, rank separation, mode choice, label
spreading) is re-derived here with naive scalar loops and compared against
the vectorized module; the baselines are checked against exhaustive
partition search on tiny inputs.
"""

import itertools
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg
from scipy.spatial import cKDTree

from dsirc import clustering
from dsirc.clustering import (
    ClusterConfig,
    Clustering,
    _TREE_K,
    _lloyd,
    auto_sigma0,
    dsirc,
    dt_values,
    dvic,
    kde_density,
    kmeans,
    mode_grid,
    propagate_labels,
    select_modes,
    spectral_clustering,
    zeta,
)
from dsirc.core import _BLOCK_ELEMENTS, PixelCloud, cube_to_cloud
from dsirc.diffusion import (
    DiffusionSystem,
    DisconnectedGraphError,
    diffusion_system,
    knn_graph,
    knn_indices,
)
from dsirc.sar import IciConfig, sar
from dsirc.synth import SynthConfig, synth_hsi
from dsirc.unmixing import purity, unmix


def cloud_of(spectra):
    spectra = np.asarray(spectra, dtype=np.float64)
    return PixelCloud(spectra, (1, spectra.shape[0]))


def grid_cloud(rng, rows=12, cols=12, bands=8):
    """Three-class blocky scene on a full grid, classes split by columns."""
    means = np.vstack(
        [
            0.2 + 0.6 * np.abs(np.sin(np.linspace(0, 3, bands) + phase))
            for phase in (0.0, 1.3, 2.6)
        ]
    )
    owner = np.repeat(np.arange(3), [cols // 3, cols // 3, cols - 2 * (cols // 3)])
    cube = np.empty((bands, rows, cols))
    for r in range(rows):
        for c in range(cols):
            cube[:, r, c] = means[owner[c]] + rng.normal(scale=0.015, size=bands)
    return cube_to_cloud(cube), np.tile(owner + 1, rows)


# ---------------------------------------------------------------------------
# density and rank value


def test_auto_sigma0_is_median_kth_neighbor_distance():
    rng = np.random.default_rng(0)
    x = rng.uniform(size=(40, 5))
    k = 7
    per_pixel = []
    for i in range(40):
        d = np.sort([np.linalg.norm(x[i] - x[j]) for j in range(40) if j != i])
        per_pixel.append(d[k - 1])
    assert auto_sigma0(knn_indices(x, k)[1]) == pytest.approx(
        float(np.median(per_pixel)), rel=1e-10
    )


def test_kde_density_matches_naive_sum():
    rng = np.random.default_rng(1)
    x = rng.uniform(size=(35, 4))
    k, sigma0 = 6, 0.37
    f_hat = kde_density(knn_indices(x, k)[1], sigma0)
    want = np.empty(35)
    for i in range(35):
        d2 = np.sort([np.sum((x[i] - x[j]) ** 2) for j in range(35) if j != i])[:k]
        want[i] = float(np.sum(np.exp(-np.asarray(d2) / sigma0**2)))
    np.testing.assert_allclose(f_hat, want / want.max(), rtol=1e-9)
    assert f_hat.max() == 1.0 and f_hat.min() > 0


def test_kde_requires_positive_bandwidth():
    rng = np.random.default_rng(2)
    cloud = cloud_of(rng.uniform(size=(10, 3)))
    distances = knn_indices(cloud.spectra, 3)[1]
    for sigma0 in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="sigma0 must be finite and positive"):
            kde_density(distances, sigma0)


def test_kde_floors_underflowing_rows():
    distances = np.array([[0.1, 0.2], [100.0, 200.0], [0.3, 0.4]])
    with pytest.warns(RuntimeWarning, match="underflows for 1 pixel"):
        f_hat = kde_density(distances, 0.35)
    want = np.exp(-(distances**2) / 0.35**2).sum(axis=1)
    assert want[1] == 0.0
    want[1] = np.finfo(np.float64).tiny
    np.testing.assert_array_equal(f_hat, want / want.max())
    # The floored row is still positive after the normalization.
    assert f_hat.max() == 1.0 and f_hat.min() > 0


def test_zeta_is_harmonic_mean():
    rng = np.random.default_rng(3)
    f_hat = rng.uniform(0.05, 1.0, size=50)
    f_hat[17] = 1.0
    eta_hat = rng.uniform(0.05, 1.0, size=50)
    eta_hat[4] = 1.0
    z = zeta(f_hat, eta_hat)
    np.testing.assert_allclose(z, 2.0 / (1.0 / f_hat + 1.0 / eta_hat), rtol=1e-12)


def test_zeta_hand_value_and_mismatch():
    f_hat = np.array([1.0, 0.5])
    np.testing.assert_allclose(zeta(f_hat, np.array([0.5, 1.0])), [2 / 3, 2 / 3])
    with pytest.raises(ValueError, match="disagree on pixel count"):
        zeta(f_hat, np.array([1.0]))


def test_zeta_of_the_producers_lies_in_unit_interval():
    # The extremes the producers can hand over: the KDE floor's tiny
    # density over a k_n-term maximum, a purity of 1/p from an all-zero
    # abundance row, and 1 for both.
    rng = np.random.default_rng(3)
    distances = np.vstack([[100.0] * 99, rng.uniform(0.0, 0.2, size=(40, 99))])
    with pytest.warns(RuntimeWarning, match="underflows for 1 pixel"):
        f_hat = kde_density(distances, 0.35)
    abund = rng.uniform(size=(41, 36)) * (rng.random((41, 36)) < 0.2)
    abund[:2] = 0.0
    abund[2, 5] = 1.0
    eta_hat = purity(abund)
    for pair in [(f_hat, eta_hat), (f_hat, eta_hat[::-1]), (f_hat[::-1], eta_hat)]:
        z = zeta(*pair)
        assert z.min() > 0 and z.max() <= 1.0
    assert zeta(np.ones(1), np.ones(1))[0] == 1.0


# ---------------------------------------------------------------------------
# rank separation and modes


def ranked(z):
    return np.lexsort((np.arange(z.shape[0]), -z))


def naive_dt(system, z, t):
    embedding = system.embedding(t)
    n = z.shape[0]
    order = ranked(z)
    out = np.full(n, np.nan)
    for pos in range(1, n):
        pixel = order[pos]
        out[pixel] = min(
            float(np.linalg.norm(embedding[pixel] - embedding[p])) for p in order[:pos]
        )
    for special in {int(np.argmin(z)), int(order[0])}:
        out[special] = max(
            float(np.linalg.norm(embedding[special] - embedding[q])) for q in range(n)
        )
    return out


def small_system(seed=4, n=30):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, 3))
    return diffusion_system(knn_graph(knn_indices(x, 5)[0]), n), rng


def test_dt_values_match_naive_loop():
    system, rng = small_system()
    for _ in range(5):
        z = rng.uniform(0.05, 1.0, size=system.n)
        for t in (1.0, 4.0, 30.0):
            np.testing.assert_allclose(
                dt_values(system.embedding(t), z)[0], naive_dt(system, z, t), rtol=1e-12
            )


def test_dt_values_single_pixel():
    dt, parents = dt_values(np.ones((1, 1)), np.array([0.5]))
    np.testing.assert_array_equal(dt, [0.0])
    np.testing.assert_array_equal(parents, [-1])


def test_dt_values_pixel_count_mismatch():
    system, _ = small_system()
    with pytest.raises(ValueError):
        dt_values(system.embedding(2.0), np.full(system.n + 1, 0.5))


def test_select_modes_hand_case_and_ties():
    z = np.array([0.9, 0.5, 0.8])
    np.testing.assert_array_equal(select_modes(z * np.array([1.0, 10.0, 2.0]), 2), [1, 2])
    tie = np.array([0.5, 0.5, 0.25])
    np.testing.assert_array_equal(select_modes(tie * np.array([2.0, 2.0, 4.0]), 3), [0, 1, 2])
    for bad in (0, 4):
        with pytest.raises(ValueError, match="n_clusters"):
            select_modes(z, bad)


def naive_propagate(system, z, modes, t):
    embedding = system.embedding(t)
    n = z.shape[0]
    labels = np.zeros(n, dtype=np.int64)
    for rank, m in enumerate(modes):
        labels[m] = rank + 1
    order = ranked(z)
    for pos, pixel in enumerate(order):
        if labels[pixel]:
            continue
        if pos == 0:
            pool = sorted(int(m) for m in modes)
        else:
            pool = [int(p) for p in order[:pos]]
        best = min(pool, key=lambda p: (float(np.linalg.norm(embedding[pixel] - embedding[p])), p))
        labels[pixel] = labels[best]
    return labels


def propagate(system, z, modes, t):
    embedding = system.embedding(t)
    return propagate_labels(embedding, z, modes, dt_values(embedding, z)[1])


def test_propagate_labels_match_naive_loop():
    system, rng = small_system(seed=5)
    for trial in range(6):
        z = rng.uniform(0.05, 1.0, size=system.n)
        modes = rng.choice(system.n, size=4, replace=False)
        t = float(rng.uniform(1.0, 10.0))
        got = propagate(system, z, modes, t)
        np.testing.assert_array_equal(got, naive_propagate(system, z, modes, t))


def test_propagate_top_pixel_falls_back_to_nearest_mode():
    system, rng = small_system(seed=6)
    z = rng.uniform(0.05, 0.9, size=system.n)
    top = 11
    z[top] = 1.0
    modes = np.array([m for m in (0, 1, 2) if m != top])
    got = propagate(system, z, modes, 3.0)
    assert got[top] in (1, 2, 3)
    np.testing.assert_array_equal(got, naive_propagate(system, z, modes, 3.0))


def test_propagate_top_pixel_ties_go_to_the_smaller_mode():
    # Pixel 0 ranks first and is no mode; modes 1 and 3 share one embedding
    # row at its nearest distance, so it takes mode 1's label in any order.
    embedding = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0], [1.0, 0.0]])
    z = np.array([1.0, 0.5, 0.4, 0.3])
    parents = dt_values(embedding, z)[1]
    for modes in ([3, 1, 2], [1, 3, 2], [2, 3, 1]):
        labels = propagate_labels(embedding, z, modes, parents)
        assert labels[0] == labels[1] == modes.index(1) + 1


def test_propagate_modes_keep_their_own_labels():
    system, rng = small_system(seed=7)
    z = rng.uniform(0.05, 1.0, size=system.n)
    modes = np.array([9, 3, 21])
    got = propagate(system, z, modes, 2.0)
    assert got[9] == 1
    assert got[3] == 2
    assert got[21] == 3
    assert set(np.unique(got)) <= {1, 2, 3}


def test_propagate_validation():
    system, _ = small_system()
    z = np.full(system.n, 0.5)
    with pytest.raises(ValueError):
        propagate(system, z, [], 1.0)
    with pytest.raises(ValueError):
        propagate(system, z, [1, 1], 1.0)
    with pytest.raises(ValueError):
        propagate(system, z, [system.n], 1.0)


def naive_parents(system, z, t):
    embedding = system.embedding(t)
    order = ranked(z)
    parents = np.full(z.shape[0], -1)
    for pos in range(1, z.shape[0]):
        pixel = order[pos]
        parents[pixel] = min(
            order[:pos],
            key=lambda p: (float(np.linalg.norm(embedding[pixel] - embedding[p])), p),
        )
    return parents


def tied_system(seed=12, n=40, span=3, dims=2):
    """A system whose embedding rows are small integer points, many of them
    duplicated, so exact diffusion-distance ties are everywhere."""
    rng = np.random.default_rng(seed)
    rng.uniform(size=(n, 3))  # unused spectra draw; the points follow it in the stream
    points = rng.integers(0, span, size=(n, dims)).astype(np.float64)
    return DiffusionSystem(np.ones(dims), points), rng


def test_parents_break_exact_ties_by_smaller_index():
    system, rng = tied_system()
    embedding = system.embedding(1.0)
    for _ in range(5):
        z = rng.uniform(0.05, 1.0, size=system.n)
        dt, parents = dt_values(embedding, z)
        want = naive_parents(system, z, 1.0)
        np.testing.assert_array_equal(parents, want)
        np.testing.assert_allclose(dt, naive_dt(system, z, 1.0), rtol=1e-12)
        order = ranked(z)
        tied = 0
        for pos in range(1, system.n):
            d = np.linalg.norm(embedding[order[:pos]] - embedding[order[pos]], axis=1)
            tied += int(np.count_nonzero(d == d.min()) > 1)
        assert tied > 0
        modes = rng.choice(system.n, size=3, replace=False)
        got = propagate_labels(embedding, z, modes, parents)
        np.testing.assert_array_equal(got, naive_propagate(system, z, modes, 1.0))


def push_scan(system, z, t):
    """``dt_values`` as a push loop: each visited pixel pushes its distance
    to every pixel, keeping each one's running nearest source."""
    n = z.shape[0]
    embedding = system.embedding(t)
    order = ranked(z)
    best_dist = np.full(n, np.inf)
    best_source = np.full(n, -1, dtype=np.intp)
    dt = np.empty(n)
    parents = np.empty(n, dtype=np.intp)
    for pixel in order:
        dt[pixel] = best_dist[pixel]
        parents[pixel] = best_source[pixel]
        column = np.linalg.norm(embedding - embedding[pixel], axis=1)
        better = (column < best_dist) | ((column == best_dist) & (pixel < best_source))
        best_dist[better] = column[better]
        best_source[better] = pixel
    for special in {int(np.argmin(z)), int(order[0])}:
        dt[special] = float(np.linalg.norm(embedding - embedding[special], axis=1).max())
    return dt, parents


def test_dt_values_equal_push_scan():
    cases = [(small_system()[0], t) for t in (1.0, 4.0, 30.0)] + [(tied_system()[0], 1.0)]
    rng = np.random.default_rng(13)
    for system, t in cases:
        for _ in range(5):
            z = rng.uniform(0.05, 1.0, size=system.n)
            dt, parents = dt_values(system.embedding(t), z)
            want_dt, want_parents = push_scan(system, z, t)
            np.testing.assert_array_equal(dt, want_dt)
            np.testing.assert_array_equal(parents, want_parents)


def test_dt_values_read_any_layout_alike():
    # A Fortran-ordered embedding is read as its C-ordered copy, so the row
    # norms, which reduce differently over strided rows, keep their bits.
    system, rng = screen_system()
    for t in (1.0, 4.0, 30.0):
        embedding = system.embedding(t)
        z = rng.uniform(0.05, 1.0, size=system.n)
        want_dt, want_parents = dt_values(embedding, z)
        dt, parents = dt_values(np.asfortranarray(embedding), z)
        np.testing.assert_array_equal(dt, want_dt)
        np.testing.assert_array_equal(parents, want_parents)


def tree_queries(monkeypatch):
    """Make the k-d tree of ``dt_values`` log each query's ``(rows, k)``;
    returns the log."""
    log = []

    class RecordingTree(cKDTree):
        def query(self, x, k, **kwargs):
            log.append((len(x), k))
            return super().query(x, k=k, **kwargs)

    monkeypatch.setattr(clustering, "cKDTree", RecordingTree)
    return log


def pending_per_round(log):
    """``(k, pixels queried)`` for each round of a ``dt_values`` call, whose
    rounds widen k and may split their pixels over several queries."""
    rounds = {}
    for rows, k in log:
        rounds[k] = rounds.get(k, 0) + rows
    return list(rounds.items())


def screen_system(seed=4, n=300):
    """A pipeline-shaped system: 50 eigenpairs of a few hundred pixels, so
    the 32 tree neighbours are a small part of the cloud."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, 3))
    return diffusion_system(knn_graph(knn_indices(x, 5)[0]), 50), rng


def assert_screened_scan_equals_push_scan(monkeypatch, system, t, rng, rounds_ok, trials=3):
    log = tree_queries(monkeypatch)
    for _ in range(trials):
        z = rng.uniform(0.05, 1.0, size=system.n)
        log.clear()
        dt, parents = dt_values(system.embedding(t), z)
        want_dt, want_parents = push_scan(system, z, t)
        np.testing.assert_array_equal(dt, want_dt)
        np.testing.assert_array_equal(parents, want_parents)
        rounds = pending_per_round(log)
        # Round 1 queries every pixel below the top at _TREE_K neighbours.
        assert rounds[0] == (_TREE_K, system.n - 1)
        assert all(rows * k <= system.n * _TREE_K for rows, k in log)
        assert rounds_ok(rounds)


def test_screened_scan_equals_push_scan_beyond_tree_reach(monkeypatch):
    system, rng = screen_system()
    for t in (1.0, 4.0, 30.0):
        assert_screened_scan_equals_push_scan(
            monkeypatch,
            system,
            t,
            rng,
            lambda rounds: len(rounds) > 1 and 0 < rounds[1][1] < system.n // 4,
        )


def test_screened_scan_equals_push_scan_on_duplicate_lattice(monkeypatch):
    # 300 points on a 4x4x4 lattice: every row has twins, which the tree can
    # return before the row itself, and exact ties sit on the d* bound.
    system, rng = tied_system(seed=12, n=300, span=4, dims=3)
    embedding = system.embedding(1.0)
    assert np.unique(embedding, axis=0).shape[0] < system.n // 4
    assert_screened_scan_equals_push_scan(
        monkeypatch,
        system,
        1.0,
        rng,
        lambda rounds: len(rounds) > 1 and 0 < rounds[1][1] < system.n // 2,
        trials=5,
    )


def test_screened_scan_equals_push_scan_on_collapsed_embedding(monkeypatch):
    # At a large enough t every weight but the stationary one underflows to
    # 0, so the embedding is the constant stationary column: every tree
    # distance is 0, and no pixel settles before its query holds all n rows.
    def widens_to_n(rounds):
        return rounds[-1][0] == system.n and all(rows == system.n - 1 for _, rows in rounds)

    system, rng = screen_system(seed=5)
    vectors = system.eigenvectors.copy()
    vectors[:, 0] = 1.0
    constant = DiffusionSystem(system.eigenvalues, vectors)
    assert np.all(constant.embedding(1e9) == constant.embedding(1e9)[0])
    assert_screened_scan_equals_push_scan(monkeypatch, constant, 1e9, rng, widens_to_n)
    # The computed system's stationary pair is exact, so it collapses too.
    assert_screened_scan_equals_push_scan(monkeypatch, system, 1e9, rng, widens_to_n)


def test_screened_scan_gathers_in_slices_on_collapsed_embedding():
    # On a collapsed embedding every predecessor in a query block is a
    # candidate, up to n * _TREE_K of them.  Their exact distances are
    # gathered a slice at a time: the peak is three embedding-sized arrays
    # (the embedding and the special pixels' distances), 64 bytes per query
    # entry, and three gathered slices, well under one unsliced gather.
    system, rng = screen_system(seed=5, n=1000)
    vectors = system.eigenvectors.copy()
    vectors[:, 0] = 1.0
    constant = DiffusionSystem(system.eigenvalues, vectors)
    n, dims = vectors.shape
    z = rng.uniform(0.05, 1.0, size=n)
    tracemalloc.start()
    try:
        dt, parents = dt_values(constant.embedding(1e9), z)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    want_dt, want_parents = push_scan(constant, z, 1e9)
    np.testing.assert_array_equal(dt, want_dt)
    np.testing.assert_array_equal(parents, want_parents)
    bound = 3 * n * dims * 8 + 64 * n * _TREE_K + 3 * 8 * _BLOCK_ELEMENTS
    assert bound < n * _TREE_K * dims * 8
    assert peak <= bound


# ---------------------------------------------------------------------------
# full pipelines


def test_dsirc_with_unit_lengths_equals_dvic():
    rng = np.random.default_rng(8)
    cloud, _ = grid_cloud(rng)
    base = ClusterConfig(n_clusters=3, k_n=50, t=10.0, n_endmembers=3, seed=0)
    unit = ClusterConfig(
        n_clusters=3, k_n=50, t=10.0, n_endmembers=3, seed=0, lengths=(1,)
    )
    np.testing.assert_array_equal(
        dsirc(cloud, unit).labels.labels, dvic(cloud, base).labels.labels
    )


def test_dsirc_recovers_blocky_scene():
    rng = np.random.default_rng(9)
    cloud, owner = grid_cloud(rng)
    got = dsirc(cloud, ClusterConfig(n_clusters=3, k_n=50, t=10.0, n_endmembers=3, seed=1))
    labels = got.labels.labels
    assert labels.shape == (cloud.n,)
    assert set(np.unique(labels)) == {1, 2, 3}
    assert got.modes is not None and got.modes.shape == (3,)
    assert got.scores is not None and got.scores.shape == (cloud.n,)
    # each true class should be dominated by a single predicted label
    for cls in (1, 2, 3):
        counts = np.bincount(labels[owner == cls])
        assert counts.max() / counts.sum() >= 0.9


@pytest.mark.parametrize("pipeline", [dsirc, dvic])
def test_public_stages_compose_to_the_pipeline(pipeline):
    # The public stages called one by one, in the pipeline's order, give its
    # labels, modes and scores bit for bit; dsirc searches the SaR spectra.
    cloud = cube_to_cloud(synth_hsi(SynthConfig(height=20, width=20, bands=12, seed=0)).cube)
    config = ClusterConfig(n_clusters=4, k_n=30, t=10.0, tau=2.0, seed=0)
    model = unmix(cloud, restarts=config.restarts, rng=np.random.default_rng(config.seed))
    eta_hat = purity(model.abundances)
    distances = knn_indices(cloud.spectra, config.k_n)[1]
    z = zeta(kde_density(distances, auto_sigma0(distances)), eta_hat)
    spectra = cloud.spectra
    if pipeline is dsirc:
        spectra = sar(cloud, IciConfig(tau=config.tau, lengths=config.lengths)).spectra
    graph = knn_graph(knn_indices(spectra, config.k_n)[0])
    system = diffusion_system(graph, min(cloud.n, max(2 * config.n_clusters, 50)))
    embedding = system.embedding(config.t)
    dt, parents = dt_values(embedding, z)
    modes = select_modes(z * dt, config.n_clusters)
    labels = propagate_labels(embedding, z, modes, parents)
    want = pipeline(cloud, config)
    assert set(np.unique(labels)) == {1, 2, 3, 4}
    np.testing.assert_array_equal(labels, want.labels.labels)
    np.testing.assert_array_equal(modes, want.modes)
    np.testing.assert_array_equal(z * dt, want.scores)


@pytest.mark.parametrize("pipeline", [dsirc, dvic])
def test_saturated_pixel_is_floored_not_fatal(pipeline):
    # One pixel at 50 in every band is so far from the rest that each of its
    # KDE terms underflows to 0.
    cloud = cube_to_cloud(synth_hsi(SynthConfig(seed=0)).cube)
    spectra = cloud.spectra.copy()
    spectra[5] = 50.0
    with pytest.warns(RuntimeWarning, match="underflows for 1 pixel"):
        got = pipeline(PixelCloud(spectra, cloud.grid), ClusterConfig(n_clusters=4, seed=0))
    assert set(np.unique(got.labels.labels)) == {1, 2, 3, 4}


def test_mode_grid_carries_on_past_a_disconnected_graph():
    # Two far-apart blobs of 20: k_n = 4 keeps each blob's graph to itself,
    # k_n = 25 joins them.  The grid maps both k_n = 4 keys to the error and
    # still runs k_n = 25, equal to a dvic run; dvic at k_n = 4 raises.
    rng = np.random.default_rng(16)
    cloud = cloud_of(np.vstack([rng.uniform(size=(20, 3)), rng.uniform(size=(20, 3)) + 50.0]))
    config = ClusterConfig(n_clusters=2, n_endmembers=2, seed=0)
    grid = mode_grid(cloud, config, [4, 25], [10.0, 30.0])
    assert list(grid) == [
        (4, 10.0, None, 0), (4, 30.0, None, 0), (25, 10.0, None, 0), (25, 30.0, None, 0)
    ]
    assert grid[4, 10.0, None, 0] is grid[4, 30.0, None, 0]
    assert isinstance(grid[4, 10.0, None, 0], DisconnectedGraphError)
    for t in (10.0, 30.0):
        want = dvic(cloud, replace(config, k_n=25, t=t))
        np.testing.assert_array_equal(grid[25, t, None, 0].labels.labels, want.labels.labels)
    with pytest.raises(DisconnectedGraphError, match="2 connected components"):
        dvic(cloud, replace(config, k_n=4))


def test_disconnected_graph_error_holds_no_graph(monkeypatch):
    # The grid's stored error carries no traceback, whose frames would keep
    # that graph, and the last system's, alive for as long as the results.
    graphs = []
    build = clustering.knn_graph

    def built(neighbors):
        graph = build(neighbors)
        graphs.append(weakref.ref(graph))
        return graph

    monkeypatch.setattr(clustering, "knn_graph", built)
    rng = np.random.default_rng(16)
    cloud = cloud_of(np.vstack([rng.uniform(size=(20, 3)), rng.uniform(size=(20, 3)) + 50.0]))
    grid = mode_grid(cloud, ClusterConfig(n_clusters=2, n_endmembers=2, seed=0), [4, 25], [10.0])
    assert isinstance(grid[4, 10.0, None, 0], DisconnectedGraphError)
    assert len(graphs) == 2 and all(ref() is None for ref in graphs)


@pytest.mark.parametrize("taus", [None, [1.0, 2.0]], ids=["dvic", "dsirc"])
def test_seed_axis_equals_one_seed_grids(taus):
    # Each seed's results equal a grid run at that seed alone, key for key.
    # One AVMAX restart for six endmembers of three classes makes the two
    # seeds' purities, and so their labels, differ; k_n = 4 keeps each
    # class's graph to itself, so its error is stored under both seeds.
    cloud, _ = grid_cloud(np.random.default_rng(17))
    config = ClusterConfig(n_clusters=3, restarts=1, n_endmembers=6)
    grid = mode_grid(cloud, config, [4, 50], [10.0, 30.0], taus, [0, 1])
    alone = {}
    for seed in (0, 1):
        alone.update(mode_grid(cloud, replace(config, seed=seed), [4, 50], [10.0, 30.0], taus))
    assert set(grid) == set(alone)
    for (k_n, t, tau, seed), want in alone.items():
        got = grid[k_n, t, tau, seed]
        if k_n == 4:
            assert isinstance(got, DisconnectedGraphError) and str(got) == str(want)
            continue
        np.testing.assert_array_equal(got.labels.labels, want.labels.labels)
        np.testing.assert_array_equal(got.modes, want.modes)
        np.testing.assert_array_equal(got.scores, want.scores)
    assert any(
        not np.array_equal(grid[50, t, tau, 0].labels.labels, grid[50, t, tau, 1].labels.labels)
        for t in (10.0, 30.0)
        for tau in taus or [None]
    )


@pytest.mark.parametrize(
    "taus", [[None, 1.0, 2.0], [2.0, None, 1.0]], ids=["none-first", "none-between"]
)
def test_mixed_taus_equal_the_raw_and_reconstructed_grids(taus):
    # τ = None beside numbers gives, key for key, the union of the raw
    # ([None]) and reconstructed ([1.0, 2.0]) grids, wherever None stands;
    # k_n = 4 splits every graph, raw or reconstructed.
    cloud, _ = grid_cloud(np.random.default_rng(17))
    config = ClusterConfig(n_clusters=3, restarts=1, n_endmembers=6)
    grid = mode_grid(cloud, config, [4, 50], [10.0, 30.0], taus, [0, 1])
    alone = mode_grid(cloud, config, [4, 50], [10.0, 30.0], [None], [0, 1])
    alone.update(mode_grid(cloud, config, [4, 50], [10.0, 30.0], [1.0, 2.0], [0, 1]))
    assert set(grid) == set(alone) and len(grid) == 24
    assert {tau for _, _, tau, _ in grid} == {None, 1.0, 2.0}
    for key, want in alone.items():
        got = grid[key]
        if key[0] == 4:
            assert isinstance(got, DisconnectedGraphError) and str(got) == str(want)
            continue
        np.testing.assert_array_equal(got.labels.labels, want.labels.labels)
        np.testing.assert_array_equal(got.modes, want.modes)
        np.testing.assert_array_equal(got.scores, want.scores)
    # The three graphs give different scores, so a mix-up of two would show.
    for a, b in itertools.combinations([None, 1.0, 2.0], 2):
        assert not np.array_equal(grid[50, 10.0, a, 0].scores, grid[50, 10.0, b, 0].scores)


def test_diffusion_system_is_reproducible():
    # ARPACK draws its restart vectors from a generator; a fixed one makes
    # identical calls return identical eigenpairs, trailing
    # near-degenerate columns included.
    cloud, _ = grid_cloud(np.random.default_rng(17))
    graph = knn_graph(knn_indices(cloud.spectra, 50)[0])
    first, *others = [diffusion_system(graph, 50) for _ in range(3)]
    for other in others:
        np.testing.assert_array_equal(other.eigenvalues, first.eigenvalues)
        np.testing.assert_array_equal(other.eigenvectors, first.eigenvectors)


@pytest.mark.parametrize(
    "taus, seeds",
    [(None, [0]), ([1.0, 2.0], [0]), ([1.0, 2.0], [0, 1]), ([None, 1.0, 2.0], [0])],
    ids=["dvic", "dsirc", "dsirc-seeds2", "mixed"],
)
def test_scan_holds_no_graph(monkeypatch, taus, seeds):
    # The scan and labelling read only the eigenpairs, so every graph is
    # gone by the time each predecessor scan starts.
    graphs, scans = [], []
    build, scan = clustering.knn_graph, clustering.dt_values

    def built(neighbors):
        graph = build(neighbors)
        graphs.append(weakref.ref(graph))
        return graph

    def scanned(*args):
        assert all(ref() is None for ref in graphs)
        scans.append(len(graphs))
        return scan(*args)

    monkeypatch.setattr(clustering, "knn_graph", built)
    monkeypatch.setattr(clustering, "dt_values", scanned)
    cloud, _ = grid_cloud(np.random.default_rng(17))
    config = ClusterConfig(n_clusters=3, n_endmembers=3, seed=0)
    mode_grid(cloud, config, [50, 60], [10.0, 30.0], taus, seeds)
    n_graphs = 2 * len(taus or [None])
    assert scans == [graph for graph in range(1, n_graphs + 1) for _ in range(2 * len(seeds))]


def test_mode_grid_forms_each_embedding_once(monkeypatch):
    # Each (k_n, t) embedding is formed once and read by both seeds' scans
    # and labellings.
    calls = []
    embedding = DiffusionSystem.embedding

    def counted(system, t):
        calls.append(t)
        return embedding(system, t)

    monkeypatch.setattr(DiffusionSystem, "embedding", counted)
    cloud, _ = grid_cloud(np.random.default_rng(17))
    config = ClusterConfig(n_clusters=3, n_endmembers=3)
    grid = mode_grid(cloud, config, [50, 60], [10.0, 30.0], seeds=[0, 1])
    assert len(grid) == 8
    assert calls == [10.0, 30.0] * 2


@pytest.mark.parametrize(
    "knob, value",
    [("n_clusters", 1601), ("k_n", 1600), ("n_endmembers", 31), ("n_eigenpairs", 1601)],
)
def test_mode_grid_checks_the_cloud_before_any_stage(monkeypatch, knob, value):
    # 1,601 clusters or eigenpairs exceed the 1,600 pixels, a k_n of 1,600
    # is not below them, and 31 endmembers exceed the 30 bands; each is
    # rejected before unmixing starts.
    def unmix(*args, **kwargs):
        raise AssertionError("unmixing ran before the knobs were checked")

    monkeypatch.setattr(clustering, "unmix", unmix)
    cloud = cube_to_cloud(synth_hsi(SynthConfig()).cube)
    config = replace(ClusterConfig(n_clusters=4, seed=0), **{knob: value})
    with pytest.raises(ValueError, match=knob):
        mode_grid(cloud, config, [config.k_n], [config.t], [config.tau])


def test_one_knn_search_per_cloud(monkeypatch):
    # One unmixing per seed and one search of the raw spectra (the
    # bandwidth, density and raw graph), then one reconstruction and one
    # search of it per numeric tau: dvic, dsirc, and both in one grid.
    # Spectral clustering's grid neither unmixes nor reconstructs: its two
    # k_n and two seeds read one search of the raw spectra.
    calls = {name: [] for name in ("knn_indices", "unmix", "sar")}

    def counting(name):
        stage = getattr(clustering, name)

        def counted(*args, **kwargs):
            calls[name].append(args[0])
            return stage(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(clustering, name, counting(name))
    cloud, _ = grid_cloud(np.random.default_rng(13))
    config = ClusterConfig(n_clusters=3, k_n=50, t=10.0, n_endmembers=3, seed=0)

    def mixed(cloud, config):
        return mode_grid(cloud, config, [50, 60], [10.0], [None, 1.0, 2.0], [0, 1])

    def spectral(cloud, config):
        return clustering._spectral_grid(cloud, config, [50, 60], [0, 1])

    runs = [(dvic, 1, 0), (dsirc, 1, 1), (mixed, 2, 2), (spectral, 0, 0)]
    for run, n_unmixings, n_clouds in runs:
        for called in calls.values():
            called.clear()
        run(cloud, config)
        assert len(calls["unmix"]) == n_unmixings
        assert len(calls["sar"]) == n_clouds
        raw = [spectra is cloud.spectra for spectra in calls["knn_indices"]]
        assert raw == [True] + [False] * n_clouds


@pytest.mark.parametrize(
    "run, k_ns, last_ks, n_clouds",
    [
        (dvic, [50], [True], 0),
        (dsirc, [50], [True], 1),
        (lambda cloud, config: mode_grid(cloud, config, [50, 60], [10.0, 30.0], [1.0, 2.0]),
         [50, 60], [False, True, False, True], 2),
        (lambda cloud, config: mode_grid(cloud, config, [50, 60], [10.0], [None, 1.0, 2.0]),
         [50, 60], [False, True] * 3, 2),
        (lambda cloud, config: clustering._spectral_grid(cloud, config, [50, 60], [0, 1]),
         [50, 60], [False, True], 0),
    ],
    ids=["dvic", "dsirc", "mode_grid", "mixed", "sc"],
)
def test_eigensolve_holds_no_consumed_input(monkeypatch, run, k_ns, last_ks, n_clouds):
    # Weak references to every search's outputs, reconstructed cloud, graph
    # and eigensystem (and its eigenvectors).  At each eigsh entry no
    # distance array, no reconstructed cloud and no earlier eigensystem is
    # alive, one graph is, and a neighbour array only while a larger k_n of
    # its search is still to come.  No scan output is alive either, and
    # once a reconstruction has run the raw search's neighbours are gone.
    searches, clouds, graphs, last_k, entered, scans = [], [], [], [], [], []
    systems = []
    search, reconstruct, build = clustering.knn_indices, clustering.sar, clustering.knn_graph
    scan, eigensystem = clustering.dt_values, clustering.diffusion_system
    eigsh = scipy.sparse.linalg.eigsh

    def searched(spectra, k_n):
        neighbors, distances = search(spectra, k_n)
        searches.append((weakref.ref(neighbors), weakref.ref(distances)))
        return neighbors, distances

    def reconstructed(cloud, config):
        # Each reconstruction starts with no search's neighbours alive.
        assert all(neighbors() is None for neighbors, _ in searches)
        out = reconstruct(cloud, config)
        clouds.append(weakref.ref(out))
        clouds.append(weakref.ref(out.spectra))
        return out

    def built(neighbors):
        graph = build(neighbors)
        graphs.append(weakref.ref(graph))
        last_k.append(neighbors.shape[1] == k_ns[-1])
        return graph

    def scanned(embedding, z):
        dt, parents = scan(embedding, z)
        scans.extend([weakref.ref(dt), weakref.ref(parents)])
        return dt, parents

    def solved(graph, n_pairs):
        system = eigensystem(graph, n_pairs)
        systems.extend([weakref.ref(system), weakref.ref(system.eigenvectors)])
        return system

    def solve(s_matrix, **kw):
        def alive(refs):
            return sum(ref() is not None for ref in refs)

        assert alive(distances for _, distances in searches) == 0
        assert alive(scans) == 0
        assert alive(systems) == 0
        assert alive(clouds) == 0
        assert alive(graphs) == 1
        assert alive(neighbors for neighbors, _ in searches) == (0 if last_k[-1] else 1)
        assert not clouds or searches[0][0]() is None
        entered.append(last_k[-1])
        return eigsh(s_matrix, **kw)

    monkeypatch.setattr(clustering, "knn_indices", searched)
    monkeypatch.setattr(clustering, "sar", reconstructed)
    monkeypatch.setattr(clustering, "knn_graph", built)
    monkeypatch.setattr(clustering, "dt_values", scanned)
    monkeypatch.setattr(clustering, "diffusion_system", solved)
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", solve)
    cloud, _ = grid_cloud(np.random.default_rng(17))
    config = ClusterConfig(n_clusters=3, k_n=50, t=10.0, n_endmembers=3, seed=0)
    run(cloud, config)
    assert entered == last_k == last_ks
    assert len(clouds) == 2 * n_clouds
    assert len(systems) == 2 * len(last_ks)


def test_pipeline_validation():
    rng = np.random.default_rng(10)
    cloud, _ = grid_cloud(rng, rows=4, cols=6)
    with pytest.raises(ValueError):
        dvic(cloud, ClusterConfig(n_clusters=25, k_n=5))
    with pytest.raises(ValueError):
        dvic(cloud, ClusterConfig(n_clusters=2, k_n=24))


@pytest.mark.parametrize("taus", [None, [2.0]])
def test_zero_automatic_bandwidth_names_its_cause(taus):
    # A zero-filled no-data block over 160 of 256 pixels: more than half the
    # pixels have k_n exact duplicates, so the median k_n-th distance is 0.
    cloud = cube_to_cloud(synth_hsi(SynthConfig(height=16, width=16, bands=12, seed=0)).cube)
    spectra = cloud.spectra.copy()
    spectra[: 10 * 16] = 0.0
    cloud = PixelCloud(spectra, cloud.grid)
    cause = (
        "the automatic sigma0 is 0 at k_n = 100: at least half the pixels have 100 "
        "or more exact duplicate spectra; pass sigma0 or a larger k_n"
    )
    with pytest.raises(ValueError) as raised:
        mode_grid(cloud, ClusterConfig(n_clusters=4, k_n=100, seed=0), [100], [30.0], taus)
    assert str(raised.value) == cause


def test_cluster_config_validation():
    with pytest.raises(ValueError):
        ClusterConfig(n_clusters=0)
    with pytest.raises(ValueError):
        ClusterConfig(n_clusters=2, k_n=0)
    with pytest.raises(ValueError):
        ClusterConfig(n_clusters=2, sigma0=0.0)
    with pytest.raises(ValueError, match="sigma0 must be finite and positive"):
        ClusterConfig(n_clusters=2, sigma0=float("inf"))
    with pytest.raises(ValueError):
        ClusterConfig(n_clusters=2, t=-1.0)
    with pytest.raises(ValueError):
        ClusterConfig(n_clusters=2, t=float("nan"))
    with pytest.raises(ValueError):
        ClusterConfig(n_clusters=2, t=float("inf"))
    with pytest.raises(ValueError):
        ClusterConfig(n_clusters=2, restarts=0)
    with pytest.raises(ValueError):
        ClusterConfig(n_clusters=2, n_endmembers=0)
    with pytest.raises(ValueError):
        ClusterConfig(n_clusters=2, n_eigenpairs=0)
    with pytest.raises(ValueError, match="seed"):
        ClusterConfig(n_clusters=2, seed=-1)
    with pytest.raises(ValueError):
        ClusterConfig(n_clusters=2, tau=0.0)
    with pytest.raises(ValueError, match="tau must be finite and positive"):
        ClusterConfig(n_clusters=2, tau=float("inf"))
    with pytest.raises(ValueError):
        ClusterConfig(n_clusters=2, lengths=(2, 1))
    assert ClusterConfig(n_clusters=2, lengths=[1.0, 2.0]).lengths == (1, 2)


# ---------------------------------------------------------------------------
# baselines


def exhaustive_kmeans_objective(x, k):
    best = np.inf
    for assignment in itertools.product(range(k), repeat=x.shape[0]):
        labels = np.asarray(assignment)
        if len(set(assignment)) < k:
            continue
        obj = 0.0
        for j in range(k):
            pts = x[labels == j]
            obj += float(((pts - pts.mean(axis=0)) ** 2).sum())
        best = min(best, obj)
    return best


def test_kmeans_attains_exhaustive_optimum_on_tiny_data():
    rng = np.random.default_rng(11)
    for trial in range(6):
        centers = rng.uniform(0.0, 10.0, size=(3, 2))
        x = np.vstack([c + rng.normal(scale=0.3, size=(3, 2)) for c in centers])
        got = kmeans(cloud_of(x), ClusterConfig(n_clusters=3, restarts=10, seed=trial))
        labels = got.labels.labels
        obj = 0.0
        for j in (1, 2, 3):
            pts = x[labels == j]
            assert pts.size
            obj += float(((pts - pts.mean(axis=0)) ** 2).sum())
        assert obj == pytest.approx(exhaustive_kmeans_objective(x, 3), rel=1e-9, abs=1e-12)


def test_kmeans_labels_numbered_by_first_appearance():
    rng = np.random.default_rng(12)
    x = rng.uniform(size=(30, 3))
    config = ClusterConfig(n_clusters=4, seed=3)
    labels = kmeans(cloud_of(x), config).labels.labels
    seen = list(dict.fromkeys(labels.tolist()))
    assert seen == [1, 2, 3, 4]
    # The same as the best run's labels renumbered by a plain loop (min
    # keeps the first of equal objectives).
    draws = np.random.default_rng(config.seed)
    runs = [_lloyd(x, 4, draws) for _ in range(config.restarts)]
    best = min(runs, key=lambda run: run[1])[0]
    remap = {}
    for label in best.tolist():
        remap.setdefault(label, len(remap) + 1)
    np.testing.assert_array_equal(labels, [remap[label] for label in best.tolist()])


def test_kmeans_deterministic_and_validated(monkeypatch):
    rng = np.random.default_rng(13)
    x = rng.uniform(size=(25, 4))
    config = ClusterConfig(n_clusters=3, k_n=5, seed=5)
    a = kmeans(cloud_of(x), config).labels.labels
    b = kmeans(cloud_of(x), config).labels.labels
    np.testing.assert_array_equal(a, b)
    with pytest.raises(ValueError, match="n_clusters must be at least 1"):
        replace(config, n_clusters=0)
    with pytest.raises(ValueError, match="restarts must be at least 1"):
        replace(config, restarts=0)
    # A value the cloud cannot support fails with mode_grid's reason, and
    # spectral clustering finds it before its KNN search.
    too_many = replace(config, n_clusters=26)
    with pytest.raises(ValueError) as from_grid:
        mode_grid(cloud_of(x), too_many, [5], [10.0])
    assert str(from_grid.value) == "bad n_clusters value 26: more clusters than the 25 pixels"
    with pytest.raises(ValueError) as from_kmeans:
        kmeans(cloud_of(x), too_many)
    assert str(from_kmeans.value) == str(from_grid.value)

    def no_search(*args, **kwargs):
        raise AssertionError("the KNN search ran before the cloud's limits were checked")

    monkeypatch.setattr(clustering, "knn_indices", no_search)
    for field, value, reason in (
        ("n_clusters", 26, "more clusters than the 25 pixels"),
        ("k_n", 25, "not below the pixel count 25"),
    ):
        with pytest.raises(ValueError) as from_sc:
            spectral_clustering(cloud_of(x), replace(config, **{field: value}))
        assert str(from_sc.value) == f"bad {field} value {value}: {reason}"


def test_kmeans_survives_duplicate_heavy_data():
    x = np.array([[0.0], [0.0], [0.0], [0.0], [10.0], [10.0]])
    labels = kmeans(cloud_of(x), ClusterConfig(n_clusters=3, seed=0)).labels.labels
    assert set(np.unique(labels)) == {1, 2, 3}


def test_lloyd_warns_at_its_iteration_cap():
    # Convergence is an assignment equal to the previous one, so one
    # iteration never converges; at a cap of 2 the second iteration still
    # moved a point, so this data does not converge in one step either.
    x = np.random.default_rng(0).uniform(size=(60, 2))
    for cap in (1, 2):
        with pytest.warns(RuntimeWarning, match=f"cap of {cap} iterations"):
            _lloyd(x, 3, np.random.default_rng(0), max_iter=cap)
    # The suite turns warnings into errors, so the default cap is silent here.
    labels, _ = _lloyd(x, 3, np.random.default_rng(0))
    assert set(np.unique(labels)) == {0, 1, 2}


def test_spectral_clustering_splits_two_blobs():
    rng = np.random.default_rng(14)
    blob_a = rng.normal(scale=0.2, size=(30, 3))
    blob_b = rng.normal(scale=0.2, size=(30, 3)) + 5.0
    cloud = cloud_of(np.vstack([blob_a, blob_b]))
    got = spectral_clustering(cloud, ClusterConfig(n_clusters=2, k_n=30, seed=0))
    labels = got.labels.labels
    count_a = np.bincount(labels[:30], minlength=3)
    count_b = np.bincount(labels[30:], minlength=3)
    assert count_a.max() >= 27 and count_b.max() >= 27
    assert count_a.argmax() != count_b.argmax()


# On these eigenvector clouds k-means' labels change with the seed at K = 4
# and with the restart count at K = 8, so both must reach kmeans as given.
@pytest.mark.parametrize(
    "n_clusters, k_n, restarts, seed", [(2, 20, 1, 0), (4, 30, 3, 2), (8, 20, 3, 3)]
)
def test_spectral_clustering_is_kmeans_on_its_eigenvector_cloud(n_clusters, k_n, restarts, seed):
    cloud = cube_to_cloud(synth_hsi(SynthConfig(height=16, width=16, bands=10, seed=seed)).cube)
    config = ClusterConfig(n_clusters=n_clusters, k_n=k_n, restarts=restarts, seed=seed)
    system = diffusion_system(knn_graph(knn_indices(cloud.spectra, k_n)[0]), n_clusters)
    eigenvector_cloud = PixelCloud(system.eigenvectors, cloud.grid)
    # The eigenvectors are C-ordered float64 with K columns, taken as they are.
    assert eigenvector_cloud.spectra is system.eigenvectors
    assert system.eigenvectors.shape == (cloud.n, n_clusters)
    want = kmeans(eigenvector_cloud, config)
    got = spectral_clustering(cloud, config)
    assert got.labels.labels.dtype == want.labels.labels.dtype
    np.testing.assert_array_equal(got.labels.labels, want.labels.labels)
    assert got.modes is None and got.scores is None


def test_spectral_grid_equals_one_cell_runs():
    # Every (k_n, seed) of the grid equals spectral_clustering with those
    # knobs, though the grid searches once and solves once per k_n.  Each
    # class has 48 pixels, so k_n = 4 keeps each class's graph to itself and
    # its error is stored under every seed.
    cloud, _ = grid_cloud(np.random.default_rng(17))
    config = ClusterConfig(n_clusters=3, restarts=1)
    grid = clustering._spectral_grid(cloud, config, [4, 50, 60], [0, 1, 2])
    assert list(grid) == list(itertools.product([4, 50, 60], [0, 1, 2]))
    with pytest.raises(DisconnectedGraphError) as raised:
        spectral_clustering(cloud, replace(config, k_n=4, seed=0))
    for (k_n, seed), got in grid.items():
        if k_n == 4:
            assert isinstance(got, DisconnectedGraphError) and str(got) == str(raised.value)
            continue
        want = spectral_clustering(cloud, replace(config, k_n=k_n, seed=seed))
        np.testing.assert_array_equal(got.labels.labels, want.labels.labels)


def test_spectral_clustering_disconnected_graph_raises():
    rng = np.random.default_rng(15)
    blob_a = rng.normal(scale=0.1, size=(20, 3))
    blob_b = rng.normal(scale=0.1, size=(20, 3)) + 50.0
    cloud = cloud_of(np.vstack([blob_a, blob_b]))
    with pytest.raises(DisconnectedGraphError):
        spectral_clustering(cloud, ClusterConfig(n_clusters=2, k_n=4, seed=0))


def test_clustering_container_roundtrip():
    from dsirc.core import LabelMap

    c = Clustering(LabelMap(np.array([1, 2, 1])), modes=np.array([0, 1]))
    assert c.scores is None
    np.testing.assert_array_equal(c.modes, [0, 1])
