"""Mode-based clustering stages against plain-loop reference versions.

Each stage (bandwidth selection, KDE, rank separation, mode choice, label
spreading) is re-derived here with naive scalar loops and compared against
the vectorized module; the baselines are checked against exhaustive
partition search on tiny inputs.
"""

import itertools

import numpy as np
import pytest

from dsirc.clustering import (
    ClusterConfig,
    Clustering,
    DensityField,
    ZetaField,
    auto_sigma0,
    dsirc,
    dt_values,
    dvic,
    kde_density,
    kmeans,
    propagate_labels,
    select_modes,
    spectral_clustering,
    zeta,
)
from dsirc.core import ImageCube, PixelCloud, cube_to_cloud
from dsirc.diffusion import (
    DiffusionSystem,
    DisconnectedGraphError,
    diffusion_system,
    knn_graph,
    knn_indices,
)
from dsirc.unmixing import PurityField


def cloud_of(spectra):
    spectra = np.asarray(spectra, dtype=np.float64)
    n = spectra.shape[0]
    coords = np.column_stack([np.zeros(n, dtype=np.intp), np.arange(n, dtype=np.intp)])
    return PixelCloud(spectra, coords)


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
    return cube_to_cloud(ImageCube(cube)), np.tile(owner + 1, rows)


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
    field = kde_density(knn_indices(x, k)[1], sigma0)
    for i in range(35):
        d2 = np.sort([np.sum((x[i] - x[j]) ** 2) for j in range(35) if j != i])[:k]
        want = float(np.sum(np.exp(-np.asarray(d2) / sigma0**2)))
        assert field.f[i] == pytest.approx(want, rel=1e-9)
    np.testing.assert_allclose(field.f_hat, field.f / field.f.max(), rtol=0, atol=0)
    assert field.f_hat.max() == 1.0


def test_kde_requires_positive_bandwidth():
    rng = np.random.default_rng(2)
    cloud = cloud_of(rng.uniform(size=(10, 3)))
    with pytest.raises(ValueError):
        kde_density(knn_indices(cloud.spectra, 3)[1], 0.0)


def test_zeta_is_harmonic_mean():
    rng = np.random.default_rng(3)
    f_hat = rng.uniform(0.05, 1.0, size=50)
    f_hat[17] = 1.0
    eta_hat = rng.uniform(0.05, 1.0, size=50)
    eta_hat[4] = 1.0
    density = DensityField(f_hat * 3.0, f_hat)
    pur = PurityField(eta_hat * 0.8, eta_hat)
    field = zeta(density, pur)
    np.testing.assert_allclose(field.zeta, 2.0 / (1.0 / f_hat + 1.0 / eta_hat), rtol=1e-12)


def test_zeta_hand_value_and_mismatch():
    density = DensityField(np.array([2.0, 1.0]), np.array([1.0, 0.5]))
    pur = PurityField(np.array([0.5, 1.0]), np.array([0.5, 1.0]))
    np.testing.assert_allclose(zeta(density, pur).zeta, [2 / 3, 2 / 3])
    with pytest.raises(ValueError):
        zeta(density, PurityField(np.array([1.0]), np.array([1.0])))


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
        field = ZetaField(z)
        for t in (1.0, 4.0, 30.0):
            np.testing.assert_allclose(
                dt_values(system, field, t)[0], naive_dt(system, z, t), rtol=1e-12
            )


def test_dt_values_pixel_count_mismatch():
    system, _ = small_system()
    with pytest.raises(ValueError):
        dt_values(system, ZetaField(np.full(system.n + 1, 0.5)), 2.0)


def test_select_modes_hand_case_and_ties():
    field = ZetaField(np.array([0.9, 0.5, 0.8]))
    np.testing.assert_array_equal(
        select_modes(field, np.array([1.0, 10.0, 2.0]), 2), [1, 2]
    )
    tie = ZetaField(np.array([0.5, 0.5, 0.25]))
    np.testing.assert_array_equal(
        select_modes(tie, np.array([2.0, 2.0, 4.0]), 3), [0, 1, 2]
    )
    with pytest.raises(ValueError):
        select_modes(field, np.array([1.0, 2.0]), 1)
    with pytest.raises(ValueError):
        select_modes(field, np.array([1.0, 2.0, 3.0]), 4)


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


def propagate(system, field, modes, t):
    return propagate_labels(system, field, modes, t, dt_values(system, field, t)[1])


def test_propagate_labels_match_naive_loop():
    system, rng = small_system(seed=5)
    for trial in range(6):
        z = rng.uniform(0.05, 1.0, size=system.n)
        modes = rng.choice(system.n, size=4, replace=False)
        t = float(rng.uniform(1.0, 10.0))
        got = propagate(system, ZetaField(z), modes, t)
        np.testing.assert_array_equal(
            got.labels.labels, naive_propagate(system, z, modes, t)
        )
        np.testing.assert_array_equal(got.modes, modes)


def test_propagate_top_pixel_falls_back_to_nearest_mode():
    system, rng = small_system(seed=6)
    z = rng.uniform(0.05, 0.9, size=system.n)
    top = 11
    z[top] = 1.0
    modes = np.array([m for m in (0, 1, 2) if m != top])
    got = propagate(system, ZetaField(z), modes, 3.0)
    assert got.labels.labels[top] in (1, 2, 3)
    np.testing.assert_array_equal(
        got.labels.labels, naive_propagate(system, z, modes, 3.0)
    )


def test_propagate_modes_keep_their_own_labels():
    system, rng = small_system(seed=7)
    z = rng.uniform(0.05, 1.0, size=system.n)
    modes = np.array([9, 3, 21])
    got = propagate(system, ZetaField(z), modes, 2.0)
    assert got.labels.labels[9] == 1
    assert got.labels.labels[3] == 2
    assert got.labels.labels[21] == 3
    assert set(np.unique(got.labels.labels)) <= {1, 2, 3}


def test_propagate_validation():
    system, _ = small_system()
    field = ZetaField(np.full(system.n, 0.5))
    with pytest.raises(ValueError):
        propagate(system, field, [], 1.0)
    with pytest.raises(ValueError):
        propagate(system, field, [1, 1], 1.0)
    with pytest.raises(ValueError):
        propagate(system, field, [system.n], 1.0)


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


def tied_system(seed=12, n=40):
    """A system whose embedding rows are small integer points, many of them
    duplicated, so exact diffusion-distance ties are everywhere."""
    rng = np.random.default_rng(seed)
    graph = knn_graph(knn_indices(rng.uniform(size=(n, 3)), 5)[0])
    degrees = np.asarray(graph.adjacency.sum(axis=1)).ravel()
    points = rng.integers(0, 3, size=(n, 2)).astype(np.float64)
    return DiffusionSystem(graph, degrees, degrees / degrees.sum(), np.ones(2), points), rng


def test_parents_break_exact_ties_by_smaller_index():
    system, rng = tied_system()
    embedding = system.embedding(1.0)
    for _ in range(5):
        z = rng.uniform(0.05, 1.0, size=system.n)
        field = ZetaField(z)
        dt, parents = dt_values(system, field, 1.0)
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
        got = propagate_labels(system, field, modes, 1.0, parents)
        np.testing.assert_array_equal(
            got.labels.labels, naive_propagate(system, z, modes, 1.0)
        )


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


def test_one_knn_search_per_cloud(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return knn_indices(*args, **kwargs)

    monkeypatch.setattr("dsirc.clustering.knn_indices", counting)
    monkeypatch.setattr("dsirc.diffusion.knn_indices", counting)
    cloud, _ = grid_cloud(np.random.default_rng(13))
    config = ClusterConfig(n_clusters=3, k_n=50, t=10.0, n_endmembers=3, seed=0)
    dvic(cloud, config)
    assert len(calls) == 1  # raw cloud: sigma0, density and graph
    dsirc(cloud, config)
    assert len(calls) == 3  # raw cloud, then the reconstructed cloud's graph


def test_pipeline_validation():
    rng = np.random.default_rng(10)
    cloud, _ = grid_cloud(rng, rows=4, cols=6)
    with pytest.raises(ValueError):
        dvic(cloud, ClusterConfig(n_clusters=25, k_n=5))
    with pytest.raises(ValueError):
        dvic(cloud, ClusterConfig(n_clusters=2, k_n=24))


def test_cluster_config_validation():
    with pytest.raises(ValueError):
        ClusterConfig(n_clusters=0)
    with pytest.raises(ValueError):
        ClusterConfig(n_clusters=2, k_n=0)
    with pytest.raises(ValueError):
        ClusterConfig(n_clusters=2, sigma0=0.0)
    with pytest.raises(ValueError):
        ClusterConfig(n_clusters=2, t=-1.0)
    with pytest.raises(ValueError):
        ClusterConfig(n_clusters=2, restarts=0)
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
        got = kmeans(cloud_of(x), 3, restarts=10, rng=trial)
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
    labels = kmeans(cloud_of(x), 4, rng=3).labels.labels
    seen = list(dict.fromkeys(labels.tolist()))
    assert seen == [1, 2, 3, 4]


def test_kmeans_deterministic_and_validated():
    rng = np.random.default_rng(13)
    x = rng.uniform(size=(25, 4))
    a = kmeans(cloud_of(x), 3, rng=5).labels.labels
    b = kmeans(cloud_of(x), 3, rng=5).labels.labels
    np.testing.assert_array_equal(a, b)
    with pytest.raises(ValueError):
        kmeans(cloud_of(x), 0)
    with pytest.raises(ValueError):
        kmeans(cloud_of(x), 26)
    with pytest.raises(ValueError):
        kmeans(cloud_of(x), 3, restarts=0)


def test_kmeans_survives_duplicate_heavy_data():
    x = np.array([[0.0], [0.0], [0.0], [0.0], [10.0], [10.0]])
    labels = kmeans(cloud_of(x), 3, rng=0).labels.labels
    assert set(np.unique(labels)) == {1, 2, 3}


def test_spectral_clustering_splits_two_blobs():
    rng = np.random.default_rng(14)
    blob_a = rng.normal(scale=0.2, size=(30, 3))
    blob_b = rng.normal(scale=0.2, size=(30, 3)) + 5.0
    cloud = cloud_of(np.vstack([blob_a, blob_b]))
    got = spectral_clustering(cloud, 2, k_n=30, rng=0)
    labels = got.labels.labels
    count_a = np.bincount(labels[:30], minlength=3)
    count_b = np.bincount(labels[30:], minlength=3)
    assert count_a.max() >= 27 and count_b.max() >= 27
    assert count_a.argmax() != count_b.argmax()


def test_spectral_clustering_disconnected_graph_raises():
    rng = np.random.default_rng(15)
    blob_a = rng.normal(scale=0.1, size=(20, 3))
    blob_b = rng.normal(scale=0.1, size=(20, 3)) + 50.0
    cloud = cloud_of(np.vstack([blob_a, blob_b]))
    with pytest.raises(DisconnectedGraphError):
        spectral_clustering(cloud, 2, k_n=4, rng=0)


def test_clustering_container_roundtrip():
    from dsirc.core import LabelMap

    c = Clustering(LabelMap(np.array([1, 2, 1])), modes=np.array([0, 1]))
    assert c.scores is None
    np.testing.assert_array_equal(c.modes, [0, 1])
