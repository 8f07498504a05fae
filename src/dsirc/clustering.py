"""Mode-based clustering on diffusion geometry, plus baselines.

Pixels are ranked by ``zeta``, the harmonic mean of normalized KDE density
and normalized spectral purity.  Each pixel's separation ``d_t`` is its
diffusion distance to the nearest pixel of higher rank; the K pixels
maximizing ``zeta * d_t`` become cluster modes, and remaining pixels take
the label of their diffusion-nearest higher-ranked labeled pixel, in rank
order.  K-means and spectral clustering baselines share the same interfaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import LabelMap, PixelCloud
from .diffusion import (
    DiffusionSystem,
    diffusion_system,
    knn_graph,
    knn_indices,
    nearest_in_diffusion,
)
from .sar import IciConfig, sar
from .unmixing import purity, unmix

__all__ = [
    "DensityField",
    "ZetaField",
    "Clustering",
    "ClusterConfig",
    "auto_sigma0",
    "kde_density",
    "zeta",
    "dt_values",
    "select_modes",
    "propagate_labels",
    "dsirc",
    "dvic",
    "kmeans",
    "spectral_clustering",
]


@dataclass(frozen=True)
class DensityField:
    """KDE density per pixel, raw (``f``) and max-normalized (``f_hat``)."""

    f: np.ndarray
    f_hat: np.ndarray

    def __post_init__(self) -> None:
        f = np.ascontiguousarray(np.asarray(self.f, dtype=np.float64))
        f_hat = np.ascontiguousarray(np.asarray(self.f_hat, dtype=np.float64))
        if f.ndim != 1 or f.shape != f_hat.shape:
            raise ValueError("f and f_hat must be 1-D and equal length")
        if f.size and f.min() <= 0:
            raise ValueError("density must be positive")
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "f_hat", f_hat)


@dataclass(frozen=True)
class ZetaField:
    """Combined density-purity rank value per pixel, in (0, 1]."""

    zeta: np.ndarray

    def __post_init__(self) -> None:
        z = np.ascontiguousarray(np.asarray(self.zeta, dtype=np.float64))
        if z.ndim != 1:
            raise ValueError("zeta must be 1-D")
        if z.size and (z.min() <= 0 or z.max() > 1 + 1e-12):
            raise ValueError("zeta must lie in (0, 1]")
        object.__setattr__(self, "zeta", z)


@dataclass(frozen=True)
class Clustering:
    """Cluster labels (1..K), plus mode indices and their selection scores
    when produced by the mode-based pipeline (``None`` for baselines)."""

    labels: LabelMap
    modes: np.ndarray | None = None
    scores: np.ndarray | None = None


@dataclass(frozen=True)
class ClusterConfig:
    """Shared knobs of the mode-based pipelines.

    ``sigma0 = None`` selects the KDE bandwidth automatically (median
    distance to the ``k_n``-th neighbor); ``n_endmembers = None`` estimates
    the endmember count from the data; ``n_eigenpairs = None`` keeps
    ``min(n, max(2 K, 50))`` eigenpairs.
    """

    n_clusters: int
    k_n: int = 100
    sigma0: float | None = None
    t: float = 30.0
    tau: float = IciConfig.tau
    lengths: tuple[int, ...] = IciConfig.lengths
    restarts: int = 10
    n_endmembers: int | None = None
    n_eigenpairs: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.n_clusters < 1:
            raise ValueError("n_clusters must be at least 1")
        if self.k_n < 1:
            raise ValueError("k_n must be at least 1")
        if self.sigma0 is not None and not self.sigma0 > 0:
            raise ValueError("sigma0 must be positive")
        if self.t < 0:
            raise ValueError("t must be non-negative")
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        object.__setattr__(self, "lengths", tuple(int(l) for l in self.lengths))


def auto_sigma0(distances: np.ndarray) -> float:
    """Median distance to the ``k_n``-th nearest neighbor over all pixels.

    ``distances`` is the ``(n, k_n)`` distance half of :func:`knn_indices`.
    """
    return float(np.median(distances[:, -1]))


def kde_density(distances: np.ndarray, sigma0: float) -> DensityField:
    """Gaussian KDE over each pixel's ``k_n`` nearest neighbors.

    ``f(x) = sum_y exp(-||x - y||^2 / sigma0^2)`` with ``y`` ranging over
    the neighbors (self excluded), whose distances are the rows of the
    ``(n, k_n)`` array ``distances`` from :func:`knn_indices`; ``f_hat``
    normalizes by the maximum.
    """
    if not sigma0 > 0:
        raise ValueError("sigma0 must be positive")
    f = np.exp(-(distances**2) / sigma0**2).sum(axis=1)
    return DensityField(f, f / f.max())


def zeta(density: DensityField, pur) -> ZetaField:
    """Harmonic mean of normalized density and normalized purity."""
    f_hat = density.f_hat
    eta_hat = np.asarray(pur.eta_hat, dtype=np.float64)
    if f_hat.shape != eta_hat.shape:
        raise ValueError("density and purity fields disagree on pixel count")
    return ZetaField(2.0 * f_hat * eta_hat / (f_hat + eta_hat))


def _rank_order(zeta_values: np.ndarray) -> np.ndarray:
    """Pixel indices sorted by decreasing zeta, ties by increasing index.

    This total order defines "higher-ranked": a pixel's eligible set for
    both ``d_t`` and label propagation is exactly its predecessors here.
    """
    n = zeta_values.shape[0]
    return np.lexsort((np.arange(n), -zeta_values))


def dt_values(
    system: DiffusionSystem, zeta_field: ZetaField, t: float
) -> tuple[np.ndarray, np.ndarray]:
    """Each pixel's nearest higher-ranked pixel and its diffusion distance.

    Returns ``(dt, parents)``.  ``parents[i]`` is the diffusion-nearest
    predecessor of pixel ``i`` in the rank order (distance ties prefer the
    smaller pixel index), ``-1`` for the top pixel; ``dt[i]`` is the
    distance to it.  The two pixels with no meaningful predecessor — the
    minimum-zeta pixel and the top of the rank order — instead take the
    *maximum* diffusion distance to any other pixel as ``dt``, which makes
    the top candidates stand out in the ``zeta * d_t`` score.  Computed in
    one walk down the rank order that keeps every pixel's running nearest
    source, so each pixel reads exactly its predecessors' best.
    """
    z = zeta_field.zeta
    n = z.shape[0]
    if n != system.n:
        raise ValueError("zeta field and diffusion system disagree on pixel count")
    embedding = system.embedding(t)
    order = _rank_order(z)
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
        dt[special] = float(
            np.linalg.norm(embedding - embedding[special], axis=1).max()
        )
    return dt, parents


def select_modes(zeta_field: ZetaField, dt: np.ndarray, n_clusters: int) -> np.ndarray:
    """Indices of the ``n_clusters`` pixels maximizing ``zeta * d_t``.

    Returned in decreasing score order (ties prefer the smaller index), so
    mode ``k`` receives label ``k + 1`` downstream.
    """
    z = zeta_field.zeta
    dt = np.asarray(dt, dtype=np.float64)
    if dt.shape != z.shape:
        raise ValueError("dt and zeta disagree on pixel count")
    if not 1 <= n_clusters <= z.shape[0]:
        raise ValueError(f"n_clusters must be in [1, {z.shape[0]}]")
    scores = z * dt
    order = np.lexsort((np.arange(scores.shape[0]), -scores))
    return order[:n_clusters]


def propagate_labels(
    system: DiffusionSystem,
    zeta_field: ZetaField,
    modes: Sequence[int] | np.ndarray,
    t: float,
    parents: np.ndarray,
    scores: np.ndarray | None = None,
) -> Clustering:
    """Spread mode labels down the zeta rank order.

    Mode ``k`` (in the given order) starts with label ``k + 1``.  Every
    other pixel, visited in decreasing-zeta order, copies the label of
    ``parents[pixel]``, its diffusion-nearest predecessor as returned by
    :func:`dt_values`.  Only the top-ranked pixel lacks a predecessor; if
    it is not a mode, it falls back to the diffusion-nearest mode (ties
    prefer the smaller index), the one distance computed here.
    """
    z = zeta_field.zeta
    n = z.shape[0]
    modes = np.asarray(modes, dtype=np.intp)
    if modes.ndim != 1 or modes.size < 1:
        raise ValueError("modes must be a non-empty 1-D index array")
    if modes.min() < 0 or modes.max() >= n or np.unique(modes).size != modes.size:
        raise ValueError("modes must be distinct pixel indices")
    if n != system.n or np.shape(parents) != (n,):
        raise ValueError("zeta field, parents and diffusion system disagree on pixel count")
    labels = np.zeros(n, dtype=np.int64)
    labels[modes] = np.arange(1, modes.size + 1)
    order = _rank_order(z)
    top = order[0]
    if labels[top] == 0:
        labels[top] = labels[nearest_in_diffusion(system, top, modes, t)]
    for pixel in order[1:]:
        if labels[pixel] == 0:
            labels[pixel] = labels[parents[pixel]]
    return Clustering(LabelMap(labels), modes=modes.copy(), scores=scores)


# ---------------------------------------------------------------------------
# Full pipelines


def _mode_pipeline(cloud: PixelCloud, config: ClusterConfig, reconstruct: bool) -> Clustering:
    n = cloud.n
    if config.n_clusters > n:
        raise ValueError("more clusters than pixels")
    if config.k_n >= n:
        raise ValueError(f"k_n must be below the pixel count {n}")
    rng = np.random.default_rng(config.seed)
    model = unmix(cloud, p=config.n_endmembers, restarts=config.restarts, rng=rng)
    pur = purity(model)
    neighbors, distances = knn_indices(cloud.spectra, config.k_n)
    sigma0 = config.sigma0 if config.sigma0 is not None else auto_sigma0(distances)
    density = kde_density(distances, sigma0)
    zeta_field = zeta(density, pur)
    if reconstruct:
        working = sar(cloud, IciConfig(tau=config.tau, lengths=config.lengths))
        neighbors, _ = knn_indices(working.spectra, config.k_n)
    graph = knn_graph(neighbors)
    n_pairs = config.n_eigenpairs
    if n_pairs is None:
        n_pairs = min(n, max(2 * config.n_clusters, 50))
    system = diffusion_system(graph, n_pairs)
    dt, parents = dt_values(system, zeta_field, config.t)
    modes = select_modes(zeta_field, dt, config.n_clusters)
    return propagate_labels(
        system, zeta_field, modes, config.t, parents, scores=zeta_field.zeta * dt
    )


def dsirc(cloud: PixelCloud, config: ClusterConfig) -> Clustering:
    """Mode-based diffusion clustering on shape-adaptively reconstructed
    spectra (density and purity still come from the originals)."""
    return _mode_pipeline(cloud, config, reconstruct=True)


def dvic(cloud: PixelCloud, config: ClusterConfig) -> Clustering:
    """The same pipeline as :func:`dsirc` but on the raw spectra."""
    return _mode_pipeline(cloud, config, reconstruct=False)


# ---------------------------------------------------------------------------
# Baselines


def _farthest_point_centers(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    chosen = [int(rng.integers(n))]
    min_d2 = ((x - x[chosen[0]]) ** 2).sum(axis=1)
    while len(chosen) < k:
        nxt = int(np.argmax(min_d2))
        chosen.append(nxt)
        np.minimum(min_d2, ((x - x[nxt]) ** 2).sum(axis=1), out=min_d2)
    return x[chosen].copy()


def _lloyd(x: np.ndarray, k: int, rng: np.random.Generator, max_iter: int = 300) -> tuple[np.ndarray, float]:
    n = x.shape[0]
    centers = _farthest_point_centers(x, k, rng)
    sq_x = np.einsum("ij,ij->i", x, x)
    labels_prev: np.ndarray | None = None
    labels = np.zeros(n, dtype=np.intp)
    for _ in range(max_iter):
        d2 = sq_x[:, None] + np.einsum("ij,ij->i", centers, centers)[None, :] - 2.0 * (x @ centers.T)
        np.clip(d2, 0.0, None, out=d2)
        labels = np.argmin(d2, axis=1)
        assigned_d2 = d2[np.arange(n), labels]
        # Reseed empty clusters at the points worst served by their current
        # centroids; moved points are marked ineligible so a cascade of
        # emptied singletons still terminates.
        while True:
            counts = np.bincount(labels, minlength=k)
            empties = np.flatnonzero(counts == 0)
            if empties.size == 0:
                break
            far = int(np.argmax(assigned_d2))
            j = int(empties[0])
            centers[j] = x[far]
            labels[far] = j
            assigned_d2[far] = -1.0
        if labels_prev is not None and np.array_equal(labels, labels_prev):
            break
        labels_prev = labels
        for j in range(k):
            centers[j] = x[labels == j].mean(axis=0)
    objective = float(((x - centers[labels]) ** 2).sum())
    return labels, objective


def _kmeans_labels(
    x: np.ndarray, k: int, restarts: int, rng: np.random.Generator
) -> np.ndarray:
    best_labels: np.ndarray | None = None
    best_objective = np.inf
    for _ in range(restarts):
        labels, objective = _lloyd(x, k, rng)
        if objective < best_objective:
            best_objective = objective
            best_labels = labels
    assert best_labels is not None
    # Renumber clusters 1..k by first appearance, so the labeling does not
    # depend on which restart won the internal numbering.
    remap = np.zeros(k, dtype=np.int64)
    next_label = 1
    for lab in best_labels:
        if remap[lab] == 0:
            remap[lab] = next_label
            next_label += 1
    return remap[best_labels]


def kmeans(
    cloud: PixelCloud,
    n_clusters: int,
    restarts: int = 10,
    rng: np.random.Generator | int | None = None,
) -> Clustering:
    """Lloyd's algorithm with farthest-point seeding, best of ``restarts``.

    Assignment ties go to the lower cluster index; clusters emptied during
    iteration are reseeded at the point farthest from its assigned centroid.
    """
    if not 1 <= n_clusters <= cloud.n:
        raise ValueError(f"n_clusters must be in [1, {cloud.n}]")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    rng = np.random.default_rng(rng)
    labels = _kmeans_labels(cloud.spectra, n_clusters, restarts, rng)
    return Clustering(LabelMap(labels))


def spectral_clustering(
    cloud: PixelCloud,
    n_clusters: int,
    k_n: int,
    restarts: int = 10,
    rng: np.random.Generator | int | None = None,
) -> Clustering:
    """K-means in the coordinates of the walk's leading K eigenvectors.

    Pixel ``i`` maps to ``[psi_1(i), ..., psi_K(i)]`` from the KNN-graph
    random walk (no time weighting), then :func:`kmeans` machinery runs on
    those points.
    """
    if not 1 <= n_clusters <= cloud.n:
        raise ValueError(f"n_clusters must be in [1, {cloud.n}]")
    rng = np.random.default_rng(rng)
    system = diffusion_system(knn_graph(knn_indices(cloud.spectra, k_n)[0]), n_clusters)
    coords = np.ascontiguousarray(system.eigenvectors[:, :n_clusters])
    labels = _kmeans_labels(coords, n_clusters, restarts, rng)
    return Clustering(LabelMap(labels))
