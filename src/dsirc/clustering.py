"""Mode-based clustering on diffusion geometry, plus baselines.

Pixels are ranked by ``zeta``, the harmonic mean of normalized KDE density
and normalized spectral purity.  Each pixel's separation ``d_t`` is its
diffusion distance to the nearest pixel of higher rank; the K pixels
maximizing ``zeta * d_t`` become cluster modes, and remaining pixels take
the label of their diffusion-nearest higher-ranked labeled pixel, in rank
order.  The k-means and spectral clustering baselines take the same
``(cloud, ClusterConfig)`` as the two pipelines.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy.spatial import cKDTree

from .core import LabelMap, PixelCloud, _blocks
from .diffusion import DisconnectedGraphError, diffusion_system, knn_graph, knn_indices
from .sar import IciConfig, sar
from .unmixing import purity, unmix

__all__ = [
    "Clustering",
    "ClusterConfig",
    "auto_sigma0",
    "kde_density",
    "zeta",
    "dt_values",
    "select_modes",
    "propagate_labels",
    "mode_grid",
    "dsirc",
    "dvic",
    "kmeans",
    "spectral_clustering",
]


@dataclass(frozen=True)
class Clustering:
    """Cluster labels (1..K), plus the mode indices and every pixel's
    selection score ``zeta * d_t`` when built by :func:`mode_grid`
    (``None`` for baselines)."""

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
        if not 0 <= self.t < np.inf:
            raise ValueError("t must be finite and non-negative")
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.n_endmembers is not None and self.n_endmembers < 1:
            raise ValueError("n_endmembers must be at least 1")
        if self.n_eigenpairs is not None and self.n_eigenpairs < 1:
            raise ValueError("n_eigenpairs must be at least 1")
        if self.seed is not None and self.seed < 0:
            raise ValueError("seed must be non-negative")
        object.__setattr__(self, "lengths", IciConfig(tau=self.tau, lengths=self.lengths).lengths)


def auto_sigma0(distances: np.ndarray) -> float:
    """Median distance to the ``k_n``-th nearest neighbor over all pixels.

    ``distances`` is the ``(n, k_n)`` distance half of :func:`knn_indices`.
    The median is 0, and raises ``ValueError``, when at least half the
    pixels have ``k_n`` or more exact duplicates of their spectrum, as in a
    large zero-filled no-data block.
    """
    sigma0 = float(np.median(distances[:, -1]))
    if not sigma0 > 0:
        k_n = distances.shape[1]
        raise ValueError(
            f"the automatic sigma0 is 0 at k_n = {k_n}: at least half the pixels "
            f"have {k_n} or more exact duplicate spectra; pass sigma0 or a larger k_n"
        )
    return sigma0


def kde_density(distances: np.ndarray, sigma0: float) -> np.ndarray:
    """Max-normalized Gaussian KDE over each pixel's ``k_n`` nearest neighbors.

    ``f(x) = sum_y exp(-||x - y||^2 / sigma0^2)`` with ``y`` ranging over
    the neighbors (self excluded), whose distances are the rows of the
    ``(n, k_n)`` array ``distances`` from :func:`knn_indices`; the result is
    ``f / f.max()``, which lies in ``(0, 1]`` with a maximum of exactly 1.
    A pixel far from all its neighbors (a saturated outlier, say) can have
    every term underflow to 0; its ``f`` is floored at the smallest normal
    float, with a ``RuntimeWarning`` that counts such pixels, so it ranks
    last instead of failing the run.
    """
    if not sigma0 > 0:
        raise ValueError("sigma0 must be positive")
    f = np.exp(-(distances**2) / sigma0**2).sum(axis=1)
    tiny = np.finfo(np.float64).tiny
    floored = int(np.count_nonzero(f < tiny))
    if floored:
        warnings.warn(
            f"KDE density underflows for {floored} pixel(s); floored at {tiny:.3g}",
            RuntimeWarning,
            stacklevel=2,
        )
        f = np.maximum(f, tiny)
    return f / f.max()


def zeta(f_hat: np.ndarray, eta_hat: np.ndarray) -> np.ndarray:
    """Harmonic mean of the normalized density :func:`kde_density` and the
    normalized purity :func:`~dsirc.unmixing.purity`: the rank value of each
    pixel, in ``(0, 1]`` as both inputs are."""
    if np.shape(f_hat) != np.shape(eta_hat):
        raise ValueError("density and purity disagree on pixel count")
    return 2.0 * f_hat * eta_hat / (f_hat + eta_hat)


def _rank_order(z: np.ndarray) -> np.ndarray:
    """Pixel indices sorted by decreasing zeta, ties by increasing index.

    This total order defines "higher-ranked": a pixel's eligible set for
    both ``d_t`` and label propagation is exactly its predecessors here.
    """
    return np.lexsort((np.arange(z.shape[0]), -z))


# Tree neighbours first queried per pixel by :func:`dt_values` (self
# included); also the per-pixel share of a query block's entry budget.
_TREE_K = 32


def dt_values(embedding: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each pixel's nearest higher-ranked pixel and its diffusion distance,
    in the rank order of the :func:`zeta` array ``z``.

    ``embedding`` is a diffusion map, such as
    :meth:`~dsirc.diffusion.DiffusionSystem.embedding` at time ``t``: one
    row per pixel, whose Euclidean distances are the diffusion distances.
    It is read as a C-ordered float64 array, so the row norms, and with them
    the results, do not depend on the layout it is given in.

    Returns ``(dt, parents)``.  ``parents[i]`` is the diffusion-nearest
    predecessor of pixel ``i`` in the rank order (distance ties prefer the
    smaller pixel index), ``-1`` for the top pixel; ``dt[i]`` is the
    distance to it.  The two pixels with no meaningful predecessor — the
    minimum-zeta pixel and the top of the rank order — instead take the
    *maximum* diffusion distance to any other pixel as ``dt``, which makes
    the top candidates stand out in the ``zeta * d_t`` score.

    The search is exact and keeps that tie rule: every distance it returns
    is ``np.linalg.norm(rows - row, axis=1)`` over embedding rows, as a scan
    of all predecessors would compute it.  It is one k-d tree search on the
    embedding (the dependent-point search of Amagata & Hara, "Fast
    density-peaks clustering", SIGMOD 2021; see
    :func:`_nearest_predecessors`) whose query widens, ``_TREE_K``
    neighbours first and four times as many each round, until every pixel
    below the top has settled.  Most pixels settle in the first round; on an
    embedding collapsed to a constant, none settles before the query holds
    all ``n`` rows, so that case costs quadratic time.
    """
    embedding = np.ascontiguousarray(embedding, dtype=np.float64)
    n = z.shape[0]
    if embedding.ndim != 2 or embedding.shape[0] != n:
        raise ValueError("embedding must be (n, dims) for the n pixels of zeta")
    order = _rank_order(z)
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    dt = np.empty(n)
    parents = np.full(n, -1, dtype=np.intp)
    _nearest_predecessors(embedding, rank, dt, parents)
    for special in {int(np.argmin(z)), int(order[0])}:
        dt[special] = float(
            np.linalg.norm(embedding - embedding[special], axis=1).max()
        )
    return dt, parents


def _nearest_predecessors(
    embedding: np.ndarray, rank: np.ndarray, dt: np.ndarray, parents: np.ndarray
) -> None:
    """Fill ``dt`` and ``parents`` for every pixel below the top of the
    rank order, from k-d tree queries that widen until each pixel settles.

    Each round queries the pixels still pending at ``k`` tree neighbours,
    in order of tree distance: ``_TREE_K`` in the first round, then
    ``min(4 k, n)``.  The first higher-ranked neighbour bounds the true
    nearest predecessor's distance by ``d*``, so every predecessor that can
    win lies within ``d*`` times a rounding slack.  The candidates there get
    their distances recomputed exactly.  That settles the pixel when the
    slack bound stays below the farthest tree neighbour's distance, or when
    ``k = n`` and the query holds every predecessor; otherwise a predecessor
    outside the query could tie or win, and the pixel waits for the next
    round, as does a pixel with no higher-ranked tree neighbour.  A pixel is
    never its own predecessor, so it drops out by index even where a
    duplicate row comes back before it.  Each query holds at most
    ``n * _TREE_K`` neighbours, so a wider round runs in more blocks, and the
    recompute gathers at most ``core._BLOCK_ELEMENTS`` embedding values at
    once.
    """
    n, dims = embedding.shape
    tree = cKDTree(embedding)
    # Tree and norm distances are square roots of dims-term sums of squares,
    # each with relative rounding error below (dims + 2) * eps while the
    # squares stay normal; the floor covers subnormal squares.  The slack
    # absorbs three such errors (the bound, the winner's norm distance and
    # its tree distance), and once more the rounding in the tree's pruning.
    finfo = np.finfo(np.float64)
    slack = 1.0 + max(1e-12, 4 * (dims + 2) * finfo.eps)
    floor = np.sqrt((dims + 2) * finfo.tiny)
    pending = np.flatnonzero(rank > 0)
    k = min(_TREE_K, n)
    while pending.size:
        unsettled = []
        for query in _blocks(pending.size, k, n * _TREE_K):
            block = pending[query]
            tree_dist, neighbors = tree.query(embedding[block], k=k)
            higher = rank[neighbors] < rank[block, None]
            bound = tree_dist[np.arange(block.size), np.argmax(higher, axis=1)] * slack + floor
            settled = higher.any(axis=1) & ((k == n) | (bound * slack < tree_dist[:, -1]))
            row, col = np.nonzero(higher & (tree_dist <= bound[:, None]) & settled[:, None])
            pixel, cand = block[row], neighbors[row, col]
            # Norms are row-local, so slicing the gather leaves them as they are.
            dist = np.empty(row.size)
            for gather in _blocks(row.size, dims):
                diff = embedding[cand[gather]] - embedding[pixel[gather]]
                dist[gather] = np.linalg.norm(diff, axis=1)
            pick = np.lexsort((cand, dist, row))
            pick = pick[np.diff(row[pick], prepend=-1) != 0]
            dt[pixel[pick]] = dist[pick]
            parents[pixel[pick]] = cand[pick]
            unsettled.append(block[~settled])
        pending = np.concatenate(unsettled)
        k = min(4 * k, n)


def select_modes(scores: np.ndarray, n_clusters: int) -> np.ndarray:
    """Indices of the ``n_clusters`` pixels of largest ``scores``, each
    pixel's ``zeta * d_t``.

    Returned in decreasing score order (ties prefer the smaller index), so
    mode ``k`` receives label ``k + 1`` downstream.
    """
    if not 1 <= n_clusters <= scores.shape[0]:
        raise ValueError(f"n_clusters must be in [1, {scores.shape[0]}]")
    # A copy, so that a stored result does not hold the whole order.
    return _rank_order(scores)[:n_clusters].copy()


def propagate_labels(
    embedding: np.ndarray,
    z: np.ndarray,
    modes: Sequence[int] | np.ndarray,
    parents: np.ndarray,
) -> np.ndarray:
    """Spread mode labels down the rank order of the :func:`zeta` array
    ``z``; returns the 1-D label array (1..K).

    Mode ``k`` (in the given order) starts with label ``k + 1``.  Every
    other pixel, visited in decreasing-zeta order, copies the label of
    ``parents[pixel]``, its diffusion-nearest predecessor as returned by
    :func:`dt_values` on the same ``embedding``.  Only the top-ranked pixel
    lacks a predecessor; if it is not a mode, it takes the label of the
    mode whose ``embedding`` row is nearest its own (ties prefer the
    smaller index), the one distance computed here.
    """
    n = z.shape[0]
    modes = np.asarray(modes, dtype=np.intp)
    if modes.ndim != 1 or modes.size < 1:
        raise ValueError("modes must be a non-empty 1-D index array")
    if modes.min() < 0 or modes.max() >= n or np.unique(modes).size != modes.size:
        raise ValueError("modes must be distinct pixel indices")
    if len(embedding) != n or np.shape(parents) != (n,):
        raise ValueError("zeta, parents and embedding disagree on pixel count")
    labels = np.zeros(n, dtype=np.int64)
    labels[modes] = np.arange(1, modes.size + 1)
    order = _rank_order(z)
    top = order[0]
    if labels[top] == 0:
        candidates = np.unique(modes)
        dists = np.linalg.norm(embedding[candidates] - embedding[top], axis=1)
        labels[top] = labels[candidates[np.argmin(dists)]]
    for pixel in order[1:]:
        if labels[pixel] == 0:
            labels[pixel] = labels[parents[pixel]]
    return labels


# ---------------------------------------------------------------------------
# Full pipelines


def _cloud_limits(cloud: PixelCloud) -> dict[str, tuple[int, str]]:
    """The largest value each knob the cloud bounds may take, by
    :class:`ClusterConfig` field, and the reason a larger one fails; the
    one statement of these limits, read by :func:`_check_cloud` and the CLI."""
    n, bands = cloud.n, cloud.bands
    return {
        "n_clusters": (n, f"more clusters than the {n} pixels"),
        "k_n": (n - 1, f"not below the pixel count {n}"),
        "n_endmembers": (min(n, bands), f"more endmembers than the {bands} bands or the {n} pixels"),
        "n_eigenpairs": (n, f"more eigenpairs than the {n} pixels"),
    }


def _check_cloud(cloud: PixelCloud, config: ClusterConfig, *fields: str) -> None:
    """Raise ``ValueError`` when a ``config`` field among ``fields`` (by
    default every one :func:`_cloud_limits` bounds) asks more of ``cloud``
    than it has; the callers check before any work."""
    for field, (most, reason) in _cloud_limits(cloud).items():
        value = getattr(config, field)
        if (not fields or field in fields) and value is not None and value > most:
            raise ValueError(f"bad {field} value {value}: {reason}")


def mode_grid(
    cloud: PixelCloud,
    config: ClusterConfig,
    k_ns: Sequence[int],
    ts: Sequence[float],
    taus: Sequence[float | None] | None = None,
    seeds: Sequence[int | None] | None = None,
) -> dict[tuple[int, float, float | None, int | None], Clustering | DisconnectedGraphError]:
    """The mode-based pipeline for every ``(k_n, t, tau, seed)`` of a grid.

    The grid's values replace ``config``'s ``k_n``, ``t``, ``tau`` and
    ``seed``; ``seeds = None`` is the one seed ``config.seed``.  A ``tau``
    of ``None`` builds the graph on the raw spectra (:func:`dvic`), and
    ``taus = None`` is ``[None]``; a number gets a shape-adaptive
    reconstruction (:func:`dsirc`).  ``None`` may sit beside numbers, so one
    call compares the two pipelines.  Each stage runs once per distinct
    input, and every result equals a run with a one-element grid:

    * unmixing, purity and the zetas run once per seed, each from
      ``np.random.default_rng(seed)`` (AVMAX's restarts are the only draws);
      HySime's endmember count does not depend on the seed, so it is
      estimated for the first seed and reused for the others;
    * the raw spectra get one search at ``max(k_ns)``, whose first ``k_n``
      columns are the ``k_n`` search, for the bandwidth and density and,
      at ``tau = None``, the graph;
    * each numeric ``tau`` gets one reconstruction and one search of its
      spectra;
    * the graph and eigensystem run once per ``(k_n, tau)``, and the
      embedding at each ``t`` once per ``(k_n, tau, t)``, shared by the
      seeds;
    * the predecessor scan (:func:`dt_values`), the scores ``zeta * d_t``,
      the mode choice (:func:`select_modes`) and the labelling
      (:func:`propagate_labels`) run once per ``(k_n, tau, t, seed)`` on
      that embedding; each result is one :class:`Clustering` of the
      labels, the modes and the scores.

    The paper ranks pixels by density and purity and spreads labels in
    diffusion distance, but does not say which spectra the density and
    purity read.  Here they always read the raw spectra, and only the graph
    (so the diffusion distances) reads the reconstructed ones.  That choice
    carries the 4-endmember gain: on a 100 x 100 x 100 synthetic scene
    (seed 0), running every stage on the reconstructed spectra read OA
    0.638 against 0.972, as the reconstruction lowers the noise HySime
    measures and it counts 31 endmembers in place of 4.

    Each stage's input is released once consumed: the raw distances once
    the zetas are built, a reconstructed cloud once its search returns, a
    search's neighbour array once its last graph is built (before that
    graph's eigensolve), each graph once its eigensystem is solved (the
    scan and labelling read only the embedding), and each eigensystem,
    embedding and scan output before the next graph is built.  ``None``
    runs first, so the raw neighbours are gone before the first
    reconstruction: a mixed grid's peak exceeds the larger of its two
    halves' by at most the results it already holds.

    Raises ``ValueError`` before any stage runs when a knob asks more of
    the cloud than it has (:func:`_cloud_limits`): more clusters or
    eigenpairs than pixels, a ``k_n`` of the pixel count or more, or more
    endmembers than pixels or bands.

    A ``(k_n, tau)`` graph that splits into components maps each of its
    ``(k_n, t, tau, seed)`` keys to the :class:`DisconnectedGraphError` it
    raised; the rest of the grid still runs.
    """
    k_ns = list(dict.fromkeys(k_ns))
    ts = list(dict.fromkeys(ts))
    grid_taus = [None] if taus is None else list(dict.fromkeys(taus))
    grid_taus.sort(key=lambda tau: tau is not None)
    seeds = [config.seed] if seeds is None else list(dict.fromkeys(seeds))
    if not (k_ns and ts and grid_taus and seeds):
        raise ValueError("every grid needs at least one value")
    for k_n, t, tau, seed in itertools.product(k_ns, ts, grid_taus, seeds):
        # ClusterConfig rejects an invalid combination.
        replace(config, k_n=k_n, t=t, tau=config.tau if tau is None else tau, seed=seed)
    largest = replace(config, k_n=max(k_ns))
    _check_cloud(cloud, largest)
    p, purities = config.n_endmembers, []
    for seed in seeds:
        model = unmix(cloud, p=p, restarts=config.restarts, rng=np.random.default_rng(seed))
        p = model.p
        purities.append(purity(model.abundances))
    del model
    neighbors, distances = knn_indices(cloud.spectra, largest.k_n)
    zetas = {}
    for k_n in k_ns:
        prefix = distances[:, :k_n]
        sigma0 = config.sigma0 if config.sigma0 is not None else auto_sigma0(prefix)
        density = kde_density(prefix, sigma0)
        zetas[k_n] = [(seed, zeta(density, eta_hat)) for seed, eta_hat in zip(seeds, purities)]
    # Inputs are dropped once consumed (see the docstring); ``prefix`` views
    # the distances, and without ``None`` the raw neighbours are not used.
    del distances, prefix, density
    if None not in grid_taus:
        del neighbors
    n_pairs = config.n_eigenpairs
    if n_pairs is None:
        n_pairs = min(cloud.n, max(2 * config.n_clusters, 50))
    results = {}
    for tau in grid_taus:
        if tau is not None:
            neighbors = knn_indices(
                sar(cloud, IciConfig(tau=tau, lengths=config.lengths)).spectra, largest.k_n
            )[0]
        systems = _eigensystems(neighbors, k_ns, n_pairs)
        del neighbors
        for k_n, system in systems:
            if isinstance(system, DisconnectedGraphError):
                results.update(dict.fromkeys(itertools.product([k_n], ts, [tau], seeds), system))
                continue
            for t in ts:
                embedding = system.embedding(t)
                for seed, z in zetas[k_n]:
                    dt, parents = dt_values(embedding, z)
                    scores = z * dt
                    modes = select_modes(scores, config.n_clusters)
                    labels = propagate_labels(embedding, z, modes, parents)
                    results[k_n, t, tau, seed] = Clustering(LabelMap(labels), modes, scores)
            del system, embedding, dt, parents
    return results


def _eigensystems(neighbors: np.ndarray, k_ns: list[int], n_pairs: int):
    """Yield ``(k_n, system)`` for each of the distinct ``k_ns`` in order:
    the eigensystem of the graph on the first ``k_n`` columns of
    ``neighbors``, or the :class:`DisconnectedGraphError` that graph raised.

    The error is stored without its traceback, whose frames hold the graph.
    ``neighbors`` is released once its last graph is built, each graph
    before its system is yielded, and each system before the next graph is
    built, so the caller that hands over ``neighbors`` and drops its own
    references holds one graph or one system at a time.
    """
    for k_n in k_ns:
        graph = knn_graph(neighbors[:, :k_n])
        if k_n == k_ns[-1]:
            del neighbors
        try:
            system = diffusion_system(graph, n_pairs)
        except DisconnectedGraphError as exc:
            system = exc.with_traceback(None)
        del graph
        yield k_n, system
        del system


def dsirc(cloud: PixelCloud, config: ClusterConfig) -> Clustering:
    """Mode-based diffusion clustering on shape-adaptively reconstructed
    spectra (density and purity still come from the originals)."""
    grid = mode_grid(cloud, config, [config.k_n], [config.t], [config.tau])
    return _clustering(grid[config.k_n, config.t, config.tau, config.seed])


def dvic(cloud: PixelCloud, config: ClusterConfig) -> Clustering:
    """The same pipeline as :func:`dsirc` but on the raw spectra."""
    grid = mode_grid(cloud, config, [config.k_n], [config.t])
    return _clustering(grid[config.k_n, config.t, None, config.seed])


def _clustering(result: Clustering | DisconnectedGraphError) -> Clustering:
    """A grid result, raising the error a failed combination holds."""
    if isinstance(result, DisconnectedGraphError):
        raise result
    return result


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
    """One k-means run from farthest-point seeds: ``(labels, objective)``.

    Warns (``RuntimeWarning``) when ``max_iter`` iterations all changed the
    assignment, so the run stopped at the cap rather than at a fixed point.
    """
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
    else:
        warnings.warn(
            f"k-means stopped at its cap of {max_iter} iterations before converging",
            RuntimeWarning,
            stacklevel=2,
        )
    objective = float(((x - centers[labels]) ** 2).sum())
    return labels, objective


def kmeans(cloud: PixelCloud, config: ClusterConfig) -> Clustering:
    """Lloyd's algorithm with farthest-point seeding, best of ``restarts``.

    Reads ``n_clusters``, ``restarts`` and ``seed`` of ``config``; the runs
    draw their seeds from ``np.random.default_rng(seed)``.  Assignment ties
    go to the lower cluster index; clusters emptied during iteration are
    reseeded at the point farthest from its assigned centroid.  Clusters are
    numbered 1..K by first appearance, so the labeling does not depend on
    which restart won the internal numbering.
    """
    _check_cloud(cloud, config, "n_clusters")
    rng = np.random.default_rng(config.seed)
    best_labels, best_objective = None, np.inf
    for _ in range(config.restarts):
        labels, objective = _lloyd(cloud.spectra, config.n_clusters, rng)
        if objective < best_objective:
            best_labels, best_objective = labels, objective
    # Each cluster's new label is the rank of its first pixel's index.
    _, first, inverse = np.unique(best_labels, return_index=True, return_inverse=True)
    return Clustering(LabelMap(np.argsort(np.argsort(first))[inverse] + 1))


def spectral_clustering(cloud: PixelCloud, config: ClusterConfig) -> Clustering:
    """:func:`kmeans` on the walk's leading K eigenvectors.

    Reads ``k_n`` as well as :func:`kmeans`' fields.  Pixel ``i`` maps to
    ``[psi_1(i), ..., psi_K(i)]`` from the random walk on the ``k_n``
    KNN graph (no time weighting), a cloud on the same grid that
    :func:`kmeans` clusters with ``config``.  It is the one-cell call of
    :func:`_spectral_grid`, as :func:`dsirc` and :func:`dvic` are of
    :func:`mode_grid`; a sweep makes one call of that grid, which runs one
    search at the largest ``k_n``, one graph and eigensystem per ``k_n``
    and k-means per seed.
    """
    grid = _spectral_grid(cloud, config, [config.k_n], [config.seed])
    return _clustering(grid[config.k_n, config.seed])


def _spectral_grid(
    cloud: PixelCloud, config: ClusterConfig, k_ns: Sequence[int], seeds: Sequence[int | None]
) -> dict[tuple[int, int | None], Clustering | DisconnectedGraphError]:
    """:func:`spectral_clustering` for every ``(k_n, seed)`` of a grid.

    The spectra get one search at ``max(k_ns)``, whose first ``k_n`` columns
    are the ``k_n`` search; the graph and eigensystem run once per ``k_n``,
    and only :func:`kmeans`, the one stage that draws on the seed, runs per
    ``(k_n, seed)``.  Every result equals a one-cell run.  Its callers pass
    values their ``ClusterConfig`` accepts; the cloud is checked before any
    stage runs, and a ``k_n`` whose graph splits maps each of its keys to
    the :class:`DisconnectedGraphError` it raised.
    """
    k_ns, seeds = list(dict.fromkeys(k_ns)), list(dict.fromkeys(seeds))
    _check_cloud(cloud, replace(config, k_n=max(k_ns)), "n_clusters", "k_n")
    results = {}
    systems = _eigensystems(knn_indices(cloud.spectra, max(k_ns))[0], k_ns, config.n_clusters)
    for k_n, system in systems:
        if isinstance(system, DisconnectedGraphError):
            results.update(dict.fromkeys(itertools.product([k_n], seeds), system))
            continue
        eigenvectors = PixelCloud(system.eigenvectors, cloud.grid)
        results.update({(k_n, seed): kmeans(eigenvectors, replace(config, seed=seed)) for seed in seeds})
        del system, eigenvectors
    return results
