"""Diffusion geometry on a mutual KNN graph.

A symmetric unweighted KNN graph over pixel spectra induces a random walk
``P = D^{-1} W`` whose eigensystem yields diffusion distances: squared
diffusion distance at time ``t`` is the stationary-weighted L2 distance
between the walk's t-step transition rows, computable spectrally as
``sum_k |lambda_k|^{2t} (psi_k(i) - psi_k(j))^2`` with right eigenvectors
``psi_k`` normalized against the stationary distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg

__all__ = [
    "DisconnectedGraphError",
    "KnnGraph",
    "DiffusionSystem",
    "knn_indices",
    "knn_graph",
    "diffusion_system",
    "diffusion_distance",
    "nearest_in_diffusion",
]

# Below this size a dense eigensolve is both faster and free of iterative
# convergence concerns.
_DENSE_EIG_CUTOFF = 128


class DisconnectedGraphError(RuntimeError):
    """Raised when the KNN graph splits into multiple components, so the
    random walk has no unique stationary distribution."""


@dataclass(frozen=True)
class KnnGraph:
    """Symmetric unweighted adjacency (CSR, 0/1 entries, zero diagonal)."""

    adjacency: sparse.csr_matrix
    k_n: int

    def __post_init__(self) -> None:
        adj = self.adjacency.tocsr()
        if adj.shape[0] != adj.shape[1]:
            raise ValueError("adjacency must be square")
        if self.k_n < 1:
            raise ValueError("k_n must be at least 1")
        if (adj != adj.T).nnz != 0:
            raise ValueError("adjacency must be symmetric")
        if adj.diagonal().any():
            raise ValueError("adjacency must have a zero diagonal")
        if adj.nnz and not np.all(adj.data == 1.0):
            raise ValueError("adjacency entries must be 0 or 1")
        object.__setattr__(self, "adjacency", adj)

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]


def knn_indices(spectra: np.ndarray, k_n: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's ``k_n`` nearest other rows by Euclidean distance.

    Returns ``(indices, distances)``, both ``(n, k_n)`` and sorted by
    ascending distance per row.  Self-neighbors are excluded; distance ties
    resolve to the smaller index (stable sort on exactly computed squared
    distances, so duplicates of a spectrum order deterministically).  One
    search per cloud serves the bandwidth, the density and the graph.
    """
    x = np.ascontiguousarray(np.asarray(spectra, dtype=np.float64))
    if x.ndim != 2:
        raise ValueError("spectra must be 2-D (n, bands)")
    n = x.shape[0]
    if not 1 <= k_n < n:
        raise ValueError(f"k_n must be in [1, {n - 1}] for {n} pixels")
    sq = np.einsum("ij,ij->i", x, x)
    idx_out = np.empty((n, k_n), dtype=np.intp)
    dist_out = np.empty((n, k_n))
    block = max(1, int(4_000_000 // max(n, 1)))
    for start in range(0, n, block):
        stop = min(start + block, n)
        gram = x[start:stop] @ x.T
        d2 = sq[start:stop, None] + sq[None, :] - 2.0 * gram
        np.clip(d2, 0.0, None, out=d2)
        d2[np.arange(stop - start), np.arange(start, stop)] = np.inf
        order = np.argsort(d2, axis=1, kind="stable")[:, :k_n]
        idx_out[start:stop] = order
        dist_out[start:stop] = np.sqrt(np.take_along_axis(d2, order, axis=1))
    return idx_out, dist_out


def knn_graph(neighbors: np.ndarray) -> KnnGraph:
    """Symmetrized KNN graph from an ``(n, k_n)`` neighbor index array.

    ``neighbors`` is the index half of :func:`knn_indices`.  A directed edge
    goes to each of a pixel's ``k_n`` nearest others; the adjacency is the
    elementwise maximum with its transpose, so every row has between
    ``k_n`` and ``2 * k_n`` neighbors.
    """
    n, k_n = neighbors.shape
    rows = np.repeat(np.arange(n, dtype=np.intp), k_n)
    directed = sparse.csr_matrix(
        (np.ones(rows.shape[0]), (rows, neighbors.ravel())), shape=(n, n)
    )
    symmetric = directed.maximum(directed.T).tocsr()
    symmetric.sort_indices()
    return KnnGraph(symmetric, k_n)


@dataclass(frozen=True)
class DiffusionSystem:
    """Eigensystem of the random walk on a KNN graph.

    ``eigenvalues`` are sorted by decreasing magnitude (the leading one is
    1); ``eigenvectors`` columns are the matching right eigenvectors of
    ``P = D^{-1} W``, orthonormal under the stationary distribution ``pi``
    and signed so each column's largest-magnitude entry is positive.
    """

    graph: KnnGraph
    degrees: np.ndarray
    pi: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self) -> None:
        degrees = np.ascontiguousarray(np.asarray(self.degrees, dtype=np.float64))
        pi = np.ascontiguousarray(np.asarray(self.pi, dtype=np.float64))
        eigenvalues = np.ascontiguousarray(np.asarray(self.eigenvalues, dtype=np.float64))
        eigenvectors = np.ascontiguousarray(np.asarray(self.eigenvectors, dtype=np.float64))
        n = self.graph.n
        if degrees.shape != (n,) or pi.shape != (n,):
            raise ValueError("degrees and pi must have one entry per node")
        if eigenvectors.shape != (n, eigenvalues.shape[0]):
            raise ValueError("eigenvectors must be (n, n_pairs)")
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "eigenvalues", eigenvalues)
        object.__setattr__(self, "eigenvectors", eigenvectors)

    @property
    def n(self) -> int:
        return self.graph.n

    def embedding(self, t: float) -> np.ndarray:
        """Eigenvectors scaled by ``|lambda|^t``; Euclidean distances in this
        embedding are diffusion distances at time ``t``."""
        if t < 0:
            raise ValueError("t must be non-negative")
        return self.eigenvectors * np.abs(self.eigenvalues) ** t


def diffusion_system(graph: KnnGraph, n_eigenpairs: int) -> DiffusionSystem:
    """Leading eigenpairs of the random walk on ``graph``.

    The walk ``P = D^{-1} W`` shares eigenvalues with the symmetric
    ``S = D^{-1/2} W D^{-1/2}``; its orthonormal eigenvectors ``phi`` map to
    right eigenvectors ``psi = phi / sqrt(deg) * sqrt(sum(deg))`` of ``P``,
    which are exactly orthonormal under ``pi = deg / sum(deg)``.  Pairs are
    sorted by decreasing ``|lambda|`` (exact ties prefer the larger signed
    value, putting the stationary pair first) and eigenvalues are clipped
    into ``[-1, 1]``, their analytic range.

    Raises
    ------
    DisconnectedGraphError
        If the graph is not connected (mentions the component count; a
        larger ``k_n`` usually reconnects it).
    """
    adjacency = graph.adjacency
    n = graph.n
    if n < 2:
        raise ValueError("need at least two nodes")
    if not 1 <= n_eigenpairs <= n:
        raise ValueError(f"n_eigenpairs must be in [1, {n}]")
    n_components, _ = csgraph.connected_components(adjacency, directed=False)
    if n_components > 1:
        raise DisconnectedGraphError(
            f"KNN graph has {n_components} connected components; "
            "increase k_n to reconnect it"
        )
    degrees = np.asarray(adjacency.sum(axis=1)).ravel().astype(np.float64)
    pi = degrees / degrees.sum()
    inv_sqrt = 1.0 / np.sqrt(degrees)
    coo = adjacency.tocoo()
    s_data = coo.data * (inv_sqrt[coo.row] * inv_sqrt[coo.col])
    s_matrix = sparse.csr_matrix((s_data, (coo.row, coo.col)), shape=(n, n))
    if n_eigenpairs >= n - 1 or n <= _DENSE_EIG_CUTOFF:
        eigvals, eigvecs = np.linalg.eigh(s_matrix.toarray())
    else:
        v0 = np.full(n, 1.0 / np.sqrt(n))
        eigvals, eigvecs = scipy.sparse.linalg.eigsh(
            s_matrix, k=n_eigenpairs, which="LM", tol=1e-10, v0=v0
        )
    order = np.lexsort((-eigvals, -np.abs(eigvals)))[:n_eigenpairs]
    eigvals = np.clip(eigvals[order], -1.0, 1.0)
    psi = eigvecs[:, order] * inv_sqrt[:, None] * np.sqrt(degrees.sum())
    peaks = np.argmax(np.abs(psi), axis=0)
    flip = psi[peaks, np.arange(psi.shape[1])] < 0
    psi[:, flip] *= -1.0
    return DiffusionSystem(graph, degrees, pi, eigvals, psi)


def diffusion_distance(system: DiffusionSystem, i: int, j: int, t: float) -> float:
    """Diffusion distance between nodes ``i`` and ``j`` at time ``t``."""
    n = system.n
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError("node index out of range")
    embedding = system.embedding(t)
    return float(np.linalg.norm(embedding[i] - embedding[j]))


def nearest_in_diffusion(
    system: DiffusionSystem, i: int, candidates: Sequence[int] | np.ndarray, t: float
) -> int:
    """Candidate node closest to ``i`` in diffusion distance (ties take the
    smallest index)."""
    cand = np.unique(np.asarray(candidates, dtype=np.intp))
    if cand.size == 0:
        raise ValueError("candidate set is empty")
    n = system.n
    if cand[0] < 0 or cand[-1] >= n or not 0 <= i < n:
        raise IndexError("node index out of range")
    embedding = system.embedding(t)
    dists = np.linalg.norm(embedding[cand] - embedding[i], axis=1)
    return int(cand[int(np.argmin(dists))])
