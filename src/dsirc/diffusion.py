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
    "nearest_in_diffusion",
]

# Below this size a dense eigensolve is both faster and free of iterative
# convergence concerns.
_DENSE_EIG_CUTOFF = 128

# The KNN search's Gram product covers this many rows per block: an 8 MB
# buffer at 4,096 pixels, and enough rows for the GEMM to run at full speed
# (36-row blocks took 1.7x as long per row at 110,889 pixels).
# Its row-local passes run on chunks of at most this many (row, column)
# pairs (2 MB), small enough to stay in cache from one pass to the next.
_BLOCK_ROWS = 256
_CHUNK_ELEMENTS = 250_000


class DisconnectedGraphError(RuntimeError):
    """Raised when the KNN graph splits into multiple components, so the
    random walk has no unique stationary distribution."""


@dataclass(frozen=True)
class KnnGraph:
    """Symmetric unweighted adjacency, held as its pattern: a CSR matrix of
    one-byte ``True`` entries with sorted columns and a zero diagonal.

    A 0/1 matrix of any dtype is checked as a matrix (duplicates summed,
    explicit zeros rejected), then stored as that pattern.
    """

    adjacency: sparse.csr_matrix

    def __post_init__(self) -> None:
        adj = self.adjacency.tocsr()
        if adj.shape[0] != adj.shape[1]:
            raise ValueError("adjacency must be square")
        if not _is_symmetric(adj):
            raise ValueError("adjacency must be symmetric")
        if adj.diagonal().any():
            raise ValueError("adjacency must have a zero diagonal")
        summed = adj
        if not adj.has_canonical_format:
            summed = adj.astype(np.float64)
            summed.sum_duplicates()
        # Checked as stored and as summed: two stored ones are an entry of 2.
        if adj.nnz and not (np.all(adj.data == 1.0) and np.all(summed.data == 1.0)):
            raise ValueError("adjacency entries must be 0 or 1")
        # Valid entries are single ones, so the stored columns are the pattern.
        if adj.dtype != np.bool_:
            adj = _pattern(adj)
        if not adj.has_sorted_indices:
            adj = adj.sorted_indices()
        object.__setattr__(self, "adjacency", adj)

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]


def _pattern(adj: sparse.csr_matrix) -> sparse.csr_matrix:
    """``adj``'s stored positions as one-byte ``True`` entries."""
    return sparse.csr_matrix(
        (np.ones(adj.nnz, dtype=bool), adj.indices, adj.indptr), shape=adj.shape
    )


def _is_symmetric(adj: sparse.csr_matrix) -> bool:
    """Whether ``adj`` equals its transpose as a matrix: duplicate entries
    summed, explicit zeros ignored (what ``(adj != adj.T).nnz == 0`` tests).

    A canonical matrix of ones is compared by structure alone, through its
    one-byte pattern; its transpose comes out of the conversion to CSR with
    sorted columns.  Any other matrix is first summed and cleared of zeros
    in a float copy, and its values are compared too.
    """
    if adj.has_canonical_format and np.all(adj.data == 1.0):
        values = adj if adj.dtype == np.bool_ else _pattern(adj)
    else:
        values = adj.astype(np.float64)
        values.sum_duplicates()
        values.eliminate_zeros()
    transposed = values.T.tocsr()
    return all(
        np.array_equal(getattr(transposed, name), getattr(values, name))
        for name in ("indptr", "indices", "data")
    )


def knn_indices(spectra: np.ndarray, k_n: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's ``k_n`` nearest other rows by Euclidean distance.

    Returns ``(indices, distances)``, both ``(n, k_n)`` and sorted by
    ascending distance per row.  Self-neighbors are excluded; distance ties
    resolve to the smaller index, so duplicates of a spectrum order
    deterministically.  One search per cloud serves the bandwidth, the
    density and the graph.

    Squared distances come from one Gram product per block of
    ``_BLOCK_ROWS`` rows, written into one ``(block, n)`` buffer that every
    block reuses.  A last block of one row joins the one before it: a
    one-row product runs as a GEMV, whose rounding differs from the GEMM's.
    The passes after it run in place on chunks of a few rows, with one more
    ``(chunk, n)`` buffer: ``(|x_i|^2 + |x_j|^2) - 2 g_ij`` in that
    association, clipped at zero, with the diagonal set to infinity.  These
    passes are row-local, so no result depends on where a chunk starts.
    Each row then keeps its ``k_n`` smallest by one partial sort
    (``argpartition`` at ``k_n``) and orders them by (squared distance,
    index): exactly the prefix of a stable full sort.  A row whose
    ``(k_n + 1)``-th smallest value equals its ``k_n``-th is fully sorted
    instead.
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
    starts = list(range(0, n, _BLOCK_ROWS))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    stops = starts[1:] + [n]
    block = max(stop - start for start, stop in zip(starts, stops))
    chunk = min(block, max(1, _CHUNK_ELEMENTS // n))
    gram = np.empty((block, n))
    sums = np.empty((chunk, n))
    for start, stop in zip(starts, stops):
        np.matmul(x[start:stop], x.T, out=gram[: stop - start])
        for lo in range(start, stop, chunk):
            hi = min(lo + chunk, stop)
            d2, row_sums = gram[lo - start : hi - start], sums[: hi - lo]
            np.multiply(d2, 2.0, out=d2)
            np.add(sq[lo:hi, None], sq[None, :], out=row_sums)
            np.subtract(row_sums, d2, out=d2)
            np.maximum(d2, 0.0, out=d2)
            d2[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
            order = _smallest_columns(d2, k_n)
            idx_out[lo:hi] = order
            dist_out[lo:hi] = np.sqrt(np.take_along_axis(d2, order, axis=1))
    return idx_out, dist_out


def _smallest_columns(d2: np.ndarray, k: int) -> np.ndarray:
    """Each row's first ``k`` columns in a stable ascending argsort.

    One partial sort at ``k`` puts each row's ``k`` smallest values first
    and its ``(k + 1)``-th smallest at position ``k``; the first ``k`` are
    kept and ordered by (value, column).  Where the ``(k + 1)``-th value
    ties the ``k``-th, the kept set may hold the wrong one of the tied
    columns, so such rows alone are fully sorted.  Only ``k + 1`` columns
    of the partition's ``(rows, n)`` index array are kept, so it is freed
    at once.
    """
    part = np.argpartition(d2, k, axis=1)[:, : k + 1].copy()
    values = np.take_along_axis(d2, part, axis=1)
    kept, kept_values = part[:, :k], values[:, :k]
    order = np.take_along_axis(kept, np.lexsort((kept, kept_values)), axis=1)
    tied = np.flatnonzero(kept_values.max(axis=1) == values[:, k])
    order[tied] = np.argsort(d2[tied], axis=1, kind="stable")[:, :k]
    return order


def knn_graph(neighbors: np.ndarray) -> KnnGraph:
    """Symmetrized KNN graph from an ``(n, k_n)`` neighbor index array.

    ``neighbors`` is the index half of :func:`knn_indices`.  A directed edge
    goes to each of a pixel's ``k_n`` nearest others; the adjacency is the
    elementwise maximum with its transpose, so every row has between
    ``k_n`` and ``2 * k_n`` neighbors.  The pattern is symmetrized and kept
    with one-byte entries and 32-bit columns where they fit.
    """
    return KnnGraph(_symmetric_pattern(neighbors))


def _symmetric_pattern(neighbors: np.ndarray) -> sparse.csr_matrix:
    """The directed KNN pattern's union with its transpose: one-byte
    entries, sorted columns, and 32-bit indices where they fit."""
    n, k_n = neighbors.shape
    index = np.int32 if 2 * n * k_n <= np.iinfo(np.int32).max else np.int64
    columns = neighbors.astype(index)
    columns.sort(axis=1)
    directed = sparse.csr_matrix(
        (
            np.ones(n * k_n, dtype=bool),
            columns.reshape(-1),
            np.arange(0, n * k_n + 1, k_n, dtype=index),
        ),
        shape=(n, n),
    )
    pattern = directed.maximum(directed.T)
    pattern.sort_indices()
    return pattern


@dataclass(frozen=True)
class DiffusionSystem:
    """Eigensystem of the random walk on a KNN graph.

    ``eigenvalues`` are sorted by decreasing magnitude (the leading one is
    1); ``eigenvectors`` columns are the matching right eigenvectors of
    ``P = D^{-1} W``, one row per node, orthonormal under the stationary
    distribution ``pi = deg / sum(deg)`` and signed so each column's
    largest-magnitude entry is positive.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self) -> None:
        eigenvalues = np.ascontiguousarray(np.asarray(self.eigenvalues, dtype=np.float64))
        eigenvectors = np.ascontiguousarray(np.asarray(self.eigenvectors, dtype=np.float64))
        if eigenvalues.ndim != 1 or eigenvectors.shape[1:] != eigenvalues.shape:
            raise ValueError("eigenvectors must be (n, n_pairs)")
        object.__setattr__(self, "eigenvalues", eigenvalues)
        object.__setattr__(self, "eigenvectors", eigenvectors)

    @property
    def n(self) -> int:
        return self.eigenvectors.shape[0]

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
    into ``[-1, 1]``, their analytic range.  The stationary pair is set to
    its exact value, eigenvalue 1 and the constant vector 1.

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
    # A degree is a row length of the pattern.  An isolated node's inverse
    # square root is left at 0; its row of S is empty and it is a component.
    row_lengths = np.diff(adjacency.indptr)
    degrees = row_lengths.astype(np.float64)
    inv_sqrt = np.zeros(n)
    np.divide(1.0, np.sqrt(degrees), out=inv_sqrt, where=row_lengths > 0)
    # Each entry is inv_sqrt[row] * inv_sqrt[column], formed in place.
    s_data = np.repeat(inv_sqrt, row_lengths)
    s_data *= inv_sqrt[adjacency.indices]
    s_matrix = sparse.csr_matrix((s_data, adjacency.indices, adjacency.indptr), shape=(n, n))
    # S is symmetric, so its strong components are the graph's components.
    n_components, _ = csgraph.connected_components(
        s_matrix, directed=True, connection="strong"
    )
    if n_components > 1:
        raise DisconnectedGraphError(
            f"KNN graph has {n_components} connected components; "
            "increase k_n to reconnect it"
        )
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
    # The solver leaves rounding in the stationary pair; at a large t, where
    # every other weight underflows, that rounding would be all of d_t.
    eigvals[0] = 1.0
    psi[:, 0] = 1.0
    return DiffusionSystem(eigvals, psi)


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
