"""Diffusion geometry on a symmetrized KNN graph.

The union of each pixel's KNN list with the lists that name it, a symmetric
unweighted graph over pixel spectra, induces a random walk
``P = D^{-1} W`` whose eigensystem yields diffusion distances: squared
diffusion distance at time ``t`` is the stationary-weighted L2 distance
between the walk's t-step transition rows, computable spectrally as
``sum_k |lambda_k|^{2t} (psi_k(i) - psi_k(j))^2`` with right eigenvectors
``psi_k`` normalized against the stationary distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg

from .core import _blocks

__all__ = [
    "DisconnectedGraphError",
    "KnnGraph",
    "DiffusionSystem",
    "knn_indices",
    "knn_graph",
    "diffusion_system",
]

# Below this size a dense eigensolve is both faster and free of iterative
# convergence concerns.
_DENSE_EIG_CUTOFF = 128

# The KNN search's float32 Gram product covers this many rows per block: a
# 4 MB buffer at 4,096 pixels, and enough rows for the GEMM to run at full
# speed (36-row blocks took 1.7x as long per row at 110,889 pixels).
_BLOCK_ROWS = 256
# Unit roundoff of float32, and the screen's absolute floor.
_U32 = 2.0**-24
_FLOOR = 2.0**-100


class DisconnectedGraphError(RuntimeError):
    """Raised when the KNN graph splits into multiple components, so the
    random walk has no unique stationary distribution."""


@dataclass(frozen=True)
class KnnGraph:
    """The result of :func:`knn_graph`: symmetric unweighted adjacency, held
    as its pattern, a CSR matrix of one-byte ``True`` entries with sorted
    columns and an empty diagonal."""

    adjacency: sparse.csr_matrix

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]


def knn_indices(spectra: np.ndarray, k_n: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's ``k_n`` nearest other rows by Euclidean distance.

    Returns ``(indices, distances)``, both ``(n, k_n)`` and sorted by
    ascending distance per row.  Self-neighbors are excluded; distance ties
    resolve to the smaller index, so duplicates of a spectrum order
    deterministically.  One search per cloud serves the bandwidth, the
    density and the graph.

    Each squared distance is ``sum((x_i - x_j) ** 2)`` in float64, summed
    over the bands by one reduction per pair, so its bits do not depend on
    how rows are grouped, on the BLAS or on its threads.  The indices are
    the first ``k_n`` columns of a stable argsort of those values.  A float32
    screen picks the few columns of each row that need that exact step.

    The screen.  The spectra are centred on their column mean and scaled by
    a power of two, so that their largest magnitude is below 1, and
    converted once to a float32 copy ``y``; distances change only by that
    scale ``s``.  Each block of ``_BLOCK_ROWS`` rows has its float32 Gram
    product ``2 g_ij = 2 y_i . y_j`` written into one reused buffer, where
    it becomes in place ``lo_ij = a_i + a_j - 2 g_ij`` with
    ``a_i = (1 - c) q_i - f / 2``; ``q_i = |y_i|^2`` in float64 (its
    products are exact), ``f = 2^-100`` and ``hi_ij = lo_ij + r_i + r_j``
    with ``r_i = 2 c q_i + f``.  With ``N = q_i + q_j``, ``u = 2^-24``, ``b``
    bands and ``D`` the float64 squared distance times ``s^2``, to first
    order in ``u``:

    * converting to float32 moves each centred value by at most
      ``(u + 2^-53)`` of itself, so ``|y_i - y_j|^2`` by at most ``4 u N``;
    * Higham's dot-product bound (*Accuracy and Stability of Numerical
      Algorithms*, section 3.1) puts ``g`` within ``gamma_b sum|y_ik y_jk|
      <= gamma_b N / 2`` of ``y_i . y_j`` in any summation order, with
      ``gamma_b = b u / (1 - b u)``;
    * ``D`` is within ``(b + 2) 2^-53`` of the true value relatively, and
      below ``2 N (1 + 3u)``;
    * ``lo`` rounds three times in float32 (``a``, the subtraction, the
      addition), by ``5 u N`` in all, and ``hi``'s float32 addition once
      more, by ``2 u N``.

    So ``lo`` and ``hi`` are within ``(gamma_b + 11.2 u) N`` of
    ``D -/+ (c N + f)`` for ``b <= 16,384``, and ``c = gamma_b + 16 u``
    gives ``lo_ij <= D_ij <= hi_ij``.  The floor ``f`` covers float32
    underflow, which moves a value by at most ``11 b 2^-149`` at this scale.
    The bound holds while float64 squares of differences neither underflow
    nor overflow, for centred magnitudes from about 1e-140 to 1e150.

    Row ``i`` keeps column ``j`` iff ``lo_ij <= U_i``, where ``U_i`` is the
    ``k_n``-th smallest ``hi_ij`` from one values-only partition of the row.
    As ``hi >= D``, ``U_i`` is at least the ``k_n``-th smallest ``D_ij``; as
    ``lo <= D``, the kept columns hold the true ``k_n`` nearest and every
    column tied with the ``k_n``-th.  The test reads the whole row, so a row
    keeps any number of columns with no fallback: about ``k_n`` on raw
    clouds, and more on SaR clouds, whose reconstructed neighbours lie far
    closer than their norms.

    The exact step computes the kept pairs' float64 squared distances and
    ranks each row's by (squared distance, column).  Besides the output, the
    float32 copy, the Gram buffer and three values per row, every array the
    search forms holds at most ``core._BLOCK_ELEMENTS`` values (a row of
    ``n`` where that is more): the float64 spectra are centred and gathered
    in blocks of rows under it, and each block's rows are screened in chunks
    under it.  Spectra with NaN or infinite values raise ``ValueError``.
    """
    x = np.ascontiguousarray(np.asarray(spectra, dtype=np.float64))
    if x.ndim != 2:
        raise ValueError("spectra must be 2-D (n, bands)")
    n, bands = x.shape
    if not 1 <= k_n < n:
        raise ValueError(f"k_n must be in [1, {n - 1}] for {n} pixels")
    y, q = _screen_copy(x)
    c = bands * _U32 / (1.0 - bands * _U32) + 16 * _U32
    a = ((1.0 - c) * q - _FLOOR / 2).astype(np.float32)
    r = (2.0 * c * q + _FLOOR).astype(np.float32)
    idx_out = np.empty((n, k_n), dtype=np.intp)
    dist_out = np.empty((n, k_n))
    block = min(n, _BLOCK_ROWS)
    gram = np.empty((block, n), dtype=np.float32)
    # A full block's first chunk is the widest.
    upper = np.empty((_blocks(block, n)[0].stop, n), dtype=np.float32)
    for start in range(0, n, block):
        stop = min(start + block, n)
        lo = gram[: stop - start]
        np.matmul(2 * y[start:stop], y.T, out=lo)
        np.subtract(a[start:stop, None], lo, out=lo)
        np.add(lo, a, out=lo)
        lo[np.arange(stop - start), np.arange(start, stop)] = np.inf
        for chunk in _blocks(stop - start, n):
            first, last = start + chunk.start, start + chunk.stop
            rows = lo[chunk]
            hi = np.add(rows, r, out=upper[: last - first])
            hi.partition(k_n - 1, axis=1)
            # U_i, rounded up to a float32 so one float32 comparison tests it.
            bound = np.nextafter(hi[:, k_n - 1] + r[first:last], np.float32(np.inf))
            pair_row, pair_col = np.divmod(np.flatnonzero(rows <= bound[:, None]), n)
            # Each row's kept columns, ascending and padded to the widest
            # row; a stable sort of each row then ranks by (d2, column).
            counts = np.bincount(pair_row, minlength=last - first)
            slot = np.arange(pair_row.size) - (np.cumsum(counts) - counts)[pair_row]
            cols = np.zeros((last - first, counts.max()), dtype=np.intp)
            cols[pair_row, slot] = pair_col
            d2 = _squared_distances(x, first, cols)
            d2[np.arange(cols.shape[1]) >= counts[:, None]] = np.inf
            order = np.argsort(d2, axis=1, kind="stable")[:, :k_n]
            idx_out[first:last] = np.take_along_axis(cols, order, axis=1)
            dist_out[first:last] = np.sqrt(np.take_along_axis(d2, order, axis=1))
    return idx_out, dist_out


def _screen_copy(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``x`` centred on its column mean, scaled by a power of two below a
    largest magnitude of 1, as float32; and its rows' squared norms in
    float64, which hold them exactly up to the sum's rounding.  Raises
    ``ValueError`` on non-finite values."""
    n, bands = x.shape
    top, bottom = x.max(axis=0), x.min(axis=0)
    # NaN and infinities show in the column extremes; the bound needs
    # finite values.
    if not np.all(np.isfinite(top) & np.isfinite(bottom)):
        raise ValueError("spectra contain non-finite values")
    mean = x.mean(axis=0)
    spread = max(np.max(top - mean), np.max(mean - bottom))
    scale = np.ldexp(1.0, -int(np.frexp(spread)[1]))
    y = np.empty((n, bands), dtype=np.float32)
    q = np.empty(n)
    for chunk in _blocks(n, bands):
        rows = x[chunk] - mean
        rows *= scale
        y[chunk] = rows
        exact = y[chunk].astype(np.float64)
        q[chunk] = np.einsum("ij,ij->i", exact, exact)
    return y, q


def _squared_distances(x: np.ndarray, first: int, cols: np.ndarray) -> np.ndarray:
    """``sum((x[first + i] - x[cols[i, j]]) ** 2)`` for every entry of
    ``cols`` in float64, for rows in slices of at most
    ``core._BLOCK_ELEMENTS`` gathered values (one row where that is more).
    Each pair's squares are summed by one ``einsum`` over its differences,
    whose order depends only on the band count, not on the slice or its
    alignment."""
    rows, width = cols.shape
    out = np.empty((rows, width))
    for chunk in _blocks(rows, width * x.shape[1]):
        diff = x.take(cols[chunk], axis=0)
        diff -= x[first + chunk.start : first + chunk.stop, None]
        out[chunk] = np.einsum("ijk,ijk->ij", diff, diff)
    return out


def knn_graph(neighbors: np.ndarray) -> KnnGraph:
    """Symmetrized KNN graph from an ``(n, k_n)`` neighbor index array.

    ``neighbors`` is the index half of :func:`knn_indices`.  A directed edge
    goes to each of a pixel's ``k_n`` nearest others; the adjacency is the
    elementwise maximum with its transpose, so a row has its own ``k_n``
    neighbors plus every pixel that lists it, up to ``n - 1``.  The pattern
    is kept with one-byte entries and 32-bit columns where they fit.

    Raises ``ValueError`` unless ``neighbors`` is a 2-D integer array with
    at least one row and one column, entries in ``[0, n)`` and no row that
    lists itself.
    """
    neighbors = np.asarray(neighbors)
    if neighbors.ndim != 2 or not np.issubdtype(neighbors.dtype, np.integer):
        raise ValueError("neighbors must be a 2-D integer array (n, k_n)")
    n = neighbors.shape[0]
    if min(neighbors.shape) < 1:
        raise ValueError("neighbors must have at least one row and one column")
    # SciPy's CSR constructor does not bounds-check column indices.
    if neighbors.min() < 0 or neighbors.max() >= n:
        raise ValueError(f"neighbor indices must be in [0, {n - 1}] for {n} rows")
    pattern = _symmetric_pattern(neighbors)
    if pattern.diagonal().any():
        raise ValueError("a row of neighbors lists its own index")
    return KnnGraph(pattern)


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
    # Both operands have sorted columns, so the union that SciPy merges row
    # by row has them too.
    return directed.maximum(directed.T)


@dataclass(frozen=True)
class DiffusionSystem:
    """The result of :func:`diffusion_system`: the eigensystem of the random
    walk on a KNN graph.

    ``eigenvalues`` are sorted by decreasing magnitude (the leading one is
    1); ``eigenvectors`` columns are the matching right eigenvectors of
    ``P = D^{-1} W``, one row per node, orthonormal under the stationary
    distribution ``pi = deg / sum(deg)`` and signed so each column's
    largest-magnitude entry is positive.  Both are C-ordered float64, so
    each embedding row is contiguous.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

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
    its exact value, eigenvalue 1 and the constant vector 1.  ARPACK starts
    from a fixed vector and restarts from a fixed-seed generator, so
    identical calls return identical eigenpairs.

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
    # A degree is a row length of the pattern, at least 1 as every row of
    # the neighbor array names another node.
    row_lengths = np.diff(adjacency.indptr)
    degrees = row_lengths.astype(np.float64)
    inv_sqrt = 1.0 / np.sqrt(degrees)
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
        # ARPACK draws its restart vectors from ``rng``; left unset, that
        # is fresh OS entropy on every call.
        v0 = np.full(n, 1.0 / np.sqrt(n))
        eigvals, eigvecs = scipy.sparse.linalg.eigsh(
            s_matrix, k=n_eigenpairs, which="LM", tol=1e-10, v0=v0, rng=0
        )
    order = np.lexsort((-eigvals, -np.abs(eigvals)))[:n_eigenpairs]
    eigvals = np.clip(eigvals[order], -1.0, 1.0)
    # Picking the columns leaves them Fortran-ordered; the scan's row norms
    # are taken in C order.
    psi = np.ascontiguousarray(eigvecs[:, order]) * inv_sqrt[:, None] * np.sqrt(degrees.sum())
    peaks = np.argmax(np.abs(psi), axis=0)
    flip = psi[peaks, np.arange(psi.shape[1])] < 0
    psi[:, flip] *= -1.0
    # The solver leaves rounding in the stationary pair; at a large t, where
    # every other weight underflows, that rounding would be all of d_t.
    eigvals[0] = 1.0
    psi[:, 0] = 1.0
    return DiffusionSystem(eigvals, psi)
