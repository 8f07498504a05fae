"""Blind linear unmixing: subspace dimension, endmembers, abundances, purity.

The linear mixing model treats each spectrum as a non-negative combination
of a small number of endmember spectra.  This module estimates how many
endmembers the data supports (HySime-style minimum-error subspace
selection), extracts endmember candidates from the data itself (AVMAX-style
simplex volume maximization over pixels), solves per-pixel non-negative
least squares for abundances, and scores each pixel's purity as the largest
share any single endmember takes of its abundance.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import DegenerateCovarianceError, PixelCloud, _blocks, _principal_axes

__all__ = [
    "RankDeficientDataError",
    "UnmixingModel",
    "hysime",
    "project_affine_pca",
    "avmax",
    "abundances",
    "purity",
    "unmix",
]


class RankDeficientDataError(ValueError):
    """Raised when the data's affine span is too small for the requested
    simplex, making every candidate volume zero."""


@dataclass(frozen=True)
class UnmixingModel:
    """The result of :func:`unmix`: endmembers ``(p, bands)`` and per-pixel
    non-negative abundances ``(n, p)``."""

    endmembers: np.ndarray
    abundances: np.ndarray

    @property
    def p(self) -> int:
        return self.endmembers.shape[0]


def hysime(cloud: PixelCloud) -> int:
    """Estimate the signal subspace dimension of a pixel cloud.

    Per-band noise is estimated by ridge-regularized regression of each band
    on all others, with one ridge shared by every band (see
    :func:`_noise_moment`); signal and noise second-moment matrices
    (uncentered, ``X.T @ X / n``) are read along each eigenvector of the
    signal moment, and the count is of the eigenvectors whose signal energy
    exceeds twice their noise energy, in whatever order ``eigh`` returns
    them.  The count is clamped to ``[1, bands - 1]``.

    Raises
    ------
    DegenerateCovarianceError
        If the spectra carry no energy at all.
    """
    x = cloud.spectra
    n, bands = x.shape
    if n < 2:
        raise ValueError("need at least two pixels to estimate a subspace")
    if bands < 2:
        return 1
    gram = x.T @ x
    total = float(np.trace(gram))
    if not np.isfinite(total) or total <= 0.0:
        raise DegenerateCovarianceError(
            "spectra carry no energy; remove degenerate bands or rescale"
        )
    noise_moment = _noise_moment(gram, n)
    data_moment = gram / n
    signal_moment = data_moment - noise_moment
    eigvecs = np.linalg.eigh(signal_moment)[1]
    signal_energy = np.einsum("bi,bc,ci->i", eigvecs, data_moment, eigvecs)
    noise_energy = np.einsum("bi,bc,ci->i", eigvecs, noise_moment, eigvecs)
    # On noise-free input the residuals span the same low-dimensional space
    # as the data, so both energies underflow to rounding dust outside it;
    # a direction only counts if its observed energy is distinguishable
    # from zero at all.
    floor = 1e-12 * float(np.trace(data_moment))
    keep = (signal_energy > 2.0 * noise_energy) & (signal_energy > floor)
    count = int(np.sum(keep))
    return max(1, min(count, bands - 1))


def _noise_moment(gram: np.ndarray, n: int) -> np.ndarray:
    """Second moment ``R.T @ R / n`` of the band-regression residuals ``R``.

    Band ``k`` is regressed on all other bands by ridge least squares, with
    one ridge ``r = 1e-6 * trace(G)`` for every band, where ``G = X.T @ X``.
    By block inversion, column ``k`` of ``inv(G + r I)`` divided by its
    diagonal entry is ``e_k - beta_k``, band ``k``'s residual map, so with
    ``M`` those columns ``R = X M`` and the moment is ``M.T @ G @ M / n``
    (Bioucas-Dias & Nascimento, IEEE TGRS 2008).  ``G + r I`` is positive
    definite with a condition number below about ``1e6``, so the inverse
    always exists, and nothing is formed per pixel.
    """
    ridge = 1e-6 * float(np.trace(gram))
    inverse = np.linalg.inv(gram + ridge * np.eye(gram.shape[0]))
    residual_map = inverse / np.diag(inverse)
    return residual_map.T @ gram @ residual_map / n


def project_affine_pca(spectra: np.ndarray, dim: int) -> np.ndarray:
    """Center the spectra and project onto their top ``dim`` principal axes.

    Raises :class:`RankDeficientDataError` when the data's affine rank is
    below ``dim`` (the trailing axis would carry no variance).
    """
    x = np.asarray(spectra, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("spectra must be 2-D (n, bands)")
    n, bands = x.shape
    if not 1 <= dim <= bands:
        raise ValueError(f"dim must be in 1..{bands}")
    if n < 2:
        raise ValueError("need at least two spectra to project")
    centered, eigvals, eigvecs = _principal_axes(x)
    top = float(eigvals[0])
    if top <= 0.0 or float(eigvals[dim - 1]) <= 1e-12 * top:
        raise RankDeficientDataError(
            f"data has affine rank below {dim}; every candidate simplex is flat"
        )
    return centered @ eigvecs[:, :dim]


def _replacement_volumes(projected: np.ndarray, vertices: np.ndarray, j: int) -> np.ndarray:
    """|det| of the augmented simplex matrix with vertex ``j`` swapped for
    each data point in turn.

    The augmented matrix has rows ``[1, v]`` for each vertex ``v`` in the
    ``(p-1)``-dim projection; its determinant is proportional to the simplex
    volume and affine in row ``j``.  Expanding along that row gives
    ``c[0] + x @ c[1:]`` for a point ``x``, with ``c`` the cofactors of row
    ``j``: ``p`` determinants of size ``(p-1) x (p-1)`` that do not depend
    on the row, so every swap costs one matrix-vector product (Chan et al.,
    IEEE TGRS 2011).
    """
    p = vertices.shape[0]
    base = np.ones((p, p))
    base[:, 1:] = vertices
    others = np.delete(base, j, axis=0)
    minors = np.stack([np.delete(others, k, axis=1) for k in range(p)])
    cofactors = (-1.0) ** (j + np.arange(p)) * np.linalg.det(minors)
    return np.abs(cofactors[0] + projected @ cofactors[1:])


def _ascend_volume(projected: np.ndarray, start: np.ndarray, max_cycles: int = 500) -> tuple[float, np.ndarray]:
    """Cyclic single-vertex ascent of simplex volume from a starting index set.

    Warns (``RuntimeWarning``) when ``max_cycles`` cycles all moved a vertex,
    so the ascent stopped at the cap rather than at a local maximum.
    """
    indices = np.asarray(start, dtype=np.intp).copy()
    p = indices.shape[0]
    volume = 0.0
    for _ in range(max_cycles):
        changed = False
        for j in range(p):
            vols = _replacement_volumes(projected, projected[indices], j)
            current = vols[indices[j]]
            best = int(np.argmax(vols))
            if vols[best] > current:
                indices[j] = best
                volume = float(vols[best])
                changed = True
            else:
                volume = float(current)
        if not changed:
            break
    else:
        warnings.warn(
            f"AVMAX volume ascent stopped at its cap of {max_cycles} cycles before converging",
            RuntimeWarning,
            stacklevel=2,
        )
    return volume, indices


def avmax(
    cloud: PixelCloud,
    p: int,
    restarts: int = 10,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Pick ``p`` pixels whose simplex has (locally) maximal volume.

    The cloud is projected onto its top ``p - 1`` principal axes; starting
    from random vertex sets, each vertex in turn is moved to the data point
    maximizing the simplex volume (strict improvement only, so the ascent
    terminates), and the best of ``restarts`` ascents wins.  For ``p == 1``
    the pixel farthest from the mean is returned.  Rows of the result are
    original spectra, sorted by pixel index.
    """
    rng = np.random.default_rng(rng)
    x = cloud.spectra
    n = cloud.n
    if not isinstance(p, (int, np.integer)) or p < 1:
        raise ValueError("p must be a positive integer")
    if p > n:
        raise ValueError(f"cannot pick {p} endmembers from {n} pixels")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    if p == 1:
        dist2 = ((x - x.mean(axis=0)) ** 2).sum(axis=1)
        return x[[int(np.argmax(dist2))]].copy()
    if p - 1 > cloud.bands:
        raise ValueError(f"p - 1 = {p - 1} exceeds the spectral dimension {cloud.bands}")
    projected = project_affine_pca(x, p - 1)
    best_volume = -np.inf
    best_indices: np.ndarray | None = None
    for _ in range(restarts):
        start = rng.choice(n, size=p, replace=False)
        volume, indices = _ascend_volume(projected, start)
        if volume > best_volume:
            best_volume = volume
            best_indices = indices
    assert best_indices is not None
    if best_volume <= 0.0:
        raise RankDeficientDataError("all candidate simplices are degenerate")
    return x[np.sort(best_indices)].copy()


# Elements one block of NNLS rows may hold in its passive-set systems: rows
# times p**2.  1,048,576 float64 values are 8 MiB, so no transient grows with
# the scene, and at p = 36 a block still has 809 rows to amortise the
# per-step numpy calls over.  Each row's systems are solved on their own,
# and a row's result is the solve on its final passive set alone, so the
# block size reaches it only if the rounding of a gradient flips a choice
# that decides that set, which needs a gradient within tol of zero.
_BLOCK_ELEMENTS = 1_048_576


def abundances(endmembers: np.ndarray, spectra: np.ndarray) -> np.ndarray:
    """Non-negative least-squares abundances of each row of ``spectra``.

    Row ``x`` gets ``min_{a >= 0} || a @ endmembers - x ||_2`` from a
    Lawson–Hanson active-set method run on all rows at once, in the Gram
    form ``G = E E^T``, ``h = E x`` of FNNLS (Bro & De Jong, J. Chemometrics
    1997).  Each outer step moves every unfinished row's
    most-positive-gradient variable into that row's passive set; rows whose
    passive sets have the same size solve their passive blocks of ``G`` in
    one stacked ``np.linalg.solve`` (Van Benthem & Keenan, J. Chemometrics
    2004); the step back to feasibility and the dropping of zeroed variables
    follow Lawson–Hanson, as does the rejection of an entering variable
    whose first solve is not positive.  Two tolerances, each in the units
    of what it tests, keep rounding from deciding a support: a gradient
    entry counts as zero when within ``tol = 10 * eps * p * ||G||_1`` of it,
    and an abundance does at or below ``10 * eps * p`` times its row's
    largest, so scaling ``endmembers`` and ``spectra`` together leaves the
    abundances unchanged.  Rows run in blocks of at most
    ``_BLOCK_ELEMENTS`` passive-system entries.

    A row stops when no variable outside its passive set has a residual
    gradient below ``-tol``, so each solution satisfies the KKT conditions
    to rounding: the gradient is non-negative off the support and zero on
    it.  ``G`` has the squared condition number of ``endmembers``, but an
    LU solve of the normal equations is backward stable, so the gradient
    on the support stays at rounding level even when the abundances
    themselves carry a relative error near ``cond(E)**2 * eps``.  A row
    still unfinished after ``3 * p`` outer steps keeps its last feasible
    iterate, and a ``RuntimeWarning`` counts such rows.
    """
    e = np.asarray(endmembers, dtype=np.float64)
    spectra = np.asarray(spectra, dtype=np.float64)
    if e.ndim != 2 or spectra.ndim != 2 or e.shape[1] != spectra.shape[1]:
        raise ValueError("endmembers must be (p, bands) and spectra (n, bands)")
    if e.shape[0] > e.shape[1]:
        # more endmembers than bands is underdetermined
        raise ValueError("need at least as many bands as endmembers")
    if not (np.all(np.isfinite(e)) and np.all(np.isfinite(spectra))):
        raise ValueError("inputs must be finite")
    p = e.shape[0]
    gram = e @ e.T
    rhs = spectra @ e.T
    tol = 10.0 * np.finfo(np.float64).eps * p * float(np.linalg.norm(gram, 1))
    out = np.zeros(rhs.shape)
    unfinished = sum(
        _lawson_hanson(gram, rhs[rows], out[rows], tol, 3 * p)
        for rows in _blocks(len(rhs), p * p, _BLOCK_ELEMENTS)
    )
    if unfinished:
        warnings.warn(
            f"NNLS stopped at its cap of {3 * p} steps before converging on {unfinished} row(s)",
            RuntimeWarning,
            stacklevel=2,
        )
    return out


def _lawson_hanson(gram: np.ndarray, rhs: np.ndarray, x: np.ndarray, tol: float, max_steps: int) -> int:
    """Lawson–Hanson on the rows of ``rhs``, writing the solutions into the
    zeroed ``x``; returns how many rows were still unfinished after
    ``max_steps`` outer steps."""
    m, p = rhs.shape
    passive = np.zeros((m, p), dtype=bool)
    # Variables whose entry was rejected since the row's iterate last moved.
    rejected = np.zeros((m, p), dtype=bool)
    rows = np.arange(m)
    for step in range(max_steps + 1):
        w = rhs[rows] - x[rows] @ gram
        w[passive[rows] | rejected[rows]] = -np.inf
        enter = np.argmax(w, axis=1)
        go = w[np.arange(rows.size), enter] > tol
        rows, enter = rows[go], enter[go]
        if rows.size == 0 or step == max_steps:
            return rows.size
        passive[rows, enter] = True
        z = _passive_solve(gram, rhs[rows], passive[rows])
        taken = ~_negligible(z)[np.arange(rows.size), enter]
        passive[rows[~taken], enter[~taken]] = False
        rejected[rows[~taken], enter[~taken]] = True
        moved, z = rows[taken], z[taken]
        rejected[moved] = False
        while moved.size:
            blocked = np.any(passive[moved] & _negligible(z), axis=1)
            x[moved[~blocked]] = z[~blocked]
            moved, z = moved[blocked], z[blocked]
            if moved.size == 0:
                break
            # Step back along x -> z to where the first passive variable
            # reaches zero (or all the way, if none goes negative), and drop
            # it with every negligible variable.  Every passive x is
            # positive, so each ratio lies in (0, 1].
            current = x[moved]
            ratio = np.full(current.shape, np.inf)
            np.divide(current, current - z, out=ratio, where=passive[moved] & (z <= 0.0))
            first = np.argmin(ratio, axis=1)
            picked = np.arange(moved.size)
            limit = ratio[picked, first]
            hit = limit <= 1.0
            current[hit] += limit[hit, None] * (z[hit] - current[hit])
            current[picked[hit], first[hit]] = 0.0
            # A full step lands on z exactly, so the negligible variable
            # that blocked it is dropped and each pass shrinks the set.
            current[~hit] = z[~hit]
            keep = passive[moved] & ~_negligible(current)
            current[~keep] = 0.0
            passive[moved] = keep
            x[moved] = current
            z = _passive_solve(gram, rhs[moved], keep)


def _negligible(z: np.ndarray) -> np.ndarray:
    """Entries of the rows of ``z`` at or below ``10 * eps * p`` times the
    row's largest magnitude: abundances that count as zero."""
    rtol = 10.0 * np.finfo(np.float64).eps * z.shape[1]
    return z <= rtol * np.abs(z).max(axis=1, initial=0.0, keepdims=True)


def _passive_solve(gram: np.ndarray, rhs: np.ndarray, passive: np.ndarray) -> np.ndarray:
    """Unconstrained least squares of each row on its passive variables:
    ``G[P, P] z[P] = h[P]`` and ``z = 0`` elsewhere, one stacked solve per
    passive-set size."""
    z = np.zeros(rhs.shape)
    sizes = np.count_nonzero(passive, axis=1)
    for s in np.flatnonzero(np.bincount(sizes)[1:]) + 1:
        rows = np.flatnonzero(sizes == s)
        cols = np.nonzero(passive[rows])[1].reshape(rows.size, s)
        system = gram[cols[:, :, None], cols[:, None, :]]
        b = rhs[rows[:, None], cols]
        z[rows[:, None], cols] = np.linalg.solve(system, b[:, :, None])[:, :, 0]
    return z


def purity(abundances: np.ndarray) -> np.ndarray:
    """Largest abundance share per pixel, max-normalized over the cloud.

    ``abundances`` is a non-negative ``(n, p)`` array with ``p >= 1``, such
    as :attr:`UnmixingModel.abundances`; anything else raises
    ``ValueError``.  Its rows are normalized to sum to one first (an
    all-zero row is treated as uniform, purity ``1/p``), so the raw purity
    ``eta`` lies in ``[1/p, 1]``; the result is ``eta / eta.max()``, which
    lies in ``(0, 1]`` with a maximum of exactly 1.
    """
    a = np.asarray(abundances, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] < 1 or a.min() < 0:
        raise ValueError("abundances must be a non-negative (n, p) array with p >= 1")
    p = a.shape[1]
    sums = a.sum(axis=1)
    safe = np.where(sums > 0, sums, 1.0)
    shares = np.where(sums[:, None] > 0, a / safe[:, None], 1.0 / p)
    eta = shares.max(axis=1)
    return eta / eta.max()


def unmix(
    cloud: PixelCloud,
    p: int | None = None,
    restarts: int = 10,
    rng: np.random.Generator | int | None = None,
) -> UnmixingModel:
    """Full blind unmixing: dimension estimate, endmembers, abundances."""
    rng = np.random.default_rng(rng)
    if p is None:
        p = hysime(cloud)
    endmembers = avmax(cloud, p, restarts=restarts, rng=rng)
    return UnmixingModel(endmembers, abundances(endmembers, cloud.spectra))
