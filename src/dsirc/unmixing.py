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

from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .core import DegenerateCovarianceError, PixelCloud

__all__ = [
    "RankDeficientDataError",
    "UnmixingModel",
    "PurityField",
    "hysime",
    "project_affine_pca",
    "avmax",
    "nnls",
    "abundances",
    "purity",
    "unmix",
]


class RankDeficientDataError(ValueError):
    """Raised when the data's affine span is too small for the requested
    simplex, making every candidate volume zero."""


@dataclass(frozen=True)
class UnmixingModel:
    """Endmembers ``(p, bands)`` and per-pixel abundances ``(n, p)``."""

    endmembers: np.ndarray
    abundances: np.ndarray

    def __post_init__(self) -> None:
        endmembers = np.ascontiguousarray(np.asarray(self.endmembers, dtype=np.float64))
        abund = np.ascontiguousarray(np.asarray(self.abundances, dtype=np.float64))
        if endmembers.ndim != 2 or endmembers.shape[0] < 1:
            raise ValueError("endmembers must be (p, bands) with p >= 1")
        if abund.ndim != 2 or abund.shape[1] != endmembers.shape[0]:
            raise ValueError("abundances must be (n, p) matching the endmember count")
        if abund.size and abund.min() < 0:
            raise ValueError("abundances must be non-negative")
        object.__setattr__(self, "endmembers", endmembers)
        object.__setattr__(self, "abundances", abund)

    @property
    def p(self) -> int:
        return self.endmembers.shape[0]


@dataclass(frozen=True)
class PurityField:
    """Raw purity ``eta`` in (0, 1] and max-normalized ``eta_hat`` per pixel."""

    eta: np.ndarray
    eta_hat: np.ndarray

    def __post_init__(self) -> None:
        eta = np.ascontiguousarray(np.asarray(self.eta, dtype=np.float64))
        eta_hat = np.ascontiguousarray(np.asarray(self.eta_hat, dtype=np.float64))
        if eta.ndim != 1 or eta.shape != eta_hat.shape:
            raise ValueError("eta and eta_hat must be 1-D and equal length")
        if eta.size and (eta.min() <= 0 or eta.max() > 1 + 1e-12):
            raise ValueError("eta must lie in (0, 1]")
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "eta_hat", eta_hat)


def hysime(cloud: PixelCloud) -> int:
    """Estimate the signal subspace dimension of a pixel cloud.

    Per-band noise is estimated by ridge-regularized regression of each band
    on all others; signal and noise second-moment matrices (uncentered,
    ``X.T @ X / n``) then rank the eigenvectors of the signal moment, and a
    direction is kept while its signal energy exceeds twice its noise
    energy.  The count is clamped to ``[1, bands - 1]``.

    Raises
    ------
    DegenerateCovarianceError
        If the spectra carry no energy at all, or a band regression is
        singular even with ridge regularization (remove constant/duplicate
        bands first).
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
    residuals = np.empty_like(x)
    idx = np.arange(bands)
    for k in range(bands):
        others = idx != k
        sub = gram[np.ix_(others, others)]
        rhs = gram[others, k]
        ridge = 1e-6 * float(np.trace(sub))
        try:
            beta = np.linalg.solve(sub + ridge * np.eye(bands - 1), rhs)
        except np.linalg.LinAlgError as exc:
            raise DegenerateCovarianceError(
                f"band {k} regression is singular; remove degenerate bands"
            ) from exc
        residuals[:, k] = x[:, k] - x[:, others] @ beta
    noise_moment = (residuals.T @ residuals) / n
    data_moment = gram / n
    signal_moment = data_moment - noise_moment
    eigvals, eigvecs = np.linalg.eigh(signal_moment)
    order = np.argsort(eigvals)[::-1]
    eigvecs = eigvecs[:, order]
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
    centered = x - x.mean(axis=0)
    cov = (centered.T @ centered) / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    eigvals = eigvals[::-1]
    eigvecs = eigvecs[:, ::-1]
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
    volume and affine in any single row, so a batched determinant over all
    candidate replacements evaluates every swap exactly.
    """
    n = projected.shape[0]
    p = vertices.shape[0]
    base = np.ones((p, p))
    base[:, 1:] = vertices
    batch = np.broadcast_to(base, (n, p, p)).copy()
    batch[:, j, 1:] = projected
    return np.abs(np.linalg.det(batch))


def _ascend_volume(projected: np.ndarray, start: np.ndarray, max_cycles: int = 500) -> tuple[float, np.ndarray]:
    """Cyclic single-vertex ascent of simplex volume from a starting index set."""
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


def nnls(endmembers: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Non-negative least-squares abundances of one spectrum.

    Solves ``min_{a >= 0} || a @ endmembers - x ||_2`` with SciPy's
    Lawson–Hanson active-set solver (:func:`scipy.optimize.nnls`).  The
    solution satisfies the KKT conditions: the residual gradient is
    non-negative everywhere and zero on the support.
    """
    e = np.asarray(endmembers, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if e.ndim != 2 or x.ndim != 1 or e.shape[1] != x.shape[0]:
        raise ValueError("endmembers must be (p, bands) and x a length-bands vector")
    if e.shape[0] > e.shape[1]:
        # more endmembers than bands is underdetermined
        raise ValueError("need at least as many bands as endmembers")
    if not (np.all(np.isfinite(e)) and np.all(np.isfinite(x))):
        raise ValueError("inputs must be finite")
    return scipy.optimize.nnls(e.T, x)[0]


def abundances(endmembers: np.ndarray, spectra: np.ndarray) -> np.ndarray:
    """Row-wise NNLS abundances for a matrix of spectra."""
    spectra = np.asarray(spectra, dtype=np.float64)
    return np.array([nnls(endmembers, row) for row in spectra])


def purity(model: UnmixingModel) -> PurityField:
    """Largest abundance share per pixel, raw and max-normalized.

    Abundance rows are normalized to sum to one first (an all-zero row is
    treated as uniform, purity ``1/p``), so ``eta`` lies in ``(0, 1]``;
    ``eta_hat`` divides by the maximum over the cloud.
    """
    a = model.abundances
    p = model.p
    sums = a.sum(axis=1)
    safe = np.where(sums > 0, sums, 1.0)
    shares = np.where(sums[:, None] > 0, a / safe[:, None], 1.0 / p)
    eta = shares.max(axis=1)
    eta_hat = eta / eta.max()
    return PurityField(eta, eta_hat)


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
