"""Synthetic hyperspectral scenes with known endmembers and ground truth.

A scene is a rectangular grid of blobs, each owned by one endmember whose
spectrum is a sum of Gaussian bumps.  Near blob borders, abundances blend
linearly (the owner's share falls from 1 to 0.5 at the border), separably
per axis; additive white Gaussian noise is scaled to the clean signal
range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LabelMap

__all__ = ["SynthConfig", "SynthScene", "synth_hsi"]


@dataclass(frozen=True)
class SynthConfig:
    """Scene layout and noise parameters.

    ``blob_rows x blob_cols`` blobs tile the grid; blob ``(i, j)`` is owned
    by endmember ``(i * blob_cols + j) % n_endmembers``.  ``mixing_width``
    is the number of pixels on each side of a border over which abundances
    blend; ``noise`` scales the noise sigma by the clean signal range.
    """

    height: int = 40
    width: int = 40
    bands: int = 30
    n_endmembers: int = 4
    blob_rows: int = 2
    blob_cols: int = 2
    mixing_width: int = 3
    noise: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.height, self.width) < 1:
            raise ValueError("grid dimensions must be positive")
        if self.bands < 2:
            raise ValueError("need at least two bands")
        if self.n_endmembers < 2:
            raise ValueError("need at least two endmembers")
        if min(self.blob_rows, self.blob_cols) < 1:
            raise ValueError("blob grid must be at least 1x1")
        if self.blob_rows > self.height or self.blob_cols > self.width:
            raise ValueError("more blobs than pixels along an axis")
        if self.mixing_width < 0:
            raise ValueError("mixing_width must be non-negative")
        if not 0 <= self.noise < np.inf:
            raise ValueError("noise must be finite and non-negative")


@dataclass(frozen=True)
class SynthScene:
    """A generated scene: the noisy ``(bands, height, width)`` float64 cube,
    ground truth, and the clean model."""

    cube: np.ndarray
    gt: LabelMap
    endmembers: np.ndarray
    abundances: np.ndarray


def _random_endmembers(config: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    """Gaussian-bump spectra with one bright material and dim companions.

    Each spectrum is a sum of 2-4 Gaussian bumps scaled so its peak equals
    the material's albedo: the first endmember is bright (peak in
    [0.85, 1.0]) and the rest are dim (peaks in [0.24, 0.44]), so the dim
    materials sit close together relative to the scene's signal range and
    class separability degrades as noise grows.  Candidates are rejected
    until every pair has correlation at most 0.9 and distance at least a
    floor that keeps classes resolvable; the floor grows with sqrt(bands)
    as distances do.  Persistent failure after 1000 draws suggests too few
    bands to decorrelate.
    """
    grid = np.arange(config.bands, dtype=np.float64)
    gap_floor = 0.4 * np.sqrt(config.bands / 30.0)
    albedos = np.concatenate(
        [
            rng.uniform(0.85, 1.0, size=1),
            rng.uniform(0.24, 0.44, size=config.n_endmembers - 1),
        ]
    )
    accepted: list[np.ndarray] = []
    draws = 0
    while len(accepted) < config.n_endmembers:
        if draws >= 1000:
            raise RuntimeError(
                "could not draw sufficiently distinct endmembers in 1000 "
                "attempts; increase the band count"
            )
        draws += 1
        n_bumps = int(rng.integers(2, 5))
        spectrum = np.zeros(config.bands)
        for _ in range(n_bumps):
            amp = rng.uniform(0.4, 1.0)
            center = rng.uniform(0.0, config.bands - 1.0)
            width = rng.uniform(config.bands / 18.0, config.bands / 7.0)
            spectrum += amp * np.exp(-((grid - center) ** 2) / (2.0 * width**2))
        spectrum *= albedos[len(accepted)] / spectrum.max()
        ok = True
        for prev in accepted:
            a = spectrum - spectrum.mean()
            b = prev - prev.mean()
            corr = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
            if corr > 0.9 or float(np.linalg.norm(spectrum - prev)) < gap_floor:
                ok = False
                break
        if ok:
            accepted.append(spectrum)
    return np.array(accepted)


def _axis_weights(size: int, n_stripes: int, mixing_width: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate stripe ownership and blend weights along one axis.

    Returns ``(owner, weights)`` where ``owner[c]`` is the stripe containing
    coordinate ``c`` and ``weights`` is ``(size, n_stripes)`` with rows
    summing to 1.  The owner's weight is ``0.5 + 0.5 * min(1, d / width)``
    with ``d`` the distance from the pixel center to the nearest interior
    stripe border (so the innermost blend pixel has d = width - 0.5 and the
    border pixel d = 0.5); the remainder goes to the neighbor across that
    border.
    """
    bounds = [round(i * size / n_stripes) for i in range(n_stripes + 1)]
    owner = np.empty(size, dtype=np.intp)
    weights = np.zeros((size, n_stripes))
    for stripe in range(n_stripes):
        lo, hi = bounds[stripe], bounds[stripe + 1]
        for c in range(lo, hi):
            owner[c] = stripe
            candidates: list[tuple[float, int]] = []
            if stripe > 0:
                candidates.append((c - lo + 0.5, stripe - 1))
            if stripe < n_stripes - 1:
                candidates.append((hi - c - 0.5, stripe + 1))
            if not candidates or mixing_width == 0:
                weights[c, stripe] = 1.0
                continue
            dist, neighbor = min(candidates)
            if dist >= mixing_width:
                weights[c, stripe] = 1.0
            else:
                share = 0.5 + 0.5 * dist / mixing_width
                weights[c, stripe] = share
                weights[c, neighbor] = 1.0 - share
    return owner, weights


def synth_hsi(config: SynthConfig | None = None) -> SynthScene:
    """Generate a blob scene: noisy cube, ground truth, endmembers, abundances.

    Abundances are separable products of the per-axis blend weights, so each
    pixel's abundance row sums to exactly 1; the ground-truth label of a
    pixel is its owning blob's endmember plus 1.  Noise is i.i.d. Gaussian
    with sigma equal to ``config.noise`` times the clean signal range;
    raises RuntimeError when that noise overflows float64.
    """
    if config is None:
        config = SynthConfig()
    rng = np.random.default_rng(config.seed)
    endmembers = _random_endmembers(config, rng)
    row_owner, row_weights = _axis_weights(config.height, config.blob_rows, config.mixing_width)
    col_owner, col_weights = _axis_weights(config.width, config.blob_cols, config.mixing_width)
    blob_to_endmember = (
        np.arange(config.blob_rows * config.blob_cols) % config.n_endmembers
    ).reshape(config.blob_rows, config.blob_cols)
    n = config.height * config.width
    abundances = np.zeros((n, config.n_endmembers))
    # blend(i, j) over the blob grid -> endmember abundance, separably.
    blob_blend = np.einsum("ri,cj->rcij", row_weights, col_weights)
    for bi in range(config.blob_rows):
        for bj in range(config.blob_cols):
            abundances[:, blob_to_endmember[bi, bj]] += blob_blend[:, :, bi, bj].reshape(n)
    gt = blob_to_endmember[row_owner[:, None], col_owner[None, :]].reshape(n) + 1
    clean = abundances @ endmembers
    signal_range = float(clean.max() - clean.min())
    with np.errstate(over="ignore"):
        noisy = clean + rng.standard_normal(clean.shape) * (config.noise * signal_range)
    if not np.all(np.isfinite(noisy)):
        raise RuntimeError(f"noise {config.noise} overflows the float64 range")
    return SynthScene(
        cube=np.ascontiguousarray(noisy.T).reshape(config.bands, config.height, config.width),
        gt=LabelMap(gt),
        endmembers=endmembers,
        abundances=abundances,
    )
