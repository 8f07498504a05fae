"""Shape-adaptive spectral reconstruction.

Each pixel gets a convex, spatially adaptive neighborhood sized from the
local smoothness of the image's first principal component: order-0 local
averages are computed along eight compass rays at several lengths, a
confidence-interval intersection rule picks the longest statistically
consistent length per ray, and the convex hull of the eight ray endpoints
defines the neighborhood.  The pixel's spectrum is then replaced by a
correlation-weighted average of the neighborhood spectra.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import PixelCloud, first_pc

__all__ = [
    "DIRECTION_STEPS",
    "IciConfig",
    "estimate_noise_sigma",
    "sar",
]

# Unit steps for the eight rays, 45 degrees apart, starting east and
# proceeding counterclockwise: direction m (1-based) steps by
# DIRECTION_STEPS[m - 1] == (d_row, d_col) per sample.
DIRECTION_STEPS: tuple[tuple[int, int], ...] = (
    (0, 1),
    (-1, 1),
    (-1, 0),
    (-1, -1),
    (0, -1),
    (1, -1),
    (1, 0),
    (1, 1),
)


@dataclass(frozen=True)
class IciConfig:
    """Parameters of the confidence-interval length selection.

    ``tau`` scales the interval half-widths; ``lengths`` is the strictly
    increasing ladder of candidate ray lengths.
    """

    tau: float = 2.0
    lengths: tuple[int, ...] = (1, 2, 3, 5, 7, 9)

    def __post_init__(self) -> None:
        if not self.tau > 0:
            raise ValueError("tau must be positive")
        lengths = tuple(int(l) for l in self.lengths)
        if not lengths:
            raise ValueError("lengths must be non-empty")
        if lengths[0] < 1 or any(b <= a for a, b in zip(lengths, lengths[1:])):
            raise ValueError("lengths must be strictly increasing and at least 1")
        object.__setattr__(self, "lengths", lengths)


# ---------------------------------------------------------------------------
# Region geometry

_HULL_TOL = 1e-9


def _convex_hull_ccw(points: np.ndarray) -> np.ndarray:
    """Andrew's monotone chain; expects >= 3 unique non-collinear points."""
    pts = points[np.lexsort((points[:, 1], points[:, 0]))]

    def half(iterable):
        chain: list[np.ndarray] = []
        for p in iterable:
            while len(chain) >= 2:
                a, b = chain[-2], chain[-1]
                cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
                if cross <= 0:
                    chain.pop()
                else:
                    break
            chain.append(p)
        return chain

    lower = half(pts)
    upper = half(pts[::-1])
    return np.array(lower[:-1] + upper[:-1])


def _points_in_hull(candidates: np.ndarray, vertices: np.ndarray, tol: float = _HULL_TOL) -> np.ndarray:
    """Boolean mask of candidate points inside the convex hull of ``vertices``.

    Handles the degenerate cases (all vertices equal, all collinear) and uses
    half-plane tests with an absolute tolerance otherwise.  Coordinates here
    are small integers stored as floats, so the arithmetic is exact and the
    tolerance only guards the phrasing of boundary inclusion.
    """
    cand = np.asarray(candidates, dtype=np.float64)
    verts = np.unique(np.asarray(vertices, dtype=np.float64), axis=0)
    if verts.shape[0] == 1:
        return np.all(np.abs(cand - verts[0]) <= tol, axis=1)
    base = verts[0]
    dirs = verts[1:] - base
    ref = dirs[np.argmax(np.abs(dirs).sum(axis=1))]
    cross_to_ref = dirs[:, 0] * ref[1] - dirs[:, 1] * ref[0]
    if np.all(np.abs(cross_to_ref) <= tol):
        # Collinear vertex set: the hull is a segment along ref.
        t_verts = dirs @ ref
        t_lo, t_hi = float(t_verts.min()), float(t_verts.max())
        t_lo = min(t_lo, 0.0)
        t_hi = max(t_hi, 0.0)
        rel = cand - base
        off_line = np.abs(rel[:, 0] * ref[1] - rel[:, 1] * ref[0])
        t = rel @ ref
        return (off_line <= tol) & (t >= t_lo - tol) & (t <= t_hi + tol)
    hull = _convex_hull_ccw(verts)
    inside = np.ones(cand.shape[0], dtype=bool)
    for i in range(hull.shape[0]):
        a = hull[i]
        b = hull[(i + 1) % hull.shape[0]]
        cross = (b[0] - a[0]) * (cand[:, 1] - a[1]) - (b[1] - a[1]) * (cand[:, 0] - a[0])
        inside &= cross >= -tol
    return inside


@lru_cache(maxsize=4096)
def _region_offsets(dir_lengths: tuple[int, ...]) -> np.ndarray:
    """Integer (row, col) offsets inside the hull of the 8 ray endpoints.

    Translation-invariant, hence cached on the length tuple alone.  The
    endpoint of direction m at length l sits at ``(l - 1) * step_m``; length
    1 keeps the endpoint on the center.
    """
    endpoints = np.array(
        [((l - 1) * dr, (l - 1) * dc) for l, (dr, dc) in zip(dir_lengths, DIRECTION_STEPS)],
        dtype=np.float64,
    )
    r_lo, c_lo = np.floor(endpoints.min(axis=0)).astype(int)
    r_hi, c_hi = np.ceil(endpoints.max(axis=0)).astype(int)
    rr, cc = np.meshgrid(np.arange(r_lo, r_hi + 1), np.arange(c_lo, c_hi + 1), indexing="ij")
    cand = np.column_stack((rr.ravel(), cc.ravel())).astype(np.float64)
    mask = _points_in_hull(cand, endpoints)
    offsets = cand[mask].astype(np.intp)
    offsets.setflags(write=False)
    return offsets


def _offset_table(tuples: np.ndarray, h: int) -> np.ndarray:
    """:func:`_region_offsets` of each row of ``tuples`` (lengths per
    direction), stacked into one ``(len(tuples), K, 2)`` array of the
    narrowest signed integer type that holds every entry.

    Shorter lists are padded with the offset ``(-h, 0)``, which lands above
    a grid of height ``h`` from every pixel, so it is clipped like any other
    outside cell.  Every offset is smaller in magnitude than the longest
    length.
    """
    offsets = [_region_offsets(tuple(t)) for t in tuples.tolist()]
    dtype = np.promote_types(np.min_scalar_type(-h), np.min_scalar_type(-int(tuples.max())))
    table = np.zeros((len(offsets), max(len(o) for o in offsets), 2), dtype=dtype)
    table[:, :, 0] = -h
    for k, o in enumerate(offsets):
        table[k, : len(o)] = o
    return table


def _region_members(pixels: np.ndarray, offsets: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Region members of each pixel in ``pixels`` (flat row-major indices).

    ``offsets[i]`` is the :func:`_offset_table` row of pixel ``pixels[i]``'s
    selected lengths.  Row ``i`` of the result lists, ascending, the flat
    indices of the in-bounds cells inside the closed convex hull of that
    pixel's eight ray endpoints; ``-1`` fills the rest of the row.  The
    offsets are in (row, col) order, and in-bounds cells keep that order as
    flat indices.
    """
    h, w = shape
    rows = (pixels // w)[:, None] + offsets[:, :, 0]
    cols = (pixels % w)[:, None] + offsets[:, :, 1]
    inside = (rows >= 0) & (rows < h) & (cols >= 0) & (cols < w)
    return np.where(inside, rows * w + cols, -1)


# ---------------------------------------------------------------------------
# Reconstruction

# Elements one working block of SaR may hold: pixel-by-offset entries of a
# member pass, centre-by-member-by-band values of a region gather, or the
# values of a chunk of spectra.  65,536 float64 values are 512 KiB, so a
# block's temporaries stay in cache and none grows with the scene.  Every
# pass over a block is row-local, so no result depends on the block size.
_BLOCK_ELEMENTS = 65_536


def _blocks(items: np.ndarray, per_item: int) -> list[np.ndarray]:
    """``items`` split along the first axis into consecutive blocks of
    ``_BLOCK_ELEMENTS // per_item`` items, and at least one."""
    size = max(1, _BLOCK_ELEMENTS // per_item)
    return np.split(items, range(size, len(items), size))


def _centred_rows(spectra: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each spectrum minus its mean, with two norms of that centred row.

    The member norm sums squares pairwise, one chunk of rows at a time, and
    the centre norm is BLAS's ``dot`` (a 1×b by b×1 ``matmul``, the call
    ``np.linalg.norm`` makes); the two can differ in the last bit, and each
    is the one the Pearson weight of a per-pixel reconstruction takes for
    that role.
    """
    centred = spectra - spectra.mean(axis=1, keepdims=True)
    squares = [(c * c).sum(axis=1) for c in _blocks(centred, centred.shape[1])]
    member_norm = np.sqrt(np.concatenate(squares))
    centre_norm = np.sqrt(np.matmul(centred[:, None, :], centred[:, :, None]).ravel())
    return centred, member_norm, centre_norm


def _reconstruct(
    spectra: np.ndarray,
    row_stats: tuple[np.ndarray, np.ndarray, np.ndarray],
    members: np.ndarray,
    centers: np.ndarray,
) -> np.ndarray:
    """Correlation-weighted average of each center's region members.

    ``members`` is ``(g, m)``: row ``i`` holds the sorted members of pixel
    ``centers[i]``, itself among them; ``row_stats`` is
    :func:`_centred_rows` of ``spectra``.  Each member's weight is its
    Pearson correlation with the center, clipped at 0, and 0 where either
    spectrum has zero variance (Pearson is undefined there); the center's
    own weight is 1, so the result is a convex combination of member
    spectra, inside their per-band min/max envelope.  Each row takes one
    matrix-vector product for the correlations and one for the average.
    """
    centred, member_norm, centre_norm = row_stats
    numerators = np.matmul(centred[members], centred[centers][:, :, None])[:, :, 0]
    norms = member_norm[members]
    ok = (norms > 0.0) & (centre_norm[centers] > 0.0)[:, None]
    denominators = norms * centre_norm[centers][:, None]
    weights = np.divide(numerators, denominators, out=np.zeros_like(numerators), where=ok)
    np.clip(weights, 0.0, None, out=weights)
    weights[members == centers[:, None]] = 1.0
    average = np.matmul(weights[:, None, :], spectra[members])[:, 0, :]
    return average / weights.sum(axis=1)[:, None]


def estimate_noise_sigma(grid: np.ndarray) -> float:
    """Robust noise scale of a 2-D field via horizontal first differences.

    Uses the median absolute deviation of ``grid[:, 1:] - grid[:, :-1]``
    scaled by ``0.6745 * sqrt(2)``; a difference of two i.i.d. noise values
    has ``sqrt(2)`` times the noise sigma, and 0.6745 converts MAD to a
    Gaussian standard deviation.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 2:
        raise ValueError("expected a 2-D field")
    diffs = np.diff(grid, axis=1).ravel()
    if diffs.size == 0:
        return 0.0
    mad = float(np.median(np.abs(diffs - np.median(diffs))))
    return mad / (0.6745 * np.sqrt(2.0))


def _directional_estimate_stacks(grid: np.ndarray, lengths: tuple[int, ...]) -> list[np.ndarray]:
    """Per-direction stacks of LPA estimates, shape ``(len(lengths), h, w)``.

    Entry ``[m][li, r, c]`` is the equal-weight average of ``lengths[li]``
    samples of ``grid`` along ray ``m + 1`` from ``(r, c)``, samples outside
    the grid replaced by the last in-bounds one, so every tap is used.  The
    samples are accumulated in ray order.
    """
    h, w = grid.shape
    max_len = max(lengths)
    rows = np.arange(h, dtype=np.intp)[:, None]
    cols = np.arange(w, dtype=np.intp)[None, :]
    stacks: list[np.ndarray] = []
    for dr, dc in DIRECTION_STEPS:
        # Steps available before the ray leaves the grid, per pixel.
        avail = np.full((h, w), max_len, dtype=np.intp)
        if dr > 0:
            avail = np.minimum(avail, h - 1 - rows)
        elif dr < 0:
            avail = np.minimum(avail, rows)
        if dc > 0:
            avail = np.minimum(avail, w - 1 - cols)
        elif dc < 0:
            avail = np.minimum(avail, cols)
        samples = []
        for s in range(max_len):
            step = np.minimum(s, avail)
            samples.append(grid[rows + step * dr, cols + step * dc])
        stack = np.empty((len(lengths), h, w))
        for li, length in enumerate(lengths):
            weight = 1.0 / length
            acc = np.zeros((h, w))
            for s in range(length):
                acc += weight * samples[s]
            stack[li] = acc
        stacks.append(stack)
    return stacks


def _select_lengths(estimates: np.ndarray, sigma: float, config: IciConfig) -> np.ndarray:
    """Largest candidate length whose confidence interval still intersects
    all shorter ones, for every ray at once.

    The first axis of ``estimates`` runs over ``config.lengths``.  Interval
    ``l`` is ``estimate ± tau * sigma * gain(l)``, with ``gain(l)`` the noise
    gain ``‖(1/l, …, 1/l)‖₂`` of an ``l``-sample average, computed as a norm
    rather than ``1/sqrt(l)`` because the two differ in the last bit for some
    lengths, which can flip a comparison.  The running intersection only
    shrinks, so the lengths whose prefix intersection is non-empty form a
    prefix of the ladder; the first interval is never empty, so the smallest
    length is the fallback.
    """
    gain = np.array([np.linalg.norm(np.full(l, 1.0 / l)) for l in config.lengths])
    half = config.tau * sigma * gain.reshape((-1,) + (1,) * (estimates.ndim - 1))
    lower = np.maximum.accumulate(estimates - half, axis=0)
    upper = np.minimum.accumulate(estimates + half, axis=0)
    return np.asarray(config.lengths)[(lower <= upper).sum(axis=0) - 1]


def _length_tuples(grid: np.ndarray, config: IciConfig) -> tuple[np.ndarray, np.ndarray]:
    """The distinct tuples of per-direction lengths selected on the PC field
    ``grid``, and the row of each pixel's tuple, pixels in row-major order.

    The noise scale of the interval rule is estimated from ``grid`` itself.
    """
    estimates = np.stack(_directional_estimate_stacks(grid, config.lengths), axis=1)
    selected = _select_lengths(estimates, estimate_noise_sigma(grid), config)
    tuples, inverse = np.unique(
        selected.reshape(len(DIRECTION_STEPS), -1).T, axis=0, return_inverse=True
    )
    return tuples, inverse.ravel()  # numpy 2.0.0 keeps an extra axis here


def sar(cloud: PixelCloud, config: IciConfig | None = None) -> PixelCloud:
    """Shape-adaptive reconstruction of every spectrum in a full-grid cloud.

    Pipeline per pixel: directional local averages of the first-PC field at
    each candidate length, confidence-interval length selection per
    direction, convex-hull rasterization of the eight ray endpoints, and a
    correlation-weighted average of the member spectra.  The noise scale
    of the interval rule is estimated from the PC field itself.  Pixels
    with the same number of region members are reconstructed together.

    Working memory beyond the output, the centred spectra and a few values
    per pixel is bounded: member counts and member lists are formed for
    blocks of pixels of at most ``_BLOCK_ELEMENTS`` pixel-by-offset
    entries, each region gather holds at most ``_BLOCK_ELEMENTS`` values
    (or one centre's), and squares are summed in chunks of that size.

    A cloud whose spectra are all identical is returned unchanged: there is
    no principal axis to adapt to, and any neighborhood average of equal
    spectra reproduces the input.
    """
    if config is None:
        config = IciConfig()
    shape = cloud.grid_shape()
    if shape is None:
        raise ValueError("reconstruction requires a full-grid cloud")
    if np.all(cloud.spectra == cloud.spectra[0]):
        return PixelCloud(cloud.spectra.copy(), cloud.coords.copy())
    tuples, inverse = _length_tuples(first_pc(cloud).reshape(shape), config)
    table = _offset_table(tuples, shape[0])
    counts = np.concatenate(
        [
            (_region_members(p, table[inverse[p]], shape) >= 0).sum(axis=1)
            for p in _blocks(np.arange(cloud.n), table.shape[1])
        ]
    )
    row_stats = _centred_rows(cloud.spectra)
    out = np.empty_like(cloud.spectra)
    order = np.argsort(counts, kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(counts[order])) + 1):
        m = int(counts[group[0]])
        for centers in _blocks(group, max(m * cloud.bands, table.shape[1])):
            members = _region_members(centers, table[inverse[centers]], shape)
            members = members[members >= 0].reshape(centers.size, m)
            out[centers] = _reconstruct(cloud.spectra, row_stats, members, centers)
    return PixelCloud(out, cloud.coords.copy())
