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

import numpy as np

from .core import PixelCloud, _blocks, first_pc

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


def _row_spans(tuples: np.ndarray) -> np.ndarray:
    """Column interval of each region row, for every length tuple at once.

    Row ``k`` of ``tuples`` holds a length per direction; the endpoint of
    direction m at length l sits at ``(l - 1) * step_m``, so length 1 keeps
    it on the centre.  Entry ``[k, j]`` of the result is ``(lo, hi)``: the
    integer columns of the closed convex hull of the eight endpoints in row
    offset ``j - L``, with ``L`` the longest length minus 1, are ``lo`` to
    ``hi``, and ``lo > hi`` in a row the hull does not reach.

    A horizontal line meets a convex hull in the segment spanned by where
    it meets the segments between pairs of vertices, so each bound is the
    floor or ceiling of an exact rational taken over the eight endpoints
    (the pairs ``a == b``) and their 28 pairs.  All arithmetic is integer.
    """
    longest = int(tuples.max()) - 1
    # Every product and sum below is at most 6 * longest**2 in magnitude.
    dtype = np.min_scalar_type(-6 * longest**2 - 1)
    reach = tuples.astype(dtype) - 1
    offsets = np.arange(-longest, longest + 1, dtype=dtype)
    steps = np.array(DIRECTION_STEPS, dtype=dtype)
    a, b = np.triu_indices(len(DIRECTION_STEPS))
    spans = np.empty((len(tuples), offsets.size, 2), dtype=dtype)
    for block in _blocks(len(tuples), a.size * offsets.size):
        rows = reach[block][:, :, None] * steps[:, 0, None]
        cols = reach[block][:, :, None] * steps[:, 1, None]
        ra, rb, ca, cb = rows[:, a], rows[:, b], cols[:, a], cols[:, b]
        # Row offset d meets the segment from a to b at column num / den;
        # a horizontal pair only meets its own row, at a.
        den = np.where(ra == rb, 1, rb - ra)
        num = ca * den + (offsets - ra) * (cb - ca)
        meets = (offsets - ra) * (offsets - rb) <= 0
        floor, remainder = np.divmod(num, den)
        spans[block, :, 1] = np.where(meets, floor, -longest - 1).max(axis=1)
        floor += remainder != 0
        spans[block, :, 0] = np.where(meets, floor, longest + 1).min(axis=1)
    return spans


def _clipped_spans(
    pixels: np.ndarray, spans: np.ndarray, shape: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Each region row of ``pixels`` clipped to the grid: its first member
    as a flat row-major index, and its member count (0 in a row off the
    grid or outside the hull).

    ``spans[i]`` is the :func:`_row_spans` entry of pixel ``pixels[i]``'s
    selected lengths.
    """
    h, w = shape
    longest = (spans.shape[1] - 1) // 2
    rows = (pixels // w)[:, None] + np.arange(-longest, longest + 1)
    cols = (pixels % w)[:, None]
    first = np.maximum(spans[:, :, 0] + cols, 0)
    last = np.minimum(spans[:, :, 1] + cols, w - 1)
    counts = np.where((rows >= 0) & (rows < h), np.maximum(last - first + 1, 0), 0)
    return rows * w + first, counts


def _span_members(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Region members from :func:`_clipped_spans` of regions that all have
    the same number of members: row ``i`` lists, ascending, the flat
    indices of region ``i``'s members."""
    counts = counts.ravel()
    ends = np.cumsum(counts)
    members = np.repeat(starts.ravel() - ends + counts, counts) + np.arange(ends[-1])
    return members.reshape(len(starts), -1)


# ---------------------------------------------------------------------------
# Reconstruction


def _centred_rows(spectra: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each spectrum minus its mean, with two norms of that centred row.

    The member norm sums squares pairwise, one chunk of rows at a time, and
    the centre norm is BLAS's ``dot`` (a 1×b by b×1 ``matmul``, the call
    ``np.linalg.norm`` makes); the two can differ in the last bit, and each
    is the one the Pearson weight of a per-pixel reconstruction takes for
    that role.
    """
    centred = spectra - spectra.mean(axis=1, keepdims=True)
    squares = [(centred[s] * centred[s]).sum(axis=1) for s in _blocks(*centred.shape)]
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
    """Shape-adaptive reconstruction of every spectrum of a cloud on its grid.

    Pipeline per pixel: directional local averages of the first-PC field at
    each candidate length, confidence-interval length selection per
    direction, the convex hull of the eight ray endpoints as one column
    interval per row, and a correlation-weighted average of the member
    spectra.  The noise scale of the interval rule is estimated from the
    PC field itself.  Pixels with the same number of region members are
    reconstructed together.

    The paper reconstructs each pixel from "spectrally correlated pixels
    within a data-adaptive spatial neighborhood".  The neighborhood follows
    it; how correlation enters is this code's choice.  Every member is
    weighted by its Pearson correlation with the center, clipped at 0, and
    no cut drops weakly correlated members, so a member of another class
    whose spectrum correlates with the center at 0.9 keeps a weight near
    0.9.

    Working memory beyond the output, the centred spectra, a few values
    per pixel and one column interval per region row of each distinct
    length tuple is bounded: row spans, member counts and member lists are
    formed in blocks of at most ``core._BLOCK_ELEMENTS`` (65,536) entries
    (or one region's), each region gather holds at most that many values
    (or one centre's), and squares are summed in chunks of that size.
    Every pass over a block is row-local, so no result depends on where
    the blocks are cut.

    A cloud whose spectra are all identical is returned unchanged: there is
    no principal axis to adapt to, and any neighborhood average of equal
    spectra reproduces the input.
    """
    if config is None:
        config = IciConfig()
    shape = cloud.grid
    if np.all(cloud.spectra == cloud.spectra[0]):
        return PixelCloud(cloud.spectra.copy(), shape)
    tuples, inverse = _length_tuples(first_pc(cloud).reshape(shape), config)
    spans = _row_spans(tuples)
    pixels = np.arange(cloud.n)
    counts = np.concatenate(
        [
            _clipped_spans(pixels[s], spans[inverse[s]], shape)[1].sum(axis=1)
            for s in _blocks(cloud.n, spans.shape[1])
        ]
    )
    row_stats = _centred_rows(cloud.spectra)
    out = np.empty_like(cloud.spectra)
    order = np.argsort(counts, kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(counts[order])) + 1):
        m = int(counts[group[0]])
        for s in _blocks(group.size, m):
            block = group[s]
            members = _span_members(*_clipped_spans(block, spans[inverse[block]], shape))
            for g in _blocks(block.size, m * cloud.bands):
                out[block[g]] = _reconstruct(cloud.spectra, row_stats, members[g], block[g])
    return PixelCloud(out, shape)
