"""Directional averaging, interval length selection, adaptive regions.

Each stage ``sar`` runs is checked against an independently written
oracle: a literal ray walk for the directional averages, an explicit
prefix-intersection loop for the length rule, an exact integer
triangle-decomposition membership test for the convex regions, and a
per-member Pearson loop for the weighted average.  The grouped region
gathers and batched averages ``sar`` runs are also checked bit for bit
against a per-pixel reference, and the full pass against the first three
oracles assembled around the per-pixel weighted average.
"""

import importlib
import tracemalloc

import numpy as np
import pytest

from dsirc.core import PixelCloud, cube_to_cloud, first_pc
from dsirc.synth import SynthConfig, synth_hsi
from dsirc.sar import (
    DIRECTION_STEPS,
    IciConfig,
    _centred_rows,
    _clipped_spans,
    _length_tuples,
    _ray_estimates,
    _reconstruct,
    _row_spans,
    _select_lengths,
    _span_members,
    estimate_noise_sigma,
    sar,
)


# ---------------------------------------------------------------------------
# directional averages vs a literal ray walk


LADDER = (1, 2, 3, 5, 7, 9)


def library_estimate(grid, direction, length, center):
    """The library's average of ``length`` samples along ray ``direction``,
    read from the ray's stack that ``sar`` computes for the default ladder."""
    step = DIRECTION_STEPS[direction - 1]
    stack = _ray_estimates(np.asarray(grid, dtype=np.float64), step, LADDER)
    return stack[LADDER.index(length)][center]


def walk_average(grid, center, direction, length):
    h, w = grid.shape
    dr, dc = DIRECTION_STEPS[direction - 1]
    r, c = center
    last = (r, c)
    est = 0.0
    for s in range(length):
        rr, cc = r + s * dr, c + s * dc
        if 0 <= rr < h and 0 <= cc < w:
            last = (rr, cc)
        est += (1.0 / length) * grid[last]
    return est


def test_lpa_estimate_matches_ray_walk_exactly():
    rng = np.random.default_rng(10)
    cases = 0
    while cases < 150:
        h = int(rng.integers(1, 9))
        w = int(rng.integers(1, 9))
        grid = rng.standard_normal((h, w))
        r = int(rng.integers(0, h))
        c = int(rng.integers(0, w))
        direction = int(rng.integers(1, 9))
        length = int(rng.choice(LADDER))
        est = library_estimate(grid, direction, length, (r, c))
        assert est == walk_average(grid, (r, c), direction, length)
        cases += 1


def test_lpa_estimate_interior_no_padding():
    grid = np.arange(49, dtype=float).reshape(7, 7)
    # direction 1 steps east: average of (3,3), (3,4), (3,5)
    est = library_estimate(grid, 1, 3, (3, 3))
    assert est == pytest.approx(np.mean([grid[3, 3], grid[3, 4], grid[3, 5]]))
    # direction 3 steps north: average of (3,3), (2,3), (1,3)
    est = library_estimate(grid, 3, 3, (3, 3))
    assert est == pytest.approx(np.mean([grid[3, 3], grid[2, 3], grid[1, 3]]))


def test_lpa_estimate_replicates_last_in_bounds_sample():
    grid = np.array([[1.0, 2.0, 4.0]])
    # eastward from column 1: samples at columns 1, 2, then 2 again
    est = library_estimate(grid, 1, 3, (0, 1))
    assert est == pytest.approx((2.0 + 4.0 + 4.0) / 3.0)
    # northward from the only row: the center replicates
    est = library_estimate(grid, 3, 3, (0, 1))
    assert est == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# interval selection vs an explicit prefix loop


def prefix_selection(estimates, lengths, tau, sigma):
    best = lengths[0]
    for k in range(1, len(lengths) + 1):
        lowers = [e - tau * sigma * g for e, g in estimates[:k]]
        uppers = [e + tau * sigma * g for e, g in estimates[:k]]
        if max(lowers) > min(uppers):
            break
        best = lengths[k - 1]
    return best


def noise_gain(length):
    """Noise gain of a ``length``-sample average, in the library's form."""
    return np.linalg.norm(np.full(length, 1.0 / length))


def library_selection(estimates, sigma, config):
    """The library's length choice for one ray."""
    return int(_select_lengths(np.asarray(estimates, dtype=np.float64), sigma, config))


def test_ici_matches_prefix_oracle():
    rng = np.random.default_rng(11)
    lengths = (1, 2, 3, 5, 7, 9)
    gains = [noise_gain(l) for l in lengths]
    for trial in range(200):
        sigma = float(rng.uniform(0.05, 1.0))
        tau = float(rng.choice([0.5, 1.0, 2.0, 3.0]))
        # cluster some estimates, scatter others, so all exit points occur
        base = float(rng.normal())
        ests = [
            (base + float(rng.normal(scale=rng.choice([0.1, 2.0]) * sigma)), g)
            for g in gains
        ]
        config = IciConfig(tau=tau, lengths=lengths)
        assert library_selection([e for e, _ in ests], sigma, config) == prefix_selection(
            ests, lengths, tau, sigma
        )


def test_ici_constant_estimates_select_longest():
    lengths = (1, 2, 3, 5, 7, 9)
    ests = [0.7] * len(lengths)
    config = IciConfig(tau=2.0, lengths=lengths)
    assert library_selection(ests, 0.1, config) == 9


def test_ici_divergent_second_estimate_selects_shortest():
    lengths = (1, 2, 3)
    ests = [0.0, 100.0, 0.0]
    config = IciConfig(tau=1.0, lengths=lengths)
    assert library_selection(ests, 0.1, config) == 1


def test_ici_config_validation():
    with pytest.raises(ValueError):
        IciConfig(tau=0.0)
    for tau in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tau must be finite and positive"):
            IciConfig(tau=tau)
    with pytest.raises(ValueError):
        IciConfig(lengths=(2, 2))
    with pytest.raises(ValueError):
        IciConfig(lengths=())


# ---------------------------------------------------------------------------
# adaptive regions vs a least-squares hull membership oracle


def hull_membership(point, vertices):
    """Exact integer test: the hull is the union of vertex triangles and
    segments (Caratheodory in the plane), each checked with cross products.
    """
    qr, qc = int(point[0]), int(point[1])
    verts = [(int(r), int(c)) for r, c in vertices]
    if (qr, qc) in verts:
        return True

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def on_segment(a, b):
        if a == b or cross(a, b, (qr, qc)) != 0:
            return False
        dot = (qr - a[0]) * (b[0] - a[0]) + (qc - a[1]) * (b[1] - a[1])
        return 0 <= dot <= (b[0] - a[0]) ** 2 + (b[1] - a[1]) ** 2

    def in_triangle(a, b, c):
        d1 = cross(a, b, (qr, qc))
        d2 = cross(b, c, (qr, qc))
        d3 = cross(c, a, (qr, qc))
        return (d1 >= 0 and d2 >= 0 and d3 >= 0) or (d1 <= 0 and d2 <= 0 and d3 <= 0)

    m = len(verts)
    for i in range(m):
        for j in range(i + 1, m):
            if on_segment(verts[i], verts[j]):
                return True
            for k in range(j + 1, m):
                if cross(verts[i], verts[j], verts[k]) != 0 and in_triangle(
                    verts[i], verts[j], verts[k]
                ):
                    return True
    return False


def region_by_oracle(center, dir_lengths, shape):
    r0, c0 = center
    vertices = [
        (r0 + (l - 1) * dr, c0 + (l - 1) * dc)
        for l, (dr, dc) in zip(dir_lengths, DIRECTION_STEPS)
    ]
    # The hull lies inside the vertices' bounding box.
    rows = range(max(0, min(v[0] for v in vertices)), min(shape[0], max(v[0] for v in vertices) + 1))
    cols = range(max(0, min(v[1] for v in vertices)), min(shape[1], max(v[1] for v in vertices) + 1))
    members = []
    for r in rows:
        for c in cols:
            if hull_membership((r, c), vertices):
                members.append(r * shape[1] + c)
    return members


def library_region(center, dir_lengths, shape):
    """The members ``sar`` gathers for one pixel."""
    pixel = np.array([center[0] * shape[1] + center[1]])
    return _span_members(*_clipped_spans(pixel, _row_spans(np.array([dir_lengths])), shape))[0]


def region_members_per_pixel(r, c, lengths, shape):
    """Sorted flat row-major indices of the in-bounds pixels inside the
    closed convex hull of the eight ray endpoints of pixel ``(r, c)``, with
    ``lengths`` the selected length per direction of :data:`DIRECTION_STEPS`."""
    return np.array(region_by_oracle((r, c), lengths, shape), dtype=np.intp)


# A ladder longer than the default one, so rows reach past offset 8.
LONG_LADDER = (1, 2, 4, 8, 12)


def hull_tuples(rng):
    """Length tuples of the shapes a hull computation can get wrong: all
    ones (a single point), each single long ray and each pair of opposite
    rays (segments), tuples of lengths 1 and 2 only (slivers), then random
    tuples of the default and of the long ladder."""
    ones = np.ones(8, dtype=np.intp)
    single = [ones + (l - 1) * np.eye(8, dtype=np.intp)[m] for m in range(8) for l in LADDER[1:]]
    opposite = [
        ones + (l - 1) * (np.eye(8, dtype=np.intp)[m] + np.eye(8, dtype=np.intp)[m + 4])
        for m in range(4)
        for l in LADDER[1:]
    ]
    return np.concatenate(
        [
            ones[None],
            single,
            opposite,
            rng.choice((1, 2), size=(16, 8)),
            rng.choice(LADDER, size=(160, 8)),
            rng.choice(LONG_LADDER, size=(24, 8)),
        ]
    )


def test_sa_region_matches_exact_hull_oracle():
    rng = np.random.default_rng(12)
    tuples = hull_tuples(rng)
    # One call for every tuple, as ``sar`` makes: rows are padded to the
    # longest length of all.
    spans = _row_spans(tuples)
    for k, dir_lengths in enumerate(tuples.tolist()):
        reach = max(dir_lengths) - 1
        # Centre on each corner and each border in turn, on a grid that
        # clips the region there, and in the middle of a grid that just
        # holds it.
        h, w = (int(x) for x in rng.integers(1, 2 * reach + 2, size=2))
        corners_and_borders = [
            (0, 0), (0, w - 1), (h - 1, 0), (h - 1, w - 1),
            (0, w // 2), (h - 1, w // 2), (h // 2, 0), (h // 2, w - 1),
        ]
        if k % 9 == 8:
            h = w = 2 * reach + 1
            r0 = c0 = reach
        else:
            r0, c0 = corners_and_borders[k % 9]
        members = _span_members(*_clipped_spans(np.array([r0 * w + c0]), spans[[k]], (h, w)))[0]
        assert members.tolist() == region_by_oracle((r0, c0), dir_lengths, (h, w)), dir_lengths
    # Random grids and centres, lengths 1 to 4.
    for trial in range(120):
        h = int(rng.integers(1, 9))
        w = int(rng.integers(1, 9))
        r0 = int(rng.integers(0, h))
        c0 = int(rng.integers(0, w))
        dir_lengths = tuple(int(l) for l in rng.integers(1, 5, size=8))
        members = library_region((r0, c0), dir_lengths, (h, w))
        assert members.tolist() == region_by_oracle((r0, c0), dir_lengths, (h, w))


def test_sa_region_all_lengths_one_is_a_singleton():
    members = library_region((2, 3), (1,) * 8, (5, 5))
    assert members.tolist() == [2 * 5 + 3]


def test_sa_region_uniform_lengths_make_a_symmetric_octagon():
    members = library_region((4, 4), (3,) * 8, (9, 9))
    rows, cols = np.divmod(members, 9)
    # symmetric under 180-degree rotation about the center
    mirrored = sorted(zip(8 - rows, 8 - cols))
    assert mirrored == sorted(zip(rows, cols))
    assert 4 * 9 + 4 in members


def test_sa_region_clips_to_grid():
    members = library_region((0, 0), (9,) * 8, (3, 3))
    assert members.min() >= 0
    rows, cols = np.divmod(members, 3)
    assert rows.max() <= 2 and cols.max() <= 2


def pixel_spans(lengths, shape):
    """:func:`_clipped_spans` of every pixel of a grid, ``lengths`` holding
    each pixel's tuple, with the row spans formed once per distinct tuple as
    ``sar`` forms them."""
    tuples, inverse = np.unique(lengths, axis=0, return_inverse=True)
    pixels = np.arange(shape[0] * shape[1])
    return _clipped_spans(pixels, _row_spans(tuples)[inverse.ravel()], shape)


def test_span_member_counts_equal_oracle_counts():
    rng = np.random.default_rng(24)
    # Grids thinner than a region, and one that holds a full 17 x 17 hull.
    for h, w in ((1, 1), (1, 12), (12, 1), (2, 19), (19, 3), (17, 17)):
        lengths = rng.choice(LADDER, size=(h * w, 8))
        counts = pixel_spans(lengths, (h, w))[1].sum(axis=1)
        want = [
            len(region_by_oracle(divmod(i, w), tuple(lengths[i].tolist()), (h, w)))
            for i in range(h * w)
        ]
        assert counts.tolist() == want


def test_grouped_region_members_equal_per_pixel_reference():
    rng = np.random.default_rng(22)
    for trial in range(20):
        h = int(rng.integers(1, 13))
        w = int(rng.integers(1, 13))
        lengths = rng.choice(LADDER, size=(h * w, 8))
        starts, counts = pixel_spans(lengths, (h, w))
        totals = counts.sum(axis=1)
        # Member lists are formed per group of equal member counts.
        for m in np.unique(totals):
            group = np.flatnonzero(totals == m)
            members = _span_members(starts[group], counts[group])
            for i, row in zip(group, members):
                want = region_members_per_pixel(*divmod(i, w), tuple(lengths[i].tolist()), (h, w))
                np.testing.assert_array_equal(row, want)


# ---------------------------------------------------------------------------
# reconstruction


def pearson(a, b):
    ac = a - a.mean()
    bc = b - b.mean()
    na = np.linalg.norm(ac)
    nb = np.linalg.norm(bc)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(ac @ bc / (na * nb))


def reconstruct_by_oracle(spectra, members, center):
    x = spectra[center]
    weights = []
    for idx in members:
        if idx == center:
            weights.append(1.0)
        else:
            weights.append(max(pearson(x, spectra[idx]), 0.0))
    weights = np.array(weights)
    return (weights[:, None] * spectra[members]).sum(axis=0) / weights.sum()


def library_reconstruct(spectra, members, center):
    """The library's reconstruction of one pixel."""
    return _reconstruct(spectra, _centred_rows(spectra), members[None, :], np.array([center]))[0]


def correlation_weights_per_pixel(x, neighborhood, center_pos):
    """Clipped Pearson correlations of ``x`` against each neighborhood row.

    Negative correlations are zeroed; rows with zero variance get weight 0
    (Pearson is undefined there); the center's weight is forced to 1.
    """
    weights = np.zeros(neighborhood.shape[0])
    xc = x - x.mean()
    x_norm = float(np.linalg.norm(xc))
    if x_norm > 0.0:
        yc = neighborhood - neighborhood.mean(axis=1, keepdims=True)
        y_norm = np.sqrt((yc * yc).sum(axis=1))
        ok = y_norm > 0.0
        weights[ok] = (yc[ok] @ xc) / (y_norm[ok] * x_norm)
        np.clip(weights, 0.0, None, out=weights)
    weights[center_pos] = 1.0
    return weights


def reconstruct_per_pixel(spectra, members, center):
    """Average of the ``members`` rows of ``spectra`` (sorted, including
    ``center``), weighted by their clipped correlation with the center's own
    spectrum."""
    neighborhood = spectra[members]
    center_pos = int(np.searchsorted(members, center))
    weights = correlation_weights_per_pixel(spectra[center], neighborhood, center_pos)
    return (weights @ neighborhood) / float(weights.sum())


def test_reconstruct_pixel_matches_weighted_mean_oracle():
    rng = np.random.default_rng(13)
    for trial in range(30):
        h, w, bands = 5, 6, 4
        spectra = cube_to_cloud(rng.standard_normal((bands, h, w))).spectra
        r0 = int(rng.integers(0, h))
        c0 = int(rng.integers(0, w))
        dir_lengths = tuple(int(l) for l in rng.integers(1, 4, size=8))
        members = library_region((r0, c0), dir_lengths, (h, w))
        center = r0 * w + c0
        got = library_reconstruct(spectra, members, center)
        np.testing.assert_allclose(
            got, reconstruct_by_oracle(spectra, members, center), rtol=1e-12
        )


def test_batched_reconstruction_equals_per_pixel_reference_bitwise():
    rng = np.random.default_rng(21)
    h, w, bands = 9, 10, 7
    spectra = cube_to_cloud(rng.standard_normal((bands, h, w))).spectra
    # Zero-variance rows, one of them a center: they take weight 0, or give
    # the center's own spectrum back.
    spectra[[3, 40, 41]] = 1.0
    pixels = np.arange(h * w)
    row_stats = _centred_rows(spectra)
    for lengths in (rng.choice((1, 2, 3, 5), size=(h * w, 8)), np.full((h * w, 8), 3)):
        starts, counts = pixel_spans(lengths, (h, w))
        totals = counts.sum(axis=1)
        for m in np.unique(totals):
            group = pixels[totals == m]
            batch = _span_members(starts[group], counts[group])
            got = _reconstruct(spectra, row_stats, batch, group)
            want = [reconstruct_per_pixel(spectra, row, i) for row, i in zip(batch, group)]
            np.testing.assert_array_equal(got, want)


def test_reconstruct_singleton_region_returns_input():
    rng = np.random.default_rng(14)
    spectra = cube_to_cloud(rng.standard_normal((3, 4, 4))).spectra
    members = library_region((1, 1), (1,) * 8, (4, 4))
    np.testing.assert_array_equal(library_reconstruct(spectra, members, 5), spectra[5])


def test_reconstruct_identical_neighbors_average_to_the_same_spectrum():
    spectra = np.tile(np.array([1.0, 2.0, 3.0]), (9, 1))
    members = library_region((1, 1), (2,) * 8, (3, 3))
    got = library_reconstruct(spectra, members, 4)
    np.testing.assert_allclose(got, [1.0, 2.0, 3.0])


def test_reconstruction_is_a_convex_combination():
    rng = np.random.default_rng(15)
    spectra = cube_to_cloud(rng.standard_normal((5, 6, 6))).spectra
    region = library_region((3, 3), (3,) * 8, (6, 6))
    got = library_reconstruct(spectra, region, 3 * 6 + 3)
    members = spectra[region]
    assert np.all(got >= members.min(axis=0) - 1e-12)
    assert np.all(got <= members.max(axis=0) + 1e-12)


# ---------------------------------------------------------------------------
# noise estimate


def test_noise_sigma_recovers_gaussian_scale():
    rng = np.random.default_rng(16)
    for sigma in (0.1, 0.5, 2.0):
        errs = []
        for _ in range(5):
            grid = rng.normal(scale=sigma, size=(60, 60))
            errs.append(estimate_noise_sigma(grid) / sigma)
        assert abs(np.median(errs) - 1.0) < 0.1


def test_noise_sigma_ignores_smooth_structure():
    rng = np.random.default_rng(17)
    rows = np.linspace(0.0, 5.0, 50)[:, None]
    smooth = rows * np.ones((1, 50))
    noisy = smooth + rng.normal(scale=0.3, size=smooth.shape)
    est = estimate_noise_sigma(noisy)
    assert 0.2 < est < 0.4
    assert estimate_noise_sigma(smooth) < 1e-12


def test_noise_sigma_matches_explicit_formula():
    rng = np.random.default_rng(18)
    grid = rng.standard_normal((8, 9))
    diffs = (grid[:, 1:] - grid[:, :-1]).ravel()
    mad = np.median(np.abs(diffs - np.median(diffs)))
    assert estimate_noise_sigma(grid) == pytest.approx(mad / (0.6745 * np.sqrt(2.0)))


def test_noise_sigma_requires_2d():
    with pytest.raises(ValueError):
        estimate_noise_sigma(np.zeros(5))


# ---------------------------------------------------------------------------
# full reconstruction pass


def scalar_sar(cloud, config):
    """Assemble the reconstruction pixel by pixel from the oracles: ray walks,
    prefix selection and hull rasterization choose each region, and the
    per-pixel reference reconstruction averages it."""
    grid = first_pc(cloud).reshape(cloud.grid)
    sigma = estimate_noise_sigma(grid)
    gains = [noise_gain(l) for l in config.lengths]
    h, w = grid.shape
    out = np.empty_like(cloud.spectra)
    for r in range(h):
        for c in range(w):
            dir_lengths = []
            for direction in range(1, 9):
                ests = [walk_average(grid, (r, c), direction, l) for l in config.lengths]
                dir_lengths.append(
                    prefix_selection(list(zip(ests, gains)), config.lengths, config.tau, sigma)
                )
            members = np.array(region_by_oracle((r, c), dir_lengths, (h, w)), dtype=np.intp)
            idx = r * w + c
            out[idx] = reconstruct_per_pixel(cloud.spectra, members, idx)
    return out


def noisy_cloud(rng, field, bands=5):
    data = np.stack([field * (b + 1) for b in range(bands)])
    return cube_to_cloud(data + rng.normal(scale=0.05, size=data.shape))


def ramp_field(h, w):
    return np.add.outer(np.linspace(0, 1, h), np.linspace(0, 2, w))


def step_field(h, w):
    """Flat but for a step four columns from the left edge: interior pixels
    clear of it reach full 17 x 17 hulls under the default ladder."""
    return np.add.outer(np.zeros(h), (np.arange(w) >= 4).astype(float))


def test_sar_equals_scalar_assembly_bitwise():
    rng = np.random.default_rng(19)
    # The 6 x 11 grid is shorter than the longest default ray, so rays clip
    # on every side and some selected lengths reach past the edge.  On the
    # 24 x 24 grid 32 pixels have 289 members, and 576 pixels share 94
    # member counts.
    cases = (
        [(IciConfig(tau=2.0, lengths=(1, 2, 3)), ramp_field(7, 8))] * 3
        + [(IciConfig(tau=tau), ramp_field(6, 11)) for tau in (1.0, 3.0)]
        + [(IciConfig(), step_field(24, 24))]
    )
    for config, field in cases:
        cloud = noisy_cloud(rng, field)
        got = sar(cloud, config)
        expected = scalar_sar(cloud, config)
        np.testing.assert_array_equal(got.spectra, expected)
        assert got.grid == cloud.grid


def test_sar_split_gathers_equal_one_gather(monkeypatch):
    # Border pixels and 94 member counts; the default budget gathers each
    # group, up to 32 centres of 289 members by 5 bands, in one block.
    cloud = noisy_cloud(np.random.default_rng(23), step_field(24, 24))
    whole = sar(cloud)
    # 1 takes one pixel per member pass, one centre per gather and one row
    # per chunk of squares; 300 and 3000 split the passes, the groups and
    # the chunks at other places.
    for budget in (1, 300, 3000):
        monkeypatch.setattr(importlib.import_module("dsirc.core"), "_BLOCK_ELEMENTS", budget)
        np.testing.assert_array_equal(sar(cloud).spectra, whole.spectra)


def test_sar_working_memory_is_bounded():
    # On this 64 x 64 x 30 scene the output is 0.94 MiB.  A member pass over
    # every pixel and all 289 offsets at once held 59 MiB; blocks keep the
    # whole call near 6 MiB.
    cube = synth_hsi(SynthConfig(height=64, width=64, bands=30, seed=0)).cube
    cloud = cube_to_cloud(cube)
    tracemalloc.start()
    try:
        sar(cloud)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2**20


def test_interval_rule_holds_one_ray_at_a_time():
    # The eight rays' estimates at once, with their stacked copy and the
    # rule's bounds over all of them, held 192 float64 per pixel; one ray's
    # at a time holds about 32.
    cube = synth_hsi(SynthConfig(height=100, width=100, bands=30, seed=0)).cube
    cloud = cube_to_cloud(cube)
    grid = first_pc(cloud).reshape(cloud.grid)
    tracemalloc.start()
    try:
        _length_tuples(grid, IciConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 8 * grid.size


def test_sar_constant_image_is_unchanged():
    spectra = np.tile(np.array([0.3, 0.6, 0.9]), (16, 1))
    cloud = PixelCloud(spectra, (4, 4))
    out = sar(cloud)
    np.testing.assert_array_equal(out.spectra, spectra)


def test_sar_denoises_a_smooth_scene():
    rng = np.random.default_rng(20)
    h, w, bands = 12, 12, 6
    smooth = np.add.outer(np.linspace(0, 1, h), np.linspace(0, 1, w))
    clean = np.stack([np.cos(b) + smooth for b in range(bands)])
    noisy = clean + rng.normal(scale=0.1, size=clean.shape)
    cloud = cube_to_cloud(noisy)
    out = sar(cloud)
    clean_cloud = cube_to_cloud(clean)
    mse_in = float(np.mean((cloud.spectra - clean_cloud.spectra) ** 2))
    mse_out = float(np.mean((out.spectra - clean_cloud.spectra) ** 2))
    assert mse_out < mse_in
