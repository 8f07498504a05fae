"""Subspace dimension, simplex vertex search, non-negative abundances.

The vertex search is checked against exhaustive enumeration with an
independent (shoelace) volume formula, and the least-squares solver against
first-order optimality, a projected-gradient reference solution and SciPy's
per-row Lawson–Hanson solver.
"""

import itertools

import numpy as np
import pytest
import scipy.optimize

from dsirc.core import DegenerateCovarianceError, PixelCloud, cube_to_cloud, load_envi, write_envi
from dsirc import unmixing
from dsirc.synth import SynthConfig, synth_hsi
from dsirc.unmixing import (
    RankDeficientDataError,
    _ascend_volume,
    _noise_moment,
    _replacement_volumes,
    abundances,
    avmax,
    hysime,
    project_affine_pca,
    purity,
    unmix,
)


def cloud_of(spectra):
    spectra = np.asarray(spectra, dtype=np.float64)
    return PixelCloud(spectra, (1, spectra.shape[0]))


def smooth_endmembers(rng, p, bands):
    grid = np.arange(bands, dtype=np.float64)
    out = np.empty((p, bands))
    for i in range(p):
        s = np.zeros(bands)
        for _ in range(3):
            center = rng.uniform(0, bands - 1)
            width = rng.uniform(bands / 15, bands / 5)
            s += rng.uniform(0.3, 1.0) * np.exp(-((grid - center) ** 2) / (2 * width**2))
        out[i] = s / s.max()
    return out


def simplex_cloud(rng, p=3, bands=12, n=200, snr_db=None, pure=True):
    e = smooth_endmembers(rng, p, bands)
    a = rng.dirichlet(np.ones(p), size=n)
    if pure:
        a[:p] = np.eye(p)
    x = a @ e
    if snr_db is not None:
        signal_power = float(np.mean(np.sum(x**2, axis=1)))
        sigma = np.sqrt(signal_power / (10 ** (snr_db / 10.0) * bands))
        x = x + rng.normal(scale=sigma, size=x.shape)
    return cloud_of(x), e, a


# ---------------------------------------------------------------------------
# subspace dimension


def test_hysime_noiseless_three_endmembers():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        cloud, _, _ = simplex_cloud(rng, p=3, snr_db=None)
        assert hysime(cloud) == 3


def test_hysime_snr_20db_three_endmembers():
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        cloud, _, _ = simplex_cloud(rng, p=3, snr_db=20.0)
        assert hysime(cloud) == 3


def test_hysime_single_band_is_one():
    cloud = cloud_of(np.ones((10, 1)))
    assert hysime(cloud) == 1


def test_hysime_never_exceeds_bands_minus_one():
    rng = np.random.default_rng(2)
    cloud = cloud_of(rng.uniform(0.1, 1.0, size=(50, 4)))
    assert 1 <= hysime(cloud) <= 3


def test_hysime_one_nonzero_band_is_one():
    # The only energy is in band 2, so every other band's regression has an
    # all-zero design; the shared ridge keeps the inverse defined.
    x = np.zeros((50, 6))
    x[:, 2] = np.random.default_rng(0).uniform(0.1, 1.0, 50)
    assert hysime(cloud_of(x)) == 1


@pytest.mark.parametrize("side", [40, 64])
def test_hysime_p_on_bench_scene_shapes(side, tmp_path):
    # The benchmark's 40x40x30 and 64x64x30 scenes, read back through its
    # float32 ENVI files.  These p were recorded from the per-band residual
    # form: 4 on 99 of seeds 0-99 and 3 on seed 80, for both shapes.
    seeds = [*range(10), 80]
    got = []
    for seed in seeds:
        config = SynthConfig(height=side, width=side, bands=30, seed=seed)
        header, data = str(tmp_path / "cube.hdr"), str(tmp_path / "cube.raw")
        write_envi(synth_hsi(config).cube, header, data)
        got.append(hysime(cube_to_cloud(load_envi(header, data))))
    assert got == [4] * 10 + [3]


def residual_noise_moment(x):
    """Oracle: each band's ridge regression on the others, with the shared
    ridge ``1e-6 * trace(G)``, residuals formed over the pixels, ``R.T @ R / n``."""
    n, bands = x.shape
    gram = x.T @ x
    ridge = 1e-6 * np.trace(gram)
    residuals = np.empty_like(x)
    for k in range(bands):
        others = np.arange(bands) != k
        beta = np.linalg.solve(gram[np.ix_(others, others)] + ridge * np.eye(bands - 1), gram[others, k])
        residuals[:, k] = x[:, k] - x[:, others] @ beta
    return residuals.T @ residuals / n


@pytest.mark.parametrize(
    "bands, n, snr_db", [(30, 500, 20.0), (200, 1000, 20.0), (30, 500, None)]
)
def test_noise_moment_equals_residual_oracle(bands, n, snr_db):
    # Measured over 20 seeds each of 30 and 200 bands, noisy and noise-free:
    # the gap was at most 1.1e-16 * trace(G) / n.  That is 4e-11 of the
    # largest entry on noisy clouds but up to 1.3e-6 on noise-free ones,
    # where the moment is rounding noise itself, so the bound scales with
    # the data's energy, at 100 times the worst gap.
    cloud, _, _ = simplex_cloud(np.random.default_rng(7), p=5, bands=bands, n=n, snr_db=snr_db)
    x = cloud.spectra
    gram = x.T @ x
    np.testing.assert_allclose(
        _noise_moment(gram, n), residual_noise_moment(x), rtol=0, atol=1e-14 * np.trace(gram) / n
    )


def test_hysime_zero_data_raises():
    with pytest.raises(DegenerateCovarianceError):
        hysime(cloud_of(np.zeros((10, 5))))


def test_hysime_needs_two_pixels():
    with pytest.raises(ValueError):
        hysime(cloud_of(np.ones((1, 5))))


# ---------------------------------------------------------------------------
# affine projection


def test_projection_preserves_distances_at_full_affine_rank():
    rng = np.random.default_rng(3)
    e = rng.standard_normal((3, 10))
    a = rng.dirichlet(np.ones(3), size=40)
    x = a @ e  # affine rank 2
    y = project_affine_pca(x, 2)
    assert y.shape == (40, 2)
    d_x = np.linalg.norm(x[:, None] - x[None, :], axis=2)
    d_y = np.linalg.norm(y[:, None] - y[None, :], axis=2)
    np.testing.assert_allclose(d_y, d_x, atol=1e-8)


def test_projection_output_is_centered():
    rng = np.random.default_rng(4)
    y = project_affine_pca(rng.standard_normal((30, 6)), 3)
    np.testing.assert_allclose(y.mean(axis=0), 0.0, atol=1e-12)


def test_projection_rejects_rank_deficient_requests():
    rng = np.random.default_rng(5)
    e = rng.standard_normal((2, 8))
    a = rng.dirichlet(np.ones(2), size=30)
    x = a @ e  # affine rank 1
    with pytest.raises(RankDeficientDataError):
        project_affine_pca(x, 2)
    with pytest.raises(RankDeficientDataError):
        project_affine_pca(np.ones((10, 4)), 1)


def test_projection_argument_validation():
    with pytest.raises(ValueError):
        project_affine_pca(np.zeros((5, 3)), 0)
    with pytest.raises(ValueError):
        project_affine_pca(np.zeros((5, 3)), 4)
    with pytest.raises(ValueError):
        project_affine_pca(np.zeros((1, 3)), 1)


# ---------------------------------------------------------------------------
# simplex vertex search vs exhaustive enumeration


def shoelace(points):
    (x1, y1), (x2, y2), (x3, y3) = points
    return abs(x1 * (y2 - y3) + x2 * (y3 - y1) + x3 * (y1 - y2))


def exhaustive_best(projected):
    best = -1.0
    best_combo = None
    for combo in itertools.combinations(range(projected.shape[0]), 3):
        vol = shoelace(projected[list(combo)])
        if vol > best:
            best = vol
            best_combo = combo
    return best, best_combo


def rows_to_indices(spectra, rows):
    return [int(np.flatnonzero((spectra == row).all(axis=1))[0]) for row in rows]


def test_avmax_matches_exhaustive_search():
    rng = np.random.default_rng(6)
    for trial in range(25):
        n = int(rng.integers(5, 13))
        bands = int(rng.integers(3, 8))
        spectra = rng.uniform(0.0, 1.0, size=(n, bands))
        cloud = cloud_of(spectra)
        got = avmax(cloud, 3, restarts=10, rng=trial)
        projected = project_affine_pca(spectra, 2)
        best, _ = exhaustive_best(projected)
        got_vol = shoelace(projected[rows_to_indices(spectra, got)])
        assert got_vol == pytest.approx(best, rel=1e-9)


def test_avmax_picks_pure_pixels_from_noiseless_simplex():
    rng = np.random.default_rng(7)
    cloud, e, _ = simplex_cloud(rng, p=3, n=80, snr_db=None, pure=True)
    got = avmax(cloud, 3, restarts=10, rng=0)
    np.testing.assert_allclose(np.sort(got, axis=0), np.sort(e, axis=0), atol=1e-12)


def test_avmax_returns_rows_sorted_by_pixel_index():
    rng = np.random.default_rng(8)
    spectra = rng.uniform(size=(15, 5))
    got = avmax(cloud_of(spectra), 3, rng=1)
    idx = rows_to_indices(spectra, got)
    assert idx == sorted(idx)


def test_avmax_is_deterministic_given_seed():
    rng = np.random.default_rng(9)
    spectra = rng.uniform(size=(30, 6))
    a = avmax(cloud_of(spectra), 4, rng=42)
    b = avmax(cloud_of(spectra), 4, rng=42)
    np.testing.assert_array_equal(a, b)


def test_avmax_single_endmember_is_farthest_from_mean():
    spectra = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0], [0.0, 2.0]])
    got = avmax(cloud_of(spectra), 1)
    np.testing.assert_array_equal(got, [[10.0, 0.0]])


def test_avmax_validation_and_degenerate_data():
    rng = np.random.default_rng(10)
    spectra = rng.uniform(size=(8, 4))
    with pytest.raises(ValueError):
        avmax(cloud_of(spectra), 0)
    with pytest.raises(ValueError):
        avmax(cloud_of(spectra), 9)
    with pytest.raises(ValueError):
        avmax(cloud_of(spectra), 6)  # p - 1 exceeds bands
    with pytest.raises(ValueError):
        avmax(cloud_of(spectra), 3, restarts=0)
    with pytest.raises(RankDeficientDataError):
        avmax(cloud_of(np.ones((8, 4))), 3)


def replacement_volumes_by_det(projected, vertices, j):
    """|det| of the augmented simplex matrix with vertex ``j`` swapped for
    each data point in turn, one LU determinant per candidate."""
    n = projected.shape[0]
    p = vertices.shape[0]
    base = np.ones((p, p))
    base[:, 1:] = vertices
    batch = np.broadcast_to(base, (n, p, p)).copy()
    batch[:, j, 1:] = projected
    return np.abs(np.linalg.det(batch))


def test_replacement_volumes_match_batched_determinants():
    rng = np.random.default_rng(11)
    for p in range(2, 7):
        projected = rng.standard_normal((50, p - 1))
        # The last p rows form a nearly flat simplex: their last coordinate
        # is shrunk by 1e-4.
        projected[-p:, -1] *= 1e-4
        simplices = [rng.choice(50 - p, size=p, replace=False), np.arange(50 - p, 50)]
        for indices in simplices:
            for j in range(p):
                got = _replacement_volumes(projected, projected[indices], j)
                want = replacement_volumes_by_det(projected, projected[indices], j)
                # A kept vertex as the candidate repeats a row: the volume is
                # zero, and each form leaves its own rounding dust.
                kept = np.isin(np.arange(50), np.delete(indices, j))
                np.testing.assert_allclose(got[~kept], want[~kept], rtol=1e-10)
                assert max(got[kept].max(), want[kept].max()) <= 1e-12 * want.max()


def test_volume_ascent_warns_at_its_cycle_cap():
    rng = np.random.default_rng(12)
    projected = project_affine_pca(rng.uniform(size=(40, 5)), 3)
    with pytest.warns(RuntimeWarning, match="cap of 1 cycles"):
        _ascend_volume(projected, np.arange(4), max_cycles=1)


# ---------------------------------------------------------------------------
# non-negative least squares


def projected_gradient_nnls(a, b, iters=50000):
    at_a = a.T @ a
    at_b = a.T @ b
    step = 1.0 / float(np.linalg.eigvalsh(at_a)[-1])
    x = np.zeros(a.shape[1])
    for _ in range(iters):
        x_new = np.maximum(x - step * (at_a @ x - at_b), 0.0)
        if np.linalg.norm(x_new - x) <= 1e-13 * max(1.0, np.linalg.norm(x)):
            return x_new
        x = x_new
    return x


def test_nnls_satisfies_kkt_and_matches_gradient_oracle():
    rng = np.random.default_rng(11)
    for trial in range(40):
        p = int(rng.integers(1, 6))
        bands = int(rng.integers(p + 1, 21))
        e = rng.uniform(0.0, 1.0, size=(p, bands))
        x = rng.uniform(0.0, 1.0, size=bands)
        sol = abundances(e, x[None])[0]
        assert sol.shape == (p,) and np.all(sol >= 0)
        a = e.T
        grad = a.T @ (a @ sol - x)
        assert np.all(grad >= -1e-8)
        if np.any(sol > 1e-12):
            assert np.max(np.abs(grad[sol > 1e-12])) <= 1e-8
        ref = projected_gradient_nnls(a, x)
        f_sol = 0.5 * np.sum((a @ sol - x) ** 2)
        f_ref = 0.5 * np.sum((a @ ref - x) ** 2)
        assert abs(f_sol - f_ref) <= 1e-8


def test_nnls_recovers_interior_solution_exactly():
    rng = np.random.default_rng(12)
    for trial in range(10):
        e = rng.uniform(0.1, 1.0, size=(3, 10))
        target = rng.uniform(0.2, 1.0, size=3)
        x = target @ e
        np.testing.assert_allclose(abundances(e, x[None])[0], target, atol=1e-8)


def test_nnls_validation():
    with pytest.raises(ValueError):
        abundances(np.ones((2, 3)), np.ones((1, 4)))
    with pytest.raises(ValueError):
        abundances(np.ones((4, 3)), np.ones((1, 3)))  # more endmembers than bands
    bad = np.ones((2, 3))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        abundances(bad, np.ones((1, 3)))


def test_abundances_rowwise():
    rng = np.random.default_rng(13)
    e = rng.uniform(0.1, 1.0, size=(3, 8))
    a_true = rng.dirichlet(np.ones(3), size=20)
    got = abundances(e, a_true @ e)
    assert got.shape == (20, 3)
    assert np.all(got >= 0)
    np.testing.assert_allclose(got, a_true, atol=1e-7)


def assert_kkt(e, x, a, atol=1e-8):
    """Non-negative, with a residual gradient non-negative off the support
    and zero on it."""
    assert np.all(a >= 0)
    grad = (a @ e - x) @ e.T
    assert np.all(grad >= -atol)
    support = a > 0
    assert np.all(np.abs(grad[support]) <= atol)


def objective(e, x, a):
    return 0.5 * np.sum((a @ e - x) ** 2, axis=1)


@pytest.mark.parametrize("p", [1, 2, 4, 10, 36])
def test_abundances_match_scipy_nnls_per_row(p):
    rng = np.random.default_rng(p)
    bands = p + 24
    e = rng.uniform(0.0, 1.0, size=(p, bands))
    # Coefficients of both signs plus noise: rows inside and outside the
    # cone, with supports of every size.
    x = rng.uniform(-0.5, 1.0, size=(120, p)) @ e + rng.normal(0.0, 0.05, size=(120, bands))
    got = abundances(e, x)
    want = np.array([scipy.optimize.nnls(e.T, row)[0] for row in x])
    assert got.shape == want.shape and got.dtype == np.float64
    assert_kkt(e, x, got)
    f_got, f_want = objective(e, x, got), objective(e, x, want)
    assert np.all(np.abs(f_got - f_want) <= 1e-12 * f_want)


@pytest.mark.parametrize("p", [10, 36])
def test_abundances_do_not_depend_on_the_data_scale(p):
    # Raw radiance runs to thousands: scaling endmembers and spectra by c
    # scales G by c**2 but leaves every abundance where it was.
    rng = np.random.default_rng(30 + p)
    bands = p + 24
    e = rng.uniform(0.0, 1.0, size=(p, bands))
    # Rows of small abundances, then rows pushed partly out of the cone.
    a = rng.uniform(0.0, 1.0, size=(150, p)) * (rng.random((150, p)) < 0.5)
    a[:50] *= 1e-4
    a[50:] -= rng.uniform(0.0, 0.05, size=(100, p))
    x = a @ e + rng.normal(0.0, 1e-7, size=(150, bands))
    c = 1e4
    got = abundances(c * e, c * x)
    want = np.array([scipy.optimize.nnls(c * e.T, c * row)[0] for row in x])
    assert_kkt(c * e, c * x, got, atol=1e-8 * c**2)
    f_got, f_want = objective(c * e, c * x, got), objective(c * e, c * x, want)
    assert np.all(np.abs(f_got - f_want) <= 1e-12 * f_want)
    np.testing.assert_allclose(got, abundances(e, x), rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("seed", range(20, 26))
def test_abundances_edge_rows(seed):
    # A zero row, a row outside the cone, and multiples of each endmember,
    # whose purity must be exactly 1 (the two zero rows read 1/p).  A long first endmember enters first
    # on other endmembers' rows too, so their solves leave it at rounding
    # level before it must be dropped.
    rng = np.random.default_rng(seed)
    e = rng.uniform(0.1, 1.0, size=(4, 12))
    e[0] *= 3.0
    scaled = [c * e[k] for k in range(4) for c in (0.5, 1.0, 2.0)]
    x = np.vstack([np.zeros(12), -e.sum(axis=0)] + scaled)
    got = abundances(e, x)
    np.testing.assert_array_equal(got[:2], 0.0)
    for row, k in zip(got[2:], np.repeat(np.arange(4), 3)):
        assert np.flatnonzero(row).tolist() == [k]
    np.testing.assert_array_equal(purity(got), [0.25] * 2 + [1.0] * 12)


def test_rejected_entries_do_not_cycle_without_a_tolerance():
    # Exact mixtures leave every gradient at rounding level once solved.
    # With tol = 0 such gradients keep entering; Lawson–Hanson's rejection
    # of an entry whose first solve is not positive still ends every row.
    rng = np.random.default_rng(25)
    e = rng.uniform(0.1, 1.0, size=(6, 20))
    a = rng.uniform(0.0, 1.0, size=(200, 6)) * (rng.random((200, 6)) < 0.4)
    x = a @ e
    out = np.zeros((200, 6))
    assert unmixing._lawson_hanson(e @ e.T, x @ e.T, out, 0.0, 18) == 0
    assert_kkt(e, x, out)


def test_abundances_do_not_depend_on_the_block_size(monkeypatch):
    rng = np.random.default_rng(22)
    e = rng.uniform(0.0, 1.0, size=(6, 20))
    x = rng.uniform(-0.5, 1.0, size=(300, 6)) @ e + rng.normal(0.0, 0.05, size=(300, 20))
    want = abundances(e, x)
    for budget in (1, 36, 7 * 36):
        monkeypatch.setattr(unmixing, "_NNLS_ELEMENTS", budget)
        np.testing.assert_array_equal(abundances(e, x), want)


def test_abundances_hold_kkt_on_ill_conditioned_endmembers():
    rng = np.random.default_rng(23)
    p, bands = 8, 30
    left, _ = np.linalg.qr(rng.normal(size=(p, p)))
    right, _ = np.linalg.qr(rng.normal(size=(bands, p)))
    e = (left * np.logspace(0, -5, p)) @ right.T
    assert 0.9e5 < np.linalg.cond(e) < 1.1e5
    x = rng.uniform(-0.5, 1.0, size=(200, p)) @ e + rng.normal(0.0, 1e-3, size=(200, bands))
    assert_kkt(e, x, abundances(e, x))


def test_abundances_warn_at_their_step_cap(monkeypatch):
    rng = np.random.default_rng(24)
    e = rng.uniform(0.0, 1.0, size=(5, 15))
    x = rng.uniform(0.1, 1.0, size=(10, 5)) @ e
    solve = unmixing._lawson_hanson
    monkeypatch.setattr(
        unmixing, "_lawson_hanson", lambda gram, rhs, out, tol, steps: solve(gram, rhs, out, tol, 1)
    )
    with pytest.warns(RuntimeWarning, match=r"cap of 15 steps before converging on 10 row"):
        got = abundances(e, x)
    assert np.all(got >= 0) and np.all(np.count_nonzero(got, axis=1) == 1)


# ---------------------------------------------------------------------------
# purity


def test_purity_hand_values():
    a = np.array([[0.2, 0.8], [0.0, 0.0], [0.3, 0.3]])
    # Raw purities 0.8, 1/p = 0.5 for the all-zero row, and 0.5.
    np.testing.assert_allclose(purity(a), np.array([0.8, 0.5, 0.5]) / 0.8)
    np.testing.assert_allclose(purity(a), [1.0, 0.625, 0.625])


@pytest.mark.parametrize(
    "bad",
    [np.ones(3), np.ones((3, 0)), np.array([[0.5, -0.1], [0.2, 0.2]])],
    ids=["1-D", "no-endmembers", "negative"],
)
def test_purity_validation(bad):
    with pytest.raises(ValueError, match=r"non-negative \(n, p\) array with p >= 1"):
        purity(bad)


def test_purity_pure_pixels_score_one():
    rng = np.random.default_rng(14)
    e = rng.uniform(0.1, 1.0, size=(3, 6))
    a = np.vstack([np.eye(3), rng.dirichlet(np.ones(3), size=10)])
    eta_hat = purity(a)
    np.testing.assert_allclose(eta_hat[:3], 1.0)
    assert eta_hat.max() == 1.0
    assert np.all(eta_hat > 0) and np.all(eta_hat <= 1)


def test_purity_lies_in_unit_interval_with_max_one():
    # Sparse abundances with all-zero rows: each raw purity is the row's
    # largest share, 1/p for a zero row, and the result divides by the
    # largest raw purity, which stays below 1 because every other row has
    # two positive abundances.
    for p in (2, 5, 36):
        rng = np.random.default_rng(p)
        a = rng.uniform(0.1, 1.0, size=(60, p)) * (rng.random((60, p)) < 0.7)
        a[:, :2] += 0.05
        a[:3] = 0.0
        eta = [row.max() / row.sum() if row.sum() > 0 else 1.0 / p for row in a]
        eta_hat = purity(a)
        np.testing.assert_allclose(eta_hat, np.array(eta) / max(eta), rtol=1e-14)
        assert max(eta) < 1.0 and eta_hat.max() == 1.0
        assert eta_hat.min() > 0 and np.all(eta_hat <= 1.0)
        np.testing.assert_allclose(eta_hat[:3], (1.0 / p) / max(eta), rtol=1e-14)
        # All rows zero: every raw purity is 1/p, so every pixel reads 1.
        np.testing.assert_array_equal(purity(a[:3]), 1.0)


# ---------------------------------------------------------------------------
# full blind unmixing


def test_unmix_recovers_noiseless_model():
    rng = np.random.default_rng(15)
    cloud, e, a = simplex_cloud(rng, p=3, n=100, snr_db=None, pure=True)
    model = unmix(cloud, rng=0)
    assert model.p == 3
    np.testing.assert_allclose(
        np.sort(model.endmembers, axis=0), np.sort(e, axis=0), atol=1e-10
    )
    recon = model.abundances @ model.endmembers
    np.testing.assert_allclose(recon, cloud.spectra, atol=1e-6)


def test_unmix_with_explicit_p():
    rng = np.random.default_rng(16)
    cloud, _, _ = simplex_cloud(rng, p=3, n=60, snr_db=30.0)
    model = unmix(cloud, p=4, rng=0)
    assert model.p == 4
    assert model.abundances.shape == (60, 4)
