"""Synthetic scene generator contracts: geometry, mixing, noise, determinism."""

import numpy as np
import pytest

from dsirc.core import cube_to_cloud
from dsirc.synth import SynthConfig, SynthScene, synth_hsi


def test_shapes_and_types():
    config = SynthConfig(height=20, width=24, bands=16, n_endmembers=3, seed=5)
    scene = synth_hsi(config)
    assert scene.cube.shape == (16, 20, 24)
    assert scene.cube.dtype == np.float64 and scene.cube.flags.c_contiguous
    assert scene.gt.labels.shape == (20 * 24,)
    assert scene.endmembers.shape == (3, 16)
    assert scene.abundances.shape == (20 * 24, 3)


def test_abundance_rows_sum_to_exactly_one():
    scene = synth_hsi(SynthConfig(seed=1))
    sums = scene.abundances.sum(axis=1)
    assert np.all(scene.abundances >= 0)
    np.testing.assert_allclose(sums, 1.0, rtol=0, atol=1e-12)


def test_ground_truth_is_owner_endmember():
    config = SynthConfig(height=12, width=12, n_endmembers=4, blob_rows=2, blob_cols=2, seed=2)
    scene = synth_hsi(config)
    gt = scene.gt.labels.reshape(12, 12)
    # four blobs, owners 0..3 in reading order
    assert set(np.unique(gt[:6, :6])) == {1}
    assert set(np.unique(gt[:6, 6:])) == {2}
    assert set(np.unique(gt[6:, :6])) == {3}
    assert set(np.unique(gt[6:, 6:])) == {4}


def test_interior_pixels_are_pure_and_borders_blend():
    config = SynthConfig(height=20, width=20, mixing_width=3, seed=3)
    scene = synth_hsi(config)
    a = scene.abundances.reshape(20, 20, 4)
    # far from every border: pure owner
    np.testing.assert_allclose(a[2, 2], [1.0, 0.0, 0.0, 0.0], atol=1e-12)
    # adjacent to the vertical border at column 10: owner share 0.5+0.5*(0.5/3)
    share = 0.5 + 0.5 * (0.5 / 3.0)
    np.testing.assert_allclose(a[2, 9], [share, 1.0 - share, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(a[2, 10], [1.0 - share, share, 0.0, 0.0], atol=1e-12)
    # the corner pixel blends separably across both borders
    np.testing.assert_allclose(
        a[9, 9],
        [share * share, share * (1 - share), (1 - share) * share, (1 - share) ** 2],
        atol=1e-12,
    )


def test_zero_mixing_width_gives_hard_borders():
    scene = synth_hsi(SynthConfig(mixing_width=0, seed=4))
    assert set(np.unique(scene.abundances)) == {0.0, 1.0}


def test_zero_noise_reproduces_clean_mixture():
    config = SynthConfig(noise=0.0, seed=6)
    scene = synth_hsi(config)
    cloud = cube_to_cloud(scene.cube)
    np.testing.assert_allclose(
        cloud.spectra, scene.abundances @ scene.endmembers, rtol=0, atol=0
    )


def test_noise_scale_tracks_signal_range():
    config = SynthConfig(noise=0.08, seed=7)
    noisy = cube_to_cloud(synth_hsi(config).cube).spectra
    clean_scene = synth_hsi(SynthConfig(noise=0.0, seed=7))
    clean = clean_scene.abundances @ clean_scene.endmembers
    signal_range = clean.max() - clean.min()
    residual = noisy - clean
    observed = residual.std()
    assert observed == pytest.approx(0.08 * signal_range, rel=0.05)


def test_endmember_albedo_stratification():
    for seed in range(8):
        scene = synth_hsi(SynthConfig(seed=seed))
        peaks = scene.endmembers.max(axis=1)
        assert 0.85 <= peaks[0] <= 1.0
        assert np.all((peaks[1:] >= 0.24) & (peaks[1:] <= 0.44))
        assert scene.endmembers.min() >= 0.0


def test_endmember_pairs_are_distinct_and_decorrelated():
    floor = 0.4
    for seed in range(8):
        e = synth_hsi(SynthConfig(seed=seed)).endmembers
        for i in range(e.shape[0]):
            for j in range(i + 1, e.shape[0]):
                assert np.linalg.norm(e[i] - e[j]) >= floor
                a = e[i] - e[i].mean()
                b = e[j] - e[j].mean()
                corr = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
                assert corr <= 0.9 + 1e-12


def test_same_seed_is_bitwise_reproducible():
    a = synth_hsi(SynthConfig(seed=11))
    b = synth_hsi(SynthConfig(seed=11))
    np.testing.assert_array_equal(a.cube, b.cube)
    np.testing.assert_array_equal(a.gt.labels, b.gt.labels)
    np.testing.assert_array_equal(a.endmembers, b.endmembers)
    c = synth_hsi(SynthConfig(seed=12))
    assert not np.array_equal(a.cube, c.cube)


def test_more_blobs_than_endmembers_reuses_them():
    config = SynthConfig(
        height=30, width=30, n_endmembers=2, blob_rows=3, blob_cols=3, seed=13
    )
    scene = synth_hsi(config)
    assert set(np.unique(scene.gt.labels)) == {1, 2}
    assert scene.abundances.shape[1] == 2


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(height=0)
    with pytest.raises(ValueError):
        SynthConfig(bands=1)
    with pytest.raises(ValueError):
        SynthConfig(n_endmembers=1)
    with pytest.raises(ValueError):
        SynthConfig(blob_rows=0)
    with pytest.raises(ValueError):
        SynthConfig(height=3, blob_rows=4)
    with pytest.raises(ValueError):
        SynthConfig(mixing_width=-1)
    with pytest.raises(ValueError):
        SynthConfig(noise=-0.1)
    for noise in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="noise must be finite and non-negative"):
            SynthConfig(noise=noise)


def test_overflowing_noise_fails_generation():
    # A finite noise scale whose draws overflow float64 makes no scene.
    with pytest.raises(RuntimeError, match="overflows"):
        synth_hsi(SynthConfig(height=6, width=6, bands=5, noise=1e308))


def test_scene_is_plain_container():
    scene = synth_hsi(SynthConfig(seed=14))
    assert isinstance(scene, SynthScene)
    assert scene.cube.shape[0] == scene.endmembers.shape[1]
