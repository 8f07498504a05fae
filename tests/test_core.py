"""Container invariants, ENVI round trips, first-PC projection, label I/O."""

import numpy as np
import pytest

from dsirc.core import (
    LABEL_PALETTE,
    EnviFormatError,
    ImageCube,
    LabelMap,
    PixelCloud,
    cloud_to_cube,
    cube_to_cloud,
    first_pc,
    label_colors,
    load_envi,
    read_labels_csv,
    write_envi,
    write_label_pgm,
    write_label_ppm,
    write_labels_csv,
)


def random_cube(rng, bands=5, height=4, width=6):
    return ImageCube(rng.standard_normal((bands, height, width)))


# ---------------------------------------------------------------------------
# containers


def test_image_cube_accessors():
    rng = np.random.default_rng(0)
    cube = random_cube(rng)
    assert (cube.bands, cube.height, cube.width) == (5, 4, 6)
    np.testing.assert_array_equal(cube.band(2), cube.data[2])
    np.testing.assert_array_equal(cube.spectrum(1, 3), cube.data[:, 1, 3])


def test_image_cube_rejects_bad_shapes_and_nonfinite():
    with pytest.raises(ValueError):
        ImageCube(np.zeros((3, 4)))
    bad = np.zeros((2, 2, 2))
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        ImageCube(bad)


def test_pixel_cloud_validates_coords():
    spectra = np.zeros((4, 3))
    coords = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
    cloud = PixelCloud(spectra, coords)
    assert cloud.n == 4 and cloud.bands == 3
    assert cloud.grid_shape() == (2, 2)
    with pytest.raises(ValueError):
        PixelCloud(spectra, coords[:3])


def test_grid_shape_requires_full_row_major_grid():
    spectra = np.zeros((4, 2))
    scrambled = np.array([[0, 0], [1, 0], [0, 1], [1, 1]])
    assert PixelCloud(spectra, scrambled).grid_shape() is None
    partial = np.array([[0, 0], [0, 1], [0, 2], [1, 0]])
    assert PixelCloud(np.zeros((4, 2)), partial).grid_shape() is None


def test_label_map_properties():
    lm = LabelMap(np.array([0, 2, 1, 2]))
    assert lm.n == 4
    assert lm.num_classes == 2
    with pytest.raises(ValueError):
        LabelMap(np.array([-1, 0]))


# ---------------------------------------------------------------------------
# cube <-> cloud


def test_cube_cloud_round_trip_is_bit_exact():
    rng = np.random.default_rng(1)
    for _ in range(5):
        cube = random_cube(rng, bands=3, height=5, width=7)
        cloud = cube_to_cloud(cube)
        assert cloud.grid_shape() == (5, 7)
        back = cloud_to_cube(cloud)
        np.testing.assert_array_equal(back.data, cube.data)


def test_cube_to_cloud_row_major_order():
    cube = ImageCube(np.arange(24, dtype=float).reshape(2, 3, 4))
    cloud = cube_to_cloud(cube)
    np.testing.assert_array_equal(cloud.coords[0], [0, 0])
    np.testing.assert_array_equal(cloud.coords[1], [0, 1])
    np.testing.assert_array_equal(cloud.coords[4], [1, 0])
    np.testing.assert_array_equal(cloud.spectra[5], cube.data[:, 1, 1])


# ---------------------------------------------------------------------------
# ENVI I/O


@pytest.mark.parametrize("interleave", ["bsq", "bil", "bip"])
def test_envi_round_trip(tmp_path, interleave):
    rng = np.random.default_rng(2)
    cube = random_cube(rng, bands=4, height=3, width=5)
    hdr = str(tmp_path / "img.hdr")
    raw = str(tmp_path / "img.raw")
    write_envi(cube, hdr, raw, interleave=interleave)
    loaded = load_envi(hdr, raw)
    np.testing.assert_allclose(loaded.data, cube.data, rtol=0, atol=1e-6)


def test_envi_round_trip_is_exact_for_float32_data(tmp_path):
    rng = np.random.default_rng(3)
    data = rng.standard_normal((2, 3, 4)).astype(np.float32).astype(np.float64)
    cube = ImageCube(data)
    write_envi(cube, str(tmp_path / "a.hdr"), str(tmp_path / "a.raw"))
    loaded = load_envi(str(tmp_path / "a.hdr"), str(tmp_path / "a.raw"))
    np.testing.assert_array_equal(loaded.data, cube.data)


def write_header(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def test_load_envi_rejects_wrong_payload_size(tmp_path):
    hdr = tmp_path / "b.hdr"
    raw = tmp_path / "b.raw"
    write_header(
        hdr,
        "ENVI\nsamples = 4\nlines = 3\nbands = 2\ninterleave = bsq\n"
        "data type = 4\nbyte order = 0\n",
    )
    raw.write_bytes(b"\0" * (4 * 3 * 2 * 4 - 4))
    with pytest.raises(EnviFormatError):
        load_envi(str(hdr), str(raw))


def test_load_envi_rejects_unsupported_dtype(tmp_path):
    hdr = tmp_path / "c.hdr"
    raw = tmp_path / "c.raw"
    write_header(
        hdr,
        "ENVI\nsamples = 2\nlines = 2\nbands = 1\ninterleave = bsq\n"
        "data type = 5\nbyte order = 0\n",
    )
    raw.write_bytes(b"\0" * 32)
    with pytest.raises(EnviFormatError):
        load_envi(str(hdr), str(raw))


def test_load_envi_rejects_missing_keys(tmp_path):
    hdr = tmp_path / "d.hdr"
    raw = tmp_path / "d.raw"
    write_header(hdr, "ENVI\nsamples = 2\nlines = 2\n")
    raw.write_bytes(b"\0" * 16)
    with pytest.raises(EnviFormatError):
        load_envi(str(hdr), str(raw))


def test_load_envi_ignores_brace_blocks_and_is_case_insensitive(tmp_path):
    hdr = tmp_path / "e.hdr"
    raw = tmp_path / "e.raw"
    payload = np.arange(8, dtype="<f4")
    write_header(
        hdr,
        "ENVI\ndescription = {\n multi line\n block = 99\n}\n"
        "SAMPLES = 4\nLines = 2\nbands = 1\nInterleave = BSQ\n"
        "data type = 4\nbyte order = 0\n",
    )
    raw.write_bytes(payload.tobytes())
    cube = load_envi(str(hdr), str(raw))
    np.testing.assert_array_equal(cube.data[0].ravel(), payload.astype(np.float64))


def test_load_envi_rejects_contradictory_keys(tmp_path):
    hdr = tmp_path / "f.hdr"
    raw = tmp_path / "f.raw"
    write_header(
        hdr,
        "ENVI\nsamples = 4\nsamples = 5\nlines = 2\nbands = 1\n"
        "interleave = bsq\ndata type = 4\nbyte order = 0\n",
    )
    raw.write_bytes(b"\0" * 32)
    with pytest.raises(EnviFormatError):
        load_envi(str(hdr), str(raw))


def test_load_envi_interleave_layouts_agree(tmp_path):
    rng = np.random.default_rng(4)
    cube = random_cube(rng, bands=3, height=2, width=4)
    loaded = {}
    for inter in ("bsq", "bil", "bip"):
        hdr = str(tmp_path / f"{inter}.hdr")
        raw = str(tmp_path / f"{inter}.raw")
        write_envi(cube, hdr, raw, interleave=inter)
        loaded[inter] = load_envi(hdr, raw).data
    np.testing.assert_array_equal(loaded["bsq"], loaded["bil"])
    np.testing.assert_array_equal(loaded["bsq"], loaded["bip"])


# ---------------------------------------------------------------------------
# first principal component


def svd_first_pc(spectra):
    centered = spectra - spectra.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    v = vt[0]
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    return centered @ v


def test_first_pc_matches_svd_oracle():
    # a clear spectral gap, so the oracle pins the direction, not just the
    # leading variance
    rng = np.random.default_rng(5)
    for trial in range(20):
        n = int(rng.integers(5, 40))
        bands = int(rng.integers(2, 12))
        spectra = rng.standard_normal((n, bands))
        direction = rng.standard_normal(bands)
        direction /= np.linalg.norm(direction)
        spectra += 4.0 * np.outer(rng.standard_normal(n), direction)
        coords = np.argwhere(np.ones((n, 1), dtype=bool))
        field = first_pc(PixelCloud(spectra, coords))
        np.testing.assert_allclose(field.values, svd_first_pc(spectra), atol=1e-6)
    # small eigengaps: the top two sample variances are in an exact ratio
    # close to 1, built from orthonormal (centered) scores and axes
    n, bands = 30, 8
    coords = np.argwhere(np.ones((n, 1), dtype=bool))
    for ratio in (0.81, 0.9, 0.98):
        for trial in range(3):
            scores = rng.standard_normal((n, bands))
            u = np.linalg.qr(scores - scores.mean(axis=0))[0]
            v = np.linalg.qr(rng.standard_normal((bands, bands)))[0]
            sv = np.array([10.0, 10.0 * np.sqrt(ratio), 3.0, 2.5, 2.0, 1.5, 1.0, 0.5])
            spectra = (u * sv) @ v.T + rng.standard_normal(bands)
            field = first_pc(PixelCloud(spectra, coords))
            np.testing.assert_allclose(field.values, svd_first_pc(spectra), atol=1e-6)


def test_first_pc_variance_matches_leading_singular_value():
    rng = np.random.default_rng(50)
    for trial in range(10):
        spectra = rng.standard_normal((25, 6))
        coords = np.argwhere(np.ones((25, 1), dtype=bool))
        field = first_pc(PixelCloud(spectra, coords))
        centered = spectra - spectra.mean(axis=0)
        top_sv = np.linalg.svd(centered, compute_uv=False)[0]
        np.testing.assert_allclose(np.linalg.norm(field.values), top_sv, rtol=1e-8)


def test_first_pc_scores_are_centered_and_grid_attached():
    rng = np.random.default_rng(6)
    cube = random_cube(rng, bands=4, height=5, width=3)
    field = first_pc(cube_to_cloud(cube))
    assert abs(field.values.mean()) < 1e-10
    assert field.grid().shape == (5, 3)


def test_first_pc_sign_convention():
    rng = np.random.default_rng(7)
    spectra = rng.standard_normal((30, 6))
    coords = np.argwhere(np.ones((30, 1), dtype=bool))
    a = first_pc(PixelCloud(spectra, coords)).values
    b = first_pc(PixelCloud(-spectra, coords)).values
    # the dominant direction flips with the data, the scores stay aligned
    np.testing.assert_allclose(np.abs(a), np.abs(b), atol=1e-7)


# ---------------------------------------------------------------------------
# label rendering and CSV round trip


def test_label_palette_shape_and_background():
    assert LABEL_PALETTE.shape == (17, 3)
    np.testing.assert_array_equal(LABEL_PALETTE[0], [0, 0, 0])
    colors = label_colors(np.array([0, 1, 16, 17, 32]))
    np.testing.assert_array_equal(colors[0], [0, 0, 0])
    np.testing.assert_array_equal(colors[3], LABEL_PALETTE[1])
    np.testing.assert_array_equal(colors[4], LABEL_PALETTE[16])


def test_labels_csv_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    labels = LabelMap(rng.integers(0, 5, size=12))
    coords = np.array([[r, c] for r in range(3) for c in range(4)])
    path = str(tmp_path / "labels.csv")
    write_labels_csv(path, labels, coords)
    back, back_coords = read_labels_csv(path)
    np.testing.assert_array_equal(back.labels, labels.labels)
    np.testing.assert_array_equal(back_coords, coords)


def test_read_labels_csv_rejects_bad_index_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("index,row,col,label\n0,0,0,1\n2,0,1,1\n")
    with pytest.raises(ValueError):
        read_labels_csv(str(path))


def test_ppm_and_pgm_writers(tmp_path):
    labels = LabelMap(np.array([0, 1, 2, 3]))
    ppm = tmp_path / "img.ppm"
    pgm = tmp_path / "img.pgm"
    write_label_ppm(str(ppm), labels, 2, 2)
    write_label_pgm(str(pgm), labels, 2, 2)

    data = ppm.read_bytes()
    header, rest = data.split(b"\n", 1)
    assert header == b"P6"
    dims, rest = rest.split(b"\n", 1)
    assert dims == b"2 2"
    maxval, pixels = rest.split(b"\n", 1)
    assert maxval == b"255" and len(pixels) == 12
    expected = label_colors(labels.labels).astype(np.uint8).tobytes()
    assert pixels == expected

    gray = pgm.read_bytes()
    assert gray.startswith(b"P5\n2 2\n255\n")
    body = gray.split(b"\n", 3)[3]
    assert len(body) == 4
    colors = label_colors(labels.labels).astype(np.float64)
    luma = np.clip(
        np.round(0.299 * colors[:, 0] + 0.587 * colors[:, 1] + 0.114 * colors[:, 2]),
        0,
        255,
    ).astype(np.uint8)
    assert body == luma.tobytes()


def test_ppm_requires_matching_pixel_count():
    labels = LabelMap(np.array([1, 2, 3]))
    with pytest.raises(ValueError):
        write_label_ppm("/tmp/nope.ppm", labels, 2, 2)
