"""Container invariants, ENVI round trips, first-PC projection, label I/O."""

import importlib
import re

import numpy as np
import pytest

from dsirc import core
from dsirc.clustering import dt_values
from dsirc.core import (
    LABEL_PALETTE,
    EnviFormatError,
    LabelMap,
    PixelCloud,
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
from dsirc.diffusion import diffusion_system, knn_graph, knn_indices
from dsirc.sar import sar
from dsirc.synth import SynthConfig, synth_hsi
from dsirc.unmixing import project_affine_pca


def random_cube(rng, bands=5, height=4, width=6):
    return rng.standard_normal((bands, height, width))


# ---------------------------------------------------------------------------
# containers


def bad_cubes():
    """Arrays no cube function accepts: 2-D, an empty axis, NaN, inf."""
    yield np.zeros((3, 4))
    for shape in ((0, 2, 2), (2, 0, 2), (2, 2, 0)):
        yield np.zeros(shape)
    for value in (np.nan, np.inf, -np.inf):
        cube = np.zeros((2, 2, 2))
        cube[1, 0, 1] = value
        yield cube


def test_image_cube_rejects_bad_shapes_and_nonfinite(tmp_path):
    # A cube is a plain array, checked where it enters the package: by
    # cube_to_cloud (the cloud checks finiteness) and by write_envi, which
    # writes nothing for a rejected cube.
    hdr, raw = tmp_path / "c.hdr", tmp_path / "c.raw"
    for cube in bad_cubes():
        with pytest.raises(ValueError):
            cube_to_cloud(cube)
        with pytest.raises(ValueError) as exc:
            write_envi(cube, str(hdr), str(raw))
        assert type(exc.value) is ValueError
        assert not hdr.exists() and not raw.exists()


def test_cube_checks_name_the_cause(tmp_path):
    hdr, raw = str(tmp_path / "c.hdr"), str(tmp_path / "c.raw")
    with pytest.raises(ValueError, match=r"^cube shape \(3, 4\) is not \(bands, height, width\)"):
        cube_to_cloud(np.zeros((3, 4)))
    with pytest.raises(ValueError, match=r"^cube shape \(2, 0, 2\) is not"):
        write_envi(np.zeros((2, 0, 2)), hdr, raw)
    nan_cube = np.ones((2, 2, 2))
    nan_cube[0, 1, 1] = np.nan
    with pytest.raises(ValueError, match="^spectra contain non-finite values$"):
        cube_to_cloud(nan_cube)
    with pytest.raises(ValueError, match="^cube contains non-finite values$"):
        write_envi(nan_cube, hdr, raw)


def test_pixel_cloud_rejects_zero_bands():
    with pytest.raises(ValueError, match="one band"):
        PixelCloud(np.zeros((4, 0)), (2, 2))


def test_pixel_cloud_validates_coords():
    spectra = np.zeros((4, 3))
    cloud = PixelCloud(spectra, (2, 2))
    assert cloud.n == 4 and cloud.bands == 3
    assert cloud.grid == (2, 2)
    np.testing.assert_array_equal(cloud.coords, [[0, 0], [0, 1], [1, 0], [1, 1]])


def test_pixel_cloud_requires_a_full_grid():
    spectra = np.zeros((4, 3))
    for grid in ((1, 3), (4, 4), (-2, -2), (0, 4)):
        with pytest.raises(ValueError, match="do not fill"):
            PixelCloud(spectra, grid)


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
        assert cloud.grid == (5, 7)
        np.testing.assert_array_equal(cloud.spectra.T.reshape(3, 5, 7), cube)


def test_cube_to_cloud_row_major_order():
    cube = np.arange(24, dtype=float).reshape(2, 3, 4)
    cloud = cube_to_cloud(cube)
    np.testing.assert_array_equal(cloud.coords[0], [0, 0])
    np.testing.assert_array_equal(cloud.coords[1], [0, 1])
    np.testing.assert_array_equal(cloud.coords[4], [1, 0])
    np.testing.assert_array_equal(cloud.spectra[5], cube[:, 1, 1])


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
    np.testing.assert_allclose(loaded, cube, rtol=0, atol=1e-6)


def test_envi_round_trip_is_exact_for_float32_data(tmp_path):
    rng = np.random.default_rng(3)
    cube = rng.standard_normal((2, 3, 4)).astype(np.float32).astype(np.float64)
    write_envi(cube, str(tmp_path / "a.hdr"), str(tmp_path / "a.raw"))
    loaded = load_envi(str(tmp_path / "a.hdr"), str(tmp_path / "a.raw"))
    np.testing.assert_array_equal(loaded, cube)
    assert loaded.dtype == np.float64 and loaded.flags.c_contiguous


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


@pytest.mark.parametrize(
    "key, value", [("data type", "float"), ("byte order", "little")]
)
def test_load_envi_names_a_non_integer_format_key(tmp_path, key, value):
    hdr = tmp_path / "g.hdr"
    raw = tmp_path / "g.raw"
    fields = {"data type": "4", "byte order": "0", key: value}
    write_header(
        hdr,
        "ENVI\nsamples = 2\nlines = 2\nbands = 1\ninterleave = bsq\n"
        + "".join(f"{k} = {v}\n" for k, v in fields.items()),
    )
    raw.write_bytes(b"\0" * 16)
    with pytest.raises(EnviFormatError, match=f"header key '{key}' is not an integer"):
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
    np.testing.assert_array_equal(cube[0].ravel(), payload.astype(np.float64))


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
        loaded[inter] = load_envi(hdr, raw)
    np.testing.assert_array_equal(loaded["bsq"], loaded["bil"])
    np.testing.assert_array_equal(loaded["bsq"], loaded["bip"])


def hand_interleaved(data, interleave):
    """The float32 payload of the ``(bands, lines, samples)`` cube ``data``
    in ``interleave``, built element by element without the package."""
    bands, lines, samples = data.shape
    if interleave == "bsq":  # each band holds its lines in turn
        order = [(b, r, c) for b in range(bands) for r in range(lines) for c in range(samples)]
    elif interleave == "bil":  # each line holds its bands in turn
        order = [(b, r, c) for r in range(lines) for b in range(bands) for c in range(samples)]
    else:  # bip: each line holds its pixels in turn, each pixel's bands together
        order = [(b, r, c) for r in range(lines) for c in range(samples) for b in range(bands)]
    return np.array([data[i] for i in order], dtype="<f4").tobytes()


@pytest.mark.parametrize("interleave", ["bsq", "bil", "bip"])
def test_envi_layouts_match_hand_built_payloads(tmp_path, interleave):
    # Distinct float32-exact values, so any misplaced element shows.
    data = np.arange(3 * 4 * 5, dtype=np.float64).reshape(3, 4, 5) * 0.5 - 7.0
    payload = hand_interleaved(data, interleave)
    hdr, raw = tmp_path / "hand.hdr", tmp_path / "hand.raw"
    write_header(
        hdr,
        f"ENVI\nsamples = 5\nlines = 4\nbands = 3\ninterleave = {interleave}\n"
        "data type = 4\nbyte order = 0\n",
    )
    raw.write_bytes(payload)
    np.testing.assert_array_equal(load_envi(str(hdr), str(raw)), data)
    write_envi(data, str(tmp_path / "w.hdr"), str(tmp_path / "w.raw"), interleave)
    assert (tmp_path / "w.raw").read_bytes() == payload


def test_unknown_interleave_is_rejected_by_reader_and_writer(tmp_path):
    hdr, raw = tmp_path / "u.hdr", tmp_path / "u.raw"
    write_header(hdr, "ENVI\nsamples = 2\nlines = 2\nbands = 1\ninterleave = BSX\n")
    raw.write_bytes(b"\0" * 16)
    with pytest.raises(EnviFormatError, match="^unsupported interleave 'bsx'$"):
        load_envi(str(hdr), str(raw))
    cube = random_cube(np.random.default_rng(6), bands=1, height=2, width=2)
    with pytest.raises(ValueError, match="^unsupported interleave 'bsx'$") as exc:
        write_envi(cube, str(tmp_path / "w.hdr"), str(tmp_path / "w.raw"), interleave="BSX")
    assert type(exc.value) is ValueError
    assert not (tmp_path / "w.hdr").exists() and not (tmp_path / "w.raw").exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_load_envi_rejects_a_non_finite_payload(tmp_path, bad):
    hdr, raw = tmp_path / "n.hdr", tmp_path / "n.raw"
    write_header(hdr, "ENVI\nsamples = 3\nlines = 2\nbands = 2\ninterleave = bip\n")
    payload = np.ones(12, dtype="<f4")
    payload[7] = bad
    raw.write_bytes(payload.tobytes())
    with pytest.raises(EnviFormatError, match="^data file contains non-finite values$"):
        load_envi(str(hdr), str(raw))


@pytest.mark.parametrize("interleave", ["bsq", "bil", "bip"])
def test_load_envi_skips_the_header_offset(tmp_path, interleave):
    cube = random_cube(np.random.default_rng(5), bands=3, height=4, width=6)
    hdr, raw = str(tmp_path / "plain.hdr"), str(tmp_path / "plain.raw")
    write_envi(cube, hdr, raw, interleave=interleave)
    plain = load_envi(hdr, raw)
    with open(hdr) as fh:
        header = fh.read()
    with open(raw, "rb") as fh:
        payload = fh.read()
    write_header(tmp_path / "offset.hdr", header + "header offset = 16\n")
    (tmp_path / "offset.raw").write_bytes(b"\xff" * 16 + payload)
    shifted = load_envi(str(tmp_path / "offset.hdr"), str(tmp_path / "offset.raw"))
    np.testing.assert_array_equal(shifted, plain)


@pytest.mark.parametrize(
    "value, message",
    [
        ("-4", "header key 'header offset' is negative: -4"),
        ("1.5", "header key 'header offset' is not an integer: '1.5'"),
    ],
)
def test_load_envi_rejects_a_bad_header_offset(tmp_path, value, message):
    hdr = tmp_path / "h.hdr"
    raw = tmp_path / "h.raw"
    write_header(
        hdr,
        "ENVI\nsamples = 2\nlines = 2\nbands = 1\ninterleave = bsq\n"
        f"header offset = {value}\n",
    )
    raw.write_bytes(b"\0" * 16)
    with pytest.raises(EnviFormatError, match=re.escape(message)):
        load_envi(str(hdr), str(raw))


def test_load_envi_size_mismatch_names_the_header_offset(tmp_path):
    hdr = tmp_path / "i.hdr"
    raw = tmp_path / "i.raw"
    write_header(
        hdr,
        "ENVI\nsamples = 2\nlines = 2\nbands = 1\ninterleave = bsq\n"
        "header offset = 8\n",
    )
    raw.write_bytes(b"\0" * 16)
    with pytest.raises(
        EnviFormatError,
        match=re.escape("16 bytes but header implies 24 (2x2x1 float32 after 8 bytes of header offset)"),
    ):
        load_envi(str(hdr), str(raw))


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
        scores = first_pc(PixelCloud(spectra, (n, 1)))
        np.testing.assert_allclose(scores, svd_first_pc(spectra), atol=1e-6)
    # small eigengaps: the top two sample variances are in an exact ratio
    # close to 1, built from orthonormal (centered) scores and axes
    n, bands = 30, 8
    for ratio in (0.81, 0.9, 0.98):
        for trial in range(3):
            scores = rng.standard_normal((n, bands))
            u = np.linalg.qr(scores - scores.mean(axis=0))[0]
            v = np.linalg.qr(rng.standard_normal((bands, bands)))[0]
            sv = np.array([10.0, 10.0 * np.sqrt(ratio), 3.0, 2.5, 2.0, 1.5, 1.0, 0.5])
            spectra = (u * sv) @ v.T + rng.standard_normal(bands)
            scores = first_pc(PixelCloud(spectra, (n, 1)))
            np.testing.assert_allclose(scores, svd_first_pc(spectra), atol=1e-6)


def test_first_pc_variance_matches_leading_singular_value():
    rng = np.random.default_rng(50)
    for trial in range(10):
        spectra = rng.standard_normal((25, 6))
        scores = first_pc(PixelCloud(spectra, (25, 1)))
        centered = spectra - spectra.mean(axis=0)
        top_sv = np.linalg.svd(centered, compute_uv=False)[0]
        np.testing.assert_allclose(np.linalg.norm(scores), top_sv, rtol=1e-8)


def test_first_pc_scores_are_centered():
    rng = np.random.default_rng(6)
    cube = random_cube(rng, bands=4, height=5, width=3)
    scores = first_pc(cube_to_cloud(cube))
    assert scores.shape == (15,)
    assert abs(scores.mean()) < 1e-10


def test_first_pc_sign_convention():
    rng = np.random.default_rng(7)
    spectra = rng.standard_normal((30, 6))
    a = first_pc(PixelCloud(spectra, (30, 1)))
    b = first_pc(PixelCloud(-spectra, (30, 1)))
    # the dominant direction flips with the data, the scores stay aligned
    np.testing.assert_allclose(np.abs(a), np.abs(b), atol=1e-7)


def test_first_pc_is_the_first_axis_of_the_affine_projection():
    # SaR's PC field and AVMAX's projection come from one principal-axis
    # fit, so the scores are the projection's first column bit for bit, with
    # the sign that makes the axis's entry of largest magnitude positive.
    rng = np.random.default_rng(8)
    cubes = [synth_hsi(SynthConfig(height=side, width=side, bands=30, seed=0)).cube for side in (40, 64)]
    cubes += [random_cube(rng, b, h, w) for b, h, w in ((2, 3, 4), (12, 9, 7), (50, 6, 11))]
    for cloud in map(cube_to_cloud, cubes):
        scores = first_pc(cloud)
        column = project_affine_pca(cloud.spectra, 1)[:, 0]
        axis = core._principal_axes(cloud.spectra)[2][:, 0]
        sign = 1.0 if axis[np.argmax(np.abs(axis))] > 0 else -1.0
        np.testing.assert_array_equal(scores, sign * column)


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


@pytest.mark.parametrize(
    "row, lineno",
    [
        ("0,0,0,x", 2),
        ("0,0,0,1\n1,0,1,1.5", 3),
        ("0,0,0,1\n\n1,a,1,1", 4),
        ("0,0,0,1\n1,0,1,-2", 3),
    ],
)
def test_read_labels_csv_names_line_of_non_integer_field(tmp_path, row, lineno):
    path = tmp_path / "bad.csv"
    path.write_text(f"index,row,col,label\n{row}\n")
    bad = row.splitlines()[-1]
    # A minus sign marks the row whose label is an integer but negative.
    problem = "labels must be non-negative" if "-" in bad else "fields must be integers"
    message = f"{path}:{lineno}: {problem}, got '{bad}'"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
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


# ---------------------------------------------------------------------------
# bounded passes


@pytest.mark.parametrize(
    "count, per_item, budget",
    [(0, 3, 10), (1, 1, 1), (10, 3, 10), (9, 3, 9), (10, 11, 10), (3, 11, 10), (100, 7, 65)],
)
def test_blocks_cover_the_range_once_in_order(count, per_item, budget):
    slices = core._blocks(count, per_item, budget)
    size = max(1, budget // per_item)
    assert [i for s in slices for i in range(count)[s]] == list(range(count))
    assert len(slices) == max(1, -(-count // size))
    if count:
        assert all(0 < s.stop - s.start <= size for s in slices)


def test_blocks_of_nothing_and_of_items_over_budget():
    # No items still make one (empty) slice, and an item larger than the
    # whole budget gets a slice of its own.
    assert core._blocks(0, 5) == [slice(0, 0)]
    assert core._blocks(0, 5, 3) == [slice(0, 0)]
    assert core._blocks(3, 11, 10) == [slice(0, 1), slice(1, 2), slice(2, 3)]
    assert core._blocks(1, 11, 10) == [slice(0, 1)]


def test_blocks_read_the_default_budget_at_each_call(monkeypatch):
    assert core._blocks(5, 1) == [slice(0, 5)]
    monkeypatch.setattr(core, "_BLOCK_ELEMENTS", 10)
    assert core._blocks(25, 3) == [slice(i, min(i + 3, 25)) for i in range(0, 25, 3)]
    assert core._blocks(25, 3, 30) == [slice(0, 10), slice(10, 20), slice(20, 25)]


def record_default_cuts(monkeypatch, module_name):
    """Log the slice lengths of each default-budget ``_blocks`` call of
    ``module_name`` as ``(per_item, lengths)``."""
    module = importlib.import_module(module_name)
    cuts = []

    def recording(count, per_item, budget=None):
        slices = core._blocks(count, per_item, budget)
        if budget is None:
            cuts.append((per_item, [s.stop - s.start for s in slices]))
        return slices

    monkeypatch.setattr(module, "_blocks", recording)
    return cuts


def bounded_pass(module_name):
    """A call whose passes ``module_name`` cuts with ``_blocks``; returns
    its output arrays."""
    if module_name == "dsirc.sar":
        cloud = cube_to_cloud(synth_hsi(SynthConfig(height=12, width=12, bands=8, seed=0)).cube)
        return lambda: (sar(cloud).spectra,)
    x = np.random.default_rng(30).uniform(size=(300, 5))
    if module_name == "dsirc.diffusion":
        return lambda: knn_indices(x, 10)
    system = diffusion_system(knn_graph(knn_indices(x, 10)[0]), 20)
    z = np.random.default_rng(31).uniform(0.05, 1.0, size=300)
    return lambda: dt_values(system.embedding(1.0), z)


@pytest.mark.parametrize("module_name", ["dsirc.diffusion", "dsirc.clustering", "dsirc.sar"])
def test_block_budget_reaches_every_default_caller(monkeypatch, module_name):
    # The KNN search, the scan's gather and SaR read core._BLOCK_ELEMENTS:
    # shrinking it cuts each of their passes finer, to at most
    # max(1, budget // per_item) items, and leaves every output as it was.
    run = bounded_pass(module_name)
    cuts = record_default_cuts(monkeypatch, module_name)
    want = run()
    default_slices = sum(len(lengths) for _, lengths in cuts)
    cuts.clear()
    monkeypatch.setattr(core, "_BLOCK_ELEMENTS", 64)
    got = run()
    assert cuts and sum(len(lengths) for _, lengths in cuts) > default_slices
    assert all(max(lengths) <= max(1, 64 // per_item) for per_item, lengths in cuts)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)
