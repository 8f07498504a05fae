"""Core data model and I/O: image cubes, pixel clouds, labels, ENVI files.

The canonical in-memory layout for a hyperspectral image is band-sequential:
a float64 array of shape ``(bands, height, width)``.  Pixel-level algorithms
work on a flattened view (:class:`PixelCloud`) whose rows enumerate the grid
in row-major order, ``i = row * width + col``.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EnviFormatError",
    "DegenerateCovarianceError",
    "ImageCube",
    "PixelCloud",
    "LabelMap",
    "load_envi",
    "write_envi",
    "cube_to_cloud",
    "first_pc",
    "LABEL_PALETTE",
    "label_colors",
    "write_labels_csv",
    "read_labels_csv",
    "write_label_ppm",
    "write_label_pgm",
]

# Values one working block of a bounded pass may hold: 512 KiB of float64,
# small enough to stay in cache from one pass to the next, so no transient
# of the KNN search, the predecessor scan or SaR grows with the scene.
_BLOCK_ELEMENTS = 65_536


def _blocks(count: int, per_item: int, budget: int | None = None) -> list[slice]:
    """Consecutive slices covering ``range(count)`` in order, each of at
    most ``max(1, budget // per_item)`` items, and at least one (one empty
    slice when ``count`` is 0).  ``budget`` defaults to ``_BLOCK_ELEMENTS``,
    read at each call."""
    size = max(1, (_BLOCK_ELEMENTS if budget is None else budget) // per_item)
    return [slice(i, min(i + size, count)) for i in range(0, max(count, 1), size)]


class EnviFormatError(ValueError):
    """Raised when an ENVI header/data pair is malformed or inconsistent."""


class DegenerateCovarianceError(ValueError):
    """Raised when spectra carry no variance, so no principal axis exists."""


@dataclass(frozen=True)
class ImageCube:
    """A reflectance cube stored band-sequentially as ``(bands, height, width)``.

    The array is converted to float64 on construction and must be finite.
    Instances are treated as immutable after construction.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        data = np.ascontiguousarray(np.asarray(self.data, dtype=np.float64))
        if data.ndim != 3:
            raise ValueError("cube data must be 3-D (bands, height, width)")
        if min(data.shape) < 1:
            raise ValueError("cube dimensions must all be at least 1")
        if not np.all(np.isfinite(data)):
            raise ValueError("cube contains non-finite values")
        object.__setattr__(self, "data", data)

    @property
    def bands(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True)
class PixelCloud:
    """The spectra of a full image grid, one row per pixel in row-major order.

    ``spectra`` is ``(n, bands)`` float64 and ``grid`` the ``(height, width)``
    they fill, ``n == height * width``: pixel ``i`` sits at row
    ``i // width`` and column ``i % width``.
    """

    spectra: np.ndarray
    grid: tuple[int, int]

    def __post_init__(self) -> None:
        spectra = np.ascontiguousarray(np.asarray(self.spectra, dtype=np.float64))
        if spectra.ndim != 2:
            raise ValueError("spectra must be 2-D (n, bands)")
        if spectra.shape[0] < 1:
            raise ValueError("pixel cloud must contain at least one pixel")
        height, width = map(int, self.grid)
        if min(height, width) < 1 or height * width != spectra.shape[0]:
            raise ValueError(f"{spectra.shape[0]} spectra do not fill a {height}x{width} grid")
        if not np.all(np.isfinite(spectra)):
            raise ValueError("spectra contain non-finite values")
        object.__setattr__(self, "spectra", spectra)
        object.__setattr__(self, "grid", (height, width))

    @property
    def n(self) -> int:
        return self.spectra.shape[0]

    @property
    def bands(self) -> int:
        return self.spectra.shape[1]

    @property
    def coords(self) -> np.ndarray:
        """The ``(n, 2)`` ``(row, col)`` of each pixel, in row-major order."""
        return np.column_stack(np.divmod(np.arange(self.n, dtype=np.intp), self.grid[1]))


@dataclass(frozen=True)
class LabelMap:
    """Integer labels per pixel; 0 means unlabeled."""

    labels: np.ndarray

    def __post_init__(self) -> None:
        labels = np.ascontiguousarray(np.asarray(self.labels, dtype=np.int64))
        if labels.ndim != 1:
            raise ValueError("labels must be 1-D")
        if labels.size and labels.min() < 0:
            raise ValueError("labels must be non-negative")
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.labels.shape[0]

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) if self.labels.size else 0


# ---------------------------------------------------------------------------
# ENVI I/O


# The order of an ENVI file's axes for each interleave, as positions of the
# cube's (bands, lines, samples) axes, outermost first.
_INTERLEAVE_AXES = {"bsq": (0, 1, 2), "bil": (1, 0, 2), "bip": (1, 2, 0)}


def _interleave_axes(interleave: str, error: type[ValueError]) -> tuple[int, int, int]:
    """The file axis order of the lower-case ``interleave``; raises
    ``error`` for an interleave not in :data:`_INTERLEAVE_AXES`."""
    if interleave not in _INTERLEAVE_AXES:
        raise error(f"unsupported interleave {interleave!r}")
    return _INTERLEAVE_AXES[interleave]


def _parse_envi_header(path: str) -> dict[str, str]:
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        text = fh.read()
    # Brace-enclosed blocks (wavelength lists, map info, ...) carry no keys
    # we need and may span lines; strip them before line parsing.
    text = re.sub(r"\{[^}]*\}", " ", text, flags=re.S)
    fields: dict[str, str] = {}
    for line in text.splitlines():
        if "=" not in line:
            continue
        key, _, value = line.partition("=")
        key = " ".join(key.strip().lower().split())
        value = value.strip()
        if not key:
            continue
        if key in fields and fields[key] != value:
            raise EnviFormatError(
                f"contradictory header values for {key!r}: "
                f"{fields[key]!r} vs {value!r}"
            )
        fields[key] = value
    return fields


def _header_int(fields: dict[str, str], key: str, default: str | None = None) -> int:
    value = fields.get(key, default)
    try:
        return int(value)
    except ValueError as exc:
        raise EnviFormatError(f"header key {key!r} is not an integer: {value!r}") from exc


def load_envi(header_path: str, data_path: str) -> ImageCube:
    """Load an ENVI image (text header + raw binary) into an :class:`ImageCube`.

    Only 32-bit little-endian floats (data type 4, byte order 0) are
    supported; those keys default when absent.  ``bsq``, ``bil`` and ``bip``
    interleaves are all de-interleaved to the canonical band-sequential
    layout.  The payload starts ``header offset`` bytes (default 0) into the
    data file, and the file size must equal that offset plus the payload.
    """
    fields = _parse_envi_header(header_path)
    missing = [k for k in ("samples", "lines", "bands", "interleave") if k not in fields]
    if missing:
        raise EnviFormatError(f"header is missing required keys: {', '.join(missing)}")
    width = _header_int(fields, "samples")
    height = _header_int(fields, "lines")
    bands = _header_int(fields, "bands")
    if min(width, height, bands) < 1:
        raise EnviFormatError("samples, lines and bands must all be positive")
    axes = _interleave_axes(fields["interleave"].lower(), EnviFormatError)
    data_type = _header_int(fields, "data type", "4")
    if data_type != 4:
        raise EnviFormatError(f"unsupported data type {data_type}; only 4 (float32)")
    byte_order = _header_int(fields, "byte order", "0")
    if byte_order != 0:
        raise EnviFormatError(f"unsupported byte order {byte_order}; only 0 (little-endian)")

    offset = _header_int(fields, "header offset", "0")
    if offset < 0:
        raise EnviFormatError(f"header key 'header offset' is negative: {offset}")

    expected = offset + width * height * bands * 4
    actual = os.path.getsize(data_path)
    if actual != expected:
        after = f" after {offset} bytes of header offset" if offset else ""
        raise EnviFormatError(
            f"data file is {actual} bytes but header implies {expected} "
            f"({height}x{width}x{bands} float32{after})"
        )
    raw = np.fromfile(data_path, dtype="<f4", offset=offset)
    arr = raw.reshape([(bands, height, width)[axis] for axis in axes]).transpose(np.argsort(axes))
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise EnviFormatError("data file contains non-finite values")
    return ImageCube(arr)


def write_envi(
    cube: ImageCube, header_path: str, data_path: str, interleave: str = "bsq"
) -> None:
    """Write a cube as an ENVI float32 little-endian header/data pair."""
    interleave = interleave.lower()
    arr = cube.data.transpose(_interleave_axes(interleave, ValueError))
    header = (
        "ENVI\n"
        f"samples = {cube.width}\n"
        f"lines = {cube.height}\n"
        f"bands = {cube.bands}\n"
        "data type = 4\n"
        f"interleave = {interleave}\n"
        "byte order = 0\n"
    )
    with open(header_path, "w", encoding="utf-8") as fh:
        fh.write(header)
    np.ascontiguousarray(arr, dtype="<f4").tofile(data_path)


# ---------------------------------------------------------------------------
# Cube <-> cloud


def cube_to_cloud(cube: ImageCube) -> PixelCloud:
    """Flatten a cube to an ``(n, bands)`` cloud in row-major pixel order."""
    b, h, w = cube.data.shape
    return PixelCloud(np.ascontiguousarray(cube.data.reshape(b, h * w).T), (h, w))


# ---------------------------------------------------------------------------
# First principal component


def first_pc(cloud: PixelCloud) -> np.ndarray:
    """The ``(n,)`` scores of the spectra on their dominant principal axis.

    The axis is the eigenvector of the sample covariance matrix with the
    largest eigenvalue (``np.linalg.eigh``).  The axis sign is fixed so the
    entry of largest magnitude is positive; scores are centered.

    Raises
    ------
    DegenerateCovarianceError
        If all spectra are identical (zero covariance).
    """
    if cloud.n < 2:
        raise ValueError("need at least two pixels to fit a principal axis")
    centered, eigvals, eigvecs = _principal_axes(cloud.spectra)
    if float(eigvals[0]) <= 0.0:
        raise DegenerateCovarianceError(
            "spectra have zero variance in every band (all pixels identical)"
        )
    v = eigvecs[:, 0]
    peak = int(np.argmax(np.abs(v)))
    if v[peak] < 0:
        v = -v
    return centered @ v


def _principal_axes(spectra: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The centred ``(n, bands)`` spectra, then the eigenvalues and
    eigenvector columns of their sample covariance (over ``n - 1``), largest
    first: the one principal-axis fit behind SaR's PC field
    (:func:`first_pc`) and AVMAX's projection
    (``unmixing.project_affine_pca``)."""
    centered = spectra - spectra.mean(axis=0)
    eigvals, eigvecs = np.linalg.eigh((centered.T @ centered) / (len(spectra) - 1))
    return centered, eigvals[::-1], eigvecs[:, ::-1]


# ---------------------------------------------------------------------------
# Label export

# 17 fixed colors: index 0 (unlabeled) is black, 1..16 are distinguishable
# hues; labels above 16 cycle through 1..16.
LABEL_PALETTE = np.array(
    [
        [0, 0, 0],
        [230, 25, 75],
        [60, 180, 75],
        [255, 225, 25],
        [0, 130, 200],
        [245, 130, 48],
        [145, 30, 180],
        [70, 240, 240],
        [240, 50, 230],
        [210, 245, 60],
        [250, 190, 212],
        [0, 128, 128],
        [220, 190, 255],
        [170, 110, 40],
        [255, 250, 200],
        [128, 0, 0],
        [170, 255, 195],
    ],
    dtype=np.uint8,
)


def label_colors(labels: np.ndarray) -> np.ndarray:
    """Map labels to RGB rows of :data:`LABEL_PALETTE` (0 stays black)."""
    labels = np.asarray(labels, dtype=np.int64)
    idx = np.where(labels > 0, (labels - 1) % 16 + 1, 0)
    return LABEL_PALETTE[idx]


def write_labels_csv(path: str, labels: LabelMap, coords: np.ndarray) -> None:
    """Write ``index,row,col,label`` rows, one pixel per line."""
    coords = np.asarray(coords, dtype=np.int64)
    if coords.shape != (labels.n, 2):
        raise ValueError("coords shape does not match label count")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,row,col,label\n")
        for i in range(labels.n):
            fh.write(f"{i},{coords[i, 0]},{coords[i, 1]},{labels.labels[i]}\n")


def read_labels_csv(path: str) -> tuple[LabelMap, np.ndarray]:
    """Read a CSV written by :func:`write_labels_csv`; rows may be unordered."""
    rows: list[tuple[int, int, int, int]] = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().lower().replace(" ", "")
        if header != "index,row,col,label":
            raise ValueError(f"unexpected label CSV header: {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 fields, got {len(parts)}")
            try:
                rows.append(tuple(int(p) for p in parts))  # type: ignore[arg-type]
            except ValueError:
                raise ValueError(f"{path}:{lineno}: fields must be integers, got {line!r}") from None
            if rows[-1][3] < 0:
                raise ValueError(f"{path}:{lineno}: labels must be non-negative, got {line!r}")
    if not rows:
        raise ValueError(f"{path}: no label rows")
    rows.sort(key=lambda r: r[0])
    indices = np.array([r[0] for r in rows])
    if not np.array_equal(indices, np.arange(len(rows))):
        raise ValueError(f"{path}: pixel indices are not 0..n-1")
    coords = np.array([[r[1], r[2]] for r in rows], dtype=np.intp)
    labels = np.array([r[3] for r in rows], dtype=np.int64)
    return LabelMap(labels), coords


def _labels_to_grid(labels: LabelMap, height: int, width: int) -> np.ndarray:
    if labels.n != height * width:
        raise ValueError("label count does not match grid size")
    return labels.labels.reshape(height, width)


def write_label_ppm(path: str, labels: LabelMap, height: int, width: int) -> None:
    """Write labels as a binary P6 PPM using the fixed palette."""
    grid = _labels_to_grid(labels, height, width)
    rgb = label_colors(grid.ravel()).reshape(height, width, 3)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
        fh.write(rgb.tobytes())


def write_label_pgm(path: str, labels: LabelMap, height: int, width: int) -> None:
    """Write labels as a binary P5 PGM (palette colors reduced to luma)."""
    grid = _labels_to_grid(labels, height, width)
    rgb = label_colors(grid.ravel()).astype(np.float64)
    luma = np.rint(0.299 * rgb[:, 0] + 0.587 * rgb[:, 1] + 0.114 * rgb[:, 2])
    gray = luma.astype(np.uint8).reshape(height, width)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(gray.tobytes())
