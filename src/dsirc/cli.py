"""Command-line interface: synthesize, cluster, evaluate, sweep.

Exit codes: 0 on success, 1 when an algorithm fails on valid inputs
(e.g. a disconnected KNN graph), 2 on usage, configuration, or I/O errors.
Each subcommand runs its steps as named stages (:func:`_stage`) that raise
:class:`_Failed`; ``main`` is the one place that turns a failure into the
line ``dsirc: <stage> failed: <cause>`` on stderr and its exit code.
Options may also be supplied via ``--config FILE`` holding flat
``key = value`` lines; explicit command-line flags win over the file.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import json
import os
import statistics
import sys

import numpy as np

from .clustering import (
    ClusterConfig,
    Clustering,
    _cloud_limits,
    _clustering,
    _spectral_grid,
    kmeans,
    mode_grid,
)
from .core import (
    EnviFormatError,
    LabelMap,
    PixelCloud,
    _grid_coords,
    cube_to_cloud,
    load_envi,
    read_labels_csv,
    write_envi,
    write_label_pgm,
    write_label_ppm,
    write_labels_csv,
)
from .diffusion import DisconnectedGraphError
from .evaluation import align_labels, cohens_kappa, overall_accuracy
from .synth import SynthConfig, synth_hsi

__all__ = ["main"]

_ALGORITHMS = ("dsirc", "dvic", "kmeans", "sc")
_NORMALIZATIONS = ("none", "l2")


def _auto(cast):
    """A parser that reads ``auto`` as ``None`` ("derive from the data")."""
    return lambda text: None if text == "auto" else cast(text)


def _choice(*choices):
    """A parser that lower-cases its text and accepts only ``choices``."""

    def parse(text: str) -> str:
        value = text.lower()
        if value not in choices:
            raise ValueError(f"choose from {', '.join(choices)}")
        return value

    return parse


def _lengths(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


# Each key is both a flag and a --config key: its parser, the ClusterConfig
# field it sets (or None) and its help.
_OPTIONS = {
    "algorithm": (_choice(*_ALGORITHMS), None, f"clustering algorithm: {', '.join(_ALGORITHMS)}"),
    "k": (int, "n_clusters", "number of clusters"),
    "kn": (int, "k_n", "nearest-neighbor count for graph and density"),
    "sigma0": (_auto(float), "sigma0", "KDE bandwidth, or 'auto'"),
    "t": (float, "t", "diffusion time"),
    "tau": (float, "tau", "confidence-interval width multiplier"),
    "lsar": (_lengths, "lengths", "comma-separated candidate ray lengths"),
    "restarts": (int, "restarts", "random restarts for volume ascent / k-means"),
    "seed": (int, None, "random seed"),
    "p": (_auto(int), "n_endmembers", "endmember count, or 'auto'"),
    "eigenpairs": (_auto(int), "n_eigenpairs", "retained eigenpairs, or 'auto'"),
    "normalize": (
        _choice(*_NORMALIZATIONS), None, f"spectrum normalization: {', '.join(_NORMALIZATIONS)}"
    ),
}

# The pipeline knobs take their defaults from ClusterConfig; k has none.
_DEFAULTS: dict[str, object] = {"algorithm": "dsirc", "seed": 0, "normalize": "none"} | {
    key: field.default
    for field in dataclasses.fields(ClusterConfig)
    for key, (_, name, _) in _OPTIONS.items()
    if name == field.name and field.default is not dataclasses.MISSING
}

# The sweep's default grids.
_GRIDS = {"kn": "20,50,100,200", "t": "10,30,100", "tau": "1,2,3"}

# The pipeline keys each algorithm reads, each reading all of the one before
# (and algorithm, seed and normalize): a sweep sweeps those with a grid, and
# the loaded cloud is checked against those with a limit.
_READS = {"kmeans": ("k", "restarts"), "sc": ("k", "kn", "restarts")}
_READS["dvic"] = (*_READS["sc"], "sigma0", "t", "p", "eigenpairs")
_READS["dsirc"] = (*_READS["dvic"], "tau", "lsar")


class _Failed(Exception):
    """Stage ``args[0]`` failed with cause ``args[1]``; the run exits with
    code ``args[2]``."""


@contextlib.contextmanager
def _stage(name: str, code: int, errors=(OSError, ValueError)):
    """Run the body as stage ``name``: an ``errors`` exception fails the run
    with exit code ``code``."""
    try:
        yield
    except errors as exc:
        raise _Failed(name, exc, code) from exc


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip().lower()
            if key not in _OPTIONS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = value.strip()
    return values


def _parse_value(key: str, text: str, parse=None):
    """``text`` parsed by ``parse``, by default ``key``'s own parser; a
    ValueError names the key."""
    try:
        return (parse or _OPTIONS[key][0])(text)
    except ValueError as exc:
        raise ValueError(f"bad {key} value {text!r}: {exc}") from exc


def _parse_options(args: argparse.Namespace) -> dict[str, object]:
    """The run's options: defaults, then the --config file, then flags, each
    given value parsed once; raises ValueError when one is invalid."""
    given = _read_config_file(args.config) if args.config else {}
    given.update({key: getattr(args, key) for key in _OPTIONS if getattr(args, key) is not None})
    opts = dict(_DEFAULTS)
    opts.update({key: _parse_value(key, text) for key, text in given.items()})
    if "k" not in opts:
        raise ValueError("number of clusters is required (--k or config key 'k')")
    _cluster_config(opts)
    return opts


def _cluster_config(opts: dict[str, object]) -> ClusterConfig:
    """The pipeline config for ``opts``; raises ValueError when it is invalid."""
    fields = {name: opts[key] for key, (_, name, _) in _OPTIONS.items() if name}
    return ClusterConfig(seed=opts["seed"], **fields)


def _check_cloud_supports(
    cloud: PixelCloud, opts: dict[str, object], combos: list[dict[str, object]]
) -> None:
    """Raise ValueError, naming the key, when a value the algorithm reads in
    any combination (options overriding ``opts``) asks more of ``cloud``
    than it has, by the limits ``mode_grid`` checks."""
    limits = _cloud_limits(cloud)
    for key, (_, name, _) in _OPTIONS.items():
        if key in _READS[opts["algorithm"]] and name in limits:
            most, reason = limits[name]
            for combo in combos:
                value = combo.get(key, opts[key])
                if value is not None and value > most:
                    raise ValueError(f"bad {key} value {value}: {reason}")


def _normalized(cloud: PixelCloud, mode: str) -> PixelCloud:
    if mode == "none":
        return cloud
    norms = np.linalg.norm(cloud.spectra, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return PixelCloud(cloud.spectra / norms, cloud.grid)


def _run_grid(
    cloud: PixelCloud, opts: dict[str, object], combos: list[dict[str, object]], seeds: list[int]
) -> list[list[Clustering | DisconnectedGraphError]]:
    """The clusterings of each combination (options overriding ``opts``),
    one per seed, in ``combos`` and ``seeds`` order; a combination whose
    KNN graph splits into components gets the error instead.

    Each algorithm makes one library call, so each stage runs once per
    distinct input.  ``dsirc`` and ``dvic`` run every combination and seed
    in one :func:`mode_grid` call (dvic's combinations at ``tau = None``);
    ``sc`` runs one search at the largest k_n, one graph and eigensystem per
    k_n and k-means per seed; ``kmeans``, which sweeps no key, runs once per
    seed.
    """
    runs = [{**opts, **combo} for combo in combos]
    algorithm, config = opts["algorithm"], _cluster_config(opts)
    if algorithm == "kmeans":
        return [[kmeans(cloud, dataclasses.replace(config, seed=seed)) for seed in seeds] for _ in runs]
    if algorithm == "sc":
        keys = [(run["kn"],) for run in runs]
    else:
        keys = [(run["kn"], run["t"], run["tau"] if algorithm == "dsirc" else None) for run in runs]
    grid = (_spectral_grid if algorithm == "sc" else mode_grid)(cloud, config, *zip(*keys), seeds)
    return [[grid[(*key, seed)] for seed in seeds] for key in keys]


def _write_params(path: str, opts: dict[str, object]) -> None:
    """Write ``opts`` as a --config file: ``None`` as ``auto`` and ray
    lengths comma-joined, the forms their parsers read."""
    with open(path, "w", encoding="utf-8") as fh:
        for key in sorted(opts):
            value = opts[key]
            if isinstance(value, tuple):
                value = ",".join(map(str, value))
            fh.write(f"{key} = {'auto' if value is None else value}\n")


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_synth(args: argparse.Namespace) -> int:
    with _stage("configuration", 2):
        config = SynthConfig(
            **{field.name: getattr(args, field.name) for field in dataclasses.fields(SynthConfig)}
        )
    with _stage("generation", 1, RuntimeError):
        scene = synth_hsi(config)
    with _stage("output", 2, OSError):
        os.makedirs(args.out, exist_ok=True)
        write_envi(
            scene.cube,
            os.path.join(args.out, "cube.hdr"),
            os.path.join(args.out, "cube.raw"),
        )
        coords = _grid_coords(config.height, config.width)
        write_labels_csv(os.path.join(args.out, "gt.csv"), scene.gt, coords)
        write_label_ppm(os.path.join(args.out, "gt.ppm"), scene.gt, config.height, config.width)
        np.savetxt(os.path.join(args.out, "endmembers.csv"), scene.endmembers, delimiter=",")
        np.savetxt(os.path.join(args.out, "abundances.csv"), scene.abundances, delimiter=",")
    print(
        f"wrote {config.height}x{config.width}x{config.bands} scene "
        f"({config.n_endmembers} endmembers, noise {config.noise}) to {args.out}"
    )
    return 0


def _read_ground_truth(path: str, coords: np.ndarray, what: str) -> LabelMap:
    """Ground-truth labels for the ``(row, col)`` pixels ``coords`` of the
    ``what``; the CSV must list exactly those pixels, in that order, and
    label at least one of them."""
    gt, gt_coords = read_labels_csv(path)
    if gt.num_classes == 0:
        raise ValueError(f"{path}: ground truth labels no pixels")
    if gt_coords.shape != coords.shape:
        raise ValueError(f"ground truth has {len(gt_coords)} pixels but the {what} has {len(coords)}")
    if not np.array_equal(gt_coords, coords):
        raise ValueError(f"ground truth (row, col) coordinates differ from the {what}'s")
    return gt


def _score(labels, gt: LabelMap) -> tuple[LabelMap, dict[str, float]]:
    """Labels aligned to the ground-truth classes, and their OA and kappa."""
    aligned = align_labels(labels, gt)
    return aligned, {
        "oa": overall_accuracy(aligned, gt),
        "kappa": cohens_kappa(aligned, gt),
    }


def _prepare(args: argparse.Namespace, grids: dict[str, list] | None = None):
    """The set-up of ``cluster`` and of ``sweep``: its options, its
    combinations, the loaded cloud and the ground truth (or None).

    Stages run in order: configuration (the options, and each combination's
    :class:`ClusterConfig`), input, then configuration again for the values
    the cloud cannot support.  ``grids`` (a sweep's) maps each key to its
    values; the combinations are the product of the keys the algorithm
    sweeps, and ground truth is required to score them.  Without ``grids``
    the one combination is ``{}``: the options alone.
    """
    with _stage("configuration", 2):
        opts = _parse_options(args)
        swept = [key for key in _GRIDS if key in _READS[opts["algorithm"]]] if grids else []
        combos = [
            dict(zip(swept, values))
            for values in itertools.product(*(grids[key] for key in swept))
        ]
        for combo in combos:
            _cluster_config({**opts, **combo})
    with _stage("input", 2):
        cloud = _normalized(cube_to_cloud(load_envi(args.header, args.data)), opts["normalize"])
        gt = _read_ground_truth(args.gt, cloud.coords, "cube") if args.gt else None
        if grids and gt is None:
            raise ValueError("sweep requires --gt to score combinations")
    with _stage("configuration", 2):
        _check_cloud_supports(cloud, opts, combos)
    return opts, combos, cloud, gt


def _cmd_cluster(args: argparse.Namespace) -> int:
    opts, combos, cloud, gt = _prepare(args)
    with _stage("clustering", 1, Exception):  # algorithm failure on valid inputs
        [[result]] = _run_grid(cloud, opts, combos, [opts["seed"]])
        labels = _clustering(result).labels
    metrics: dict[str, float] | None = None
    if gt is not None:
        labels, metrics = _score(labels, gt)
    with _stage("output", 2, OSError):
        os.makedirs(args.out, exist_ok=True)
        _write_params(os.path.join(args.out, "params.txt"), opts)
        write_labels_csv(os.path.join(args.out, "labels.csv"), labels, cloud.coords)
        write_label_ppm(os.path.join(args.out, "labels.ppm"), labels, *cloud.grid)
        write_label_pgm(os.path.join(args.out, "labels.pgm"), labels, *cloud.grid)
        if metrics is not None:
            with open(os.path.join(args.out, "metrics.json"), "w", encoding="utf-8") as fh:
                json.dump(metrics, fh, indent=2)
                fh.write("\n")
    summary = f"{opts['algorithm']} k={opts['k']} seed={opts['seed']}"
    if metrics is not None:
        summary += f" oa={metrics['oa']:.4f} kappa={metrics['kappa']:.4f}"
    print(summary)
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    with _stage("input", 2):
        pred, pred_coords = read_labels_csv(args.pred)
        gt = _read_ground_truth(args.gt, pred_coords, "prediction")
    with _stage("evaluation", 1, ValueError):
        _, metrics = _score(pred, gt)
    text = json.dumps(metrics, indent=2)
    print(text)
    if args.out:
        with _stage("output", 2, OSError), open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    with _stage("configuration", 2):
        grids = {}
        for key in _GRIDS:
            text = getattr(args, f"{key}_grid")
            grids[key] = [_parse_value(key, part) for part in text.split(",") if part.strip()]
            if not grids[key]:
                raise ValueError(f"empty {key} grid {text!r}")
        seeds = _parse_value("seeds", args.seeds, int)
        if seeds < 1:
            raise ValueError("--seeds must be at least 1")
    opts, combos, cloud, gt = _prepare(args, grids)
    # A combination that failed at any seed keeps its first error and gets
    # no row.
    rows: list[dict[str, object]] = []
    failures: list[tuple[dict[str, object], DisconnectedGraphError]] = []
    with _stage("clustering", 1, Exception):
        grid = _run_grid(cloud, opts, combos, [opts["seed"] + offset for offset in range(seeds)])
        for combo, results in zip(combos, grid):
            error = next((r for r in results if isinstance(r, DisconnectedGraphError)), None)
            if error is not None:
                failures.append((combo, error))
                continue
            runs = [_score(result.labels, gt)[1] for result in results]
            rows.append(
                {
                    **combo,
                    "oa_median": statistics.median(m["oa"] for m in runs),
                    "kappa_median": statistics.median(m["kappa"] for m in runs),
                }
            )
    best = max(rows, key=lambda row: row["oa_median"], default=None)
    with _stage("output", 2, OSError):
        os.makedirs(args.out, exist_ok=True)
        keys = [*_GRIDS, "oa_median", "kappa_median"]
        with open(os.path.join(args.out, "sweep.csv"), "w", encoding="utf-8") as fh:
            fh.write(",".join(keys) + "\n")
            for row in rows:
                fh.write(",".join(str(row.get(k, "")) for k in keys) + "\n")
    for combo, exc in failures:
        described = " ".join(f"{k}={v}" for k, v in combo.items())
        print(f"dsirc: clustering failed for {described}: {exc}", file=sys.stderr)
    if best is not None:
        described = " ".join(f"{k}={best[k]}" for k in best)
        print(f"best: {described}")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# Parser


def _add_common_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key = value options file (flags win)")
    for key, (_, _, text) in _OPTIONS.items():
        sub.add_argument("--" + key, help=text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsirc",
        description="Unsupervised hyperspectral image clustering.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    synth = subparsers.add_parser("synth", help="generate a synthetic labeled scene")
    synth.add_argument("--out", required=True, help="output directory")
    for field in dataclasses.fields(SynthConfig):
        flag = "endmembers" if field.name == "n_endmembers" else field.name
        synth.add_argument(
            "--" + flag.replace("_", "-"),
            dest=field.name,
            type=type(field.default),
            default=field.default,
        )
    synth.set_defaults(func=_cmd_synth)

    cluster = subparsers.add_parser("cluster", help="cluster an ENVI cube")
    cluster.add_argument("header", help="ENVI header file")
    cluster.add_argument("data", help="ENVI data file")
    cluster.add_argument("--gt", help="ground-truth CSV for scoring")
    cluster.add_argument("--out", required=True, help="output directory")
    _add_common_options(cluster)
    cluster.set_defaults(func=_cmd_cluster)

    evaluate = subparsers.add_parser("eval", help="score a label CSV against ground truth")
    evaluate.add_argument("--pred", required=True, help="predicted labels CSV")
    evaluate.add_argument("--gt", required=True, help="ground-truth labels CSV")
    evaluate.add_argument("--out", help="also write metrics JSON here")
    evaluate.set_defaults(func=_cmd_eval)

    sweep = subparsers.add_parser("sweep", help="grid-search parameters against ground truth")
    sweep.add_argument("header", help="ENVI header file")
    sweep.add_argument("data", help="ENVI data file")
    sweep.add_argument("--gt", required=True, help="ground-truth CSV")
    sweep.add_argument("--out", required=True, help="output directory")
    for key, default in _GRIDS.items():
        sweep.add_argument(f"--{key}-grid", default=default, help=f"comma-separated {key} values")
    sweep.add_argument("--seeds", default="1", help="seeds per combination")
    _add_common_options(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Failed as failed:
        stage, cause, code = failed.args
        print(f"dsirc: {stage} failed: {cause}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
