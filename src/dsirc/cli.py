"""Command-line interface: synthesize, cluster, evaluate, sweep.

Exit codes: 0 on success, 1 when an algorithm fails on valid inputs
(e.g. a disconnected KNN graph), 2 on usage, configuration, or I/O errors.
Options may also be supplied via ``--config FILE`` holding flat
``key = value`` lines; explicit command-line flags win over the file.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import statistics
import sys

import numpy as np

from .clustering import ClusterConfig, dsirc, dvic, kmeans, spectral_clustering
from .core import (
    EnviFormatError,
    LabelMap,
    PixelCloud,
    cube_to_cloud,
    load_envi,
    read_labels_csv,
    write_envi,
    write_label_pgm,
    write_label_ppm,
    write_labels_csv,
)
from .evaluation import align_labels, cohens_kappa, overall_accuracy
from .sar import IciConfig
from .synth import SynthConfig, synth_hsi

__all__ = ["main"]

_ALGORITHMS = ("dsirc", "dvic", "kmeans", "sc")

# Option keys that set a ClusterConfig field of the same meaning.
_CLUSTER_FIELDS = {
    "kn": "k_n",
    "sigma0": "sigma0",
    "t": "t",
    "tau": "tau",
    "lsar": "lengths",
    "restarts": "restarts",
    "p": "n_endmembers",
    "eigenpairs": "n_eigenpairs",
}

_FIELD_DEFAULTS = {field.name: field.default for field in dataclasses.fields(ClusterConfig)}


def _option_text(value) -> str:
    """A config default as option text; ``None`` ("derive from the data")
    reads ``auto``."""
    if value is None:
        return "auto"
    if isinstance(value, tuple):
        return ",".join(str(part) for part in value)
    return str(value)


# Keys accepted both as flags and in a --config file, with their defaults;
# the pipeline knobs take theirs from ClusterConfig.
_DEFAULTS: dict[str, str] = {
    "algorithm": "dsirc",
    **{key: _option_text(_FIELD_DEFAULTS[name]) for key, name in _CLUSTER_FIELDS.items()},
    "seed": "0",
    "normalize": "none",
}
_CONFIG_KEYS = frozenset(_DEFAULTS) | {"k"}


def _fail(stage: str, message, code: int) -> int:
    print(f"dsirc: {stage} failed: {message}", file=sys.stderr)
    return code


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
            value = value.strip()
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = value
    return values


def _resolve_options(args: argparse.Namespace) -> dict[str, str]:
    """Merge defaults, config file, and explicit flags (flags win)."""
    merged = dict(_DEFAULTS)
    if getattr(args, "config", None):
        merged.update(_read_config_file(args.config))
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = str(flag)
    return merged


def _parse_lengths(text: str) -> tuple[int, ...]:
    try:
        lengths = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad length list {text!r}") from exc
    if not lengths:
        raise ValueError("length list is empty")
    return lengths


def _parse_options(options: dict[str, str]) -> dict[str, object]:
    """Typed view of the merged string options; raises ValueError on junk."""
    parsed: dict[str, object] = {}
    algorithm = options["algorithm"].lower()
    if algorithm not in _ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; choose from {_ALGORITHMS}")
    parsed["algorithm"] = algorithm
    if "k" not in options:
        raise ValueError("number of clusters is required (--k or config key 'k')")
    parsed["k"] = int(options["k"])
    parsed["kn"] = int(options["kn"])
    parsed["sigma0"] = None if options["sigma0"] == "auto" else float(options["sigma0"])
    parsed["t"] = float(options["t"])
    parsed["tau"] = float(options["tau"])
    parsed["lsar"] = _parse_lengths(options["lsar"])
    parsed["restarts"] = int(options["restarts"])
    parsed["seed"] = int(options["seed"])
    parsed["p"] = None if options["p"] == "auto" else int(options["p"])
    parsed["eigenpairs"] = (
        None if options["eigenpairs"] == "auto" else int(options["eigenpairs"])
    )
    normalize = options["normalize"].lower()
    if normalize not in ("none", "l2"):
        raise ValueError(f"unknown normalization {normalize!r}; choose none or l2")
    parsed["normalize"] = normalize
    _check_pipeline_options(parsed)
    return parsed


def _cluster_config(opts: dict[str, object], seed: int) -> ClusterConfig:
    return ClusterConfig(
        n_clusters=opts["k"],
        seed=seed,
        **{name: opts[key] for key, name in _CLUSTER_FIELDS.items()},
    )


def _check_pipeline_options(opts: dict[str, object]) -> None:
    """Raise ValueError when the clustering options are invalid."""
    _cluster_config(opts, opts["seed"])
    IciConfig(tau=opts["tau"], lengths=opts["lsar"])


def _normalized(cloud: PixelCloud, mode: str) -> PixelCloud:
    if mode == "none":
        return cloud
    norms = np.linalg.norm(cloud.spectra, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return PixelCloud(cloud.spectra / norms, cloud.coords)


def _run_algorithm(cloud: PixelCloud, opts: dict[str, object], seed: int):
    algorithm = opts["algorithm"]
    if algorithm in ("dsirc", "dvic"):
        config = _cluster_config(opts, seed)
        return dsirc(cloud, config) if algorithm == "dsirc" else dvic(cloud, config)
    if algorithm == "kmeans":
        return kmeans(cloud, opts["k"], restarts=opts["restarts"], rng=seed)
    return spectral_clustering(
        cloud, opts["k"], opts["kn"], restarts=opts["restarts"], rng=seed
    )


def _write_params(path: str, opts: dict[str, object]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key in sorted(opts):
            fh.write(f"{key} = {opts[key]}\n")


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_synth(args: argparse.Namespace) -> int:
    try:
        config = SynthConfig(
            **{field.name: getattr(args, field.name) for field in dataclasses.fields(SynthConfig)}
        )
    except ValueError as exc:
        return _fail("configuration", exc, 2)
    try:
        scene = synth_hsi(config)
    except RuntimeError as exc:
        return _fail("generation", exc, 1)
    try:
        os.makedirs(args.out, exist_ok=True)
        write_envi(
            scene.cube,
            os.path.join(args.out, "cube.hdr"),
            os.path.join(args.out, "cube.raw"),
        )
        cloud = cube_to_cloud(scene.cube)
        write_labels_csv(os.path.join(args.out, "gt.csv"), scene.gt, cloud.coords)
        write_label_ppm(os.path.join(args.out, "gt.ppm"), scene.gt, config.height, config.width)
        np.savetxt(os.path.join(args.out, "endmembers.csv"), scene.endmembers, delimiter=",")
        np.savetxt(os.path.join(args.out, "abundances.csv"), scene.abundances, delimiter=",")
    except OSError as exc:
        return _fail("output", exc, 2)
    print(
        f"wrote {config.height}x{config.width}x{config.bands} scene "
        f"({config.n_endmembers} endmembers, noise {config.noise}) to {args.out}"
    )
    return 0


def _load_inputs(args, opts) -> tuple[PixelCloud, tuple[int, int], LabelMap | None]:
    cube = load_envi(args.header, args.data)
    cloud = _normalized(cube_to_cloud(cube), opts["normalize"])
    gt = None
    if getattr(args, "gt", None):
        gt, _ = read_labels_csv(args.gt)
        if gt.n != cloud.n:
            raise ValueError(
                f"ground truth has {gt.n} pixels but the cube has {cloud.n}"
            )
    return cloud, (cube.height, cube.width), gt


def _cmd_cluster(args: argparse.Namespace) -> int:
    try:
        opts = _parse_options(_resolve_options(args))
    except (OSError, ValueError) as exc:
        return _fail("configuration", exc, 2)
    try:
        cloud, (height, width), gt = _load_inputs(args, opts)
    except (OSError, ValueError) as exc:
        return _fail("input", exc, 2)
    try:
        result = _run_algorithm(cloud, opts, opts["seed"])
    except Exception as exc:  # algorithm failure on valid inputs
        return _fail("clustering", exc, 1)
    labels = result.labels
    metrics: dict[str, float] | None = None
    if gt is not None:
        labels = align_labels(labels, gt)
        metrics = {
            "oa": overall_accuracy(labels, gt),
            "kappa": cohens_kappa(labels, gt),
        }
    try:
        os.makedirs(args.out, exist_ok=True)
        _write_params(os.path.join(args.out, "params.txt"), opts)
        write_labels_csv(os.path.join(args.out, "labels.csv"), labels, cloud.coords)
        write_label_ppm(os.path.join(args.out, "labels.ppm"), labels, height, width)
        write_label_pgm(os.path.join(args.out, "labels.pgm"), labels, height, width)
        if metrics is not None:
            with open(os.path.join(args.out, "metrics.json"), "w", encoding="utf-8") as fh:
                json.dump(metrics, fh, indent=2)
                fh.write("\n")
    except OSError as exc:
        return _fail("output", exc, 2)
    summary = f"{opts['algorithm']} k={opts['k']} seed={opts['seed']}"
    if metrics is not None:
        summary += f" oa={metrics['oa']:.4f} kappa={metrics['kappa']:.4f}"
    print(summary)
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    try:
        pred, _ = read_labels_csv(args.pred)
        gt, _ = read_labels_csv(args.gt)
        if pred.n != gt.n:
            raise ValueError(f"prediction has {pred.n} pixels, ground truth {gt.n}")
    except (OSError, ValueError) as exc:
        return _fail("input", exc, 2)
    try:
        aligned = align_labels(pred, gt)
        metrics = {
            "oa": overall_accuracy(aligned, gt),
            "kappa": cohens_kappa(aligned, gt),
        }
    except ValueError as exc:
        return _fail("evaluation", exc, 1)
    text = json.dumps(metrics, indent=2)
    print(text)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            return _fail("output", exc, 2)
    return 0


def _parse_grid(text: str, cast) -> list:
    values = [cast(part) for part in text.split(",") if part.strip()]
    if not values:
        raise ValueError(f"empty grid {text!r}")
    return values


def _sweep_grid(algorithm: str, kn_grid, t_grid, tau_grid) -> list[dict[str, object]]:
    """Parameter combinations that actually affect the given algorithm."""
    if algorithm == "kmeans":
        return [{}]
    if algorithm == "sc":
        return [{"kn": kn} for kn in kn_grid]
    if algorithm == "dvic":
        return [{"kn": kn, "t": t} for kn, t in itertools.product(kn_grid, t_grid)]
    return [
        {"kn": kn, "t": t, "tau": tau}
        for kn, t, tau in itertools.product(kn_grid, t_grid, tau_grid)
    ]


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        opts = _parse_options(_resolve_options(args))
        kn_grid = _parse_grid(args.kn_grid, int)
        t_grid = _parse_grid(args.t_grid, float)
        tau_grid = _parse_grid(args.tau_grid, float)
        if args.seeds < 1:
            raise ValueError("--seeds must be at least 1")
        combos = _sweep_grid(opts["algorithm"], kn_grid, t_grid, tau_grid)
        for combo in combos:
            _check_pipeline_options({**opts, **combo})
    except (OSError, ValueError) as exc:
        return _fail("configuration", exc, 2)
    try:
        cloud, _, gt = _load_inputs(args, opts)
        if gt is None:
            raise ValueError("sweep requires --gt to score combinations")
    except (OSError, ValueError) as exc:
        return _fail("input", exc, 2)
    rows: list[dict[str, object]] = []
    best: dict[str, object] | None = None
    for combo in combos:
        run_opts = dict(opts)
        run_opts.update(combo)
        oas = []
        kappas = []
        try:
            for offset in range(args.seeds):
                result = _run_algorithm(cloud, run_opts, opts["seed"] + offset)
                aligned = align_labels(result.labels, gt)
                oas.append(overall_accuracy(aligned, gt))
                kappas.append(cohens_kappa(aligned, gt))
        except Exception as exc:
            return _fail("clustering", exc, 1)
        row: dict[str, object] = dict(combo)
        row["oa_median"] = statistics.median(oas)
        row["kappa_median"] = statistics.median(kappas)
        rows.append(row)
        if best is None or row["oa_median"] > best["oa_median"]:
            best = row
    try:
        os.makedirs(args.out, exist_ok=True)
        keys = ["kn", "t", "tau", "oa_median", "kappa_median"]
        with open(os.path.join(args.out, "sweep.csv"), "w", encoding="utf-8") as fh:
            fh.write(",".join(keys) + "\n")
            for row in rows:
                fh.write(",".join(str(row.get(k, "")) for k in keys) + "\n")
    except OSError as exc:
        return _fail("output", exc, 2)
    assert best is not None
    described = " ".join(f"{k}={best[k]}" for k in best)
    print(f"best: {described}")
    return 0


# ---------------------------------------------------------------------------
# Parser


def _add_common_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key = value options file (flags win)")
    sub.add_argument("--algorithm", choices=_ALGORITHMS, help="clustering algorithm")
    sub.add_argument("--k", type=int, help="number of clusters")
    sub.add_argument("--kn", type=int, help="nearest-neighbor count for graph and density")
    sub.add_argument("--sigma0", help="KDE bandwidth, or 'auto'")
    sub.add_argument("--t", type=float, help="diffusion time")
    sub.add_argument("--tau", type=float, help="confidence-interval width multiplier")
    sub.add_argument("--lsar", help="comma-separated candidate ray lengths")
    sub.add_argument("--restarts", type=int, help="random restarts for volume ascent / k-means")
    sub.add_argument("--seed", type=int, help="random seed")
    sub.add_argument("--p", help="endmember count, or 'auto'")
    sub.add_argument("--eigenpairs", help="retained eigenpairs, or 'auto'")
    sub.add_argument("--normalize", choices=("none", "l2"), help="spectrum normalization")


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
    sweep.add_argument("--kn-grid", default="20,50,100,200")
    sweep.add_argument("--t-grid", default="10,30,100")
    sweep.add_argument("--tau-grid", default="1,2,3")
    sweep.add_argument("--seeds", type=int, default=1, help="seeds per combination")
    _add_common_options(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
