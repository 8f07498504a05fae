"""dsirc benchmark: end-to-end and per-layer figures on fixed synthetic scenes.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload dvic-64x64x30 --seed 0 --seconds 50 --trace 0

Each workload stresses a different layer of the pipeline:

* ``dvic-64x64x30``: the O(n^2) layers (three KNN searches, the
  nearest-predecessor scans ``dt_values`` and ``propagate_labels``); SaR
  never runs, so SaR work must leave it unchanged.
* ``sweep-dsirc-40x40x30``: an in-process ``dsirc sweep`` over 8 parameter
  combinations that share unmixing, SaR (per tau), KNN (per kn) and
  eigensystem (per kn, tau) inputs: the only workload where reuse between
  runs can show.
* ``dsirc-48x48x200-p16``: an Indian-Pines-shaped scene (200 bands, 16
  endmembers) where AVMAX, NNLS abundances and SaR take most of the time.
  ``p`` is pinned to 16 because HySime's estimate on this scene makes AVMAX
  alone take minutes.  It is for traces by hand and is not in
  BENCHMARK.json: its determinant and per-pixel Python work slows by up to
  1.4x when other load shares the machine, so its ``run_s`` spread between
  runs (about 29% on a shared 2-core VM) exceeds any allowed bound.

The workload seed is the scene's ``SynthConfig.seed``; clustering always
uses seed 0.  With ``--trace 0`` the run times the set-up (``setup_s``: the
median of three imports of dsirc, one in this process and two in fresh
interpreters, plus the median of three scene set-ups), then repeats the
operation untraced, at least twice and then while the next one is expected
to end within ``--seconds``, and reports medians.  With ``--trace 1`` it
alternates an untraced operation with a traced set-up plus operation and
reports per-layer figures; ``trace.overhead_s`` is the traced minus the
untraced median ``run_s``, and ``trace.cost_s`` the wrappers' own measured
bookkeeping.  Every operation's output is checked; a failed check or an
exception counts in ``failed``.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE_SEED = 0
MIN_OPS = 2
SETUP_REPEATS = 3

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import dsirc; print(time.perf_counter() - t)"
)


@dataclass(frozen=True)
class Workload:
    """A scene shape plus the operation run on it.

    The operation is one ``pipeline`` (``dsirc``/``dvic``) library call, or,
    when ``grid`` (kn, t, tau lists) is set, one in-process ``dsirc sweep``
    of that pipeline.
    ``reference`` is the label (or ``sweep.csv``) digest for
    ``REFERENCE_SEED``, recorded at the commit that added the benchmark, and
    ``oa_floor`` about three quarters of the lowest OA (best sweep OA) that
    commit gave on seeds 0-9.
    """

    scene: dict
    pipeline: str
    k: int
    k_n: int = 100
    n_endmembers: int | None = None
    grid: tuple[str, str, str] | None = None
    reference: str | None = None
    oa_floor: float = 0.0


WORKLOADS = {
    "dvic-64x64x30": Workload(
        scene=dict(height=64, width=64, bands=30, n_endmembers=4, blob_rows=2, blob_cols=2),
        pipeline="dvic",
        k=4,
        reference="1522a3e5d0ffdcf4",
        oa_floor=0.75,
    ),
    "dsirc-48x48x200-p16": Workload(
        scene=dict(height=48, width=48, bands=200, n_endmembers=16, blob_rows=4, blob_cols=4),
        pipeline="dsirc",
        k=16,
        n_endmembers=16,
        reference="81ea4b0310011722",
        oa_floor=0.55,
    ),
    "sweep-dsirc-40x40x30": Workload(
        scene=dict(height=40, width=40, bands=30, n_endmembers=4, blob_rows=2, blob_cols=2),
        pipeline="dsirc",
        k=4,
        grid=("50,100", "10,30", "1,2"),
        reference="ce46f184eec5d28f",
        oa_floor=0.75,
    ),
}

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "oa": "fraction",
    "kappa": "fraction",
}


def pin_blas_threads() -> None:
    """Run BLAS on one thread; call before numpy loads.

    The pipeline is mostly single-threaded Python and numpy: on a 2-core
    machine it ran about 10% faster with one OpenBLAS thread than with two,
    and one thread is less exposed to other load on the machine.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = "1"


def _blas_threads() -> dict[str, int]:
    """Thread count of each OpenBLAS that numpy and scipy bundle."""
    import ctypes

    import numpy
    import scipy

    found: dict[str, int] = {}
    for package in (numpy, scipy):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for lib in sorted(libs.glob("libscipy_openblas*.so")):
            handle = ctypes.CDLL(str(lib))
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
                getter = getattr(handle, symbol, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    found[f"{package.__name__}:{lib.name}"] = int(getter())
                    break
    return found


def run_header(args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


# ---------------------------------------------------------------------------
# Set-up and operations


@dataclass
class Scene:
    cloud: object
    gt: object
    header: Path
    data: Path
    gt_csv: Path


def set_up(workload: Workload, seed: int, workdir: Path) -> Scene:
    """Synthesise the scene, write it as ENVI and read it back."""
    from dsirc import core, synth

    scene = synth.synth_hsi(synth.SynthConfig(**workload.scene, seed=seed))
    header, data, gt_csv = workdir / "cube.hdr", workdir / "cube.raw", workdir / "gt.csv"
    core.write_envi(scene.cube, str(header), str(data))
    cloud = core.cube_to_cloud(core.load_envi(str(header), str(data)))
    if workload.grid:
        core.write_labels_csv(str(gt_csv), scene.gt, cloud.coords)
    return Scene(cloud, scene.gt, header, data, gt_csv)


@dataclass
class Outcome:
    """What one operation produced, for checking and reporting."""

    seconds: float
    oa: float
    kappa: float
    artefact: bytes
    problems: list[str] = field(default_factory=list)


def _cluster_op(workload: Workload, scene: Scene) -> Outcome:
    import numpy as np
    from dsirc import clustering, evaluation

    config = clustering.ClusterConfig(
        n_clusters=workload.k, k_n=workload.k_n, n_endmembers=workload.n_endmembers, seed=0
    )
    pipeline = getattr(clustering, workload.pipeline)
    start = time.perf_counter()
    result = pipeline(scene.cloud, config)
    aligned = evaluation.align_labels(result.labels, scene.gt)
    oa = evaluation.overall_accuracy(aligned, scene.gt)
    kappa = evaluation.cohens_kappa(aligned, scene.gt)
    seconds = time.perf_counter() - start

    labels = np.asarray(result.labels.labels)
    problems = []
    if labels.shape != (scene.cloud.n,):
        problems.append(f"labels have shape {labels.shape}, expected ({scene.cloud.n},)")
    elif labels.min() < 1 or labels.max() > workload.k:
        problems.append(f"labels span {labels.min()}..{labels.max()}, expected 1..{workload.k}")
    elif np.unique(labels).size != workload.k:
        problems.append(f"{np.unique(labels).size} clusters, expected {workload.k}")
    artefact = labels.astype("<i8").tobytes()
    return Outcome(seconds, oa, kappa, artefact, problems)


SWEEP_KEYS = ["kn", "t", "tau", "oa_median", "kappa_median"]


def _sweep_op(workload: Workload, scene: Scene, out: Path) -> Outcome:
    from dsirc import cli

    kn_grid, t_grid, tau_grid = workload.grid
    argv = [
        "sweep", str(scene.header), str(scene.data), "--gt", str(scene.gt_csv),
        "--out", str(out), "--algorithm", workload.pipeline,
        "--k", str(workload.k), "--seed", "0",
        "--kn-grid", kn_grid, "--t-grid", t_grid, "--tau-grid", tau_grid,
    ]
    printed = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(printed):
        code = cli.main(argv)
    seconds = time.perf_counter() - start

    if code != 0:
        return Outcome(seconds, float("nan"), float("nan"), b"", [f"sweep exited {code}"])
    artefact = (out / "sweep.csv").read_bytes()
    lines = artefact.decode().splitlines()
    rows = [dict(zip(SWEEP_KEYS, line.split(","))) for line in lines[1:]]
    expected = len(kn_grid.split(",")) * len(t_grid.split(",")) * len(tau_grid.split(","))
    problems = []
    if lines[:1] != [",".join(SWEEP_KEYS)] or len(rows) != expected:
        problems.append(f"sweep.csv has {len(rows)} rows, expected {expected}")
        return Outcome(seconds, float("nan"), float("nan"), artefact, problems)
    oas = [float(r["oa_median"]) for r in rows]
    kappas = [float(r["kappa_median"]) for r in rows]
    if not all(0.0 <= v <= 1.0 for v in oas) or not all(-1.0 <= v <= 1.0 for v in kappas):
        problems.append("sweep.csv scores out of range")
    return Outcome(seconds, max(oas), max(kappas), artefact, problems)


def operate(workload: Workload, scene: Scene, out: Path) -> Outcome:
    if workload.grid:
        return _sweep_op(workload, scene, out)
    return _cluster_op(workload, scene)


def digest(artefact: bytes) -> str:
    return hashlib.sha256(artefact).hexdigest()[:16]


class Checker:
    """Checks each operation against the run's first output and the reference."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.first: bytes | None = None
        self.attempted = 0
        self.failed = 0

    def record(self, outcome: Outcome | None) -> None:
        self.attempted += 1
        problems = [] if outcome is not None else ["operation raised"]
        if outcome is not None:
            problems += outcome.problems
            if self.first is None:
                self.first = outcome.artefact
            elif outcome.artefact != self.first:
                problems.append("output differs from the run's first operation")
            if self.seed == REFERENCE_SEED and self.workload.reference is not None:
                if digest(outcome.artefact) != self.workload.reference:
                    problems.append(
                        f"digest {digest(outcome.artefact)} != reference {self.workload.reference}"
                    )
            if not outcome.oa >= self.workload.oa_floor:
                problems.append(f"oa {outcome.oa} below floor {self.workload.oa_floor}")
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        self.failed += bool(problems)


def _attempt(fn, *args):
    try:
        return fn(*args)
    except Exception:  # an operation that raises is counted, not fatal
        traceback.print_exc()
        return None


# ---------------------------------------------------------------------------
# Measurement


def _import_seconds() -> float:
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _next_fits(start: float, done: int, seconds: float) -> bool:
    """Whether one more unit of work, at the mean pace so far, ends within ``seconds``."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done <= seconds


def measure(workload: Workload, args, workdir: Path) -> tuple[dict, Checker]:
    """Untraced run: set-up time, then operations for ``args.seconds``."""
    imports = [args.import_s] + [_import_seconds() for _ in range(SETUP_REPEATS - 1)]
    scene_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        scene = set_up(workload, args.seed, workdir)
        scene_times.append(time.perf_counter() - start)

    checker = Checker(workload, args.seed)
    outcomes: list[Outcome] = []
    start = time.perf_counter()
    while checker.attempted < MIN_OPS or _next_fits(start, checker.attempted, args.seconds):
        outcome = _attempt(operate, workload, scene, workdir / f"op{checker.attempted}")
        checker.record(outcome)
        if outcome is not None:
            outcomes.append(outcome)
    if not outcomes:
        return {}, checker
    print("ops " + json.dumps([o.seconds for o in outcomes]))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "run_s": statistics.median(o.seconds for o in outcomes),
        "setup_s": statistics.median(imports) + statistics.median(scene_times),
        "peak_rss_mb": peak_kib / 1024.0,
        "oa": statistics.median(o.oa for o in outcomes),
        "kappa": statistics.median(o.kappa for o in outcomes),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}, checker


def measure_traced(workload: Workload, args, workdir: Path) -> tuple[dict, Checker]:
    """Traced run: alternate an untraced operation with a traced set-up + operation."""
    import tracer

    scene = set_up(workload, args.seed, workdir)
    checker = Checker(workload, args.seed)
    untraced: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []
    spans: list[tracer.Span] = []
    start = time.perf_counter()
    while not checker.attempted or _next_fits(start, checker.attempted // 2, args.seconds):
        outcome = _attempt(operate, workload, scene, workdir / f"op{checker.attempted}")
        checker.record(outcome)
        if outcome is not None:
            untraced.append(outcome.seconds)
        trace = tracer.Tracer()
        trace.install()
        try:
            traced_dir = workdir / f"traced{checker.attempted}"
            traced_dir.mkdir()
            outcome = _attempt(trace.run, "bench.setup", set_up, workload, args.seed, traced_dir)
            if outcome is not None:
                outcome = _attempt(trace.run, tracer.OP, operate, workload, outcome, traced_dir / "op")
        finally:
            trace.uninstall()
        checker.record(outcome)
        if outcome is not None:
            traced.append(outcome.seconds)
            layers.append(tracer.layer_metrics(trace.spans))
            spans = spans or trace.spans
    if not layers or not untraced:
        return {}, checker
    values = tracer.median_metrics(layers)
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    print("spans " + json.dumps(tracer.span_summary(spans), sort_keys=True))
    print("fitted " + json.dumps(tracer.fitted_record(spans), sort_keys=True))
    units = {k: "s" if k.endswith("_s") else "count" for k in values}
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}, checker


def main(argv=None, workloads=None) -> int:
    workloads = WORKLOADS if workloads is None else workloads
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "dsirc" / "__init__.py").is_file():
        print(f"perfbench: no dsirc sources under {SRC}", file=sys.stderr)
        return 2

    pin_blas_threads()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    dsirc = importlib.import_module("dsirc")
    args.import_s = time.perf_counter() - started
    if Path(dsirc.__file__).resolve().parent != SRC / "dsirc":
        print(f"perfbench: imported dsirc from {dsirc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    print("header " + json.dumps(run_header(args), sort_keys=True))

    workload = workloads[args.workload]
    workspace = ROOT / ".perfbench_work"
    workspace.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workspace) as tmp:
        run = measure_traced if args.trace else measure
        metrics, checker = run(workload, args, Path(tmp))
    with contextlib.suppress(OSError):
        workspace.rmdir()
    if not metrics:
        print("perfbench: no operation completed", file=sys.stderr)
        return 1
    correct = checker.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
