"""In-memory span tracer around dsirc's stage-level functions.

A wrapper replaces a function in the module namespace its caller looks it
up in (replacing the definition in its home module would not reach names
that other modules already imported).  Each call records one span with its
parent, so a layer's self time excludes its child spans.  Only stage-level
functions are wrapped, never per-pixel ones such as ``nnls`` or
``reconstruct_pixel``, so the bookkeeping stays small next to the work.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from dataclasses import dataclass, field


# (module whose global is replaced, function name).  A site whose function
# no longer exists is skipped, so its metrics read 0 calls.
SITES = (
    ("dsirc.clustering", "unmix"),
    ("dsirc.clustering", "purity"),
    ("dsirc.clustering", "auto_sigma0"),
    ("dsirc.clustering", "kde_density"),
    ("dsirc.clustering", "zeta"),
    ("dsirc.clustering", "sar"),
    ("dsirc.clustering", "knn_indices"),
    ("dsirc.clustering", "knn_graph"),
    ("dsirc.clustering", "diffusion_system"),
    ("dsirc.clustering", "dt_values"),
    ("dsirc.clustering", "select_modes"),
    ("dsirc.clustering", "propagate_labels"),
    ("dsirc.diffusion", "knn_indices"),
    ("dsirc.unmixing", "hysime"),
    ("dsirc.unmixing", "avmax"),
    ("dsirc.unmixing", "abundances"),
    ("dsirc.sar", "first_pc"),
    ("dsirc.core", "load_envi"),
    ("dsirc.evaluation", "align_labels"),
    ("dsirc.evaluation", "overall_accuracy"),
    ("dsirc.evaluation", "cohens_kappa"),
    ("dsirc.cli", "dsirc"),
    ("dsirc.cli", "load_envi"),
    ("dsirc.cli", "align_labels"),
    ("dsirc.cli", "overall_accuracy"),
    ("dsirc.cli", "cohens_kappa"),
)

# Span name of the benchmark's own operation span.
OP = "bench.op"


def _rows_squared(args) -> int:
    first = args[0]
    n = first.n if hasattr(first, "n") else first.shape[0]
    return int(n) ** 2


# Pairs of points a quadratic stage compares: n^2 per call, computed.
_WORK = {
    "diffusion.knn_indices": _rows_squared,
    "clustering.dt_values": _rows_squared,
    "clustering.propagate_labels": _rows_squared,
}


def _graph_facts(graph) -> dict:
    indptr = graph.adjacency.indptr
    degrees = indptr[1:] - indptr[:-1]
    return {
        "diffusion.graph_nnz": int(graph.adjacency.nnz),
        "diffusion.degree_min": int(degrees.min()),
        "diffusion.degree_max": int(degrees.max()),
    }


def _system_facts(system) -> dict:
    values = system.eigenvalues
    gap = 1.0 - abs(float(values[1])) if values.size > 1 else None
    return {"diffusion.lambda_gap": gap}


# Fitted quantities read from a stage's return value.
_FACTS = {
    "unmixing.unmix": lambda model: {"unmixing.p": int(model.p)},
    "clustering.auto_sigma0": lambda s: {"clustering.sigma0": float(s)},
    "diffusion.knn_graph": _graph_facts,
    "diffusion.diffusion_system": _system_facts,
    "clustering.select_modes": lambda modes: {"clustering.modes": [int(m) for m in modes]},
}


@dataclass
class Span:
    name: str
    site: str
    parent: int
    start: float = 0.0
    end: float = 0.0
    work: int = 0
    cost: float = 0.0
    facts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while installed; ``uninstall`` restores every site."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr in SITES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, module_name.rsplit(".", 1)[-1]))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _open(self, name: str, site: str) -> Span:
        span = Span(name, site, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _wrap(self, fn, site: str):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        work = _WORK.get(name)
        facts = _FACTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            span = self._open(name, site)
            if work is not None:
                span.work = work(args)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if facts is not None:
                span.facts = facts(result)
            span.cost = (span.start - entered) + (time.perf_counter() - span.end)
            return result

        return traced

    def run(self, name: str, fn, *args):
        """Call ``fn`` under a span of the benchmark's own."""
        span = self._open(name, "bench")
        span.start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()


def _ancestors(spans: list[Span], index: int):
    parent = spans[index].parent
    while parent >= 0:
        yield spans[parent]
        parent = spans[parent].parent


def _select(spans: list[Span], names) -> list[int]:
    return [i for i, s in enumerate(spans) if s.name in names]


def _busy(spans: list[Span], names) -> float:
    """Wall time inside any of ``names``, counting nested calls once."""
    return sum(
        spans[i].seconds
        for i in _select(spans, names)
        if not any(a.name in names for a in _ancestors(spans, i))
    )


def _self(spans: list[Span], names) -> float:
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.seconds
    return sum(spans[i].seconds - child[i] for i in _select(spans, names))


def _calls(spans: list[Span], names, site: str | None = None) -> int:
    return sum(1 for s in spans if s.name in names and site in (None, s.site))


def _work(spans: list[Span], names) -> int:
    return sum(s.work for s in spans if s.name in names)


KNN = {"diffusion.knn_indices"}
SCAN = {"clustering.dt_values", "clustering.propagate_labels"}
PIPELINES = {"clustering.dsirc", "clustering.dvic"}
SCORE = {"evaluation.align_labels", "evaluation.overall_accuracy", "evaluation.cohens_kappa"}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures of one traced set-up plus operation, in s or counts."""
    op = _select(spans, {OP})[0]
    op_children = sum(s.seconds for s in spans if s.parent == op)
    return {
        "diffusion.knn_s": _busy(spans, KNN),
        "diffusion.knn_calls": _calls(spans, KNN),
        "diffusion.knn_pairs": _work(spans, KNN),
        "clustering.scan_s": _busy(spans, SCAN),
        "clustering.scan_calls": _calls(spans, SCAN),
        "clustering.scan_pairs": _work(spans, SCAN),
        "diffusion.graph_s": _self(spans, {"diffusion.knn_graph"}),
        "diffusion.eigs_s": _busy(spans, {"diffusion.diffusion_system"}),
        "diffusion.eigs_calls": _calls(spans, {"diffusion.diffusion_system"}),
        "unmixing.avmax_s": _busy(spans, {"unmixing.avmax"}),
        "unmixing.abundances_s": _busy(spans, {"unmixing.abundances"}),
        "unmixing.hysime_s": _busy(spans, {"unmixing.hysime"}),
        "unmixing.unmix_calls": _calls(spans, {"unmixing.unmix"}),
        "sar.sar_s": _self(spans, {"sar.sar"}),
        "sar.calls": _calls(spans, {"sar.sar"}),
        "core.first_pc_s": _busy(spans, {"core.first_pc"}),
        "cli.pipeline_runs": _calls(spans, PIPELINES, site="cli"),
        "clustering.density_s": _self(
            spans, {"clustering.auto_sigma0", "clustering.kde_density"}
        ),
        "core.load_envi_s": _busy(spans, {"core.load_envi"}),
        "evaluation.score_s": _busy(spans, SCORE),
        "clustering.untraced_s": spans[op].seconds - op_children,
        "trace.cost_s": sum(s.cost for s in spans),
    }


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    """Median of each figure over runs; counts stay whole numbers."""
    medians = {}
    for key, first in runs[0].items():
        pick = statistics.median_low if isinstance(first, int) else statistics.median
        medians[key] = pick(run[key] for run in runs)
    return medians


def fitted_record(spans: list[Span]) -> dict[str, list]:
    """Fitted quantities in call order, from the wrapped stages' results."""
    record: dict[str, list] = {}
    for span in spans:
        for key, value in span.facts.items():
            record.setdefault(key, []).append(value)
    return record


def span_summary(spans: list[Span]) -> dict[str, dict]:
    summary: dict[str, dict] = {}
    for span in spans:
        entry = summary.setdefault(span.name, {"calls": 0, "seconds": 0.0})
        entry["calls"] += 1
        entry["seconds"] += span.seconds
    return summary
