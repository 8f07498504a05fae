"""Smoke test of the benchmark itself, on 16x16 scenes (about half a minute).

Run from the root of a checkout:

    python3 perfbench/smoke.py

It runs a tiny version of every workload untraced and traced, and
checks that every metric named in BENCHMARK.json is printed with its unit
and that every wrapped stage recorded at least one span.  Exits non-zero on
the first mismatch.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
from dataclasses import replace

import run

TINY_SCENE = dict(height=16, width=16, bands=30, n_endmembers=4, blob_rows=2, blob_cols=2)


def tiny_workloads() -> dict[str, run.Workload]:
    small = dict(scene=TINY_SCENE, k_n=20, reference=None, oa_floor=0.0)
    return {
        name: replace(workload, **small)
        if workload.grid is None
        else replace(workload, **small, grid=("10,20", "10", "1,2"))
        for name, workload in run.WORKLOADS.items()
    }


def _run(name: str, trace: int, workloads) -> tuple[dict, list[str]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(
            ["--workload", name, "--seed", "3", "--seconds", "1", "--trace", str(trace)],
            workloads,
        )
    lines = out.getvalue().splitlines()
    if code != 0:
        raise SystemExit(f"{name} trace={trace}: exit {code}\n" + "\n".join(lines))
    return json.loads(lines[-1]), lines


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    workloads = tiny_workloads()
    seen_spans: set[str] = set()
    for name in workloads:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, lines = _run(name, trace, workloads)
            expected = {m["name"]: m["unit"] for m in spec[key]}
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if printed != expected:
                raise SystemExit(f"{name} trace={trace}: metrics {printed} != {expected}")
            if not (result["correct"] and result["attempted"] >= 2 and result["failed"] == 0):
                raise SystemExit(f"{name} trace={trace}: bad result {result}")
            if trace:
                spans = next(line for line in lines if line.startswith("spans "))
                seen_spans |= set(json.loads(spans.split(" ", 1)[1]))
    missing = wrapped_names() - seen_spans
    if missing:
        raise SystemExit(f"no span recorded for {sorted(missing)}")
    print(f"smoke ok: {len(seen_spans)} span names, {len(workloads)} workloads")
    return 0


def wrapped_names() -> set[str]:
    import tracer

    names = {"bench.setup", tracer.OP}
    for module_name, attr in tracer.SITES:
        fn = getattr(importlib.import_module(module_name), attr, None)
        if fn is not None:
            names.add(f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}")
    return names


if __name__ == "__main__":
    sys.exit(main())
