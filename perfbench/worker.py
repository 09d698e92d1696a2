"""One workload in one fresh process: a warm-up pass, then timed passes.

Started by ``run.py`` with the source tree on ``PYTHONPATH`` and the BLAS
and OpenMP pools at one thread. Every op's output is checked after its
timed call returns; the check is not timed. The last line of stdout is one
JSON object for ``run.py`` to turn into the benchmark's result.

    python3 perfbench/worker.py --workload census --seed 1 --seconds 20 --trace 0
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent


def run_pass(ops, tracer=None) -> dict:
    """Call every op once; time the calls, check the outputs, tally exact work."""
    gc.collect()
    wall = cpu = 0.0
    op_seconds = {}
    failed = []
    tally = Counter()
    if tracer is not None:
        tracer.install()
    try:
        for op in ops:
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                out = op.run()
            except Exception:
                out = None
                problems = [traceback.format_exc()]
            else:
                problems = None
            dw, dc = time.perf_counter() - t0, time.process_time() - c0
            wall += dw
            cpu += dc
            op_seconds[op.name] = dw
            if problems is None:
                problems = op.check(out)
                tally.update(op.tally(out))
            if problems:
                failed.append(op.name)
                print(f"FAILED {op.name}: " + "; ".join(problems)[:2000], file=sys.stderr)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {"wall_s": wall, "cpu_s": cpu, "failed": failed, "op_seconds": op_seconds, "tally": tally}


def measure(ops, seconds: float, traced: bool) -> dict:
    """Warm up, then run passes until ``seconds`` have gone by; traced runs alternate plain and traced passes."""
    warmup = run_pass(ops)
    passes, traced_passes = [], []
    figures = []
    start = time.perf_counter()
    while not passes or (traced and not traced_passes) or time.perf_counter() - start < seconds:
        if traced and len(traced_passes) < len(passes):
            tracer = spans.Tracer()
            p = run_pass(ops, tracer)
            traced_passes.append(p)
            figures.append(tracer.figures(p["op_seconds"], p["tally"]["report_bytes"], p["tally"]["samples"]))
        else:
            passes.append(run_pass(ops))
    everything = [warmup, *passes, *traced_passes]
    failed_sets = {tuple(p["failed"]) for p in everything}
    exact = {name: {f[name] for f in figures} for name in spans.EXACT}
    out = {
        "attempted": len(ops) * len(everything),
        "failed": sum(len(p["failed"]) for p in everything),
        # a deterministic program fails the same ops in every pass and does the same work
        "repeatable": len(failed_sets) == 1 and all(len(v) <= 1 for v in exact.values()),
        "failed_ops": sorted(set().union(*failed_sets)),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_cpu_s": [p["cpu_s"] for p in passes],
        "warmup_wall_s": warmup["wall_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if traced:
        per_layer = {name: statistics.median(f[name] for f in figures) for name in spans.METRICS if name in figures[0]}
        per_layer["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in traced_passes) - statistics.median(out["pass_wall_s"])
        )
        out["per_layer"] = per_layer
        out["traced_pass_wall_s"] = [p["wall_s"] for p in traced_passes]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    (HERE / ".work").mkdir(exist_ok=True)
    # a relative path of fixed length, so the reports that echo it keep their size
    workdir = Path(os.path.relpath(tempfile.mkdtemp(prefix="run", dir=HERE / ".work")))
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        result = measure(ops, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
