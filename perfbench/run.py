"""Benchmark entry point: one workload, one fresh single-threaded process, one JSON result.

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (``src/monopoles`` must exist). With
``--trace 0`` the last line of stdout holds the end-to-end metrics
``wall_s``, ``cpu_s``, ``setup_s`` and ``peak_rss_mb``; with ``--trace 1``
it holds the per-layer metrics of ``spans.py``. The line before it is a
diagnostic: the host's steal share over the run (from ``/proc/stat``) and
the raw pass times. Each run is also written to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_PROBES = 7  # fresh interpreters timed per run, after one unmeasured probe that fills the bytecode cache
DEADLINE_S = 170


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def cpu_times() -> list[int] | None:
    """The aggregate ``cpu`` line of ``/proc/stat``, or None where there is none."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return [int(x) for x in fields[1:]] if fields and fields[0] == "cpu" else None


def steal_share(before, after) -> float | None:
    """Share of all CPU time the hypervisor stole between two ``cpu_times`` readings."""
    if before is None or after is None or len(before) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])  # user nice system idle iowait irq softirq steal; guest time is inside user
    return delta[7] / total if total > 0 else 0.0


def setup_seconds(workload: str, env: dict) -> list[float]:
    """Time from starting a fresh interpreter until it has imported the workload's modules."""
    code = "".join(f"import {m}\n" for m in workloads.MODULES[workload]) + "print('ready', flush=True)\n"
    times = []
    for i in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as p:
            line = p.stdout.readline()
            elapsed = time.perf_counter() - t0
            p.stdout.read()
            if p.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError(f"import probe for {workload} failed")
        if i:
            times.append(elapsed)
    return times


def run_worker(args, env: dict, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "monopoles" / "__init__.py").is_file():
        print(f"error: no source tree at {ROOT / 'src' / 'monopoles'}; run from a checkout", file=sys.stderr)
        return 2

    started = time.perf_counter()
    stat_before = cpu_times()
    env = worker_env()
    try:
        setup = [] if args.trace else setup_seconds(args.workload, env)
        run = run_worker(args, env, DEADLINE_S - (time.perf_counter() - started))
    except (RuntimeError, subprocess.SubprocessError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    steal = steal_share(stat_before, cpu_times())

    if args.trace:
        metrics = {name: {"value": run["per_layer"][name], "unit": unit} for name, unit in spans.METRICS.items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(run["pass_wall_s"]), "unit": "s"},
            "cpu_s": {"value": statistics.median(run["pass_cpu_s"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
    diagnostics = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "steal_share": steal, "setup_probe_s": setup, "run_s": time.perf_counter() - started,
        **{k: v for k, v in run.items() if k != "per_layer"},
    }
    result = {
        "correct": bool(run["repeatable"]),
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    record = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"result": result, "diagnostics": diagnostics}, indent=1) + "\n")
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
