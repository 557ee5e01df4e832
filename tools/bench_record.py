"""Record the benchmark's result lines as ``BENCH_<N>.json``, one point of the trajectory.

    python3 tools/bench_record.py --pr N [--small]

Runs ``perfbench/run.py`` from this checkout for each workload that
``BENCHMARK.json`` declares, on each of ``SEEDS``, at ``--trace 0`` (the
end-to-end metrics) and at ``--trace 1`` (the per-layer metrics), each run a
fresh process of the benchmark's own ``run_seconds``.  Then it runs each
workload at ``--trace 0`` once more, on seed 1, with glibc's
``MALLOC_MMAP_THRESHOLD_`` fixed at ``MMAP_THRESHOLD``, and keeps only that
run's ``peak_rss_mb``.  By default the threshold adapts to the allocations a
process has made, so ``peak_rss_mb`` moves with the checkout path, the
launcher and the source text; with it fixed, the peak follows the program.
The fixed threshold makes batch-10x100k's ``job_s`` two to three times
longer, so its times are not kept.  Every other run takes the variable out
of its environment.

The record holds, for each run, the workload, seed, trace level and
threshold, the process's wall time, the result line's ``metrics`` as
printed, ``correct``, ``failed`` and ``attempted``; and the machine: Python, numpy, ``nproc``,
``OPENBLAS_CORETYPE`` if set, the git commit and whether tracked files
differ from it.  It is written to ``BENCH_<N>.json`` at the root of the
checkout.  With ``--small`` every run takes perfbench's tiny sizes, and the
record is printed instead: a small record is no point on the trajectory.
The exit code is 1 if a run exits non-zero, prints no result line or
reports an output that is not correct; else 0.  Running ``run.py`` leaves
its scratch files in ``perfbench/out/``, which git ignores.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# One fixed list, so that every point of the trajectory runs the same plan.
SEEDS = (1, 2, 3)
MMAP_THRESHOLD = 131072
TIMEOUT_S = 1800


def run(workload: str, seed: int, seconds: float, trace: int, small: bool,
        threshold: int | None) -> dict:
    """One ``perfbench/run.py`` process: its result line, or ``error`` in its place."""
    env = dict(os.environ)
    env.pop("MALLOC_MMAP_THRESHOLD_", None)
    if threshold is not None:
        env["MALLOC_MMAP_THRESHOLD_"] = str(threshold)
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)] + ["--small"] * small
    entry = {"workload": workload, "seed": seed, "trace": trace, "mmap_threshold": threshold}
    started = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {**entry, "error": f"no result within {TIMEOUT_S} s"}
    entry["wall_s"] = round(time.perf_counter() - started, 1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        return {**entry, "error": f"exit {proc.returncode}: {proc.stderr.strip()[-400:]!r}"}
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    if threshold is not None:
        metrics = {"peak_rss_mb": metrics["peak_rss_mb"]}
    return {**entry, "correct": result["correct"], "failed": result["failed"],
            "attempted": result["attempted"], "metrics": metrics}


def machine() -> dict:
    """The facts a figure depends on, beside the code: interpreter, numpy, CPUs, commit."""
    def git(*args: str) -> str | None:
        try:
            proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
        except OSError:
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    facts = {"python": platform.python_version(), "numpy": np.__version__,
             "nproc": len(os.sched_getaffinity(0))}
    if "OPENBLAS_CORETYPE" in os.environ:
        facts["OPENBLAS_CORETYPE"] = os.environ["OPENBLAS_CORETYPE"]
    status = git("status", "--porcelain", "--untracked-files=no")
    facts.update(commit=git("rev-parse", "HEAD"), dirty=None if status is None else bool(status))
    return facts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--small", action="store_true")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    plan = [(w["name"], seed, trace, None) for w in bench["workloads"]
            for seed in SEEDS for trace in (0, 1)]
    plan += [(w["name"], SEEDS[0], 0, MMAP_THRESHOLD) for w in bench["workloads"]]
    runs = []
    for workload, seed, trace, threshold in plan:
        entry = run(workload, seed, seconds, trace, args.small, threshold)
        runs.append(entry)
        if "error" in entry:
            shown = entry["error"]
        elif trace:
            shown = f"{len(entry['metrics'])} per-layer metrics"
        else:
            shown = ", ".join(f"{name}={m['value']:.6g}" for name, m in entry["metrics"].items())
        print(f"{workload} seed={seed} trace={trace} mmap_threshold={threshold}: "
              f"{entry.get('failed')}/{entry.get('attempted')} failed; {shown}", flush=True)
    record = {"pr": args.pr, "size": "small" if args.small else "full", "seconds": seconds,
              "machine": machine(), "runs": runs}
    if args.small:
        print(json.dumps(record))
    else:
        (ROOT / f"BENCH_{args.pr}.json").write_text(json.dumps(record, indent=1) + "\n",
                                                    encoding="utf-8")
        print(f"wrote BENCH_{args.pr}.json")
    return 0 if all(e.get("correct") for e in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
