"""macdkit benchmark: one workload per run, one JSON result line at the end.

    python3 perfbench/run.py --workload cli-csv-10x100k --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: macdkit is imported from ``src/`` of the
checkout this file sits in, never from an installed copy.  ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` wraps the public functions of
every macdkit module in spans and prints the per-layer metrics instead.
``--small`` runs every workload and all its checks at tiny sizes.  See
``perfbench/README.md`` for the workloads, metrics and reference figures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SLOTS = 6  # set-ups per run; setup_s is their median
# An ``import numpy`` launch at the speed of the reference host (README).
# setup_s is the ``import macdkit`` launch at that speed: measured launches
# are scaled by this over the paired ``import numpy`` launches, so the host's
# slow stretches, which last minutes, cancel out of it.
SETUP_REF_S = 0.15
# Nominal seconds of one round, about its length on the reference host
# (README).  A run makes ``--seconds // ROUND_SECONDS`` rounds, at least one,
# however fast the host is at the time, so every run's fastest-of figures are
# over the same samples.
ROUND_SECONDS = {"cli-csv-10x100k": 25.0, "batch-10x100k": 20.0, "stream-ticks": 20.0}

# n is the size of one piece: one CSV file, one batch signal.  The stream
# feed is RESUM_INTERVAL + 65536 samples unless stream_n says otherwise.
SIZES = {
    "full": {"n": 100_000, "pieces": 10, "grids": (4096, 65536), "cli_grid": 65536,
             "spots": 4096, "batch_spots": 1024, "stream_n": None, "resum": None},
    # Every workload and check in seconds; a short re-sum interval keeps the
    # stream's exact re-summation path in play on a short feed.
    "small": {"n": 12_000, "pieces": 2, "grids": (4096, 16384), "cli_grid": 16384,
              "spots": 256, "batch_spots": 256, "stream_n": 20_000, "resum": 4096},
}


def pin_threads() -> dict:
    """Cap BLAS/OpenMP threads at the CPUs this process may use.

    Set before numpy loads, so it holds here and in every child process,
    which inherits the environment.
    """
    cpus = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= cpus:
            os.environ[var] = str(cpus)
    return {"nproc": cpus, **{var: os.environ[var] for var in THREAD_VARS}}


class SetupProbe:
    """Set-ups of a fresh interpreter that imports macdkit, for ``setup_s``.

    The host's speed drifts over seconds, so the set-ups are spread over the
    run: workloads call :meth:`idle` between their passes, and a set-up
    happens there once ``spacing`` seconds have gone by since the last one.
    A set-up is a pair of launches, ``import numpy`` then ``import
    macdkit``.  numpy is macdkit's one dependency, so the pair runs at one
    host speed and their ratio is the part of the launch that macdkit's
    code decides.
    """

    def __init__(self, env, slots: int, spacing: float, enabled: bool = True):
        self.env, self.slots, self.spacing, self.enabled = env, slots, spacing, enabled
        self.pairs: list[tuple[float, float]] = []  # (numpy, macdkit) seconds
        self.last = -math.inf
        if enabled:
            self._launch("macdkit")  # untimed: compiles the byte code

    def _launch(self, module: str) -> float:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", f"import {module}"], env=self.env,
                                cwd=ROOT)
        try:
            # A blocking wait: with a timeout, Popen.wait polls in sleeps of
            # up to 50 ms, which would quantize the figure.
            code = proc.wait()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0:
            raise RuntimeError(f"'import {module}' exited with {code}")
        self.last = time.perf_counter()
        return self.last - started

    def _setup(self) -> None:
        self.pairs.append((self._launch("numpy"), self._launch("macdkit")))

    def idle(self) -> None:
        if (self.enabled and len(self.pairs) < self.slots
                and time.perf_counter() - self.last >= self.spacing):
            self._setup()

    def figures(self) -> dict[str, float]:
        """``setup_s`` and the raw medians behind it, topping up set-ups the
        run had no room for."""
        from common import median

        while self.enabled and len(self.pairs) < self.slots:
            self._setup()
        return {"setup_s": SETUP_REF_S * median([t / r for r, t in self.pairs]),
                "setup_macdkit_launch_s": median([t for _, t in self.pairs]),
                "setup_numpy_launch_s": median([r for r, _ in self.pairs])}


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


WORKLOADS = ("cli-csv-10x100k", "batch-10x100k", "stream-ticks")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true", help="tiny inputs, for the self-test")
    return p.parse_args(argv)


def import_macdkit() -> str:
    """Put the checkout's ``src`` first on the path; return an error or ''."""
    if not (SRC / "macdkit" / "__init__.py").is_file():
        return f"no macdkit sources at {SRC}; run from a full checkout"
    sys.path.insert(0, str(SRC))
    import macdkit

    if Path(macdkit.__file__).resolve().parent != (SRC / "macdkit").resolve():
        return f"imported macdkit from {macdkit.__file__}, not from {SRC}"
    return ""


def child_env() -> dict:
    """This process's environment, with the checkout's src first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def build(name: str, seed: int, small: bool, tracer, work: Path, idle=lambda: None):
    """The workload object for one run, with its context.

    Workloads call ``idle()`` between passes, where nothing is being timed.
    """
    from wl_batch import BatchWorkload
    from wl_cli import CliWorkload
    from wl_stream import StreamWorkload

    ctx = SimpleNamespace(root=str(ROOT), work=str(work), env=child_env(), seed=seed,
                          size=SIZES["small" if small else "full"], tracer=tracer, idle=idle)
    kind = {"cli-csv-10x100k": CliWorkload, "batch-10x100k": BatchWorkload,
            "stream-ticks": StreamWorkload}[name]
    return kind(ctx)


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = pin_threads()
    error = import_macdkit()
    if error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2

    from common import Ledger, NullTracer, Round, median
    from spans import PER_LAYER, SpanTable, Tracer, round_layer_metrics

    out_dir = HERE / "out"
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else NullTracer()
    ledger = Ledger(tracer)
    try:
        n_rounds = max(1, int(args.seconds // ROUND_SECONDS[args.workload]))
        setup = SetupProbe(child_env(), SETUP_SLOTS,
                           n_rounds * ROUND_SECONDS[args.workload] / (SETUP_SLOTS + 1),
                           enabled=not args.trace)
        workload = build(args.workload, args.seed, args.small, tracer, work, setup.idle)
        workload.prepare()
        if args.trace:
            tracer.install()
        started = time.perf_counter()
        for _ in range(n_rounds):
            ledger.start_round()
            workload.round(ledger)
        rounds_s = time.perf_counter() - started
        setup_figures = setup.figures()
    finally:
        if args.trace:
            tracer.restore()
        shutil.rmtree(work, ignore_errors=True)

    ops = ledger.ops
    rounds = ledger.rounds
    failed = [o for o in ops if not o.ok]
    correct = all(o.fault for o in failed)

    print(f"workload={args.workload} seed={args.seed} rounds={len(rounds)} "
          f"rounds_s={rounds_s:.1f} "
          f"size={'small' if args.small else 'full'} threads={threads}")
    reasons = {}
    for o in failed:
        reasons.setdefault((o.fault or "UNEXPECTED", o.reason), []).append(o.name)
    for (fault, reason), names in reasons.items():
        print(f"failed x{len(names)} {names[0]}: {reason[:240]} [{fault}]")
    # Each operation's time is its fastest over all the run's rounds.
    run = Round.merge(rounds)
    details = workload.details(run)
    if not args.trace:
        details.update({name: (value, "s") for name, value in setup_figures.items()
                        if name != "setup_s"})
    for name, (value, unit) in details.items():
        print(f"detail {name} = {value:.6g} {unit}")

    if args.trace:
        offset = 0
        per_round = []
        for rnd in rounds:
            ok = {offset + i: o.group for i, o in enumerate(rnd.ops) if o.ok}
            offset += len(rnd.ops)
            per_round.append(round_layer_metrics(SpanTable(tracer.spans, ok), rnd.counts,
                                                 rnd.job_seconds(), tracer.span_cost_s))
        metrics = {name: {"value": median([m[name] for m in per_round]), "unit": unit}
                   for name, unit in PER_LAYER}
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_path, {"workload": args.workload, "seed": args.seed,
                                 "threads": threads, "span_cost_s": tracer.span_cost_s})
        print(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
    else:
        metrics = {
            "setup_s": {"value": setup_figures["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
            "job_s": {"value": run.job_seconds(), "unit": "s"},
            "macd_samples_per_s": {"value": workload.macd_rate(run), "unit": "samples/s"},
        }
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
