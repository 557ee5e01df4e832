"""Self-test of the benchmark at small sizes, in well under a minute.

    python3 perfbench/selftest.py

1. Every workload, untraced and traced, through ``run.py --small``: the
   result line has the shape and metric names BENCHMARK.json promises, the
   run is correct, and the only failures are the known faults.
2. The checks do not trust the program: with one macdkit function broken
   in this process, each workload reports an unexpected failure.
3. Without the macdkit sources next to it, run.py exits non-zero and
   prints no result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
# Known-fault failures per round at --small size: (failed, attempted).
FAULT_SHARE = {"cli-csv-10x100k": (1, 6), "batch-10x100k": (8, 211), "stream-ticks": (0, 3)}


def result_line(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_runs(spec: dict) -> None:
    for name in run.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--small", "--workload", name,
                 "--seed", "7", "--seconds", "0.1", "--trace", str(trace)],
                cwd=run.ROOT, capture_output=True, text=True, timeout=170)
            res = result_line(proc)
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
            assert res["correct"] is True, proc.stdout[-3000:]
            failed, attempted = FAULT_SHARE[name]
            assert res["failed"] * attempted == res["attempted"] * failed, res
            listed = spec["per_layer" if trace else "end_to_end"]
            assert {m: res["metrics"][m]["unit"] for m in res["metrics"]} == \
                {m["name"]: m["unit"] for m in listed}, f"{name}: metric names or units differ"
            print(f"ok  {name} trace={trace}: {res['attempted']} attempted, "
                  f"{res['failed']} known-fault failures")


def unexpected_failures(name: str, breakage) -> list[str]:
    """Run one small round in this process with ``breakage`` applied."""
    from common import Ledger
    from spans import Tracer

    work = HERE / "out" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    # An enabled tracer sends the CLI workload through cli.main in this
    # process, where the breakage applies.
    tracer = Tracer()
    workload = run.build(name, 7, True, tracer, work)
    ledger = Ledger(tracer)
    try:
        workload.prepare()
        undo = breakage()
        try:
            ledger.start_round()
            workload.round(ledger)
        finally:
            undo()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return [o.name for o in ledger.ops if not o.ok and not o.fault]


def patch(owner, attr, make):
    def apply():
        original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        return lambda: setattr(owner, attr, original)
    return apply


def check_mutations() -> None:
    from macdkit import cli, kernels, operators, streaming

    def skew_series(fn):
        def broken(*args, **kwargs):
            out = fn(*args, **kwargs)
            return out.with_values(out.values * (1 + 1e-9))
        return broken

    def skew_push(fn):
        def broken(self, sample):
            value = fn(self, sample)
            return None if value is None else value + 1e-6
        return broken

    def skew_sums(fn):
        return lambda values, k: fn(values, k) * (1 + 1e-10)

    def drop_tap(fn):
        def broken(kernel, signal):
            kern = kernels.KernelRep(kernel.offsets[:-1], kernel.weights[:-1], kernel.scale_note)
            return fn(kern, signal)
        return broken

    cases = [
        ("cli-csv-10x100k", "compute writes macd values off by 1e-9",
         patch(cli, "macd", skew_series)),
        ("batch-10x100k", "sliding sums off by 1e-10", patch(operators, "sliding_sums", skew_sums)),
        ("batch-10x100k", "apply_kernel drops the last tap",
         patch(kernels, "apply_kernel", drop_tap)),
        ("stream-ticks", "MacdStream.push off by 1e-6",
         patch(streaming.MacdStream, "push", skew_push)),
    ]
    for name, what, breakage in cases:
        caught = unexpected_failures(name, breakage)
        assert caught, f"{name}: '{what}' went unnoticed"
        print(f"ok  {name}: '{what}' fails {len(caught)} operation(s), e.g. {caught[0]}")


def check_bare_directory() -> None:
    bare = HERE / "out" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "batch-10x100k", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print(f"ok  without src/: exit {proc.returncode}, no result line")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_runs(spec)
    run.pin_threads()
    error = run.import_macdkit()
    assert not error, error
    check_mutations()
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
