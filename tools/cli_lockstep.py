"""Lockstep CLI launches: two source trees' ``python -m macdkit`` on one input.

Writes one seeded AR(1) walk as an epoch-second ``time,value`` CSV, in
``repr`` text, into a temporary directory, a copy of it whose last value is
``x`` and a copy whose line 4 time is half a step late.  Each round runs five
commands as fresh processes from each tree: ``compute macd -k 12 -o OUT``,
``verify`` and ``spectrum macd -k 256 --grid 65536 -o OUT`` on the walk, and
``verify`` on each copy, which ingest rejects at its last line and at line 4:
the cost of a late rejection next to that of an early one.  Which tree goes
first alternates, so both meet the same host speed.  For each command and
tree it prints the median and minimum wall time, the median ``wall_time_s``
the CLI prints (the command body) and the median of the rest (launch, import
and exit), then the median change/parent ratio of the wall times, with its
quartiles: below 1 the change runs faster.  A rejected ``verify`` prints no ``wall_time_s``, so it
gets wall times only.  Each round also launches ``python -c "import
numpy"`` and then ``python -c "import macdkit"`` from each tree, in the same
alternation, and the tool prints each tree's median macdkit/numpy launch
ratio, the figure perfbench's ``setup_s`` scales, and the median
change/parent ratio of those ratios, with its quartiles.  Last, it names
each command whose exit code, stdout (less its ``wall_time_s`` line),
stderr or output bytes differ between the trees.

    python3 tools/cli_lockstep.py PARENT_SRC CHANGE_SRC [--rows N] [--rounds R] [--seed S]

``PARENT_SRC`` and ``CHANGE_SRC`` are directories that hold ``macdkit/``,
such as two checkouts' ``src``.  A tree run against itself reads near 1.
Each child runs in the temporary directory with this process's environment
and its tree first on ``PYTHONPATH``, and is killed if it outlives
``TIMEOUT_S``.  The exit code is 1 if an import or a command on the walk
failed, a command printed no ``wall_time_s``, or a rejected ``verify`` did
not exit 2 with its one stderr line: ``error: could not parse line N`` for
the first copy's last line N, ``error: non-uniform spacing at line 4`` for
the second; else 0.
"""

from __future__ import annotations

import argparse
import os
import random
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from push_lockstep import walk

TREES = ("parent", "change")
# Each command's name, argv and, for one that must exit 2, its stderr (None: exit 0).
COMMANDS = (
    ("compute macd -k 12", ["compute", "macd", "{input}", "-k", "12", "-o", "{output}"], None),
    ("verify", ["verify", "{input}"], None),
    ("spectrum macd -k 256 --grid 65536",
     ["spectrum", "macd", "-k", "256", "--grid", "65536", "-o", "{output}"], None),
    ("verify, last value x", ["verify", "{rejected}"], "error: could not parse line {last}\n"),
    ("verify, line 4 spacing", ["verify", "{early}"], "error: non-uniform spacing at line 4\n"),
)
TIMEOUT_S = 120
WALL_TIME = re.compile(r"^wall_time_s: ([0-9.]+)$", re.MULTILINE)


def write_input(path: Path, rows: int, seed: int) -> None:
    """``rows`` of the walk at one-second steps from a seeded epoch second."""
    t0 = 1_700_000_000 + random.Random(seed).randrange(1_000_000)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("time,value\n")
        fh.write("".join(f"{float(t0 + i)!r},{v!r}\n" for i, v in enumerate(walk(rows, seed))))


def run(src: str, args: list[str], work: Path):
    """One ``python ARGS`` process from ``src``, run to its end: the process and its wall time."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [os.path.abspath(src), os.environ.get("PYTHONPATH")]))}
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=work, env=env, capture_output=True,
                          text=True, timeout=TIMEOUT_S)
    return proc, time.perf_counter() - started


def launch(src: str, argv: list[str], work: Path, output: Path):
    """One ``python -m macdkit`` process from ``src``: its wall time, the
    ``wall_time_s`` it printed (None if none), and what it left: exit code,
    stdout less the ``wall_time_s`` line, stderr and the output file's bytes."""
    proc, wall = run(src, ["-m", "macdkit", *argv], work)
    found = WALL_TIME.search(proc.stdout)
    written = output.read_bytes() if output.exists() else None
    if written is not None:
        output.unlink()
    left = (proc.returncode, WALL_TIME.sub("", proc.stdout), proc.stderr, written)
    return wall, float(found.group(1)) if found else None, left


def quartiles(xs: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(xs, n=4)
    return f"{median:.3f} [{q1:.3f}, {q3:.3f}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--rows", type=int, default=100_000)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.rows < 100:
        parser.error("--rows must be at least 100, so that verify can run every check")
    if args.rounds < 2:
        parser.error("--rounds must be at least 2, so that the ratios have quartiles")
    srcs = (args.parent_src, args.change_src)
    # walls[c][t], bodies[c][t]: command c's times from tree t, one per round
    walls = [[[] for _ in TREES] for _ in COMMANDS]
    bodies = [[[] for _ in TREES] for _ in COMMANDS]
    # ratios[t]: tree t's import macdkit / import numpy launch times, one per round
    ratios = [[] for _ in TREES]
    differ, failed = set(), set()
    with tempfile.TemporaryDirectory(prefix="cli_lockstep_") as tmp:
        work = Path(tmp)
        data, output = work / "input.csv", work / "output.csv"
        rejected, early = work / "rejected.csv", work / "early.csv"
        write_input(data, args.rows, args.seed)
        text = data.read_text(encoding="utf-8")
        rejected.write_text(text[:text.rindex(",") + 1] + "x\n", encoding="utf-8")
        lines = text.splitlines(keepends=True)
        t, v = lines[3].split(",")
        lines[3] = f"{float(t) + 0.5!r},{v}"
        early.write_text("".join(lines), encoding="utf-8")
        for r in range(args.rounds):
            for t in ((0, 1) if r % 2 == 0 else (1, 0)):
                launches = []
                for module in ("numpy", "macdkit"):
                    proc, wall = run(srcs[t], ["-c", f"import {module}"], work)
                    if proc.returncode != 0:
                        failed.add(f"import {module} ({TREES[t]}): exit {proc.returncode}, "
                                   f"{proc.stderr.strip()[-200:]!r}")
                    launches.append(wall)
                ratios[t].append(launches[1] / launches[0])
            for c, (name, template, error) in enumerate(COMMANDS):
                cmd = [a.format(input=data, rejected=rejected, early=early, output=output)
                       for a in template]
                error = error and error.format(last=args.rows + 1)  # the header is line 1
                left = [None, None]
                for t in ((0, 1) if (r + c) % 2 == 0 else (1, 0)):
                    wall, body, left[t] = launch(srcs[t], cmd, work, output)
                    code, stderr = left[t][0], left[t][2]
                    if not ((code, stderr) == (2, error) if error
                            else code == 0 and body is not None):
                        failed.add(f"{name} ({TREES[t]}): exit {code}, {stderr.strip()[-200:]!r}")
                        continue
                    walls[c][t].append(wall)
                    if body is not None:
                        bodies[c][t].append(body)
                if left[0] != left[1]:
                    differ.add(name)
    print("import macdkit / import numpy launch:")
    for t, tree in enumerate(TREES):
        print(f"  {tree}: ratio median {statistics.median(ratios[t]):.3f}")
    print(f"  change/parent ratio {quartiles([b / a for a, b in zip(*ratios)])} "
          f"over {args.rounds} rounds")
    for c, (name, _, _) in enumerate(COMMANDS):
        print(f"{name}:")
        for t, tree in enumerate(TREES):
            if walls[c][t]:
                line = (f"  {tree}: wall median {statistics.median(walls[c][t]) * 1e3:.1f} ms, "
                        f"min {min(walls[c][t]) * 1e3:.1f} ms")
                if bodies[c][t]:
                    rest = [w - b for w, b in zip(walls[c][t], bodies[c][t])]
                    line += (f"; body (wall_time_s) median "
                             f"{statistics.median(bodies[c][t]) * 1e3:.1f} ms; launch, import "
                             f"and exit median {statistics.median(rest) * 1e3:.1f} ms")
                print(line)
        if len(walls[c][0]) == len(walls[c][1]) == args.rounds:
            ratios = [b / a for a, b in zip(*walls[c])]
            print(f"  change/parent wall {quartiles(ratios)} over {args.rounds} rounds")
    print(f"outputs identical: {not differ}" + (f" (differ: {', '.join(sorted(differ))})"
                                                if differ else ""))
    for line in sorted(failed):
        print(f"failed: {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
