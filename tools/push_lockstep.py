"""Lockstep push cost: two source trees' streams in one interpreter, on one feed.

Loads the ``macdkit`` package of two source trees side by side, each under
its own module name, and builds from each the two streams stream-ticks
runs: ``MacdStream(12)`` and ``ExpansionStream(ExpansionSpec(8, 4))``.  All
four take one seeded AR(1) walk in chunks, interleaved, each stream's
chunk timed on its own; which tree goes first alternates chunk by chunk,
so both meet the same host speed.  For each stream class it prints the
median change/parent ratio of the chunk times, with its quartiles: below
1 the change pushes faster.  The first chunk, which holds the warm-up, is
left out.

    python3 tools/push_lockstep.py PARENT_SRC CHANGE_SRC [--samples N] [--chunk C] [--seed S]

``PARENT_SRC`` and ``CHANGE_SRC`` are directories that hold ``macdkit/``,
such as two checkouts' ``src``.  A tree run against itself reads near 1.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import random
import statistics
import sys
import time
from pathlib import Path

STREAMS = ("MacdStream(12)", "ExpansionStream(8, 4)")


def load(src: str, name: str):
    """The ``macdkit`` package under ``src``, imported as ``name``."""
    init = Path(src) / "macdkit" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def streams(package) -> list:
    """Fresh ``MacdStream(12)`` and ``ExpansionStream(8, 4)`` pushes, in ``STREAMS`` order."""
    streaming = importlib.import_module(f"{package.__name__}.streaming")
    return [streaming.MacdStream(12).push,
            streaming.ExpansionStream(package.ExpansionSpec(8, 4)).push]


def walk(n: int, seed: int) -> list[float]:
    """The mean-reverting walk ``v[i] = 0.999 * v[i-1] + N(0, 1)`` that stream-ticks feeds."""
    rng, v, out = random.Random(seed), 0.0, []
    for _ in range(n):
        v = 0.999 * v + rng.gauss(0.0, 1.0)
        out.append(v)
    return out


def lockstep(parent: list, change: list, feed: list[float], chunk: int):
    """Per stream, the change/parent time ratio of each chunk after the first; and
    whether every output matched."""
    trees = (parent, change)
    ratios = [[] for _ in STREAMS]
    same = True
    pc = time.perf_counter
    for i, start in enumerate(range(0, len(feed), chunk)):
        part = feed[start : start + chunk]
        took = [[0.0] * len(STREAMS) for _ in trees]
        outs = [[None] * len(STREAMS) for _ in trees]
        for t in ((0, 1) if i % 2 == 0 else (1, 0)):
            for j, push in enumerate(trees[t]):
                tick = pc()
                outs[t][j] = [push(x) for x in part]
                took[t][j] = pc() - tick
        for j in range(len(STREAMS)):
            same &= outs[0][j] == outs[1][j]
            if i:
                ratios[j].append(took[1][j] / took[0][j])
    return ratios, same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--samples", type=int, default=1 << 18)
    parser.add_argument("--chunk", type=int, default=8192)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.samples < 3 * args.chunk:
        parser.error("--samples must hold at least three chunks")
    parent = streams(load(args.parent_src, "lockstep_parent"))
    change = streams(load(args.change_src, "lockstep_change"))
    ratios, same = lockstep(parent, change, walk(args.samples, args.seed), args.chunk)
    for name, r in zip(STREAMS, ratios):
        q1, median, q3 = statistics.quantiles(r, n=4)
        print(f"{name}: change/parent {median:.3f} [{q1:.3f}, {q3:.3f}] over {len(r)} chunks")
    print(f"outputs identical: {same}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
