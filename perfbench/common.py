"""Shared pieces of the benchmark: inputs, the operation ledger and oracles.

Nothing here calls into macdkit.  The oracles recompute window means with
``math.fsum`` over the raw input, so a check never trusts the program.
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

# Inputs of the operations kept for known faults come from this fixed seed,
# so whether they fail never depends on --seed.
FAULT_SEED = 20250926
AR1_PHI = 0.999
GATE = 1e-12            # the exact-identity gate of the ROADMAP
STREAM_GATE = 1e-9      # the paper's stream-versus-batch bound


def ar1_walk(n: int, rng: np.random.Generator) -> np.ndarray:
    """Mean-reverting random walk ``v[i] = 0.999 * v[i-1] + N(0, 1)``.

    A plain random walk wanders as sqrt(n), and the identities' relative
    residuals grow with that excursion; the AR(1) walk keeps every seed's
    magnitude near 100 so no seed lands near the 1e-12 gate by chance.
    """
    out = [0.0] * n
    v = 0.0
    for i, e in enumerate(rng.standard_normal(n).tolist()):
        v = AR1_PHI * v + e
        out[i] = v
    return np.array(out)


def spot_indices(rng: np.random.Generator, lo: int, hi: int, count: int) -> list[int]:
    """Sorted distinct indices in ``[lo, hi)``, at most ``count`` of them."""
    span = hi - lo
    if span <= count:
        return list(range(lo, hi))
    return sorted(int(i) for i in rng.choice(span, size=count, replace=False) + lo)


def window_mean(xs: list[float], end: int, k: int) -> float:
    """Exact mean of ``xs[end-k+1 .. end]``."""
    return math.fsum(xs[end - k + 1 : end + 1]) / k


def macd_magnitude(k: int, omega: np.ndarray) -> np.ndarray:
    """Closed form |H(w)| = sin^2(k w / 2) / (k |sin(w / 2)|) of the MACD kernel, 0 at DC."""
    out = np.zeros_like(omega)
    w = omega[omega > 0]
    out[omega > 0] = np.sin(k * w / 2) ** 2 / (k * np.abs(np.sin(w / 2)))
    return out


def read_csv(path) -> np.ndarray:
    """Numeric rows of a CSV with one header line, parsed by numpy, not by macdkit."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def rel_mismatch(got, expected) -> float:
    """Worst |got - expected| over the spot set, relative to max |expected|."""
    got = np.asarray(got, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    worst = float(np.max(np.abs(got - expected)))
    scale = float(np.max(np.abs(expected)))
    if scale == 0.0:
        return 0.0 if worst == 0.0 else math.inf
    return worst / scale


def require(cond: bool, message: str) -> None:
    """Raise :class:`CheckFailed` unless ``cond`` holds."""
    if not cond:
        raise CheckFailed(message)


class CheckFailed(Exception):
    """An output of the program did not match the benchmark's own oracle."""


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


@dataclass
class Op:
    """One timed call into the program and the verdict of its check."""

    name: str
    group: str
    seconds: float
    ok: bool
    reason: str = ""
    fault: str = ""
    best: float | None = None  # the op's time at the best speed seen inside it


@dataclass
class Round:
    """The operations of one round, or of ``rounds`` rounds merged.

    Times are per round: each operation name counts its per-round number of
    calls at the fastest time that name reached in any of the merged rounds.
    """

    ops: list[Op] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    rounds: int = 1

    @classmethod
    def merge(cls, rounds: list["Round"]) -> "Round":
        counts: dict[str, float] = {}
        for r in rounds:
            for name, value in r.counts.items():
                counts[name] = counts.get(name, 0.0) + value
        return cls([o for r in rounds for o in r.ops], counts, len(rounds))

    def count(self, name: str) -> float:
        """A count taken at the layer boundaries, per round."""
        return self.counts.get(name, 0.0) / self.rounds

    def best_seconds(self) -> dict[str, tuple[int, float]]:
        """Per operation name: (passed count, fastest time), known faults left out.

        An operation's time is its ``best`` when it has one.
        """
        out: dict[str, tuple[int, float]] = {}
        for o in self.ops:
            if o.ok and not o.fault:
                t = o.seconds if o.best is None else o.best
                count, best = out.get(o.name, (0, t))
                out[o.name] = (count + 1, min(best, t))
        return out

    def job_seconds(self) -> float:
        """The regular operations of a round, each at its fastest time: on a
        host whose speed drifts, that tracks the code's cost where a sum of
        wall times also tracks the neighbours' load."""
        return sum(count * best for count, best in self.best_seconds().values()) / self.rounds

    def _family(self, family: str) -> list[tuple[int, float]]:
        """(count, fastest time) of the operations named ``family`` or ``family.*``."""
        return [cb for name, cb in self.best_seconds().items()
                if name == family or name.startswith(family + ".")]

    def family_seconds(self, family: str) -> float:
        """Time of a family's operations in one round, each at its fastest."""
        return sum(c * b for c, b in self._family(family)) / self.rounds

    def family_rate(self, family: str, size: float) -> float:
        """``size`` units per operation of a family, per second of
        :meth:`family_seconds`."""
        picked = self._family(family)
        total = sum(c * b for c, b in picked)
        return size * sum(c for c, _ in picked) / total if total else 0.0


class NullTracer:
    """Tracer stand-in for untraced runs: every span is a no-op."""

    enabled = False

    def op(self, op_id: int, name: str, group: str):
        return nullcontext()

    def span(self, name: str, layer: str, tag=None):
        return nullcontext()


class Ledger:
    """Runs operations, times them, checks them and counts failures.

    An operation fails when the call raises or its check does not hold.
    Operations named with ``fault=`` are the program's known faults; they
    are expected to fail until the program is fixed, and do not make the
    run incorrect.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer or NullTracer()
        self.rounds: list[Round] = []

    def start_round(self) -> None:
        self.rounds.append(Round())

    @property
    def current(self) -> Round:
        return self.rounds[-1]

    def next_op_id(self) -> int:
        return sum(len(r.ops) for r in self.rounds)

    def op(self, name, call, check=None, group="", fault=""):
        """Time ``call()``, then run ``check(result)``; return the result or None."""
        result, reason = None, ""
        with self.tracer.op(self.next_op_id(), name, group):
            started = time.perf_counter()
            try:
                result = call()
            except Exception as exc:  # a failing call is a counted outcome
                reason = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - started
        return self.record(name, seconds, result, reason, check, group, fault)

    def record(self, name, seconds, result, reason="", check=None, group="", fault=""):
        """Enter an operation the caller timed itself; run its check.

        A check may return a float: the operation's time at the best speed
        measured in its parts, used in place of its wall time in ``job_s``.
        """
        best = None
        if not reason and check is not None:
            try:
                best = check(result)
            except Exception as exc:  # includes CheckFailed
                reason = f"check: {type(exc).__name__}: {exc}"
        self.current.ops.append(Op(name, group, seconds, not reason, reason, fault,
                                   None if reason else best))
        return None if reason else result

    def count(self, name: str, value: float) -> None:
        self.current.counts[name] = self.current.counts.get(name, 0.0) + value

    def worst(self, name: str, value: float) -> None:
        self.current.counts[name] = max(self.current.counts.get(name, 0.0), value)

    @property
    def ops(self) -> list[Op]:
        return [o for r in self.rounds for o in r.ops]
