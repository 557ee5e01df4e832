"""Constant-time-per-sample online evaluation of the batch operators.

With the weights ``2i/(n(n+1))`` the ``n``-term delayed-derivative
expansion over blocks of ``b`` samples telescopes: it is exactly the mean
of the newest ``a = n*b`` samples minus the mean of the newest ``a + b``.
Writing ``R`` for the sum of the newest ``a`` samples and ``O`` for the sum
of the ``b`` samples before those, the value is ``(R - n*O) / (n(n+1)b)``.
MACD is the ``n = 1`` case, ``(R - O) / (2k)``.

``ExpansionStream`` keeps a ring of the last ``a + b`` samples and two
compensated running sums, updated by add-newest / subtract-oldest, with
each addition's rounding error recovered exactly by Knuth's branch-free
TwoSum.  A push costs O(1) whatever ``n`` and ``b``.  For ``n = 1`` (MACD
with ``a = b = k``) ``O`` is ``R`` from ``k`` pushes ago, the finite
difference of delayed sums that batch ``macd`` takes: every ``n = 1``
stream keeps one running sum and reads ``O`` from a ring of its past
values, half the arithmetic of a push.  Every ``resum_interval`` pushes
the running sums are rebuilt exactly from the ring, even where a partial
sum in ring order would overflow, so outputs track the batch operators to
well under 1e-9 over unbounded input.  No output is emitted until both
windows are fully covered, matching the batch valid-range convention.  A
push that is not finite, or that would make a compensated window sum
overflow, is rejected and leaves the stream unchanged.
"""

from __future__ import annotations

import math

from .signals import WINDOW_SUM_OVERFLOW, ExpansionSpec, _count

__all__ = ["MacdStream", "ExpansionStream"]

RESUM_INTERVAL = 1 << 20


class ExpansionStream:
    """Online n-term delayed-derivative expansion.

    ``push`` costs O(1) arithmetic whatever ``n`` and the block size, and
    memory is ``(n+1)*b`` raw samples and two running sums, plus ``2b`` past
    sums of ``R`` for ``n = 1``.  Output starts once ``(n+1)*b`` samples
    have been seen and then matches the batch expansion at the same index.
    """

    def __init__(self, spec: ExpansionSpec, resum_interval: int = RESUM_INTERVAL):
        resum_interval = _count(resum_interval, "resum interval must be a positive integer")
        self._a = spec.a
        self._n = float(spec.n)
        self._den = float(spec.n * (spec.n + 1) * spec.b)
        self._size = spec.a + spec.b  # len(self._ring), read on every push
        self._ring = [0.0] * self._size
        self._pos = 0
        # R (newest a samples) and O (the b before them), each as a running
        # sum plus its compensation, the sum of its TwoSum rounding errors.
        self._r = self._rc = self._o = self._oc = 0.0
        # For n = 1, O is R from a pushes ago: the past R + rc, by sample slot.
        self._past = [0.0] * self._size if spec.n == 1 else None
        self._resum_interval = resum_interval
        self._resums = 0
        self.samples_seen = 0

    def push(self, sample: float) -> float | None:
        """Feed one sample; return the stream's value once warmed up."""
        x = float(sample)
        ring = self._ring
        pos = self._pos
        back = pos - self._a  # the slot written a pushes ago (negative index wraps)
        mid = ring[back]      # leaves R, enters O
        # R += x - mid as two TwoSum additions whose exact rounding errors
        # accumulate in the compensation.
        s = self._r
        t = s + x
        z = t - s
        c = self._rc + ((s - (t - z)) + (x - z))
        r = t - mid
        z = r - t
        rc = c + ((t - (r - z)) + (-mid - z))
        v = r + rc
        # A compensated sum that is not finite (inf - inf and nan - nan are
        # nan) is rejected before any state changes.
        past = self._past
        if past is not None:  # n = 1: O is R + rc from a pushes ago
            if v - v:
                _reject(x, sample)
            w = past[back]
            past[pos] = v
        else:  # O += mid - old, the same way
            old = ring[pos]
            s = self._o
            t = s + mid
            z = t - s
            c = self._oc + ((s - (t - z)) + (mid - z))
            o = t - old
            z = o - t
            oc = c + ((t - (o - z)) + (-old - z))
            w = o + oc
            if v - v or w - w:
                _reject(x, sample)
            self._o = o
            self._oc = oc
            w *= self._n  # n*O; the overflow fallback below scales the unscaled O
        ring[pos] = x
        pos += 1
        self._pos = 0 if pos == self._size else pos
        self._r = r
        self._rc = rc
        seen = self.samples_seen + 1
        self.samples_seen = seen
        if seen % self._resum_interval == 0:
            self._resum()
            v = self._r
            if past is None:
                w = self._n * self._o
        if seen < self._size:
            return None
        out = (v - w) / self._den
        if out - out:  # the difference of two finite sums overflowed: scale each first
            o = w if past is not None else self._o + self._oc
            out = v / self._den - o / self._den * self._n
        return out

    def _exact_sums(self) -> tuple[float, float]:
        """Exact (R, O) from the ring, oldest sample at ``_pos``."""
        pos = self._pos
        ordered = self._ring[pos:] + self._ring[:pos]
        b = len(ordered) - self._a
        return _exact_sum(ordered[b:]), _exact_sum(ordered[:b])

    def _resum(self) -> None:
        self._r, self._o = self._exact_sums()
        self._rc = self._oc = 0.0
        self._resums += 1

    def _running_sums(self) -> tuple[float, float]:
        """The running (R, O), each with its compensation added; for n = 1, O from ``_past``."""
        past = self._past
        o = self._o + self._oc if past is None else past[self._pos - 1 - self._a]
        return self._r + self._rc, o

    def sum_drift(self) -> float:
        """Worst relative deviation of the running sums from exact re-summation."""
        (r, o), (v, w) = self._exact_sums(), self._running_sums()
        return max(abs(v - r) / max(abs(r), 1.0), abs(w - o) / max(abs(o), 1.0))

    def stats(self) -> dict:
        """Samples seen, re-sums so far, the current ``sum_drift()`` and warm-up state."""
        return {
            "samples_seen": self.samples_seen,
            "resums": self._resums,
            "sum_drift": self.sum_drift(),
            "warm": self.samples_seen >= self._size,
        }


def _reject(x: float, sample) -> None:
    """Raise the error for a push whose compensated sum is not finite."""
    if not math.isfinite(x):
        raise ValueError(f"non-finite sample rejected: {sample!r}")
    raise ValueError(WINDOW_SUM_OVERFLOW)


def _exact_sum(values: list[float]) -> float:
    """Correctly rounded sum, also where a partial sum in ring order overflows."""
    try:
        return math.fsum(values)
    except OverflowError:  # "intermediate overflow in fsum"; a sum of Fractions has none
        from fractions import Fraction  # here, not at the top: ~1 ms of every launch
        return float(sum(map(Fraction, values)))


class MacdStream(ExpansionStream):
    """Online short-minus-long box-average difference: the ``n = 1`` expansion.

    Starts emitting once ``2k`` samples have been seen; from then on the
    emitted value matches the batch operator at the same index.

    As in batch ``macd``, the older window's sum ``O`` is the newest
    window's sum ``R`` from ``k`` pushes ago, so a push updates one
    compensated running sum and reads ``O`` from a ring of past ``R + rc``
    values, kept by sample slot.  A re-sum rebuilds ``R`` exactly; the next
    ``k`` values of ``O`` still come from the ring of pre-re-sum ``R``
    values.  Memory is ``2k`` raw samples plus ``2k`` past sums.
    """

    def __init__(self, window: int, resum_interval: int = RESUM_INTERVAL):
        super().__init__(ExpansionSpec(1, window), resum_interval)
