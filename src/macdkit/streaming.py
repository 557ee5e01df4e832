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
TwoSum.  A push costs O(1) whatever ``n`` and ``b``.  Each stream's
``push`` is a closure over its rings and constants, with the running sums
and the sample count in its cells (the ring slot is the count modulo the
ring's length), so a push loads and stores no attribute and one code
object serves both classes.  The closure is the one owner of that state:
the stream holds no other handle on it, and reads it, for its statistics,
copies and pickles, only through ``_state()``.  For ``n = 1`` (MACD
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

    The push closure owns the stream's state: its rings and, in its cells,
    the running sums and the sample count.  ``samples_seen``, ``stats()``
    and ``sum_drift()`` read that state through ``_state()``; a copy, deep
    copy or pickle rebuilds the closure from it and shares no state with the
    original.
    """

    def __init__(self, spec: ExpansionSpec, resum_interval: int = RESUM_INTERVAL):
        self._spec = spec
        self._interval = _count(resum_interval, "resum interval must be a positive integer")
        size = spec.a + spec.b
        # For n = 1, O is R from a pushes ago: the past R + rc, by sample slot.
        self._bind([0.0] * size, [0.0] * size if spec.n == 1 else None, 0.0, 0.0, 0.0, 0.0, 0)

    def _bind(self, ring: list, past: list | None, r: float, rc: float, o: float, oc: float,
              seen: int) -> None:
        """Bind ``push`` over the stream's state, in the order ``_state()`` gives it.

        The closure owns the state: the rings, and in its cells ``R``
        (newest ``a`` samples) and ``O`` (the ``b`` before them), each as a
        running sum plus its compensation, the sum of its TwoSum rounding
        errors, and the samples seen, whose remainder modulo the ring's
        length is the oldest sample's slot.  The stream keeps only the
        closure and ``_state()``, which reads them.
        """
        spec, size, interval = self._spec, len(ring), self._interval
        a, n, den = spec.a, float(spec.n), float(spec.n * (spec.n + 1) * spec.b)
        # The count at which a push takes the slow branch: each push of the
        # warm-up, then each multiple of the interval.  The next push takes
        # it, whatever the state, and sets the one after.
        due = seen + 1

        def push(sample):
            """Feed one sample; return the stream's value once warmed up."""
            nonlocal r, rc, o, oc, seen, due
            x = float(sample)
            pos = seen % size  # the oldest sample's slot
            back = pos - a  # the slot written a pushes ago (negative index wraps)
            mid = ring[back]  # leaves R, enters O
            # R += x - mid as two TwoSum additions whose exact rounding errors
            # accumulate in the compensation.
            t = r + x
            z = t - r
            c = rc + ((r - (t - z)) + (x - z))
            r1 = t - mid
            z = r1 - t
            rc1 = c + ((t - (r1 - z)) + (-mid - z))
            v = r1 + rc1
            # A compensated sum that is not finite (inf - inf and nan - nan are
            # nan) is rejected before any state changes.
            if past is not None:  # n = 1: O is R + rc from a pushes ago
                if v - v:
                    _reject(x, sample)
                w = past[back]
                past[pos] = v
            else:  # O += mid - old, the same way
                old = ring[pos]
                t = o + mid
                z = t - o
                c = oc + ((o - (t - z)) + (mid - z))
                o1 = t - old
                z = o1 - t
                oc1 = c + ((t - (o1 - z)) + (-old - z))
                w = o1 + oc1
                if v - v or w - w:
                    _reject(x, sample)
                o, oc = o1, oc1
                w *= n  # n*O; the overflow fallback below scales the unscaled O
            ring[pos] = x
            r, rc = r1, rc1
            seen += 1
            if seen == due:  # warming up, or at a re-sum
                if seen % interval == 0:
                    r, o = _exact_sums(ring, seen % size, a)
                    rc = oc = 0.0
                    v = r
                    if past is None:
                        w = n * o
                if seen < size:
                    due = seen + 1
                    return None
                due = seen - seen % interval + interval
            out = (v - w) / den
            if out - out:  # the difference of two finite sums overflowed: scale each first
                out = v / den - (w if past is not None else o + oc) / den * n
            return out

        self._push = push
        self._state = lambda: (ring, past, r, rc, o, oc, seen)
        if type(self).push is ExpansionStream.push:  # unless a subclass overrides push
            self.push = push

    def push(self, sample: float) -> float | None:
        """Feed one sample; return the stream's value once warmed up.

        The closure the constructor binds as the stream's ``push`` shadows
        this method, unless a subclass overrides ``push``: then this is how
        the override reaches the closure.
        """
        return self._push(sample)

    @property
    def samples_seen(self) -> int:
        """Pushes accepted so far."""
        return self._state()[6]

    def __getstate__(self):
        """Spec, interval and ``_state()`` with copies of the rings: a closure does not pickle."""
        ring, past, *cells = self._state()
        return (self._spec, self._interval, ring[:], past if past is None else past[:], *cells)

    def __setstate__(self, state) -> None:
        """Rebuild the push closure from ``__getstate__``'s state."""
        self._spec, self._interval, *cells = state
        self._bind(*cells)

    def sum_drift(self) -> float:
        """Worst relative deviation of the running sums from exact re-summation.

        Each running sum has its compensation added; for n = 1 the running
        ``O`` is the past ``R + rc`` that the latest push read.
        """
        ring, past, r, rc, o, oc, seen = self._state()
        pos, a = seen % len(ring), self._spec.a
        v, w = r + rc, o + oc if past is None else past[pos - 1 - a]
        r, o = _exact_sums(ring, pos, a)
        return max(abs(v - r) / max(abs(r), 1.0), abs(w - o) / max(abs(o), 1.0))

    def stats(self) -> dict:
        """Samples seen, re-sums so far, the current ``sum_drift()`` and warm-up state."""
        ring, *_, seen = self._state()
        return {
            "samples_seen": seen,
            "resums": seen // self._interval,
            "sum_drift": self.sum_drift(),
            "warm": seen >= len(ring),
        }


def _reject(x: float, sample) -> None:
    """Raise the error for a push whose compensated sum is not finite."""
    if not math.isfinite(x):
        raise ValueError(f"non-finite sample rejected: {sample!r}")
    raise ValueError(WINDOW_SUM_OVERFLOW)


def _exact_sums(ring: list[float], pos: int, a: int) -> tuple[float, float]:
    """Exact (R, O) from the ring, oldest sample at ``pos``."""
    ordered = ring[pos:] + ring[:pos]
    b = len(ordered) - a
    return _exact_sum(ordered[b:]), _exact_sum(ordered[:b])


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
