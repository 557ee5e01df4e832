"""Constant-time-per-sample online evaluation of the batch operators.

With the weights ``2i/(n(n+1))`` the ``n``-term delayed-derivative
expansion over blocks of ``b`` samples telescopes: it is exactly the mean
of the newest ``a = n*b`` samples minus the mean of the newest ``a + b``.
Writing ``R`` for the sum of the newest ``a`` samples and ``O`` for the sum
of the ``b`` samples before those, the value is ``(R - n*O) / (n(n+1)b)``.
MACD is the ``n = 1`` case, ``(R - O) / (2k)``.

So one stream serves both: a ring of the last ``a + b`` samples and two
Neumaier-compensated running sums, updated by add-newest /
subtract-oldest.  A push costs O(1) whatever ``n`` and ``b``.  Every
``resum_interval`` pushes the sums are rebuilt exactly from the ring, so
outputs track the batch operators to well under 1e-9 over unbounded input.
No output is emitted until both windows are fully covered, matching the
batch valid-range convention.  A push that is not finite, or that would
make a window sum overflow, is rejected and leaves the stream unchanged.
"""

from __future__ import annotations

import math

from .signals import WINDOW_SUM_OVERFLOW, ExpansionSpec, window_size

__all__ = ["MacdStream", "ExpansionStream", "RESUM_INTERVAL"]

RESUM_INTERVAL = 1 << 20


class ExpansionStream:
    """Online n-term delayed-derivative expansion.

    ``push`` costs O(1) arithmetic whatever ``n`` and the block size, and
    memory is ``(n+1)*b`` raw samples.  Output starts once ``(n+1)*b``
    samples have been seen and then matches the batch expansion at the same
    index.
    """

    def __init__(self, spec: ExpansionSpec, resum_interval: int = RESUM_INTERVAL):
        if resum_interval < 1:
            raise ValueError("resum interval must be positive")
        self.spec = spec
        self.k = spec.b
        self._a = spec.a
        self._n = float(spec.n)
        self._den = float(spec.n * (spec.n + 1) * spec.b)
        self._ring = [0.0] * (spec.a + spec.b)
        self._pos = 0
        # R (newest a samples) and O (the b before them), each as a running
        # sum plus its Neumaier compensation.
        self._r = self._rc = self._o = self._oc = 0.0
        self._resum_interval = resum_interval
        self._resums = 0
        self.samples_seen = 0

    def push(self, sample: float) -> float | None:
        """Feed one sample; return the stream's value once warmed up."""
        x = float(sample)
        ring = self._ring
        pos = self._pos
        mid = ring[pos - self._a]  # leaves R, enters O (negative index wraps)
        old = ring[pos]            # leaves O
        # R += x - mid and O += mid - old, each as two compensated additions.
        s = self._r
        c = self._rc
        t = s + x
        if abs(s) >= abs(x):
            c += (s - t) + x
        else:
            c += (x - t) + s
        r = t - mid
        if abs(t) >= abs(mid):
            rc = c + ((t - r) - mid)
        else:
            rc = c + ((-mid - r) + t)
        s = self._o
        c = self._oc
        t = s + mid
        if abs(s) >= abs(mid):
            c += (s - t) + mid
        else:
            c += (mid - t) + s
        o = t - old
        if abs(t) >= abs(old):
            oc = c + ((t - o) - old)
        else:
            oc = c + ((-old - o) + t)
        # Not finite (inf - inf and nan - nan are nan): reject before any
        # state changes.
        if r - r or o - o:
            if not math.isfinite(x):
                raise ValueError(f"non-finite sample rejected: {sample!r}")
            raise ValueError(WINDOW_SUM_OVERFLOW)
        ring[pos] = x
        pos += 1
        self._pos = 0 if pos == len(ring) else pos
        self._r = r
        self._rc = rc
        self._o = o
        self._oc = oc
        seen = self.samples_seen + 1
        self.samples_seen = seen
        if seen % self._resum_interval == 0:
            self._resum()
            r, rc, o, oc = self._r, 0.0, self._o, 0.0
        if seen < len(ring):
            return None
        out = ((r + rc) - self._n * (o + oc)) / self._den
        if out - out:  # the difference of two finite sums overflowed: scale each first
            out = (r + rc) / self._den - (o + oc) / self._den * self._n
        return out

    def _exact_sums(self) -> tuple[float, float]:
        """Exact (R, O) from the ring, oldest sample at ``_pos``."""
        pos = self._pos
        ordered = self._ring[pos:] + self._ring[:pos]
        b = len(ordered) - self._a
        return math.fsum(ordered[b:]), math.fsum(ordered[:b])

    def _resum(self) -> None:
        self._r, self._o = self._exact_sums()
        self._rc = self._oc = 0.0
        self._resums += 1

    def sum_drift(self) -> float:
        """Worst relative deviation of the running sums from exact re-summation."""
        r, o = self._exact_sums()
        return max(abs(self._r + self._rc - r) / max(abs(r), 1.0),
                   abs(self._o + self._oc - o) / max(abs(o), 1.0))

    def stats(self) -> dict:
        """Samples seen, re-sums so far, the current ``sum_drift()`` and warm-up state."""
        return {
            "samples_seen": self.samples_seen,
            "resums": self._resums,
            "sum_drift": self.sum_drift(),
            "warm": self.samples_seen >= len(self._ring),
        }


class MacdStream(ExpansionStream):
    """Online short-minus-long box-average difference: the ``n = 1`` expansion.

    Starts emitting once ``2k`` samples have been seen; from then on the
    emitted value matches the batch operator at the same index.
    """

    def __init__(self, window: int, resum_interval: int = RESUM_INTERVAL):
        super().__init__(ExpansionSpec(1, window_size(window)), resum_interval)
