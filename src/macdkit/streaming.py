"""Constant-time-per-sample online evaluation of the batch operators.

Each stream owns a ring buffer of the raw samples its windows can still
touch plus one compensated running sum per window, updated by
add-newest / subtract-oldest.  Compensated (Neumaier) additions keep the
rounding drift of the sliding sums near machine precision, and every
``resum_interval`` pushes the sums are rebuilt exactly from the buffer, so
stream outputs track the batch operators to well under 1e-9 over unbounded
input.  No output is emitted until every window is fully covered, matching
the batch valid-range convention.
"""

from __future__ import annotations

import math

from .signals import ExpansionSpec, window_size

__all__ = ["MacdStream", "ExpansionStream", "RESUM_INTERVAL"]

RESUM_INTERVAL = 1 << 20


class _SlidingSum:
    """Compensated running sum of a fixed-length window."""

    __slots__ = ("s", "c")

    def __init__(self):
        self.s = 0.0
        self.c = 0.0

    def update(self, incoming: float, outgoing: float) -> None:
        s = self.s
        c = self.c
        t = s + incoming
        if abs(s) >= abs(incoming):
            c += (s - t) + incoming
        else:
            c += (incoming - t) + s
        s = t
        t = s - outgoing
        if abs(s) >= abs(outgoing):
            c += (s - t) - outgoing
        else:
            c += (-outgoing - t) + s
        self.s = t
        self.c = c

    def reset(self, exact: float) -> None:
        self.s = exact
        self.c = 0.0

    @property
    def value(self) -> float:
        return self.s + self.c


class _StreamBase:
    """Ring buffer plus periodic exact re-summation shared by the streams."""

    def __init__(self, ring_size: int, n_sums: int, resum_interval: int):
        if resum_interval < 1:
            raise ValueError("resum interval must be positive")
        self._ring = [0.0] * ring_size
        self._ring_size = ring_size
        self._pos = 0
        self._sums = [_SlidingSum() for _ in range(n_sums)]
        self._resum_interval = resum_interval
        self.samples_seen = 0

    def _sample_at_lag(self, lag: int) -> float:
        # lag 0 = sample about to be overwritten ... use before writing.
        return self._ring[(self._pos - lag) % self._ring_size]

    def _window_exact(self, lag: int, k: int) -> float:
        """Exact sum of the k samples ending ``lag`` samples before the newest."""
        idx = self._pos - 1 - lag  # newest sample sits at pos-1 after a push
        return math.fsum(
            self._ring[(idx - j) % self._ring_size] for j in range(k)
        )

    def sum_drift(self) -> float:
        """Worst relative deviation of the running sums from exact re-summation."""
        worst = 0.0
        for sliding, (lag, k) in zip(self._sums, self._window_layout()):
            exact = self._window_exact(lag, k)
            scale = max(abs(exact), 1.0)
            worst = max(worst, abs(sliding.value - exact) / scale)
        return worst

    def _resum(self) -> None:
        for sliding, (lag, k) in zip(self._sums, self._window_layout()):
            sliding.reset(self._window_exact(lag, k))

    def _window_layout(self):
        raise NotImplementedError


class MacdStream(_StreamBase):
    """Online short-minus-long box-average difference.

    ``push`` costs O(1) arithmetic regardless of the window size and starts
    emitting once ``2k`` samples have been seen; from then on the emitted
    value matches the batch operator at the same index.
    """

    def __init__(self, window: int, resum_interval: int = RESUM_INTERVAL):
        k = window_size(window)
        super().__init__(2 * k, 2, resum_interval)
        self.k = k
        self._scale = 1.0 / (2 * k)

    def _window_layout(self):
        return ((0, self.k), (self.k, self.k))

    def push(self, sample: float) -> float | None:
        """Feed one sample; return the indicator value once warmed up."""
        x = float(sample)
        if not math.isfinite(x):
            raise ValueError(f"non-finite sample rejected: {sample!r}")
        k = self.k
        ring = self._ring
        pos = self._pos
        size = self._ring_size
        leaving_recent = ring[(pos - k) % size]
        leaving_older = ring[pos]
        ring[pos] = x
        self._pos = (pos + 1) % size
        recent, older = self._sums
        recent.update(x, leaving_recent)
        older.update(leaving_recent, leaving_older)
        self.samples_seen += 1
        if self.samples_seen % self._resum_interval == 0:
            self._resum()
        if self.samples_seen < 2 * k:
            return None
        return (recent.value - older.value) * self._scale


class ExpansionStream(_StreamBase):
    """Online n-term delayed-derivative expansion.

    Maintains one sliding block sum per delayed term (n+1 in total), so a
    push costs O(n) independent of the block size; memory stays at
    ``(n+1)*k + 1`` raw samples.
    """

    def __init__(self, spec: ExpansionSpec, resum_interval: int = RESUM_INTERVAL):
        self.spec = spec
        n, k = spec.n, spec.b
        super().__init__((n + 1) * k + 1, n + 1, resum_interval)
        self.k = k
        # Term i pairs block sums i-1 and i; fold the 1/(2k) into the weight.
        self._term_scale = [w / (2.0 * k) for w in spec.weights]
        self._warmup = (n + 1) * k

    def _window_layout(self):
        k = self.k
        return tuple((j * k, k) for j in range(self.spec.n + 1))

    def push(self, sample: float) -> float | None:
        """Feed one sample; return the expansion value once warmed up."""
        x = float(sample)
        if not math.isfinite(x):
            raise ValueError(f"non-finite sample rejected: {sample!r}")
        k = self.k
        ring = self._ring
        pos = self._pos
        size = self._ring_size
        # Entering/leaving samples for every delayed block, oldest fetched
        # before the ring slot is overwritten.
        edges = [x]
        for j in range(1, self.spec.n + 2):
            edges.append(ring[(pos - j * k) % size])
        ring[pos] = x
        self._pos = (pos + 1) % size
        for j, sliding in enumerate(self._sums):
            sliding.update(edges[j], edges[j + 1])
        self.samples_seen += 1
        if self.samples_seen % self._resum_interval == 0:
            self._resum()
        if self.samples_seen < self._warmup:
            return None
        total = 0.0
        sums = self._sums
        for j, scale in enumerate(self._term_scale):
            total += (sums[j].value - sums[j + 1].value) * scale
        return total
