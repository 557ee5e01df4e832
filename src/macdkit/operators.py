"""Trailing, centered and double box averages, MACD and exact derivatives.

All operators are pure functions on :class:`~macdkit.signals.UniformSignal`.
The continuous average over the trailing interval is realized as the
arithmetic mean of the ``k`` most recent samples (the signal is treated as
piecewise-constant on sample cells), which makes every algebraic relation
between the operators exact rather than merely first-order in ``dt``.

Window sums take one vectorised path for every window length: an exact
anchor sum every ``max(32, k // 8)`` outputs, continued between anchors by a
running sum of the entering-minus-leaving samples, so large windows stay
accurate without an O(n*k) cost.  On a constant signal every step is exactly
zero and every anchor sums identical values, so all window sums are the same
float, which is what makes e.g. ``macd(constant) == 0`` hold bit-exactly.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .signals import InsufficientSamplesError, UniformSignal, WindowSpec, as_window

__all__ = [
    "right_avg",
    "centered_avg",
    "double_right_avg",
    "macd",
    "delay",
    "windowed_derivative",
    "sliding_sums",
]


def sliding_sums(values: np.ndarray, k: int) -> np.ndarray:
    """Sums of every length-``k`` window of ``values`` (length ``n - k + 1``).

    Output ``j`` is the sum of ``values[j : j + k]``.  Every
    ``max(32, k // 8)``-th output is an exact anchor sum of its window; the
    outputs between two anchors add the entering-minus-leaving samples to the
    earlier anchor, so rounding never drifts over more than one anchor
    interval and accuracy is a few units in the last place of the window sum
    whatever the signal length.  On constant input every window sum is the
    same float.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    if k < 1:
        raise ValueError("window must be at least 1 sample")
    if n < k:
        raise InsufficientSamplesError(
            f"insufficient samples for window sums: signal has {n}, needs at least {k}",
            required=k,
        )
    if k == 1:
        return values.copy()
    m = n - k + 1
    seg = max(32, k // 8)
    starts = np.arange(0, m, seg)
    # One row per anchor interval: the anchor sum, then the steps after it.
    steps = np.zeros(starts.size * seg)
    steps[1:m] = values[k:] - values[: m - 1]
    steps[starts] = sliding_window_view(values, k)[starts].sum(axis=1)
    return np.cumsum(steps.reshape(-1, seg), axis=1).reshape(-1)[:m]


def right_avg(signal: UniformSignal, w: WindowSpec | int) -> UniformSignal:
    """Trailing (causal) box average over the last ``k`` samples.

    Output sample ``j`` is the mean of ``values[j : j + k]``; it is anchored
    at the time of input sample ``j + k - 1``, so a sample of the output and
    the input sample at the same timestamp share the window's right endpoint.
    The result is ``k - 1`` samples shorter than the input.
    """
    w = as_window(w, signal.dt)
    k = w.k
    signal.require(k, f"a {k}-sample average")
    sums = sliding_sums(signal.values, k)
    return UniformSignal(signal.t0 + (k - 1) * signal.dt, signal.dt, sums / k)


def centered_avg(signal: UniformSignal, w: WindowSpec | int) -> UniformSignal:
    """Centered (phase-corrected) box average; requires an even window.

    Identical sample values to :func:`right_avg`, re-anchored half a window
    earlier: the output at time ``t`` equals the trailing average at
    ``t + k/2`` samples.  Odd windows would need half-sample interpolation
    and are rejected.
    """
    w = as_window(w, signal.dt)
    k = w.k
    if k % 2 != 0:
        raise ValueError(f"centered window must have an even sample count, got {k}")
    signal.require(k, f"a {k}-sample centered average")
    trailing = right_avg(signal, w)
    return trailing.with_values(trailing.values, t0=trailing.t0 - (k // 2) * signal.dt)


def double_right_avg(signal: UniformSignal, w: WindowSpec | int) -> UniformSignal:
    """Trailing box average applied twice with the same window.

    Equivalent to convolving with a triangular kernel spanning ``2k - 1``
    samples.
    """
    w = as_window(w, signal.dt)
    signal.require(2 * w.k - 1, f"a doubled {w.k}-sample average")
    return right_avg(right_avg(signal, w), w)


def macd(signal: UniformSignal, a: WindowSpec | int) -> UniformSignal:
    """Short-minus-long trend indicator: ``k``-average minus ``2k``-average.

    Evaluated as ``(S(i) - S(i-k)) / (2k)`` with ``S`` the sliding window
    sum, which is algebraically identical to the difference of the two means
    and cancels bit-exactly on constant signals.  Defined from input index
    ``2k - 1`` onward.
    """
    a = as_window(a, signal.dt)
    k = a.k
    signal.require(2 * k, f"a {k}/{2 * k}-sample average difference")
    sums = sliding_sums(signal.values, k)
    out = (sums[k:] - sums[:-k]) / (2 * k)
    return UniformSignal(signal.t0 + (2 * k - 1) * signal.dt, signal.dt, out)


def delay(signal: UniformSignal, lag_samples: int) -> UniformSignal:
    """Shift the signal ``lag_samples`` into the past.

    The output at time ``t`` reads the input at ``t - lag*dt``, so the
    result starts ``lag`` samples later than the input and ends with it;
    the valid range shrinks by ``lag`` samples.
    """
    lag = int(lag_samples)
    if lag < 0:
        raise ValueError(f"lag must be non-negative, got {lag_samples}")
    n = len(signal)
    if lag >= n:
        raise InsufficientSamplesError(
            f"insufficient samples for a lag of {lag}: signal has {n}, needs at least {lag + 1}",
            required=lag + 1,
        )
    if lag == 0:
        return signal
    return UniformSignal(signal.t0 + lag * signal.dt, signal.dt, signal.values[: n - lag])


def windowed_derivative(signal: UniformSignal, w: WindowSpec | int) -> UniformSignal:
    """Lag-``k`` difference quotient ``(f(i) - f(i-k)) / (k*dt)``.

    For any signal that is itself a trailing ``k``-average this equals the
    exact rate of change of that average in the piecewise-constant model,
    so derivative-form identities hold with no truncation error.
    """
    w = as_window(w, signal.dt)
    k = w.k
    signal.require(k + 1, f"a lag-{k} difference quotient")
    out = (signal.values[k:] - signal.values[:-k]) / (k * signal.dt)
    return UniformSignal(signal.t0 + k * signal.dt, signal.dt, out)
