"""Trailing, centered and double box averages, MACD and exact derivatives.

All operators are pure functions on :class:`~macdkit.signals.UniformSignal`.
The continuous average over the trailing interval is realized as the
arithmetic mean of the ``k`` most recent samples (the signal is treated as
piecewise-constant on sample cells), which makes every algebraic relation
between the operators exact rather than merely first-order in ``dt``.
Every window argument is that sample count ``k``, a plain ``int`` checked
by :func:`~macdkit.signals.window_size`.

Window sums take one vectorised path for every window length: an exact
anchor sum every ``max(32, k // 8)`` outputs, continued between anchors by a
running sum of the entering-minus-leaving samples, so large windows stay
accurate without an O(n*k) cost.  On a constant signal every step is exactly
zero and every anchor sums identical values, so all window sums are the same
float, which is what makes e.g. ``macd(constant) == 0`` hold bit-exactly.
"""

from __future__ import annotations

import numpy as np

from .signals import WINDOW_SUM_OVERFLOW, UniformSignal, _check_length, lag_size, window_size

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
    same float.  A window sum that overflows float64 raises ``ValueError``.
    """
    k = window_size(k)
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    _check_length(n, k, "window sums")
    if k == 1:
        return values.copy()
    m = n - k + 1
    seg = max(32, k // 8)
    starts = np.arange(0, m, seg)
    # One row per anchor interval: the anchor sum, then the steps after it.
    steps = np.zeros(starts.size * seg)
    # Anchor sums reduce over [start, start + k) in place, with no copy of
    # the windows.  The last bound is dropped when it is n: that window then
    # runs to the end of the array, and reduceat accepts no index n.
    bounds = np.stack([starts, starts + k], axis=1).reshape(-1)
    if bounds[-1] == n:
        bounds = bounds[:-1]
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(values[k:], values[: m - 1], out=steps[1:m])
        steps[starts] = np.add.reduceat(values, bounds)[::2]
        rows = np.cumsum(steps.reshape(-1, seg), axis=1)
    # A non-finite entry of a running row stays non-finite to the row's end.
    if not np.isfinite(rows[:, -1]).all():
        raise ValueError(WINDOW_SUM_OVERFLOW)
    return rows.reshape(-1)[:m]


def right_avg(signal: UniformSignal, w: int) -> UniformSignal:
    """Trailing (causal) box average over the last ``k`` samples.

    Output sample ``j`` is the mean of ``values[j : j + k]``; it is anchored
    at the time of input sample ``j + k - 1``, so a sample of the output and
    the input sample at the same timestamp share the window's right endpoint.
    The result is ``k - 1`` samples shorter than the input.
    """
    k = window_size(w)
    signal.require(k, f"a {k}-sample average")
    sums = sliding_sums(signal.values, k)
    return UniformSignal(signal.t0 + (k - 1) * signal.dt, signal.dt, sums / k)


def centered_avg(signal: UniformSignal, w: int) -> UniformSignal:
    """Centered (phase-corrected) box average; requires an even window.

    Identical sample values to :func:`right_avg`, re-anchored half a window
    earlier: the output at time ``t`` equals the trailing average at
    ``t + k/2`` samples.  Odd windows would need half-sample interpolation
    and are rejected.
    """
    k = window_size(w, even=True)
    signal.require(k, f"a {k}-sample centered average")
    trailing = right_avg(signal, k)
    return trailing.with_values(trailing.values, t0=trailing.t0 - (k // 2) * signal.dt)


def double_right_avg(signal: UniformSignal, w: int) -> UniformSignal:
    """Trailing box average applied twice with the same window.

    Equivalent to convolving with a triangular kernel spanning ``2k - 1``
    samples.
    """
    k = window_size(w)
    signal.require(2 * k - 1, f"a doubled {k}-sample average")
    return right_avg(right_avg(signal, k), k)


def macd(signal: UniformSignal, a: int) -> UniformSignal:
    """Short-minus-long trend indicator: ``k``-average minus ``2k``-average.

    Evaluated as ``(S(i) - S(i-k)) / (2k)`` with ``S`` the sliding window
    sum, which is algebraically identical to the difference of the two means
    and cancels bit-exactly on constant signals.  Defined from input index
    ``2k - 1`` onward.
    """
    k = window_size(a)
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
    lag = lag_size(lag_samples)
    signal.require(lag + 1, f"a lag of {lag}")
    if lag == 0:
        return signal
    return UniformSignal(signal.t0 + lag * signal.dt, signal.dt, signal.values[:-lag])


def windowed_derivative(signal: UniformSignal, w: int) -> UniformSignal:
    """Lag-``k`` difference quotient ``(f(i) - f(i-k)) / (k*dt)``.

    For any signal that is itself a trailing ``k``-average this equals the
    exact rate of change of that average in the piecewise-constant model,
    so derivative-form identities hold with no truncation error.
    """
    k = window_size(w)
    signal.require(k + 1, f"a lag-{k} difference quotient")
    out = (signal.values[k:] - signal.values[:-k]) / (k * signal.dt)
    return UniformSignal(signal.t0 + k * signal.dt, signal.dt, out)
