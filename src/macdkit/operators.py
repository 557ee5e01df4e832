"""Trailing, centered and double box averages, MACD and exact derivatives.

All operators are pure functions on :class:`~macdkit.signals.UniformSignal`.
The continuous average over the trailing interval is realized as the
arithmetic mean of the ``k`` most recent samples (the signal is treated as
piecewise-constant on sample cells), which makes every algebraic relation
between the operators exact rather than merely first-order in ``dt``.
Every window argument is that sample count ``k``, a plain ``int`` checked
by :func:`~macdkit.signals.window_size`.

Window sums take one vectorised path for every window length: binary
doubling over the digits of ``k``, about ``log2(k)`` whole-array adds in two
``n - 1`` buffers, whose pairwise sums err by ``O(log k)`` ulps of the
window's absolute sum.  Every output takes the same adds, so on a constant
signal all window sums are the same float, which is what makes e.g.
``macd(constant) == 0`` hold bit-exactly.

Every window sum an operator reads comes from ``_window_sums``, the one
place window sums are shared.  It keeps each sum on its signal, so a
read-only signal's ``S_k`` is computed once per signal and window: MACD,
the averages and the identity checks, which call these public operators,
share it on one input.  The memo holds at most ``_MEMO_WINDOWS`` (8)
arrays of at most ``n`` floats per live signal and evicts the least
recently used window first.  It uses only single dict operations, each
atomic under the GIL, so threads sharing a signal can at worst compute one
sum twice, never raise or read a wrong one.  A miss calls the module's
``sliding_sums`` by name, so a wrapper on that name (a tracer, say) sees
every sum that is computed; public ``sliding_sums`` keeps no memo.

The averages, MACD, ``_box_terms`` and ``delay`` are finite by
construction and wrap their fresh (or read-only) arrays with no copy;
``windowed_derivative``, whose quotient can overflow, builds its result
through the checked constructor.
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

    Output ``j`` is the sum of ``values[j : j + k]``, doubled up over the
    binary digits of ``k`` from the top: each digit doubles the width ``w``
    with the width-``w`` sums ``w`` samples on, and a set digit adds one more
    sample.  Each output is a sum tree ``bit_length(k) + popcount(k) - 2``
    adds deep, within ``(bit_length(k) + popcount(k)) * eps * sum(|window|)``
    of exact, and the same float for every window of a constant input.  Two
    ``n - 1`` buffers take turns, about ``2n`` floats of temporaries; ``k = 1``
    returns a copy.  A window sum that overflows float64 raises ``ValueError``,
    and so does a partial sum (``[1e308, 1e308, -1e308, -1e308]`` at ``k = 4``).
    """
    k = window_size(k)
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    _check_length(n, k, "window sums")
    bufs = [np.empty(n - 1), np.empty(n - 1)]
    sums, w, turn = values, 1, 0
    with np.errstate(over="ignore", invalid="ignore"):
        for digit in bin(k)[3:]:
            for addend, width in [(sums, w)] + [(values, 1)] * (digit == "1"):
                out = bufs[turn][: n - w - width + 1]
                sums = np.add(sums[: out.size], addend[w : w + out.size], out=out)
                w, turn = w + width, 1 - turn
    # A non-finite partial sum stays non-finite in every window it enters.
    if not np.isfinite(sums).all():
        raise ValueError(WINDOW_SUM_OVERFLOW)
    return sums if k > 1 else sums.copy()


# Windows a signal keeps: the 6 distinct input sums run_checks can ask for
# (w, lw, w + lw, b, n*b, (n+1)*b) plus room for the caller's own operators.
_MEMO_WINDOWS = 8


def _window_sums(signal: UniformSignal, k: int) -> np.ndarray:
    """``sliding_sums(signal.values, k)``, computed once per signal and kept read-only.

    The signal's memo is a dict in recency order.  A hit pops and re-inserts
    its window; once it holds more than ``_MEMO_WINDOWS``, the oldest key of a
    snapshot is dropped.  Each step is one dict operation, so a concurrent
    caller can only miss and compute the same sum again.
    """
    memo = signal._sums
    sums = memo.pop(k, None)
    if sums is None:
        sums = sliding_sums(signal.values, k)
        sums.flags.writeable = False
    memo[k] = sums
    while len(memo) > _MEMO_WINDOWS:
        memo.pop(next(iter(memo.copy())), None)
    return sums


def _box_terms(signal: UniformSignal, what: str, *sides) -> list[UniformSignal]:
    """One signal per side, ``sum(c * mean_k(i - lag) for c, k, lag in side)``.

    ``mean_k(i)`` is the mean of the ``k`` samples ending at sample ``i``.
    Every side's output 0 sits at input index ``span - 1``, with ``span`` the
    largest ``k + lag`` over all sides, so ``what`` needs ``span`` samples.
    Each distinct ``k`` reads one window sum of ``signal``, shared by the sides.
    """
    terms = [term for side in sides for term in side]
    span = max(k + lag for _, k, lag in terms)
    signal.require(span, what)
    means = {k: _window_sums(signal, k) / k for k in {k for _, k, _ in terms}}
    t0 = signal.t0 + (span - 1) * signal.dt
    out = []
    try:
        with np.errstate(over="raise"):
            for side in sides:
                acc = np.zeros(len(signal) - span + 1)
                for c, k, lag in side:
                    acc += c * means[k][span - k - lag : means[k].size - lag]
                out.append(UniformSignal._wrap(t0, signal.dt, acc))
    except FloatingPointError:
        raise ValueError(WINDOW_SUM_OVERFLOW) from None
    return out


def right_avg(signal: UniformSignal, w: int) -> UniformSignal:
    """Trailing (causal) box average over the last ``k`` samples.

    Output sample ``j`` is the mean of ``values[j : j + k]``; it is anchored
    at the time of input sample ``j + k - 1``, so a sample of the output and
    the input sample at the same timestamp share the window's right endpoint.
    The result is ``k - 1`` samples shorter than the input.
    """
    k = window_size(w)
    signal.require(k, f"a {k}-sample average")
    return UniformSignal._wrap(signal.t0 + (k - 1) * signal.dt, signal.dt,
                               _window_sums(signal, k) / k)


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
    return UniformSignal._wrap(trailing.t0 - (k // 2) * trailing.dt, trailing.dt, trailing.values)


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
    and cancels bit-exactly on constant signals.  Where the difference of two
    finite window sums overflows float64, each sum is halved first, so the
    value stays finite.  Defined from input index ``2k - 1`` onward.
    """
    k = window_size(a)
    signal.require(2 * k, f"a {k}/{2 * k}-sample average difference")
    sums = _window_sums(signal, k)
    try:
        with np.errstate(over="raise"):
            out = (sums[k:] - sums[:-k]) / (2 * k)
    except FloatingPointError:
        out = sums[k:] / (2 * k) - sums[:-k] / (2 * k)
    return UniformSignal._wrap(signal.t0 + (2 * k - 1) * signal.dt, signal.dt, out)


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
    return UniformSignal._wrap(signal.t0 + lag * signal.dt, signal.dt, signal.values[:-lag])


def windowed_derivative(signal: UniformSignal, w: int) -> UniformSignal:
    """Lag-``k`` difference quotient ``(f(i) - f(i-k)) / (k*dt)``.

    For any signal that is itself a trailing ``k``-average this equals the
    exact rate of change of that average in the piecewise-constant model,
    so derivative-form identities hold with no truncation error.
    """
    k = window_size(w)
    signal.require(k + 1, f"a lag-{k} difference quotient")
    with np.errstate(over="ignore", invalid="ignore"):
        out = (signal.values[k:] - signal.values[:-k]) / (k * signal.dt)
    return UniformSignal(signal.t0 + k * signal.dt, signal.dt, out)
