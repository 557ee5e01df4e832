"""Trailing, centered and double box averages, MACD and exact derivatives.

All operators are pure functions on :class:`~macdkit.signals.UniformSignal`.
The continuous average over the trailing interval is realized as the
arithmetic mean of the ``k`` most recent samples (the signal is treated as
piecewise-constant on sample cells), which makes every algebraic relation
between the operators exact rather than merely first-order in ``dt``.
Every window argument is that sample count ``k``, a plain ``int`` checked
by :func:`~macdkit.signals.window_size`.

Window sums take one vectorised path for every window length: the dyadic
tree of ``k``, power-of-two levels by doubling and a window ``2**m + r`` as
its top level plus the ``r``-window ``2**m`` samples on, about ``log2(k)``
whole-array adds in at most two buffers of at most ``n - 1`` floats, whose
pairwise sums err by ``O(log k)`` ulps of the window's absolute sum.  Every output takes the
same adds, so on a constant signal all window sums are the same float, and
so are all window means, which is what makes e.g. ``macd(constant) == 0``
hold bit-exactly.

Every window mean an operator reads comes from ``_window_means``, the one
place window sums are shared.  It keeps each mean ``A_k = S_k / k`` on its
signal, divided once, so a read-only signal's ``A_k`` is computed once per
signal and window: MACD, the averages and the identity checks, which call
these public operators, share it on one input, and so do kernels applied by
their box runs.  The memo holds at most ``_MEMO_WINDOWS`` (8) arrays of at
most ``n`` floats per live signal and evicts the least recently used window
first.  It uses only single dict operations, each atomic under the GIL, so
threads sharing a signal can at worst compute one mean twice, never raise or
read a wrong one.  A miss grows its mean along the same tree from one
power-of-two mean the signal keeps, by plain adds and one divide, where
every power-of-two scaling of its partial sums is exact, so the result is
byte-equal to the window sums divided by ``k`` whatever the memo holds.
Otherwise it is one call of the module's ``sliding_sums``, looked up by
name: a wrapper on that name (a tracer, say) sees every window a signal
sums afresh.
Public ``sliding_sums`` keeps no memo.  Next to the memo, ``macd`` keeps its
latest result in one read-only slot on the signal, so the checks that read
MACD again at the same window, the two derivative forms and the three norm
orders, take it once; another window replaces it.

The averages, MACD, ``_box_terms`` and ``delay`` are finite by
construction and wrap their fresh (or read-only) arrays with no copy;
``windowed_derivative``, whose quotient can overflow, wraps its result
only once it is finite, and sends any other to the checked constructor.
"""

from __future__ import annotations

import numpy as np

from .signals import (WINDOW_SUM_OVERFLOW, UniformSignal, _check_length, _non_finite,
                      _one_dimensional, lag_size, window_size)

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

    Output ``j`` is the sum of ``values[j : j + k]``, over the dyadic tree of
    ``k``: doubling gives the power-of-two levels, each width-``2w`` sum the
    width-``w`` sum plus the one ``w`` samples on, and a window ``2**m + r``
    is its top level plus the ``r``-window sum ``2**m`` samples on, that one
    built the same way from the lower set digits.  Each output is a sum tree
    at most ``bit_length(k) + popcount(k) - 2`` adds deep, within
    ``(bit_length(k) + popcount(k)) * eps * sum(|window|)`` of exact, and the
    same float for every window of a constant input.  The adds write at most
    two buffers of at most ``n - 1`` floats in place: numpy gives a ufunc whose operands
    overlap the result it would give without the overlap, and as each add
    reads only sums at or ahead of the one it writes, it needs no copy for
    that.  The finiteness check takes no mask, and ``k = 1`` returns a copy.
    The result is a fresh writable array.  A window sum that overflows
    float64 raises ``ValueError``, and so does a partial sum
    (``[1e308, 1e308, -1e308, -1e308]`` at ``k = 4``).  ``values`` is
    checked as :class:`~macdkit.signals.UniformSignal` checks it, with the
    same text: a scalar is one sample, more than one dimension is rejected,
    and a NaN or infinite sample, found only once a sum is not finite, is
    named by its index.
    """
    k = window_size(k)
    values = _one_dimensional(np.atleast_1d(np.asarray(values, dtype=np.float64)), "values")
    _check_length(values.size, k, "window sums")
    with np.errstate(over="ignore", invalid="ignore"):
        sums = _dyadic_sums(values, 1, k)
    # A non-finite partial sum stays non-finite in every window it enters,
    # so it shows in the least or the greatest sum: a non-finite sample, or
    # finite ones whose sums overflow.
    if not (np.isfinite(sums.min()) and np.isfinite(sums.max())):
        raise _non_finite(values) or ValueError(WINDOW_SUM_OVERFLOW)
    return sums if k > 1 else sums.copy()


def _dyadic_sums(level: np.ndarray, w: int, k: int) -> np.ndarray:
    """``S_k / w``: the width-``k`` window sums over ``k``'s dyadic tree, from width ``w``.

    ``level`` holds the width-``w`` sums divided by ``w``, a power of two no
    larger than ``k``'s lowest set digit.  Every level doubles from it, so
    every array holds its sums divided by the same ``w`` and each step is a
    plain add.  The adds write at most two buffers, each as long as its
    first sums; the first set digit's sums take over the level's buffer
    rather than copy it.
    """
    top = 1 << k.bit_length() - 1
    low = level_buf = low_buf = None  # low: the sums over the set digits below w
    for t in (1 << j for j in range(k.bit_length()) if k >> j & 1):
        while w < t:
            m = level.size - w
            level_buf = np.empty(m) if level_buf is None else level_buf
            level = np.add(level[:m], level[w:], out=level_buf[:m])
            w *= 2
        if t == top:
            break
        if low is None:
            low, low_buf, level_buf = level, level_buf, None
        else:
            low_buf = np.empty(low.size - w) if low_buf is None else low_buf
            low = _add(level, low[w:], low_buf)
    if low is None:
        return level
    # Without a buffer of its own, low is the base, and level holds its
    # sums in level_buf at the very places the add writes.
    return _add(level, low[w:], level_buf if low_buf is None else low_buf)


def _add(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``a + b`` over the shorter of the two, into the front of ``out``.

    ``b`` may lie in ``out`` at or ahead of the sums it writes, and ``a``
    at the very sums it writes.
    """
    m = min(a.size, b.size)
    return np.add(a[:m], b[:m], out=out[:m])


# Windows a signal keeps: the 6 distinct input means run_checks can ask for
# (w, lw, w + lw, b, n*b, (n+1)*b) plus room for the caller's own operators.
_MEMO_WINDOWS = 8
_TINY = float(np.finfo(float).tiny)
_HALF_MAX = float(np.finfo(float).max) / 2


def _window_means(signal: UniformSignal, k: int) -> np.ndarray:
    """``sliding_sums(signal.values, k) / k``, computed once per signal and kept read-only.

    The signal's memo is a dict in recency order.  A hit pops and re-inserts
    its window; once it holds more than ``_MEMO_WINDOWS``, the oldest key of a
    snapshot is dropped.  A miss grows from the widest kept power-of-two
    mean ``A_w`` at most ``k``'s lowest set digit (and below ``k``) along
    ``k``'s tree, and divides once by ``k / w``.  ``A_w`` times ``w`` is the
    window sum bit for bit, so the result is ``sliding_sums(values, k) / k``
    byte for byte, provided that every power-of-two scaling of a partial
    sum is exact and finite: every nonzero ``|x|`` is at least ``k`` times
    the least normal float, so that every partial sum is a multiple of
    ``2**m`` times the least subnormal for the largest ``2**m <= k``, and
    ``k * max|x|`` is at most half the largest float.  Otherwise, or with no
    such mean kept, the miss is one ``sliding_sums`` call, divided by ``k``
    in place.  Each step is one dict operation, so a concurrent caller can
    only miss and compute the same mean again.
    """
    memo = signal._means
    means = memo.pop(k, None)
    if means is None:
        w = min(k & -k, k // 2)
        while w and (base := memo.get(w)) is None:
            w //= 2
        if w and k * signal._peak <= _HALF_MAX and k * _TINY <= signal._floor:
            means = _dyadic_sums(base, w, k)
            means /= k / w
        else:
            means = sliding_sums(signal.values, k)
            means /= k
        means.flags.writeable = False
    memo[k] = means
    while len(memo) > _MEMO_WINDOWS:
        memo.pop(next(iter(memo.copy())), None)
    return means


def _box_terms(signal: UniformSignal, what: str, terms: list) -> UniformSignal:
    """``sum(c * mean_k(i - lag) for c, k, lag in terms)``, one signal.

    ``mean_k(i)`` is the mean of the ``k`` samples ending at sample ``i``.
    Output 0 sits at input index ``span - 1``, with ``span`` the largest
    ``k + lag``, so ``what`` needs ``span`` samples; two calls whose terms
    reach equally far back start at the same sample.  Each distinct ``k``
    reads one kept mean of ``signal``, with no divide.  Each term is one
    product, added in the order given: the first is written into the output
    and each later one added to it.  A ``(1, -1)`` pair gives the bytes of
    ``a - b``, as a product by ``1`` or ``-1`` rounds nothing.
    """
    span = max(k + lag for _, k, lag in terms)
    signal.require(span, what)
    means = {k: _window_means(signal, k) for k in sorted({k for _, k, _ in terms})}
    parts = [(c, means[k][span - k - lag : means[k].size - lag]) for c, k, lag in terms]
    try:
        with np.errstate(over="raise"):
            out = np.multiply(*parts[0])
            for c, term in parts[1:]:
                out += c * term
    except FloatingPointError:
        raise ValueError(WINDOW_SUM_OVERFLOW) from None
    return UniformSignal._wrap(signal.t0 + (span - 1) * signal.dt, signal.dt, out)


def right_avg(signal: UniformSignal, w: int) -> UniformSignal:
    """Trailing (causal) box average over the last ``k`` samples.

    Output sample ``j`` is the mean of ``values[j : j + k]``; it is anchored
    at the time of input sample ``j + k - 1``, so a sample of the output and
    the input sample at the same timestamp share the window's right endpoint.
    The result is ``k - 1`` samples shorter than the input.  Its values are
    the mean the input keeps, read-only, with no copy and no divide.
    """
    k = window_size(w)
    signal.require(k, f"a {k}-sample average")
    return UniformSignal._wrap(signal.t0 + (k - 1) * signal.dt, signal.dt,
                               _window_means(signal, k))


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

    Evaluated as ``0.5 * (A(i) - A(i-k))`` with ``A`` the kept ``k``-sample
    mean, the paper's difference identity at ``a = b = k``.  It cancels
    bit-exactly on constant signals, and for a power-of-two ``k`` is
    byte-equal to ``(S(i) - S(i-k)) / (2k)`` from the window sums.
    ``apply_kernel(macd_kernel(k), signal)`` weighs the two means by
    ``(1/(2k)) * k``: byte-equal where that is 0.5, and within
    ``2 * eps * (|A(i)| + |A(i-k)|)`` where it is 0.49999999999999994, as
    at ``k = 49`` or ``98``.  Only a one-sample
    window's difference can overflow, as a finite mean is at most ``1/k`` of
    the largest float; there each mean is halved first, so the value stays
    finite.  Defined from input index ``2k - 1`` onward.

    The signal keeps its latest result, read-only, in one slot: another
    read at the same ``k`` shares that array and computes nothing, and a
    read at another ``k`` replaces it.  The slot is one attribute store, so
    threads sharing a signal can at worst compute one MACD twice.
    """
    k = window_size(a)
    signal.require(2 * k, f"a {k}/{2 * k}-sample average difference")
    kept, out = signal._macd
    if kept != k:
        means = _window_means(signal, k)
        try:
            with np.errstate(over="raise"):
                out = means[k:] - means[:-k]
                out *= 0.5
        except FloatingPointError:
            out = 0.5 * means[k:] - 0.5 * means[:-k]
        out.flags.writeable = False
        vars(signal)["_macd"] = (k, out)
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
    return UniformSignal._wrap(signal.t0 + k * signal.dt, signal.dt, out, checked=True)
