"""Explicit FIR kernels for every operator and their composition algebra.

Each operator in :mod:`macdkit.operators` is linear and time-invariant, so it
has a finite impulse response: one weight per integer sample lag (0 = current
sample, positive = past, negative = future).  A :class:`KernelRep` is its first
lag and one dense, read-only float64 array over every lag it spans, zeros
included: 8 bytes per spanned lag.  Every kernel comes from one recursion on
``(first lag, weights)`` pairs, whose base cases write the three shapes once:
a ``1/k`` box (at lag 0, or ``-k/2`` centered), a delay's single 1 and a
difference quotient's ``+q, 0, ..., 0, -q``.  Composition is
:func:`numpy.convolve`, a sum adds the weights aligned on their lags and
scaling multiplies them.  Lags are int64: a kernel whose lags do not fit
raises "kernel lags must fit int64".

A composed kernel's taps, and :func:`apply_kernel`'s direct path, are sums
that numpy takes through BLAS ``ddot``, whose summation order follows the
kernel OpenBLAS picks for the CPU, so their last bits can depend on the CPU.
Every named kernel but the triangle has at most one nonzero product per
tap, so its bytes do not.  ``tests/test_cli_bytes.py`` reads one convolved
kernel, ``spectrum triangle -k 5``, the same on OpenBLAS's Haswell, Zen,
SkylakeX, Sandybridge and Prescott kernels.

:func:`apply_kernel` reads the kernel's structure from its weights alone.
A kernel of one or two runs of equal nonzero weights (every named kernel
but the triangle) is a sum of delayed box averages, evaluated from the
signal's window means like the operators; the self-convolved box is the double
average; anything else takes one valid-mode :func:`numpy.convolve`.  Every
path must agree with the direct operator evaluation on any signal.

Descriptions are nested tuples:

    ("avg", k)            trailing box average over k samples
    ("centered", k)       centered box average (k even) on lags -k/2..k/2-1
    ("delay", L)          shift L samples into the past
    ("deriv", k)          lag-k difference quotient, scaled by 1/(k*dt)
    ("scale", alpha, d)   alpha times the kernel of d
    ("compose", d1, ...)  operator composition (kernel convolution)
    ("sum", d1, ...)      pointwise sum of kernels
    ("diff", d1, d2)      d1 minus d2

A stage with another number of arguments, or a scale factor that is not a
real number (a bool included), raises "malformed kernel description", as
does anything but a tuple or a ``KernelRep``.  A tuple whose head names no
stage raises "unknown kernel stage", and a composition or sum of nothing
"empty composition".
Averaging compositions have weights summing to 1, difference kernels to 0.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .operators import _box_terms, double_right_avg
from .signals import (ExpansionSpec, UniformSignal, _one_dimensional, _step, lag_size,
                      window_size)

__all__ = [
    "KernelRep",
    "build_kernel",
    "apply_kernel",
    "box_kernel",
    "macd_kernel",
    "triangular_kernel",
    "smoothed_derivative_kernel",
    "expansion_kernel",
]


@dataclass(frozen=True, eq=False, init=False)
class KernelRep:
    """FIR kernel: dense weights on the consecutive lags from ``first`` on.

    ``KernelRep(offsets, weights)`` takes strictly increasing integer lags
    that fit int64, with one weight each, as 1-D sequences or scalars, and
    stores the zero-filled span between them.
    Equality is identity, as the weights are an array.
    """

    first: int
    weights: np.ndarray = field(repr=False)
    scale_note: str = ""

    def __init__(self, offsets, weights, scale_note: str = ""):
        lags = _one_dimensional(np.array(offsets, ndmin=1), "offsets")
        w = _one_dimensional(np.array(weights, dtype=np.float64, ndmin=1), "weights")
        if lags.size == 0:
            raise ValueError("kernel needs at least one tap")
        if lags.dtype.kind not in "iu":
            raise ValueError(f"offsets must be integer lags, got {lags.dtype.name}")
        if lags.size != w.size:
            raise ValueError("offsets and weights must have the same length")
        if lags.dtype == np.uint64 and lags.max() >= 2**63:
            raise ValueError(f"offsets must fit int64, got {lags.max()}")
        lags = lags.astype(np.int64)
        if np.any(np.diff(lags) <= 0):
            raise ValueError("offsets must be strictly increasing")
        if not np.all(np.isfinite(w)):
            raise ValueError("kernel weights must be finite")
        first = int(lags[0])
        dense = np.zeros(int(lags[-1]) - first + 1)
        dense[lags - first] = w
        dense.flags.writeable = False
        vars(self).update(first=first, weights=dense, scale_note=scale_note)

    @property
    def offsets(self) -> tuple[int, ...]:
        """Every lag the kernel spans, ``first`` to ``first + len(weights) - 1``."""
        return tuple(range(self.first, self.first + self.weights.size))


def box_kernel(k: int) -> KernelRep:
    """Trailing box average of ``k`` samples: weight ``1/k`` on lags 0..k-1."""
    return _kernel(("avg", k), f"avg k={k}")


def macd_kernel(k: int) -> KernelRep:
    """Difference of ``k``- and ``2k``-sample box averages, expanded.

    The two box kernels combine into ``+1/(2k)`` on the ``k`` most recent
    lags and ``-1/(2k)`` on the ``k`` lags before those (exactly, as
    ``1/k - 1/(2k)`` rounds to ``1/(2k)``); the weights sum to zero, so
    constants are rejected analytically.
    """
    return _kernel(("diff", ("avg", k), ("avg", 2 * k)), f"macd k={k}")


def triangular_kernel(k: int) -> KernelRep:
    """Self-convolution of the ``k``-sample box: the double-average kernel."""
    return _kernel(("compose", ("avg", k), ("avg", k)), f"triangle k={k}")


def smoothed_derivative_kernel(k: int) -> KernelRep:
    """Rate of change of the double ``k``-average, times half a window length.

    Differentiating the outer average of the double average leaves the
    lag-``k`` difference quotient of the inner average, so the kernel is the
    difference-quotient kernel convolved with a single box, scaled by
    ``k/2`` (any spacing cancels: ``k*dt/2`` times the quotient's ``1/(k*dt)``).
    In exact arithmetic it is :func:`macd_kernel`.  Its float taps are a
    product of two roundings scaled by ``k/2``, so at some ``k`` (5, 10, 19,
    ...; 261 of k = 1...1100) a tap sits one ulp from ``macd_kernel``'s
    ``+-1/(2k)``, which is rounded once.
    """
    k = window_size(k)
    return _kernel(("scale", k / 2.0, ("compose", ("deriv", k), ("avg", k))),
                   f"smoothed-deriv k={k}")


def expansion_kernel(n: int, kb: int) -> KernelRep:
    """Kernel of the ``n``-term delayed-derivative expansion with block ``kb``.

    The weighted sum over ``i = 1..n`` of :attr:`ExpansionSpec.weights` times
    the smoothed difference quotient of the block average delayed by
    ``(i-1)*kb`` samples, all scaled by half a block length, telescopes to
    the difference of the ``n*kb``- and ``(n+1)*kb``-sample box kernels.  It
    is built as that difference, so its weights are two exact runs.
    """
    spec = ExpansionSpec(n, kb)
    return _kernel(("diff", ("avg", spec.a), ("avg", spec.a + spec.b)), f"expansion n={n} kb={kb}")


def build_kernel(description, dt: float = 1.0) -> KernelRep:
    """Build the FIR kernel of a composed operator description.

    See the module docstring for the description grammar.  ``dt`` only
    enters through difference-quotient stages, but any ``dt`` is checked as
    ``UniformSignal`` checks it: positive and finite.
    """
    return _kernel(description, _describe(description), _step(dt))


def _kernel(description, note: str, dt: float = 1.0) -> KernelRep:
    lo, w = _dense(description, dt)
    if not -2**63 <= lo <= 2**63 - w.size:
        raise ValueError(f"kernel lags must fit int64, got {lo}..{lo + w.size - 1}")
    return KernelRep(lo + np.arange(w.size), w, note)


def _dense(description, dt: float) -> tuple[int, np.ndarray]:
    """(first lag, contiguous weights) of a description."""
    match description:
        case KernelRep():
            return description.first, description.weights
        case tuple([("avg" | "centered") as head, k]):
            k = window_size(k, even=head == "centered")
            return -(k // 2) if head == "centered" else 0, np.full(k, 1.0 / k)
        case tuple(["delay", lag]):
            return lag_size(lag), np.ones(1)
        case tuple(["deriv", k]):
            k = window_size(k)
            w = np.zeros(k + 1)
            w[[0, -1]] = 1.0 / (k * dt), -1.0 / (k * dt)
            return 0, w
        case tuple(["scale", numbers.Real() as alpha, inner]) if not isinstance(alpha, bool):
            lo, w = _dense(inner, dt)
            return lo, alpha * w
        case tuple([("compose" | "sum") as head, *parts]):
            if not parts:
                raise ValueError("empty composition")
            step = _add if head == "sum" else lambda a, b: (a[0] + b[0], np.convolve(a[1], b[1]))
            return reduce(step, [_dense(part, dt) for part in parts])
        case tuple(["diff", d1, d2]):
            return _dense(("sum", d1, ("scale", -1.0, d2)), dt)
        case tuple([head, *_]) if head not in ("avg", "centered", "delay", "deriv", "scale",
                                                "diff"):
            raise ValueError(f"unknown kernel stage: {head!r}")
    raise ValueError(f"malformed kernel description: {description!r}")


def _add(a: tuple[int, np.ndarray], b: tuple[int, np.ndarray]) -> tuple[int, np.ndarray]:
    (lo_a, w_a), (lo_b, w_b) = a, b
    lo = min(lo_a, lo_b)
    w = np.zeros(max(lo_a + w_a.size, lo_b + w_b.size) - lo)
    w[lo_a - lo : lo_a - lo + w_a.size] += w_a
    w[lo_b - lo : lo_b - lo + w_b.size] += w_b
    return lo, w


def _describe(description) -> str:
    if isinstance(description, KernelRep):
        return description.scale_note
    if isinstance(description, tuple):
        return "(" + " ".join(map(_describe, description)) + ")"
    return str(description)


def apply_kernel(kernel: KernelRep, signal: UniformSignal) -> UniformSignal:
    """Evaluate a kernel on a signal, by the structure of its weights.

    The output covers exactly the indices where every tap lands inside the
    input, matching the valid-range convention of the direct operators.  The
    taps span lags ``min(first, 0)..max(last, 0)``, zero-padded, so a
    delay-only or advance-only kernel keeps the current sample's index in
    that range.  One of three evaluations, chosen from the weights alone:

    * *Box runs*, when the kernel has one or two runs of equal nonzero
      weights (zero runs between them are free).  A run of ``L`` weights
      ``w`` from lag ``g`` is the box term ``(w*L, L, g)``, and both runs go
      through one ``_box_terms`` call, which reads the signal's kept window
      means.  Every named kernel but the triangle takes this path.
    * *The double average*, when the weights are bit for bit the ``m``-sample
      box convolved with itself, from lag 0: ``double_right_avg(signal, m)``,
      byte-equal to it.
    * *Direct convolution*, one valid-mode :func:`numpy.convolve`, otherwise.

    Box runs and the double average raise the operators'
    ``WINDOW_SUM_OVERFLOW`` where a window sum overflows.  A convolution
    that overflows, or a kernel of one-sample runs only (a delay or a
    difference quotient, which take no window sum), raises the
    constructor's "non-finite value at sample j", as
    :func:`~macdkit.operators.windowed_derivative` does.
    """
    first, w = kernel.first, kernel.weights
    last = first + w.size - 1
    ahead, lo = min(first, 0), max(last, 0)
    what = f"kernel '{kernel.scale_note}'"
    signal.require(lo - ahead + 1, what)
    t0, length = signal.t0 + lo * signal.dt, len(signal) - lo + ahead
    starts = np.concatenate(([0], np.flatnonzero(np.diff(w)) + 1))
    runs = np.diff(starts, append=w.size)
    levels = w[starts]
    boxes = levels != 0
    with np.errstate(over="ignore"):
        coefs = levels * runs  # inf where a run's total weight overflows
    if 0 < np.count_nonzero(boxes) <= 2 and np.isfinite(coefs).all():
        # Box lags shift by -ahead >= 0.  The side ends where the kernel's
        # range ends, and starts earlier where its last lags weigh zero or
        # lie in the future.
        terms = list(zip(coefs[boxes].tolist(), runs[boxes].tolist(),
                         (starts[boxes] + first - ahead).tolist()))
        try:
            side = _box_terms(signal, what, terms)
            return UniformSignal._wrap(t0, signal.dt, side.values[-length:])
        except ValueError:
            # One-sample runs sum no window: the convolution below finds
            # the sample whose weighted taps overflow.
            if (runs[boxes] > 1).any():
                raise
    m = (w.size + 1) // 2
    corner = (1.0 / m) * (1.0 / m)
    # The corners are one product each, so they screen before the m-tap build.
    if first == 0 and w.size % 2 and w[0] == w[-1] == corner and np.array_equal(
            w, _dense(("compose", ("avg", m), ("avg", m)), 1.0)[1]):
        return UniformSignal._wrap(t0, signal.dt, double_right_avg(signal, m).values)
    taps = np.pad(w, (first - ahead, lo - last))
    return UniformSignal._wrap(t0, signal.dt, np.convolve(signal.values, taps, mode="valid"),
                               checked=True)
