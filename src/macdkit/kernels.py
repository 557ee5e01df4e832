"""Explicit FIR kernels for every operator and their composition algebra.

Each operator in :mod:`macdkit.operators` is linear and time-invariant, so it
has a finite impulse response: a list of integer sample lags (0 = current
sample, positive = past, negative = future) with one weight per lag.
:func:`build_kernel` turns a small declarative description into that kernel
by recursing on dense ``(first lag, contiguous weights)`` pairs: composition
is :func:`numpy.convolve`, a sum adds the weights aligned on their lags and
scaling multiplies them.  :func:`apply_kernel` evaluates a kernel with one
valid-mode :func:`numpy.convolve`, which must agree with the direct operator
evaluation on any signal.

Descriptions are nested tuples:

    ("avg", k)            trailing box average over k samples
    ("centered", k)       centered box average (k even)
    ("delay", L)          shift L samples into the past
    ("deriv", k)          lag-k difference quotient, scaled by 1/(k*dt)
    ("scale", alpha, d)   alpha times the kernel of d
    ("compose", d1, ...)  operator composition (kernel convolution)
    ("sum", d1, ...)      pointwise sum of kernels
    ("diff", d1, d2)      d1 minus d2

Averaging compositions have weights summing to 1, difference kernels to 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .signals import ExpansionSpec, UniformSignal, lag_size, window_size

__all__ = [
    "KernelRep",
    "build_kernel",
    "apply_kernel",
    "box_kernel",
    "centered_box_kernel",
    "delay_kernel",
    "derivative_kernel",
    "macd_kernel",
    "triangular_kernel",
    "smoothed_derivative_kernel",
    "expansion_kernel",
]


@dataclass(frozen=True)
class KernelRep:
    """FIR kernel: strictly increasing integer lags with one weight each."""

    offsets: tuple[int, ...]
    weights: np.ndarray = field(repr=False)
    scale_note: str = ""

    def __post_init__(self):
        offs = tuple(int(o) for o in self.offsets)
        w = np.array(self.weights, dtype=np.float64, copy=True).reshape(-1)
        if len(offs) == 0:
            raise ValueError("kernel needs at least one tap")
        if len(offs) != w.size:
            raise ValueError("offsets and weights must have the same length")
        if any(b <= a for a, b in zip(offs, offs[1:])):
            raise ValueError("offsets must be strictly increasing")
        if not np.all(np.isfinite(w)):
            raise ValueError("kernel weights must be finite")
        w.flags.writeable = False
        object.__setattr__(self, "offsets", offs)
        object.__setattr__(self, "weights", w)

    @property
    def weight_sum(self) -> float:
        return float(self.weights.sum())

    @property
    def abs_weight_sum(self) -> float:
        return float(np.abs(self.weights).sum())

    def is_averaging(self, tol: float = 1e-14) -> bool:
        return abs(self.weight_sum - 1.0) <= tol

    def is_difference(self, tol: float = 1e-14) -> bool:
        return abs(self.weight_sum) <= tol

    def dense(self) -> tuple[int, np.ndarray]:
        """(first offset, contiguous weight array) over the full support."""
        lo, hi = self.offsets[0], self.offsets[-1]
        w = np.zeros(hi - lo + 1)
        w[np.asarray(self.offsets) - lo] = self.weights
        return lo, w


def box_kernel(k: int) -> KernelRep:
    """Trailing box average of ``k`` samples: weight ``1/k`` on lags 0..k-1."""
    k = window_size(k)
    return KernelRep(tuple(range(k)), np.full(k, 1.0 / k), f"avg k={k}")


def centered_box_kernel(k: int) -> KernelRep:
    """Centered box average of ``k`` samples (k even): lags -k/2..k/2-1.

    Matches the shifted-trailing-average convention: the tap window around
    index ``i`` covers samples ``i - k/2 + 1 .. i + k/2``.
    """
    k = window_size(k, even=True)
    h = k // 2
    return KernelRep(tuple(range(-h, h)), np.full(k, 1.0 / k), f"centered k={k}")


def delay_kernel(lag: int) -> KernelRep:
    """Pure delay of ``lag`` samples."""
    lag = lag_size(lag)
    return KernelRep((lag,), np.ones(1), f"delay {lag}")


def derivative_kernel(k: int, dt: float = 1.0) -> KernelRep:
    """Lag-``k`` difference quotient: ``(+1, -1) / (k*dt)`` on lags 0 and k."""
    k = window_size(k)
    q = 1.0 / (k * dt)
    return KernelRep((0, k), np.array([q, -q]), f"deriv k={k}")


def macd_kernel(k: int) -> KernelRep:
    """Difference of ``k``- and ``2k``-sample box averages, expanded.

    The two box kernels combine into ``+1/(2k)`` on the ``k`` most recent
    lags and ``-1/(2k)`` on the ``k`` lags before those; the weights sum to
    zero, so constants are rejected analytically.
    """
    k = window_size(k)
    q = 1.0 / (2 * k)
    w = np.concatenate([np.full(k, q), np.full(k, -q)])
    return KernelRep(tuple(range(2 * k)), w, f"macd k={k}")


def triangular_kernel(k: int) -> KernelRep:
    """Self-convolution of the ``k``-sample box: the double-average kernel."""
    return _kernel(("compose", ("avg", k), ("avg", k)), f"triangle k={k}")


def smoothed_derivative_kernel(k: int, dt: float = 1.0) -> KernelRep:
    """Rate of change of the double ``k``-average, times half a window length.

    Differentiating the outer average of the double average leaves the
    lag-``k`` difference quotient of the inner average, so the kernel is the
    difference-quotient kernel convolved with a single box, scaled by
    ``k*dt/2``.  It reproduces :func:`macd_kernel` exactly.
    """
    k = window_size(k)
    a = k * dt
    return _kernel(("scale", a / 2.0, ("compose", ("deriv", k), ("avg", k))),
                   f"smoothed-deriv k={k}", dt)


def expansion_kernel(n: int, kb: int, dt: float = 1.0) -> KernelRep:
    """Kernel of the ``n``-term delayed-derivative expansion with block ``kb``.

    Weighted sum over ``i = 1..n`` of :attr:`ExpansionSpec.weights` times
    the smoothed difference quotient of the block average delayed by
    ``(i-1)*kb`` samples, all scaled by half a block length.  Equals the
    difference of the ``n*kb``- and ``(n+1)*kb``-sample box kernels.
    """
    spec = ExpansionSpec(n, kb)
    b = kb * dt
    terms = [
        (
            "scale",
            w * (b / 2.0),
            ("compose", ("deriv", kb), ("delay", (i - 1) * kb), ("avg", kb)),
        )
        for i, w in enumerate(spec.weights, start=1)
    ]
    return _kernel(("sum", *terms), f"expansion n={n} kb={kb}", dt)


def build_kernel(description, dt: float = 1.0) -> KernelRep:
    """Build the FIR kernel of a composed operator description.

    See the module docstring for the description grammar.  ``dt`` only
    enters through difference-quotient stages.
    """
    return _kernel(description, _describe(description), dt)


def _kernel(description, note: str, dt: float = 1.0) -> KernelRep:
    lo, w = _dense(description, dt)
    return KernelRep(tuple(range(lo, lo + w.size)), w, note)


def _dense(description, dt: float) -> tuple[int, np.ndarray]:
    """(first lag, contiguous weights) of a description."""
    if isinstance(description, KernelRep):
        return description.dense()
    if not isinstance(description, tuple) or not description:
        raise ValueError(f"malformed kernel description: {description!r}")
    head = description[0]
    if head == "avg":
        return box_kernel(description[1]).dense()
    if head == "centered":
        return centered_box_kernel(description[1]).dense()
    if head == "delay":
        return delay_kernel(description[1]).dense()
    if head == "deriv":
        return derivative_kernel(description[1], dt).dense()
    if head == "scale":
        _, alpha, inner = description
        lo, w = _dense(inner, dt)
        return lo, alpha * w
    if head in ("compose", "sum"):
        parts = [_dense(part, dt) for part in description[1:]]
        if not parts:
            raise ValueError("empty composition")
        return reduce(_convolve if head == "compose" else _add, parts)
    if head == "diff":
        _, d1, d2 = description
        return _dense(("sum", d1, ("scale", -1.0, d2)), dt)
    raise ValueError(f"unknown kernel stage: {head!r}")


def _convolve(a: tuple[int, np.ndarray], b: tuple[int, np.ndarray]) -> tuple[int, np.ndarray]:
    return a[0] + b[0], np.convolve(a[1], b[1])


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
        return "(" + " ".join(_describe(p) if isinstance(p, (tuple, KernelRep)) else str(p)
                              for p in description) + ")"
    return str(description)


def apply_kernel(kernel: KernelRep, signal: UniformSignal) -> UniformSignal:
    """Evaluate a kernel on a signal by direct convolution.

    The output covers exactly the indices where every tap lands inside the
    input, matching the valid-range convention of the direct operators.  The
    taps span lags ``min(first, 0)..max(last, 0)``, zero-padded, so a
    delay-only or advance-only kernel keeps the current sample's index in
    that range.
    """
    ahead = min(kernel.offsets[0], 0)
    lo = max(kernel.offsets[-1], 0)
    span = lo - ahead + 1
    signal.require(span, f"kernel '{kernel.scale_note}'")
    taps = np.zeros(span)
    taps[np.asarray(kernel.offsets) - ahead] = kernel.weights
    out = np.convolve(signal.values, taps, mode="valid")
    return UniformSignal(signal.t0 + lo * signal.dt, signal.dt, out)
