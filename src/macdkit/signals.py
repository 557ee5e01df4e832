"""Uniformly sampled signals, averaging windows and alignment helpers.

Every operator in this package consumes and produces :class:`UniformSignal`
values.  Operators shrink the valid index range instead of padding, and the
output carries an explicit ``t0`` so that the index-to-time mapping survives
arbitrary composition: signals derived from one input re-align by start time,
except at an epoch ``t0``: at ``1.7e9`` with ``dt = 1e-3``, six of the seven
checks raise "signals are not grid-aligned" (ROADMAP item 2).

The public constructor copies and validates its values, so a signal never
shares a buffer its caller can still write.  Every signal the library
derives goes through the private no-copy ``UniformSignal._wrap`` instead:
operator results, kernel applies and the classifier's ``a + b`` window.
Their values are samples already checked, or fresh float64 arrays finite by
construction (a window sum that would overflow raises first), so a derived
signal may share a read-only buffer with another, as a centered average
does with the trailing one and a delay with its input.  A result that can
overflow, such as a difference quotient or a convolution, is wrapped
``checked``: the constructor names its first non-finite sample.

Because a signal's values never change, each signal also keeps the window
means the operators took of it, each window sum divided by ``k`` once.  That
memo is the only way window sums are shared: the identity checks call the
public operators, so operators and checks on one input take each
``(signal, k)`` mean once.  :func:`~macdkit.operators._window_means` alone
fills and reads it: at most 8 windows, least recently used evicted first,
read-only arrays, and only single dict operations, so threads that share a
signal can at worst compute a mean twice.  A missing mean grows from one
kept power-of-two mean where that is exact, and is otherwise one call of
``operators.sliding_sums``, looked up by name, divided in place.  Next to
the memo, :func:`~macdkit.operators.macd` keeps its latest result in one
read-only slot, so the checks that read the same MACD again share it.  A
signal also keeps ``max|x|`` and its least nonzero ``|x|``, each found once.
``max|x|`` scales the default tolerance of the classifier and the
monotonicity scan, and is the infinity-norm bound's denominator; it and the
least ``|x|`` together say where a mean may grow exactly.

A window is a plain ``int``, its sample count ``k``; its length ``k * dt``
is worked out from the signal's own ``dt`` wherever a formula needs it.
Every layer validates a window with :func:`window_size`, and a lag with
:func:`lag_size`, so a bad window or lag raises the same error from an
operator, a check, a kernel or a stream.  A window sum that overflows
float64 raises the one ``WINDOW_SUM_OVERFLOW`` error in batch and stream.
"""

import numbers
from functools import cached_property

import numpy as np

__all__ = [
    "UniformSignal",
    "ExpansionSpec",
    "InsufficientSamplesError",
    "sample_offset",
    "aligned_values",
]


class InsufficientSamplesError(ValueError):
    """Signal too short for the requested window / lag combination."""

    def __init__(self, message: str, required: int):
        super().__init__(message)
        self.required = required


WINDOW_SUM_OVERFLOW = "window sum overflows float64: sample magnitudes are too large"


def _check_length(n: int, required: int, what: str) -> None:
    if n < required:
        raise InsufficientSamplesError(
            f"insufficient samples for {what}: signal has {n}, needs at least {required}",
            required=required,
        )


class _Frozen:
    """Refuses assignment and deletion, as a frozen dataclass does, with its error.

    A subclass sets its attributes once, through ``vars(self)``; a cached
    property writes there too.
    """

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


class UniformSignal(_Frozen):
    """A finite, uniformly sampled real-valued series.

    Sample ``i`` represents time ``t0 + i * dt``.  Values are stored as an
    immutable 1-D float64 array (a scalar is one sample, and an array of more
    dimensions is rejected); a ``t0`` or ``dt`` that is not a finite real
    number (a bool is not one), and a non-finite sample or last sample time
    ``t0 + (n - 1) * dt``, is rejected at construction rather than
    propagated.  Derived signals never start after their input's last sample.

    Equality is identity, as the values are an array, and ``repr`` shows
    ``t0`` and ``dt``.  A signal also holds a private memo of its window
    means and a slot for its latest MACD (private, so they take no part in
    ``repr``): 8 means plus one MACD, read-only arrays of at most ``n``
    floats each, ``72 * n`` bytes per live signal, and ``max|x|`` and the
    least nonzero ``|x|`` once something asks for them.
    """

    t0: float
    dt: float
    values: np.ndarray

    def __init__(self, t0: float, dt: float, values: np.ndarray):
        vals = _one_dimensional(np.array(values, dtype=np.float64, ndmin=1), "values")
        if vals.size < 1:
            raise ValueError("signal needs at least one sample")
        _step(dt)
        if not _real(t0) or not -np.inf < t0 < np.inf:
            raise ValueError(f"t0 must be finite, got {t0}")
        if not abs(t0 + (vals.size - 1) * dt) < np.inf:
            raise ValueError(f"last sample time {t0} + {vals.size - 1}*{dt} overflows")
        if not np.all(np.isfinite(vals)):
            raise _non_finite(vals)
        self._set(t0, dt, vals)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(t0={self.t0!r}, dt={self.dt!r})"

    def _set(self, t0: float, dt: float, values: np.ndarray) -> None:
        """Set ``t0``, ``dt``, ``values``, an empty memo and an empty MACD slot; ``values``
        turns read-only.

        The slot ``_macd`` is ``(k, values)`` of the latest ``macd`` taken,
        and ``(0, None)`` until one is: no window has 0 samples.
        """
        values.flags.writeable = False
        vars(self).update(t0=float(t0), dt=float(dt), values=values, _means={}, _macd=(0, None))

    @classmethod
    def _wrap(cls, t0: float, dt: float, values: np.ndarray, checked=False) -> "UniformSignal":
        """A signal over ``values`` with no copy and no check; ``values`` turns read-only.

        Only for a finite 1-D float64 array that nothing else writes, with
        ``dt`` already positive and finite, as an operator's fresh result is:
        the window means the signal keeps are valid only while it is unchanged.
        With ``checked``, a non-finite result goes to the public constructor.
        """
        if checked and not np.isfinite(values).all():
            return cls(t0, dt, values)
        sig = object.__new__(cls)
        sig._set(t0, dt, values)
        return sig

    @cached_property
    def _peak(self) -> float:
        """``max|values|``, found once per signal by ``_max_abs``."""
        return _max_abs(self.values)

    @cached_property
    def _floor(self) -> float:
        """The least nonzero ``|value|``, found once per signal; ``inf`` if every value is zero."""
        mags = np.abs(self.values)
        return float(mags.min(where=mags > 0, initial=np.inf))

    def __len__(self) -> int:
        return int(self.values.size)

    def times(self) -> np.ndarray:
        """Sample timestamps ``t0 + i*dt``."""
        return self.t0 + self.dt * np.arange(self.values.size)

    def with_values(self, values: np.ndarray) -> "UniformSignal":
        """New signal with ``values``, on the same grid from the same ``t0``."""
        return UniformSignal(self.t0, self.dt, values)

    def require(self, n: int, what: str) -> None:
        """Raise :class:`InsufficientSamplesError` unless at least ``n`` samples."""
        _check_length(len(self), n, what)


def _one_dimensional(values: np.ndarray, name: str) -> np.ndarray:
    """``values``, an array of at least one dimension, unless it has more than one.

    ``name`` is what the error calls the array.
    """
    if values.ndim > 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {values.shape}")
    return values


def _non_finite(values: np.ndarray) -> ValueError | None:
    """The error naming the first non-finite sample of ``values``, or ``None`` if all are finite."""
    bad = np.flatnonzero(~np.isfinite(values))
    return ValueError(f"non-finite value at sample {bad[0]}") if bad.size else None


def _max_abs(values: np.ndarray) -> float:
    """``max|values|`` as ``max(|max values|, |min values|)``: two passes, no temporary array."""
    return float(max(abs(values.max()), abs(values.min())))


def _real(value) -> bool:
    """Whether ``value`` is a real number and not a bool, as ``t0``, ``dt``, a tolerance and a
    norm order must be; a bool would pass for 0 or 1, and a string fail to compare."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _step(dt) -> float:
    """Every time step's one check: ``dt``, a real number (not a bool), positive and finite."""
    if not _real(dt) or not 0 < dt < np.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    return float(dt)


def _count(value, what: str, least: int = 1) -> int:
    """Every count argument's one check: ``value``, an integer (not a bool) >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{what}, got {value!r}")
    return int(value)


def window_size(k, *, even: bool = False) -> int:
    """The sample count of window ``k``, which must be a positive integer.

    ``even`` also requires an even count, as a centered window does.
    """
    k = _count(k, "window needs a positive integer sample count")
    if even and k % 2 != 0:
        raise ValueError(f"centered window must have an even sample count, got {k}")
    return k


def lag_size(lag) -> int:
    """The sample count of delay ``lag``, which must be a non-negative integer."""
    return _count(lag, "lag needs a non-negative integer sample count", 0)


class ExpansionSpec(_Frozen):
    """Term count ``n`` and block window ``b`` (samples) of the delayed-derivative expansion.

    The long window is ``a = n * b`` samples, and the term weights
    ``2i / (n(n+1))`` for ``i = 1..n`` sum to one.  Two specs are equal, and
    hash alike, when their ``(n, b)`` are.
    """

    n: int
    b: int

    def __init__(self, n: int, b: int):
        vars(self).update(n=_count(n, "term count must be a positive integer"), b=window_size(b))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(n={self.n!r}, b={self.b!r})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.n, self.b) == (other.n, other.b)

    def __hash__(self) -> int:
        return hash((self.n, self.b))

    @property
    def a(self) -> int:
        """The long window, ``n * b`` samples."""
        return self.n * self.b

    @property
    def weights(self) -> tuple[float, ...]:
        n = self.n
        return tuple(2.0 * i / (n * (n + 1)) for i in range(1, n + 1))

    @classmethod
    def of(cls, n: int, kb: int, dt: float) -> "ExpansionSpec":
        """``ExpansionSpec(n, kb)``; ``dt`` is unused, as windows are sample counts."""
        return cls(n, kb)


def sample_offset(sig: UniformSignal, reference: UniformSignal) -> int:
    """Integer number of samples by which ``sig`` starts after ``reference``.

    Both signals must share the sample spacing and start on the same grid;
    operators guarantee this for anything derived from a common input.
    """
    if abs(sig.dt - reference.dt) > 1e-12 * max(sig.dt, reference.dt):
        raise ValueError(f"sample spacings differ: {sig.dt} vs {reference.dt}")
    raw = (sig.t0 - reference.t0) / reference.dt
    offset = round(raw)
    if abs(raw - offset) > 1e-6:
        raise ValueError(f"signals are not grid-aligned (offset {raw} samples)")
    return int(offset)


def aligned_values(*signals: UniformSignal) -> tuple[np.ndarray, ...]:
    """Trim signals to their common time range and return the value arrays.

    Raises if the overlap is empty.  The returned arrays all have the same
    length and index ``j`` refers to the same instant in every one of them.
    """
    if not signals:
        raise ValueError("need at least one signal")
    base = signals[0]
    offsets = [sample_offset(s, base) for s in signals]
    start = max(offsets)
    stop = min(off + len(s) for off, s in zip(offsets, signals))
    if stop <= start:
        raise ValueError("signals have no overlapping samples")
    return tuple(
        s.values[start - off : stop - off] for off, s in zip(offsets, signals)
    )
