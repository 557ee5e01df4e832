"""Brute-force reference implementations used only to pin expected values.

Everything here is a plain Python loop, over exact (fsum) window sums or over
CSV lines, or a closed form, kept deliberately independent of the numpy paths
in the package, or a copy of an earlier form that the package replaced
with a faster one of the same bytes.
"""

import math
import numbers
from collections import Counter
from fractions import Fraction

import numpy as np

from macdkit.kernels import KernelRep
from macdkit.signals import WINDOW_SUM_OVERFLOW, ExpansionSpec, _count


def naive_window_sums(values, k):
    """Exact (fsum) sum of each k-sample window."""
    return [math.fsum(values[i - k + 1 : i + 1]) for i in range(k - 1, len(values))]


def dyadic_window_sums(values, k):
    """Window sums over the dyadic tree of ``k``, one fresh list per add.

    Level ``2w`` is level ``w`` plus itself ``w`` samples on, from level 1,
    the values.  A window ``2**m + r`` is level ``2**m`` plus the ``r``-window
    sums, built the same way, ``2**m`` samples on.  The adds ``sliding_sums``
    makes, so its bytes are these.
    """
    levels = [list(values)]
    while 2 ** len(levels) <= k:
        w, prev = 2 ** (len(levels) - 1), levels[-1]
        levels.append([a + b for a, b in zip(prev, prev[w:])])

    def tree(r):
        m = r.bit_length() - 1
        if r == 1 << m:
            return levels[m]
        return [a + b for a, b in zip(levels[m], tree(r - (1 << m))[1 << m :])]

    return tree(k)


def naive_right_avg(values, k):
    """Mean of each k-sample window, via exact summation."""
    return [s / k for s in naive_window_sums(values, k)]


def naive_macd(values, k):
    """Difference of k- and 2k-window means, from first principles."""
    out = []
    for i in range(2 * k - 1, len(values)):
        short = math.fsum(values[i - k + 1 : i + 1]) / k
        long_ = math.fsum(values[i - 2 * k + 1 : i + 1]) / (2 * k)
        out.append(short - long_)
    return out


def multiply_add_side(parts):
    """``sum(c * term for c, term in parts)``, the multiply-and-add form of a box-terms side.

    The first term is multiplied into the output, and each other term is
    multiplied into one scratch array and added.  An overflow raises
    ``FloatingPointError``.
    """
    with np.errstate(over="raise"):
        out = np.multiply(*parts[0])
        scratch = np.empty_like(out)
        for c, term in parts[1:]:
            out += np.multiply(c, term, out=scratch)
    return out



def merged_expansion_side(means, n, b):
    """The ``n``-term expansion side from the kept ``b``-sample means, as ``2n`` merged box terms.

    Term ``i`` is ``w_i / 2`` times the mean ``(i - 1) * b`` samples back
    and ``-w_i / 2`` times the one ``i * b`` back, ``w_i = 2i / (n(n + 1))``.
    Terms at one lag add their coefficients in a ``Counter``, in the order
    they first appear, and the side is :func:`multiply_add_side` over the
    ``n + 1`` sums: the form the side took before it was given its telescoped
    coefficients directly.
    """
    coefs = Counter()
    for i in range(1, n + 1):
        w = 2.0 * i / (n * (n + 1))
        coefs[(i - 1) * b] += w / 2
        coefs[i * b] += -w / 2
    span = (n + 1) * b
    return multiply_add_side([(c, means[span - b - lag : means.size - lag])
                              for lag, c in coefs.items()])

def monotonicity_scan(short, long_, displaced, start, eq_tol, amplify):
    """The window-monotonicity scan over its three aligned averages, every array in full.

    Returns passed, the first violation's index, the hypothesis count, the
    scanned count, the equality verdict and the near-tie count.  The first
    two and the equality verdict are ``MonotonicityResult``'s three fields;
    the counts are the oracle's own, for tests that check what a scan covered.
    """
    hypothesis = short > long_
    violations = hypothesis & ~(short > displaced)
    first = int(np.flatnonzero(violations)[0]) + start if violations.any() else None
    near_tie = np.abs(short - long_) <= eq_tol
    eq_ok = np.abs(short - displaced) <= eq_tol * amplify * (1 + 1e-9)
    return (first is None, first, int(hypothesis.sum()), int(short.size),
            bool(np.all(eq_ok[near_tie])), int(near_tie.sum()))


def naive_kernel_apply(offsets, weights, values):
    """Direct convolution sum at every fully covered index."""
    lo = max(max(offsets), 0)
    hi = len(values) - 1 + min(min(offsets), 0)
    out = []
    for i in range(lo, hi + 1):
        out.append(math.fsum(w * values[i - o] for o, w in zip(offsets, weights)))
    return lo, out


def naive_box_self_convolution(k):
    """Triangular weights from convolving two 1/k boxes."""
    box = [1.0 / k] * k
    out = [0.0] * (2 * k - 1)
    for i, a in enumerate(box):
        for j, b in enumerate(box):
            out[i + j] += a * b
    return out


def exact_kernel(description):
    """``(first lag, numerators, denominator)`` of a kernel description at ``dt = 1``, exactly.

    Tap ``j`` is ``Fraction(numerators[j], denominator)``: the numerators are
    Python ints in an object array, over one common denominator, so every
    stage is integer arithmetic and nothing rounds.  The grammar is
    ``build_kernel``'s, from the definitions: a ``k``-box is ``k`` taps of
    ``1/k`` (from lag ``-k/2`` if centered), a delay one tap of 1 at its lag,
    a difference quotient ``1/k`` at lag 0 and ``-1/k`` at lag ``k``; a
    scale factor enters as its exact ``Fraction``, a composition is the
    product of polynomials in the lag, a sum adds taps on equal lags, and
    ``("diff", d1, d2)`` is ``d1`` plus ``-1`` times ``d2``.  A ``KernelRep``
    leaf is its float weights, each exactly the rational it is.
    """
    if isinstance(description, KernelRep):
        taps = [Fraction(w) for w in description.weights.tolist()]
        den = math.lcm(*(t.denominator for t in taps))
        return description.first, np.array([t.numerator * (den // t.denominator) for t in taps],
                                           dtype=object), den
    head, args = description[0], description[1:]
    if head in ("avg", "centered"):
        k = args[0]
        return (-(k // 2) if head == "centered" else 0), np.ones(k, dtype=object), k
    if head == "delay":
        return args[0], np.ones(1, dtype=object), 1
    if head == "deriv":
        k = args[0]
        taps = np.zeros(k + 1, dtype=object)
        taps[0], taps[-1] = 1, -1
        return 0, taps, k
    if head == "scale":
        first, taps, den = exact_kernel(args[1])
        num, q = Fraction(args[0]).as_integer_ratio()
        return first, taps * num, den * q
    if head == "diff":
        return exact_kernel(("sum", args[0], ("scale", -1, args[1])))
    parts = [exact_kernel(part) for part in args]
    if head == "sum":
        first = min(lo for lo, _, _ in parts)
        den = math.lcm(*(d for _, _, d in parts))
        out = np.zeros(max(lo + t.size for lo, t, _ in parts) - first, dtype=object)
        for lo, taps, d in parts:
            out[lo - first : lo - first + taps.size] += taps * (den // d)
        return first, out, den
    assert head == "compose", head
    first, out, den = parts[0]
    for lo, taps, d in parts[1:]:
        if np.count_nonzero(taps) > np.count_nonzero(out):  # loop over the sparser factor
            out, taps = taps, out
        prod = np.zeros(out.size + taps.size - 1, dtype=object)
        for j in np.flatnonzero(taps):
            prod[j : j + out.size] += taps[j] * out
        first, out, den = first + lo, prod, den * d
    return first, out, den


# Each stage of the kernel grammar with its argument count; compose and sum
# take any positive count.
STAGE_ARGS = {"avg": 1, "centered": 1, "delay": 1, "deriv": 1, "scale": 2, "diff": 2}


def kernel_description_error(description):
    """The error ``build_kernel`` raises on a description, by the grammar alone, or ``None``.

    The grammar is the ``kernels`` module docstring's: a ``KernelRep`` or a
    tuple whose first item names a stage.  A stage's arguments are taken as
    valid windows and lags, so only the description's shape can be wrong.
    The stages are read in order, depth first, and the first error is the
    one raised.  A tuple stage of another argument count, or a scale factor
    that is not a real number or is a bool, is malformed; a head that names
    no stage is unknown; a composition or sum of nothing is empty.
    """
    if isinstance(description, KernelRep):
        return None
    if not isinstance(description, tuple) or not description:
        return f"malformed kernel description: {description!r}"
    head, args = description[0], description[1:]
    if head in ("compose", "sum"):
        errors = [kernel_description_error(part) for part in args]
        return next((e for e in errors if e), None if args else "empty composition")
    if head not in tuple(STAGE_ARGS):  # a tuple, not the dict: an unhashable head is no stage
        return f"unknown kernel stage: {head!r}"
    factor = args[0] if head == "scale" and args else 1.0
    if len(args) != STAGE_ARGS[head] or isinstance(factor, bool) or not isinstance(
            factor, numbers.Real):
        return f"malformed kernel description: {description!r}"
    inner = {"scale": args[1:], "diff": args}.get(head, ())
    return next((e for e in map(kernel_description_error, inner) if e), None)


def rounded_once(kernel):
    """The taps of an :func:`exact_kernel` as float64, each its rational correctly rounded.

    Python's ``int / int`` rounds the exact quotient once, whatever the ints' size.
    """
    _, taps, den = kernel
    return (taps / den).astype(np.float64)


def naive_transfer_magnitude(offsets, weights, omega):
    """|H(omega)| via explicit real/imag sums."""
    re = math.fsum(w * math.cos(omega * o) for o, w in zip(offsets, weights))
    im = math.fsum(-w * math.sin(omega * o) for o, w in zip(offsets, weights))
    return math.hypot(re, im)


def dirichlet(k, omega):
    """Closed-form response of the k-sample trailing box, ``sum_j exp(-i*omega*j) / k``.

    ``H_k(w) = exp(-i*w*(k-1)/2) * sin(k*w/2) / (k*sin(w/2))``, with
    ``H_k(0) = 1`` (Oppenheim & Schafer's Dirichlet kernel); ``omega`` is an
    array of angular frequencies in [0, pi].
    """
    omega = np.asarray(omega, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.sin(k * omega / 2) / (k * np.sin(omega / 2))
    return np.exp(-0.5j * (k - 1) * omega) * np.where(omega == 0.0, 1.0, ratio)


def macd_peak_omega(k):
    """Where ``|H_k - H_2k|`` peaks: the root of ``tan(k*w/2) = 2k*tan(w/2)`` in (0, pi/k).

    On (0, pi/k), ``|H_k - H_2k| = sin(k*w/2)**2 / (k*sin(w/2))``, whose
    derivative has the sign of ``g(w) = 2k*cos(k*w/2)*sin(w/2) -
    sin(k*w/2)*cos(w/2)``: positive just above 0, negative at pi/k.  The root
    of ``g`` is found by bisection.
    """
    def g(w):
        half, k_half = w / 2, k * w / 2
        return 2 * k * math.cos(k_half) * math.sin(half) - math.sin(k_half) * math.cos(half)

    lo, hi = 0.0, math.pi / k
    for _ in range(100):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if g(mid) > 0 else (lo, mid)
    return (lo + hi) / 2


def _csv_fields(line):
    text = line.strip()
    return [f.strip() for f in text.split(",")] if text else []


def _csv_floats(fields):
    try:
        return [float(f) for f in fields]
    except ValueError:
        return None


def naive_ingest(path):
    """``(t0, dt, values)`` of a CSV read line by line, or ValueError at its first bad line.

    The CSV grammar and error texts of ``macdkit.cli.ingest_csv``, checked one
    row at a time in file order.  A data cell, stripped of surrounding Unicode
    whitespace, parses as Python's ``float`` does, except that one holding
    ``_`` or a non-ASCII character does not.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:  # a leading byte-order mark is skipped
        raw = fh.readlines()

    rows = ((lineno, fields) for lineno, fields in enumerate(map(_csv_fields, raw), start=1)
            if fields)
    first = next(rows, None)
    if first is None:
        raise ValueError(f"empty file: {path}")
    if _csv_floats(first[1]) is None:
        first = next(rows, None)  # header
        if first is None:
            raise ValueError(f"empty file: {path} (header only)")

    want = len(first[1])
    if want not in (1, 2):
        raise ValueError(f"expected 1 or 2 columns, found {want} at line {first[0]}")

    values = []
    t0 = t_prev = 0.0
    dt = 1.0
    for lineno, fields in [first, *rows]:
        if len(fields) != want:
            raise ValueError(f"expected {want} column(s) at line {lineno}, found {len(fields)}")
        ascii_cells = all(f.isascii() and "_" not in f for f in fields)
        parsed = _csv_floats(fields) if ascii_cells else None
        if parsed is None:
            raise ValueError(f"could not parse line {lineno}")
        if not all(math.isfinite(v) for v in parsed):
            raise ValueError(f"non-finite value at line {lineno}")
        values.append(parsed[-1])
        if want == 1:
            continue
        t = parsed[0]
        if len(values) == 1:
            t0 = t
        else:
            step = t - t_prev
            if step <= 0:
                raise ValueError(f"timestamps must be strictly increasing (line {lineno})")
            if step == math.inf:
                raise ValueError(f"non-finite time step at line {lineno}")
            if len(values) == 2:
                dt = step
            elif abs(step - dt) > 1e-9 * abs(dt):
                raise ValueError(f"non-uniform spacing at line {lineno}")
        t_prev = t
    return t0, dt, values


class AttributeStream:
    """The stream push with its running state in attributes, as it was before the push closure.

    A verbatim copy of that ``ExpansionStream``, kept as the independent
    oracle of the closure push: the same TwoSum arithmetic in the same
    order, the same reject-before-commit branches, re-sums and ``stats()``.
    """

    def __init__(self, spec: ExpansionSpec, resum_interval: int = 1 << 20):
        resum_interval = _count(resum_interval, "resum interval must be a positive integer")
        self._a = spec.a
        self._n = float(spec.n)
        self._den = float(spec.n * (spec.n + 1) * spec.b)
        self._size = spec.a + spec.b  # len(self._ring), read on every push
        self._ring = [0.0] * self._size
        self._pos = 0
        # R (newest a samples) and O (the b before them), each as a running
        # sum plus its compensation, the sum of its TwoSum rounding errors.
        self._r = self._rc = self._o = self._oc = 0.0
        # For n = 1, O is R from a pushes ago: the past R + rc, by sample slot.
        self._past = [0.0] * self._size if spec.n == 1 else None
        self._resum_interval = resum_interval
        self._resums = 0
        self.samples_seen = 0

    def push(self, sample: float) -> float | None:
        """Feed one sample; return the stream's value once warmed up."""
        x = float(sample)
        ring = self._ring
        pos = self._pos
        back = pos - self._a  # the slot written a pushes ago (negative index wraps)
        mid = ring[back]      # leaves R, enters O
        # R += x - mid as two TwoSum additions whose exact rounding errors
        # accumulate in the compensation.
        s = self._r
        t = s + x
        z = t - s
        c = self._rc + ((s - (t - z)) + (x - z))
        r = t - mid
        z = r - t
        rc = c + ((t - (r - z)) + (-mid - z))
        v = r + rc
        # A compensated sum that is not finite (inf - inf and nan - nan are
        # nan) is rejected before any state changes.
        past = self._past
        if past is not None:  # n = 1: O is R + rc from a pushes ago
            if v - v:
                _reject(x, sample)
            w = past[back]
            past[pos] = v
        else:  # O += mid - old, the same way
            old = ring[pos]
            s = self._o
            t = s + mid
            z = t - s
            c = self._oc + ((s - (t - z)) + (mid - z))
            o = t - old
            z = o - t
            oc = c + ((t - (o - z)) + (-old - z))
            w = o + oc
            if v - v or w - w:
                _reject(x, sample)
            self._o = o
            self._oc = oc
            w *= self._n  # n*O; the overflow fallback below scales the unscaled O
        ring[pos] = x
        pos += 1
        self._pos = 0 if pos == self._size else pos
        self._r = r
        self._rc = rc
        seen = self.samples_seen + 1
        self.samples_seen = seen
        if seen % self._resum_interval == 0:
            self._resum()
            v = self._r
            if past is None:
                w = self._n * self._o
        if seen < self._size:
            return None
        out = (v - w) / self._den
        if out - out:  # the difference of two finite sums overflowed: scale each first
            o = w if past is not None else self._o + self._oc
            out = v / self._den - o / self._den * self._n
        return out

    def _exact_sums(self) -> tuple[float, float]:
        """Exact (R, O) from the ring, oldest sample at ``_pos``."""
        pos = self._pos
        ordered = self._ring[pos:] + self._ring[:pos]
        b = len(ordered) - self._a
        return _exact_sum(ordered[b:]), _exact_sum(ordered[:b])

    def _resum(self) -> None:
        self._r, self._o = self._exact_sums()
        self._rc = self._oc = 0.0
        self._resums += 1

    def _running_sums(self) -> tuple[float, float]:
        """The running (R, O), each with its compensation added; for n = 1, O from ``_past``."""
        past = self._past
        o = self._o + self._oc if past is None else past[self._pos - 1 - self._a]
        return self._r + self._rc, o

    def sum_drift(self) -> float:
        """Worst relative deviation of the running sums from exact re-summation."""
        (r, o), (v, w) = self._exact_sums(), self._running_sums()
        return max(abs(v - r) / max(abs(r), 1.0), abs(w - o) / max(abs(o), 1.0))

    def stats(self) -> dict:
        """Samples seen, re-sums so far, the current ``sum_drift()`` and warm-up state."""
        return {
            "samples_seen": self.samples_seen,
            "resums": self._resums,
            "sum_drift": self.sum_drift(),
            "warm": self.samples_seen >= self._size,
        }


def _reject(x: float, sample) -> None:
    """Raise the error for a push whose compensated sum is not finite."""
    if not math.isfinite(x):
        raise ValueError(f"non-finite sample rejected: {sample!r}")
    raise ValueError(WINDOW_SUM_OVERFLOW)


def _exact_sum(values: list[float]) -> float:
    """Correctly rounded sum, also where a partial sum in ring order overflows."""
    try:
        return math.fsum(values)
    except OverflowError:  # "intermediate overflow in fsum"; a sum of Fractions has none
        from fractions import Fraction
        return float(sum(map(Fraction, values)))
