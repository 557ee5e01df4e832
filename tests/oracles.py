"""Brute-force reference implementations used only to pin expected values.

Everything here is a plain Python loop, over exact (fsum) window sums or over
CSV lines, or a closed form, kept deliberately independent of the numpy paths
in the package, or a copy of an earlier numpy form that the package replaced
with a faster one of the same bytes.
"""

import math
from collections import Counter

import numpy as np


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

    Returns the fields of ``MonotonicityResult`` in order: passed, the first
    violation's index, the hypothesis count, the scanned count, the equality
    verdict and the near-tie count.
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
