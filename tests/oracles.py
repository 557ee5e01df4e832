"""Brute-force reference implementations used only to pin expected values.

Everything here is a plain Python loop, over exact (fsum) window sums or over
CSV lines, or a closed form, kept deliberately independent of the numpy paths
in the package.
"""

import math

import numpy as np


def naive_window_sums(values, k):
    """Exact (fsum) sum of each k-sample window."""
    return [math.fsum(values[i - k + 1 : i + 1]) for i in range(k - 1, len(values))]


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
    with open(path, "r", encoding="utf-8") as fh:
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
