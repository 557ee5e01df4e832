"""Brute-force reference implementations used only to pin expected values.

Everything here is a plain Python loop over exact (fsum) window sums, kept
deliberately independent of the numpy paths in the package.
"""

import math


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
