"""Named kernels against their exact rationals (ROADMAP item 19, its tap part).

``oracles.exact_kernel`` builds a kernel description's taps as rationals,
from the definitions and with nothing rounded; ``oracles.rounded_once``
rounds each of them once to float64.  A named kernel whose every tap is its
rational rounded once has no error beyond what float64 must have.
"""

from fractions import Fraction

import numpy as np

from macdkit import (box_kernel, expansion_kernel, macd_kernel, smoothed_derivative_kernel,
                     triangular_kernel)

from .oracles import exact_kernel, rounded_once


def _tap_errors(weights, kernel, taps):
    """The relative error of ``weights[j]`` against its rational tap, for each j in ``taps``.

    Each is one integer quotient, so it is the exact error rounded once.
    """
    _, nums, den = kernel
    errors = []
    for j in taps:
        p, q = float(weights[j]).as_integer_ratio()
        errors.append(abs(p * den - nums[j] * q) / abs(nums[j] * q))
    return errors


def test_named_kernels_against_their_exact_rationals():
    # The box and MACD kernels are their rationals 1/k and +-1/(2k) rounded
    # once, at every k tried.  The smoothed-derivative kernel is the MACD
    # kernel in exact arithmetic, but its float taps are a product of two
    # roundings times k/2, so at 261 of these k a tap sits one ulp off.
    smoothed_apart = []
    for k in range(1, 1101):
        box = exact_kernel(("avg", k))
        assert np.array_equal(box_kernel(k).weights, rounded_once(box)), k
        macd_exact = exact_kernel(("diff", ("avg", k), ("avg", 2 * k)))
        macd_w = macd_kernel(k).weights
        assert np.array_equal(macd_w, rounded_once(macd_exact)), k
        smoothed = exact_kernel(("scale", k / 2.0, ("compose", ("deriv", k), ("avg", k))))
        assert smoothed[0] == macd_exact[0] and np.array_equal(
            smoothed[1] * macd_exact[2], macd_exact[1] * smoothed[2]), k
        smoothed_w = smoothed_derivative_kernel(k).weights
        if not np.array_equal(smoothed_w, macd_w):
            smoothed_apart.append(k)
        # Within one ulp of the rounded 1/(2k), at most 2.3e-16 of it; the
        # worst against the rational 1/(2k) itself is 3.21e-16.
        gap = np.abs(smoothed_w - macd_w)
        assert np.all(gap <= np.spacing(np.abs(macd_w))), k
        assert np.all(gap <= 2.3e-16 * np.abs(macd_w)), k
        magnitudes = np.unique(np.abs(smoothed_w))
        assert max(abs(Fraction(float(v)) * (2 * k) - 1) for v in magnitudes) < 3.3e-16, k
    assert len(smoothed_apart) == 261
    assert smoothed_apart[:8] == [5, 10, 19, 20, 21, 33, 35, 37]

    # The expansion kernel is the difference of the a- and (a+b)-boxes.  Its
    # -1/(a+b) run is rounded once; its positive tap 1/a - 1/(a+b) is a
    # difference of two roundings, not rounded once at 145 of 256 cases and
    # at worst 1.18e-15 of its rational.
    positive_apart = 0
    for n in range(1, 9):
        for b in range(1, 33):
            a = n * b
            exact = exact_kernel(("diff", ("avg", a), ("avg", a + b)))
            weights, want = expansion_kernel(n, b).weights, rounded_once(exact)
            assert np.array_equal(weights[a:], want[a:]), (n, b)
            assert np.all(weights[:a] == weights[0]) and np.all(want[:a] == want[0]), (n, b)
            assert want[0] == float(Fraction(1, a) - Fraction(1, a + b)), (n, b)
            positive_apart += weights[0] != want[0]
            assert _tap_errors(weights, exact, [0])[0] < 1.2e-15, (n, b)
    assert positive_apart == 145

    # The triangle is one np.convolve of two 1/k boxes: each tap is a sum of
    # up to k rounded products (1/k)**2, not rounded once at 184 of k <= 200.
    # numpy takes those sums through BLAS ddot, whose order depends on the
    # CPU kernel, so the taps' bytes do too.  The worst tap, 1.4238e-15 of
    # its rational (k = 152, lag 110), is the same on OpenBLAS's Haswell,
    # Zen and SkylakeX kernels; Sandybridge's reads 1.4359e-15 (k = 165,
    # lag 126) and Prescott's 7.47e-16, all with 184 such k.
    triangle_apart, worst = 0, 0
    for k in range(1, 201):
        exact = exact_kernel(("compose", ("avg", k), ("avg", k)))
        weights, want = triangular_kernel(k).weights, rounded_once(exact)
        off = np.flatnonzero(weights != want)
        triangle_apart += off.size > 0
        worst = max([worst, *_tap_errors(weights, exact, off)])
    assert triangle_apart == 184
    assert 7e-16 < worst < 1.44e-15
