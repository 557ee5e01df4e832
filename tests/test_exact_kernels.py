"""Named kernels and the paper's identities on exact rationals (ROADMAP item 19).

``oracles.exact_kernel`` builds a kernel description's taps as rationals,
from the definitions and with nothing rounded; ``oracles.rounded_once``
rounds each of them once to float64.  A named kernel whose every tap is its
rational rounded once has no error beyond what float64 must have.  Every
residual check compares two linear, time-invariant operators, so each
identity is an equality of their kernels in exact arithmetic: a wrong
coefficient, window or lag in a check's terms fails here with no rounding
in the way.
"""

import math
from fractions import Fraction

import numpy as np

from macdkit import (ExpansionSpec, UniformSignal, box_kernel, check_difference_identity,
                     check_recursive_decomposition, check_recursive_expansion, expansion_kernel,
                     identities, macd_kernel, smoothed_derivative_kernel, triangular_kernel)

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


def _same(x, y):
    """Whether two exact kernels have the same first lag and the same rational taps."""
    return x[0] == y[0] and x[1].size == y[1].size and np.array_equal(x[1] * y[2], y[1] * x[2])


def _exact_side(terms, den):
    """The exact kernel of a ``_box_terms`` side, and how many coefficients are not rounded once.

    Each float coefficient is read as the nearest rational of denominator at
    most ``den``, the identity's, and must lie within one ulp of the side's
    largest coefficient from that rational.  Two such rationals lie at least
    ``1/den**2`` apart, so the reading is unique.
    """
    parts, apart = [], 0
    ulp = Fraction(math.ulp(max(abs(c) for c, _, _ in terms)))
    for c, k, lag in terms:
        r = Fraction(c).limit_denominator(den)
        assert abs(Fraction(c) - r) <= ulp, (c, r)
        apart += c != float(r)
        parts.append(("scale", r, ("compose", ("delay", lag), ("avg", k))))
    return exact_kernel(("sum", *parts)), apart


def test_residual_identities_hold_on_exact_kernels(monkeypatch):
    # The terms each check hands _box_terms, captured on a signal long
    # enough for all of them.
    captured = []

    def spy(signal, what, terms):
        captured.append(terms)
        return box_terms(signal, what, terms)

    box_terms = identities._box_terms
    monkeypatch.setattr(identities, "_box_terms", spy)
    sig = UniformSignal(0.0, 1.0, np.random.default_rng(19).standard_normal(108))

    def sides(check, *args):
        captured.clear()
        check(sig, *args)
        return list(captured)

    # Decomposition: A_{t1+t2} is t1/(t1+t2) of the recent t1-block plus
    # t2/(t1+t2) of the t2-block before it.  Difference: A_a - A_{a+b} is
    # b/(a+b) times A_a minus the b-block a samples back.
    apart = 0
    for t1 in range(1, 25):
        for t2 in range(1, 25):
            total = t1 + t2
            (rhs,) = sides(check_recursive_decomposition, t1, t2)
            rhs, off = _exact_side(rhs, total)
            assert _same(rhs, exact_kernel(("avg", total))), (t1, t2)
            apart += off
            lhs, rhs = sides(check_difference_identity, t1, t2)
            (lhs, off_l), (rhs, off_r) = _exact_side(lhs, 1), _exact_side(rhs, total)
            assert _same(lhs, exact_kernel(("diff", ("avg", t1), ("avg", total)))), (t1, t2)
            assert _same(rhs, lhs), (t1, t2)
            apart += off_l + off_r
    # Python's int / int rounds each quotient once.
    assert apart == 0

    # Expansion: A_a - A_{a+b}, a = n*b, is the n-term weighted sum of
    # delayed, smoothed differences; expansion_rhs telescopes it to n + 1
    # b-blocks weighed 1/(n(n+1)), ..., 1/(n(n+1)), -1/(n+1).  Those are
    # halved differences of the weights 2i/(n(n+1)), each rounded once, so
    # some are not rounded once: up to 4.4 ulp of their own (at n = 8), 0.6
    # of the side's largest.  They do not depend on b.
    apart = {}
    for n in range(1, 9):
        for b in range(1, 13):
            lhs, rhs = sides(check_recursive_expansion, ExpansionSpec(n, b))
            (lhs, off_l), (rhs, off_r) = _exact_side(lhs, 1), _exact_side(rhs, n * (n + 1))
            assert _same(lhs, exact_kernel(("diff", ("avg", n * b), ("avg", (n + 1) * b)))), (n, b)
            assert _same(rhs, lhs), (n, b)
            assert off_l == 0
            apart.setdefault(n, set()).add(off_r)
    assert apart == {1: {0}, 2: {0}, 3: {1}, 4: {2}, 5: {3}, 6: {0}, 7: {3}, 8: {4}}

    # The two derivative forms are operator chains, not _box_terms sides.
    # macd_derivative: k/2 times the lag-k difference quotient of A_k.
    # phase_corrected_form: the same of the centered k-average delayed k/2.
    # Both are the paper's MACD, A_k - A_{2k}.
    for k in range(1, 25):
        macd = exact_kernel(("diff", ("avg", k), ("avg", 2 * k)))
        derivative = ("scale", k / 2, ("compose", ("deriv", k), ("avg", k)))
        assert _same(exact_kernel(derivative), macd), k
        if k % 2 == 0:
            phase = ("scale", k / 2, ("compose", ("deriv", k), ("delay", k // 2), ("centered", k)))
            assert _same(exact_kernel(phase), macd), k
