"""Residual checks for the box-average operator identities.

Each check evaluates both sides of one algebraic identity on a concrete
signal and reports the worst absolute and relative residual over the index
range where both sides are defined.  In the piecewise-constant discrete
model every identity holds exactly, so residuals are pure floating-point
noise: a few ulps, orders of magnitude below the default 1e-12 gate.

Every side of a check is built by the public operators it names
(``macd``, ``centered_avg``, ``delay``, ``smoothed_derivative`` and the
like), so a broken operator fails its check.  Those operators keep each
window mean ``A_k = S_k / k`` on their input (see
:mod:`~macdkit.operators`), so the checks and operators run on one signal
take each ``A_k`` once, one window sum and one divide, and ``macd`` keeps
its latest result, so the derivative checks and the three norm orders at
one window take one MACD.  Each block-average side of the other
identities is one ``operators._box_terms`` call, which reads the same kept
means.  The norm bound takes each order's sum of the input as it takes the
MACD's, with ``_power_sum``, and ``max|x|`` is ``signals._max_abs`` wherever
it is taken.

The identities are statements about samples, in which the spacing cancels:
rates are per sample and norms are sums over samples.  So ``dt`` enters
only the start times that align the two sides, and every residual is the
one the same samples give at ``dt = 1``.

The relative residual is taken against ``max |lhs|`` over the common range
(0/0 counts as zero) so that signals of wildly different magnitude can share
one gate.  Every window parameter (``t1``, ``t2``, ``a``, ``b``) is a sample
count, a plain ``int`` checked by :func:`~macdkit.signals.window_size`.

Every check result is one record, a :class:`ResidualReport`.  :data:`CHECKS`
maps each check name to its parameters (from the window, long window, term
count and block) and a call that returns its record gated at the run's
``tol``.  :func:`run_checks` returns one record per entry, named by its key,
and ``macdkit verify`` prints them, so a new check takes one entry and no CLI edit.
"""

import math
from collections import namedtuple
from typing import Callable

import numpy as np

# Operators are looked up in this namespace when a check runs, so a wrapper
# on one of these names (a tracer such as perfbench/spans.py, say) sees every
# call; double_right_avg is not called here but stays for such a tracer.
from .operators import (
    _box_terms,
    centered_avg,
    delay,
    double_right_avg,
    macd,
    right_avg,
    windowed_derivative,
)
from .signals import (ExpansionSpec, InsufficientSamplesError, UniformSignal, _count, _max_abs,
                      _real, aligned_values, sample_offset, window_size)

__all__ = [
    "CHECKS",
    "run_checks",
    "ResidualReport",
    "TrendLabel",
    "MonotonicityResult",
    "check_recursive_decomposition",
    "check_difference_identity",
    "check_macd_derivative",
    "check_phase_corrected_form",
    "check_recursive_expansion",
    "check_lp_bound",
    "check_window_monotonicity",
    "classify_trend",
    "expansion_rhs",
    "smoothed_derivative",
]


class ResidualReport(namedtuple("ResidualReport", "name params max_abs_residual max_rel_residual "
                                 "gate passed required valid_range insufficient",
                                 defaults=(None, None, False))):
    """One check's worst residuals, gate and verdict, a named tuple.

    ``name`` (str) and ``params`` (dict) name the check; ``max_abs_residual``,
    ``max_rel_residual`` and ``gate`` are floats and ``passed`` a bool.
    ``required`` (an int, else None) is set (and the record fails) on a
    too-short signal.  A residual check gates its relative residual at 1e-12
    and gives ``valid_range``, the ``(first, last)`` indices where both sides
    are defined, else None.  ``insufficient`` is a bool, False by default.
    """

    __slots__ = ()


class TrendLabel(namedtuple("TrendLabel", "label margin")):
    """Local trend call: 'increasing', 'decreasing' or 'linear', with margin."""

    __slots__ = ()


class MonotonicityResult(namedtuple("MonotonicityResult",
                                    "passed first_violation equality_passed")):
    """Verdicts of the window-monotonicity scan.

    ``passed`` and ``first_violation`` (an index into the signal) answer the
    implication, and ``equality_passed`` its tolerance-form equality case.
    """

    __slots__ = ()


def default_tolerance(signal: UniformSignal) -> float:
    """Classifier tolerance proportional to the data magnitude, the signal's kept ``max|x|``."""
    return 1e-9 * signal._peak


def _tolerance(tol: float) -> float:
    """``tol`` if it is a real number (not a bool), finite and non-negative; a negative or NaN
    one would mislabel silently."""
    if not _real(tol) or not 0.0 <= tol < math.inf:
        raise ValueError(f"tolerance must be finite and non-negative, got {tol!r}")
    return tol


def _report(name: str, params: dict, lhs: UniformSignal, rhs: UniformSignal,
            reference: UniformSignal) -> ResidualReport:
    lv, rv = aligned_values(lhs, rhs)
    start = max(sample_offset(lhs, reference), sample_offset(rhs, reference))
    max_abs = _max_abs(lv - rv)
    max_rel = _ratio(max_abs, _max_abs(lv))
    return ResidualReport(name, params, max_abs, max_rel, 1e-12, max_rel <= 1e-12,
                          valid_range=(start, start + lv.size - 1))


def _ratio(num: float, denom: float) -> float:
    """``num / denom``, where 0/0 counts as zero and x/0 as infinite."""
    if denom == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return num / denom


def check_recursive_decomposition(signal: UniformSignal, t1: int, t2: int) -> ResidualReport:
    """Split a long trailing average into two shorter ones.

    The average over ``t1 + t2`` samples equals the ``t1``-weighted average
    of the recent block plus the ``t2``-weighted average of the block before
    it.
    """
    t1 = window_size(t1)
    t2 = window_size(t2)
    total = t1 + t2
    rhs = _box_terms(signal, "the decomposition check",
                     [(t1 / total, t1, 0), (t2 / total, t2, t1)])
    return _report("recursive_decomposition", {"t1": t1, "t2": t2}, right_avg(signal, total),
                   rhs, signal)


def check_difference_identity(signal: UniformSignal, a: int, b: int) -> ResidualReport:
    """Short-minus-long average as ``b/(a+b)`` times a difference of block averages."""
    a = window_size(a)
    b = window_size(b)
    factor = b / (a + b)
    # Both sides span a + b samples, so they start at the same sample.
    lhs = _box_terms(signal, "the difference-identity check", [(1.0, a, 0), (-1.0, a + b, 0)])
    rhs = _box_terms(signal, "the difference-identity check", [(factor, a, 0), (-factor, b, a)])
    return _report("difference_identity", {"a": a, "b": b}, lhs, rhs, signal)


def smoothed_derivative(signal: UniformSignal, a: int) -> UniformSignal:
    """Half-window-scaled exact rate of change of the double average, per sample.

    Computed as the lag-``a`` difference quotient, per sample, of the single
    ``a``-sample trailing average, times ``a/2``; differentiating the outer
    average of the double average leaves exactly this expression.  ``dt``
    cancels from it and only places the result in time.
    """
    return _half_window_rate(right_avg(signal, a), a)


def _half_window_rate(avg: UniformSignal, a: int) -> UniformSignal:
    """``a/2`` times the lag-``a`` difference quotient of ``avg`` at unit spacing.

    That is about half a difference of two samples, so it is finite wherever
    the quotient is, and the quotient raises on a non-finite sample.
    """
    rate = windowed_derivative(UniformSignal._wrap(0.0, 1.0, avg.values), a)
    return UniformSignal._wrap(avg.t0 + a * avg.dt, avg.dt, rate.values * (a / 2.0))


def check_macd_derivative(signal: UniformSignal, a: int) -> ResidualReport:
    """Short-minus-long average equals the smoothed-derivative form."""
    k = window_size(a)
    signal.require(2 * k, "the MACD-derivative check")
    return _report("macd_derivative", {"a": k}, macd(signal, k), smoothed_derivative(signal, k),
                   signal)


def check_phase_corrected_form(signal: UniformSignal, a: int) -> ResidualReport:
    """Short-minus-long average as a delayed derivative of the centered smooth.

    The delayed double centered average coincides with the double trailing
    average, a trailing average of the re-aligned single centered average,
    so its exact rate of change is the lag-window difference quotient of the
    centered average delayed half a window.  MACD is compared with that
    quotient.  MACD needs ``2k`` samples and the delayed quotient ``5k/2``,
    but the check requires ``3k - 1``, the span of the double centered
    average the identity is about.
    """
    k = window_size(a, even=True)
    signal.require(3 * k - 1, "the phase-corrected check")
    rhs = _half_window_rate(delay(centered_avg(signal, k), k // 2), k)
    return _report("phase_corrected_form", {"a": k}, macd(signal, k), rhs, signal)


def expansion_rhs(signal: UniformSignal, spec: ExpansionSpec) -> UniformSignal:
    """The ``n``-term weighted sum of delayed, smoothed difference quotients.

    Term ``i`` is ``w_i / 2`` times the ``b``-average ``(i - 1) * b`` samples
    back minus ``w_i / 2`` times the one ``i * b`` back.  The terms
    telescope to one ``_box_terms`` side over the ``n + 1`` lags ``m * b``,
    weighed ``(w[m+1] - w[m]) / 2`` with ``w[0] = w[n+1] = 0``: as halving
    rounds nothing, each is the sum of the two terms' coefficients at its lag.
    """
    w = (0.0, *spec.weights, 0.0)
    return _box_terms(signal, f"the {spec.n}-term expansion",
                      [((w[m + 1] - w[m]) / 2, spec.b, m * spec.b) for m in range(spec.n + 1)])


def check_recursive_expansion(signal: UniformSignal,
                              spec: ExpansionSpec) -> ResidualReport:
    """Long-window difference as the ``n``-term delayed-derivative sum."""
    lhs = _box_terms(signal, "the expansion check",
                     [(1.0, spec.a, 0), (-1.0, spec.a + spec.b, 0)])
    return _report("recursive_expansion", {"n": spec.n, "b": spec.b}, lhs,
                   expansion_rhs(signal, spec), signal)


def check_lp_bound(signal: UniformSignal, a: int, p) -> float:
    """Operator-norm ratio ``|macd(signal)|_p / |signal|_p`` over samples.

    The ratio never exceeds 2 and, because the expanded kernel has total
    absolute weight 1, in practice never exceeds 1 beyond rounding.  On an
    all-zero signal the indicator is exactly zero, and 0/0 counts as zero.
    ``dt`` would weight both norms alike, so it cancels.  Where a norm's sum
    is not a normal float, both arrays are summed again times the one power
    of two that brings the signal's peak to [0.5, 1), which keeps the ratio.
    The signal keeps ``max|x|`` and its latest MACD (see
    :func:`~macdkit.operators.macd`), so the three orders at one window take
    one MACD; the p = 1 and 2 orders each sum the MACD and the signal.
    """
    out = macd(signal, a).values
    if p == math.inf:
        return _ratio(_max_abs(out), signal._peak)
    if not _real(p) or p not in (1, 2):  # True would pass for 1
        raise ValueError(f"unsupported norm order: {p!r}")
    totals = [_power_sum(out, p), _power_sum(signal.values, p)]
    if not all(np.finfo(float).tiny <= s < math.inf for s in totals):
        e = -math.frexp(signal._peak)[1]
        totals = [_power_sum(np.ldexp(out, e), p), _power_sum(np.ldexp(signal.values, e), p)]
    return _ratio(*(totals if p == 1 else map(math.sqrt, totals)))


def _power_sum(values: np.ndarray, p: int) -> float:
    """``sum|values|**p`` for ``p`` 1 or 2, one ``np.sum``; ``inf`` where it overflows."""
    with np.errstate(over="ignore"):
        return float(np.sum(np.abs(values)) if p == 1 else np.sum(values * values))


def check_window_monotonicity(signal: UniformSignal, a: int, b: int) -> MonotonicityResult:
    """Scan the window-monotonicity implication over every valid index.

    Wherever the short average exceeds the long one, the short average must
    also exceed the ``(b-a)``-average taken ``a`` samples earlier.  The
    equality case is checked in tolerance form: a near-tie of the two
    anchored averages, within ``default_tolerance(signal)``, forces a near-tie
    of the displaced pair, amplified by ``b / (b - a)``.
    """
    a = window_size(a)
    b = window_size(b)
    if b <= a:
        raise ValueError(f"long window must exceed short window: {b} <= {a}")
    short, long_, displaced = aligned_values(
        right_avg(signal, a),
        right_avg(signal, b),
        delay(right_avg(signal, b - a), a),
    )
    violations = (short > long_) & (short <= displaced)
    first = int(np.flatnonzero(violations)[0]) + b - 1 if violations.any() else None

    # The displaced pair is compared only where the anchored pair nearly ties.
    eq_tol = default_tolerance(signal)
    amplify = b / (b - a)
    anchored = short - long_
    near_tie = np.abs(anchored, out=anchored) <= eq_tol
    gap = np.abs(short[near_tie] - displaced[near_tie])
    eq_passed = bool(np.all(gap <= eq_tol * amplify * (1 + 1e-9)))

    return MonotonicityResult(first is None, first, eq_passed)


def classify_trend(signal: UniformSignal, index: int, a: int, b: int,
                   tol: float | None = None) -> TrendLabel:
    """Label the local trend at ``index`` from two anchored averages.

    The margin is the ``a``-average minus the ``(a+b)``-average, both from
    the ``a + b`` samples that end at ``index``.  A positive margin beyond
    ``tol`` (a finite, non-negative real) means the recent block sits above
    the older history (locally increasing); negative means decreasing; within
    tolerance the signal is locally linear (a symmetric profile also lands
    here).
    """
    a = window_size(a)
    b = window_size(b)
    tol = default_tolerance(signal) if tol is None else _tolerance(tol)
    # Any integer but a bool; the range check below names one out of range.
    index = _count(index, "index needs an integer sample index", -math.inf)
    total = a + b
    n = len(signal)
    if index < total - 1 or index >= n:
        raise IndexError(
            f"index {index} outside the valid range [{total - 1}, {n - 1}] "
            f"of the {total}-sample average"
        )
    lo = index + 1 - total
    recent = UniformSignal._wrap(signal.t0 + lo * signal.dt, signal.dt,
                                 signal.values[lo : index + 1])
    diff = _box_terms(recent, "the margin", [(1.0, a, 0), (-1.0, total, 0)])
    margin = float(diff.values[0])
    label = "increasing" if margin > tol else "decreasing" if margin < -tol else "linear"
    return TrendLabel(label, margin)


def _gated(report: ResidualReport, tol: float) -> ResidualReport:
    """``report`` with its relative residual gated at ``tol``, which ``run_checks`` validated."""
    return report._replace(gate=tol, passed=report.max_rel_residual <= tol)


def _scan_record(r: MonotonicityResult, a: int, b: int) -> ResidualReport:
    """The scan as a record: residuals 1.0 for a violation and 0.0 for none, gate 0."""
    return ResidualReport("monotonicity", {"a": a, "b": b}, float(not r.passed),
                          float(not r.equality_passed), 0.0, r.passed and r.equality_passed)


# name -> (params, call).  params(window, long window, n, b) gives the keyword
# arguments of call(signal, tol, **params), which returns the check's record
# gated at tol: the relative residual at tol, the norm ratio at 2 and the scan
# at 0.  Calls look their check up in this module when they run, so a name
# replaced here (a tracing wrapper, say) is what runs.
CHECKS: dict[str, tuple[Callable, Callable]] = {
    "recursive_decomposition": (lambda w, lw, n, b: {"t1": w, "t2": lw},
        lambda s, tol, t1, t2: _gated(check_recursive_decomposition(s, t1, t2), tol)),
    "difference_identity": (lambda w, lw, n, b: {"a": w, "b": lw},
        lambda s, tol, a, b: _gated(check_difference_identity(s, a, b), tol)),
    "macd_derivative": (lambda w, lw, n, b: {"a": w},
        lambda s, tol, a: _gated(check_macd_derivative(s, a), tol)),
    "phase_corrected_form": (lambda w, lw, n, b: {"a": w},
        lambda s, tol, a: _gated(check_phase_corrected_form(s, a), tol)),
    "recursive_expansion": (lambda w, lw, n, b: {"n": n, "b": b},
        lambda s, tol, n, b: _gated(check_recursive_expansion(s, ExpansionSpec(n, b)), tol)),
    "lp_bound": (lambda w, lw, n, b: {"a": w},
        lambda s, tol, a: ResidualReport("lp_bound", {"a": a}, (r := max(
            check_lp_bound(s, a, p) for p in (1, 2, math.inf))), r, 2.0, r <= 2.0)),
    "monotonicity": (lambda w, lw, n, b: {"a": w, "b": w + lw},
        lambda s, tol, a, b: _scan_record(check_window_monotonicity(s, a, b), a, b)),
}


def run_checks(signal: UniformSignal, names=None, *, window: int = 8, long_window: int = 12,
               n: int = 4, b: int = 4, tol: float = 1e-12) -> list[ResidualReport]:
    """Run the :data:`CHECKS` keys in ``names`` (default: all), then return one record each.

    Each record is named by its key.  An unknown name (``KeyError``) or a bad
    parameter (``ValueError``), such as a negative, non-finite or non-real ``tol``, raises.
    """
    tol = _tolerance(tol)
    records = []
    entries = [(name, CHECKS[name]) for name in (CHECKS if names is None else names)]
    for name, (params_of, call) in entries:
        params = params_of(window, long_window, n, b)
        try:
            record = call(signal, tol, **params)._replace(name=name)
        except InsufficientSamplesError as exc:
            record = ResidualReport(name, params, math.nan, math.nan, math.nan, False, exc.required)
        records.append(record)
    return records
