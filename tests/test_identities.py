import math
import sys
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macdkit import (
    CHECKS,
    ExpansionSpec,
    InsufficientSamplesError,
    UniformSignal,
    aligned_values,
    centered_avg,
    check_difference_identity,
    check_lp_bound,
    check_macd_derivative,
    check_window_monotonicity,
    check_phase_corrected_form,
    ExpansionStream,
    check_recursive_decomposition,
    check_recursive_expansion,
    classify_trend,
    delay,
    double_right_avg,
    expansion_rhs,
    macd,
    right_avg,
    run_checks,
    sliding_sums,
    smoothed_derivative,
)
from macdkit import identities, operators
from macdkit.identities import default_tolerance

from .oracles import merged_expansion_side
from .oracles import monotonicity_scan as oracle_monotonicity_scan


def ramp(n, dt=1.0):
    return UniformSignal(0.0, dt, np.arange(float(n)))


def constant(n, c=3.25):
    return UniformSignal(0.0, 1.0, np.full(n, c))


# --- ExpansionSpec -----------------------------------------------------------

@given(n=st.integers(min_value=1, max_value=64), kb=st.integers(min_value=1, max_value=16))
@settings(max_examples=100, deadline=None)
def test_expansion_spec_invariants(n, kb):
    spec = ExpansionSpec.of(n, kb, 1.0)
    assert abs(math.fsum(spec.weights) - 1.0) <= 1e-14
    assert (spec.n, spec.b, spec.a) == (n, kb, n * kb)
    assert len(spec.weights) == n
    assert ExpansionSpec.of(n, kb, 0.25) == spec  # dt is unused


def test_expansion_spec_rejects_bad_term_count():
    with pytest.raises(ValueError):
        ExpansionSpec.of(0, 4, 1.0)


# --- recursive decomposition -------------------------------------------------

def test_decomposition_small_example_is_exact():
    sig = UniformSignal(0.0, 1.0, [1, 2, 3, 4, 5, 6])
    report = check_recursive_decomposition(sig, 1, 2)
    assert report.max_rel_residual <= 1e-15  # rounding of the 1/3, 2/3 weights
    assert report.valid_range == (2, 5)
    # the raw numbers behind the residual at index 5
    lhs = right_avg(sig, 3).values[-1]
    rhs = (1 / 3) * 6.0 + (2 / 3) * 4.5
    assert lhs == rhs == 5.0


def test_decomposition_constant():
    assert check_recursive_decomposition(constant(50), 4, 9).max_abs_residual == 0.0


def test_decomposition_random_10k(random_signal):
    sig = random_signal(10_000)
    report = check_recursive_decomposition(sig, 5, 7)
    assert report.max_rel_residual <= 1e-12


def test_decomposition_insufficient():
    with pytest.raises(InsufficientSamplesError):
        check_recursive_decomposition(constant(5), 3, 3)


# --- difference identity -------------------------------------------------------

def test_difference_identity_constant_and_ramp():
    assert check_difference_identity(constant(40), 3, 5).max_abs_residual == 0.0
    report = check_difference_identity(ramp(40), 2, 2)
    assert report.max_abs_residual == 0.0
    # both sides equal 1.0 on a unit ramp with two 2-sample windows
    short = right_avg(ramp(40), 2)
    assert macd(ramp(40), 2).values[0] == 1.0
    assert 0.5 * (short.values[2] - short.values[0]) == 1.0


def test_difference_identity_random_10k(random_signal):
    report = check_difference_identity(random_signal(10_000), 6, 4)
    assert report.max_rel_residual <= 1e-12


# --- derivative form ------------------------------------------------------------

def test_macd_derivative_constant_and_ramp():
    assert check_macd_derivative(constant(30), 3).max_abs_residual == 0.0
    sig = ramp(30)
    report = check_macd_derivative(sig, 2)
    assert report.max_abs_residual == 0.0
    assert np.all(macd(sig, 2).values == 1.0)
    assert np.all(smoothed_derivative(sig, 2).values == 1.0)


def test_macd_derivative_random_10k(random_signal):
    report = check_macd_derivative(random_signal(10_000), 8)
    assert report.max_rel_residual <= 1e-12


# --- phase-corrected form ---------------------------------------------------------

def test_phase_corrected_rejects_odd_window():
    with pytest.raises(ValueError, match="even"):
        check_phase_corrected_form(ramp(60), 3)


def test_phase_corrected_constant_and_ramp():
    assert check_phase_corrected_form(constant(30), 2).max_abs_residual == 0.0
    assert check_phase_corrected_form(ramp(30), 2).max_abs_residual == 0.0


def test_phase_corrected_random_10k(random_signal):
    report = check_phase_corrected_form(random_signal(10_000), 10)
    assert report.max_rel_residual <= 1e-12


def test_phase_corrected_runs_at_its_required_length(random_signal):
    # Two centered passes then a k-sample delay need 3k - 1 samples, the most
    # of any term.
    for k in (2, 4, 8):
        report = check_phase_corrected_form(random_signal(3 * k - 1), k)
        assert report.max_rel_residual <= 1e-12
        with pytest.raises(InsufficientSamplesError) as err:
            check_phase_corrected_form(random_signal(3 * k - 2), k)
        assert err.value.required == 3 * k - 1


def test_delayed_double_centered_equals_double_trailing(random_signal):
    # The shift identity behind the phase-corrected form, bit for bit.
    sig = random_signal(200)
    k = 6
    shifted = delay(centered_avg(centered_avg(sig, k), k), k)
    plain = double_right_avg(sig, k)
    sv, pv = aligned_values(shifted, plain)
    assert np.array_equal(sv, pv)


def test_centered_block_equals_trailing_block_one_lag_earlier(random_signal):
    # For even blocks, the centered double average at lag i*b reads the same
    # samples as the trailing double average at lag (i-1)*b.
    sig = random_signal(300)
    kb = 4
    for i in (1, 2, 3):
        cen = delay(centered_avg(centered_avg(sig, kb), kb), i * kb)
        tra = delay(double_right_avg(sig, kb), (i - 1) * kb)
        cv, tv = aligned_values(cen, tra)
        assert np.array_equal(cv, tv)


# --- recursive expansion -----------------------------------------------------------

def test_expansion_single_term_matches_derivative_form_bitwise(random_signal):
    sig = random_signal(500)
    spec = ExpansionSpec.of(1, 6, sig.dt)
    via_expansion = expansion_rhs(sig, spec)
    via_derivative = smoothed_derivative(sig, 6)
    ev, dv = aligned_values(via_expansion, via_derivative)
    assert np.max(np.abs(ev - dv)) <= 1e-14


def test_expansion_constant():
    spec = ExpansionSpec.of(3, 4, 1.0)
    assert check_recursive_expansion(constant(100), spec).max_abs_residual == 0.0


def test_expansion_random_10k(random_signal):
    sig = random_signal(10_000)
    report = check_recursive_expansion(sig, ExpansionSpec.of(5, 4, sig.dt))
    assert report.max_rel_residual <= 1e-12


def test_expansion_insufficient():
    spec = ExpansionSpec.of(4, 4, 1.0)
    with pytest.raises(InsufficientSamplesError) as err:
        check_recursive_expansion(constant(19), spec)
    assert err.value.required == (4 + 1) * 4


def test_expansion_check_runs_at_stream_warmup_length(random_signal):
    # (n+1)*b samples are all both sides need, and the stream's first output
    # comes at that sample too.
    for n, b in ((1, 3), (3, 2), (4, 4)):
        spec = ExpansionSpec(n, b)
        sig = random_signal((n + 1) * b)
        assert check_recursive_expansion(sig, spec).max_rel_residual <= 1e-12
        stream = ExpansionStream(spec)
        first = [stream.push(v) for v in sig.values][-1]
        rhs = expansion_rhs(sig, spec)
        assert len(rhs) == 1
        assert abs(rhs.values[0] - first) <= 1e-9



@pytest.mark.parametrize("n", range(1, 9))
def test_expansion_side_is_the_merged_two_n_term_side(n, rng):
    # Its n + 1 coefficients (w[m+1] - w[m]) / 2 are the bytes of the 2n
    # terms' -w[m]/2 + w[m+1]/2, as halving rounds nothing, so the side is
    # the one the merged terms give.
    walk = rng.standard_normal(400).cumsum()
    inputs = {
        "walk": walk,
        "walk + 1e8": walk + 1e8,
        "spread over e+-60": rng.standard_normal(400) * np.exp(rng.uniform(-60, 60, 400)),
    }
    for name, values in inputs.items():
        sig = UniformSignal(0.0, 1.0, values)
        for b in (1, 3, 8, 12):
            want = merged_expansion_side(sliding_sums(values, b) / b, n, b)
            got = expansion_rhs(sig, ExpansionSpec(n, b)).values
            assert got.tobytes() == want.tobytes(), (name, b)

# --- norm bound ----------------------------------------------------------------------

@pytest.mark.parametrize("p", [1, 2, math.inf])
def test_lp_bound_on_random_signals(p, rng):
    for trial in range(20):
        sig = UniformSignal(0.0, 0.5, rng.uniform(-1, 1, 600))
        ratio = check_lp_bound(sig, int(rng.integers(1, 12)), p)
        assert ratio <= 2.0
        assert ratio <= 1.0 + 1e-12


def test_lp_bound_constant_is_zero():
    for p in (1, 2, math.inf):
        assert check_lp_bound(constant(40), 4, p) == 0.0


def test_lp_bound_zero_signal_is_zero():
    zero = UniformSignal(0.0, 1.0, np.zeros(40))
    for p in (1, 2, math.inf):
        assert check_lp_bound(zero, 4, p) == 0.0
    records = run_checks(UniformSignal(0.0, 1.0, np.zeros(200)))
    assert len(records) == 7
    assert all(r.passed for r in records)


def test_lp_bound_keeps_its_ratio_at_extreme_magnitudes():
    # Scaling by 2**j is exact, so every ratio is the j = 0 one, though at
    # j = -560 the squares underflow and at j = 1000 their sum overflows.
    w = np.random.default_rng(13).standard_normal(2000).cumsum()
    want = {p: check_lp_bound(UniformSignal(0, 1, w), 8, p) for p in (1, 2, math.inf)}
    for j in (-560, 500, 1000):
        sig = UniformSignal(0, 1, w * 2.0**j)
        for p in want:
            got = check_lp_bound(sig, 8, p)
            assert math.isfinite(got) and abs(got - want[p]) <= 1e-12 * want[p], (j, p, got)
        [record] = run_checks(sig, ["lp_bound"])
        assert abs(record.max_rel_residual - max(want.values())) <= 1e-12 * max(want.values())


def test_checks_read_the_kept_macd(monkeypatch, random_signal):
    # The two derivative checks and the norm bound at p = 1, 2 and inf read
    # the MACD the signal keeps, and so do run_checks' five reads of it:
    # every read shares memory with the first.
    reads = []

    def spy(signal, k):
        out = operators.macd(signal, k)
        reads.append(out.values)
        return out

    monkeypatch.setattr(identities, "macd", spy)
    sig = random_signal(600)
    first = macd(sig, 8).values
    check_macd_derivative(sig, 8)
    check_phase_corrected_form(sig, 8)
    for p in (1, 2, math.inf):
        check_lp_bound(sig, 8, p)
    assert len(reads) == 5 and all(np.shares_memory(first, r) for r in reads)
    reads.clear()
    run_checks(random_signal(600))
    assert len(reads) == 5 and all(np.shares_memory(reads[0], r) for r in reads)


def test_norm_ratios_do_not_depend_on_what_the_signal_keeps(rng):
    # The ratios of a signal that keeps its peak and its MACD equal a fresh
    # signal's, whatever order the windows and orders come in.  Near 1e-305
    # the squares underflow and near 1e308 both sums overflow, so the rescale
    # path runs; there k = 1, as wider window sums would overflow.
    walk = rng.standard_normal(3000).cumsum()
    unit = walk / np.abs(walk).max()
    cases = {"walk": (walk, [8, 3, 8, 12]), "near 1e-305": (unit * 1e-305, [8, 1, 8]),
             "near 1e308": (unit * 1e308, [1, 1])}
    for name, (values, windows) in cases.items():
        sig = UniformSignal(0.0, 1.0, values)
        for k in windows:
            for p in (2, math.inf, 1, 2):
                want = check_lp_bound(UniformSignal(0.0, 1.0, values), k, p)
                assert check_lp_bound(sig, k, p) == want, (name, k, p)
        rescaled = not all(np.finfo(float).tiny <= identities._power_sum(values, p) < math.inf
                           for p in (1, 2))
        assert rescaled == (name != "walk"), name


def test_lp_bound_rejects_unknown_order():
    for p in (3, "inf", True, np.True_):  # math.inf is the one infinity norm order
        with pytest.raises(ValueError, match="norm order"):
            check_lp_bound(constant(40), 4, p)


# --- monotonicity ---------------------------------------------------------------------

def _oracle_scan(sig, a, b):
    """The oracle's scan of ``sig``: the three verdicts, then its counts by name."""
    sides = aligned_values(right_avg(sig, a), right_avg(sig, b), delay(right_avg(sig, b - a), a))
    passed, first, hypothesis, scanned, eq_passed, ties = oracle_monotonicity_scan(
        *sides, b - 1, default_tolerance(sig), b / (b - a))
    return (passed, first, eq_passed), {"hypothesis": hypothesis, "scanned": scanned,
                                        "ties": ties}


def test_monotonicity_on_strict_ramp():
    result = check_window_monotonicity(ramp(100), 3, 8)
    assert result.passed
    assert result.first_violation is None
    assert result.equality_passed
    verdicts, counts = _oracle_scan(ramp(100), 3, 8)
    assert tuple(result) == verdicts
    assert counts["hypothesis"] == counts["scanned"] == 93  # increasing: always fires
    assert counts["ties"] == 0  # the two averages stay (b - a) / 2 apart


def test_monotonicity_vacuous_on_constant():
    result = check_window_monotonicity(constant(100), 3, 8)
    assert result.passed
    assert result.equality_passed
    verdicts, counts = _oracle_scan(constant(100), 3, 8)
    assert tuple(result) == verdicts
    assert counts["hypothesis"] == 0
    assert counts["ties"] == counts["scanned"] == 93  # every index is a tie


def test_monotonicity_random_batch(rng):
    for _ in range(50):
        sig = UniformSignal(0.0, 1.0, rng.uniform(-1, 1, 512))
        result = check_window_monotonicity(sig, 3, 8)
        assert result.passed
        assert result.equality_passed


def _tie_inputs(rng):
    """Inputs whose averages tie exactly or nearly: constants, integer cycles, ulp noise."""
    n = 600
    cycle = np.tile([3.0, -1.0, 2.0, 0.0], n // 4)
    return {
        "constant": np.full(n, 0.1),
        "zeros": np.zeros(n),
        "cycle of 4": cycle,
        "cycle plus a step": cycle + (np.arange(n) >= n // 2),
        "constant plus ulp noise": 0.1 + rng.integers(-3, 4, n) * np.spacing(0.1),
        "walk within the tie tolerance": 1.0 + rng.standard_normal(n).cumsum() * 1e-12,
        "walk": rng.standard_normal(n).cumsum(),
    }


def test_monotonicity_scan_is_the_full_array_scan(rng):
    # The scan forms the violations as hypothesis & (short <= displaced) and
    # compares the displaced pair only at near ties; its result is the one
    # the full-array form gives, on exact and near ties alike.
    seen = Counter()
    for name, values in _tie_inputs(rng).items():
        sig = UniformSignal(0.0, 1.0, values)
        for a, b in [(1, 2), (2, 4), (3, 8), (4, 12), (8, 20)]:
            want, counts = _oracle_scan(sig, a, b)
            got = check_window_monotonicity(sig, a, b)
            assert tuple(got) == want, (name, a, b)
            seen.update(tie=counts["ties"] > 0, hypothesis=counts["hypothesis"] > 0,
                        violation=not got.passed)
    assert seen["tie"] and seen["hypothesis"] and seen["violation"], seen


def test_monotonicity_requires_longer_second_window():
    with pytest.raises(ValueError, match="exceed"):
        check_window_monotonicity(ramp(50), 8, 8)


# --- trend classification ----------------------------------------------------------------

def test_classify_trend_examples():
    up = classify_trend(ramp(50), 30, 2, 2)
    assert up.label == "increasing"
    assert up.margin == 1.0

    flat = classify_trend(constant(50), 30, 2, 2)
    assert flat.label == "linear"
    assert flat.margin == 0.0

    down = classify_trend(UniformSignal(0.0, 1.0, -np.arange(50.0)), 30, 2, 2)
    assert down.label == "decreasing"
    assert down.margin == -1.0


def test_classify_trend_antisymmetry(rng):
    sig = UniformSignal(0.0, 1.0, rng.uniform(-1, 1, 200))
    flipped = UniformSignal(0.0, 1.0, -sig.values)
    swap = {"increasing": "decreasing", "decreasing": "increasing", "linear": "linear"}
    for index in (20, 57, 199):
        a = classify_trend(sig, index, 3, 5, tol=1e-9)
        b = classify_trend(flipped, index, 3, 5, tol=1e-9)
        assert b.label == swap[a.label]
        assert b.margin == -a.margin


def test_classify_trend_scale_invariance(rng):
    sig = UniformSignal(0.0, 1.0, rng.uniform(-1, 1, 200))
    alpha = 37.5
    scaled = UniformSignal(0.0, 1.0, alpha * sig.values)
    tol = 1e-6
    for index in (30, 100, 150):
        base = classify_trend(sig, index, 4, 4, tol=tol)
        big = classify_trend(scaled, index, 4, 4, tol=tol * alpha)
        assert big.label == base.label
        assert big.margin == pytest.approx(alpha * base.margin, rel=1e-12)


def test_the_kept_peak_reads_as_a_fresh_one(rng):
    # The classifier's and the monotonicity scan's tolerance and the
    # sup-norm ratio read max|x| as the signal keeps it, found once: the same
    # float as a fresh max|x|, before and after the signal keeps it.  The
    # p = 1, 2 ratios rescale by its exponent where a norm's sum is not
    # normal, so they do not move when the walk is scaled by 2**-1000.
    walk = np.cumsum(rng.standard_normal(3000))
    for values in (walk, -np.abs(walk), np.zeros(50), np.ldexp(walk, -1000)):
        peak = float(np.max(np.abs(values)))
        fresh, sig = (UniformSignal(0.0, 1.0, values) for _ in range(2))
        assert default_tolerance(sig) == 1e-9 * peak and sig._peak == peak
        assert check_window_monotonicity(sig, 4, 12) == check_window_monotonicity(fresh, 4, 12)
        for index in (20, len(values) // 2, len(values) - 1):
            assert (classify_trend(sig, index, 4, 8)
                    == classify_trend(fresh, index, 4, 8, tol=1e-9 * peak))
        out = float(np.max(np.abs(macd(sig, 8).values)))
        assert check_lp_bound(sig, 8, math.inf) == (out / peak if peak else 0.0)
    for p in (1, 2, math.inf):
        assert (check_lp_bound(UniformSignal(0.0, 1.0, np.ldexp(walk, -1000)), 8, p)
                == check_lp_bound(UniformSignal(0.0, 1.0, walk), 8, p)), p


def test_classify_trend_index_bounds():
    sig = ramp(20)
    with pytest.raises(IndexError):
        classify_trend(sig, 2, 2, 2)  # needs index >= a.k + b.k - 1 = 3
    with pytest.raises(IndexError):
        classify_trend(sig, 20, 2, 2)
    classify_trend(sig, 3, 2, 2)  # boundary index is valid
    with pytest.raises(IndexError, match=r"^index -1 outside the valid range \[3, 19\] "):
        classify_trend(sig, -1, 2, 2)


@pytest.mark.parametrize("index", [True, np.True_, 5.0, 5.5, np.float64(5.0), "5"],
                         ids=["True", "np.True_", "5.0", "5.5", "np.float64", "str"])
def test_classify_trend_checks_index_as_counts_are_checked(index):
    # True labelled index 1, and 5.0 raised a bare TypeError from slicing.
    want = f"index needs an integer sample index, got {index!r}"
    with pytest.raises(ValueError) as err:
        classify_trend(ramp(20), index, 1, 1)
    assert str(err.value) == want
    assert classify_trend(ramp(20), np.int64(5), 1, 1) == classify_trend(ramp(20), 5, 1, 1)


def test_default_tolerance_tracks_magnitude():
    sig = UniformSignal(0.0, 1.0, np.array([0.5, -4.0, 1.0]))
    assert default_tolerance(sig) == pytest.approx(4e-9)


@pytest.mark.parametrize("tol", [-1.0, -1e-300, math.nan, math.inf, -math.inf, True,
                                 np.True_, "1e-12"])
def test_bad_tolerance_same_error_in_classify_and_run_checks(tol):
    # A negative tolerance labelled every margin above it "increasing", and
    # NaN labelled every margin "linear" and failed every gate.
    sig = ramp(40)
    want = f"tolerance must be finite and non-negative, got {tol!r}"
    report = check_macd_derivative(constant(40), 4)
    assert report.max_rel_residual == 0.0
    for call in (lambda: classify_trend(sig, 39, 8, 4, tol=tol),
                 lambda: run_checks(sig, ["macd_derivative"], tol=tol),
                 lambda: run_checks(sig, ["lp_bound"], tol=tol)):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == want
    # Zero is a tolerance: only an exact margin is linear, only a zero residual passes.
    assert classify_trend(sig, 39, 8, 4, tol=0.0).label == "increasing"
    assert classify_trend(constant(40), 39, 8, 4, tol=0.0).label == "linear"
    assert run_checks(constant(40), ["macd_derivative"], tol=0.0)[0].passed


def test_run_checks_rejects_a_tolerance_of_none():
    # Only classify_trend reads None as its default; run_checks raised TypeError on it.
    with pytest.raises(ValueError, match="^tolerance must be finite and non-negative, got None$"):
        run_checks(ramp(40), ["macd_derivative"], tol=None)


def test_identity_battery_with_non_representable_spacing(rng):
    # dt = 0.1 is inexact in binary; the deep delay/derivative compositions
    # must still re-align on the sample grid and stay at noise level.
    sig = UniformSignal(5.3, 0.1, rng.uniform(-1, 1, 20_000))
    reports = [
        check_recursive_decomposition(sig, 9, 14),
        check_difference_identity(sig, 11, 7),
        check_macd_derivative(sig, 13),
        check_phase_corrected_form(sig, 12),
        check_recursive_expansion(sig, ExpansionSpec.of(8, 8, sig.dt)),
    ]
    for report in reports:
        assert report.max_rel_residual <= 1e-12, report


@pytest.mark.parametrize("dt", [0.37, 1e-3, 1e-320, 1e300])
def test_check_records_do_not_depend_on_dt(dt):
    # The identities are statements about samples, in which the spacing
    # cancels, so every record at any dt is the dt = 1 one.
    x = np.random.default_rng(17).standard_normal(3000).cumsum()
    assert run_checks(UniformSignal(0.0, dt, x)) == run_checks(UniformSignal(0.0, 1.0, x))


def test_derivative_checks_at_a_tiny_spacing_on_large_values():
    # Differences near 1e10 over 8e-300 time units would overflow float64 as
    # a rate per unit time; the checks take the rate per sample.
    sig = UniformSignal(0.0, 1e-300, 1e10 * np.random.default_rng(19).standard_normal(500))
    for check in (check_macd_derivative, check_phase_corrected_form):
        assert check(sig, 8).passed, check.__name__


# --- residual report scale invariance ------------------------------------------------------

def test_residual_rel_scale_invariance(random_signal):
    sig = random_signal(2000)
    big = UniformSignal(sig.t0, sig.dt, 1e9 * sig.values)
    r1 = check_recursive_decomposition(sig, 5, 7)
    r2 = check_recursive_decomposition(big, 5, 7)
    assert r2.max_rel_residual <= 1e-12
    assert r2.max_rel_residual == pytest.approx(r1.max_rel_residual, rel=1e-3, abs=1e-15)


# --- check registry ---------------------------------------------------------------------

def test_run_checks_records_every_registry_entry(random_signal):
    sig = random_signal(2000)
    records = {r.name: r for r in run_checks(sig)}
    assert list(records) == list(CHECKS)
    assert all(r.passed and r.required is None for r in records.values())
    assert records["recursive_decomposition"].params == {"t1": 8, "t2": 12}
    assert records["recursive_expansion"].params == {"n": 4, "b": 4}
    assert records["monotonicity"].params == {"a": 8, "b": 20}
    assert [records[name].gate for name in ("macd_derivative", "lp_bound", "monotonicity")] \
        == [1e-12, 2.0, 0.0]
    report = check_difference_identity(sig, 8, 12)
    assert records["difference_identity"].max_abs_residual == report.max_abs_residual
    assert records["difference_identity"].max_rel_residual == report.max_rel_residual
    ratio = max(check_lp_bound(sig, 8, p) for p in (1, 2, math.inf))
    assert records["lp_bound"].max_rel_residual == ratio
    assert not run_checks(sig, ["recursive_decomposition"], tol=1e-30)[0].passed


def test_each_residual_check_returns_its_run_checks_record():
    # One record type: a residual check's own record, gated at the default
    # 1e-12, is the one run_checks returns at its defaults.
    sig = UniformSignal(0.0, 1.0, np.random.default_rng(23).standard_normal(2000).cumsum())
    own = {
        "recursive_decomposition": check_recursive_decomposition(sig, 8, 12),
        "difference_identity": check_difference_identity(sig, 8, 12),
        "macd_derivative": check_macd_derivative(sig, 8),
        "phase_corrected_form": check_phase_corrected_form(sig, 8),
        "recursive_expansion": check_recursive_expansion(sig, ExpansionSpec(4, 4)),
    }
    for name, report in own.items():
        assert run_checks(sig, [name])[0] == report, name
        assert (report.name, report.gate, report.passed, report.required) \
            == (name, 1e-12, True, None)


def test_run_checks_short_signal_and_bad_arguments():
    records = run_checks(ramp(12), ["recursive_expansion", "macd_derivative"], window=4)
    assert [(r.name, r.passed, r.required) for r in records] == [
        ("recursive_expansion", False, 20), ("macd_derivative", True, None)]
    assert math.isnan(records[0].max_rel_residual)
    with pytest.raises(KeyError):
        run_checks(ramp(100), ["fourier"])
    with pytest.raises(ValueError, match="even sample count"):
        run_checks(ramp(100), window=7)


def test_run_checks_calls_checks_through_module_names(monkeypatch, random_signal):
    # Replacing a check function in the module (as a tracer does) reroutes
    # the registry's call to it.
    calls = []
    original = identities.check_macd_derivative

    def spy(*args, **kwargs):
        calls.append(args[1:])
        return original(*args, **kwargs)

    monkeypatch.setattr(identities, "check_macd_derivative", spy)
    run_checks(random_signal(200), ["macd_derivative"], window=6)
    assert calls == [(6,)]


def test_derivative_checks_compare_the_public_macd(monkeypatch):
    # Both derivative-form checks read MACD through the operator itself, and
    # take their rate from windowed_derivative, so a skew of one part in 1e9
    # in either fails them.
    sig = UniformSignal(0.0, 1.0, np.random.default_rng(3).standard_normal(500).cumsum())
    for check in (check_macd_derivative, check_phase_corrected_form):
        assert check(sig, 8).passed

    for name in ("macd", "windowed_derivative"):
        def skewed(signal, k, op=getattr(operators, name)):
            out = op(signal, k)
            return out.with_values(out.values * (1 + 1e-9))

        with monkeypatch.context() as patch:
            patch.setattr(identities, name, skewed)
            for check in (check_macd_derivative, check_phase_corrected_form):
                assert not check(sig, 8).passed, (name, check.__name__)


@pytest.fixture
def sliding_sums_calls(monkeypatch):
    """The window of every ``sliding_sums`` call, from whichever macdkit module makes it."""
    calls = []
    original = operators.sliding_sums

    def counted(values, k):
        calls.append(k)
        return original(values, k)

    for name, module in list(sys.modules.items()):
        in_package = name.partition(".")[0] == "macdkit"
        if in_package and getattr(module, "sliding_sums", None) is original:
            monkeypatch.setattr(module, "sliding_sums", counted)
    return calls


# Windows summed from scratch on a fresh signal: at most one per distinct
# (signal, window) mean, as each signal keeps the means taken of it and the
# checks build every side with the public operators.  Every sum is of the
# input itself.  run_checks at its defaults takes S_8, S_12, S_20
# (decomposition; the difference identity, macd_derivative,
# phase_corrected_form, lp_bound and monotonicity reuse them), then S_4
# (expansion); A_16, the expansion's other window, grows from the kept A_8.
# 12 and 20 are not grown, as nothing is kept at or below their lowest
# digit, 4.
@pytest.mark.parametrize("run, windows", [
    (lambda s: check_phase_corrected_form(s, 8), [8]),  # macd and centered_avg share A_8
    (lambda s: check_difference_identity(s, 8, 12), [8, 12, 20]),
    (lambda s: check_macd_derivative(s, 8), [8]),
    (lambda s: run_checks(s), [4, 8, 12, 20]),
], ids=["phase_corrected_form", "difference_identity", "macd_derivative", "run_checks"])
def test_checks_take_each_window_sum_once(sliding_sums_calls, random_signal, run, windows):
    result = run(random_signal(500))
    assert sorted(sliding_sums_calls) == sorted(windows)
    assert all(r.passed for r in result) if isinstance(result, list) else result.passed


def test_operators_and_checks_on_one_signal_share_its_window_sum(sliding_sums_calls,
                                                                  random_signal):
    sig = random_signal(500)
    right_avg(sig, 8)
    centered_avg(sig, 8)
    macd(sig, 8)
    check_macd_derivative(sig, 8)
    for p in (1, 2, math.inf):
        check_lp_bound(sig, 8, p)
    assert sliding_sums_calls == [8]


def test_checks_over_the_batch_sweep_sum_each_kept_window_once(sliding_sums_calls,
                                                               random_signal):
    # The benchmark's window sweep asks one signal for k/2, k, 3k/2, 2k and
    # 5k/2 at k = 8, 32, 128.  Only the first step sums from scratch: every
    # later window grows from the power-of-two means the signal keeps, 16
    # and 64 too where the 8-window memo evicted them between two steps.
    sig = random_signal(2000)
    for k in (8, 32, 128):
        assert all(r.passed for r in run_checks(sig, window=k, long_window=3 * k // 2,
                                                n=4, b=k // 2)), k
    assert sorted(sliding_sums_calls) == [4, 8, 12, 20]


OPERATORS = {
    "right_avg": right_avg,
    "centered_avg": centered_avg,
    "double_right_avg": double_right_avg,
    "macd": macd,
    "smoothed_derivative": smoothed_derivative,
    "expansion_rhs": lambda s, k: expansion_rhs(s, ExpansionSpec(3, k)),
}
MEMO_WINDOWS = [2, 4, 6, 8, 12, 16, 20, 24, 32]


def _outputs(sig, windows):
    """Every operator at each window, and run_checks at each window pair."""
    ops = [(name, k, op(sig, k)) for k in windows for name, op in OPERATORS.items()]
    checks = [run_checks(sig, window=w, long_window=lw, n=3, b=w // 2)
              for w, lw in zip(windows, windows[1:])]
    return ops, checks


def _assert_same_outputs(got, want):
    (got_ops, got_checks), (want_ops, want_checks) = got, want
    for (name, k, g), (_, _, w) in zip(got_ops, want_ops, strict=True):
        assert g.t0 == w.t0 and np.array_equal(g.values, w.values), (name, k)
    assert got_checks == want_checks


def test_kept_window_sums_are_invisible(random_signal):
    sig = random_signal(500)
    run_checks(sig)
    _outputs(sig, MEMO_WINDOWS)
    assert 0 < len(sig._means) <= 8

    def fresh():
        return UniformSignal(sig.t0, sig.dt, sig.values)

    _assert_same_outputs(_outputs(sig, MEMO_WINDOWS), _outputs(fresh(), MEMO_WINDOWS))
    for name, (params_of, call) in CHECKS.items():
        params = params_of(8, 12, 3, 4)
        assert call(sig, 1e-12, **params) == call(fresh(), 1e-12, **params), name
    for k, kept in sig._means.items():
        assert not kept.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            kept[0] = 0.0
        public = operators.sliding_sums(sig.values, k)
        assert public.flags.writeable and np.array_equal(public / k, kept)
        assert not any(np.shares_memory(public, other) for other in sig._means.values())
    # The memo is private, so repr shows only t0 and dt.
    assert repr(sig) == f"UniformSignal(t0={sig.t0!r}, dt={sig.dt!r})"
    assert repr(sig) == repr(fresh())
    one = UniformSignal(2.0, 0.5, [3.0])
    right_avg(one, 1)
    assert one._means and repr(one) == repr(UniformSignal(2.0, 0.5, [3.0]))


def test_threads_sharing_a_signal_get_single_thread_results(random_signal):
    # Eight threads share one signal and ask for more windows than it keeps,
    # so its memo evicts all the time: first through the operators and
    # checks, then in a tight loop on the memo alone, where a thread switch
    # falls between two dict operations most often.
    sig = random_signal(300)
    plans = [MEMO_WINDOWS[i % 3:][:4] + [40 + 2 * i] for i in range(8)]
    want = [_outputs(UniformSignal(sig.t0, sig.dt, sig.values), plan) for plan in plans]
    want_means = {k: operators.sliding_sums(sig.values, k) / k for k in range(1, 17)}
    got, errors = [None] * len(plans), []

    def work(i):
        try:
            for _ in range(5):
                got[i] = _outputs(sig, plans[i])
            for j in range(2000):
                k = 1 + (3 * i + j) % 16
                assert np.array_equal(operators._window_means(sig, k), want_means[k]), k
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(plans))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(old)
    assert errors == []
    for g, w in zip(got, want, strict=True):
        _assert_same_outputs(g, w)
    assert len(sig._means) <= 8
