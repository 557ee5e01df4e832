import math
import re

import numpy as np
import pytest

from macdkit import (
    ExpansionSpec,
    MacdStream,
    UniformSignal,
    aligned_values,
    ExpansionStream,
    box_kernel,
    build_kernel,
    centered_avg,
    check_difference_identity,
    check_lp_bound,
    check_macd_derivative,
    check_phase_corrected_form,
    check_recursive_decomposition,
    check_window_monotonicity,
    classify_trend,
    delay,
    expansion_rhs,
    double_right_avg,
    expansion_kernel,
    macd,
    macd_kernel,
    right_avg,
    sample_offset,
    sliding_sums,
    smoothed_derivative,
    smoothed_derivative_kernel,
    triangular_kernel,
    windowed_derivative,
)
from macdkit.operators import _box_terms, _window_means
from macdkit.signals import WINDOW_SUM_OVERFLOW, lag_size, window_size

from .oracles import multiply_add_side

# True is an int to isinstance, but never a count.
BAD_COUNTS = [0, -1, 2.5, "3", True]


def test_signal_validates_inputs():
    with pytest.raises(ValueError):
        UniformSignal(0.0, 0.0, [1.0])
    with pytest.raises(ValueError):
        UniformSignal(0.0, -1.0, [1.0])
    # The time step of an overflowing pair such as -1e308, 1e308.
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        UniformSignal(-1e308, np.inf, [1.0, 2.0])
    with pytest.raises(ValueError):
        UniformSignal(0.0, 1.0, [])
    with pytest.raises(ValueError, match="non-finite"):
        UniformSignal(0.0, 1.0, [1.0, np.nan, 2.0])
    with pytest.raises(ValueError, match="non-finite"):
        UniformSignal(0.0, 1.0, [1.0, np.inf])
    # A non-finite start would place every sample at nan or at an infinity.
    for t0 in (np.nan, np.inf, -np.inf, True, np.True_, "0"):
        with pytest.raises(ValueError, match=f"^t0 must be finite, got {t0}$"):
            UniformSignal(t0, 1.0, [1.0, 2.0])


def test_signal_rejects_multi_dimensional_values():
    # A 2-D array was flattened into one series without any error.
    for values, shape in [([[1.0, 2.0], [3.0, 4.0]], "(2, 2)"), (np.zeros((3, 1)), "(3, 1)"),
                          (np.zeros((1, 1, 2)), "(1, 1, 2)")]:
        want = f"values must be one-dimensional, got shape {shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            UniformSignal(0.0, 1.0, values)
    # A scalar stays a one-sample signal.
    assert UniformSignal(0.0, 1.0, 2.5).values.tolist() == [2.5]


def test_signal_rejects_a_last_sample_time_past_the_float_range():
    # A finite t0 near the float maximum once gave derived starts of inf, and
    # run_checks then raised "cannot convert float NaN to integer".
    walk = np.cumsum(np.random.default_rng(5).standard_normal(300))
    with pytest.raises(ValueError,
                       match=r"^last sample time 1\.7e\+308 \+ 299\*1e\+306 overflows$"):
        UniformSignal(1.7e308, 1e306, walk)
    # A grid that ends below the float maximum is accepted, as is one sample at it.
    assert np.isfinite(UniformSignal(1.7e308, 1e303, walk).times()).all()
    assert UniformSignal(np.finfo(float).max, 1e306, [1.0]).t0 == np.finfo(float).max


def test_signal_values_are_immutable():
    sig = UniformSignal(0.0, 1.0, [1.0, 2.0])
    with pytest.raises(ValueError):
        sig.values[0] = 5.0


@pytest.mark.parametrize("values, least", [
    ([3.0, -2.0, 7.0], 2.0),
    ([0.0, -0.0, 3.0, -2.0, 0.0], 2.0),
    ([-0.0, 1e-300, -4e-310, 0.0], 4e-310),
    ([0.0, 1.0, -5e-324, 2.5e-322, -0.0], 5e-324),
    ([0.0, -0.0, 0.0], math.inf),
    ([-0.0], math.inf),
])
def test_floor_is_the_least_nonzero_magnitude(values, least):
    assert UniformSignal(0.0, 1.0, values)._floor == least


def test_times_and_len():
    sig = UniformSignal(2.0, 0.5, [1.0, 2.0, 3.0])
    assert len(sig) == 3
    assert sig.times() == pytest.approx([2.0, 2.5, 3.0])


def test_window_spec():
    assert window_size(4) == 4
    assert type(window_size(np.int64(4))) is int
    assert window_size(6, even=True) == 6
    for bad in BAD_COUNTS + [3.0, None]:
        with pytest.raises(ValueError) as err:
            window_size(bad)
        assert str(err.value) == f"window needs a positive integer sample count, got {bad!r}"
    with pytest.raises(ValueError, match="positive integer sample count, got 0"):
        window_size(0, even=True)
    with pytest.raises(ValueError, match="centered window must have an even sample count, got 7"):
        window_size(7, even=True)


@pytest.mark.parametrize("bad", BAD_COUNTS)
def test_bad_window_same_error_in_every_layer(bad):
    sig = UniformSignal(0.0, 1.0, np.arange(64.0))
    layers = {
        "sliding_sums": lambda k: sliding_sums(sig.values, k),
        "right_avg": lambda k: right_avg(sig, k),
        "centered_avg": lambda k: centered_avg(sig, k),
        "double_right_avg": lambda k: double_right_avg(sig, k),
        "macd": lambda k: macd(sig, k),
        "windowed_derivative": lambda k: windowed_derivative(sig, k),
        "smoothed_derivative": lambda k: smoothed_derivative(sig, k),
        "check_recursive_decomposition": lambda k: check_recursive_decomposition(sig, 4, k),
        "check_macd_derivative": lambda k: check_macd_derivative(sig, k),
        "check_phase_corrected_form": lambda k: check_phase_corrected_form(sig, k),
        "check_lp_bound": lambda k: check_lp_bound(sig, k, 2),
        "check_window_monotonicity": lambda k: check_window_monotonicity(sig, k, 8),
        "classify_trend": lambda k: classify_trend(sig, 63, k, 4),
        "box_kernel": box_kernel,
        "build_kernel centered": lambda k: build_kernel(("centered", k)),
        "build_kernel deriv": lambda k: build_kernel(("deriv", k)),
        "macd_kernel": macd_kernel,
        "triangular_kernel": triangular_kernel,
        "smoothed_derivative_kernel": smoothed_derivative_kernel,
        "expansion_kernel": lambda k: expansion_kernel(2, k),
        "ExpansionSpec": lambda k: ExpansionSpec(2, k),
        "MacdStream": MacdStream,
    }
    want = f"window needs a positive integer sample count, got {bad!r}"
    for name, call in layers.items():
        with pytest.raises(ValueError) as err:
            call(bad)
        assert str(err.value) == want, name


def test_odd_centered_window_same_error_in_every_layer():
    sig = UniformSignal(0.0, 1.0, np.arange(64.0))
    for call in (lambda: centered_avg(sig, 7), lambda: check_phase_corrected_form(sig, 7),
                 lambda: build_kernel(("centered", 7))):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == "centered window must have an even sample count, got 7"


@pytest.mark.parametrize("bad", BAD_COUNTS)
def test_bad_term_count_same_error_in_every_layer(bad):
    for call in (lambda: ExpansionSpec(bad, 4), lambda: ExpansionSpec.of(bad, 4, 1.0),
                 lambda: expansion_kernel(bad, 4)):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == f"term count must be a positive integer, got {bad!r}"


BAD_LAGS = [-1, 2.5, "3", None, True]


def test_lag_size():
    assert lag_size(0) == 0
    assert type(lag_size(np.int64(3))) is int
    for bad in BAD_LAGS + [3.0]:
        with pytest.raises(ValueError) as err:
            lag_size(bad)
        assert str(err.value) == f"lag needs a non-negative integer sample count, got {bad!r}"


@pytest.mark.parametrize("bad", BAD_LAGS)
def test_bad_lag_same_error_in_every_layer(bad):
    sig = UniformSignal(0.0, 1.0, np.arange(64.0))
    layers = {
        "delay": lambda lag: delay(sig, lag),
        "build_kernel": lambda lag: build_kernel(("delay", lag)),
    }
    want = f"lag needs a non-negative integer sample count, got {bad!r}"
    for name, call in layers.items():
        with pytest.raises(ValueError) as err:
            call(bad)
        assert str(err.value) == want, name


def test_window_sum_overflow_same_error_from_batch_and_stream():
    huge = UniformSignal(0.0, 1.0, np.full(16, 1e308))
    stream_calls = {
        "MacdStream": lambda: MacdStream(2),
        "ExpansionStream": lambda: ExpansionStream(ExpansionSpec(3, 2)),
    }
    batch_calls = {
        "sliding_sums": lambda: sliding_sums(huge.values, 2),
        "right_avg": lambda: right_avg(huge, 2),
        "macd": lambda: macd(huge, 2),
        "expansion_rhs": lambda: expansion_rhs(huge, ExpansionSpec(3, 2)),
    }
    messages = {}
    for name, call in batch_calls.items():
        with pytest.raises(ValueError) as err:
            call()
        messages[name] = str(err.value)
    for name, make in stream_calls.items():
        stream = make()
        stream.push(1e308)
        with pytest.raises(ValueError) as err:
            stream.push(1e308)
        messages[name] = str(err.value)
    assert len(set(messages.values())) == 1, messages
    assert "overflow" in messages["macd"]


def test_partial_window_sum_overflow_raises_not_nan():
    # Each 4-sample window sum is finite, but the 2-sample sums it doubles
    # from are inf and -inf; their sum would be NaN, never a value.
    values = [1e308, 1e308, -1e308, -1e308]
    with pytest.raises(ValueError) as err:
        sliding_sums(np.array(values), 4)
    assert str(err.value) == WINDOW_SUM_OVERFLOW
    with pytest.raises(ValueError) as err:
        macd(UniformSignal(0.0, 1.0, values + [0.0] * 4), 4)
    assert str(err.value) == WINDOW_SUM_OVERFLOW
    # The stream's newest 2 samples already overflow their running sum.
    stream = MacdStream(2)
    stream.push(values[0])
    with pytest.raises(ValueError) as err:
        stream.push(values[1])
    assert str(err.value) == WINDOW_SUM_OVERFLOW


@pytest.mark.parametrize("values, n, b", [
    ((-1e308, 1e308), 1, 1),
    ((1e308, -1e308), 1, 1),
    ((-8e307, -8e307, 8e307, 8e307), 1, 2),
    ((-1e308, 1e308, -1e308), 2, 1),
])
def test_window_sum_difference_same_finite_value_from_batch_and_stream(values, n, b):
    # Every window sum is finite, but their difference overflows float64;
    # the true value, mean of the newest n*b samples minus mean of the
    # newest (n+1)*b, is finite, and every layer returns it.
    sig = UniformSignal(0.0, 1.0, values)
    spec = ExpansionSpec(n, b)
    want = math.fsum(values[-n * b:]) / (n * b) - math.fsum(values) / ((n + 1) * b)
    got = {"expansion_rhs": expansion_rhs(sig, spec).values[-1]}
    streams = {"ExpansionStream": ExpansionStream(spec)}
    if n == 1:
        got["macd"] = macd(sig, b).values[-1]
        streams["MacdStream"] = MacdStream(b)
    for name, stream in streams.items():
        got[name] = [stream.push(v) for v in values][-1]
    for name, value in got.items():
        assert abs(value - want) <= 1e-15 * abs(want), (name, value, want)


def test_weighted_sum_of_box_means_that_overflows_raises():
    # Every window sum is finite, but the two 1-means add to 3.4e308, past
    # the float64 maximum, inside the weighted sum itself.
    sig = UniformSignal(0.0, 1.0, [1.7e308, 1.7e308])
    with pytest.raises(ValueError) as err:
        _box_terms(sig, "a sum of means", [(1.0, 1, 0), (1.0, 1, 1)])
    assert str(err.value) == WINDOW_SUM_OVERFLOW
    assert err.traceback[-1].name == "_box_terms"
    # Every 3-sample window sum is finite, but binary doubling first adds
    # -1.292e308 + -1.292e308 as a partial 2-sum, which overflows, so the
    # window sum raises before any mean is weighted.
    sig = UniformSignal(0.0, 1.0, [0.0, 1.292e308, -1.292e308, -1.292e308, 1.7e308])
    with pytest.raises(ValueError) as err:
        _box_terms(sig, "a difference of means", [(1.0, 1, 0), (-1.0, 3, 0)])
    assert str(err.value) == WINDOW_SUM_OVERFLOW
    with pytest.raises(ValueError) as err:
        check_difference_identity(sig, 1, 2)
    assert str(err.value) == WINDOW_SUM_OVERFLOW


def _multiply_add(sig, terms):
    """A box-terms side in the multiply-and-add form, from the same kept means."""
    span = max(k + lag for _, k, lag in terms)
    return multiply_add_side([(c, _window_means(sig, k)[span - k - lag : len(sig) - k + 1 - lag])
                              for c, k, lag in terms])


def test_a_short_minus_long_side_is_the_multiply_and_add_side(rng):
    # A (1, -1) side takes the multiply and add, which gives the bytes of
    # a - b, signed zeros included, as a product by 1 or -1 rounds nothing;
    # and the overflow error where the difference of two finite means
    # overflows.
    big = np.finfo(np.float64).max
    inputs = {
        "walk": rng.standard_normal(300).cumsum(),
        "spread over 1e+-30": rng.standard_normal(300) * 10.0 ** rng.uniform(-30, 30, 300),
        "signed zeros": rng.choice([0.0, -0.0, 1.0, -1.0], 300),
        "near the largest float": rng.choice([-1.0, 1.0], 300) * big,
    }
    raised = 0
    for name, values in inputs.items():
        sig = UniformSignal(0.0, 1.0, values)
        for a, b, lag in [(1, 1, 1), (1, 2, 0), (3, 5, 0), (8, 20, 0), (4, 4, 4), (2, 3, 7)]:
            terms = [(1.0, a, 0), (-1.0, b, lag)]
            try:
                want = _multiply_add(sig, terms)
            except (FloatingPointError, ValueError):
                with pytest.raises(ValueError) as err:
                    _box_terms(sig, "a difference of means", terms)
                assert str(err.value) == WINDOW_SUM_OVERFLOW, (name, terms)
                raised += 1
                continue
            got = _box_terms(sig, "a difference of means", terms).values
            assert got.tobytes() == want.tobytes(), (name, terms)
    assert raised, "no side overflowed"


def test_sample_offset():
    a = UniformSignal(0.0, 1.0, np.arange(10.0))
    b = UniformSignal(3.0, 1.0, np.arange(5.0))
    assert sample_offset(b, a) == 3
    assert sample_offset(a, b) == -3
    mismatched = UniformSignal(0.0, 2.0, np.arange(5.0))
    with pytest.raises(ValueError, match="spacings"):
        sample_offset(mismatched, a)
    off_grid = UniformSignal(0.4, 1.0, np.arange(5.0))
    with pytest.raises(ValueError, match="grid"):
        sample_offset(off_grid, a)


def test_aligned_values_trims_to_overlap():
    base = UniformSignal(0.0, 1.0, np.arange(10.0))
    late = UniformSignal(4.0, 1.0, np.arange(4.0))
    va, vb = aligned_values(base, late)
    assert va.tolist() == [4.0, 5.0, 6.0, 7.0]
    assert vb.tolist() == [0.0, 1.0, 2.0, 3.0]


def test_aligned_values_empty_overlap():
    a = UniformSignal(0.0, 1.0, np.arange(3.0))
    b = UniformSignal(10.0, 1.0, np.arange(3.0))
    with pytest.raises(ValueError, match="overlap"):
        aligned_values(a, b)


def test_aligned_values_needs_a_signal():
    with pytest.raises(ValueError) as err:
        aligned_values()
    assert str(err.value) == "need at least one signal"
