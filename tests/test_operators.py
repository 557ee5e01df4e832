import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macdkit import (
    InsufficientSamplesError,
    UniformSignal,
    centered_avg,
    delay,
    double_right_avg,
    macd,
    right_avg,
    sample_offset,
    sliding_sums,
    windowed_derivative,
)

from .oracles import naive_macd, naive_right_avg, naive_window_sums


def ramp(n, dt=1.0):
    return UniformSignal(0.0, dt, np.arange(float(n)))


def value_at(out, source, index):
    """Output value at the source signal's global index."""
    return out.values[index - sample_offset(out, source)]


# --- right_avg -------------------------------------------------------------

def test_right_avg_small_example():
    sig = UniformSignal(0.0, 1.0, [1, 2, 3, 4, 5, 6])
    out = right_avg(sig, 2)
    assert value_at(out, sig, 1) == 1.5
    assert out.values.tolist() == naive_right_avg(sig.values.tolist(), 2)


def test_right_avg_is_identity_on_constants():
    sig = UniformSignal(0.0, 1.0, np.full(30, 4.25))
    for k in (1, 2, 3, 7, 30):
        assert np.all(right_avg(sig, k).values == 4.25)


def test_right_avg_ramp_closed_form():
    sig = ramp(40)
    out = right_avg(sig, 4)
    start = sample_offset(out, sig)
    assert start == 3
    for i in range(start, 40):
        assert value_at(out, sig, i) == i - 1.5


def test_right_avg_matches_naive_oracle(random_signal):
    sig = random_signal(500)
    for k in (1, 2, 5, 16, 63):
        got = right_avg(sig, k).values
        expected = naive_right_avg(sig.values.tolist(), k)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14)


def test_right_avg_alignment_and_length():
    sig = UniformSignal(5.0, 0.25, np.arange(12.0))
    out = right_avg(sig, 5)
    assert len(out) == 12 - 5 + 1
    assert out.t0 == pytest.approx(5.0 + 4 * 0.25)
    assert out.dt == sig.dt


def test_right_avg_insufficient_samples():
    sig = UniformSignal(0.0, 1.0, [1.0, 2.0])
    with pytest.raises(InsufficientSamplesError) as err:
        right_avg(sig, 3)
    assert err.value.required == 3


def test_sliding_sums_match_direct_convolution(random_signal):
    sig = random_signal(3000)
    direct = np.convolve(sig.values, np.ones(300), "valid")
    np.testing.assert_allclose(sliding_sums(sig.values, 300), direct, rtol=0, atol=1e-11)


@pytest.mark.parametrize("c", [0.1, -7.3, 5e-324, 1.3e306])
def test_sliding_sums_exact_on_constants(c):
    # Every output takes the same adds, so a constant input gives one float
    # per window length, even where the sum itself rounds.
    vals = np.full(2000, c)
    for k in [*range(1, 65), 128]:
        sums = sliding_sums(vals, k)
        assert np.all(sums == sums[0]), k


def doubling_error_bound(window, k):
    """Rounding bound of a doubled window sum: one epsilon per add level."""
    return (k.bit_length() + bin(k).count("1")) * np.finfo(float).eps * math.fsum(map(abs, window))


def assert_within_doubling_bound(values, k):
    got = sliding_sums(np.asarray(values), k)
    expected = naive_window_sums(list(values), k)
    assert got.shape == (len(values) - k + 1,)
    for j, (g, e) in enumerate(zip(got, expected)):
        assert abs(g - e) <= doubling_error_bound(values[j : j + k], k), (k, j, g, e)


@given(
    values=st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=300),
    data=st.data(),
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_sliding_sums_within_doubling_error_bound(values, data):
    k = data.draw(st.integers(min_value=1, max_value=len(values)), label="k")
    assert_within_doubling_bound(values, k)


@pytest.mark.parametrize("k", sorted({1, 2, 3} | {2**j + d for j in range(2, 12) for d in (-1, 0, 1)}))
def test_sliding_sums_within_bound_at_binary_edges(k, rng):
    # Windows of all ones, a single digit, and one past a power of two: the
    # most adds, the fewest, and the longest run of doublings then one add.
    assert_within_doubling_bound(rng.uniform(-1, 1, 2600).tolist(), k)


@pytest.mark.parametrize("n", [1, 2, 7, 64, 1000])
def test_sliding_sums_window_of_whole_signal(n, rng):
    values = rng.uniform(-1, 1, n).tolist()
    assert_within_doubling_bound(values, n)


def test_sliding_sums_of_one_sample_is_a_copy():
    values = np.array([1.0, -2.0, 3.5])
    sums = sliding_sums(values, 1)
    assert np.array_equal(sums, values) and not np.shares_memory(sums, values)


@pytest.mark.parametrize("k", [8, 300, 512, 2048])
def test_sliding_sums_match_exact_window_sums(k, random_signal):
    # Up to eleven doublings at k = 2048; 1e-12 is about a hundred ulps of
    # a typical window sum of 2048 samples in [-1, 1].
    sig = random_signal(3000)
    expected = naive_window_sums(sig.values.tolist(), k)
    np.testing.assert_allclose(sliding_sums(sig.values, k), expected, rtol=0, atol=1e-12)


def test_sliding_sums_temporary_memory_is_bounded():
    # The window sums double in two buffers of n - 1 floats that take
    # turns, about 2x the input whatever the window.
    values = np.random.default_rng(5).standard_normal(1_000_000)
    tracemalloc.start()
    try:
        sliding_sums(values, 2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * values.nbytes


def test_signal_keeps_at_most_eight_window_sums():
    # Each kept sum holds one buffer of at most n floats, so 40 windows
    # asked of one signal retain at most 8 * n * 8 bytes; the 64 KiB slack
    # covers the dict and the array headers.
    n = 100_000
    sig = UniformSignal(0.0, 1.0, np.random.default_rng(6).standard_normal(n))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for k in range(1, 41):
            right_avg(sig, k)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(sig._sums) <= 8
    assert retained <= 8 * n * 8 + 64 * 1024


# --- centered_avg ----------------------------------------------------------

def test_centered_avg_requires_even_window():
    with pytest.raises(ValueError, match="even"):
        centered_avg(ramp(10), 3)


def test_centered_avg_small_example():
    sig = UniformSignal(0.0, 1.0, [0, 0, 4, 0, 0])
    out = centered_avg(sig, 2)
    assert value_at(out, sig, 2) == 2.0


def test_centered_avg_constant():
    sig = UniformSignal(0.0, 1.0, np.full(20, -2.5))
    assert np.all(centered_avg(sig, 4).values == -2.5)


def test_centered_avg_is_shifted_right_avg():
    # Bit-exact: the centered pass reuses the trailing-average samples,
    # re-anchored half a window earlier.
    sig = UniformSignal(1.0, 0.5, np.sin(np.arange(50.0)))
    for k in (2, 4, 10):
        cen = centered_avg(sig, k)
        tra = right_avg(sig, k)
        assert np.array_equal(cen.values, tra.values)
        assert sample_offset(tra, sig) - sample_offset(cen, sig) == k // 2


def test_centered_avg_ramp_half_cell_offset():
    # On the integer ramp the centered average lands half a sample above the
    # ramp for every even window: the window mean sits half a cell past the
    # anchor in the piecewise-constant model.
    sig = ramp(30)
    for k in (2, 4, 8):
        out = centered_avg(sig, k)
        start = sample_offset(out, sig)
        for i in range(max(start, 0), min(30, start + len(out))):
            assert value_at(out, sig, i) == i + 0.5


# --- double_right_avg -------------------------------------------------------

def test_double_avg_constant_and_ramp():
    const = UniformSignal(0.0, 1.0, np.full(10, 7.0))
    assert np.all(double_right_avg(const, 2).values == 7.0)
    out = double_right_avg(ramp(20), 2)
    sig = ramp(20)
    for i in range(2, 20):
        assert value_at(out, sig, i) == i - 1.0


def test_double_avg_impulse_is_triangular():
    sig = UniformSignal(0.0, 1.0, [0, 0, 0, 0, 1, 0, 0, 0, 0, 0])
    out = double_right_avg(sig, 2)
    assert value_at(out, sig, 4) == 0.25
    assert value_at(out, sig, 5) == 0.5
    assert value_at(out, sig, 6) == 0.25


def test_double_avg_equals_two_passes(random_signal):
    sig = random_signal(200)
    two = right_avg(right_avg(sig, 6), 6)
    one = double_right_avg(sig, 6)
    assert np.array_equal(two.values, one.values)


# --- macd -------------------------------------------------------------------

@given(
    c=st.floats(min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False),
    k=st.integers(min_value=1, max_value=16),
)
@settings(max_examples=200, deadline=None)
def test_macd_annihilates_constants_bit_exactly(c, k):
    sig = UniformSignal(0.0, 1.0, np.full(4 * k, c))
    assert np.all(macd(sig, k).values == 0.0)


def test_macd_ramp_is_half_window_length():
    for dt in (1.0, 0.5):
        sig = ramp(30, dt=dt)
        out = macd(sig, 2)
        # slope is 1/dt per time unit, so the plateau is a/2 * slope = k/2.
        assert np.all(out.values == 1.0)


def test_macd_quadratic_frozen_value():
    sig = UniformSignal(0.0, 1.0, np.arange(10.0) ** 2)
    out = macd(sig, 2)
    assert value_at(out, sig, 5) == 7.0


def test_macd_matches_naive_oracle(random_signal):
    sig = random_signal(400)
    for k in (1, 3, 8):
        got = macd(sig, k).values
        expected = naive_macd(sig.values.tolist(), k)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14)


def test_macd_equals_difference_of_averages(random_signal):
    sig = random_signal(300)
    for k in (2, 5):
        out = macd(sig, k)
        short = right_avg(sig, k)
        long_ = right_avg(sig, 2 * k)
        start = sample_offset(out, sig)
        diff = short.values[start - (k - 1) :] - long_.values
        np.testing.assert_allclose(out.values, diff, rtol=0, atol=1e-15)


def test_macd_valid_range():
    sig = ramp(10)
    out = macd(sig, 2)
    assert sample_offset(out, sig) == 3
    assert len(out) == 10 - 4 + 1
    with pytest.raises(InsufficientSamplesError):
        macd(ramp(3), 2)


# --- delay -------------------------------------------------------------------

def test_delay_zero_is_identity():
    sig = ramp(5)
    assert delay(sig, 0) is sig


def test_delay_small_example():
    sig = UniformSignal(0.0, 1.0, [1, 2, 3])
    out = delay(sig, 1)
    assert value_at(out, sig, 2) == 2.0
    assert len(out) == 2


def test_delay_ramp_shift():
    sig = ramp(20)
    out = delay(sig, 4)
    for i in range(4, 20):
        assert value_at(out, sig, i) == i - 4


def test_delay_rejects_lag_at_or_past_length():
    with pytest.raises(InsufficientSamplesError):
        delay(ramp(3), 3)
    with pytest.raises(ValueError):
        delay(ramp(3), -1)


# --- windowed_derivative ------------------------------------------------------

def test_windowed_derivative_examples():
    const = UniformSignal(0.0, 1.0, np.full(10, 3.0))
    assert np.all(windowed_derivative(const, 3).values == 0.0)

    slope = UniformSignal(0.0, 0.5, 2.5 * np.arange(20.0) * 0.5)
    assert np.all(windowed_derivative(slope, 4).values == 2.5)

    step = UniformSignal(0.0, 1.0, [0, 0, 1, 1])
    out = windowed_derivative(step, 2)
    assert value_at(out, step, 2) == 0.5


def test_windowed_derivative_insufficient():
    with pytest.raises(InsufficientSamplesError) as err:
        windowed_derivative(ramp(4), 4)
    assert err.value.required == 5


# --- shared properties ---------------------------------------------------------

OPERATORS = [
    lambda s: right_avg(s, 5),
    lambda s: centered_avg(s, 4),
    lambda s: double_right_avg(s, 3),
    lambda s: macd(s, 4),
    lambda s: delay(s, 3),
    lambda s: windowed_derivative(s, 5),
]


@pytest.mark.parametrize("op", OPERATORS, ids=["avg", "centered", "double", "macd",
                                               "delay", "deriv"])
def test_linearity(op, rng):
    f = UniformSignal(0.0, 1.0, rng.uniform(-1, 1, 120))
    g = UniformSignal(0.0, 1.0, rng.uniform(-1, 1, 120))
    alpha, beta = 1.7, -0.4
    combined = UniformSignal(0.0, 1.0, alpha * f.values + beta * g.values)
    lhs = op(combined).values
    rhs = alpha * op(f).values + beta * op(g).values
    scale = max(np.max(np.abs(lhs)), 1e-30)
    assert np.max(np.abs(lhs - rhs)) / scale <= 1e-12


def test_operator_outputs_are_read_only_and_public_signals_own_their_values(rng):
    raw = rng.uniform(-1, 1, 40)
    kept = raw.copy()
    sig = UniformSignal(0.0, 1.0, raw)
    raw[:] = 0.0
    assert np.array_equal(sig.values, kept)
    for op in OPERATORS:
        out = op(sig)
        with pytest.raises(ValueError, match="read-only"):
            out.values[0] = 1.0
    with pytest.raises(ValueError, match="^non-finite value at sample 2$"):
        UniformSignal(0.0, 1.0, [1.0, 2.0, np.inf])
    # The quotient of two finite samples overflows, so it still takes the
    # checked path, and says so with no RuntimeWarning first.
    with pytest.raises(ValueError, match="^non-finite value at sample 0$"):
        windowed_derivative(UniformSignal(0.0, 0.5, [-1e308, 1e308]), 1)


@pytest.mark.parametrize("k", list(range(1, 33)))
def test_step_response_regularity_gain(k):
    # Averaging a unit step turns the jump into a staircase whose largest
    # successive difference is 1/k: bit-exact for power-of-two windows,
    # otherwise within one ulp at the scale of the outputs (the staircase
    # values are correctly rounded j/k, so their differences can sit up to
    # 2^-53 off even though each value is as good as it gets).
    values = np.zeros(4 * k)
    values[2 * k :] = 1.0
    sig = UniformSignal(0.0, 1.0, values)
    steps = np.abs(np.diff(right_avg(sig, k).values))
    largest = steps.max()
    if k & (k - 1) == 0:
        assert largest == 1.0 / k
    else:
        assert abs(largest - 1.0 / k) <= np.spacing(1.0) / 2
