import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macdkit import (
    InsufficientSamplesError,
    UniformSignal,
    apply_kernel,
    centered_avg,
    delay,
    double_right_avg,
    macd,
    macd_kernel,
    right_avg,
    sample_offset,
    sliding_sums,
    windowed_derivative,
)
from macdkit import operators

from .oracles import dyadic_window_sums, naive_macd, naive_right_avg, naive_window_sums


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


def test_sliding_sums_are_the_doubling_adds_bit_for_bit(rng):
    # Each add writes its buffer in place; the oracle writes a fresh list.
    values = rng.standard_normal(300) * np.exp(rng.uniform(-20, 20, 300))
    for k in range(1, 301):
        want = np.array(dyadic_window_sums(values.tolist(), k))
        assert sliding_sums(values, k).tobytes() == want.tobytes(), k


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
    # The window sums double in place in one buffer of n - 1 floats, about
    # 1x the input whatever the window.
    values = np.random.default_rng(5).standard_normal(1_000_000)
    tracemalloc.start()
    try:
        sliding_sums(values, 2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * values.nbytes


@pytest.mark.parametrize("p, k", [(1, 2), (2, 5), (3, 6), (3, 7), (4, 17), (6, 25), (12, 49)])
def test_average_after_its_prefix_equals_a_fresh_one(p, k, random_signal):
    sig = random_signal(500)
    right_avg(sig, p)
    warm = right_avg(sig, k)
    cold = right_avg(UniformSignal(sig.t0, sig.dt, sig.values), k)
    assert warm.t0 == cold.t0 and np.array_equal(warm.values, cold.values)


def test_a_missing_mean_peaks_at_two_buffers(monkeypatch):
    # A miss grows the mean from kept power-of-two means or is one
    # sliding_sums call, divided by k in place.  Either way its adds write at
    # most two n - 1 float buffers in place, the kept result one of them, and
    # a numpy that copied an overlapping operand would take a third; the
    # finiteness check takes no mask.  12 (in two buffers), 2 and 3 are
    # summed; 1000, 1024, 16 and 4 grow from the kept 2, 2048 from the kept
    # 1024, and 20 adds the kept 16 and 4.  The 64 KiB slack covers the
    # array headers.
    n = 1_000_000
    sig = UniformSignal(0.0, 1.0, np.random.default_rng(7).standard_normal(n))
    summed, sums = [], operators.sliding_sums
    monkeypatch.setattr(operators, "sliding_sums", lambda v, k: summed.append(k) or sums(v, k))
    tracemalloc.start()
    try:
        for k in (12, 2, 3, 1000, 1024, 2048, 16, 4, 20):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            operators._window_means(sig, k)
            assert tracemalloc.get_traced_memory()[1] - before <= 2 * n * 8 + 64 * 1024, k
    finally:
        tracemalloc.stop()
    assert summed == [12, 2, 3]


def _salted(walk, rng):
    """A walk with one sample in eight a subnormal."""
    out = walk.copy()
    out[::8] = rng.integers(1, 2**20, out[::8].size) * 5e-324
    return out


# Signals whose power-of-two scalings of window sums are exact (the walks),
# may be inexact (subnormal samples, or samples a few times the least normal
# float) or may overflow (near the largest float), so that both grown means
# and their fallback are read against the window sums.
HISTORY_SIGNALS = {
    "walk": lambda walk, rng: walk,
    "walk x 1e300": lambda walk, rng: walk * 1e300,
    "walk x 1e-300": lambda walk, rng: walk * 1e-300,
    "subnormal salt": _salted,
    "near the least normal": lambda walk, rng: (
        rng.choice([-1.0, 1.0], walk.size) * (2 + np.abs(walk)) * np.finfo(float).tiny),
    "near the largest float": lambda walk, rng: np.clip(walk / 8, -1, 1) * 1.79e308,
}


def test_window_means_do_not_depend_on_what_the_signal_keeps():
    # Windows of one to four binary digits up to 600, asked in any order and
    # repeated: each kept mean is sliding_sums(values, k) / k byte for byte,
    # or raises its error, whether it grew from kept means or was summed.
    paths = Counter()

    @given(kind=st.sampled_from(sorted(HISTORY_SIGNALS)), seed=st.integers(0, 2**32 - 1),
           windows=st.lists(st.sets(st.integers(0, 9), min_size=1, max_size=4)
                            .map(lambda digits: sum(1 << d for d in digits))
                            .filter(lambda k: k <= 600), min_size=1, max_size=24))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def check(kind, seed, windows):
        rng = np.random.default_rng(seed)
        values = HISTORY_SIGNALS[kind](np.cumsum(rng.standard_normal(700)), rng)
        sig = UniformSignal(0.0, 1.0, values)
        for k in windows:
            try:
                want = sums(values, k) / k
            except ValueError as exc:
                want = str(exc)
            hit, before = k in sig._means, len(summed)
            try:
                got = operators._window_means(sig, k)
            except ValueError as exc:
                got = str(exc)
            if isinstance(want, str):
                assert isinstance(got, str) and got == want, (kind, k)
            else:
                assert got.tobytes() == want.tobytes(), (kind, k)
            if not hit:
                paths["summed" if len(summed) > before else "grown"] += 1

    summed, sums = [], operators.sliding_sums
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(operators, "sliding_sums", lambda v, k: summed.append(k) or sums(v, k))
        check()
    assert paths["grown"] > 0 and paths["summed"] > 0, paths


def test_right_avg_wraps_the_kept_mean(random_signal):
    sig = random_signal(300)
    for k in (1, 5, 8):
        out = right_avg(sig, k)
        assert out.values is sig._means[k] and not out.values.flags.writeable
        assert right_avg(sig, k).values is out.values
        np.testing.assert_array_equal(out.values, sliding_sums(sig.values, k) / k)


def test_signal_keeps_at_most_eight_window_sums():
    # Each kept mean holds one buffer of at most n floats, so 40 windows
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
    assert len(sig._means) <= 8
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
    k=st.integers(min_value=1, max_value=40),
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


def _spread_inputs(n, rng):
    walk = np.cumsum(rng.standard_normal(n))
    return {"walk": walk, "walk + 1e6": walk + 1e6,
            "spread over 1e+-30": rng.standard_normal(n) * 10.0 ** rng.uniform(-30, 30, n)}


def test_macd_is_its_kernel_byte_for_byte(rng):
    # Both weigh the difference of two kept means: macd as 0.5 * (a - b), the
    # kernel's box runs as c * a + (-c) * b with c = (1/(2k)) * k, the run's
    # weight times its length.  Where c is 0.5 that rounds as macd does, byte
    # for byte.  At 91 of k = 1..1100 (49, 98, 103, 107, 161, 187, ...) c is
    # 0.49999999999999994, and the two differ by at most 2 eps of |a| + |b|.
    eps = np.finfo(float).eps
    half = []
    for name, values in _spread_inputs(2200, rng).items():
        sig = UniformSignal(3.0, 0.5, values)
        for k in range(1, 1101):
            kernel = macd_kernel(k)
            got, want = macd(sig, k), apply_kernel(kernel, sig)
            assert got.t0 == want.t0, (name, k)
            if kernel.weights[0] * k == 0.5:
                half.append(k)
                assert got.values.tobytes() == want.values.tobytes(), (name, k)
            else:
                means = operators._window_means(sig, k)
                bound = 2 * eps * (np.abs(means[k:]) + np.abs(means[:-k]))
                assert (np.abs(got.values - want.values) <= bound).all(), (name, k)
    assert len(half) == 3 * (1100 - 91), len(half)


def test_macd_is_half_the_lag_k_difference_of_the_trailing_mean(rng):
    for values in _spread_inputs(300, rng).values():
        sig = UniformSignal(0.0, 1.0, values)
        for k in (1, 3, 12, 26, 100):
            r = right_avg(sig, k).values
            assert macd(sig, k).values.tobytes() == (0.5 * (r[k:] - r[:-k])).tobytes(), k


def test_macd_keeps_its_bytes_at_power_of_two_windows(rng):
    # Dividing a window sum by a power of two only scales it, so these
    # outputs are the window-sum evaluation's bit for bit.
    for values in _spread_inputs(600, rng).values():
        sig = UniformSignal(0.0, 1.0, values)
        for k in (1, 2, 4, 8, 16, 64, 128):
            s = sliding_sums(values, k)
            assert macd(sig, k).values.tobytes() == ((s[k:] - s[:-k]) / (2 * k)).tobytes(), k


def test_macd_error_against_exact_sums(rng):
    # Each mean errs by the window sum's O(log k) ulps of its absolute sum;
    # halving their difference keeps the error within 2e-15 of the mean |x|
    # over the 2k samples an output reads.
    for name, values in _spread_inputs(1000, rng).items():
        sig = UniformSignal(0.0, 1.0, values)
        x = values.tolist()
        for k in (3, 12, 26, 100):
            got = macd(sig, k).values
            for j, i in enumerate(range(2 * k - 1, len(x))):
                older, recent = x[i - 2 * k + 1 : i - k + 1], x[i - k + 1 : i + 1]
                exact = math.fsum(recent + [-v for v in older]) / (2 * k)
                scale = math.fsum(abs(v) for v in older + recent) / (2 * k)
                assert abs(got[j] - exact) <= 2e-15 * scale, (name, k, i)


def test_macd_stays_finite_near_the_largest_float():
    big = np.finfo(np.float64).max
    # Only a one-sample window's difference can overflow: it is halved
    # before the subtraction instead.
    out = macd(UniformSignal(0.0, 1.0, [big, -big, big]), 1)
    assert out.values.tolist() == [-big, big]
    # At k = 3 a finite window sum's mean is at most a third of the largest
    # float, so the difference of two means stays finite.
    values = np.array([0.3 * big] * 3 + [-0.3 * big] * 3)
    mean = sliding_sums(values, 3)[0] / 3
    assert macd(UniformSignal(0.0, 1.0, values), 3).values.tolist() == [-mean]


# --- the kept MACD -------------------------------------------------------------

def test_repeated_macd_reads_share_the_kept_result(random_signal):
    sig = random_signal(500)
    first = macd(sig, 8)
    for _ in range(3):
        again = macd(sig, 8)
        assert np.shares_memory(again.values, first.values)
        assert (again.t0, again.dt) == (first.t0, first.dt)
    assert sig._macd == (8, first.values)


def test_another_window_replaces_the_kept_macd(random_signal):
    sig = random_signal(500)
    first = macd(sig, 8)
    other = macd(sig, 4)
    assert sig._macd[0] == 4 and np.shares_memory(macd(sig, 4).values, other.values)
    again = macd(sig, 8)
    assert not np.shares_memory(again.values, first.values)
    assert again.values.tobytes() == first.values.tobytes()
    kept = sig._macd[1]
    assert kept is again.values and not kept.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        kept[0] = 0.0


def test_kept_macd_reads_as_a_fresh_one(rng):
    # Each read, from the slot or computed again, has the bytes and start of
    # the same window's MACD of a fresh signal.  Near the largest float at
    # k = 1 the difference overflows, so the slot holds the halving
    # fallback's result.
    big = np.finfo(np.float64).max
    cases = {
        "walk": (rng.standard_normal(400).cumsum(), [8, 8, 3, 8, 1, 1, 3, 26, 26, 8]),
        "near the largest float": (rng.choice([-1.0, 1.0], 400) * big * rng.uniform(0.9, 1, 400),
                                   [1, 1, 1]),
    }
    for name, (values, windows) in cases.items():
        sig = UniformSignal(5.0, 0.25, values)
        for k in windows:
            got, want = macd(sig, k), macd(UniformSignal(5.0, 0.25, values), k)
            assert got.t0 == want.t0 and got.values.tobytes() == want.values.tobytes(), (name, k)
            assert np.isfinite(got.values).all()


def test_signal_keeps_one_macd():
    # 8 means plus one MACD: 40 windows of MACD asked of one signal retain
    # at most 9 arrays of n floats, 72 * n bytes, with the eight-window
    # test's slack.
    n = 100_000
    sig = UniformSignal(0.0, 1.0, np.random.default_rng(6).standard_normal(n))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for k in range(1, 41):
            macd(sig, k)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(sig._means) <= 8 and sig._macd[0] == 40
    assert retained <= 9 * n * 8 + 64 * 1024


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
