import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macdkit import (
    ExpansionSpec,
    InsufficientSamplesError,
    KernelRep,
    UniformSignal,
    apply_kernel,
    box_kernel,
    build_kernel,
    centered_avg,
    delay,
    double_right_avg,
    expansion_kernel,
    macd,
    macd_kernel,
    right_avg,
    sample_offset,
    smoothed_derivative_kernel,
    transfer_function,
    triangular_kernel,
    windowed_derivative,
)
from macdkit import kernels, operators
from macdkit.signals import WINDOW_SUM_OVERFLOW

from .oracles import (STAGE_ARGS, exact_kernel, kernel_description_error,
                      naive_box_self_convolution, naive_kernel_apply, naive_transfer_magnitude)


def test_kernel_rep_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        KernelRep((0, 0), np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="strictly increasing"):
        KernelRep(np.array([3, 1], dtype=np.uint8), [0.5, 0.5])
    # A lag is a whole sample count: no float, string or bool lag is rounded.
    for offsets in [(0.5, 1.7), (0.0, 1.0), ("0", "1"), (True, False), np.array([0.0, 2.0])]:
        with pytest.raises(ValueError, match="^offsets must be integer lags, got "):
            KernelRep(offsets, [1.0, 1.0])
    with pytest.raises(ValueError, match="finite"):
        KernelRep((0, 1), np.array([0.5, np.inf]))
    with pytest.raises(ValueError, match="same length"):
        KernelRep((0, 1), np.array([1.0]))
    with pytest.raises(ValueError, match="at least one"):
        KernelRep((), np.array([]))
    # Nested lags or weights were flattened without any error.
    with pytest.raises(ValueError, match=r"^offsets must be one-dimensional, got shape \(2, 1\)$"):
        KernelRep([[0], [1]], [0.5, 0.5])
    with pytest.raises(ValueError, match=r"^weights must be one-dimensional, got shape \(1, 2\)$"):
        KernelRep((0, 1), [[0.5, 0.5]])
    # A scalar lag and weight stay a one-tap kernel.
    one = KernelRep(3, 2.0)
    assert (one.offsets, one.weights.tolist()) == ((3,), [2.0])


def test_lags_past_int64_are_rejected_not_wrapped():
    # 2**63 as int64 is -2**63: a delay read as an advance, or lags that
    # look out of order.
    with pytest.raises(ValueError, match=r"^offsets must fit int64, got 9223372036854775808$"):
        KernelRep((2**63,), [1.0])
    with pytest.raises(ValueError, match=r"^offsets must fit int64, got 9223372036854775813$"):
        KernelRep(np.array([5, 2**63 + 5], np.uint64), [1.0, 2.0])
    # A span that ends at int64's maximum fits, and a sum of lags past it
    # is named, not an OverflowError.
    last = build_kernel(("delay", 2**63 - 1))
    assert (last.first, last.weights.tolist()) == (2**63 - 1, [1.0])
    past = str(2**63)
    with pytest.raises(ValueError, match=rf"^kernel lags must fit int64, got {past}\.\.{past}$"):
        build_kernel(("compose", ("delay", 2**62), ("delay", 2**62)))
    with pytest.raises(ValueError, match=r"^kernel lags must fit int64, got "):
        build_kernel(("compose", ("delay", 2**63 - 1), ("avg", 2)))


def test_box_kernel_example():
    kern = box_kernel(2)
    assert kern.offsets == (0, 1)
    assert kern.weights.tolist() == [0.5, 0.5]
    assert abs(float(kern.weights.sum()) - 1.0) <= 1e-14


def test_macd_kernel_layout_and_zero_sum():
    for k in (1, 2, 5, 16):
        kern = macd_kernel(k)
        assert kern.offsets == tuple(range(2 * k))
        q = 1.0 / (2 * k)
        assert np.all(kern.weights[:k] == q)
        assert np.all(kern.weights[k:] == -q)
        assert abs(float(kern.weights.sum())) <= 1e-14
        assert np.abs(kern.weights).sum() == pytest.approx(1.0, abs=1e-14)


def test_triangular_kernel_matches_self_convolution_oracle():
    for k in (1, 2, 3, 8):
        kern = triangular_kernel(k)
        expected = naive_box_self_convolution(k)
        assert kern.offsets == tuple(range(2 * k - 1))
        np.testing.assert_allclose(kern.weights, expected, rtol=0, atol=1e-16)
        assert abs(float(kern.weights.sum()) - 1.0) <= 1e-14
    assert triangular_kernel(2).weights.tolist() == [0.25, 0.5, 0.25]


def test_averaging_compositions_have_unit_weight_sum():
    descriptions = [
        ("avg", 7),
        ("centered", 6),
        ("compose", ("avg", 3), ("avg", 5)),
        ("compose", ("avg", 4), ("delay", 9), ("centered", 2)),
    ]
    for desc in descriptions:
        assert abs(float(build_kernel(desc).weights.sum()) - 1.0) <= 1e-14


def test_difference_compositions_have_zero_weight_sum():
    descriptions = [
        ("diff", ("avg", 3), ("avg", 6)),
        ("diff", ("compose", ("avg", 2), ("avg", 2)), ("compose", ("avg", 4), ("delay", 1))),
        ("compose", ("deriv", 4), ("avg", 4)),
    ]
    for desc in descriptions:
        assert abs(float(build_kernel(desc).weights.sum())) <= 1e-14


def test_build_kernel_rejects_bad_descriptions():
    with pytest.raises(ValueError, match="empty composition"):
        build_kernel(("compose",))
    with pytest.raises(ValueError, match="empty composition"):
        build_kernel(("sum",))
    with pytest.raises(ValueError, match="unknown kernel stage"):
        build_kernel(("boxcar", 4))
    with pytest.raises(ValueError, match="malformed"):
        build_kernel([("avg", 2)])



@pytest.mark.parametrize("description", [
    ("avg",),
    ("avg", 3, 4),
    ("centered", 2, 2),
    ("delay",),
    ("delay", 1, 1),
    ("deriv", 2, 9),
    ("scale",),
    ("scale", 2.0),
    ("scale", 2.0, ("avg", 2), ("avg", 3)),
    ("scale", "a", ("avg", 2)),
    ("scale", True, ("avg", 2)),
    ("scale", 1j, ("avg", 2)),
    ("diff", ("avg", 2)),
    ("diff", ("avg", 2), ("avg", 4), ("avg", 8)),
    ("compose", ("avg", 2), ("avg",)),
])
def test_build_kernel_rejects_a_stage_of_the_wrong_arity_or_factor(description):
    # Not an IndexError, numpy's UFuncTypeError or a tuple-unpacking error,
    # and no extra argument dropped: the stage that is malformed is named.
    bad = description[-1] if description[0] == "compose" else description
    with pytest.raises(ValueError) as err:
        build_kernel(description)
    assert str(err.value) == f"malformed kernel description: {bad!r}"


@pytest.mark.parametrize("alpha", [2, 0.5, -1.0, np.float64(0.25), np.int64(3)])
def test_build_kernel_scales_by_any_real_factor(alpha):
    kern = build_kernel(("scale", alpha, ("avg", 4)))
    assert kern.weights.tolist() == [alpha / 4] * 4


# Scale factors of every type a caller might pass: the real ones and a bool,
# a str and a complex, which are not.
FACTORS = st.one_of(st.integers(-3, 3), st.sampled_from([0.5, -1.0, 0.1, 1 / 3, 0.0]),
                    st.sampled_from([0.25, -2.5]).map(np.float64),
                    st.integers(-3, 3).map(np.int64), st.booleans(),
                    st.sampled_from(["2", "a"]), st.sampled_from([1j, 0.5 + 0j]))
# Leaves that are not stages: a list, an empty tuple, kernels and an unknown head.
LEAVES = st.sampled_from([["avg", 2], (), KernelRep((-1, 2), [0.5, -0.25]), KernelRep(3, 1.5),
                          ("boxcar", 2)])
# A valid argument for each one-argument stage: a centered window is even.
STAGE_ARG = {"avg": st.integers(1, 4), "centered": st.sampled_from([2, 4]),
             "delay": st.integers(0, 3), "deriv": st.integers(1, 4)}


@st.composite
def descriptions(draw, depth=3):
    """A kernel description nested up to ``depth`` stages deep, in the grammar or one item off.

    Each stage takes its argument count, or at odds of one in four one more
    or fewer; a composition or sum takes 0 to 3 parts.
    """
    if draw(st.integers(0, 4)) == 0:
        return draw(LEAVES)
    heads = [*STAGE_ARGS, "compose", "sum"] if depth > 1 else list(STAGE_ARG)
    head = draw(st.sampled_from(heads))
    off = draw(st.sampled_from([0, 0, 0, 0, 0, 0, -1, 1]))
    if head in STAGE_ARG:
        return (head, *(draw(STAGE_ARG[head]) for _ in range(1 + off)))
    count = draw(st.integers(0, 3)) if head in ("compose", "sum") else 2 + off
    args = [draw(descriptions(depth - 1)) for _ in range(count)]
    if head == "scale" and args:
        args[0] = draw(FACTORS)
    return (head, *args)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(description=descriptions())
def test_build_kernel_follows_its_grammar(description):
    error = kernel_description_error(description)
    if error is not None:
        with pytest.raises(ValueError) as err:
            build_kernel(description)
        assert str(err.value) == error
        return
    kern = build_kernel(description)
    first, nums, den = exact_kernel(description)
    assert (kern.first, kern.weights.size) == (first, nums.size)
    exact = [Fraction(n, den) for n in nums]
    bound = Fraction(1, 10**12) * max(map(abs, exact))
    assert all(abs(Fraction(float(w)) - t) <= bound for w, t in zip(kern.weights, exact))


# Not a ZeroDivisionError, a sign-flipped or zeroed derivative, or a TypeError
# from a comparison: a kernel takes the time steps a signal takes.
@pytest.mark.parametrize("dt", [0.0, -0.0, -1.0, np.inf, -np.inf, np.nan, "x", None, True])
@pytest.mark.parametrize("make", [
    pytest.param(lambda dt: build_kernel(("deriv", 2), dt), id="deriv"),
    pytest.param(lambda dt: build_kernel(("avg", 2), dt), id="avg"),
    pytest.param(lambda dt: UniformSignal(0.0, dt, [1.0, 2.0]), id="signal"),
])
def test_kernel_and_signal_share_one_dt_check(make, dt):
    with pytest.raises(ValueError) as err:
        make(dt)
    assert str(err.value) == f"dt must be positive and finite, got {dt}"


@pytest.mark.parametrize("dt", [0.5, 2, np.float64(0.25), np.int64(4), 1e-3])
def test_build_kernel_takes_any_positive_finite_dt(dt):
    assert build_kernel(("deriv", 2), dt).weights.tolist() == [1 / (2 * dt), 0.0, -1 / (2 * dt)]
    assert UniformSignal(0.0, dt, [1.0, 2.0]).dt == float(dt)


def test_a_difference_quotient_past_the_float_range_is_refused_without_a_warning():
    # 1/(k*dt) is inf at a subnormal dt.  The end taps are written as they
    # are, with no inf * 0 product on the zeros between them to warn.
    with pytest.raises(ValueError, match="^kernel weights must be finite$"):
        build_kernel(("deriv", 3), 5e-324)

def test_apply_kernel_matches_naive_convolution(random_signal):
    sig = random_signal(200)
    kernels = [
        build_kernel(("diff", ("compose", ("avg", 3), ("delay", 2)), ("avg", 5))),
        KernelRep((-2,), [1.0]),  # advance only
        KernelRep((3, 7), [0.5, -0.5]),  # delay only, with a gap
    ]
    for kern in kernels:
        out = apply_kernel(kern, sig)
        lo, expected = naive_kernel_apply(kern.offsets, kern.weights.tolist(),
                                          sig.values.tolist())
        assert sample_offset(out, sig) == lo
        np.testing.assert_allclose(out.values, expected, rtol=0, atol=1e-14)


def _box_taps(k, first=0):
    return [(first + j, 1.0 / k) for j in range(k)]


def _difference_taps(a, b):
    """Closed-form taps of the a-sample box minus the b-sample box (a < b)."""
    return ([(j, 1.0 / a - 1.0 / b) for j in range(a)]
            + [(j, -1.0 / b) for j in range(a, b)])


# Each kernel with the (lag, weight) taps it stands for, written out by hand:
# every constructor, and user kernels with gaps, future taps or both.
KERNEL_TAPS = {
    "box": (lambda: box_kernel(5), _box_taps(5)),
    "centered": (lambda: build_kernel(("centered", 6)), _box_taps(6, first=-3)),
    "delay": (lambda: build_kernel(("delay", 4)), [(4, 1.0)]),
    "deriv": (lambda: build_kernel(("deriv", 3), 0.5), [(0, 1 / 1.5), (3, -1 / 1.5)]),
    "macd": (lambda: macd_kernel(7), _difference_taps(7, 14)),
    "triangle": (lambda: triangular_kernel(4), list(enumerate(naive_box_self_convolution(4)))),
    "smoothed-deriv": (lambda: smoothed_derivative_kernel(5), _difference_taps(5, 10)),
    "expansion": (lambda: expansion_kernel(3, 4), _difference_taps(12, 16)),
    "gap": (lambda: KernelRep((3, 7), [0.5, -0.5]), [(3, 0.5), (7, -0.5)]),
    "advance": (lambda: KernelRep((-2,), [1.0]), [(-2, 1.0)]),
    "straddle": (lambda: KernelRep((-3, 2), [0.25, 0.75]), [(-3, 0.25), (2, 0.75)]),
}


@pytest.mark.parametrize("name", KERNEL_TAPS)
def test_every_kernel_matches_the_naive_oracles(name, random_signal):
    build, taps = KERNEL_TAPS[name]
    kern = build()
    lags, weights = [lag for lag, _ in taps], [w for _, w in taps]
    # One dense array over every spanned lag, zeros between the taps.
    assert kern.first == lags[0]
    assert kern.weights.size == lags[-1] - lags[0] + 1
    assert kern.offsets == tuple(range(lags[0], lags[-1] + 1))
    sig = random_signal(60, dt=0.5, t0=10.0)
    out = apply_kernel(kern, sig)
    lo, expected = naive_kernel_apply(lags, weights, sig.values.tolist())
    assert out.t0 == sig.t0 + lo * sig.dt and out.dt == sig.dt
    assert len(out) == len(expected)
    np.testing.assert_allclose(out.values, expected, rtol=0, atol=1e-14)
    resp = transfer_function(kern, 33)
    want = [naive_transfer_magnitude(lags, weights, omega) for omega in resp.frequencies]
    np.testing.assert_allclose(resp.magnitudes, want, rtol=0, atol=1e-14)
    # Immutable: no attribute can be set, and the weights are read-only.
    with pytest.raises(dataclasses.FrozenInstanceError):
        kern.first = 0
    with pytest.raises(AttributeError):
        kern.offsets = (0,)
    with pytest.raises(ValueError, match="read-only"):
        kern.weights[0] = 1.0


@pytest.mark.parametrize("k", [1, 2, 3, 7, 12, 64])
def test_one_format_per_kernel(k):
    # A constructor, or for a stage with none its closed-form taps, its
    # description and a rebuild of either give the same kernel.
    q = 1 / (k * 0.25)
    pairs = [
        (KernelRep((0, k), [q, -q]), build_kernel(("deriv", k), 0.25)),
        (box_kernel(k), build_kernel(("avg", k))),
        (KernelRep(range(-k, k), np.full(2 * k, 1 / (2 * k))), build_kernel(("centered", 2 * k))),
        (KernelRep((k,), [1.0]), build_kernel(("delay", k))),
        (macd_kernel(k), build_kernel(("diff", ("avg", k), ("avg", 2 * k)))),
    ]
    for kern, described in pairs:
        for other in (described, build_kernel(kern), build_kernel(described)):
            assert other.first == kern.first, kern.scale_note
            assert other.weights.tobytes() == kern.weights.tobytes(), kern.scale_note
        assert build_kernel(kern).scale_note == kern.scale_note


def rel_dev(a, b):
    scale = max(np.max(np.abs(a)), 1e-30)
    return np.max(np.abs(a - b)) / scale


KERNEL_VS_DIRECT = [
    (("avg", 5), lambda s: right_avg(s, 5)),
    (("centered", 6), lambda s: centered_avg(s, 6)),
    (("delay", 4), lambda s: delay(s, 4)),
    (("deriv", 3), lambda s: windowed_derivative(s, 3)),
    (("compose", ("avg", 4), ("avg", 4)), lambda s: double_right_avg(s, 4)),
    (("diff", ("avg", 4), ("avg", 8)), lambda s: macd(s, 4)),
]


@pytest.mark.parametrize("desc,direct", KERNEL_VS_DIRECT,
                         ids=["avg", "centered", "delay", "deriv", "double", "macd"])
def test_kernel_equivalence_with_direct_evaluation(desc, direct, random_signal):
    sig = random_signal(300, dt=0.5)
    kern = build_kernel(desc, dt=sig.dt)
    via_kernel = apply_kernel(kern, sig)
    via_direct = direct(sig)
    assert sample_offset(via_kernel, sig) == sample_offset(via_direct, sig)
    assert rel_dev(via_direct.values, via_kernel.values) <= 1e-12


@pytest.mark.parametrize("dt", [1.0, 0.25, 0.1])
def test_macd_kernel_equals_scaled_derivative_of_double_box(dt):
    # The trend kernel is half a window length times the exact rate of
    # change of the double-box smoother, element for element.
    for k in (1, 2, 3, 8, 33, 64):
        direct = macd_kernel(k)
        composed = build_kernel(("scale", k * dt / 2, ("compose", ("deriv", k), ("avg", k))), dt)
        assert composed.offsets == direct.offsets
        assert np.max(np.abs(composed.weights - direct.weights)) <= 1e-14


def test_difference_of_boxes_expands_to_macd_weights():
    for k in (1, 4, 9):
        diff = build_kernel(("diff", ("avg", k), ("avg", 2 * k)))
        direct = macd_kernel(k)
        assert diff.first == direct.first == 0
        assert np.max(np.abs(diff.weights - direct.weights)) <= 1e-16


def test_expansion_kernel_reduces_to_macd_for_single_term():
    for k in (2, 4, 8):
        expanded, direct = expansion_kernel(1, k), macd_kernel(k)
        assert expanded.first == direct.first
        assert np.max(np.abs(expanded.weights - direct.weights)) <= 1e-15


def test_expansion_kernel_equals_nested_difference_kernel():
    for n, k in [(2, 3), (3, 4), (5, 2), (8, 8), (8, 32)]:
        expanded = expansion_kernel(n, k)
        # The paper's form: the weighted sum over i = 1..n of the smoothed
        # difference quotients of the block average delayed by (i-1)*k.
        paper = build_kernel(("sum", *[
            ("scale", w * (k / 2.0), ("compose", ("deriv", k), ("delay", (i - 1) * k), ("avg", k)))
            for i, w in enumerate(ExpansionSpec(n, k).weights, start=1)]))
        assert expanded.first == paper.first == 0
        assert expanded.weights.size == paper.weights.size
        assert np.max(np.abs(expanded.weights - paper.weights)) <= 1e-15
        # Built in run form: the two boxes' difference, two runs exactly.
        diff = build_kernel(("diff", ("avg", n * k), ("avg", (n + 1) * k)))
        assert expanded.weights.tobytes() == diff.weights.tobytes()
        assert np.count_nonzero(np.diff(expanded.weights)) == 1


def test_centered_kernel_has_future_taps():
    kern = build_kernel(("centered", 4))
    assert kern.offsets == (-2, -1, 0, 1)
    with pytest.raises(ValueError, match="even"):
        build_kernel(("centered", 3))


def test_delay_and_derivative_kernels():
    assert build_kernel(("delay", 3)).offsets == (3,)
    d = build_kernel(("deriv", 4), 0.5)
    assert d.offsets == (0, 1, 2, 3, 4)
    assert d.weights.tolist() == [0.5, 0.0, 0.0, 0.0, -0.5]


def test_apply_kernel_insufficient_samples():
    sig = UniformSignal(0.0, 1.0, np.arange(3.0))
    with pytest.raises(InsufficientSamplesError) as err:
        apply_kernel(box_kernel(5), sig)
    assert err.value.required == 5


def test_build_kernel_accepts_nested_kernel_rep():
    pre = macd_kernel(2)
    scaled = build_kernel(("scale", 2.0, pre))
    assert np.allclose(scaled.weights, 2.0 * pre.weights)


def test_kernels_overflow_like_the_operators():
    # Each window sum of two samples overflows, though every weighted sample
    # is finite: the box-run and double-average paths raise the operators'
    # error instead of returning 1.7e308.
    huge = UniformSignal(0.0, 1.0, [1.7e308] * 4)
    pairs = [
        (box_kernel(2), lambda s: right_avg(s, 2)),
        (build_kernel(("centered", 2)), lambda s: centered_avg(s, 2)),
        (macd_kernel(2), lambda s: macd(s, 2)),
        (triangular_kernel(2), lambda s: double_right_avg(s, 2)),
    ]
    for kern, direct in pairs:
        for call in (lambda: apply_kernel(kern, huge), lambda: direct(huge)):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == WINDOW_SUM_OVERFLOW, kern.scale_note
    # A difference quotient's taps sum no window: kernel and operator both
    # report the sample whose quotient overflows.
    steep = UniformSignal(0.0, 1e-300, [0.0, 1e10, 0.0, 1e10])
    for call in (lambda: apply_kernel(build_kernel(("deriv", 1), 1e-300), steep),
                 lambda: windowed_derivative(steep, 1)):
        with pytest.raises(ValueError, match="^non-finite value at sample 0$"):
            call()
    # The np.convolve path still reports the constructor's error.
    with pytest.raises(ValueError, match="^non-finite value at sample 0$"):
        apply_kernel(KernelRep((0, 1, 2), [1.0, 2.0, 3.0]), UniformSignal(0.0, 1.0, [1e308] * 5))
    # A run whose total weight 2e308 overflows is no box term: it convolves,
    # and every output here is finite.
    small = UniformSignal(0.0, 1.0, [0.25, 0.5, -0.75, 0.5])
    out = apply_kernel(KernelRep((0, 1), [1e308, 1e308]), small)
    np.testing.assert_allclose(out.values, [0.75e308, -0.25e308, -0.25e308], rtol=1e-15)


class SignalConvolution(AssertionError):
    """np.convolve was asked to run over the signal."""


SIGNAL_LENGTH = 2000


@pytest.fixture
def real_convolve(monkeypatch):
    """np.convolve, after making numpy.convolve fail on signal-length arrays.

    The stub replaces numpy.convolve process-wide for the test's duration.
    Kernels stay buildable: their compositions, and the triangle the
    double-average path compares weights with, convolve kernel-sized arrays.
    """
    convolve = np.convolve

    def stub(a, v, mode="full"):
        if max(len(a), len(v)) >= SIGNAL_LENGTH:
            raise SignalConvolution(f"np.convolve over {max(len(a), len(v))} samples")
        return convolve(a, v, mode)

    monkeypatch.setattr(kernels.np, "convolve", stub)
    return convolve


NAMED = {
    "box": box_kernel,
    "centered": lambda k: build_kernel(("centered", 2 * k)),
    "delay": lambda k: build_kernel(("delay", k)),
    "deriv": lambda k: build_kernel(("deriv", k), 0.5),
    "macd": macd_kernel,
    "smoothed-deriv": smoothed_derivative_kernel,
    "expansion": lambda k: expansion_kernel(3, k),
    "triangle": triangular_kernel,
}


@pytest.mark.parametrize("k", [1, 2, 3, 7, 12, 256])
def test_named_kernels_apply_by_their_structure(k, real_convolve, random_signal):
    sig = random_signal(SIGNAL_LENGTH, dt=0.25, t0=-4.0)
    for name, make in NAMED.items():
        kern = make(k)
        out = apply_kernel(kern, sig)
        # Today's output: valid-mode convolution over the zero-padded span.
        last = kern.first + kern.weights.size - 1
        ahead, lo = min(kern.first, 0), max(last, 0)
        taps = np.pad(kern.weights, (kern.first - ahead, lo - last))
        want = real_convolve(sig.values, taps, mode="valid")
        assert out.t0 == sig.t0 + lo * sig.dt and out.dt == sig.dt, name
        assert len(out) == want.size, name
        assert np.max(np.abs(out.values - want)) <= 1e-14, name
    # The double average gives the operator's bytes, from either build.
    direct = double_right_avg(sig, k).values.tobytes()
    for kern in (triangular_kernel(k), build_kernel(("compose", ("avg", k), ("avg", k)))):
        assert apply_kernel(kern, sig).values.tobytes() == direct
    # Arbitrary weights, three runs, and a triangle one ulp off in the
    # middle or at a corner still convolve.
    triangle = triangular_kernel(12).weights
    nudged, cornered = triangle.copy(), triangle.copy()
    nudged[7] = np.nextafter(nudged[7], 1.0)
    cornered[0] = np.nextafter(cornered[0], 1.0)
    weights = np.random.default_rng(2020).normal(size=9)
    for w in (weights, [1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0], nudged, cornered):
        kern = KernelRep(np.arange(len(w)), w)
        with pytest.raises(SignalConvolution):
            apply_kernel(kern, sig)


@pytest.mark.parametrize("offsets,weights,t0,length", [
    ((0, 5), [1.0, 0.0], 3.0 + 5 * 0.5, 35),     # trailing zeros
    ((-2, 3), [0.0, 1.0], 3.0 + 3 * 0.5, 35),    # leading zero at a future lag
    ((0,), [0.0], 3.0, 40),                      # no weight at all
    ((-3, -2), [1.0, 1.0], 3.0, 37),             # advance only
])
def test_zero_weights_and_advances_keep_the_output_range(offsets, weights, t0, length,
                                                         random_signal):
    sig = random_signal(40, dt=0.5, t0=3.0)
    out = apply_kernel(KernelRep(offsets, weights), sig)
    assert out.t0 == t0 and out.dt == sig.dt and len(out) == length
    lo, expected = naive_kernel_apply(offsets, weights, sig.values.tolist())
    assert out.t0 == sig.t0 + lo * sig.dt and len(expected) == length
    np.testing.assert_allclose(out.values, expected, rtol=0, atol=1e-14)


@pytest.mark.parametrize("k", [1, 3, 12, 64])
def test_macd_kernel_reads_the_window_sum_macd_took(k, monkeypatch, random_signal):
    sig = random_signal(500)
    calls = []
    sums = operators.sliding_sums
    monkeypatch.setattr(operators, "sliding_sums", lambda v, w: calls.append(w) or sums(v, w))
    via_operator = macd(sig, k)
    assert calls == [k]
    via_kernel = apply_kernel(macd_kernel(k), sig)
    assert calls == [k]
    assert via_kernel.t0 == via_operator.t0 and len(via_kernel) == len(via_operator)
    assert rel_dev(via_operator.values, via_kernel.values) <= 1e-12
