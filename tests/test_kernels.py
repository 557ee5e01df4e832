import numpy as np
import pytest

from macdkit import (
    InsufficientSamplesError,
    KernelRep,
    UniformSignal,
    apply_kernel,
    box_kernel,
    build_kernel,
    centered_avg,
    centered_box_kernel,
    delay,
    delay_kernel,
    derivative_kernel,
    double_right_avg,
    expansion_kernel,
    macd,
    macd_kernel,
    right_avg,
    sample_offset,
    smoothed_derivative_kernel,
    triangular_kernel,
    windowed_derivative,
)

from .oracles import naive_box_self_convolution, naive_kernel_apply


def dense_weights(kern):
    lo, w = kern.dense()
    return lo, w


def test_kernel_rep_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        KernelRep((0, 0), np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="finite"):
        KernelRep((0, 1), np.array([0.5, np.inf]))
    with pytest.raises(ValueError, match="same length"):
        KernelRep((0, 1), np.array([1.0]))
    with pytest.raises(ValueError, match="at least one"):
        KernelRep((), np.array([]))


def test_box_kernel_example():
    kern = box_kernel(2)
    assert kern.offsets == (0, 1)
    assert kern.weights.tolist() == [0.5, 0.5]
    assert kern.is_averaging()


def test_macd_kernel_layout_and_zero_sum():
    for k in (1, 2, 5, 16):
        kern = macd_kernel(k)
        assert kern.offsets == tuple(range(2 * k))
        q = 1.0 / (2 * k)
        assert np.all(kern.weights[:k] == q)
        assert np.all(kern.weights[k:] == -q)
        assert abs(kern.weight_sum) <= 1e-14
        assert kern.is_difference()
        assert kern.abs_weight_sum == pytest.approx(1.0, abs=1e-14)


def test_triangular_kernel_matches_self_convolution_oracle():
    for k in (1, 2, 3, 8):
        kern = triangular_kernel(k)
        expected = naive_box_self_convolution(k)
        assert kern.offsets == tuple(range(2 * k - 1))
        np.testing.assert_allclose(kern.weights, expected, rtol=0, atol=1e-16)
        assert abs(kern.weight_sum - 1.0) <= 1e-14
    assert triangular_kernel(2).weights.tolist() == [0.25, 0.5, 0.25]


def test_averaging_compositions_have_unit_weight_sum():
    descriptions = [
        ("avg", 7),
        ("centered", 6),
        ("compose", ("avg", 3), ("avg", 5)),
        ("compose", ("avg", 4), ("delay", 9), ("centered", 2)),
    ]
    for desc in descriptions:
        assert abs(build_kernel(desc).weight_sum - 1.0) <= 1e-14


def test_difference_compositions_have_zero_weight_sum():
    descriptions = [
        ("diff", ("avg", 3), ("avg", 6)),
        ("diff", ("compose", ("avg", 2), ("avg", 2)), ("compose", ("avg", 4), ("delay", 1))),
        ("compose", ("deriv", 4), ("avg", 4)),
    ]
    for desc in descriptions:
        assert abs(build_kernel(desc).weight_sum) <= 1e-14


def test_build_kernel_rejects_bad_descriptions():
    with pytest.raises(ValueError, match="empty composition"):
        build_kernel(("compose",))
    with pytest.raises(ValueError, match="empty composition"):
        build_kernel(("sum",))
    with pytest.raises(ValueError, match="unknown kernel stage"):
        build_kernel(("boxcar", 4))
    with pytest.raises(ValueError, match="malformed"):
        build_kernel([("avg", 2)])


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
        composed = smoothed_derivative_kernel(k, dt)
        assert composed.offsets == direct.offsets
        assert np.max(np.abs(composed.weights - direct.weights)) <= 1e-14


def test_difference_of_boxes_expands_to_macd_weights():
    for k in (1, 4, 9):
        lo, w = build_kernel(("diff", ("avg", k), ("avg", 2 * k))).dense()
        lo_m, wm = macd_kernel(k).dense()
        assert lo == lo_m == 0
        assert np.max(np.abs(w - wm)) <= 1e-16


def test_expansion_kernel_reduces_to_macd_for_single_term():
    for k in (2, 4, 8):
        lo_e, we = expansion_kernel(1, k).dense()
        lo_m, wm = macd_kernel(k).dense()
        assert lo_e == lo_m
        assert np.max(np.abs(we - wm)) <= 1e-15


def test_expansion_kernel_equals_nested_difference_kernel():
    for n, k in [(2, 3), (3, 4), (5, 2), (8, 8)]:
        lo_e, we = expansion_kernel(n, k).dense()
        lo_d, wd = build_kernel(("diff", ("avg", n * k), ("avg", (n + 1) * k))).dense()
        assert lo_e == lo_d
        assert np.max(np.abs(we - wd)) <= 1e-15


def test_centered_kernel_has_future_taps():
    kern = centered_box_kernel(4)
    assert kern.offsets == (-2, -1, 0, 1)
    with pytest.raises(ValueError, match="even"):
        centered_box_kernel(3)


def test_delay_and_derivative_kernels():
    assert delay_kernel(3).offsets == (3,)
    d = derivative_kernel(4, 0.5)
    assert d.offsets == (0, 4)
    assert d.weights.tolist() == [0.5, -0.5]


def test_apply_kernel_insufficient_samples():
    sig = UniformSignal(0.0, 1.0, np.arange(3.0))
    with pytest.raises(InsufficientSamplesError) as err:
        apply_kernel(box_kernel(5), sig)
    assert err.value.required == 5


def test_build_kernel_accepts_nested_kernel_rep():
    pre = macd_kernel(2)
    scaled = build_kernel(("scale", 2.0, pre))
    assert np.allclose(scaled.weights, 2.0 * pre.weights)
