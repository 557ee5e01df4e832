import numpy as np
import pytest

from macdkit import (
    KernelRep,
    NotDifferenceKernelError,
    bandpass_check,
    box_kernel,
    expansion_kernel,
    kernel_difference,
    macd_kernel,
    smoothed_derivative_kernel,
    transfer_function,
    triangular_kernel,
)
from macdkit import spectral

from .oracles import naive_transfer_magnitude

# Dense-grid (65536-point) brute-force search over the k=8 trend kernel,
# frozen before the analyzer was written.
K8_PEAK_OMEGA = 0.2923236743967431
K8_PEAK_MAGNITUDE = 0.7271895452498702


def test_transfer_function_grid_and_validation():
    resp = transfer_function(box_kernel(4), 16)
    assert resp.frequencies[0] == 0.0
    assert resp.frequencies[-1] == pytest.approx(np.pi)
    assert resp.frequencies.size == 16
    with pytest.raises(ValueError, match="grid"):
        transfer_function(box_kernel(4), 1)
    # Rejected before any array is allocated; 10**15 points would need ~56 PB.
    with pytest.raises(ValueError, match=f"at most {spectral.MAX_GRID} points, got {10**15}$"):
        transfer_function(box_kernel(4), 10**15)


def test_dc_values():
    macd_resp = transfer_function(macd_kernel(8), 64)
    assert macd_resp.magnitudes[0] <= 1e-14
    avg_resp = transfer_function(box_kernel(8), 64)
    assert abs(avg_resp.magnitudes[0] - 1.0) <= 1e-14


def test_magnitudes_match_naive_oracle():
    # The last two kernels span more lags than the FFT behind the grid.
    for kern, grid in [(macd_kernel(5), 257), (box_kernel(40), 3), (macd_kernel(64), 16)]:
        resp = transfer_function(kern, grid)
        for idx in range(grid):
            expected = naive_transfer_magnitude(kern.offsets, kern.weights.tolist(),
                                                resp.frequencies[idx])
            assert resp.magnitudes[idx] == pytest.approx(expected, abs=1e-13)


def test_frozen_dense_grid_peak_for_k8():
    resp = transfer_function(macd_kernel(8), 65536)
    idx = int(np.argmax(resp.magnitudes))
    assert resp.frequencies[idx] == pytest.approx(K8_PEAK_OMEGA, abs=1e-12)
    assert resp.magnitudes[idx] == pytest.approx(K8_PEAK_MAGNITUDE, abs=1e-12)


@pytest.mark.parametrize("k", [2, 3, 4, 8, 16, 32])
def test_bandpass_verdict_for_trend_kernels(k):
    verdict = bandpass_check(transfer_function(macd_kernel(k), 4096))
    assert verdict.passed, verdict.failures
    assert verdict.dc_magnitude <= 1e-12
    assert 0.0 < verdict.peak_frequency < np.pi
    assert verdict.nyquist_magnitude < verdict.peak_magnitude


def test_bandpass_rejects_averaging_kernels():
    with pytest.raises(NotDifferenceKernelError, match="not a difference kernel"):
        bandpass_check(transfer_function(box_kernel(4), 256))
    with pytest.raises(NotDifferenceKernelError):
        bandpass_check(transfer_function(triangular_kernel(4), 256))


def test_bandpass_fails_for_high_pass_kernel():
    # First difference: zero at DC but the response climbs monotonically to
    # its maximum at the Nyquist endpoint, so two assertions fire.
    first_diff = KernelRep((0, 1), np.array([1.0, -1.0]), "first-diff")
    verdict = bandpass_check(transfer_function(first_diff, 1024))
    assert not verdict.passed
    assert any("endpoint" in f for f in verdict.failures)
    assert any("attenuation" in f for f in verdict.failures)


def test_expansion_spectrum_matches_difference_spectrum():
    omega = None
    for n, k in [(1, 8), (3, 4), (5, 2)]:
        exp_resp = transfer_function(expansion_kernel(n, k), 4096)
        ref = macd_kernel(k) if n == 1 else kernel_difference(n * k, (n + 1) * k)
        ref_resp = transfer_function(ref, 4096)
        dev = np.max(np.abs(exp_resp.magnitudes - ref_resp.magnitudes))
        assert dev <= 1e-10
        if omega is None:
            omega = exp_resp.frequencies
        verdict = bandpass_check(exp_resp)
        assert verdict.passed, verdict.failures


def test_macd_spectrum_equals_smoothed_derivative_spectrum():
    for k in (2, 8, 16):
        a = transfer_function(macd_kernel(k), 2048)
        b = transfer_function(smoothed_derivative_kernel(k), 2048)
        assert np.max(np.abs(a.magnitudes - b.magnitudes)) <= 1e-12


def test_response_bounded_by_total_absolute_weight(rng):
    for _ in range(10):
        taps = int(rng.integers(1, 12))
        offsets = tuple(sorted(rng.choice(np.arange(-10, 30), size=taps, replace=False)))
        weights = rng.uniform(-2, 2, taps)
        kern = KernelRep(offsets, weights, "random")
        resp = transfer_function(kern, 512)
        assert np.all(resp.magnitudes <= kern.abs_weight_sum + 1e-12)


def test_frequency_response_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        from macdkit import FrequencyResponse

        FrequencyResponse(np.array([0.0, 0.0, 1.0]), np.zeros(3), np.zeros(3))
