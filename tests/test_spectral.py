import numpy as np
import pytest

from macdkit import (
    KernelRep,
    NotDifferenceKernelError,
    bandpass_check,
    box_kernel,
    build_kernel,
    expansion_kernel,
    macd_kernel,
    smoothed_derivative_kernel,
    transfer_function,
    triangular_kernel,
)
from macdkit import spectral

from .oracles import dirichlet, macd_peak_omega, naive_transfer_magnitude

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


@pytest.mark.parametrize("grid", [4096.0, True, "16", 1])
def test_transfer_function_grid_must_be_an_integer(grid):
    with pytest.raises(ValueError) as err:
        transfer_function(box_kernel(4), grid)
    assert str(err.value) == f"grid needs an integer count of at least 2 points, got {grid!r}"


def test_frozen_dense_grid_peak_for_k8():
    resp = transfer_function(macd_kernel(8), 65536)
    idx = int(np.argmax(resp.magnitudes))
    assert resp.frequencies[idx] == pytest.approx(K8_PEAK_OMEGA, abs=1e-12)
    assert resp.magnitudes[idx] == pytest.approx(K8_PEAK_MAGNITUDE, abs=1e-12)


BANDPASS_GRID = 65537
MACD_WINDOWS = [3, 8, 12, 256, 4096]


@pytest.mark.parametrize("kernel, closed_form", [
    *[(macd_kernel(k), lambda w, k=k: dirichlet(k, w) - dirichlet(2 * k, w))
      for k in MACD_WINDOWS],
    (expansion_kernel(4, 4), lambda w: dirichlet(16, w) - dirichlet(20, w)),
    (triangular_kernel(12), lambda w: dirichlet(12, w) ** 2),
], ids=[*(f"macd{k}" for k in MACD_WINDOWS), "expansion4x4", "triangle12"])
def test_transfer_function_matches_dirichlet_closed_form(kernel, closed_form):
    # MACD is H_k - H_2k, the n-term expansion H_nb - H_(n+1)b and the
    # triangle H_k**2, with H_k the k-box's Dirichlet kernel.
    resp = transfer_function(kernel, BANDPASS_GRID)
    response = resp.magnitudes * np.exp(1j * resp.phases)
    assert np.max(np.abs(response - closed_form(resp.frequencies))) <= 1e-14


@pytest.mark.parametrize("k", MACD_WINDOWS)
def test_macd_peak_sits_at_the_closed_form_root(k):
    # |H_k - H_2k| = sin(k w/2)**2 / (k sin(w/2)) peaks where
    # tan(k w/2) = 2k tan(w/2); the grid maximum is within one step of it.
    resp = transfer_function(macd_kernel(k), BANDPASS_GRID)
    step = resp.frequencies[1]
    peak = resp.frequencies[int(np.argmax(resp.magnitudes))]
    assert abs(peak - macd_peak_omega(k)) <= step


def test_macd_peak_at_a_long_window_sits_at_the_large_window_limit():
    # k*w* -> 2.331 (tan u = 2u, u = k*w*/2), a centre period of 2.70 windows,
    # and a peak height of sin(u)**2 / u = 0.7246: the figures in README.
    k = 256
    resp = transfer_function(macd_kernel(k), BANDPASS_GRID)
    idx = int(np.argmax(resp.magnitudes))
    assert k * resp.frequencies[idx] == pytest.approx(2.331, abs=2e-3)
    assert 2 * np.pi / resp.frequencies[idx] / k == pytest.approx(2.70, abs=0.01)
    assert resp.magnitudes[idx] == pytest.approx(0.7246, abs=1e-4)


@pytest.mark.parametrize("k", [2, 3, 5, 8, 12, 255, 256, 4096])
def test_macd_nyquist_magnitude_is_zero_or_one_over_k(k):
    # H_2k(pi) = 0 always and |H_k(pi)| = |sin(k pi/2)| / k.
    nyquist = transfer_function(macd_kernel(k), BANDPASS_GRID).magnitudes[-1]
    assert nyquist == pytest.approx(0.0 if k % 2 == 0 else 1.0 / k, abs=1e-15)


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


def test_bandpass_fails_for_a_kernel_that_leaks_dc():
    # One weight of the k = 8 trend kernel nudged by 1e-9: |H(0)| is that
    # nudge, below the averaging-kernel cut of 1e-3 but above the 1e-12 gate.
    kern = macd_kernel(8)
    weights = kern.weights.copy()
    weights[0] += 1e-9
    verdict = bandpass_check(transfer_function(KernelRep(kern.offsets, weights), 4096))
    assert verdict.dc_magnitude == pytest.approx(1e-9, rel=1e-6)
    assert not verdict.passed
    assert verdict.failures == ("|H(0)| = 1e-09 exceeds 1e-12",)


def test_expansion_spectrum_matches_difference_spectrum():
    omega = None
    for n, k in [(1, 8), (3, 4), (5, 2)]:
        exp_resp = transfer_function(expansion_kernel(n, k), 4096)
        ref = build_kernel(("diff", ("avg", n * k), ("avg", (n + 1) * k)))
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
        assert np.all(resp.magnitudes <= np.abs(kern.weights).sum() + 1e-12)


def test_frequency_response_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        from macdkit import FrequencyResponse

        FrequencyResponse(np.array([0.0, 0.0, 1.0]), np.zeros(3), np.zeros(3))
