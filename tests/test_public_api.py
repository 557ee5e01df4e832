import importlib

import macdkit

SUBMODULES = ["signals", "operators", "identities", "kernels", "spectral", "streaming", "cli"]

# The package's public names.  A name added or deleted shows up here in the diff.
PACKAGE_NAMES = {
    "UniformSignal", "InsufficientSamplesError", "aligned_values", "sample_offset",
    "right_avg", "centered_avg", "double_right_avg", "macd", "delay", "windowed_derivative",
    "sliding_sums",
    "KernelRep", "build_kernel", "apply_kernel", "box_kernel", "centered_box_kernel",
    "delay_kernel", "derivative_kernel", "macd_kernel", "triangular_kernel",
    "smoothed_derivative_kernel", "expansion_kernel", "kernel_difference",
    "CHECKS", "CheckRecord", "run_checks", "ResidualReport", "ExpansionSpec", "TrendLabel",
    "MonotonicityResult", "check_recursive_decomposition", "check_difference_identity",
    "check_macd_derivative", "check_phase_corrected_form", "check_recursive_expansion",
    "check_lp_bound", "check_window_monotonicity", "classify_trend", "expansion_rhs",
    "smoothed_derivative",
    "MacdStream", "ExpansionStream",
    "FrequencyResponse", "BandpassVerdict", "NotDifferenceKernelError", "transfer_function",
    "bandpass_check",
}


def test_every_exported_name_resolves():
    for module in [macdkit] + [importlib.import_module(f"macdkit.{m}") for m in SUBMODULES]:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
        assert len(set(module.__all__)) == len(module.__all__), module.__name__


def test_package_exports_exactly_the_expected_names():
    assert set(macdkit.__all__) == PACKAGE_NAMES


def test_expansion_spec_is_one_class():
    from macdkit import identities, signals

    assert identities.ExpansionSpec is signals.ExpansionSpec is macdkit.ExpansionSpec
