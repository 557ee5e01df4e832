import ast
import dataclasses
import importlib
import re
from pathlib import Path

import numpy as np

import macdkit
from macdkit import (ExpansionSpec, KernelRep, MonotonicityResult, UniformSignal, check_lp_bound,
                     check_macd_derivative, check_recursive_expansion, check_window_monotonicity,
                     macd_kernel, transfer_function)

SUBMODULES = ["signals", "operators", "identities", "kernels", "spectral", "streaming", "cli"]

# The package's public names.  A name added or deleted shows up here in the diff.
PACKAGE_NAMES = {
    "UniformSignal", "InsufficientSamplesError", "aligned_values", "sample_offset",
    "right_avg", "centered_avg", "double_right_avg", "macd", "delay", "windowed_derivative",
    "sliding_sums",
    "KernelRep", "build_kernel", "apply_kernel", "box_kernel", "macd_kernel",
    "triangular_kernel", "smoothed_derivative_kernel", "expansion_kernel",
    "CHECKS", "run_checks", "ResidualReport", "ExpansionSpec", "TrendLabel",
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


def test_max_abs_is_one_function():
    from macdkit import identities, signals

    assert identities._max_abs is signals._max_abs


def test_readme_python_examples_run():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(readme), "exec"), {})


def test_benchmark_span_targets_resolve():
    # The benchmark's tracer wraps these names in each module; a dropped one
    # breaks a traced run.
    spans = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    targets = next(ast.literal_eval(node.value)
                   for node in ast.parse(spans.read_text(encoding="utf-8")).body
                   if isinstance(node, ast.Assign)
                   and getattr(node.targets[0], "id", None) == "TARGETS")
    for module, names in targets.items():
        namespace = importlib.import_module(f"macdkit.{module}")
        missing = [name for name in names if not callable(getattr(namespace, name, None))]
        assert not missing, (module, missing)


def test_kernel_surface_the_benchmark_reads():
    # The benchmark compares a kernel's offsets with tuple(range(...)), and its
    # drop-tap self-test rebuilds a kernel without its last lag.
    kern = macd_kernel(12)
    assert type(kern.offsets) is tuple and all(type(lag) is int for lag in kern.offsets)
    short = KernelRep(kern.offsets[:-1], kern.weights[:-1], kern.scale_note)
    assert short.offsets == kern.offsets[:-1] and short.weights.size == kern.weights.size - 1
    assert short.scale_note == kern.scale_note


def test_identity_surface_the_benchmark_reads():
    # The benchmark gates each residual check's max_rel_residual and reads
    # insufficient, compares check_lp_bound's float with 2, reads the
    # monotonicity scan's verdicts, and builds its specs with ExpansionSpec.of.
    # The scan's result holds those three verdicts and nothing else.
    sig = UniformSignal(0.0, 1.0, np.random.default_rng(3).standard_normal(500).cumsum())
    report = check_macd_derivative(sig, 8)
    assert type(report.max_rel_residual) is float and report.insufficient is False
    assert type(check_lp_bound(sig, 8, 2)) is float
    scan = check_window_monotonicity(sig, 8, 20)
    assert scan.passed is True and scan.equality_passed is True and scan.first_violation is None
    fields = [f.name for f in dataclasses.fields(MonotonicityResult)]
    assert fields == ["passed", "first_violation", "equality_passed"]
    spec = ExpansionSpec.of(4, 4, sig.dt)
    assert spec == ExpansionSpec(4, 4)
    assert check_recursive_expansion(sig, spec).max_rel_residual <= 1e-12


def test_array_holding_types_compare_by_identity():
    kern = macd_kernel(2)
    twins = [
        (UniformSignal(0.0, 1.0, [1.0, 2.0]), UniformSignal(0.0, 1.0, [1.0, 2.0])),
        (kern, macd_kernel(2)),
        (transfer_function(kern, 8), transfer_function(kern, 8)),
    ]
    for one, twin in twins:
        assert one == one and one != twin
        assert len({one, twin, one}) == 2
