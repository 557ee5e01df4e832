import ast
import copy
import dataclasses
import importlib
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import macdkit
from macdkit import (BandpassVerdict, ExpansionSpec, FrequencyResponse, KernelRep,
                     MonotonicityResult, ResidualReport, TrendLabel, UniformSignal, check_lp_bound,
                     check_macd_derivative, check_recursive_expansion, check_window_monotonicity,
                     expansion_kernel, macd_kernel, run_checks, transfer_function)

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
    assert MonotonicityResult._fields == ("passed", "first_violation", "equality_passed")
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


def test_no_module_holds_a_dataclass():
    # Building a dataclass generates its methods by exec at import, a cost
    # every process that imports macdkit pays.
    src = Path(macdkit.__file__).parent
    for path in sorted(src.glob("*.py")):
        module = importlib.import_module(f"macdkit.{path.stem}" if path.stem != "__init__"
                                         else "macdkit")
        held = [name for name, obj in vars(module).items()
                if isinstance(obj, type) and dataclasses.is_dataclass(obj)]
        assert not held, (module.__name__, held)


def test_import_loads_no_dataclasses_module():
    src = Path(macdkit.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    probe = ("import sys, numpy; before = set(sys.modules); import macdkit; "
             "print(' '.join(sorted(set(sys.modules) - before)))")
    added = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                           text=True, check=True).stdout.split()
    # No module needs postponed annotations either, so none loads __future__.
    assert "macdkit.identities" in added, added
    assert "dataclasses" not in added and "__future__" not in added, added


# Each public record and array holder: its constructor's arguments, its repr,
# a field, and whether it compares by value.  The reprs are those of the
# dataclasses these types once were.  Each hashable value record is built from
# all of its fields, so it hashes as their tuple.
RECORDS = {
    UniformSignal: ((1.5, 0.25, [1.0, 2.0, 3.0]), "UniformSignal(t0=1.5, dt=0.25)", "t0", False),
    KernelRep: (([0, 2], [0.5, -0.5], "note"), "KernelRep(first=0, scale_note='note')", "first",
                False),
    FrequencyResponse: (([0.0, 1.0], [0.0, 2.0], [0.0, -1.0], "tag"),
                        "FrequencyResponse(kernel_tag='tag')", "kernel_tag", False),
    ExpansionSpec: ((4, 3), "ExpansionSpec(n=4, b=3)", "n", True),
    ResidualReport: (("x", {"a": 8}, 0.0, 0.0, 1e-12, True),
                     "ResidualReport(name='x', params={'a': 8}, max_abs_residual=0.0, "
                     "max_rel_residual=0.0, gate=1e-12, passed=True, required=None, "
                     "valid_range=None, insufficient=False)", "name", True),
    TrendLabel: (("increasing", 0.5), "TrendLabel(label='increasing', margin=0.5)", "label",
                 True),
    MonotonicityResult: ((True, None, True), "MonotonicityResult(passed=True, "
                         "first_violation=None, equality_passed=True)", "passed", True),
    BandpassVerdict: ((False, 0.0, 1.5, 0.75, 0.25, ("x",)),
                      "BandpassVerdict(passed=False, dc_magnitude=0.0, peak_frequency=1.5, "
                      "peak_magnitude=0.75, nyquist_magnitude=0.25, failures=('x',))", "passed",
                      True),
}
ARRAYS = {UniformSignal: ["values"], KernelRep: ["weights"],
          FrequencyResponse: ["frequencies", "magnitudes", "phases"]}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_repr_equality_immutability_and_copies(cls):
    args, text, field, by_value = RECORDS[cls]
    one, twin = cls(*args), cls(*args)
    assert repr(one) == text
    assert one == one and (one == twin) is by_value and (one != twin) is not by_value
    if cls is ResidualReport:
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(one)
    else:
        assert hash(one) == (hash(args) if by_value else object.__hash__(one))

    # A named tuple refuses with AttributeError, the base of the others' error.
    frozen = not isinstance(one, tuple)
    refused = dataclasses.FrozenInstanceError if frozen else AttributeError
    value = getattr(one, field)
    for act, message in [(lambda: setattr(one, field, 1), "cannot assign to field"),
                         (lambda: setattr(one, "extra", 1), "cannot assign to field"),
                         (lambda: delattr(one, field), "cannot delete field")]:
        with pytest.raises(refused, match=message if frozen else None):
            act()
    assert getattr(one, field) is value and not hasattr(one, "extra")

    for twin in (copy.copy(one), copy.deepcopy(one), pickle.loads(pickle.dumps(one))):
        assert type(twin) is cls and twin is not one and repr(twin) == text
        assert (twin == one) is by_value
        for name in ARRAYS.get(cls, []):
            assert np.array_equal(getattr(twin, name), getattr(one, name)), name


SPEC_BUILDERS = {
    "positional": lambda n, b: ExpansionSpec(n, b),
    "keywords": lambda n, b: ExpansionSpec(b=b, n=n),
    "of": lambda n, b: ExpansionSpec.of(n, b, 1.0),
    "expansion_kernel": lambda n, b: expansion_kernel(n, b),
    "run_checks": lambda n, b: run_checks(UniformSignal(0.0, 1.0, np.arange(64.0)),
                                          ["recursive_expansion"], n=n, b=b),
}


@pytest.mark.parametrize("build", SPEC_BUILDERS.values(), ids=SPEC_BUILDERS)
@pytest.mark.parametrize("n, b, message", [(0, 4, "term count must be a positive integer"),
                                           (4, True, "window needs a positive integer")],
                         ids=["n=0", "b=True"])
def test_every_way_of_building_an_expansion_spec_checks_its_counts(build, n, b, message):
    with pytest.raises(ValueError, match=message):
        build(n, b)
