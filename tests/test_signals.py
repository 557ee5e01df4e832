import numpy as np
import pytest

from macdkit import UniformSignal, WindowSpec, aligned_values, sample_offset
from macdkit.signals import as_window


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


def test_signal_values_are_immutable():
    sig = UniformSignal(0.0, 1.0, [1.0, 2.0])
    with pytest.raises(ValueError):
        sig.values[0] = 5.0


def test_times_and_len():
    sig = UniformSignal(2.0, 0.5, [1.0, 2.0, 3.0])
    assert len(sig) == 3
    assert sig.times() == pytest.approx([2.0, 2.5, 3.0])


def test_window_spec():
    w = WindowSpec.of(4, 0.25)
    assert w.k == 4
    assert w.length == 1.0
    with pytest.raises(ValueError):
        WindowSpec(0, 0.0)
    with pytest.raises(ValueError):
        WindowSpec(-2, 1.0)
    assert as_window(3, 2.0) == WindowSpec(3, 6.0)
    assert as_window(w, 0.25) is w


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
