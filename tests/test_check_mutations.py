"""Which checks catch a broken operator: the mutation matrix of ``CHECKS``.

Each row skews one function by one part in 1e9 and runs every ``CHECKS``
entry at ``run_checks``' defaults on a fresh 50,000-sample walk.  A function
is skewed by replacing its module-level name, as a tracer wraps it: the
operators and helpers the checks call in ``identities``, and the window sums
and means in ``operators``.  Those two are skewed at the default window 8
only, because skewing every window alike scales every side alike, and each
identity is linear.  The table is the set of records that fail.
"""

import numpy as np
import pytest

from macdkit import CHECKS, UniformSignal, identities, operators, run_checks

SKEW = 1 + 1e-9


def _skew_output(fn):
    def skewed(*args, **kwargs):
        out = fn(*args, **kwargs)
        return out.with_values(out.values * SKEW)
    return skewed


def _skew_window_8(fn):
    def skewed(values, k):
        out = fn(values, k)
        return out * SKEW if k == 8 else out
    return skewed


DECOMPOSITION, DIFFERENCE, DERIVATIVE, PHASE, EXPANSION = (
    "recursive_decomposition", "difference_identity", "macd_derivative",
    "phase_corrected_form", "recursive_expansion")

# (module, name, skew) -> the records that fail.  No row fails lp_bound or
# monotonicity: a one-part-in-1e9 skew stays far inside the norm bound's
# gate of 2 (item 12 sharpens it to each kernel's own norm), and inside the
# scan's inequalities and its 1e-9 * max|x| tie tolerance.
MATRIX = {
    (identities, "right_avg", _skew_output): {DECOMPOSITION, DERIVATIVE},
    (identities, "centered_avg", _skew_output): {PHASE},
    (identities, "delay", _skew_output): {PHASE},
    (identities, "macd", _skew_output): {DERIVATIVE, PHASE},
    (identities, "windowed_derivative", _skew_output): {DERIVATIVE, PHASE},
    (identities, "smoothed_derivative", _skew_output): {DERIVATIVE},
    (identities, "_half_window_rate", _skew_output): {DERIVATIVE, PHASE},
    (identities, "expansion_rhs", _skew_output): {EXPANSION},
    # Blind spot, ROADMAP item 9: every _box_terms side skews alike, and
    # both sides of difference_identity and recursive_expansion are
    # _box_terms sides, so those two pass.
    (identities, "_box_terms", _skew_output): {DECOMPOSITION},
    # Blind spot, ROADMAP item 17: macd and both derivative forms read the
    # same kept mean A_8 and take the same difference of it, so a wrong
    # window mean passes macd_derivative and phase_corrected_form.  The
    # skewed sum S_8 is kept, and A_16 grows from it, so the expansion
    # sees it too; a skewed A_8 read leaves the kept one intact.
    (operators, "sliding_sums", _skew_window_8): {DECOMPOSITION, DIFFERENCE, EXPANSION},
    (operators, "_window_means", _skew_window_8): {DECOMPOSITION, DIFFERENCE},
}


@pytest.fixture(scope="module")
def walk():
    return np.random.default_rng(15).standard_normal(50_000).cumsum()


def test_every_check_passes_unskewed(walk):
    assert all(r.passed for r in run_checks(UniformSignal(0.0, 1.0, walk)))


@pytest.mark.parametrize("module, name, skew", list(MATRIX),
                         ids=[f"{m.__name__.rpartition('.')[2]}.{n}" for m, n, _ in MATRIX])
def test_a_skewed_operator_fails_the_checks_in_the_matrix(monkeypatch, walk, module, name, skew):
    monkeypatch.setattr(module, name, skew(getattr(module, name)))
    records = run_checks(UniformSignal(0.0, 1.0, walk))
    assert [r.name for r in records] == list(CHECKS)
    assert {r.name for r in records if not r.passed} == MATRIX[module, name, skew]
