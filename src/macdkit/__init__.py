"""macdkit: box-average operator algebra with exact identity verification.

The package treats the classic short-minus-long moving-average indicator as
a linear operator, provides the full family of trailing / centered / double
averages and delays it is built from, verifies every algebraic relation
between them as a numerical residual check, streams the indicator in O(1)
per sample, and analyzes the kernels' frequency responses.
"""

from .identities import (
    CHECKS,
    CheckRecord,
    MonotonicityResult,
    ResidualReport,
    TrendLabel,
    check_difference_identity,
    check_lp_bound,
    check_macd_derivative,
    check_window_monotonicity,
    check_phase_corrected_form,
    check_recursive_decomposition,
    check_recursive_expansion,
    classify_trend,
    expansion_rhs,
    run_checks,
    smoothed_derivative,
)
from .kernels import (
    KernelRep,
    apply_kernel,
    box_kernel,
    build_kernel,
    centered_box_kernel,
    delay_kernel,
    derivative_kernel,
    expansion_kernel,
    macd_kernel,
    smoothed_derivative_kernel,
    triangular_kernel,
)
from .operators import (
    centered_avg,
    delay,
    double_right_avg,
    macd,
    right_avg,
    sliding_sums,
    windowed_derivative,
)
from .signals import (
    ExpansionSpec,
    InsufficientSamplesError,
    UniformSignal,
    aligned_values,
    sample_offset,
)
from .spectral import (
    BandpassVerdict,
    FrequencyResponse,
    NotDifferenceKernelError,
    bandpass_check,
    transfer_function,
)
from .streaming import ExpansionStream, MacdStream

__version__ = "0.1.0"

__all__ = [
    "UniformSignal",
    "InsufficientSamplesError",
    "aligned_values",
    "sample_offset",
    "right_avg",
    "centered_avg",
    "double_right_avg",
    "macd",
    "delay",
    "windowed_derivative",
    "sliding_sums",
    "KernelRep",
    "build_kernel",
    "apply_kernel",
    "box_kernel",
    "centered_box_kernel",
    "delay_kernel",
    "derivative_kernel",
    "macd_kernel",
    "triangular_kernel",
    "smoothed_derivative_kernel",
    "expansion_kernel",
    "CHECKS",
    "CheckRecord",
    "run_checks",
    "ResidualReport",
    "ExpansionSpec",
    "TrendLabel",
    "MonotonicityResult",
    "check_recursive_decomposition",
    "check_difference_identity",
    "check_macd_derivative",
    "check_phase_corrected_form",
    "check_recursive_expansion",
    "check_lp_bound",
    "check_window_monotonicity",
    "classify_trend",
    "expansion_rhs",
    "smoothed_derivative",
    "MacdStream",
    "ExpansionStream",
    "FrequencyResponse",
    "BandpassVerdict",
    "NotDifferenceKernelError",
    "transfer_function",
    "bandpass_check",
]
