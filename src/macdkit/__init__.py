"""macdkit: box-average operator algebra with exact identity verification.

The package treats the classic short-minus-long moving-average indicator as
a linear operator, provides the full family of trailing / centered / double
averages and delays it is built from, verifies every algebraic relation
between them as a numerical residual check, streams the indicator in O(1)
per sample, and analyzes the kernels' frequency responses.

Each module's ``__all__`` is its part of the package's public surface; the
package re-exports them and adds nothing of its own.
"""

from . import identities, kernels, operators, signals, spectral, streaming
from .identities import *
from .kernels import *
from .operators import *
from .signals import *
from .spectral import *
from .streaming import *

__version__ = "0.1.0"

__all__ = [name for module in (signals, operators, kernels, identities, spectral, streaming)
           for name in module.__all__]
