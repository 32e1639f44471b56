"""Reducibility and explicit factorization in Z[[x]] for quadratic-headed
series with prime-power constant term, driven by p-adic square tests.

The package exports exactly the names its modules list in ``__all__``,
sorted: the decision, the p-adic tests, the series type and its
conversions, the factor engines, ``LIMITS`` and ``verify_factorization``
with its ``VerificationReport``.
"""

from . import classify, factor, limits, oracle, padics, series
from .classify import *
from .factor import *
from .limits import *
from .oracle import *
from .padics import *
from .series import *

__version__ = "0.1.0"

__all__ = sorted({name for module in (classify, factor, limits, oracle, padics, series) for name in module.__all__})
