"""Binomial coefficients modulo prime powers via pseudo-digit blocks.

The package splits C(A, B) mod p**N into a product of small block
binomials read off base-p digit groups, tracks every factor as a power of
p times a unit at fixed precision, and cross-checks the result against a
digit-window bracket method and naive oracles.  Each module's ``__all__``
is its public surface; the package re-exports them all.
"""

from . import digits, engine, errors, oracle, pseudo
from .digits import *
from .engine import *
from .oracle import *
from .pseudo import *

__version__ = "0.1.0"

__all__ = [
    "errors",
    *digits.__all__,
    *pseudo.__all__,
    *engine.__all__,
    *oracle.__all__,
    "__version__",
]
