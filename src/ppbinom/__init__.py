"""Binomial coefficients modulo prime powers via pseudo-digit blocks.

The package splits C(A, B) mod p**N into a product of small block
binomials read off base-p digit groups, tracks every factor as a power of
p times a unit at fixed precision, and cross-checks the result against a
digit-window bracket method and naive oracles.
"""

from . import errors
from .digits import (
    DigitString,
    ensure_prime,
    is_prime,
    parse_natural,
    subtract_with_borrows,
    to_base_p,
)
from .engine import (
    EvalTrace,
    Factor,
    ValuedUnit,
    davis_webb_evaluate,
    exact_binom_mod,
    format_trace_records,
    format_trace_text,
    lucas_evaluate,
    theorem_evaluate,
    theorem_factors,
)
from .oracle import binom_exact, binom_mod_pascal, kummer_valuation, pascal_rows
from .pseudo import (
    PseudoExpansion,
    block,
    block_valuation,
    decompose,
    pseudo_valuation,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "DigitString",
    "parse_natural",
    "to_base_p",
    "subtract_with_borrows",
    "is_prime",
    "ensure_prime",
    "PseudoExpansion",
    "decompose",
    "pseudo_valuation",
    "block",
    "block_valuation",
    "ValuedUnit",
    "Factor",
    "EvalTrace",
    "exact_binom_mod",
    "theorem_factors",
    "theorem_evaluate",
    "lucas_evaluate",
    "davis_webb_evaluate",
    "format_trace_text",
    "format_trace_records",
    "binom_exact",
    "binom_mod_pascal",
    "kummer_valuation",
    "pascal_rows",
    "__version__",
]
