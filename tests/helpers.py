"""Shared test helpers."""

from ppbinom.engine import theorem_evaluate
from ppbinom.pseudo import decompose, pseudo_valuation


def from_digits(digits, p):
    """The natural with little-endian base-p digits ``digits``: halves
    joined as lo + p**len(lo) * hi, so long digit lists stay cheap."""
    if len(digits) <= 64:
        return sum(d * p**i for i, d in enumerate(digits))
    half = len(digits) // 2
    return from_digits(digits[:half], p) + p**half * from_digits(digits[half:], p)


def width_factors(A, B, p, n):
    """The block-quotient factors of C(A, B) at width n, most significant
    first: the traced theorem's at N = n + m, which never short-circuits."""
    N = pseudo_valuation(decompose(A, B, p)) + n
    return theorem_evaluate(A, B, p, N)[1].factors
