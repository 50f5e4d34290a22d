"""Independent brute-force ground truth.

Deliberately naive and auditable: exact binomials by the multiplicative
formula, the Pascal recurrence modulo an arbitrary modulus, and the
borrow-count valuation.  Nothing here touches the pseudo-digit machinery;
the only dependency is plain digit arithmetic.
"""

from __future__ import annotations

import math
from typing import Iterator

from .digits import _borrows, _digits_of, ensure_prime
from .errors import TooLarge, _check_pair, describe_int

__all__ = [
    "binom_exact",
    "binom_mod_pascal",
    "kummer_valuation",
    "pascal_rows",
]

_MAX_DIGITS = 10**6
PASCAL_LIMIT = 10**4
# binom_exact's loop does min(b, a-b) steps on numbers of up to the
# result's size.  C(10**5, 5*10**4), just over this many steps x result
# digits, takes about 1.1 s (Python 3.11 on a 2-core x86 host).
_COST_GUARD = 15 * 10**8


def _result_digits_estimate(a: int, b: int) -> int:
    """Upper estimate of the decimal digit count of C(a, b).

    Float lgamma is close, but each of its three terms is rounded by up
    to about a ln(a) 2**-52, which from about a = 10**17 on can swamp
    their difference.  With k = min(b, a - b) the result is at least
    k ln 2 nats; lgamma is kept while the rounding stays under k / 2**10
    nats, and otherwise C(a, b) <= (e a / k)**k, which cannot cancel,
    gives k log10(e a / k) + 1 digits.
    """
    k = min(b, a - b)
    if k == 0:
        return 1
    try:
        if a * math.log(a) < k * 2**40:
            nats = math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)
            return int(nats / math.log(10)) + 1
        return int(k * (math.log10(a) - math.log10(k) + math.log10(math.e))) + 1
    except OverflowError:
        # a or k too large for float; C(a, b) <= a**k is bound enough, and
        # bit_length avoids the int-to-str conversion limit on huge a
        digits_a = int(a.bit_length() * 0.30103) + 1
        return k * digits_a


def binom_exact(a: int, b: int) -> int:
    """Exact C(a, b) by the multiplicative formula, one exact division per step.

    Refuses (TooLarge) when the result would exceed _MAX_DIGITS decimal
    digits, or when the loop would take over _COST_GUARD digit steps;
    the guards keep this a desk-scale tool.
    """
    _check_pair(a, b)
    estimate = _result_digits_estimate(a, b)
    if estimate > _MAX_DIGITS:
        raise TooLarge(
            f"C({describe_int(a)}, {describe_int(b)}) would have about "
            f"{describe_int(estimate)} digits, over the {_MAX_DIGITS} digit guard"
        )
    cost = min(b, a - b) * estimate
    if cost > _COST_GUARD:
        raise TooLarge(
            f"C({describe_int(a)}, {describe_int(b)}) would take about "
            f"{describe_int(cost)} digit steps, over the {_COST_GUARD} step guard"
        )
    if b > a - b:
        b = a - b
    result = 1
    for i in range(1, b + 1):
        result = result * (a - b + i) // i
    return result


def pascal_rows(modulus: int, limit: int = PASCAL_LIMIT) -> Iterator[list[int]]:
    """Yield row A = [C(A, 0..A) mod modulus] for A = 0, 1, ... up to limit.

    Each yielded list is freshly allocated and safe to keep.
    """
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    row = [1 % modulus]
    a = 0
    while a <= limit:
        yield row
        one = 1 % modulus
        nxt = [one] * (a + 2)
        for b in range(1, a + 1):
            nxt[b] = (row[b - 1] + row[b]) % modulus
        row = nxt
        a += 1


def binom_mod_pascal(a: int, b: int, modulus: int) -> int:
    """C(a, b) mod modulus by running the Pascal recurrence row by row.

    Cost O(a**2); guarded at a <= 10**4.
    """
    _check_pair(a, b)
    if a > PASCAL_LIMIT:
        raise TooLarge(f"Pascal recurrence is guarded at a <= {PASCAL_LIMIT}")
    for i, row in enumerate(pascal_rows(modulus, a)):
        if i == a:
            return row[b]
    raise AssertionError("unreachable")


def kummer_valuation(a: int, b: int, p: int) -> int:
    """v_p C(a, b) as the borrow count of the schoolbook base-p subtraction a - b."""
    _check_pair(a, b)
    ensure_prime(p)
    return _borrows(_digits_of(a, p), _digits_of(b, p))
