"""Reference answers computed without the package under test.

Every function here works on little-endian base-p digit lists produced by
the workload generator, so no reference ever runs the radix conversion,
segmentation or block primitive that the timed process exercises.

* ``borrows`` is the schoolbook base-p subtraction; its borrow count is
  v_p C(A, B) by Kummer's theorem, which settles every op with m >= N.
* ``binom_mod`` evaluates C(A, B) mod p**N by Granville's factorial
  formula C(A, B) = p**m * U(A) / (U(B) U(A - B)) with
  U(x) = prod_j (floor(x / p**j)!)_p, where (y!)_p is the product of the
  integers <= y prime to p.  (y!)_p mod p**N comes from a prefix table of
  size p**N, or, for N = 2 and large p, from a first-order expansion in p
  over tables of size p.
* ``to_int`` and ``to_decimal`` build numbers from digits by
  divide-and-conquer, so generation stays subquadratic.
"""

from __future__ import annotations

import decimal
from array import array
from functools import lru_cache
from typing import Callable, Sequence

# Largest p**N for which binom_mod builds a full prefix table.
TABLE_LIMIT = 1 << 20

_LEAF = 64


def borrows(a: Sequence[int], b: Sequence[int], p: int) -> tuple[list[int], int]:
    """Digits of A - B and the number of borrows (A >= B required)."""
    if len(b) > len(a):
        raise ValueError("reference needs A >= B")
    out = []
    borrow = 0
    count = 0
    for x, y in zip(a, list(b) + [0] * (len(a) - len(b))):
        d = x - y - borrow
        borrow = d < 0
        count += borrow
        out.append(d + p if borrow else d)
    if borrow:
        raise ValueError("reference needs A >= B")
    return out, count


def _combine(digits: Sequence[int], p, one, power: Callable[[int], object]):
    def rec(lo: int, hi: int):
        if hi - lo <= _LEAF:
            v = 0
            for d in reversed(digits[lo:hi]):
                v = v * p + d
            return one * v
        mid = (lo + hi) // 2
        return rec(lo, mid) + rec(mid, hi) * power(mid - lo)

    return rec(0, len(digits))


def to_int(digits: Sequence[int], p: int) -> int:
    """Value of little-endian base-p digits (balanced product tree)."""
    powers: dict[int, int] = {}

    def power(k: int) -> int:
        if k not in powers:
            powers[k] = p**k
        return powers[k]

    return _combine(digits, p, 1, power)


def to_decimal(digits: Sequence[int], p: int) -> str:
    """Decimal text of little-endian base-p digits.

    Works in exact decimal arithmetic, whose large multiplications are
    subquadratic, so the int-to-str conversion and its length limit are
    never involved.
    """
    ctx = decimal.Context(
        prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
        traps=[decimal.Inexact, decimal.Rounded],
    )
    powers: dict[int, decimal.Decimal] = {}

    def power(k: int) -> decimal.Decimal:
        if k not in powers:
            powers[k] = ctx.power(decimal.Decimal(p), k)
        return powers[k]

    with decimal.localcontext(ctx):
        text = str(_combine(digits, p, decimal.Decimal(1), power))
    return text


def base_text(digits: Sequence[int], width: int | None = None) -> str:
    """Most-significant-first text of digits < 36, zero-padded to width."""
    alphabet = "0123456789abcdefghijklmnopqrstuvwxyz"
    text = "".join(alphabet[d] for d in reversed(digits)).lstrip("0") or "0"
    return text.rjust(width, "0") if width else text


@lru_cache(maxsize=8)
def _prefix_table(p: int, N: int) -> tuple[array, int]:
    pn = p**N
    table = array("l", [1])
    acc = 1
    for r in range(1, pn):
        if r % p:
            acc = acc * r % pn
        table.append(acc)
    # Product of the units mod p**N (generalized Wilson): -1 except 2**N, N >= 3.
    sign = 1 if p == 2 and N >= 3 else pn - 1
    return table, sign


@lru_cache(maxsize=8)
def _harmonic_tables(p: int) -> tuple[list[int], list[int]]:
    """r! mod p**2 and the harmonic sum H_r mod p, for r < p."""
    p2 = p * p
    inv = [0, 1] + [0] * (p - 2)
    for t in range(2, p):
        inv[t] = -(p // t) * inv[p % t] % p
    fact = [1] * p
    harm = [0] * p
    for r in range(1, p):
        fact[r] = fact[r - 1] * r % p2
        harm[r] = (harm[r - 1] + inv[r]) % p
    return fact, harm


def unit_factorial(p: int, N: int) -> tuple[Callable[[int], int], int]:
    """(f, M): f(y mod M) is (y!)_p mod p**N for every y >= 0."""
    pn = p**N
    if pn <= TABLE_LIMIT:
        table, sign = _prefix_table(p, N)

        def from_table(y: int) -> int:
            t = table[y % pn]
            return t * sign % pn if (y // pn) & 1 else t

        return from_table, 2 * pn
    if N != 2 or p == 2:
        raise ValueError(f"no reference for p={p}, N={N}")
    fact, harm = _harmonic_tables(p)
    F, H = fact[p - 1], harm[p - 1]
    p2 = p * p
    # (y!)_p with y = qp + r: the q full blocks give F**q (1 + pH q(q-1)/2)
    # and the partial block r! (1 + qp H_r), all mod p**2; both depend on q
    # only mod p(p-1), the order of the unit group.

    def expanded(y: int) -> int:
        q, r = divmod(y, p)
        full = pow(F, q, p2) * (1 + p * H * (q * (q - 1) // 2)) % p2
        return full * fact[r] * (1 + q * p * harm[r]) % p2

    return expanded, p2 * (p - 1)


def _unit_product(x: Sequence[int], p: int, f: Callable[[int], int], M: int, pn: int) -> int:
    # prod over j of (floor(x / p**j)!)_p, rolling floor(x / p**j) mod M down
    # from the top digit.
    acc = 1
    y = 0
    for d in reversed(x):
        y = (y * p + d) % M
        acc = acc * f(y) % pn
    return acc


def binom_mod(a: Sequence[int], b: Sequence[int], p: int, N: int) -> tuple[int, int]:
    """(C(A, B) mod p**N, v_p C(A, B)) from the digits of A >= B."""
    c, m = borrows(a, b, p)
    if m >= N:
        return 0, m
    pn = p**N
    f, M = unit_factorial(p, N)
    num = _unit_product(a, p, f, M, pn)
    den = _unit_product(b, p, f, M, pn) * _unit_product(c, p, f, M, pn) % pn
    return p**m * num * pow(den, -1, pn) % pn, m
