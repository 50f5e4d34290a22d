"""Pseudo-digit decomposition of a pair A >= B in base p.

Digits of the two numbers are grouped from the low end: a group keeps
growing until the grouped value on the A side is >= the grouped value on
the B side, so the grouping depends on the pair, not on either number.
Groups end exactly after the digits where A - B does not borrow:
nothing borrows into a group's low digit lo, so for i >= lo,
(A mod p**(i+1)) - (B mod p**(i+1)) is p**lo times the A-side minus the
B-side value of digits lo..i, plus a part in [0, p**lo): negative, a
borrow out of digit i, exactly when the A-side value is the smaller.
The groups are Kummer's borrow chains, and (total digits) - (number of
groups), the borrow count, is the p-adic valuation of C(A, B), which
makes the groups the natural unit for prime-power congruences.
"""

from __future__ import annotations

from dataclasses import dataclass

from .digits import DigitString, _digit_pair, _text, ensure_prime
from .errors import EmptyBlock, _check_pair

__all__ = [
    "PseudoExpansion",
    "decompose",
    "pseudo_valuation",
    "block",
    "block_valuation",
]


@dataclass(frozen=True, slots=True)
class PseudoExpansion:
    """Pseudo-digit segmentation of a pair (A, B) in base p.

    Stores the digit tuples of both numbers (B padded to A's width) and the
    segment boundaries; ``bounds[i]`` is the digit offset where group ``i``
    starts and ``bounds[-1]`` the total digit count.  ``block`` reads
    groups and runs of groups as digit strings.
    """

    p: int
    a_digits: tuple[int, ...]
    b_digits: tuple[int, ...]
    bounds: tuple[int, ...]

    @property
    def num_pairs(self) -> int:
        return len(self.bounds) - 1

    def a_groups(self) -> str:
        """Parenthesized big-endian groups, e.g. ``(4)(323)(2)(1)(433)(0)(12)``."""
        return self._groups(self.a_digits)

    def b_groups(self) -> str:
        return self._groups(self.b_digits)

    def _groups(self, digits: tuple[int, ...]) -> str:
        # group i sits at text[end - bounds[i + 1]:end - bounds[i]]
        text, down = _text(digits), self.bounds[::-1]
        end = down[0]
        return "".join([f"({text[end - hi:end - lo]})" for hi, lo in zip(down, down[1:])])


def decompose(A: int, B: int, p: int) -> PseudoExpansion:
    """Segment the pair (A, B) into pseudo-digits, least significant first.

    One borrow pass over the digits ends a group after each digit where
    A - B does not borrow, which is the value rule (see the module
    docstring).  Raises OrderViolation when A < B.
    """
    _check_pair(A, B)
    ensure_prime(p)
    da, db = _digit_pair(A, B, p)
    bounds = [0]
    borrow = False
    for i, (x, y) in enumerate(zip(da, db), 1):
        borrow = x - y - borrow < 0
        if not borrow:
            bounds.append(i)
    # A >= B: the top digit never borrows, so the last group ends at the top.
    assert not borrow, "pseudo-digit group ran past the available digits"
    return PseudoExpansion(p, da, db, tuple(bounds))


def pseudo_valuation(e: PseudoExpansion) -> int:
    """Total digits minus group count: the p-adic valuation of C(A, B)."""
    return len(e.a_digits) - e.num_pairs


def _span(e: PseudoExpansion, i: int, length: int) -> tuple[int, int, int]:
    """(lo, hi, groups) of groups i .. i+length-1: the digit offsets of
    the part below the top, and how many real groups it holds; the other
    length - groups are padding above the top."""
    if length < 1:
        raise EmptyBlock("blocks span at least one pseudo-digit")
    if i < 0:
        raise IndexError(f"block start {i} is negative")
    np = len(e.bounds) - 1
    lo, hi = min(i, np), min(i + length, np)
    return e.bounds[lo], e.bounds[hi], hi - lo


def block(e: PseudoExpansion, i: int, length: int) -> tuple[DigitString, DigitString]:
    """Concatenation of groups i .. i+length-1 on both sides.

    Groups above the top index contribute a single zero digit each, which
    is the padding the leading block of a short expansion needs.
    """
    lo, hi, groups = _span(e, i, length)
    pad = (0,) * (length - groups)
    return (
        DigitString(e.a_digits[lo:hi] + pad, e.p),
        DigitString(e.b_digits[lo:hi] + pad, e.p),
    )


def block_valuation(e: PseudoExpansion, i: int, length: int) -> int:
    """Digit count of the block minus its group count.

    Equals the p-adic valuation of the block binomial C(a-block, b-block);
    padded zero groups above the top contribute nothing.
    """
    lo, hi, groups = _span(e, i, length)
    return (hi - lo) - groups
