"""Pseudo-digit decomposition, blocks, and the valuation bookkeeping."""

import math

import pytest
from helpers import from_digits

from ppbinom.digits import _text, parse_natural, to_base_p
from ppbinom.errors import EmptyBlock, OrderViolation
from ppbinom.oracle import kummer_valuation
from ppbinom.pseudo import (
    block,
    block_valuation,
    decompose,
    pseudo_valuation,
)

A5 = parse_natural("432321433012", 5)
B5 = parse_natural("323411244003", 5)
A3 = parse_natural("1221121202", 3)
B3 = parse_natural("1011012021", 3)


def exact_valuation(a, b, p):
    c = math.comb(a, b)
    v = 0
    while c % p == 0:
        c //= p
        v += 1
    return v


class TestDecompose:
    def test_base5_golden_groups(self):
        e = decompose(A5, B5, 5)
        assert e.a_groups() == "(4)(323)(2)(1)(433)(0)(12)"
        assert e.b_groups() == "(3)(234)(1)(1)(244)(0)(03)"
        assert e.num_pairs == 7
        assert e.num_pairs - 1 == 6

    def test_base3_golden_groups(self):
        e = decompose(A3, B3, 3)
        assert e.a_groups() == "(1)(2)(2)(1)(1)(21)(20)(2)"
        assert e.b_groups() == "(1)(0)(1)(1)(0)(12)(02)(1)"
        assert e.num_pairs == 8

    def test_record_repr_and_immutability(self):
        # the hand-written repr raised IndexError past base 36
        e = decompose(100, 50, 101)
        assert repr(e) == (
            "PseudoExpansion(p=101, a_digits=(100,), b_digits=(50,), bounds=(0, 1))"
        )
        with pytest.raises(AttributeError):
            e.p = 3
        with pytest.raises(ValueError, match="digit 100 "):
            e.a_groups()

    def test_equal_pair_is_all_singletons(self):
        e = decompose(A3, A3, 3)
        assert e.num_pairs == len(e.a_digits)
        assert e.bounds == tuple(range(len(e.a_digits) + 1))

    def test_zero_zero(self):
        e = decompose(0, 0, 7)
        assert e.num_pairs - 1 == 0
        assert block(e, 0, 1) == ((0,), (0,))

    def test_b_zero_is_all_singletons(self):
        e = decompose(A3, 0, 3)
        assert e.num_pairs == len(e.a_digits)
        assert all(block(e, i, 1)[1] == (0,) for i in range(e.num_pairs))

    def test_segmentation_depends_on_the_pair(self):
        # same A, different B: different grouping
        full = decompose(A3, B3, 3)
        alone = decompose(A3, 0, 3)
        assert full.a_groups() != alone.a_groups()
        assert alone.a_groups() == "(1)(2)(2)(1)(1)(2)(1)(2)(0)(2)"

    def test_order_violation(self):
        with pytest.raises(OrderViolation):
            decompose(5, 6, 3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            decompose(-1, -2, 3)

    def test_reconstruction(self):
        for p in (2, 3, 5):
            for a, b in [(A3, B3), (1023, 511), (970, 969), (59049, 1)]:
                e = decompose(a, b, p)
                assert e.a_digits == to_base_p(a, p)
                groups = [block(e, i, 1) for i in range(e.num_pairs)]
                joined_a = tuple(d for ga, _ in groups for d in ga)
                joined_b = tuple(d for _, gb in groups for d in gb)
                assert joined_a == e.a_digits
                assert joined_b == e.b_digits

    def test_pair_local_law_small_sweep(self):
        # full values a >= b, every proper low prefix a < b.  p = 41 is past
        # base-36 text; A = p**k + r, B = r + 1 gives groups of up to k + 1
        # digits (one group when r = 0).
        primes = (2, 3, 5, 7, 41)
        pairs = [(p, a, b) for p in primes for a in range(120) for b in range(a + 1)]
        pairs += [(p, p**k + r, r + 1) for p in primes for k in range(1, 40) for r in range(p + 2)]
        for p, a, b in pairs:
            e = decompose(a, b, p)
            for i in range(e.num_pairs):
                ga, gb = block(e, i, 1)
                va, vb = from_digits(ga, p), from_digits(gb, p)
                assert va >= vb
                w = 1
                for j in range(len(ga) - 1):
                    w *= p
                    assert va % w < vb % w

    def test_pair_accessor_beyond_top_is_zero(self):
        # block(e, i, 1) reads group i; above the top it is one zero digit
        e = decompose(7, 7, 3)
        assert block(e, e.num_pairs - 1 + 3, 1) == ((0,), (0,))


class TestPseudoValuation:
    def test_base3_golden(self):
        assert pseudo_valuation(decompose(A3, B3, 3)) == 10 - 8 == 2

    def test_base5_golden(self):
        assert pseudo_valuation(decompose(A5, B5, 5)) == 5

    def test_equal_pair(self):
        assert pseudo_valuation(decompose(A3, A3, 3)) == 0

    def test_binary_example(self):
        assert pseudo_valuation(decompose(10, 5, 2)) == 2  # v_2(252)

    def test_agrees_with_borrows_and_exact(self):
        for p in (2, 3, 5):
            for a in range(120):
                for b in range(a + 1):
                    m = pseudo_valuation(decompose(a, b, p))
                    assert m == kummer_valuation(a, b, p)
                    assert m == exact_valuation(a, b, p)


class TestBlock:
    def test_low_three_pairs_of_base3_example(self):
        e = decompose(A3, B3, 3)
        a, b = block(e, 0, 3)
        assert _text(a) == "21202"
        assert _text(b) == "12021"

    def test_single_pair_block(self):
        e = decompose(A3, B3, 3)
        for i in range(e.num_pairs):
            lo, hi = e.bounds[i], e.bounds[i + 1]
            a, b = block(e, i, 1)
            assert a == e.a_digits[lo:hi]
            assert b == e.b_digits[lo:hi]

    def test_binary_pair_concat(self):
        e = decompose(10, 5, 2)
        a, b = block(e, 0, 2)
        assert _text(a) == "1010"
        assert _text(b) == "0101"

    def test_padding_above_top(self):
        e = decompose(2, 1, 2)  # single pair (10)/(01)
        a, b = block(e, 0, 3)
        assert _text(a) == "0010"
        assert _text(b) == "0001"
        assert from_digits(a, 2) == 2 and from_digits(b, 2) == 1

    def test_entirely_above_top(self):
        e = decompose(2, 1, 2)
        a, b = block(e, 5, 2)
        assert a == b == (0, 0)

    def test_empty_block_rejected(self):
        e = decompose(10, 5, 2)
        with pytest.raises(EmptyBlock):
            block(e, 0, 0)
        with pytest.raises(IndexError):
            block(e, -1, 2)


class TestBlockValuation:
    def test_low_three_pairs(self):
        e = decompose(A3, B3, 3)
        assert block_valuation(e, 0, 3) == 2  # lengths 2, 2, 1

    def test_single_short_pair(self):
        e = decompose(A3, B3, 3)
        assert block_valuation(e, 3, 1) == 0

    def test_equals_borrows_of_block_values(self):
        for p in (2, 3):
            for a, b in [(A3 % 3**6, B3 % 3**6 if B3 % 3**6 <= A3 % 3**6 else 0),
                         (1000, 729), (500, 77), (64, 63)]:
                if a < b:
                    a, b = b, a
                e = decompose(a, b, p)
                for i in range(e.num_pairs):
                    for ln in range(1, e.num_pairs - i + 1):
                        ba, bb = block(e, i, ln)
                        va, vb = from_digits(ba, p), from_digits(bb, p)
                        assert block_valuation(e, i, ln) == kummer_valuation(va, vb, p)

    def test_padding_contributes_nothing(self):
        e = decompose(2, 1, 2)
        assert block_valuation(e, 0, 5) == block_valuation(e, 0, 1) == 1
        assert block_valuation(e, 3, 2) == 0

    def test_empty_block_rejected(self):
        e = decompose(10, 5, 2)
        with pytest.raises(EmptyBlock):
            block_valuation(e, 0, 0)
        with pytest.raises(IndexError):
            block_valuation(e, -1, 2)
