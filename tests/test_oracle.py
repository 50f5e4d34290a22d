"""Brute-force oracle sanity: the ground truth must agree with itself."""

import math

import pytest

from ppbinom.errors import OrderViolation, TooLarge
from ppbinom.oracle import (
    binom_exact,
    binom_mod_pascal,
    kummer_valuation,
    pascal_rows,
)


class TestBinomExact:
    def test_hand_checkable(self):
        assert binom_exact(10, 5) == 252

    def test_choose_zero(self):
        assert binom_exact(7, 0) == 1
        assert binom_exact(0, 0) == 1

    def test_worked_base3_example(self):
        assert binom_exact(38360, 22741) % 243 == 18

    def test_matches_math_comb(self):
        for a in range(0, 60):
            for b in range(a + 1):
                assert binom_exact(a, b) == math.comb(a, b)

    def test_order_violation(self):
        with pytest.raises(OrderViolation):
            binom_exact(3, 4)

    def test_too_large(self):
        with pytest.raises(TooLarge):
            binom_exact(10**9, 5 * 10**8)
        with pytest.raises(TooLarge):
            binom_exact(10**400, 10**399)  # beyond float range, bound still applies

    def test_cost_guard(self):
        # Results of 3*10^5 and 6*10^4 digits pass the size guard, but
        # their loops would run for minutes and for seconds.
        for a in (10**6, 2 * 10**5):
            with pytest.raises(TooLarge, match="digit steps"):
                binom_exact(a, a // 2)
        # The size guard is checked first, so its message is unchanged.
        with pytest.raises(TooLarge, match="digits, over the 1000000 digit guard"):
            binom_exact(10**9, 5 * 10**8)


class TestBinomModPascal:
    def test_examples(self):
        assert binom_mod_pascal(10, 5, 16) == 12
        assert binom_mod_pascal(9, 9, 11) == 1
        assert binom_mod_pascal(7, 5, 9) == 3

    def test_guard(self):
        with pytest.raises(TooLarge):
            binom_mod_pascal(10**4 + 1, 2, 9)

    def test_order_violation(self):
        with pytest.raises(OrderViolation):
            binom_mod_pascal(4, 5, 9)

    def test_concordance_with_exact(self):
        # same values out of two unrelated recurrences
        moduli = (8, 27, 243, 3125)
        rows_mod = [list(pascal_rows(m, 300)) for m in moduli]
        exact_row = [1]
        for a in range(301):
            for b in range(a + 1):
                for m, rows in zip(moduli, rows_mod):
                    assert rows[a][b] == exact_row[b] % m
            exact_row = [1] + [exact_row[i] + exact_row[i + 1] for i in range(a)] + [1]

    def test_modulus_one(self):
        assert binom_mod_pascal(10, 4, 1) == 0


class TestKummerValuation:
    def test_binary_example(self):
        assert kummer_valuation(10, 5, 2) == 2

    def test_self(self):
        assert kummer_valuation(38360, 38360, 7) == 0

    def test_worked_base3_pair(self):
        assert kummer_valuation(38360, 22741, 3) == 2

    def test_order_violation(self):
        with pytest.raises(OrderViolation):
            kummer_valuation(5, 6, 3)

    def test_equals_exact_exponent(self):
        for p in (2, 3, 5):
            for a in range(150):
                for b in range(a + 1):
                    c = math.comb(a, b)
                    v = 0
                    while c % p == 0:
                        c //= p
                        v += 1
                    assert kummer_valuation(a, b, p) == v
