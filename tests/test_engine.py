"""Evaluator correctness: valued units, block products, brackets, Lucas."""

import math
import random
from collections import Counter

import pytest
from helpers import from_digits

from ppbinom import cli, engine
from ppbinom.digits import _digit_pair, _text, parse_natural
from ppbinom.engine import (
    ValuedUnit,
    _dw_bracket,
    davis_webb_evaluate,
    exact_binom_mod,
    format_trace_records,
    format_trace_text,
    lucas_evaluate,
    theorem_evaluate,
    theorem_factors,
)
from ppbinom.errors import NegativeValuation, NotPrime, OrderViolation, TooLarge
from ppbinom.oracle import binom_exact, kummer_valuation
from ppbinom.pseudo import PseudoExpansion, block, block_valuation, decompose, pseudo_valuation

A3 = parse_natural("1221121202", 3)
B3 = parse_natural("1011012021", 3)
A8 = parse_natural("21202112", 3)
B8 = parse_natural("12021110", 3)


def split_p(c, p, pe):
    """(v_p(c), the unit part of c mod pe) for c > 0."""
    v = 0
    while c % p == 0:
        c //= p
        v += 1
    return v, c % pe


def granville(a, b, p, e, t):
    """(v, unit) of C(a, b) from the Granville pass over a's and b's
    padded digits, reading unit factorials from t."""
    return engine._granville(*_digit_pair(a, b, p), p, e, t)


def xgcd(a, b):
    s, old_s, t, old_t, r, old_r = 0, 1, 1, 0, b, a
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


class TestValuedUnit:
    def test_value_mod_and_str(self):
        x = ValuedUnit(3, 2, 5, 3)
        assert x.value_mod() == 45
        assert str(x) == "3^2 5"
        assert str(ValuedUnit(3, 0, 8, 3)) == "8"

    def test_unit_must_be_coprime(self):
        with pytest.raises(ValueError):
            ValuedUnit(3, 1, 6, 3)

    def test_negative_valuation_rejected(self):
        with pytest.raises(NegativeValuation):
            ValuedUnit(3, -1, 2, 3)


class TestVuArithmetic:
    """A traced factor's value is its numerator over its denominator."""

    def test_worked_ratio(self):
        f = theorem_evaluate(A3, B3, 3, 5)[1].factors[4]
        assert f.num_value == ValuedUnit(3, 2, 5, 3)  # 45 = 3^2 * 5
        assert f.den_value == ValuedUnit(3, 1, 25, 3)  # 75 = 3^1 * 25
        assert f.value == ValuedUnit(3, 1, 11, 3)

    def test_self_division(self):
        f = davis_webb_evaluate(A8, B8, 3, 2)[1].factors[1]  # <12/20>/<1/2>
        assert f.num_value == f.den_value == ValuedUnit(3, 1, 1, 2)
        assert f.value == ValuedUnit(3, 0, 1, 2)

    def test_inverse_against_xgcd(self):
        f = theorem_evaluate(A3, B3, 3, 5)[1].factors[5]
        assert (f.num_value.unit, f.den_value.unit) == (10, 23)
        g, inv, _ = xgcd(23, 27)
        assert g == 1
        expected = 10 * inv % 27
        assert f.value == ValuedUnit(3, 0, expected, 3)
        assert expected == 11

    def test_negative_valuation_quotient(self, monkeypatch):
        # brackets whose (N-1)-digit denominators carry more p than
        # their N-digit numerators
        monkeypatch.setattr(engine, "_dw_bracket", lambda av, bv, k, p, e: (int(k < e), 1))
        with pytest.raises(NegativeValuation):
            davis_webb_evaluate(A8, B8, 3, 5)
        with pytest.raises(NegativeValuation, match="not p-integral"):
            davis_webb_evaluate(A8, B8, 3, 5, trace=False)


def _long_blocks(rng, p, K=2000):
    """Blocks of about K digits with min(b, a - b) < 3000: the borrow
    through the K zero digits of p**K, the K digits p - 1 of p**K - 1,
    and b far shorter than a."""
    for a in (p**K, p**K - 1, rng.randrange(p ** (K - 1), p**K)):
        for k in (0, rng.randrange(1, 3000)):
            yield a, k
            yield a, a - k


class TestExactBinomMod:
    def test_two_borrow_block(self):
        # C(12120_3, 01202_3) = C(150, 47), divisible by 9
        assert exact_binom_mod(150, 47, 3, 3) == (2, 5)
        assert math.comb(150, 47) % 3**5 == 3**2 * 5

    def test_one_borrow_block(self):
        # C(121_3, 012_3) = C(16, 5), evaluated mod 81 = 3**(1+3)
        assert exact_binom_mod(16, 5, 3, 3) == (1, 25)
        assert math.comb(16, 5) % 81 == 75 == 3 * 25

    def test_choose_zero(self):
        assert exact_binom_mod(912, 0, 7, 2) == (0, 1)

    def test_against_comb_sweep(self):
        # Both paths, at p**e within the table budget; p = 2 with e >= 3
        # has Wilson sign +1, every other case -1.
        cases = [(2, e) for e in range(1, 8)] + [(3, e) for e in range(1, 6)]
        cases += [(p, e) for p in (5, 7) for e in range(1, 4)] + [(7, 4)]
        for p, e in cases:
            pe = p**e
            assert pe <= engine._TABLE_BUDGET
            for a in range(100):
                for b in range(a + 1):
                    want = split_p(math.comb(a, b), p, pe)
                    assert exact_binom_mod(a, b, p, e) == want
                    assert engine._binom_loop(a, b, p, e) == want

    def test_large_symmetric(self):
        vu = exact_binom_mod(10**6, 10**6 - 3, 5, 4)
        assert vu == split_p(math.comb(10**6, 3), 5, 5**4)

    def test_table_path_against_loop(self):
        rng = random.Random(20250226)
        for _ in range(3000):
            p = rng.choice((2, 3, 5, 7, 11, 13, 127))
            e = rng.randrange(1, 15)
            while p**e > engine._TABLE_BUDGET:
                e -= 1
            a = rng.randrange(10**6)
            # Keep min(b, a - b) small so the loop stays cheap.
            k = rng.randrange(min(a, 3000) + 1)
            b = rng.choice((k, a - k))
            t = engine._unit_factorials(p, e)
            assert granville(a, b, p, e, t) == engine._binom_loop(a, b, p, e)
        for p, e in ((2, 14), (3, 8), (7, 4), (127, 2)):
            t = engine._unit_factorials(p, e)
            for a, b in _long_blocks(rng, p):
                assert granville(a, b, p, e, t) == engine._binom_loop(a, b, p, e)

    def test_over_budget_builds_no_table(self):
        for a, b, p, e in ((1009**2 + 12345, 17, 1009, 2), (1000020, 1000010, 1000003, 1)):
            assert p**e > engine._TABLE_BUDGET
            before = engine._unit_factorials.cache_info()
            vu = exact_binom_mod(a, b, p, e)
            assert engine._unit_factorials.cache_info() == before
            assert vu == split_p(math.comb(a, b), p, p**e)

    def test_table_cache_holds_a_mix_of_ten(self):
        # a round-robin over 10 (p, e) tables builds each once
        engine._unit_factorials.cache_clear()
        pairs = [(2, e) for e in range(1, 6)] + [(3, e) for e in range(1, 4)] + [(5, 1), (7, 1)]
        for _ in range(2):
            for p, e in pairs:
                exact_binom_mod(p**e + 1, 1, p, e)
        assert engine._unit_factorials.cache_info().misses == 10

    def test_over_loop_budget_raises(self):
        # checkpoints for p = 10**9 + 7 (v = 2**15) would take about 5.5 * 10**6
        # steps to set up
        with pytest.raises(TooLarge, match="loop steps"):
            exact_binom_mod(999999999, 500000000, 1000000007, 1)
        # checkpoints for (2097169, 2) would take about 8.4 * 10**6 steps to set up
        k = engine._LOOP_BUDGET + 1
        with pytest.raises(TooLarge, match="loop steps"):
            exact_binom_mod(3 * k, k, 2097169, 2)
        # once refused; checkpoints at e = 1 now answer it
        assert exact_binom_mod(3 * k, k, 1000003, 1) == (0, lucas_evaluate(3 * k, k, 1000003))

    @pytest.mark.parametrize(
        "p, e",
        [(16411, 1), (65537, 1)]
        + [(2, e) for e in range(15, 21)]
        + [(3, e) for e in range(9, 13)]
        + [(127, 2), (16381, 2)],
    )
    def test_checkpoints_against_comb_sweep(self, p, e):
        # Every b <= a < 300 reads T[x] at x < 300 only, so the sweep walks
        # a list of those reads, each taken once from the checkpoints.
        pe = p**e
        source = engine._checkpoints(p, e)
        t = [source[x] for x in range(300)]
        for a in range(300):
            for b in range(a + 1):
                assert granville(a, b, p, e, t) == split_p(math.comb(a, b), p, pe)

    def test_checkpoint_reads_against_prefix_products(self):
        rng = random.Random(11)
        for p, e in ((16411, 1), (2, 15), (2, 19), (3, 11), (5, 7), (127, 2), (1009, 2)):
            pe = p**e
            want, acc = [1], 1
            for k in range(1, pe):
                if k % p:
                    acc = acc * k % pe
                want.append(acc)
            source = engine._checkpoints(p, e)
            for x in [0, 1, p - 1, pe - p, pe - 1] + [rng.randrange(pe) for _ in range(300)]:
                assert source[x] == want[x], (p, e, x)

    def test_factorial_marks_against_prefix_products(self):
        # Each mark (k v)! mod p from shifted evaluation against the linear
        # sweep: chunked prefix products, 64 factors a chunk.  The marks
        # stop at K v, the multiple of v nearest (p - 1)/2.
        above = range(2**14 + 1, 2**14 + 2000)
        primes = [n for n in above if all(n % d for d in range(2, math.isqrt(n) + 1))]
        for p in primes + [65537, 999983, 1000003]:
            source = engine._Checkpoints(p, 1)
            v, half = source.step, (p - 1) // 2
            assert v & (v - 1) == 0 and v * v // 4 < half <= v * v
            K = (half + v // 2) // v
            assert abs(half - K * v) <= v // 2
            want, acc = [1], 1
            for top in range(v, K * v + 1, v):
                for j in range(top - v + 1, top + 1, 64):
                    acc = acc * math.prod(range(j, min(j + 64, top + 1))) % p
                want.append(acc)
            assert len(want) == K + 1
            assert source.marks == want, p
            assert source[p - 1] == p - 1, p  # Wilson

    @pytest.mark.parametrize("p", [16411, 65537, 84011])
    def test_e1_reads_every_x_against_prefix_products(self, p):
        # Reads up to (p - 1)/2 finish from the nearer mark; above it they
        # reflect through Wilson.  Every x < p is checked, so both sides
        # and x = (p - 1)/2, (p + 1)/2 and p - 1.  84011 (v = 256, K = 164)
        # runs the last doubling's extra shift, 16411 and 65537 do not.
        source = engine._Checkpoints(p, 1)
        assert (len(source.marks) - 1 > source.step // 2 + 1) == (p == 84011)
        want, acc = [1], 1
        for x in range(1, p):
            acc = acc * x % p
            want.append(acc)
        bad = [x for x in range(p) if source[x] != want[x]]
        assert not bad, (p, bad[:5])

    def test_checkpoints_against_loop(self):
        # 3000 seeded blocks, grouped by (p, e) so each source is built once
        rng = random.Random(20261018)
        cases = [(16411, 1), (65537, 1), (999983, 1), (2, 15), (2, 24), (3, 10), (3, 16)]
        cases += [(7, 5), (127, 2), (127, 3), (1009, 2), (16381, 2), (16411, 2), (65537, 2)]
        for i in range(3000):
            p, e = cases[i * len(cases) // 3000]
            a = rng.randrange(p ** (e + rng.randrange(4)))
            # Keep min(b, a - b) small so the loop stays cheap.
            k = rng.randrange(min(a, 3000) + 1)
            b = rng.choice((k, a - k))
            got = granville(a, b, p, e, engine._checkpoints(p, e))
            assert got == engine._binom_loop(a, b, p, e), (a, b, p, e)
        for p, e in ((127, 3), (16411, 2), (65537, 1)):
            for a, b in _long_blocks(rng, p):
                got = granville(a, b, p, e, engine._checkpoints(p, e))
                assert got == engine._binom_loop(a, b, p, e), (a, b, p, e)

    def test_path_choice_and_bounded_caches(self):
        engine._checkpoint_cache.clear()
        before = engine._unit_factorials.cache_info()
        # tiny blocks at huge e, and blocks below the set-up cost, take the loop
        for a, b, p, e in ((3**50 + 7, 3, 3, 50), (40000, 20000, 16411, 2)):
            assert exact_binom_mod(a, b, p, e) == split_p(math.comb(a, b), p, p**e)
        assert not engine._checkpoint_cache
        # large blocks build checkpoints, and only the last few are kept
        for a, b, p, e in (
            (1009**2 - 5, 500000, 1009, 2), (16411**2, 100000, 16411, 1),
            (2**21 + 77, 2**20, 2, 20), (3**14, 3**13, 3, 10),
            (16411**2 - 5, 10**6, 16411, 2),
        ):
            assert exact_binom_mod(a, b, p, e) == granville(
                a, b, p, e, engine._Checkpoints(p, e)
            )
            assert (p, e) in engine._checkpoint_cache
        assert 1 <= engine._CHECKPOINTS_KEPT <= 4
        assert len(engine._checkpoint_cache) == engine._CHECKPOINTS_KEPT
        assert engine._unit_factorials.cache_info() == before

    def test_errors(self):
        with pytest.raises(OrderViolation):
            exact_binom_mod(3, 4, 5, 2)
        with pytest.raises(NotPrime):
            exact_binom_mod(5, 2, 6, 2)
        with pytest.raises(ValueError):
            exact_binom_mod(5, 2, 3, 0)


class TestTheoremFactors:
    def test_worked_factor_blocks(self):
        e = decompose(A3, B3, 3)
        factors = theorem_factors(e, 3)
        blocks = [
            (_text(f.num_a), _text(f.num_b), _text(f.den_a) if f.den_a else None)
            for f in factors
        ]
        assert blocks == [
            ("122", "101", None),
            ("221", "011", "22"),
            ("211", "110", "21"),
            ("1121", "1012", "11"),
            ("12120", "01202", "121"),
            ("21202", "12021", "2120"),
        ]

    def test_worked_factor_values(self):
        e = decompose(A3, B3, 3)
        factors = theorem_factors(e, 3)
        nums = [f.num_value.value_mod() for f in factors]
        dens = [f.den_value.value_mod() if f.den_value else None for f in factors]
        assert nums == [8, 14, 23, 30, 45, 90]
        assert dens == [None, 8, 8, 4, 75, 207]
        assert [f.value.valuation for f in factors] == [0, 0, 0, 1, 1, 0]

    def test_base_case_single_factor(self):
        e = decompose(10, 5, 2)
        factors = theorem_factors(e, 2)
        assert len(factors) == 1
        f = factors[0]
        assert (_text(f.num_a), _text(f.num_b)) == ("1010", "0101")
        assert f.den_a is None

    def test_width_one_has_empty_denominators(self):
        e = decompose(10, 5, 2)
        factors = theorem_factors(e, 1)
        assert [(_text(f.num_a), _text(f.num_b)) for f in factors] == [
            ("10", "01"),
            ("10", "01"),
        ]
        assert all(f.den_a is None for f in factors)
        prod = 1
        for f in factors:
            prod *= f.value.value_mod()
        assert prod % 2**3 == 252 % 2**3  # mod p**(n+m) with n=1, m=2

    def test_quotient_valuation_is_pair_valuation(self):
        e = decompose(A3, B3, 3)
        for n in (1, 2, 3, 4):
            factors = theorem_factors(e, n)
            lead, rest = factors[0], factors[1:]
            assert lead.value.valuation == block_valuation(e, lead.index, n)
            for f in rest:
                assert f.value.valuation == block_valuation(e, f.index, 1)


class TestTheoremEvaluate:
    def test_worked_example(self):
        res, tr = theorem_evaluate(A3, B3, 3, 5)
        assert res == 18
        assert (tr.m, tr.n) == (2, 3)
        assert tr.residue == 18

    def test_high_valuation_short_circuit(self):
        res, tr = theorem_evaluate(A3, B3, 3, 2)  # m = 2 >= N
        assert res == 0
        assert tr.factors == ()
        assert tr.m == 2

    def test_binary_base_case(self):
        res, tr = theorem_evaluate(10, 5, 2, 4)
        assert res == 252 % 16 == 12
        assert (tr.m, tr.n) == (2, 2)
        assert len(tr.factors) == 1

    def test_base_case_with_zero_padding(self):
        # a single group but a width-3 product: leading zeros pad the block
        res, tr = theorem_evaluate(2, 1, 2, 4)
        assert res == 2
        assert (tr.m, tr.n) == (1, 3)
        assert len(tr.factors) == 1
        f = tr.factors[0]
        assert (_text(f.num_a), _text(f.num_b)) == ("0010", "0001")

    def test_trace_false_matches(self):
        for N in range(1, 7):
            full, tr = theorem_evaluate(A8, B8, 3, N)
            fast, none = theorem_evaluate(A8, B8, 3, N, trace=False)
            assert full == fast
            assert none is None
            assert tr.residue == full

    def test_expansion_reuse(self):
        e = decompose(A3, B3, 3)
        assert theorem_evaluate(A3, B3, 3, 5, expansion=e)[0] == 18

    def test_errors(self):
        with pytest.raises(OrderViolation):
            theorem_evaluate(5, 6, 3, 2)
        with pytest.raises(NotPrime):
            theorem_evaluate(6, 5, 4, 2)
        with pytest.raises(ValueError):
            theorem_evaluate(6, 5, 3, 0)

    def test_against_exact_sweep(self):
        for p, N in ((2, 5), (3, 3), (5, 2)):
            mod = p**N
            for a in range(90):
                for b in range(a + 1):
                    want = math.comb(a, b) % mod
                    assert theorem_evaluate(a, b, p, N, trace=False)[0] == want


class TestLucas:
    def test_digit_blocked(self):
        assert lucas_evaluate(7, 3, 5) == 0  # 35 is divisible by 5

    def test_trivial(self):
        assert lucas_evaluate(38360, 0, 7) == 1
        assert lucas_evaluate(38360, 38360, 7) == 1

    def test_against_exact(self):
        for p in (2, 3, 5, 7):
            for a in range(p**3 + 5):
                for b in range(0, a + 1, 3):
                    assert lucas_evaluate(a, b, p) == math.comb(a, b) % p


class TestDwBracket:
    """Brackets of two digit windows of equal length, given by value."""

    def test_recursive_descent(self):
        # 12021 over 20211
        v, unit = _dw_bracket(int("12021", 3), int("20211", 3), 5, 3, 5)
        inner = exact_binom_mod(int("2021", 3), int("0211", 3), 3, 5)
        assert (v, unit) == (inner[0] + 1, inner[1])

    def test_denominator_path(self):
        # 0211 over 2111
        vu = _dw_bracket(int("0211", 3), int("2111", 3), 4, 3, 5)
        inner = exact_binom_mod(int("211", 3), int("111", 3), 3, 5)
        assert vu == (inner[0] + 1, inner[1])

    def test_single_digits(self):
        assert _dw_bracket(4, 2, 1, 5, 2) == (0, 6)
        assert _dw_bracket(1, 3, 1, 5, 2) == (1, 1)

    def test_equal_blocks_take_binomial_branch(self):
        assert _dw_bracket(int("102", 3), int("102", 3), 3, 3, 4) == (0, 1)

    def test_long_descent(self):
        # 1200 stripped top digits leave the bare factor p**1200.
        assert _dw_bracket(3**1199, 3**1200 - 1, 1200, 3, 1200) == (1200, 1)
        assert davis_webb_evaluate(3**1200, 3**1200 - 1, 3, 1201)[0] == 3**1200


class TestDavisWebbEvaluate:
    def test_worked_example(self):
        res, tr = davis_webb_evaluate(A8, B8, 3, 5)
        assert res == 117
        assert tr.m == 2

    def test_trivial_b_zero(self):
        assert davis_webb_evaluate(38360, 0, 5, 3)[0] == 1
        assert davis_webb_evaluate(0, 0, 5, 3)[0] == 1

    def test_equal_pair(self):
        assert davis_webb_evaluate(987654, 987654, 3, 4)[0] == 1

    def test_short_number_padding(self):
        # fewer digits than the window width
        assert davis_webb_evaluate(10, 5, 2, 6)[0] == 252 % 64

    def test_trace_false_matches(self):
        for N in range(1, 7):
            full, _ = davis_webb_evaluate(A8, B8, 3, N)
            fast, none = davis_webb_evaluate(A8, B8, 3, N, trace=False)
            assert full == fast and none is None

    def test_against_exact_sweep(self):
        for p, N in ((2, 4), (3, 3), (5, 2)):
            mod = p**N
            for a in range(90):
                for b in range(a + 1):
                    want = math.comb(a, b) % mod
                    assert davis_webb_evaluate(a, b, p, N, trace=False)[0] == want

    def test_methods_and_oracle_agree(self):
        res_t, _ = theorem_evaluate(A8, B8, 3, 5, trace=False)
        res_d, _ = davis_webb_evaluate(A8, B8, 3, 5, trace=False)
        assert res_t == res_d == binom_exact(A8, B8) % 243 == 117


class TestTraceFormatting:
    def test_worked_text_table(self):
        _, tr = theorem_evaluate(A3, B3, 3, 5)
        text = format_trace_text(tr)
        assert text == "\n".join(
            [
                "method=theorem p=3 N=5 (m=2, n=3)",
                "  C(122/101) = 8",
                "  C(221/011)/C(22/01) = 14/8",
                "  C(211/110)/C(21/11) = 23/8",
                "  C(1121/1012)/C(11/10) = 30/4 = 3^1 10/4",
                "  C(12120/01202)/C(121/012) = 45/75 = 3^2 5/3^1 25",
                "  C(21202/12021)/C(2120/1202) = 90/207 = 3^2 10/3^2 23",
                "  combined: 3^2 * 2 (unit mod 27)",
                "  result: 18 (mod 243)",
            ]
        )

    def test_records(self):
        _, tr = theorem_evaluate(A3, B3, 3, 5)
        lines = format_trace_records(tr)
        assert lines[0] == "index=5 num_block=122/101 den_block=- val=0 unit=8 prec=3"
        assert lines[-1] == "result=18 modulus=243"
        assert len(lines) == 7
        for line in lines[:-1]:
            keys = [kv.split("=")[0] for kv in line.split()]
            assert keys == ["index", "num_block", "den_block", "val", "unit", "prec"]

    def test_text_past_z_is_a_value_error(self):
        # a base-101 trace has digit 100 in its blocks; this was an IndexError
        _, tr = theorem_evaluate(100, 50, 101, 2)
        with pytest.raises(ValueError, match="digit 100 "):
            format_trace_text(tr)

    def test_degenerate_trace_text(self):
        _, tr = theorem_evaluate(A3, B3, 3, 2)
        text = format_trace_text(tr)
        assert "residue is 0" in text
        assert "result: 0 (mod 9)" in text

    def test_davis_webb_text_renders_mod_pn(self):
        _, tr = davis_webb_evaluate(A8, B8, 3, 5)
        assert format_trace_text(tr) == "\n".join(
            [
                "method=davis-webb p=3 N=5 (m=2, n=5)",
                "  <21202/12021> = 90 = 3^2 91",
                "  <12021/20211>/<1202/2021> = 117/9 = 3^2 94/3^2 82",
                "  <20211/02111>/<2021/0211> = 66/39 = 3^1 184/3^1 94",
                "  <02112/21110>/<0211/2111> = 213/240 = 3^1 152/3^1 242",
                "  combined: 3^2 * 13 (unit mod 243)",
                "  result: 117 (mod 243)",
            ]
        )

    def test_davis_webb_records_golden(self):
        _, tr = davis_webb_evaluate(A8, B8, 3, 5)
        assert format_trace_records(tr) == [
            "index=3 num_block=21202/12021 den_block=- val=2 unit=91 prec=5",
            "index=2 num_block=12021/20211 den_block=1202/2021 val=0 unit=13 prec=5",
            "index=1 num_block=20211/02111 den_block=2021/0211 val=0 unit=64 prec=5",
            "index=0 num_block=02112/21110 den_block=0211/2111 val=0 unit=91 prec=5",
            "result=117 modulus=243",
        ]

    def test_davis_webb_high_valuation_lists_factors(self):
        # Unlike the theorem path, m >= N still walks every window.
        res, tr = davis_webb_evaluate(A8, B8, 3, 2)
        assert res == tr.residue == 0
        assert format_trace_text(tr) == "\n".join(
            [
                "method=davis-webb p=3 N=2 (m=2, n=2)",
                "  <21/12> = 3 = 3^1 7",
                "  <12/20>/<1/2> = 3/3 = 3^1 1/3^1 1",
                "  <20/02>/<2/0> = 6/1 = 3^1 5/1",
                "  <02/21>/<0/2> = 6/3 = 3^1 2/3^1 1",
                "  <21/11>/<2/1> = 8/2",
                "  <11/11>/<1/1> = 1/1",
                "  <12/10>/<1/1> = 1/1",
                "  combined: 3^2 * 1 (unit mod 9)",
                "  result: 0 (mod 9)",
            ]
        )
        assert format_trace_records(tr)[-1] == "result=0 modulus=9"
        assert len(tr.factors) == 7


def _low_valuation_pair(rng, p, digits, borrows):
    """A >= B with ``digits`` base-p digits, B's digits at most A's but at
    ``borrows`` positions, where A - B borrows."""
    ad = [rng.randrange(p) for _ in range(digits - 1)]
    bd = [rng.randrange(d + 1) for d in ad]
    for j in rng.sample(range(digits - 1), borrows):
        ad[j], bd[j] = 0, p - 1
    return from_digits(ad + [1], p), from_digits(bd + [0], p)


def _windows(f):
    return [w for w in (f.num_a, f.num_b, f.den_a, f.den_b) if w is not None]


def _assert_windows_are_blocks(tr, e, width):
    assert tr.factors
    for f in tr.factors:
        assert (f.num_a, f.num_b) == block(e, f.index, width), f.index
        if f.den_a is not None:
            assert (f.den_a, f.den_b) == block(e, f.index + 1, width - 1), f.index


class TestTraceWindows:
    """A traced walk slices its digit windows itself and shares one tuple
    per distinct window; the formatters read each distinct window's text
    once."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_windows_are_blocks(self, p):
        rng = random.Random(p)
        # widths 1 and 4 over 60 digits, and over 3, which pads the top block
        for digits, borrows in ((60, 2), (3, 1)):
            for _ in range(5):
                A, B = _low_valuation_pair(rng, p, digits, borrows)
                e = decompose(A, B, p)
                for n in (1, 4):
                    N = pseudo_valuation(e) + n
                    _assert_windows_are_blocks(theorem_evaluate(A, B, p, N)[1], e, n)
                    a, b = _digit_pair(A, B, p, N)
                    dw = PseudoExpansion(p, a, b, tuple(range(len(a) + 1)))
                    _assert_windows_are_blocks(davis_webb_evaluate(A, B, p, N)[1], dw, N)

    def test_equal_digits_show_equal_text_at_each_base(self):
        # the same digit tuples at p = 3 and p = 5: the traces print the
        # same windows, and each factor's values are its own base's
        ad, bd = [2, 0, 1, 1, 2, 0, 2, 1], [1, 0, 2, 0, 1, 0, 2, 0]
        n, traces = 3, {}
        for p in (3, 5):
            A, B = from_digits(ad, p), from_digits(bd, p)
            traces[p] = theorem_evaluate(A, B, p, pseudo_valuation(decompose(A, B, p)) + n)[1]
        windows = {
            p: [line.split(" val=")[0] for line in format_trace_records(tr)[:-1]]
            for p, tr in traces.items()
        }
        assert len(windows[3]) > 1 and windows[3] == windows[5]
        for p, tr in traces.items():
            for f in tr.factors:
                sides = [(f.num_value, f.num_a, f.num_b), (f.den_value, f.den_a, f.den_b)]
                for value, a, b in sides:
                    if value is not None:
                        c = math.comb(from_digits(a, p), from_digits(b, p))
                        assert (value.p, value.valuation, value.unit) == (p, *split_p(c, p, p**n))
        units = [[f.value.unit for f in tr.factors] for tr in traces.values()]
        assert units[0] != units[1]

    def test_equal_windows_are_one_instance_formatted_once(self, monkeypatch):
        rng = random.Random(7)
        A, B = _low_valuation_pair(rng, 3, 400, 2)
        for tr in (theorem_evaluate(A, B, 3, 8)[1], davis_webb_evaluate(A, B, 3, 5)[1]):
            shown = [w for f in tr.factors for w in _windows(f)]
            distinct = {w: w for w in shown}
            assert all(distinct[w] is w for w in shown)
            assert 4 * len(distinct) < len(shown)  # the windows do repeat
            texts = []
            monkeypatch.setattr(engine, "_text", lambda d, texts=texts: texts.append(d) or _text(d))
            format_trace_text(tr)
            format_trace_records(tr)
            assert Counter(texts) == Counter({d: 2 for d in distinct})

    def test_long_trace_formats_as_plain_text(self, monkeypatch):
        # A 3000-digit low-valuation pair: thousands of factors over a few
        # hundred distinct windows, formatted byte for byte as if every
        # window's text came from _text on its own.
        rng = random.Random(3000)
        A, B = _low_valuation_pair(rng, 3, 3000, 3)
        traces = [theorem_evaluate(A, B, 3, 9)[1], davis_webb_evaluate(A, B, 3, 6)[1]]
        assert all(len(tr.factors) > 2000 for tr in traces)
        shared = [(format_trace_text(tr), format_trace_records(tr)) for tr in traces]
        for tr, (_, records) in zip(traces, shared):
            for f, line in zip(tr.factors, records):
                den = f"{_text(f.den_a)}/{_text(f.den_b)}" if f.den_a is not None else "-"
                num = f"{_text(f.num_a)}/{_text(f.num_b)}"
                assert line.startswith(f"index={f.index} num_block={num} den_block={den} ")
        monkeypatch.setattr(engine, "cache", lambda f: f)  # no text memo
        assert shared == [(format_trace_text(tr), format_trace_records(tr)) for tr in traces]


@pytest.fixture
def decompose_calls(monkeypatch):
    """Record every engine.decompose call as (A, B, p, expansion); radix
    conversion outside decompose (the Davis-Webb full path) raises."""
    calls = []

    def recording(A, B, p):
        e = decompose(A, B, p)
        calls.append((A, B, p, e))
        return e

    def no_conversion(n, base):
        raise AssertionError("the full path converted A or B")

    monkeypatch.setattr(engine, "decompose", recording)
    monkeypatch.setattr(engine, "_digits_of", no_conversion)
    monkeypatch.setattr(engine, "_digit_pair", no_conversion)
    return calls


class TestEarlyExit:
    """Untraced calls with >= N borrows in the low 8N digits return 0
    from a segmentation of that window alone."""

    def test_gate_exhaustive_inside_window(self):
        step = 0
        for p in (2, 3, 5):
            for a in range(201):
                for b in range(a + 1):
                    m = kummer_valuation(a, b, p)
                    for N in range(1, 9):
                        assert engine._low_borrows_reach(a, b, p, N) == (m >= N)
                    step += 1
                    if step % 11:
                        continue
                    N = step // 11 % 8 + 1
                    t = theorem_evaluate(a, b, p, N)[0]
                    assert theorem_evaluate(a, b, p, N, trace=False) == (t, None)
                    d = davis_webb_evaluate(a, b, p, N)[0]
                    assert davis_webb_evaluate(a, b, p, N, trace=False) == (d, None)

    @pytest.mark.parametrize("p", [2, 3])
    def test_random_pair_converts_only_the_window(self, p, decompose_calls):
        rng = random.Random(7)
        A = rng.randrange(p ** (10**5 - 1), p ** 10**5)
        B = rng.randrange(A + 1)
        N = 8
        for evaluate in (theorem_evaluate, davis_webb_evaluate):
            decompose_calls.clear()
            assert evaluate(A, B, p, N, trace=False) == (0, None)
            assert len(decompose_calls) == 1
            a, b, q, e = decompose_calls[0]
            assert q == p and b <= a < p ** (8 * N + 1)
            assert pseudo_valuation(e) >= N

    def test_random_pair_compare_agrees(self, capsys, decompose_calls):
        rng = random.Random(7)
        A = rng.randrange(3 ** (10**5 - 1), 3 ** 10**5)
        B = rng.randrange(A + 1)
        code = cli.main(["compare", "--prime", "3", "-N", "8", "--radix", "16",
                         f"{A:x}", f"{B:x}"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[-1] == "AGREE"
        assert len(decompose_calls) == 2  # one window per evaluator

    def test_low_valuation_takes_the_full_path(self, monkeypatch):
        rng = random.Random(11)
        p, N = 3, 8
        ad = [rng.randrange(p) for _ in range(4999)] + [1]
        A = from_digits(ad, p)
        B = from_digits([rng.randrange(d + 1) for d in ad], p)  # m = 0
        calls = []
        monkeypatch.setattr(engine, "decompose", lambda *a: calls.append(a) or decompose(*a))
        res = theorem_evaluate(A, B, p, N, trace=False)
        assert calls[1:] == [(A, B, p)] and calls[0][0] < p ** (8 * N + 1)
        assert res == (theorem_evaluate(A, B, p, N)[0], None)
        res = davis_webb_evaluate(A, B, p, N, trace=False)
        assert res == (davis_webb_evaluate(A, B, p, N)[0], None)

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("N", [1, 4, 9])
    def test_borrows_just_above_the_window(self, p, N):
        # Digits p-1 over 0 borrow nothing; 0 over 1 starts a borrow
        # chain that the digit p-1 over 0 above it ends.  A chain of N
        # borrows from digit 8N - inside up fires the exit only when
        # all N of them lie in the low 8N digits.
        for inside in (0, N - 1, N):
            start = 8 * N - inside
            ad = [p - 1] * start + [0] * N + [p - 1]
            bd = [0] * start + [1] * N + [0]
            A, B = from_digits(ad, p), from_digits(bd, p)
            assert engine._low_borrows_reach(A, B, p, N) == (inside == N)
            assert theorem_evaluate(A, B, p, N, trace=False) == (0, None)
            assert davis_webb_evaluate(A, B, p, N, trace=False) == (0, None)

    def test_window_no_wider_than_A(self, decompose_calls):
        # At N = 50000 a window of 8N digits on a 4-digit pair costs over
        # 100x the full path; the window stops at A's bit length.
        A, B = parse_natural("2101", 3), parse_natural("1021", 3)
        want = theorem_evaluate(A, B, 3, 50000)[0]
        assert theorem_evaluate(A, B, 3, 50000, trace=False) == (want, None)
        assert len(decompose_calls[0][3].a_digits) <= A.bit_length() + 1


def test_benchmark_hooks_stay_live(monkeypatch):
    # The benchmark wraps engine.exact_binom_mod and reads the caches of
    # _binom_vu and _dw_bracket: each block miss must reach the module
    # global once, and Davis-Webb must go through its bracket cache.
    calls = []
    real = engine.exact_binom_mod
    monkeypatch.setattr(engine, "exact_binom_mod", lambda *a: calls.append(a) or real(*a))
    engine._binom_vu.cache_clear()
    engine._dw_bracket.cache_clear()
    rng = random.Random(5)
    p, N = 3, 8
    ad = [rng.randrange(p) for _ in range(300)] + [1]
    A = from_digits(ad, p)
    B = from_digits([rng.randrange(d + 1) for d in ad], p)  # m = 0
    residue = theorem_evaluate(A, B, p, N, trace=False)[0]
    # the table is at hand, so the untraced call reads unit factorials
    # and evaluates no block binomial
    assert engine._binom_vu.cache_info().misses == 0 == len(calls)
    assert theorem_evaluate(A, B, p, N)[0] == residue
    misses = engine._binom_vu.cache_info().misses
    assert misses == len(calls) > 0
    davis_webb_evaluate(A, B, p, N, trace=False)
    assert engine._dw_bracket.cache_info().misses > 0


def test_group_quotients_wait_for_a_source():
    # Blocks at (999983, 2) with B = 1 take one loop step, far below the
    # checkpoints' set-up, so none is built and every position takes its
    # two block values.
    engine._checkpoint_cache.clear()
    p, N = 999983, 2
    A = from_digits([5, 999982, 3, 7], p)  # m = 0 with B = 1
    assert theorem_evaluate(A, 1, p, N, trace=False) == (A % p**N, None)
    assert not engine._checkpoint_cache


@pytest.mark.skipif(not __debug__, reason="the check is an assertion")
@pytest.mark.parametrize("trace", [True, False])
def test_walk_valuation_is_checked(monkeypatch, trace):
    # Traces and the block-walk fallback check the walk's valuation
    # against m, as the Granville pass checks its own borrow count.
    real = engine._walk
    monkeypatch.setattr(engine, "_walk", lambda *a: (real(*a)[0] + 1, real(*a)[1]))
    engine._checkpoint_cache.clear()
    p = 999983
    A = from_digits([5, 999982, 3, 7], p)
    with pytest.raises(AssertionError, match="borrow count"):
        theorem_evaluate(A, 1, p, 2, trace=trace)


def test_passed_expansion_reads_checkpoints(monkeypatch):
    # An expansion passed in takes the full path; with m = 1 < N = 11 the
    # pass reads unit factorials at (3, 10), above the table budget, from
    # checkpoints built for it, and evaluates no block binomial.
    calls = []
    real = engine.exact_binom_mod
    monkeypatch.setattr(engine, "exact_binom_mod", lambda *a: calls.append(a) or real(*a))
    engine._checkpoint_cache.clear()
    engine._binom_vu.cache_clear()
    rng = random.Random(10)
    p, N = 3, 11
    ad = [rng.randrange(p) for _ in range(400)] + [2, 0, 1]
    bd = [rng.randrange(d + 1) for d in ad[:400]] + [0, 1, 0]  # one borrow
    A, B = from_digits(ad, p), from_digits(bd, p)
    e = decompose(A, B, p)
    assert pseudo_valuation(e) == 1 and p ** (N - 1) > engine._TABLE_BUDGET
    residue, tr = theorem_evaluate(A, B, p, N, expansion=e, trace=False)
    assert tr is None and not calls
    assert list(engine._checkpoint_cache) == [(p, N - 1)]
    assert residue == theorem_evaluate(A, B, p, N, expansion=e)[0]
    assert residue == davis_webb_evaluate(A, B, p, N)[0]
