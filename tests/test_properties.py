"""Invariants that should hold on arbitrary inputs, not just worked examples.

Digit-level properties run under hypothesis (uniformly cheap).  Properties
that evaluate block binomials use seeded random sweeps instead: the block
primitive costs O(min(b, a-b)), so unbounded random inputs can contain
pathologically long digit groups, and a fixed seed keeps the runtime
reproducible.
"""

import math
import random

from helpers import from_digits, width_factors
from hypothesis import given, settings
from hypothesis import strategies as st

from ppbinom import engine
from ppbinom.digits import to_base_p
from ppbinom.engine import (
    _binom_vu,
    _dw_bracket,
    davis_webb_evaluate,
    exact_binom_mod,
    lucas_evaluate,
    theorem_evaluate,
)
from ppbinom.oracle import kummer_valuation
from ppbinom.pseudo import block, block_valuation, decompose, pseudo_valuation

PRIMES = (2, 3, 5, 7, 101)

naturals = st.integers(min_value=0, max_value=10**60)
prime_st = st.sampled_from(PRIMES)


@st.composite
def ordered_pairs(draw, max_value=10**60):
    a = draw(st.integers(min_value=0, max_value=max_value))
    b = draw(st.integers(min_value=0, max_value=a))
    return a, b


@given(naturals, prime_st)
def test_round_trip(n, p):
    assert from_digits(to_base_p(n, p), p) == n


def test_round_trip_ten_thousand_digits():
    rng = random.Random(20260810)
    for p in PRIMES:
        n = rng.randrange(p**9999, p**10000)
        s = to_base_p(n, p)
        assert len(s) == 10000
        assert from_digits(s, p) == n


def count_carries(x, y, p):
    carries = 0
    carry = 0
    while x or y or carry:
        s = x % p + y % p + carry
        carry = 1 if s >= p else 0
        carries += carry
        x //= p
        y //= p
    return carries


@given(ordered_pairs(), prime_st)
def test_borrow_carry_duality(pair, p):
    a, b = pair
    assert kummer_valuation(a, b, p) == count_carries(a - b, b, p)


@given(ordered_pairs(), prime_st)
def test_pair_local_law_and_reconstruction(pair, p):
    a, b = pair
    e = decompose(a, b, p)
    assert e.a_digits == to_base_p(a, p)
    joined_a = []
    joined_b = []
    for i in range(e.num_pairs):
        ga, gb = block(e, i, 1)
        va, vb = from_digits(ga, p), from_digits(gb, p)
        assert va >= vb
        w = 1
        for _ in range(len(ga) - 1):
            w *= p
            assert va % w < vb % w
        joined_a.extend(ga)
        joined_b.extend(gb)
    assert tuple(joined_a) == e.a_digits
    assert tuple(joined_b) == e.b_digits


@given(ordered_pairs(), prime_st)
def test_valuation_three_ways(pair, p):
    a, b = pair
    m = pseudo_valuation(decompose(a, b, p))
    assert m == kummer_valuation(a, b, p)
    assert m == count_carries(a - b, b, p)


@settings(deadline=None)
@given(ordered_pairs(max_value=3000), st.sampled_from((2, 3, 5)),
       st.integers(min_value=1, max_value=5))
def test_exact_agreement_medium_range(pair, p, N):
    a, b = pair
    want = math.comb(a, b) % p**N
    assert theorem_evaluate(a, b, p, N, trace=False)[0] == want
    assert davis_webb_evaluate(a, b, p, N, trace=False)[0] == want


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=400), st.sampled_from((2, 3, 5, 7)))
def test_lucas_matches_exact(a, p):
    for b in range(0, a + 1, 7):
        assert lucas_evaluate(a, b, p) == math.comb(a, b) % p


def test_methods_agree_random_pairs():
    rng = random.Random(1234)
    for _ in range(300):
        p = rng.choice((2, 3, 5, 7))
        a = rng.randrange(10**40)
        b = rng.randrange(a + 1)
        N = rng.randrange(1, 7)
        r1, _ = theorem_evaluate(a, b, p, N, trace=False)
        r2, _ = davis_webb_evaluate(a, b, p, N, trace=False)
        assert r1 == r2, (p, a, b, N)


def test_methods_agree_big_prime():
    # blocks for a big prime stay desk-sized only for small inputs
    rng = random.Random(4321)
    for _ in range(150):
        a = rng.randrange(101**3)
        b = rng.randrange(a + 1)
        N = rng.randrange(1, 3)
        r1, _ = theorem_evaluate(a, b, 101, N, trace=False)
        r2, _ = davis_webb_evaluate(a, b, 101, N, trace=False)
        assert r1 == r2, (a, b, N)


def test_metamorphic_precision():
    rng = random.Random(777)
    for _ in range(200):
        p = rng.choice((2, 3, 5, 7))
        a = rng.randrange(10**30)
        b = rng.randrange(a + 1)
        N = rng.randrange(1, 5)
        lo, _ = theorem_evaluate(a, b, p, N, trace=False)
        hi, _ = theorem_evaluate(a, b, p, N + 2, trace=False)
        assert hi % p**N == lo, (p, a, b, N)


def test_factor_valuations_lemma_random():
    # the traced theorem at N = n + m has no short-circuit, so block values
    # are capped by keeping the whole number small: worst block <= p**digits
    rng = random.Random(2718)
    digit_cap = {2: 18, 3: 11, 5: 8}
    for _ in range(300):
        p = rng.choice((2, 3, 5))
        a = rng.randrange(p ** digit_cap[p])
        b = rng.randrange(a + 1)
        n = rng.randrange(1, 5)
        e = decompose(a, b, p)
        factors = width_factors(a, b, p, n)
        lead = factors[0]
        assert lead.value.valuation == block_valuation(e, lead.index, n)
        total = lead.value.valuation
        for f in factors[1:]:
            assert f.value.valuation == block_valuation(e, f.index, 1)
            total += f.value.valuation
        assert total == pseudo_valuation(e)


def test_unit_depends_only_on_residues():
    # recompute every factor at higher precision, reduce, same combined unit
    rng = random.Random(31415)
    digit_cap = {2: 16, 3: 10, 5: 7}
    for _ in range(120):
        p = rng.choice((2, 3, 5))
        a = rng.randrange(p ** digit_cap[p])
        b = rng.randrange(a + 1)
        n = rng.randrange(1, 4)
        factors = width_factors(a, b, p, n)
        pe = p**n
        combined = 1
        redone = 1
        for f in factors:
            combined = combined * f.value.unit % pe
            hv, hu = exact_binom_mod(from_digits(f.num_a, p), from_digits(f.num_b, p), p, n + 3)
            if f.den_a is not None:
                dv, du = exact_binom_mod(from_digits(f.den_a, p), from_digits(f.den_b, p), p, n + 3)
                hv, hu = hv - dv, hu * pow(du, -1, p ** (n + 3)) % p ** (n + 3)
            assert hv == f.value.valuation
            assert hu % pe == f.value.unit
            redone = redone * (hu % pe) % pe
        assert redone == combined


def test_trace_m_and_unit_are_the_factor_product():
    # p**m * unit is the product of the listed factor values, for both
    # methods; only the theorem path's m >= N short-circuit lists none
    rng = random.Random(2718)
    cases = [(a, b, p, N) for p in (2, 3) for a in range(40) for b in range(a + 1)
             for N in (1, 3)]
    for _ in range(150):
        p = rng.choice((2, 3, 5, 7))
        a = rng.randrange(10**25)
        cases.append((a, rng.randrange(a + 1), p, rng.randrange(1, 7)))
    for a, b, p, N in cases:
        for evaluate in (theorem_evaluate, davis_webb_evaluate):
            res, tr = evaluate(a, b, p, N)
            assert res == tr.residue
            if not tr.factors:
                assert tr.method == "theorem" and tr.m >= N and res == 0
                continue
            assert {f.value.precision for f in tr.factors} == {tr.n}
            v, unit = 0, 1
            for f in tr.factors:
                v += f.value.valuation
                unit = unit * f.value.unit % p**tr.n
            assert (v, unit) == (tr.m, tr.unit)
            assert res == (0 if tr.m >= N else p**tr.m * tr.unit % p**N)


def test_davis_webb_trace_quotients_are_integral():
    # building traces must never hit a negative-valuation quotient
    rng = random.Random(97)
    for _ in range(200):
        p = rng.choice((2, 3, 5, 7))
        a = rng.randrange(10**30)
        b = rng.randrange(a + 1)
        N = rng.randrange(1, 6)
        res, tr = davis_webb_evaluate(a, b, p, N)
        assert res == tr.residue
        pe = p**N
        for f in tr.factors:
            if f.den_value is not None:
                num, den, q = f.num_value, f.den_value, f.value
                assert q.valuation + den.valuation == num.valuation
                assert q.unit * den.unit % pe == num.unit


def _assert_values_match_windows(factors, recompute):
    # the walk rolls its block values; the windows are block()'s
    for f in factors:
        num = f.num_value
        assert (num.valuation, num.unit) == recompute(f.num_a, f.num_b), f.index
        if f.den_a is not None:
            den = f.den_value
            assert (den.valuation, den.unit) == recompute(f.den_a, f.den_b), f.index


def _assert_rolled_values(a, b, p, N):
    _, tr = theorem_evaluate(a, b, p, N)
    n = tr.n
    _assert_values_match_windows(
        tr.factors, lambda x, y: _binom_vu(from_digits(x, p), from_digits(y, p), p, n)
    )
    _, tr = davis_webb_evaluate(a, b, p, N)
    _assert_values_match_windows(
        tr.factors, lambda x, y: _dw_bracket(from_digits(x, p), from_digits(y, p), len(x), p, N)
    )


def _long_group_pair(rng, p, length):
    # Digitwise-dominant low and high parts around a chunk where A reads
    # 10...0 and B reads 0...0x: every proper low prefix of the chunk
    # fails A >= B, so it is one group of `length` digits.
    low = rng.randrange(4)
    a_low = [rng.randrange(p) for _ in range(low)]
    b_low = [rng.randrange(d + 1) for d in a_low]
    a_high = [rng.randrange(p) for _ in range(rng.randrange(4))]
    b_high = [rng.randrange(d + 1) for d in a_high]
    a = a_low + [0] * (length - 1) + [1] + a_high
    b = b_low + [rng.randrange(1, p)] + [0] * (length - 1) + b_high
    return from_digits(a, p), from_digits(b, p)


def test_rolled_block_values_match_block_windows():
    # exhaustive small sweep, including expansions with fewer groups than
    # the width (padded top)
    for p in (2, 3, 5):
        for a in range(30):
            for b in range(a + 1):
                for N in range(1, 7):
                    _assert_rolled_values(a, b, p, N)
    rng = random.Random(8128)
    for _ in range(40):
        # long groups; DW windows stay on the table path at p = 2
        a, b = _long_group_pair(rng, 2, rng.randrange(10, 13))
        e = decompose(a, b, 2)
        assert max(e.bounds[i + 1] - e.bounds[i] for i in range(e.num_pairs)) >= 10
        _assert_rolled_values(a, b, 2, pseudo_valuation(e) + rng.randrange(1, 3))
    for _ in range(40):
        p = rng.choice((3, 5))
        a, b = _long_group_pair(rng, p, rng.randrange(10, 16))
        for n in range(1, 5):
            _assert_values_match_windows(
                width_factors(a, b, p, n),
                lambda x, y: _binom_vu(from_digits(x, p), from_digits(y, p), p, n),
            )


def _group_quotient(xa, xb, g, p, n, t):
    # C(X) / C(floor(X / p**g)) from the unit factorials of X's g lowest
    # levels: (x!)_p = s**floor(x/p**n) T[x mod p**n] mod p**n (Granville)
    pe = p**n
    s = 1 if p == 2 and n >= 3 else -1
    xc = xa - xb
    v, unit = 0, 1
    for _ in range(g):
        for x, power in ((xa, 1), (xb, -1), (xc, -1)):
            unit = unit * pow(s ** (x // pe) * t[x % pe], power, pe) % pe
        xa, xb, xc = xa // p, xb // p, xc // p
        v += xa - xb - xc
    return v, unit


def _assert_quotients_and_residues(a, b, e, n, t):
    # every traced lower factor is the group quotient read from t, and the
    # untraced walk, which reads those quotients, gives the traced residue
    p, N = e.p, pseudo_valuation(e) + n
    want, tr = theorem_evaluate(a, b, p, N)
    for f in tr.factors[1:]:
        k = len(f.den_a) if f.den_a is not None else 0
        xa, xb = from_digits(f.num_a, p), from_digits(f.num_b, p)
        got = _group_quotient(xa, xb, len(f.num_a) - k, p, n, t)
        assert got == (f.value.valuation, f.value.unit), (a, b, p, n, f.index)
    assert theorem_evaluate(a, b, p, N, trace=False) == (want, None)
    assert want == math.comb(a, b) % p**N


def test_traced_factors_are_group_quotients():
    # exhaustive over A < 250 and every width whose table fits the budget
    # (widths at or above the group count have no lower factor)
    for p in (2, 3, 5, 7):
        for a in range(250):
            for b in range(a + 1):
                e = decompose(a, b, p)
                for n in range(1, e.num_pairs):
                    if p**n > engine._TABLE_BUDGET:
                        break
                    _assert_quotients_and_residues(a, b, e, n, engine._unit_factorials(p, n))
    # checkpoint sources: blocks above the table budget, B near 0 or A
    # for math.comb
    rng = random.Random(1997)
    for p, n in ((2, 15), (16411, 2)):
        for _ in range(60):
            a = rng.randrange(p ** (n + rng.randrange(1, 4)))
            k = rng.randrange(min(a, 300) + 1)
            b = rng.choice((k, a - k))
            t = engine._checkpoints(p, n)  # at hand for the untraced walk
            _assert_quotients_and_residues(a, b, decompose(a, b, p), n, t)


def test_absorption_identities_exhaustive():
    # row[b] = C(a, b) exactly, built additively
    limit = 500
    prev = [1]
    for a in range(1, limit + 1):
        row = [1] + [prev[i] + prev[i + 1] for i in range(a - 1)] + [1]
        for b in range(1, a + 1):
            assert b * row[b] == a * prev[b - 1]
            assert (a - b) * row[b] == a * (prev[b] if b < a else 0)
        prev = row


def test_segmentation_regression_witness():
    # the grouping is a property of the pair: replacing B by 0 degrades
    # every group to a single digit
    a = int("1221121202", 3)
    b = int("1011012021", 3)
    grouped = decompose(a, b, 3)
    degraded = decompose(a, 0, 3)
    assert grouped.bounds != degraded.bounds
    assert degraded.bounds == tuple(range(len(degraded.a_digits) + 1))
