"""Evaluator correctness: valued units, block products, brackets, Lucas."""

import math
import random
from collections import Counter
from dataclasses import replace
from functools import lru_cache

import pytest
from helpers import from_digits, width_factors

from ppbinom import cli, engine
from ppbinom.digits import _borrows, _digit_pair, _text, parse_natural
from ppbinom.engine import (
    Factor,
    ValuedUnit,
    _dw_bracket,
    davis_webb_evaluate,
    exact_binom_mod,
    format_trace_records,
    format_trace_text,
    lucas_evaluate,
    theorem_evaluate,
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


def padded_pair(A, B, p, width):
    """A's and B's digits, both padded with zeros to at least width."""
    a, b = _digit_pair(A, B, p)
    pad = (0,) * (width - len(a))
    return a + pad, b + pad


def _batch_edge_pairs(rng, p, width, long_groups=False):
    """(positions, A, B) for seeded pairs whose walks at ``width`` have one
    position (zero-padded, and not), two, one batch - 1, one batch and one
    batch + 1 positions: a pair of g groups has g - width + 1 positions,
    or one when g < width.  Every digit is its own group (m = 0), or with
    ``long_groups`` every group spans 2 or 3 digits, borrowing out of all
    but its top digit, so the groups that straddle the batch edge change
    the denominator's digit count."""
    edge = engine._BATCH + width - 1
    for groups in (max(width // 2, 1), width, width + 1, edge - 1, edge, edge + 1):
        positions = max(groups - width + 1, 1)
        if not long_groups:
            ad = [rng.randrange(p) for _ in range(groups - 1)] + [1]
            bd = [rng.randrange(d + 1) for d in ad]
            yield positions, from_digits(ad, p), from_digits(bd, p)
            continue
        ad, bd = [], []
        for _ in range(groups):
            y = rng.randrange(1, p)  # the low digit borrows: x < y
            ad.append(rng.randrange(y))
            bd.append(y)
            for _ in range(rng.randrange(2)):  # a middle digit borrows: x <= y
                y = rng.randrange(p)
                ad.append(rng.randrange(y + 1))
                bd.append(y)
            x = rng.randrange(1, p)  # the top digit absorbs the borrow: x > y
            ad.append(x)
            bd.append(rng.randrange(x))
        yield positions, from_digits(ad, p), from_digits(bd, p)


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

    @pytest.mark.parametrize(
        "p, d, slot",
        [(1000003, 40, 8), (2**31 - 1, 7, 9), (2**31 - 1, 200, 9), (2**61 - 1, 30, 16)],
    )
    def test_shift_against_lagrange(self, p, d, slot):
        # seeded values of degree d shifted to n points, each against a
        # direct Lagrange evaluation, at slots of 8, 9 and 16 bytes
        assert engine._lane_bytes(p, (d + 1) * p * p) == slot
        rng = random.Random(p + d)
        inv_fact = [pow(math.factorial(i), -1, p) for i in range(d + 1)]
        # the basis polynomial of node i is prod_{j != i} (x - j) / (i - j)
        nodes = range(d + 1)
        inv_den = [pow(math.prod(i - j for j in nodes if j != i), -1, p) for i in nodes]
        for n in (1, d + 1, 3 * d):
            vals = [rng.randrange(p) for _ in range(d + 1)]
            a = rng.randrange(d + 1, p - n)  # a - d .. a + n - 1 all nonzero mod p
            want = []
            for x in range(a, a + n):
                left, right = [1], [1]  # prod_{j < i} (x - j), prod_{j > d - i} (x - j)
                for j in range(d + 1):
                    left.append(left[-1] * (x - j) % p)
                    right.append(right[-1] * (x - d + j) % p)
                terms = (f * left[i] * right[d - i] * inv_den[i] for i, f in enumerate(vals))
                want.append(sum(terms) % p)
            assert engine._shift(vals, a, n, p, inv_fact) == want, (p, d, n)

    def test_e1_read_past_eight_byte_slots(self, monkeypatch):
        # p = 268435399 (v = 2**14): the late doublings' slots take 9
        # bytes.  ((p - 1)/2)!**2 = (-1)**((p + 1)/2) mod p, from Wilson.
        p = 268435399
        widths = []
        unpack = engine._unpack
        monkeypatch.setattr(engine, "_unpack", lambda x, w, k: widths.append(w) or unpack(x, w, k))
        source = engine._Checkpoints(p, 1)
        assert max(widths) == 9
        half = source[(p - 1) // 2]
        assert half * half % p == (1 if (p + 1) // 2 % 2 == 0 else p - 1)

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


def granville_loop(a, b, p, e, t):
    """The Granville pass as plain loops over the padded digit tuples a,
    b: one borrow pass for C's digits and the two borrow counts, then the
    three windows rolled down from the top digit."""
    pe = p**e
    c, counts, borrow = [], [], 0
    for part in (slice(e - 1), slice(e - 1, None)):
        count = 0
        for x, y in zip(a[part], b[part]):
            d = x - y - borrow
            borrow = d < 0
            count += borrow
            c.append(d + p if borrow else d)
        counts.append(count)
    wa = wb = wc = 0
    num = den = 1
    for x, y, z in zip(reversed(a), reversed(b), reversed(c)):
        wa, wb, wc = (wa * p + x) % pe, (wb * p + y) % pe, (wc * p + z) % pe
        num = num * t[wa] % pe
        den = den * t[wb] * t[wc] % pe
    if counts[1] & 1 and not (p == 2 and e >= 3):
        num = pe - num
    return sum(counts), num * pow(den, -1, pe) % pe


class ReadLog:
    """A stand-in for the unit factorials of (p, e), p > 2: each read x is
    counted, and answered with the unit x mod (p - 1) + 1."""

    def __init__(self, p):
        self.p, self.reads = p, Counter()

    def __getitem__(self, x):
        self.reads[x] += 1
        return x % (self.p - 1) + 1


def check_lanes(A, B, p, w):
    """_subtract's flags and C digits at lane width w against decompose's
    groups, _borrows and A - B's own digits."""
    a, b = _digit_pair(A, B, p)
    lanes = engine._subtract(a, b, p, w)
    assert list(engine._unpack(lanes.a, w, len(a))) == list(a)
    assert list(engine._unpack(lanes.b, w, len(a))) == list(b)
    ends = set(decompose(A, B, p).bounds)  # a group ends after each digit that does not borrow
    assert list(engine._unpack(lanes.flags, w, len(a))) == [i + 1 not in ends for i in range(len(a))]
    assert lanes.flags.bit_count() == _borrows(a, b)
    c = padded_pair(A - B, 0, p, len(a))[0]
    assert list(engine._unpack(lanes.c, w, len(a))) == list(c)
    return a, b


class TestLanes:
    """The lane-packed Granville pass against the plain loops."""

    @pytest.mark.parametrize("p, top", [(2, 5), (3, 5), (5, 3)])
    def test_every_small_pair(self, p, top):
        # every A >= B below p**top, and at p = 5 also 3000 seeded pairs
        # below 5**5 (all of them would be 4.9 M): flags and C digits at
        # each lane width that e = 1..6 take, and the pass's (v, unit) at
        # each e against the loops over the same table
        tables = {e: engine._unit_factorials(p, e) for e in range(1, 7)}
        widths = sorted({engine._lane_bytes(p, p**e) for e in tables})
        pairs = [(A, B) for A in range(p**top) for B in range(A + 1)]
        if p == 5:
            rng = random.Random(5)
            pairs += [sorted((rng.randrange(p**5), rng.randrange(p**5)))[::-1] for _ in range(3000)]
        for A, B in pairs:
            for w in widths:
                a, b = check_lanes(A, B, p, w)
            for e, t in tables.items():
                want = granville_loop(a, b, p, e, t)
                assert engine._granville(a, b, p, e, t) == want, (A, B, e)

    @pytest.mark.parametrize(
        "p", [127, 131, 32749, 32771, 2**31 - 1, 2**31 + 11, 2**61 - 1, 2**64 - 59]
    )
    def test_lane_width_edges(self, p):
        # digits near 0 and p - 1, so lanes run near their top bit; the
        # windows each side reads, logged, against the loops'
        want_w = {127: 1, 131: 2, 32749: 2, 32771: 4, 2**31 - 1: 4, 2**31 + 11: 8}
        assert engine._lane_bytes(p, p) == want_w.get(p, 8 if p < 2**63 else 9)
        rng = random.Random(p)
        near = [0, 1, 2, p - 3, p - 2, p - 1]
        for _ in range(40):
            ad = [rng.choice(near) for _ in range(rng.randrange(1, 12))] + [rng.randrange(1, p)]
            bd = [rng.choice(near) for _ in ad[:-1]] + [rng.randrange(ad[-1] + 1)]
            A, B = from_digits(ad, p), from_digits(bd, p)
            for e in (1, 2, 3):
                w = engine._lane_bytes(p, p**e)
                assert 2 ** (8 * w - 1) > p and 2 ** (8 * w) >= p**e
                a, b = check_lanes(A, B, p, w)
                got, want = ReadLog(p), ReadLog(p)
                assert engine._granville(a, b, p, e, got) == granville_loop(a, b, p, e, want)
                assert got.reads == want.reads

    def test_lanes_wider_than_eight_bytes(self):
        # p = 2: lanes of exactly the bytes p**e needs past 8, read back
        # through byte slices
        for e, w in ((70, 9), (72, 9), (73, 10)):
            assert engine._lane_bytes(2, 2**e) == w
            rng = random.Random(e)
            t = engine._Checkpoints(2, e)
            for A, B in [(2**200 - 1, 4095), (2**150 + 2**75, 2**12 + 1)] + [
                (rng.randrange(2**200), rng.randrange(2**12)) for _ in range(2)
            ]:
                assert granville(A, B, 2, e, t) == engine._binom_loop(A, B, 2, e)

    def test_narrow_lanes_handed_on(self):
        # the theorem's lanes, packed for p alone, are used where p**n fits
        # them and widened where it does not
        p = 3
        a, b = _digit_pair(from_digits([2, 1, 0, 2, 2, 1], p), from_digits([1, 1, 0, 2, 0, 1], p), p)
        narrow = engine._subtract(a, b, p, engine._lane_bytes(p, p))
        for e in range(1, 8):
            t = engine._unit_factorials(p, e)
            assert engine._granville(a, b, p, e, t, narrow) == granville_loop(a, b, p, e, t)

    def test_lane_width_follows_n(self, monkeypatch):
        # The untraced theorem packs lanes for p alone; only the Granville
        # pass widens them, and to p**n, not p**N.  A call that stops at
        # m >= N or ends on the walk never widens.
        packed, widened = [], []
        pack, widen = engine._pack, engine._widen
        monkeypatch.setattr(engine, "_pack", lambda d, w: packed.append(w) or pack(d, w))
        monkeypatch.setattr(engine, "_widen", lambda x, v, w, k: widened.append(w) or widen(x, v, w, k))
        rng = random.Random(28)
        p = 3
        ad = [rng.randrange(p) for _ in range(400)] + [1]
        bd = [rng.randrange(d + 1) for d in ad]
        low = from_digits(ad, p), from_digits(bd, p)  # m = 0
        for j in (10, 20, 30):  # a borrow each, absorbed by the digit above
            ad[j : j + 2], bd[j : j + 2] = [0, 2], [1, 0]
        cases = [  # (A, B, N, the width the pass widens to, or None)
            (*low, 6, 2),  # 3**6 > 2**8
            (from_digits(ad, p), from_digits(bd, p), 8, None),  # m = 3: 3**5 < 2**8 < 3**8
            (from_digits([2] * 80 + [0] * 4 + [2], p), from_digits([0] * 80 + [1] * 4, p), 4, None),
            (parse_natural("2101", 3), parse_natural("1021", 3), 50000, None),  # the walk
        ]
        for A, B, N, width in cases:
            m = kummer_valuation(A, B, p)
            assert (m >= N) == (N == 4)
            want = theorem_evaluate(A, B, p, N)[0]
            packed.clear()
            widened.clear()
            assert theorem_evaluate(A, B, p, N, trace=False) == (want, None)
            assert packed == [1, 1]
            assert widened == ([width] * 4 if width else [])


class TestTheoremFactors:
    def test_worked_factor_blocks(self):
        factors = width_factors(A3, B3, 3, 3)
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
        factors = width_factors(A3, B3, 3, 3)
        nums = [f.num_value.value_mod() for f in factors]
        dens = [f.den_value.value_mod() if f.den_value else None for f in factors]
        assert nums == [8, 14, 23, 30, 45, 90]
        assert dens == [None, 8, 8, 4, 75, 207]
        assert [f.value.valuation for f in factors] == [0, 0, 0, 1, 1, 0]

    def test_base_case_single_factor(self):
        factors = width_factors(10, 5, 2, 2)
        assert len(factors) == 1
        f = factors[0]
        assert (_text(f.num_a), _text(f.num_b)) == ("1010", "0101")
        assert f.den_a is None

    def test_width_one_has_empty_denominators(self):
        factors = width_factors(10, 5, 2, 1)
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
            factors = width_factors(A3, B3, 3, n)
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
        # The untraced walk (the fallback where unit factorials are not
        # worth their set-up) folds the same product as the traced one,
        # across the batch edge, where windows repeat (p = 3) and where
        # they are all distinct (p = 2, n = 14), at width 1, and where
        # groups of 2 or 3 digits straddle it (m = borrows, N = m + n);
        # both match the pass.  At m = 0 the untraced walk rolls its keys
        # column-wise, otherwise group by group.
        rng = random.Random(23)
        cases = ((3, 3, False), (2, 14, False), (3, 1, False), (3, 3, True), (2, 2, True), (5, 1, True))
        for p, n, long_groups in cases:
            for positions, A, B in _batch_edge_pairs(rng, p, n, long_groups):
                e = decompose(A, B, p)
                m = pseudo_valuation(e)
                assert (m > 0) == long_groups
                res, tr = theorem_evaluate(A, B, p, m + n)
                assert (tr.m, tr.n) == (m, n)
                assert [f.index for f in tr.factors] == list(range(positions - 1, -1, -1))
                _assert_windows_are_blocks(tr, e, n)
                value = lambda x, y, k: engine._binom_vu(x, y, p, n)
                walk = engine._walk(p, e.a_digits, e.b_digits, e.bounds, n, value)
                assert walk == (m, tr.unit) and res == p**m * tr.unit % p ** (m + n)
                assert theorem_evaluate(A, B, p, m + n, trace=False) == (res, None)

    def test_no_expansion_parameter(self):
        # A caller's expansion used to be read as the pair's own: this one
        # of (90, 41) gave 0, traced or not, where C(100, 37) mod 81 is 33.
        # Every call now segments its own pair.
        assert theorem_evaluate(100, 37, 3, 4)[0] == math.comb(100, 37) % 81 == 33
        with pytest.raises(TypeError):
            theorem_evaluate(100, 37, 3, 4, expansion=decompose(90, 41, 3))

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

    def test_converts_only_as_many_digits_of_A_as_B_has(self, monkeypatch):
        # A's digits above B's top digit are never read, so only A mod
        # p**k, k the digit count of B, is converted (below a leading 1
        # that keeps its zero digits)
        rng = random.Random(21)
        p = 3
        ad = [rng.randrange(1, p) for _ in range(10**4)]
        bd = [rng.randrange(d + 1) for d in ad[:21]]
        bd[-1] = 1
        A, B = from_digits(ad, p), from_digits(bd, p)
        seen = []
        real = engine._digits_of
        monkeypatch.setattr(engine, "_digits_of", lambda n, base: seen.append(n) or real(n, base))
        want = math.prod(math.comb(x, y) for x, y in zip(ad, bd)) % p
        assert lucas_evaluate(A, B, p) == want
        assert seen == [B, A % p**21 + p**21]


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
        # untraced against traced across the batch edge, where windows
        # repeat (p = 3), where they are all distinct (p = 2, N = 14) and
        # at width 1; the untraced walk rolls its keys column-wise
        rng = random.Random(23)
        for p, N in ((3, 3), (2, 14), (3, 1)):
            for positions, A, B in _batch_edge_pairs(rng, p, N):
                res, tr = davis_webb_evaluate(A, B, p, N)
                assert [f.index for f in tr.factors] == list(range(positions - 1, -1, -1))
                a, b = padded_pair(A, B, p, N)
                bounds = range(len(a) + 1)
                _assert_windows_are_blocks(tr, PseudoExpansion(p, a, b, bounds), N)
                value = lambda x, y, k: engine._dw_bracket(x, y, k, p, N)
                assert engine._walk(p, a, b, bounds, N, value) == (tr.m, tr.unit)
                assert davis_webb_evaluate(A, B, p, N, trace=False) == (res, None)
                assert res == theorem_evaluate(A, B, p, N, trace=False)[0]

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

    def test_equal_bodies_keep_their_own_lines(self):
        # Positions with one body share their line past the index, and
        # each keeps its own index; a body with the same windows but
        # another value gets its own line.
        _, tr = davis_webb_evaluate(A8 * 3**40 + A8, B8 * 3**40 + B8, 3, 2)
        tails = {}
        for f, line in zip(tr.factors, format_trace_records(tr)):
            index, tail = line.split(" ", 1)
            assert index == f"index={f.index}"
            assert tails.setdefault(tuple(_windows(f)), tail) == tail
        assert len(tails) < len(tr.factors) // 2
        f = tr.factors[-1]
        other = ValuedUnit(3, 5, 1, 2)  # no 2-digit window has valuation 5
        bodies = (f[1:], f._replace(num_value=other, value=other)[1:])
        odd = replace(tr, bodies=bodies, ids=(0, 1, 0))
        # the record is as immutable as a frozen dataclass, and hashable
        assert hash(f._replace()) == hash(f)
        with pytest.raises(AttributeError):
            f.index = 7
        records = [line.split(" ", 1) for line in format_trace_records(odd)[:3]]
        assert [index for index, _ in records] == ["index=2", "index=1", "index=0"]
        (_, first), (_, second), (_, third) = records
        assert first == third == tails[tuple(_windows(f))] != second
        lines = format_trace_text(odd).splitlines()
        assert lines[1] == lines[3] == format_trace_text(tr).splitlines()[-3] != lines[2]

    def test_each_body_formatted_once(self, monkeypatch):
        # A formatter formats each distinct factor body once, however many
        # positions share it, and the text is the same as with no
        # window-text memo.  The low half of the digits repeats the high
        # half: at N = 3 bodies repeat throughout, at N = 8 mostly across
        # the halves.
        rng = random.Random(23)
        built = []
        sides = engine._sides
        monkeypatch.setattr(engine, "_sides", lambda *w: built.append(w) or sides(*w))
        half = [rng.randrange(3) for _ in range(1224)]
        b_half = [rng.randrange(d + 1) for d in half]
        A, B = from_digits(half + half + [1], 3), from_digits(b_half + b_half, 3)
        for N in (3, 8):
            tr = davis_webb_evaluate(A, B, 3, N)[1]
            built.clear()
            shown = format_trace_text(tr), format_trace_records(tr)
            assert len(built) == 2 * len(tr.bodies) and len(tr.bodies) < 0.6 * len(tr.ids)
            with monkeypatch.context() as m:
                m.setattr(engine, "cache", lru_cache(maxsize=0))
                assert shown == (format_trace_text(tr), format_trace_records(tr))

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
                    a, b = padded_pair(A, B, p, N)
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
        monkeypatch.setattr(engine, "cache", lru_cache(maxsize=0))  # no text or line memo
        assert shared == [(format_trace_text(tr), format_trace_records(tr)) for tr in traces]


def test_traces_keep_each_body_once():
    # A trace keeps each distinct factor body once, in first-seen order,
    # and one body id a position, top first; its factors join the two.
    # Walks of one and two positions and across the batch edge, over one-
    # digit groups (the column-wise roll) and long groups (the group roll).
    rng = random.Random(26)
    for p, n, long_groups in ((3, 3, False), (3, 1, False), (3, 3, True), (5, 1, True)):
        for positions, A, B in _batch_edge_pairs(rng, p, n, long_groups):
            e = decompose(A, B, p)
            N = pseudo_valuation(e) + n
            tr = theorem_evaluate(A, B, p, N)[1]
            assert len(tr.ids) == positions
            traces = [tr] if long_groups else [tr, davis_webb_evaluate(A, B, p, N)[1]]
            for tr in traces:
                assert len(set(tr.bodies)) == len(tr.bodies)
                high = -1
                for d in tr.ids:
                    assert d <= high + 1
                    high = max(high, d)
                assert high == len(tr.bodies) - 1
                top = len(tr.ids) - 1
                for j, f in enumerate(tr.factors):
                    assert f == Factor(top - j, *tr.bodies[tr.ids[j]])


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

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("N", [1, 2])
    def test_gate_at_the_window_edge(self, p, N):
        # A = p**(8N) - 1, p**(8N), p**(8N) + 1: the window's edge, where at
        # p = 2 A's bit length reaches the window's 8N digits.  A = p**(8N)
        # - p**(7N) adds a pair below the edge whose digits 7N-1 and 7N-2
        # are zeros, so that it borrows too.  B = c p**j + r starts a borrow
        # at digit j, from 7N - 2 up past the window, and r = 1 at digit 0:
        # m runs below, at and above N.  Digit 8N - 1 is the window's last;
        # digit 8N, the first outside, is A's top here and never borrows.
        def low_borrows(a, b, k):
            count = borrow = 0
            for _ in range(k):
                borrow = a % p - b % p - borrow < 0
                count += borrow
                a, b = a // p, b // p
            return count

        rng = random.Random(8 * N + p)
        edge = p ** (8 * N)
        for A in (edge - p ** (7 * N), edge - 1, edge, edge + 1):
            bs = {0, 1, A - 1, A, *(rng.randrange(A + 1) for _ in range(8))}
            bs.update(c * p**j + r for j in range(7 * N - 2, 8 * N + 1)
                      for c in range(1, p) for r in (0, 1))
            for B in sorted(x for x in bs if x <= A):
                m = kummer_valuation(A, B, p)
                fires = engine._low_borrows_reach(A, B, p, N)
                assert fires == (low_borrows(A, B, 8 * N) >= N), (A, B)
                assert m >= N or not fires, (A, B)
                if A < edge:
                    assert fires == (m >= N), (A, B)
                t = theorem_evaluate(A, B, p, N)[0]
                assert theorem_evaluate(A, B, p, N, trace=False) == (t, None)
                d = davis_webb_evaluate(A, B, p, N)[0]
                assert davis_webb_evaluate(A, B, p, N, trace=False) == (d, None)

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
        # m comes from the lane flags: the window is the only segmentation
        assert len(calls) == 1 and calls[0][0] < p ** (8 * N + 1)
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

    def test_window_no_wider_than_A(self, monkeypatch):
        # At N = 50000 a window of 8N digits on a 4-digit pair costs over
        # 100x the full path; the window stops at A's bit length.  The exit
        # does not fire, and p**n is past the table and the checkpoints, so
        # the call ends on the walk, which segments the pair itself.
        A, B = parse_natural("2101", 3), parse_natural("1021", 3)
        want = theorem_evaluate(A, B, 3, 50000)[0]
        windows = []
        monkeypatch.setattr(engine, "decompose", lambda *a: windows.append(decompose(*a)) or windows[-1])
        assert theorem_evaluate(A, B, 3, 50000, trace=False) == (want, None)
        assert len(windows) == 2 and windows[1] == decompose(A, B, 3)
        assert len(windows[0].a_digits) <= A.bit_length() + 1


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


def test_walks_value_each_distinct_window_once():
    # An untraced Davis-Webb call asks _dw_bracket once per distinct
    # window pair and side, and a traced theorem call asks _binom_vu once
    # per distinct factor body and side, not once per position.
    rng = random.Random(17)
    p, N = 3, 4
    A, B = _low_valuation_pair(rng, p, 3000, 2)
    engine._dw_bracket.cache_clear()
    davis_webb_evaluate(A, B, p, N, trace=False)
    a, b = padded_pair(A, B, p, N)
    lower = {(a[i : i + N], b[i : i + N]) for i in range(len(a) - N)}
    info = engine._dw_bracket.cache_info()
    assert info.hits + info.misses == 2 * len(lower) + 1 < len(a) - N + 1
    engine._binom_vu.cache_clear()
    tr = theorem_evaluate(A, B, p, N)[1]
    bodies = {tuple(_windows(f)) for f in tr.factors}
    info = engine._binom_vu.cache_info()
    assert info.hits + info.misses == sum(len(w) // 2 for w in bodies) < len(tr.factors)


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


def test_untraced_call_reads_checkpoints(monkeypatch):
    # Past the early exit (one borrow), with m = 1 < N = 11, the untraced
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
    assert pseudo_valuation(decompose(A, B, p)) == 1 and p ** (N - 1) > engine._TABLE_BUDGET
    residue, tr = theorem_evaluate(A, B, p, N, trace=False)
    assert tr is None and not calls
    assert list(engine._checkpoint_cache) == [(p, N - 1)]
    assert residue == theorem_evaluate(A, B, p, N)[0]
    assert residue == davis_webb_evaluate(A, B, p, N)[0]
