"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
timings.  Correctness bounds are asserted exactly (zero mismatches);
runtime targets are printed for visibility and only asserted where the
criterion itself states a per-case bound.  The heaviest exhaustive sweep
splits its row range across two worker processes.
"""

import multiprocessing
import random
import time

from ppbinom import cli
from ppbinom.digits import parse_natural
from ppbinom.engine import (
    davis_webb_evaluate,
    lucas_evaluate,
    theorem_evaluate,
)
from ppbinom.oracle import binom_exact, kummer_valuation, pascal_rows
from ppbinom.pseudo import block_valuation, decompose, pseudo_valuation

A5 = parse_natural("432321433012", 5)
B5 = parse_natural("323411244003", 5)
A3 = parse_natural("1221121202", 3)
B3 = parse_natural("1011012021", 3)
A8 = parse_natural("21202112", 3)
B8 = parse_natural("12021110", 3)


def report(k, elapsed, text):
    print(f"ACCEPTANCE {k}: PASS ({elapsed:.2f}s) {text}")


def test_acceptance_1_golden_decomposition(capsys):
    t0 = time.perf_counter()
    code = cli.main(["decompose", "--prime", "5", "432321433012", "323411244003"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "A = (4)(323)(2)(1)(433)(0)(12)"
    assert lines[1] == "B = (3)(234)(1)(1)(244)(0)(03)"
    e = decompose(A5, B5, 5)
    assert e.a_groups() == "(4)(323)(2)(1)(433)(0)(12)"
    assert e.b_groups() == "(3)(234)(1)(1)(244)(0)(03)"
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        report(1, elapsed, "base-5 pseudo-digit groups print byte-exact")


def test_acceptance_2_golden_evaluation(capsys):
    t0 = time.perf_counter()
    res, tr = theorem_evaluate(A3, B3, 3, 5)
    assert res == 18
    assert tr.m == 2 and tr.n == 3
    nums = [f.num_value.value_mod() for f in tr.factors]
    dens = [f.den_value.value_mod() if f.den_value else None for f in tr.factors]
    assert nums == [8, 14, 23, 30, 45, 90]
    assert dens == [None, 8, 8, 4, 75, 207]
    assert [f.value.valuation for f in tr.factors] == [0, 0, 0, 1, 1, 0]
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        report(2, elapsed, "18 mod 243 with factor table 8, 14/8, 23/8, 30/4, 45/75, 90/207")


def test_acceptance_3_golden_comparison(capsys):
    t0 = time.perf_counter()
    dw, _ = davis_webb_evaluate(A8, B8, 3, 5)
    assert dw == 117
    # the eight-digit input is the oracle-verified one; its seven-digit
    # truncation evaluates to something else entirely
    assert binom_exact(A8, B8) % 243 == 117
    th, _ = theorem_evaluate(A8, B8, 3, 5)
    assert th == 117
    a7, b7 = A8 // 3, B8 // 3
    assert binom_exact(a7, b7) % 243 == theorem_evaluate(a7, b7, 3, 5)[0] == 36 != 117
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        report(3, elapsed, "both methods give 117 mod 243 on the verified input")


def test_acceptance_4_oracle_equivalence_sweep(capsys):
    t0 = time.perf_counter()
    mismatches = 0
    checked = 0
    for p in (2, 3, 5):
        mods = [p**N for N in range(1, 6)]
        for A, row in enumerate(pascal_rows(p**5, 400)):
            for B in range(A + 1):
                want_top = row[B]
                for N, mod in enumerate(mods, start=1):
                    want = want_top % mod
                    r1, _ = theorem_evaluate(A, B, p, N, trace=False)
                    r2, _ = davis_webb_evaluate(A, B, p, N, trace=False)
                    checked += 1
                    if r1 != want or r2 != want:
                        mismatches += 1
    assert mismatches == 0
    assert checked == 3 * 5 * (401 * 402 // 2)
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        report(4, elapsed, f"{checked} evaluations, both methods match Pascal (target 120s)")


def _valuation_rows(args):
    """(pairs, bad, anchors) over rows A = start, start+2, ... below 2001."""
    start, = args
    bad = 0
    anchor = 0
    pairs = 0
    for A in range(start, 2001, 2):
        c = 1  # exact C(A, B), updated along B
        for B in range(A + 1):
            if B:
                c = c * (A - B + 1) // B
            pairs += 1
            for p in (2, 3, 5):
                x = c
                v = 0
                q, r = divmod(x, p)
                while r == 0:
                    x = q
                    v += 1
                    q, r = divmod(x, p)
                if v != pseudo_valuation(decompose(A, B, p)) or v != kummer_valuation(A, B, p):
                    bad += 1
            if (41 * A + B) % 997 == 0:
                # spot-anchor the incremental row to the oracle itself
                assert c == binom_exact(A, B)
                anchor += 1
    return pairs, bad, anchor


def test_acceptance_5_valuation_triple_agreement(capsys):
    t0 = time.perf_counter()
    with multiprocessing.Pool(2) as pool:
        parts = pool.map(_valuation_rows, [(0,), (1,)])
    pairs = sum(p[0] for p in parts)
    bad = sum(p[1] for p in parts)
    anchor = sum(p[2] for p in parts)
    assert bad == 0
    assert pairs == 2001 * 2002 // 2
    assert anchor > 1000
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        report(5, elapsed, f"{pairs} pairs x 3 primes, all three valuations agree (target 60s)")


def test_acceptance_6_lemma_factor_valuations(capsys):
    t0 = time.perf_counter()
    rng = random.Random(20260810)
    # the traced theorem at N = n + m evaluates every block, so the whole
    # number stays small enough that even a single-group block is desk-sized
    max_digits = {2: 18, 3: 11, 5: 8, 7: 7}
    for _ in range(10_000):
        p = rng.choice((2, 3, 5, 7))
        digits = rng.randrange(1, max_digits[p] + 1)
        A = rng.randrange(p**digits)
        B = rng.randrange(A + 1)
        n = rng.randrange(1, 6)
        e = decompose(A, B, p)
        N = pseudo_valuation(e) + n
        factors = theorem_evaluate(A, B, p, N)[1].factors  # no quotient may go negative
        lead = factors[0]
        assert lead.value.valuation == block_valuation(e, lead.index, n)
        total = lead.value.valuation
        for f in factors[1:]:
            assert f.value.valuation == block_valuation(e, f.index, 1)
            total += f.value.valuation
        assert total == pseudo_valuation(e)
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        report(6, elapsed, "10000 random instances, quotient valuations match (target 60s)")


def test_acceptance_7_lucas_recovery(capsys):
    t0 = time.perf_counter()
    for p in (2, 3, 5, 7):
        for A, row in enumerate(pascal_rows(p, 1000)):
            for B in range(A + 1):
                assert lucas_evaluate(A, B, p) == row[B]
    # width-1 product recovers the mod p**(m+1) value; digit counts are
    # capped like criterion 6 so single-group blocks stay desk-sized
    rng = random.Random(11)
    max_digits = {2: 18, 3: 12, 5: 8, 7: 7}
    for _ in range(1500):
        p = rng.choice((2, 3, 5, 7))
        A = rng.randrange(p ** max_digits[p])
        B = rng.randrange(A + 1)
        e = decompose(A, B, p)
        m = pseudo_valuation(e)
        res, _ = theorem_evaluate(A, B, p, m + 1, trace=False)
        unit = 1
        for f in theorem_evaluate(A, B, p, m + 1)[1].factors:
            unit = unit * f.value.unit % p
        assert res == p**m * unit % p ** (m + 1)
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        report(7, elapsed, "exhaustive Lucas A<=1000 plus width-1 product recovery (target 60s)")


def test_acceptance_8_scale_property(capsys, monkeypatch):
    import ppbinom.oracle as oracle_mod

    def forbidden(*args, **kwargs):
        raise AssertionError("scale path must not materialize exact binomials")

    monkeypatch.setattr(oracle_mod, "binom_exact", forbidden)
    monkeypatch.setattr(oracle_mod, "binom_mod_pascal", forbidden)

    t0 = time.perf_counter()
    rng = random.Random(8)
    slowest = 0.0
    for _ in range(20):
        A = rng.randrange(3**9999, 3**10000)
        B = rng.randrange(A + 1)
        t1 = time.perf_counter()
        r8, _ = theorem_evaluate(A, B, 3, 8, trace=False)
        dt = time.perf_counter() - t1
        slowest = max(slowest, dt)
        assert dt < 1.0, f"pair took {dt:.3f}s"
        assert 0 <= r8 < 3**8
        r10, _ = theorem_evaluate(A, B, 3, 10, trace=False)
        assert r10 % 3**8 == r8
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    with capsys.disabled():
        report(8, elapsed, f"20 pairs of 10^4 digits, worst pair {slowest*1000:.1f}ms (bound 1s)")


def test_acceptance_8_full_path(capsys):
    # The untraced calls above exit after the low 8N digits; traced calls
    # keep the full decomposition of these pairs (m >= 4778) and the full
    # path's m >= N short-circuit under the same bound.
    t0 = time.perf_counter()
    rng = random.Random(8)
    slowest = 0.0
    for _ in range(20):
        A = rng.randrange(3**9999, 3**10000)
        B = rng.randrange(A + 1)
        r8, _ = theorem_evaluate(A, B, 3, 8, trace=False)
        t1 = time.perf_counter()
        full8, tr8 = theorem_evaluate(A, B, 3, 8)
        r10, tr10 = theorem_evaluate(A, B, 3, 10)
        dt = time.perf_counter() - t1
        slowest = max(slowest, dt)
        assert dt < 1.0, f"pair took {dt:.3f}s"
        assert full8 == r8
        assert r10 % 3**8 == r8
        assert tr8.m == tr10.m >= 4778
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        report("8 (full path)", elapsed, f"worst pair {slowest*1000:.1f}ms (bound 1s)")
