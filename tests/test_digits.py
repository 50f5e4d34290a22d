"""Digit arithmetic: parsing, radix conversion, primality, digit text."""

import random

import pytest
from helpers import from_digits

from ppbinom.digits import (
    _digits_of,
    _radix_plan,
    _text,
    ensure_prime,
    is_prime,
    parse_natural,
    to_base_p,
)
from ppbinom.errors import EmptyInput, InvalidDigit, NotPrime
from ppbinom.pseudo import block, decompose

ALPHABET = "0123456789abcdefghijklmnopqrstuvwxyz"


class TestParseNatural:
    def test_base3_worked_example(self):
        # positional oracle: int(text, radix)
        assert parse_natural("1221121202", 3) == int("1221121202", 3) == 38360

    def test_zero(self):
        assert parse_natural("0", 2) == 0

    def test_base5_example_input(self):
        assert parse_natural("432321433012", 5) == int("432321433012", 5) == 229874132

    def test_letters_and_case(self):
        assert parse_natural("ff", 16) == 255
        assert parse_natural("FF", 16) == 255
        assert parse_natural("zz", 36) == 36 * 36 - 1

    def test_invalid_digit(self):
        with pytest.raises(InvalidDigit):
            parse_natural("12a", 3)
        with pytest.raises(InvalidDigit):
            parse_natural("1 2", 3)
        with pytest.raises(InvalidDigit):
            parse_natural("-12", 10)

    def test_empty(self):
        with pytest.raises(EmptyInput):
            parse_natural("", 7)

    @pytest.mark.parametrize(
        "text, radix, bad",
        [
            ("1_000", 10, "_"),
            (" 12", 10, " "),
            ("12\n", 10, "\n"),
            ("+5", 10, "+"),
            ("-5", 10, "-"),
            ("0x1f", 16, "x"),
            ("0b1", 2, "b"),
            ("0o7", 8, "o"),
            ("\u0661\u0662", 10, "\u0661"),  # Arabic-Indic 12
            ("\uff11\uff12", 10, "\uff11"),  # full-width 12
            ("1x2_", 10, "x"),
            ("7" * 2500 + "_" + "7" * 10, 10, "_"),
            ("7" * 4001 + " 8", 10, " "),
        ],
    )
    def test_int_syntax_stays_refused(self, text, radix, bad):
        # int() takes most of these, or the chunk that holds the bad
        # character; the parser names the first character it refuses
        with pytest.raises(InvalidDigit) as exc:
            parse_natural(text, radix)
        assert str(exc.value) == f"{bad!r} is not a base-{radix} digit"

    @pytest.mark.parametrize("length", [1999, 2000, 2001, 4000, 4301, 20011])
    def test_exact_across_chunk_boundaries(self, length):
        # the reference folds 8-digit words, never through int(str), so a
        # chunk over the default str-to-int limit would raise here
        rng = random.Random(length)
        for radix in range(2, 37):
            digits = [rng.randrange(1, radix)] + rng.choices(range(radix), k=length - 1)
            text = "".join(
                ALPHABET[d].upper() if i % 2 else ALPHABET[d] for i, d in enumerate(digits)
            )
            want = 0
            for i in range(0, length, 8):
                word = 0
                for d in digits[i : i + 8]:
                    word = word * radix + d
                want = want * radix ** len(digits[i : i + 8]) + word
            assert parse_natural(text, radix) == want

    def test_radix_range(self):
        with pytest.raises(ValueError):
            parse_natural("101", 1)
        with pytest.raises(ValueError):
            parse_natural("101", 37)


def divmod_digits(n, base):
    """Reference radix conversion: one divmod a digit."""
    out = [n % base]
    n //= base
    while n:
        n, r = divmod(n, base)
        out.append(r)
    return tuple(out)


SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


class TestDigitsOf:
    # primes up to 31 read digit tuples from a table; 37 and 999983 have none
    @pytest.mark.parametrize("p", SMALL_PRIMES + (37, 999983))
    def test_edges_match_divmod(self, p):
        chunk, k, step, table = _radix_plan(p)
        assert (table is None) == (p > 31)
        edges = {0, 1, p - 1, p, step - 1, step, step + 1, chunk - 1, chunk, chunk + 1}
        edges |= {chunk * chunk - 1, chunk * chunk, chunk * chunk + 1, chunk * step - 1}
        for n in sorted(edges):
            assert _digits_of(n, p) == divmod_digits(n, p), (p, n)

    @pytest.mark.parametrize("p", SMALL_PRIMES + (37, 999983))
    def test_lengths_around_reads_and_chunks(self, p):
        # random digits, top digit nonzero, at lengths one below, at and one
        # above each multiple of the digits a read takes, and of a chunk
        _, k, _, table = _radix_plan(p)
        j = len(table[0]) if table else 1
        rng = random.Random(p)
        lengths = {t * j + d for t in (1, 2, 3) for d in (-1, 0, 1)}
        lengths |= {t * k + d for t in (1, 2, 3) for d in (-1, 0, 1)}
        for length in sorted(x for x in lengths if x > 0):
            ds = [rng.randrange(p) for _ in range(length - 1)] + [rng.randrange(1, p)]
            assert _digits_of(from_digits(ds, p), p) == tuple(ds), (p, length)

    def test_table_holds_every_tuple(self):
        for p in SMALL_PRIMES:
            _, k, step, table = _radix_plan(p)
            j = len(table[0])
            assert j * step <= 2048 < (j + 1) * step * p and k % j == 0
            assert [from_digits(t, p) for t in table] == list(range(step))


class TestToBaseP:
    def test_seven_base3(self):
        assert to_base_p(7, 3) == (1, 2)

    def test_zero(self):
        assert to_base_p(0, 5) == (0,)

    def test_worked_example_digits(self):
        assert _text(to_base_p(38360, 3)) == "1221121202"

    def test_round_trip_mixed_sizes(self):
        for p in (2, 3, 5, 101):
            for n in (0, 1, p - 1, p, p + 1, p**7, 12345678901234567890):
                assert from_digits(to_base_p(n, p), p) == n

    def test_canonical_no_leading_zero(self):
        s = to_base_p(9, 3)
        assert s == (0, 0, 1)
        assert _text(s) == "100"

    def test_text_stops_at_z(self):
        # digits past 35 have no character; this was a bare IndexError
        assert _text(to_base_p(35, 37)) == "z"
        with pytest.raises(ValueError, match="digit 100 "):
            _text(to_base_p(100, 101))

    def test_not_prime(self):
        with pytest.raises(NotPrime):
            to_base_p(5, 4)
        with pytest.raises(NotPrime):
            to_base_p(5, 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            to_base_p(-1, 3)


class TestPrimality:
    def test_known_primes(self):
        for p in (2, 3, 5, 7, 11, 101, 10**9 + 7, 2**61 - 1):
            assert is_prime(p)

    def test_known_composites(self):
        for n in (0, 1, 4, 9, 91, 561, 2**61 + 1, 3215031751):
            assert not is_prime(n)

    def test_too_large_rejected(self):
        with pytest.raises(NotPrime):
            is_prime(2**64 + 13)
        with pytest.raises(NotPrime):
            ensure_prime(2**89 - 1)

    def test_ensure_prime_passthrough(self):
        assert ensure_prime(13) == 13
        with pytest.raises(NotPrime):
            ensure_prime(15)


class TestConcatValue:
    """Group concatenation as block() does it: group 0 least significant."""

    def test_two_groups(self):
        # 202 over 011 in base 3 groups as (2)(20) over (1)(01)
        a, _ = block(decompose(20, 4, 3), 0, 2)
        assert _text(a) == "202"

    def test_base5_low_blocks(self):
        # the low groups (12)(0)(433) of the base-5 example
        e = decompose(
            parse_natural("432321433012", 5), parse_natural("323411244003", 5), 5
        )
        a, _ = block(e, 0, 3)
        assert _text(a) == "433012"
        assert from_digits(a, 5) == int("433012", 5)

    def test_padding_survives(self):
        # B's groups (03)(0): the group's leading zero stays significant
        e = decompose(
            parse_natural("432321433012", 5), parse_natural("323411244003", 5), 5
        )
        _, b = block(e, 0, 2)
        assert _text(b) == "003"
        assert len(b) == 3


class TestDigitString:
    """A digit string is a little-endian tuple; its text reads the other way."""

    def test_str_is_most_significant_first(self):
        assert _text((2, 0, 2, 1, 2)) == "21202"
