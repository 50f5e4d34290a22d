"""Base-p digit arithmetic on arbitrary-precision nonnegative integers.

Naturals are plain Python ints (always >= 0).  Digit sequences are plain
little-endian tuples, so index ``i`` carries weight ``p**i``; their text
(``_text``) is most-significant digit first, using the characters 0-9
then a-z, matching the way numbers are normally written out.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product, zip_longest

from .errors import EmptyInput, InvalidDigit, NotPrime, describe_int

__all__ = [
    "parse_natural",
    "to_base_p",
    "is_prime",
    "ensure_prime",
]

_ALPHABET = "0123456789abcdefghijklmnopqrstuvwxyz"
# The characters of each radix's digits, both cases: what parse_natural
# accepts, and a test int() cannot stand in for (it also takes "_",
# whitespace, a sign, radix prefixes and non-ASCII digits).
_RADIX_CHARS = {r: frozenset(_ALPHABET[:r] + _ALPHABET[10:r].upper()) for r in range(2, 37)}
# Characters per int() call: under the 4300-digit str-to-int limit of
# CPython 3.11 (sys.set_int_max_str_digits) at every radix.
_PARSE_CHUNK = 2000

# Deterministic Miller-Rabin witness set, valid for every n < 2**64.
_MR_WITNESSES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
_PRIME_LIMIT = 1 << 64


@lru_cache(maxsize=4096)
def is_prime(n: int) -> bool:
    """Deterministic primality test for n < 2**64.

    Raises NotPrime for n >= 2**64: such bases are rejected rather than
    certified probabilistically.
    """
    if n >= _PRIME_LIMIT:
        raise NotPrime(
            f"base {describe_int(n)} is too large to certify prime (limit 2**64)"
        )
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def ensure_prime(p: int) -> int:
    """Return p if prime, otherwise raise NotPrime."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    return p


def _text(digits: tuple[int, ...]) -> str:
    """Most-significant-first text of little-endian digits."""
    try:
        return "".join([_ALPHABET[d] for d in reversed(digits)])
    except IndexError:
        d = next(d for d in digits if d >= len(_ALPHABET))
        raise ValueError(f"digit {d} has no character (text digits stop at z = 35)") from None


# A base whose j-digit tuples hold at most this many digits in all, for
# some j >= 2 (base <= 32), reads j digits a divmod from a table of them.
_TABLE_DIGITS = 1 << 11


@lru_cache(maxsize=64)
def _radix_plan(base: int) -> tuple[int, int, int, list[tuple[int, ...]] | None]:
    """(chunk, k, step, table): radix conversion cuts n into chunks of k
    digits, chunk = base**k of about 1024 bits, so it never does one big
    divmod per digit, and reads a chunk in divmods by step.  With a table
    the step is base**j for the largest j with j base**j <= 2**11,
    table[r] holds r's j little-endian digits, and k is a multiple of j:
    j = 8 at base 2, 5 at 3, 3 at 5 and 7, 2 from 11 to 32.  It is built
    on first use, in under 0.1 ms.  Larger bases step through single
    digits: a table of one digit a tuple would only cost set-up.
    """
    j = 1
    while (j + 1) * base ** (j + 1) <= _TABLE_DIGITS:
        j += 1
    k = max(j, int(1024 / math.log2(base)) // j * j)
    if j == 1:
        return base**k, k, base, None
    return base**k, k, base**j, [t[::-1] for t in product(range(base), repeat=j)]


def _digits_of(n: int, base: int) -> tuple[int, ...]:
    """Little-endian digits of n >= 0 (no primality requirement)."""
    if n < 0:
        raise ValueError("naturals are nonnegative")
    if n == 0:
        return (0,)
    chunk, k, step, table = _radix_plan(base)
    parts = []
    while n >= chunk:
        n, low = divmod(n, chunk)
        parts.append(low)
    out: list[int] = []
    if table is None:
        for part in parts:
            for _ in range(k):
                part, r = divmod(part, base)
                out.append(r)
        while n:
            n, r = divmod(n, base)
            out.append(r)
        return tuple(out)
    reads = k // len(table[0])
    for part in parts:
        for _ in range(reads):
            part, r = divmod(part, step)
            out += table[r]
    while n:
        n, r = divmod(n, step)
        out += table[r]
    while not out[-1]:  # the top read's zeros above n's top digit
        out.pop()
    return tuple(out)


def _digit_pair(A: int, B: int, p: int, width: int = 1) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Little-endian base-p digits of A >= B, both padded with zeros to the
    longer of A's digit count and width."""
    da, db = _digits_of(A, p), _digits_of(B, p)
    n = max(len(da), width)
    return da + (0,) * (n - len(da)), db + (0,) * (n - len(db))


def parse_natural(text: str, radix: int) -> int:
    """Parse a most-significant-first number string into a natural.

    Accepts digits 0-9 and letters a-z (case-insensitive) up to the radix.
    The text is converted in chunks of ``_PARSE_CHUNK`` characters, joined
    pairwise as ``hi * radix**k + lo`` with k doubling each round, so the
    cost is a few big-int products rather than one multiply per character.
    """
    if not 2 <= radix <= 36:
        raise ValueError(f"radix must be in 2..36, got {radix}")
    if not text:
        raise EmptyInput("empty number string")
    allowed = _RADIX_CHARS[radix]
    if not allowed.issuperset(text):
        ch = next(ch for ch in text if ch not in allowed)
        raise InvalidDigit(f"{ch!r} is not a base-{radix} digit")
    head = (len(text) - 1) % _PARSE_CHUNK + 1
    parts = [int(text[i - _PARSE_CHUNK : i], radix) for i in range(len(text), head, -_PARSE_CHUNK)]
    parts.append(int(text[:head], radix))
    power = radix**_PARSE_CHUNK
    while len(parts) > 1:
        # every part but the top one spans the same number of chunks
        unpaired = parts[len(parts) & ~1 :]
        parts = [lo + hi * power for lo, hi in zip(parts[::2], parts[1::2])] + unpaired
        if len(parts) > 1:
            power *= power
    return parts[0]


def to_base_p(n: int, p: int) -> tuple[int, ...]:
    """Little-endian base-p digits of n, no leading zeros; p must be prime."""
    ensure_prime(p)
    return _digits_of(n, p)


def _borrows(da: tuple[int, ...], db: tuple[int, ...]) -> int:
    """Borrow count of the schoolbook subtraction of little-endian digits
    db from da: v_p C(a, b) by Kummer's theorem when a >= b."""
    borrow = borrows = 0
    for x, y in zip_longest(da, db, fillvalue=0):
        borrow = x - y - borrow < 0
        borrows += borrow
    return borrows
