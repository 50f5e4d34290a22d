"""Evaluate C(A, B) modulo p**N three ways.

* ``theorem_evaluate``: the pseudo-digit block-quotient product.  With
  m = v_p C(A,B) and n = N - m, the binomial is congruent mod p**(n+m) to
  the binomial of the top n pseudo-digit blocks times, for each lower
  position, the quotient of an n-block binomial by the (n-1)-block
  binomial above it.  Every quotient is p-integral and its valuation is
  exactly the valuation contributed by its lowest pseudo-digit.  A trace
  records these factors.  Untraced, the unit is one Granville pass over
  the digits, the same pass that evaluates a single block binomial: the
  unit factorials of the windows floor(x/p**d) mod p**n of A, B and
  A - B, whose grouping into factors changes no read.
* ``davis_webb_evaluate``: the digit-window bracket recursion, which
  keeps the window a fixed width N and pays a factor p each time the top
  window comparison fails.
* ``lucas_evaluate``: the classic single-digit product mod p.

All three track block values as (valuation, unit) pairs, ``p**valuation
* unit`` with the unit held at a fixed precision, so nothing ever
materializes the exact binomial.  A trace records them as ``ValuedUnit``.
"""

from __future__ import annotations

from array import array
from collections.abc import Callable
from dataclasses import dataclass
from functools import cache, lru_cache
from math import isqrt, prod

from .digits import _borrows, _digit_pair, _digits_of, _text, ensure_prime
from .errors import NegativeValuation, TooLarge, _check_pair, describe_int
from .pseudo import PseudoExpansion, decompose, pseudo_valuation

__all__ = [
    "ValuedUnit",
    "Factor",
    "EvalTrace",
    "exact_binom_mod",
    "theorem_factors",
    "theorem_evaluate",
    "lucas_evaluate",
    "davis_webb_evaluate",
    "format_trace_text",
    "format_trace_records",
]


@dataclass(frozen=True, slots=True)
class ValuedUnit:
    """p**valuation times a unit residue known modulo p**precision: a
    traced factor's value.

    The represented quantity is congruent to ``p**valuation * unit``
    modulo ``p**(valuation + precision)``.
    """

    p: int
    valuation: int
    unit: int
    precision: int

    def __post_init__(self) -> None:
        if self.precision < 1:
            raise ValueError("precision must be >= 1")
        if self.valuation < 0:
            raise NegativeValuation("valuation must be >= 0")
        if self.unit % self.p == 0:
            raise ValueError(f"unit {self.unit} is divisible by {self.p}")

    def value_mod(self) -> int:
        """The represented value as an integer mod p**(valuation+precision)."""
        pv = self.p**self.valuation
        return pv * self.unit % (pv * self.p**self.precision)

    def __str__(self) -> str:
        if self.valuation == 0:
            return str(self.unit)
        return f"{self.p}^{self.valuation} {self.unit}"


# Traces repeat the same few values; sharing instances keeps tracing cheap.
_vu = lru_cache(maxsize=1 << 12)(ValuedUnit)


# Blocks whose precision p**e is at most this read a prefix table of the
# p-free factorials mod p**e: 4 bytes an entry, so 64 KiB at the budget
# and at most 1 MiB across the 16 cached tables (the 10 that the
# low-valuation benchmark mix cycles through take about 120 KB).  Above
# it the same Granville pass reads checkpoints, or the multiplicative
# loop runs where it is cheaper.
_TABLE_BUDGET = 1 << 14

# The one cost budget, in loop steps (a few seconds): above the table
# budget the primitive takes the cheaper of the loop, at min(b, a - b)
# steps, and the checkpoints, at their estimated set-up (when not built
# yet) plus reads, and raises TooLarge when neither fits.
_LOOP_BUDGET = 1 << 22


def exact_binom_mod(a: int, b: int, p: int, e: int) -> tuple[int, int]:
    """C(a, b) as (v, unit): p**v times a unit known mod p**e.

    Granville's formula reduces the unit to unit factorials (x!)_p mod
    p**e of the windows floor(a/p**d) mod p**e of a, b and a - b, three
    reads a base-p digit of a (``_granville``).  When p**e <= 2**14 they
    come from a prefix table built once per (p, e).  Above that they come
    from checkpoints, built once per (p, e) with the last two kept: at
    e = 1, x! mod p at the multiples of the power of two v above
    sqrt((p - 1)/2) up to (p - 1)/2, from shifted evaluation in at most
    about v**1.75 / 16 loop steps, with Wilson's theorem for the upper
    half; at e >= 2, doubling polynomials.  The multiplicative formula
    prod_{i=1..b} (a-b+i)/i, at min(b, a-b) steps, runs where it is
    estimated cheaper than their set-up plus reads (``_source``), as for
    tiny blocks at large e.  TooLarge is raised when the cheaper of the
    two exceeds 2**22 steps; at e = 1 the checkpoints fit for p < 2**29.
    """
    _check_pair(a, b)
    ensure_prime(p)
    if e < 1:
        raise ValueError("precision e must be >= 1")
    steps = min(b, a - b)
    t = _source(a, p, e, min(steps, _LOOP_BUDGET + 1))
    if t is not None:
        return _granville(*_digit_pair(a, b, p), p, e, t)
    if steps > _LOOP_BUDGET:
        raise TooLarge(
            f"C({describe_int(a)}, {describe_int(b)}) mod {describe_int(p)}**{e} "
            f"needs {describe_int(steps)} loop steps, over the budget of {_LOOP_BUDGET}"
        )
    return _binom_loop(a, b, p, e)


def _binom_loop(a: int, b: int, p: int, e: int) -> tuple[int, int]:
    # (v, unit) of C(a, b): strip p from every term of the product and
    # accumulate the unit parts mod p**e.
    if b > a - b:
        b = a - b
    pe = p**e
    v = 0
    num = 1
    den = 1
    for i in range(1, b + 1):
        t = a - b + i
        while t % p == 0:
            t //= p
            v += 1
        num = num * (t % pe) % pe
        s = i
        while s % p == 0:
            s //= p
            v -= 1
        den = den * (s % pe) % pe
    return v, num * pow(den, -1, pe) % pe


@lru_cache(maxsize=16)
def _unit_factorials(p: int, e: int) -> array:
    """T[r] = product of the k <= r prime to p, mod p**e, for r < p**e."""
    pe = p**e
    table = array("I", [1]) * pe
    acc = 1
    for k in range(1, pe):
        if k % p:
            acc = acc * k % pe
        table[k] = acc
    return table


def _prod_mod(lo: int, hi: int, m: int, acc: int) -> int:
    """acc times the product of lo .. hi-1, mod m, 64 factors a chunk."""
    for j in range(lo, hi, 64):
        acc = acc * prod(range(j, min(j + 64, hi))) % m
    return acc


def _times_run(poly: list[int], lo: int, hi: int, m: int) -> list[int]:
    """poly(z) times z + j for j = lo .. hi-1, mod m, cut below degree len(poly)."""
    for j in range(lo, hi):
        poly = [j * poly[0] % m] + [(j * poly[t] + poly[t - 1]) % m for t in range(1, len(poly))]
    return poly


def _horner(coeffs: list[int], z: int, m: int) -> int:
    v = 0
    for c in reversed(coeffs):
        v = (v * z + c) % m
    return v


def _shift(vals: list[int], a: int, n: int, p: int, inv_fact: list[int]) -> list[int]:
    """f(a), f(a+1), .. f(a+n-1) mod p for the f of degree d = len(vals) - 1
    with f(i) = vals[i] at i = 0..d, given 1/i! mod p for i <= d.

    Lagrange: f(a+k) = prod_{j=0..d} (a+k-j) * sum_i c_i / (a+k-i), with
    c_i = f(i) / (i! (d-i)! (-1)**(d-i)).  The sum is coefficient k + d of
    the product of sum_i c_i X**i and sum_t X**t / (a-d+t), t < n + d,
    taken as one big-int product of byte-aligned slots (Kronecker), each
    wide enough for d + 1 terms below p**2.  Needs a-d+t != 0 mod p.
    """
    d = len(vals) - 1
    c = [(-1) ** (d - i) * f * inv_fact[i] * inv_fact[d - i] % p for i, f in enumerate(vals)]
    xs = [(a - d + t) % p for t in range(n + d)]
    pre = [1]  # pre[t]: the product of xs[:t]
    for x in xs:
        pre.append(pre[-1] * x % p)
    inv_pre = [pow(pre[-1], -1, p)] * len(pre)
    for t in range(len(xs) - 1, -1, -1):
        inv_pre[t] = inv_pre[t + 1] * xs[t] % p
    w = [pre[t] * inv_pre[t + 1] % p for t in range(len(xs))]
    width = (2 * p.bit_length() + (d + 1).bit_length() + 7) // 8
    cx, wx = (
        int.from_bytes(b"".join(y.to_bytes(width, "little") for y in ys), "little") for ys in (c, w)
    )
    buf = (cx * wx).to_bytes((n + 2 * d) * width, "little")
    return [
        int.from_bytes(buf[(k + d) * width : (k + d + 1) * width], "little")
        * pre[k + d + 1] * inv_pre[k] % p
        for k in range(n)
    ]


def _mark_step(p: int, e: int) -> int:
    """The spacing of the checkpoints of (p, e): at e = 1 the power of two
    above sqrt((p - 1)/2), which shifted evaluation doubles up to, else
    ceil(sqrt p)."""
    return 1 << isqrt((p - 1) // 2).bit_length() if e == 1 else isqrt(p - 1) + 1


def _factorial_marks(p: int, v: int) -> list[int]:
    """(k v)! mod p for k = 0 .. K, where v = _mark_step(p, 1) and K v is
    the multiple of v nearest (p - 1)/2, the last mark an e = 1 read takes.

    g_d(x) = prod_{i=1..d} (v x + i) has degree d, and (k v)! is the
    product of g_v(j) over j < k.  From g_d at 0..d, two shifts give g_d at
    d+1 .. 2d and at d/v + 0..2d, and g_2d(x) = g_d(x) g_d(x + d/v), so
    log2(v) doublings reach g_v (Bostan, Gaudry and Schost 2007).  The
    last doubling, from d = v/2, is cut to the K <= v values g_v(0 .. K-1)
    the marks use: one shift to d/v + 0..K-1, and one to d+1 .. K-1 only
    when K > d + 1.
    No shift divides by 0 mod p: the first shift's points are 1 .. 2d,
    at most v < p, and the second's are d/v + s with -d <= s <= 2d, where
    d/v + s = 0 would make p divide 1 + s v / d, an odd integer of size
    at most 1 + 2v, which is below every p above the table budget.
    """
    inv_fact = [1] * (v // 2 + 1)
    inv_fact[-1] = pow(_prod_mod(1, v // 2 + 1, p, 1), -1, p)
    for i in range(v // 2, 1, -1):
        inv_fact[i - 1] = inv_fact[i] * i % p
    inv_v = pow(v, -1, p)
    last = ((p - 1) // 2 + v // 2) // v
    g, d = [1, v + 1], 1
    while d < v:
        n = 2 * d + 1 if 2 * d < v else last
        lo = g + _shift(g, d + 1, n - d - 1, p, inv_fact) if n > d + 1 else g
        g = [x * y % p for x, y in zip(lo, _shift(g, d * inv_v % p, n, p, inv_fact))]
        d *= 2
    marks = [1]
    for x in g:
        marks.append(marks[-1] * x % p)
    return marks


class _Checkpoints:
    """T[x] = (x!)_p mod p**e for x < p**e, read like the prefix table.

    Write x = q p + r.  In z = p y, the product of p y + j over j = 1..r
    is a polynomial P_r(z) whose terms from z**e up vanish mod p**e at
    z = p q, so e coefficients mod p**e hold it.  P_r is kept at every
    multiple of the step (``_mark_step``), and a read finishes from the
    one at or below r with fewer than step products.  The whole runs
    below q p come from doubling: H_0 = P_{p-1} covers one run of p - 1
    units, H_{k+1}(z) = H_k(z) H_k(z + p 2**k) covers 2**(k+1), and the
    runs are H_k(p o) over the set bits k of q, o being the part of q
    above bit k.  At e >= 2 the step is ceil(sqrt p), set-up takes
    O(p e + e**3 log p) operations and a read O(e**2 log p + sqrt p).
    At e = 1 every P_r is a constant (r! mod p) and q is 0.  The marks
    stop near (p - 1)/2, for Wilson's theorem gives x! = (-1)**(x+1) /
    (p - 1 - x)! mod p, so the step v is the power of two above
    sqrt((p - 1)/2), under sqrt(2 p).  They come from ``_factorial_marks``
    in O(sqrt(p) log p) operations on residues, carried by big-int
    products, and a read finishes from the nearer mark, dividing by the
    run up to it when it lies above, in at most v/2 products and one
    inverse.
    """

    __slots__ = ("p", "e", "m", "step", "marks", "h")

    def __init__(self, p: int, e: int) -> None:
        m = p**e
        step = _mark_step(p, e)
        if e == 1:
            marks, h = _factorial_marks(p, step), []
        else:
            poly = [1] + [0] * (e - 1)
            marks = list(poly)  # flat: the e coefficients of each kept P_r in turn
            for top in range(step, p, step):
                poly = _times_run(poly, top - step + 1, top + 1, m)
                marks += poly
            h = [_times_run(poly, (p - 1) // step * step + 1, p, m)]
            for k in range((p ** (e - 1) - 1).bit_length() - 1):
                f = h[-1]
                g = list(f)
                c = p << k
                # Taylor shift g(z) -> g(z + c) by repeated synthetic division
                for i in range(e - 1):
                    for t in range(e - 2, i - 1, -1):
                        g[t] = (g[t] + c * g[t + 1]) % m
                h.append([sum(f[i] * g[t - i] for i in range(t + 1)) % m for t in range(e)])
        self.p, self.e, self.m, self.step, self.marks, self.h = p, e, m, step, marks, h

    def __getitem__(self, x: int) -> int:
        p, e, m = self.p, self.e, self.m
        if e == 1:
            y = min(x, p - 1 - x)
            i = (y + self.step // 2) // self.step
            top = i * self.step
            num = _prod_mod(top + 1, y + 1, p, self.marks[i])
            den = _prod_mod(y + 1, top + 1, p, 1)
            if y < x:
                num, den = den if x & 1 else p - den, num
            return num * pow(den, -1, p) % p
        q, r = divmod(x, p)
        i = r // self.step
        qp = q * p
        acc = _horner(self.marks[i * e : i * e + e], qp % m, m)
        acc = _prod_mod(qp + i * self.step + 1, x + 1, m, acc)
        o = 0
        for k in range(q.bit_length() - 1, -1, -1):
            if q >> k & 1:
                acc = acc * _horner(self.h[k], p * o % m, m) % m
                o += 1 << k
        return acc


# Checkpoint sources, least recently used first.  A block walk reads one
# (p, e) throughout; two keep both widths of a call warm.  The set-up
# budget bounds each: at e = 1, v <= 2**14, so p < 2**29 and at most
# 2**14 + 1 marks.
_CHECKPOINTS_KEPT = 2
_checkpoint_cache: dict[tuple[int, int], _Checkpoints] = {}


def _checkpoints(p: int, e: int) -> _Checkpoints:
    source = _checkpoint_cache.pop((p, e), None)
    if source is None:
        source = _Checkpoints(p, e)
        if len(_checkpoint_cache) >= _CHECKPOINTS_KEPT:
            del _checkpoint_cache[next(iter(_checkpoint_cache))]
    _checkpoint_cache[p, e] = source
    return source


def _checkpoint_cost(a: int, p: int, e: int) -> int:
    """Estimated loop steps for one block with A value a read from the
    checkpoints of (p, e), plus their set-up when not built.

    The Granville pass takes three reads a base-p digit of a.  At e >= 2
    a read takes about bits / 2 Horner evaluations of e terms plus half a
    step of products, at e = 1 a quarter step of products and an inverse.
    The weights were fitted on CPython 3.11, where a loop step takes
    about 0.4 us and a factor inside ``math.prod`` a quarter to a third of
    one.  The e = 1 set-up, v**1.75 / 16 + 22 v steps at step v, fits
    within 10% the slowest set-up of each step (p just under 2 v**2),
    timed at v = 2**7 .. 2**15 (1.3 ms .. 2.2 s); set-ups at the low end
    of a step, with half the marks and no extra shift, take about 0.55 of
    that.
    """
    width = (p - 1).bit_length()
    bits = (e - 1) * width
    step = _mark_step(p, e)
    if e == 1:
        setup, read = step * (isqrt(step) * isqrt(isqrt(step)) // 16 + 22), step // 16 + 10
    else:
        setup, read = 2 * p * e + bits * e * e, step // 6 + 30 + bits * e // 2
    reads = 3 * (a.bit_length() // width + 1)
    return reads * read + (0 if (p, e) in _checkpoint_cache else setup)


def _source(a: int, p: int, e: int, steps: int) -> array | _Checkpoints | None:
    """The unit factorials of (p, e) for a Granville pass over the digits
    of a: the table within its budget, else the checkpoints when their
    set-up fits the loop budget and ``_checkpoint_cost`` is under ``steps``
    loop steps, else None."""
    if p**e <= _TABLE_BUDGET:
        return _unit_factorials(p, e)
    if _checkpoint_cost(0, p, e) <= _LOOP_BUDGET and _checkpoint_cost(a, p, e) < steps:
        return _checkpoints(p, e)
    return None


def _granville(
    a: tuple[int, ...], b: tuple[int, ...], p: int, e: int, t: array | _Checkpoints
) -> tuple[int, int]:
    """(v, unit mod p**e) of C(A, B) from the little-endian digits a, b
    of A >= B, b padded to a's length, and t, the unit factorials of (p, e).

    Granville: A!/p**v(A!) = prod_d (A_d!)_p with A_d = floor(A/p**d),
    and (x!)_p = s**floor(x/p**e) T[x mod p**e], where s = -1 is the
    product of the units mod p**e (+1 for p = 2, e >= 3) and T[r] =
    (r!)_p mod p**e is read from t, the table or checkpoints.  With C =
    A - B, the unit is the product over digits d of F(A_d) / (F(B_d)
    F(C_d)), F(x) = T[x mod p**e]; the windows x_d mod p**e roll down
    the digits.  s's exponent, the sum over d of q(A_d) - q(B_d) - q(C_d)
    with q(x) = floor(x/p**e), is the count of borrows out of digits e - 1
    and up.  C's digits come from one borrow pass, below digit e - 1 and
    from it up, whose total count is v (Kummer).
    """
    pe = p**e
    c: list[int] = []
    counts = []
    borrow = 0
    for part in (slice(e - 1), slice(e - 1, None)):
        count = 0
        for x, y in zip(a[part], b[part]):
            d = x - y - borrow
            borrow = d < 0
            count += borrow
            c.append(d + p if borrow else d)
        counts.append(count)
    low, high = counts
    wa = wb = wc = 0
    num = den = 1
    for x, y, z in zip(reversed(a), reversed(b), reversed(c)):
        wa = (wa * p + x) % pe
        wb = (wb * p + y) % pe
        wc = (wc * p + z) % pe
        num = num * t[wa] % pe
        den = den * t[wb] * t[wc] % pe
    if high & 1 and not (p == 2 and e >= 3):
        num = pe - num
    return low + high, num * pow(den, -1, pe) % pe


@lru_cache(maxsize=1 << 18)
def _binom_vu(a: int, b: int, p: int, e: int) -> tuple[int, int]:
    # Block binomials repeat heavily across sweeps.
    return exact_binom_mod(a, b, p, e)


@dataclass(frozen=True, slots=True)
class Factor:
    """One factor of an evaluation product.

    ``index`` is the start position of the numerator block; the
    windows are little-endian digit tuples, and the denominator's are
    absent on the leading factor and at width 1.
    """

    index: int
    num_a: tuple[int, ...]
    num_b: tuple[int, ...]
    den_a: tuple[int, ...] | None
    den_b: tuple[int, ...] | None
    num_value: ValuedUnit
    den_value: ValuedUnit | None
    value: ValuedUnit


@dataclass(frozen=True, slots=True)
class EvalTrace:
    """Ordered factors plus the bookkeeping that turns them into a residue.

    The factor product is p**m times ``unit``, a unit mod p**n (1 when the
    theorem path short-circuits at m >= N and forms no factor).
    """

    method: str
    p: int
    mod_exp: int
    n: int
    m: int
    unit: int
    residue: int
    factors: tuple[Factor, ...]


def _walk(
    e: PseudoExpansion,
    width: int,
    value: Callable[[int, int, int], tuple[int, int]],
    factors: list[Factor] | None = None,
) -> tuple[int, int]:
    """(valuation, unit mod p**width) of the block-quotient product over
    e's groups.

    Position top = max(groups - width, 0) contributes the value of groups
    top and up; each lower position i the value of groups i .. i+width-1
    over that of groups i+1 .. i+width-1 (alone at width 1).
    ``value(av, bv, k)`` maps a block's A and B values and digit count to
    its (valuation, unit) pair.  The values roll: the denominator at i is
    the running value cut to the digits of its groups, and the numerator
    folds group i's digits in below it.  Units are accumulated apart and divided once;
    given a list, the walk appends one Factor per position.  Its digit
    windows, ``block(e, i, width)`` and ``block(e, i + 1, width - 1)``,
    are sliced from the walk's own offsets, and equal windows share one
    tuple across the factors that show them.  Traces, Davis-Webb and the
    untraced theorem where its unit factorials are not worth their set-up
    (``_source``) take this walk.
    """
    p, a, b, bounds = e.p, e.a_digits, e.b_digits, e.bounds
    pe = p**width
    top = max(len(bounds) - 1 - width, 0)
    # zero groups above the top: only where the expansion is shorter than width
    pad = (0,) * (width - (len(bounds) - 1 - top))
    # One tuple per distinct digit window, for this walk only.
    window = cache(lambda digits: digits)
    # hi: the digit offset above group i; k: the denominator's digit count.
    hi = bounds[-1]
    av = bv = k = v = 0
    pk = num = den = 1
    for i in range(top, -1, -1):
        if i < top:
            if bounds[i + width] - hi != k:
                k = bounds[i + width] - hi
                pk = p**k
            av %= pk
            bv %= pk
        dav, dbv, lo = av, bv, bounds[i]
        for j in range(hi - 1, lo - 1, -1):
            av = a[j] + p * av
            bv = b[j] + p * bv
        g = hi - lo
        hi = lo
        nv, nu = value(av, bv, k + g)
        v += nv
        num = num * nu % pe
        has_den = i < top and width > 1
        if has_den:
            dv, du = value(dav, dbv, k)
            v -= dv
            den = den * du % pe
        if factors is not None:
            end = lo + g + k  # the digit offset above the numerator's real groups
            na, nb = window(a[lo:end] + pad), window(b[lo:end] + pad)
            nvu = _vu(p, nv, nu, width)
            if has_den:
                da, db = window(a[end - k : end]), window(b[end - k : end])
                q = _vu(p, nv - dv, nu * pow(du, -1, pe) % pe, width)
                factors.append(Factor(i, na, nb, da, db, nvu, _vu(p, dv, du, width), q))
            else:
                factors.append(Factor(i, na, nb, None, None, nvu, None, nvu))
    return v, num * pow(den, -1, pe) % pe


def theorem_factors(e: PseudoExpansion, n: int) -> list[Factor]:
    """The block-quotient factors at width n, most significant first.

    The leading factor is the binomial of the top n pseudo-digit blocks
    (zero-padded when the expansion is shorter than n); each further
    position i contributes C(block(i, n)) / C(block(i+1, n-1)).  For
    n = 1 the denominators are empty products and are omitted.
    """
    if n < 1:
        raise ValueError("block width n must be >= 1")
    factors: list[Factor] = []
    _walk(e, n, lambda x, y, k: _binom_vu(x, y, e.p, n), factors)
    return factors


def _low_borrows_reach(A: int, B: int, p: int, N: int) -> bool:
    """Whether A - B borrows at least N times in its low 8N base-p
    digits, so that p**N divides C(A, B) (Kummer).

    Segments A mod p**k + p**k against B mod p**k, with k = 8N, or A's
    bit length when less (k then still covers A's digits).  The leading
    1 absorbs the last borrow, so the window's valuation is its borrow
    count: at most m, and m itself when A < p**k.  ``decompose`` is read
    from this module's globals, so a wrapper put there sees the window.
    """
    pk = p ** min(8 * N, A.bit_length())
    return pseudo_valuation(decompose(A % pk + pk, B % pk, p)) >= N


def theorem_evaluate(
    A: int,
    B: int,
    p: int,
    N: int,
    expansion: PseudoExpansion | None = None,
    trace: bool = True,
) -> tuple[int, EvalTrace | None]:
    """C(A, B) mod p**N via the pseudo-digit block-quotient product.

    The caller supplies only the modulus exponent N; the split N = n + m
    is derived from the valuation m, short-circuiting to 0 when m >= N.
    An untraced call with no ``expansion`` first counts the borrows in
    the low 8N digits and returns (0, None) when they reach N, without
    converting or segmenting the rest.  Pass a precomputed ``expansion``
    to amortize decomposition across several N (it always takes the
    full path), and ``trace=False`` to skip building the factor table:
    the unit then comes from one ``_granville`` pass over the digits, or
    from the block walk where ``_source`` finds the unit factorials not
    worth building.
    """
    _check_pair(A, B)
    ensure_prime(p)
    if N < 1:
        raise ValueError("modulus exponent N must be >= 1")
    if expansion is None:
        if not trace and _low_borrows_reach(A, B, p, N):
            return 0, None
        expansion = decompose(A, B, p)
    m = pseudo_valuation(expansion)
    if m >= N:
        tr = EvalTrace("theorem", p, N, 0, m, 1, 0, ()) if trace else None
        return 0, tr
    n = N - m
    a, b = expansion.a_digits, expansion.b_digits
    factors = [] if trace else None
    # The walk's loop takes under 4 min(B, A - B) steps: min(b, c) a block,
    # where the blocks' B values sum to under 3 B and C values to under 3 C.
    t = None if trace else _source(A, p, n, 4 * min(B, A - B))
    if t is None:
        v, unit = _walk(expansion, n, lambda x, y, k: _binom_vu(x, y, p, n), factors)
        assert v == _borrows(a, b), "factor valuations disagree with the borrow count"
    else:
        v, unit = _granville(a, b, p, n, t)
    assert v == m, "borrow count disagrees with the segmentation"
    residue = p**m * unit % p**N
    tr = EvalTrace("theorem", p, N, n, m, unit, residue, tuple(factors)) if trace else None
    return residue, tr


def lucas_evaluate(A: int, B: int, p: int) -> int:
    """C(A, B) mod p as the digitwise product of single-digit binomials.

    Zero as soon as any digit of B exceeds the matching digit of A; the
    low digits are checked first, before converting the rest.  A's digits
    above B's top digit contribute C(d, 0) = 1 and are not read.
    """
    _check_pair(A, B)
    ensure_prime(p)
    if _low_borrows_reach(A, B, p, 1):
        return 0
    result = 1
    for da, db in zip(_digits_of(A, p), _digits_of(B, p)):
        if da < db:
            return 0
        result = result * _binom_vu(da, db, p, 1)[1] % p
    return result


@lru_cache(maxsize=1 << 18)
def _dw_bracket(av: int, bv: int, k: int, p: int, e: int) -> tuple[int, int]:
    # The bracket <av/bv> of two k-digit windows, at precision e.  Strip
    # top digits while the A side is below the B side, paying a factor p
    # for each.  Equal blocks take the binomial branch too: they produce
    # no borrows, so paying a factor p there would break the congruence.
    pk = p**k
    stripped = 0
    while av < bv:
        stripped += 1
        pk //= p
        if pk == 1:
            return stripped, 1
        av %= pk
        bv %= pk
    v, unit = _binom_vu(av, bv, p, e)
    return v + stripped, unit


def davis_webb_evaluate(
    A: int,
    B: int,
    p: int,
    N: int,
    trace: bool = True,
) -> tuple[int, EvalTrace | None]:
    """C(A, B) mod p**N via the width-N digit-window bracket product.

    Works on plain base-p digits padded to a common length of at least N,
    walked as an expansion whose groups are single digits: the leading
    bracket covers the top N digits, and each lower position contributes
    the bracket of its N-digit window over the bracket of the (N-1)-digit
    window above it.  An untraced call returns (0, None) when the low 8N
    digits of A - B already borrow N times, before any conversion.
    """
    _check_pair(A, B)
    ensure_prime(p)
    if N < 1:
        raise ValueError("modulus exponent N must be >= 1")
    if not trace and _low_borrows_reach(A, B, p, N):
        return 0, None
    a, b = _digit_pair(A, B, p, N)
    e = PseudoExpansion(p, a, b, tuple(range(len(a) + 1)))
    factors = [] if trace else None
    m, unit = _walk(e, N, lambda x, y, k: _dw_bracket(x, y, k, p, N), factors)
    if m < 0:
        raise NegativeValuation("bracket product is not p-integral")
    residue = 0 if m >= N else p**m * unit % p**N
    tr = EvalTrace("davis-webb", p, N, N, m, unit, residue, tuple(factors)) if trace else None
    return residue, tr


def _sides(f: Factor, text: Callable[[tuple[int, ...]], str]) -> tuple[str, str | None]:
    """The "a/b" texts of f's numerator and denominator windows (None
    without one), each window read through ``text``."""
    num = f"{text(f.num_a)}/{text(f.num_b)}"
    if f.den_a is None:
        return num, None
    return num, f"{text(f.den_a)}/{text(f.den_b)}"


def format_trace_text(trace: EvalTrace) -> str:
    """Human-readable factor table: blocks, integer values, factored forms."""
    p, N = trace.p, trace.mod_exp
    lines = [f"method={trace.method} p={p} N={N} (m={trace.m}, n={trace.n})"]
    if not trace.factors:
        lines.append(f"  {p}^{trace.m} divides the binomial; residue is 0")
    cap = p**N if trace.method == "davis-webb" else None
    wrap = "<{}>" if trace.method == "davis-webb" else "C({})"
    text = cache(_text)  # a trace repeats its windows: format each once
    for f in trace.factors:
        num, den = _sides(f, text)
        head = wrap.format(num) + (f"/{wrap.format(den)}" if den else "")
        nv = f.num_value.value_mod()
        ints = str(nv % cap if cap else nv)
        if f.den_value is not None:
            dv = f.den_value.value_mod()
            ints += f"/{dv % cap if cap else dv}"
        line = f"  {head} = {ints}"
        if f.num_value.valuation or (f.den_value is not None and f.den_value.valuation):
            factored = str(f.num_value)
            if f.den_value is not None:
                factored += f"/{f.den_value}"
            line += f" = {factored}"
        lines.append(line)
    if trace.factors:
        lines.append(f"  combined: {p}^{trace.m} * {trace.unit} (unit mod {p**trace.n})")
    lines.append(f"  result: {trace.residue} (mod {p**N})")
    return "\n".join(lines)


def format_trace_records(trace: EvalTrace) -> list[str]:
    """Machine-readable lines: one factor per line, then the result line."""
    lines = []
    text = cache(_text)  # as in format_trace_text
    for f in trace.factors:
        num, den = _sides(f, text)
        v = f.value
        lines.append(
            f"index={f.index} num_block={num} den_block={den or '-'} "
            f"val={v.valuation} unit={v.unit} prec={v.precision}"
        )
    lines.append(f"result={trace.residue} modulus={trace.p ** trace.mod_exp}")
    return lines
