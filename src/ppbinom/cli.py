"""Command-line front-end: eval, decompose, compare, bench.

Inputs are read in base p by default (pass ``--radix 10`` for decimal
entry).  Exit codes: 0 success, 1 method disagreement, 2 usage or parse
error.
"""

from __future__ import annotations

import argparse
import functools
import math
import random
import sys
import time
from collections import Counter

from . import engine, oracle
from .digits import ensure_prime, parse_natural
from .errors import TooLarge
from .pseudo import decompose, pseudo_valuation

__all__ = ["build_parser", "main"]

_METHODS = ("theorem", "davis-webb", "lucas", "exact", "all")


def _radix(args: argparse.Namespace) -> int:
    """The radix of the A/B text inputs: --radix, else the prime."""
    radix = args.radix
    if radix is None:
        if args.prime > 36:
            raise ValueError(
                "base-p text entry needs p <= 36; pass --radix explicitly"
            )
        radix = args.prime
    if not 2 <= radix <= 36:
        raise ValueError(f"--radix must be in 2..36, got {radix}")
    return radix


def _check_output(args: argparse.Namespace) -> None:
    """Refuse up front what could not be printed: base-p digits past z,
    and a modulus p**N over Python's int-to-str digit limit (estimated as
    N log10 p, without building p**N)."""
    p, N = args.prime, getattr(args, "mod_exp", 1)
    digit_text = args.command == "decompose" or (
        args.command == "eval" and (args.trace or args.format == "records")
    )
    if p > 36 and digit_text:
        raise ValueError("base-p text output (decompose, --trace, records) needs p <= 36")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    digits = math.floor(N * math.log10(p)) + 1
    if "mod_exp" in args and limit and digits > limit:
        raise ValueError(
            f"modulus {p}**{N} has about {digits} decimal digits, over the "
            f"int-to-str limit of {limit} (sys.set_int_max_str_digits)"
        )


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--prime", "-p", type=int, required=True, help="prime base p")
    modulus = argparse.ArgumentParser(add_help=False)
    modulus.add_argument(
        "--mod-exp", "-N", type=int, default=1, help="modulus exponent N (modulus p**N)"
    )
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument(
        "--radix",
        type=int,
        default=None,
        help="radix of the A/B text inputs (default: p)",
    )
    pair.add_argument("A")
    pair.add_argument("B")

    parser = argparse.ArgumentParser(
        prog="ppbinom",
        description="binomial coefficients modulo prime powers via pseudo-digit blocks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser(
        "eval", parents=[common, modulus, pair], help="evaluate C(A, B) mod p**N"
    )
    p_eval.add_argument("--method", choices=_METHODS, default="theorem")
    p_eval.add_argument("--trace", action="store_true", help="print the factor table")
    p_eval.add_argument("--format", choices=("text", "records"), default="text")
    p_eval.set_defaults(run=run_eval)

    sub.add_parser(
        "decompose", parents=[common, pair], help="print the pseudo-digit groups of (A, B)"
    ).set_defaults(run=run_decompose)
    sub.add_parser(
        "compare", parents=[common, modulus, pair], help="run all methods and check agreement"
    ).set_defaults(run=run_compare)
    p_bench = sub.add_parser(
        "bench",
        parents=[common, modulus],
        help="time the block-product method on random pairs",
    )
    p_bench.add_argument("--digits", type=int, default=12, help="base-p digit count")
    p_bench.add_argument("--trials", type=int, default=20)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.set_defaults(run=run_bench)

    return parser


def _parse_inputs(args: argparse.Namespace) -> tuple[int, int]:
    return parse_natural(args.A, args.radix), parse_natural(args.B, args.radix)


def _results(args: argparse.Namespace, methods: tuple[str, ...], A: int, B: int, want_trace: bool):
    """Yield (method, residue, modulus, trace-or-None) for each method in
    turn.  Among several methods, an oracle over its size or cost guard
    prints why it was skipped and yields nothing."""
    p, N = args.prime, args.mod_exp
    for method in methods:
        modulus, tr = p**N, None
        if method == "theorem":
            res, tr = engine.theorem_evaluate(A, B, p, N, trace=want_trace)
        elif method == "davis-webb":
            res, tr = engine.davis_webb_evaluate(A, B, p, N, trace=want_trace)
        elif method == "lucas":
            res, modulus = engine.lucas_evaluate(A, B, p), p
        else:
            try:
                res = oracle.binom_exact(A, B) % modulus
            except TooLarge as exc:
                if len(methods) == 1:
                    raise
                print(f"exact: skipped ({exc})")
                continue
        yield method, res, modulus, tr


def run_eval(args: argparse.Namespace) -> int:
    A, B = _parse_inputs(args)
    methods = ("theorem", "davis-webb", "lucas", "exact") if args.method == "all" else (args.method,)
    if args.format == "records" and len(methods) > 1:
        raise ValueError("records format requires a single method")
    want_trace = args.trace or args.format == "records"
    for method, res, modulus, tr in _results(args, methods, A, B, want_trace):
        if args.format == "records":
            if tr is None:
                print(f"result={res} modulus={modulus}")
            else:
                print("\n".join(engine.format_trace_records(tr)))
            continue
        if args.trace and tr is not None:
            print(engine.format_trace_text(tr))
        prefix = f"{method}: " if len(methods) > 1 else ""
        print(f"{prefix}{res} (mod {modulus})")
    return 0


def run_decompose(args: argparse.Namespace) -> int:
    A, B = _parse_inputs(args)
    e = decompose(A, B, args.prime)
    print(f"A = {e.a_groups()}")
    print(f"B = {e.b_groups()}")
    print(f"pseudo-digits = {e.num_pairs}")
    print(f"m = {pseudo_valuation(e)}")
    return 0


def run_compare(args: argparse.Namespace) -> int:
    A, B = _parse_inputs(args)
    # collected before printing, so a skipped oracle's line comes first
    results = list(_results(args, ("theorem", "davis-webb", "exact"), A, B, False))
    for method, res, modulus, _ in results:
        print(f"{method}: {res} (mod {modulus})")
    if len({res for _, res, _, _ in results}) == 1:
        print("AGREE")
        return 0
    print("DISAGREE")
    return 1


def run_bench(args: argparse.Namespace) -> int:
    p, N, digits = args.prime, args.mod_exp, args.digits
    if digits < 1:
        raise ValueError("--digits must be >= 1")
    if digits * p.bit_length() > 2**20:
        # radix conversion stays superlinear: at 2**20 bits a trial takes
        # 0.6-2.4 s, nearly all of it converting A and B to base p
        raise ValueError(f"--digits {digits} at p = {p} breaks digits * p.bit_length() <= 2**20")
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    if args.trials * digits * p.bit_length() > 2**22:
        # about 20 us a trial on tiny pairs and 0.8-3 s on the largest
        raise ValueError(
            f"--trials {args.trials} of {digits} digits at p = {p} breaks "
            "trials * digits * p.bit_length() <= 2**22"
        )
    rng = random.Random(args.seed)
    lo = p ** (digits - 1)
    hi = p**digits
    print(f"bench p={p} N={N} digits={digits} trials={args.trials} seed={args.seed}")
    total = 0.0
    slowest = 0.0
    lengths: Counter[int] = Counter()
    oracle_agreed = 0
    oracle_skips = 0
    for _ in range(args.trials):
        A = rng.randrange(lo, hi)
        B = rng.randrange(hi)
        while B > A:
            B = rng.randrange(hi)
        t0 = time.perf_counter()
        e = decompose(A, B, p)
        res, _ = engine.theorem_evaluate(A, B, p, N, expansion=e, trace=False)
        dt = time.perf_counter() - t0
        total += dt
        slowest = max(slowest, dt)
        bounds = e.bounds
        lengths.update(bounds[i + 1] - bounds[i] for i in range(e.num_pairs))
        try:
            oracle_agreed += oracle.binom_exact(A, B, share=args.trials) % p**N == res
        except TooLarge:
            oracle_skips += 1
    oracle_checked = args.trials - oracle_skips
    mean_ms = total / args.trials * 1000
    print(
        f"theorem: total {total:.3f}s, mean {mean_ms:.3f} ms/pair, "
        f"max {slowest * 1000:.3f} ms, {args.trials * digits / max(total, 1e-9):,.0f} digits/s"
    )
    if oracle_checked:
        print(f"oracle: agreed {oracle_agreed}/{oracle_checked}")
    if oracle_skips:
        print(f"oracle: skipped {oracle_skips} (over the oracle's size or shared cost guard)")
    dist = " ".join(f"{k}:{v}" for k, v in sorted(lengths.items()))
    print(f"pseudo-digit lengths: {dist}")
    return 0 if oracle_agreed == oracle_checked else 1


# One parser a process, built on the first call to main: building one
# takes about 0.7 ms, and parsing leaves it unchanged.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        ensure_prime(args.prime)
        if getattr(args, "mod_exp", 1) < 1:
            raise ValueError("--mod-exp must be >= 1")
        if "radix" in args:
            args.radix = _radix(args)
        _check_output(args)
        return args.run(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

