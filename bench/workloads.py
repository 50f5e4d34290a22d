"""Seeded input generation for the benchmark workloads.

Every op is drawn from ``random.Random(f"{workload}:{seed}")``, so one seed
always gives the same ops in the same order.  Each workload cycles through
fixed cells (prime, modulus exponent, valuation, kind) and gives each cell
sizes on a fixed log-spaced grid over the workload's range; the op order
is a fixed round-robin over the cells.  The seed chooses digit contents
only, so the cost of every op, and with it each latency percentile, is
nearly the same for every seed, and runs on different seeds stay
comparable.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

import reference


@dataclass
class Op:
    """One evaluation request and the digits it was built from."""

    kind: str  # "theorem" or "lucas" (library call) or a cli subcommand label
    p: int
    N: int
    a: list[int]  # little-endian base-p digits of A
    b: list[int]  # little-endian base-p digits of B, B <= A
    argv: list[str] = field(default_factory=list)  # cli ops only

    def wire(self) -> dict:
        """What the timed process receives: the inputs and nothing else."""
        if self.argv:
            return {"kind": self.kind, "argv": self.argv}
        return {
            "kind": self.kind,
            "p": self.p,
            "N": self.N,
            "A": format(reference.to_int(self.a, self.p), "x"),
            "B": format(reference.to_int(self.b, self.p), "x"),
        }


def _log_grid(k: int, lo: float, hi: float, at: float = 0.5) -> list[int]:
    """k integers log-spaced over [lo, hi], each ``at`` into one of k slices."""
    return [round(lo * (hi / lo) ** ((i + at) / k)) for i in range(k)]


def _interleave(groups: list[list[Op]]) -> list[Op]:
    """Round-robin over the groups: first ops of each, then second ops, ..."""
    return [op for row in itertools.zip_longest(*groups) for op in row if op is not None]


def random_pair(rng: random.Random, p: int, nd: int) -> tuple[list[int], list[int]]:
    """Two uniform nd-digit strings, the larger as A (top digit of A nonzero)."""
    while True:
        x = rng.choices(range(p), k=nd)
        y = rng.choices(range(p), k=nd)
        if x[-1] or y[-1]:
            break
    for i in range(nd - 1, -1, -1):
        if x[i] != y[i]:
            return (x, y) if x[i] > y[i] else (y, x)
    return x, y


def low_valuation_pair(
    rng: random.Random, p: int, nd: int, m: int
) -> tuple[list[int], list[int]]:
    """A, B with B <= A digitwise except at m borrow positions, so v_p = m.

    Borrow positions are non-adjacent and below the top digit, and the
    digit above each one has a > b, so every borrow is absorbed at once.
    """
    slots = rng.sample(range(0, nd - 1, 2), m)
    a = [rng.randrange(p) for _ in range(nd)]
    a[-1] = rng.randrange(1, p)
    b = [rng.randrange(x + 1) for x in a]
    for i in slots:
        a[i] = rng.randrange(p - 1)
        b[i] = rng.randrange(a[i] + 1, p)
        a[i + 1] = rng.randrange(1, p)
        b[i + 1] = rng.randrange(a[i + 1])
    return a, b


def _next_prime(n: int) -> int:
    def prime(k: int) -> bool:
        return k > 1 and all(k % d for d in range(2, math.isqrt(k) + 1))

    while not prime(n):
        n += 1
    return n


def random_bulk(rng: random.Random) -> list[Op]:
    return _interleave([
        [Op("theorem", p, 4 + i % 9, *random_pair(rng, p, nd))
         for i, nd in enumerate(_log_grid(18, 3 * 10**4, 10**5))]
        for p in (2, 3, 5)
    ])


# (p, N, m, largest digit count): the digit cap keeps the slowest op of a
# cell near 0.25 s at the seed commit, since the block primitive's cost
# grows about p**(N - m) per digit.
LOW_VALUATION_CELLS = [
    (3, 6, 0, 5000), (3, 7, 0, 1500), (3, 8, 0, 600), (3, 8, 3, 5000),
    (3, 9, 1, 600), (3, 9, 3, 5000), (3, 10, 2, 600), (3, 10, 3, 1500),
    (3, 10, 5, 5000), (3, 6, 2, 5000),
    (2, 6, 0, 5000), (2, 10, 0, 2500), (2, 10, 2, 5000),
    (5, 6, 0, 300), (5, 6, 1, 1500), (5, 7, 2, 1500),
]


def low_valuation(rng: random.Random) -> list[Op]:
    # Each cell's smaller pairs come first and leave block binomials in the
    # cache for its larger ones.
    return _interleave([
        [Op("theorem", p, N, *low_valuation_pair(rng, p, nd, m)) for nd in _log_grid(6, 200, top)]
        for p, N, m, top in LOW_VALUATION_CELLS
    ])


def prime_pair(rng: random.Random, p: int, nd: int) -> tuple[list[int], list[int]]:
    """A with digits in the top quarter, B <= A digitwise with each digit
    near half of A's, so every digit's block binomial is near its largest
    cost, about a/2 multiplications, whatever the seed."""
    a = [rng.randrange(3 * p // 4, p) for _ in range(nd)]
    return a, [rng.randrange(x * 9 // 20, x * 11 // 20 + 1) for x in a]


def large_prime(rng: random.Random) -> list[Op]:
    # m = 0, so N = 1 never short-circuits and every digit costs one block
    # binomial with operands up to p; at N = 2 the blocks reach p**2.  The
    # two N = 1 kinds take alternate primes, so no two ops share a prime.
    groups = []
    for kind, N, lo, hi, count, at in (
        ("theorem", 1, 10**3, 10**6, 32, 0.25),
        ("lucas", 1, 10**3, 10**6, 32, 0.75),
        ("theorem", 2, 10**3, 1.4 * 10**3, 16, 0.5),
    ):
        group = []
        for i, target in enumerate(_log_grid(count, lo, hi, at)):
            p = _next_prime(target)
            nd = 2 + i % (5 if N == 1 else 2)
            group.append(Op(kind, p, N, *prime_pair(rng, p, nd)))
        groups.append(group)
    return _interleave(groups)


# label, extra argv, input family, primes, (N, m) choices, op count, most
# decimal characters.  Ops that walk every factor of a long pair (trace,
# records) cost about 35 us per base-p digit on top of parsing, so their
# text stays shorter than the 3*10**4 characters of the others.
CLI_KINDS = [
    ("eval", [], "random", (2, 3, 5, 7), [(N, 0) for N in range(4, 13)], 16, 3 * 10**4),
    ("decompose", [], "random", (3, 5, 7), [(1, 0)], 12, 3 * 10**4),
    ("eval-dw", ["--method", "davis-webb"], "low", (3,), [(2, 0), (3, 1), (4, 2), (3, 0)], 12, 3 * 10**4),
    ("compare", [], "low", (3,), [(2, 0), (3, 1), (4, 2), (3, 0)], 12, 3 * 10**4),
    ("eval-trace", ["--trace"], "low", (3,), [(3, 0), (4, 1), (5, 2), (4, 0)], 10, 10**4),
    ("eval-records", ["--format", "records"], "low", (3,), [(3, 0), (4, 1), (5, 2), (4, 0)], 10, 10**4),
]


def cli_text(rng: random.Random) -> list[Op]:
    groups = []
    for label, extra, family, primes, nms, count, top in CLI_KINDS:
        ops = []
        for i, chars in enumerate(_log_grid(count, 10**3, top)):
            p = primes[i % len(primes)]
            N, m = nms[i // len(primes) % len(nms)]
            nd = math.ceil(chars * math.log(10) / math.log(p))
            if family == "random":
                a, b = random_pair(rng, p, nd)
            else:
                a, b = low_valuation_pair(rng, p, nd, m)
            command = label.split("-")[0]
            argv = [command, "--prime", str(p), "--radix", "10"]
            if command != "decompose":
                argv += ["--mod-exp", str(N)]
            argv += extra + [reference.to_decimal(a, p), reference.to_decimal(b, p)]
            ops.append(Op(label, p, N, a, b, argv))
        groups.append(ops)
    return _interleave(groups)


WORKLOADS = {
    "random_bulk": random_bulk,
    "low_valuation": low_valuation,
    "large_prime": large_prime,
    "cli_text": cli_text,
}


def generate(workload: str, seed: int) -> list[Op]:
    """The op list of a workload; equal seeds give equal lists."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
