"""Byte-exact outputs of both evaluators, pinned as one digest.

For every case the digest takes the untraced and traced residues, the
trace text and the trace records of the theorem and of Davis-Webb.  Any
change to a residue, a factor value or the trace formats moves it.
"""

import hashlib
import random

from ppbinom.engine import (
    davis_webb_evaluate,
    format_trace_records,
    format_trace_text,
    theorem_evaluate,
)

GOLDEN = "4e6f40da3f73a286975b8c7621dc96eab336a94dd64f86868540ed16447b01c5"


def _cases():
    for p in (2, 3, 5):
        for a in range(40):
            for b in range(a + 1):
                for N in range(1, 5):
                    yield a, b, p, N
    rng = random.Random(20261018)
    for _ in range(100):
        a = rng.randrange(10**29, 10**30)
        yield a, rng.randrange(a + 1), rng.choice((2, 3, 5, 7)), rng.randrange(1, 7)


def test_outputs_digest():
    h = hashlib.sha256()
    for a, b, p, N in _cases():
        for evaluate in (theorem_evaluate, davis_webb_evaluate):
            plain = evaluate(a, b, p, N, trace=False)[0]
            res, tr = evaluate(a, b, p, N)
            h.update(f"{a} {b} {p} {N} {plain} {res}\n".encode())
            h.update(format_trace_text(tr).encode())
            h.update("\n".join(format_trace_records(tr)).encode())
    assert h.hexdigest() == GOLDEN
