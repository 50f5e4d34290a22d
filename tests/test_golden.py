"""Byte-exact outputs of both evaluators and of the CLI, pinned as digests.

For every case the evaluator digest takes the untraced and traced
residues, the trace text and the trace records of the theorem and of
Davis-Webb.  Any change to a residue, a factor value or the trace formats
moves it.  The CLI digest does the same for exit codes and printed text.
"""

import hashlib
import random

from ppbinom import cli
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


CLI_GOLDEN = "2d1adb942e54237ec0ac046712f519f93d35379bdfd4d3e91062f5eae9fee676"

# Exit code, stdout and stderr of each invocation go into CLI_GOLDEN,
# less bench's timing line.
_CLI_CASES = [
    # README and acceptance goldens
    ("decompose", "--prime", "5", "432321433012", "323411244003"),
    ("decompose", "--prime", "3", "1221121202", "1011012021"),
    ("decompose", "--prime", "7", "123456", "123456"),
    ("eval", "--prime", "3", "-N", "5", "1221121202", "1011012021"),
    ("eval", "--prime", "3", "-N", "5", "--radix", "10", "38360", "22741"),
    ("compare", "--prime", "3", "-N", "5", "21202112", "12021110"),
    ("compare", "--prime", "2", "-N", "3", "--radix", "10", "97", "31"),
    # traces and records of both evaluators
    ("eval", "--prime", "3", "-N", "5", "--trace", "1221121202", "1011012021"),
    ("eval", "--prime", "3", "-N", "5", "--format", "records", "1221121202", "1011012021"),
    ("eval", "--prime", "3", "-N", "5", "--method", "davis-webb", "--trace",
     "21202112", "12021110"),
    ("eval", "--prime", "3", "-N", "5", "--method", "davis-webb", "--format", "records",
     "21202112", "12021110"),
    ("eval", "--prime", "2", "-N", "3", "--trace", "1000", "1"),
    # the other methods
    ("eval", "--prime", "3", "-N", "5", "--method", "all", "21202112", "12021110"),
    ("eval", "--prime", "5", "--method", "lucas", "342", "342"),
    ("eval", "--prime", "2", "-N", "4", "--method", "exact", "1010", "0101"),
    ("eval", "--prime", "2", "-N", "4", "--method", "exact", "--format", "records",
     "1010", "0101"),
    # boundaries
    ("eval", "--prime", "3", "-N", "1200", "--method", "davis-webb",
     "1" + "0" * 1200, "2" * 1200),
    ("compare", "--prime", "3", "-N", "5000", "2101", "1021"),
    ("compare", "--prime", "9223372036854775783", "--radix", "10", "-N", "2", "1000", "300"),
    ("eval", "--prime", "9223372036854775783", "--radix", "10", "--method", "all",
     "123456789012345678901234567890", "98765432109876543210"),
    # every error path
    ("eval", "--prime", "9", "11", "10"),
    ("eval", "--prime", "3", "12", "21"),
    ("eval", "--prime", "3", "141", "12"),
    ("eval", "--prime", "101", "7", "3"),
    ("eval", "--prime", "101", "--radix", "10", "-N", "2", "7", "3"),
    ("decompose", "--prime", "101", "--radix", "10", "100", "50"),
    ("eval", "-N", "2", "--trace", "--prime", "101", "--radix", "10", "100", "50"),
    ("eval", "-N", "2", "--format", "records", "--prime", "101", "--radix", "10",
     "100", "50"),
    ("eval", "--prime", "1000000007", "--radix", "10", "999999999", "500000000"),
    ("eval", "--prime", "3", "--mod-exp", "0", "2", "1"),
    ("eval", "--prime", "3", "--method", "all", "--format", "records", "12", "11"),
    ("eval", "--prime", "3", "-N", "10000", "1", "0"),
    ("compare", "--prime", "3", "-N", "10000", "1", "0"),
    ("decompose", "--prime", "3", "--mod-exp", "2", "12", "1"),
    ("bench", "--prime", "3", "--radix", "10", "--trials", "1"),
    ("eval", "--prime", "3", "--method", "nonsense", "1", "0"),
    # bench, with its timing line masked
    ("bench", "--prime", "2", "-N", "3", "--digits", "12", "--trials", "30", "--seed", "9"),
    ("bench", "--prime", "37", "--digits", "3", "--trials", "2"),
]


def test_cli_digest(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage text to the terminal
    h = hashlib.sha256()
    for argv in _CLI_CASES:
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        out = "".join(
            line for line in out.splitlines(keepends=True)
            if not line.startswith("theorem: total ")
        )
        h.update(f"{' '.join(argv)}\0{code}\0{out}\0{err}\0".encode())
    assert h.hexdigest() == CLI_GOLDEN
