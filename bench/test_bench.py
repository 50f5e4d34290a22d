"""Tests of the benchmark itself: inputs, references, failure accounting, counts.

Run with ``python3 -m pytest bench -q`` from the repository root.
"""

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from ppbinom import cli, engine  # noqa: E402


def _payload_digest(workload: str, seed: int) -> str:
    ops = workloads.generate(workload, seed)
    wire = json.dumps([[op.a, op.b, op.wire()] for op in ops]).encode()
    return hashlib.sha256(wire).hexdigest()


def _smallest(workload: str, seed: int, count: int) -> list[workloads.Op]:
    return sorted(workloads.generate(workload, seed), key=lambda op: len(op.a))[:count]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(workload):
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import test_bench; "
        "print(test_bench._payload_digest(sys.argv[2], 11))"
    )
    env = dict(os.environ, PYTHONHASHSEED="1")
    other = subprocess.run(
        [sys.executable, "-c", code, str(HERE), workload],
        capture_output=True, text=True, env=env, check=True, timeout=300,
    ).stdout.strip()
    assert other == _payload_digest(workload, 11)
    assert _payload_digest(workload, 12) != other


def _digits(x: int, p: int) -> list[int]:
    out = []
    while x:
        x, r = divmod(x, p)
        out.append(r)
    return out or [0]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_reference_matches_math_comb(p):
    for N in range(1, 6):
        for A in range(0, 90):
            for B in range(A + 1):
                got, _ = reference.binom_mod(_digits(A, p), _digits(B, p), p, N)
                assert got == math.comb(A, B) % p**N, (A, B, p, N)


def test_first_order_expansion_matches_math_comb(monkeypatch):
    # Force the N = 2 expansion that large primes use onto small primes.
    monkeypatch.setattr(reference, "TABLE_LIMIT", 1)
    for p in (3, 5, 7, 11):
        for A in range(0, 3 * p * p, 2):
            for B in range(0, A + 1, 3):
                got, _ = reference.binom_mod(_digits(A, p), _digits(B, p), p, 2)
                assert got == math.comb(A, B) % (p * p), (A, B, p)


def test_conversions_agree_with_int_and_str():
    sys.set_int_max_str_digits(0)
    for p in (2, 3, 7, 1009):
        digits = workloads.random_pair(random.Random(p), p, 3000)[0]
        value = reference.to_int(digits, p)
        assert _digits(value, p) == digits
        assert reference.to_decimal(digits, p) == str(value)


def test_low_valuation_pairs_have_the_chosen_valuation():
    rng = random.Random(5)
    for p in (2, 3, 5):
        for m in range(6):
            a, b = workloads.low_valuation_pair(rng, p, 200, m)
            assert reference.borrows(a, b, p)[1] == m


def _failures(ops: list[workloads.Op]) -> list[str]:
    expected = [run.Expected(op) for op in ops]
    result = worker.run_pass({"trace": False, "ops": [op.wire() for op in ops]})
    return run.failures_of(ops, expected, result)


@pytest.mark.parametrize("workload", ["low_valuation", "cli_text"])
def test_wrong_evaluator_is_counted_as_failed(workload, monkeypatch):
    ops = _smallest(workload, 3, 6)
    assert _failures(ops) == []
    right = engine.theorem_evaluate

    def off_by_one(A, B, p, N, *args, **kwargs):
        residue, trace = right(A, B, p, N, *args, **kwargs)
        return (residue + 1) % p**N, trace

    monkeypatch.setattr(engine, "theorem_evaluate", off_by_one)
    wrong = _failures(ops)
    theorem_ops = [op for op in ops if op.kind in ("theorem", "eval", "eval-trace", "compare")]
    assert len(wrong) >= len(theorem_ops) > 0


def test_exceptions_and_exit_codes_are_counted(monkeypatch):
    # Library ops see the exception; the CLI turns it into exit code 2.
    ops = _smallest("large_prime", 2, 4) + _smallest("cli_text", 2, 6)

    def boom(*args, **kwargs):
        raise ArithmeticError("injected")

    for owner, name in ((engine, "theorem_evaluate"), (engine, "lucas_evaluate"),
                        (engine, "davis_webb_evaluate"), (cli, "decompose")):
        monkeypatch.setattr(owner, name, boom)
    assert len(_failures(ops)) == len(ops)


def test_traced_counts_repeat_across_runs():
    ops = _smallest("low_valuation", 4, 8) + _smallest("cli_text", 4, 6)
    payload = json.dumps({"trace": True, "ops": [op.wire() for op in ops]})
    counts = []
    for _ in range(2):
        _, _, result, err = run.Worker().run(payload, 120)
        assert result is not None, err
        assert run.failures_of(ops, [run.Expected(op) for op in ops], result) == []
        counts.append(run.per_layer([result])[0])
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(counts[0]) == {m["name"] for m in bench["per_layer"]}
    keys = ("engine.block_computed", "engine.block_calls", "engine.factors", "pseudo.groups")
    for key in keys:
        assert counts[0][key] == counts[1][key]
        assert counts[0][key][0] > 0, key


def test_end_to_end_names_match_benchmark_json():
    ops = _smallest("cli_text", 1, 3)
    result = worker.run_pass({"trace": False, "ops": [op.wire() for op in ops]})
    metrics = run.end_to_end([result], [(0.05, 2e-3)], len(ops), 0)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(k, u) for k, (_, u) in metrics.items()] == [
        (m["name"], m["unit"]) for m in bench["end_to_end"]
    ]
    assert all(v > 0 for v, _ in metrics.values())


def test_scaling_divides_by_the_probes_around_each_op():
    ref = run.PROBE_REF_S
    ps = {"latencies": [0.1, 0.2], "probes": [ref, 3 * ref, ref]}
    assert run.scaled_latencies(ps) == pytest.approx([0.05, 0.1])
    metrics = run.end_to_end([dict(ps, rss_kb=1024)], [(0.08, 2 * ref)], 2, 0)
    assert metrics["setup_s"][0] == pytest.approx(0.04)
