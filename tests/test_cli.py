"""Command-line surface: output formats, golden text, exit codes."""

import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from helpers import from_digits

from ppbinom import cli, engine
from ppbinom.pseudo import decompose

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*args, timeout):
    """``python ARGS`` in a fresh interpreter, source tree first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout
    )


def run_module(*argv, timeout):
    """``python -m ppbinom ARGV`` in a fresh interpreter, source tree first."""
    return run_python("-m", "ppbinom", *argv, timeout=timeout)


def half_digit_pair(p, digits):
    """Decimal A, B with A's base-p digits in p's top quarter and each of
    B's near half of A's: every digit block is near its largest."""
    rng = random.Random(p)
    a = [rng.randrange(3 * p // 4, p) for _ in range(digits)]
    b = [rng.randrange(x * 9 // 20, x * 11 // 20 + 1) for x in a]
    return [str(from_digits(ds, p)) for ds in (a, b)]


class TestModuleEntry:
    def test_python_dash_m(self):
        proc = run_module(
            "eval", "--prime", "3", "-N", "5", "1221121202", "1011012021", timeout=60
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "18 (mod 243)"


class TestEval:
    def test_theorem_trace_golden(self, capsys):
        code, out, err = run(
            capsys,
            "eval", "--prime", "3", "--mod-exp", "5", "--method", "theorem",
            "--trace", "1221121202", "1011012021",
        )
        assert code == 0
        assert out.splitlines()[-1] == "18 (mod 243)"
        # the factor table carries both the integer and the factored forms
        for needle in (
            "8",
            "14/8",
            "23/8",
            "30/4 = 3^1 10/4",
            "45/75 = 3^2 5/3^1 25",
            "90/207 = 3^2 10/3^2 23",
        ):
            assert needle in out

    def test_lucas_self(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--prime", "5", "--mod-exp", "1", "--method", "lucas",
            "342", "342",
        )
        assert code == 0
        assert out.strip() == "1 (mod 5)"

    def test_davis_webb(self, capsys):
        code, out, _ = run(
            capsys,
            "eval", "--prime", "3", "--mod-exp", "5", "--method", "davis-webb",
            "21202112", "12021110",
        )
        assert code == 0
        assert out.strip() == "117 (mod 243)"

    def test_exact_method(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--prime", "2", "--mod-exp", "4", "1010", "0101",
            "--method", "exact",
        )
        assert code == 0
        assert out.strip() == "12 (mod 16)"

    def test_all_methods(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--prime", "3", "--mod-exp", "5", "--method", "all",
            "21202112", "12021110",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert "theorem: 117 (mod 243)" in lines
        assert "davis-webb: 117 (mod 243)" in lines
        assert "exact: 117 (mod 243)" in lines
        assert any(line.startswith("lucas: ") for line in lines)

    def test_all_methods_skip_oracle_over_guard(self, capsys):
        # Exact C(A, B) would have ~10^21 digits: the oracle is skipped, as
        # in compare, instead of ending the run with exit 2.
        code, out, err = run(
            capsys, "eval", "--prime", "9223372036854775783", "--radix", "10",
            "-N", "1", "--method", "all",
            "123456789012345678901234567890", "98765432109876543210",
        )
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert lines[:3] == [
            f"{name}: 0 (mod 9223372036854775783)"
            for name in ("theorem", "davis-webb", "lucas")
        ]
        assert lines[3].startswith("exact: skipped (")
        assert len(lines) == 4

    def test_decimal_radix(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--prime", "3", "--mod-exp", "5", "--radix", "10",
            "38360", "22741",
        )
        assert code == 0
        assert out.strip() == "18 (mod 243)"

    def test_records_format(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--prime", "3", "--mod-exp", "5", "--format", "records",
            "1221121202", "1011012021",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "result=18 modulus=243"
        assert lines[0].startswith("index=5 num_block=122/101 den_block=- ")

    def test_records_requires_single_method(self, capsys):
        code, _, err = run(
            capsys, "eval", "--prime", "3", "--method", "all", "--format", "records",
            "12", "11",
        )
        assert code == 2
        assert "records" in err


class TestDecompose:
    def test_base5_golden(self, capsys):
        code, out, _ = run(
            capsys, "decompose", "--prime", "5", "432321433012", "323411244003",
        )
        assert code == 0
        assert out.splitlines() == [
            "A = (4)(323)(2)(1)(433)(0)(12)",
            "B = (3)(234)(1)(1)(244)(0)(03)",
            "pseudo-digits = 7",
            "m = 5",
        ]

    def test_base3_golden(self, capsys):
        code, out, _ = run(
            capsys, "decompose", "--prime", "3", "1221121202", "1011012021",
        )
        assert code == 0
        assert "A = (1)(2)(2)(1)(1)(21)(20)(2)" in out
        assert "B = (1)(0)(1)(1)(0)(12)(02)(1)" in out
        assert "m = 2" in out

    def test_self_pair_all_singletons(self, capsys):
        code, out, _ = run(capsys, "decompose", "--prime", "7", "123456", "123456")
        assert code == 0
        assert "m = 0" in out
        a_line = out.splitlines()[0]
        assert "(" + ")(".join("123456") + ")" in a_line


class TestCompare:
    def test_agreement(self, capsys):
        code, out, _ = run(
            capsys, "compare", "--prime", "3", "--mod-exp", "5",
            "21202112", "12021110",
        )
        assert code == 0
        assert "AGREE" in out
        assert out.count("117 (mod 243)") == 3

    def test_small_random_pair(self, capsys):
        code, out, _ = run(capsys, "compare", "--prime", "2", "--mod-exp", "3",
                           "--radix", "10", "97", "31")
        assert code == 0
        assert "AGREE" in out

    def test_exact_skipped_when_too_large(self, capsys):
        big_a = "2" * 2000
        big_b = "1" * 2000
        code, out, _ = run(
            capsys, "compare", "--prime", "3", "--mod-exp", "4", big_a, big_b,
        )
        assert code == 0
        assert "exact: skipped" in out
        assert "AGREE" in out

    def test_long_top_digit_stripping(self, capsys):
        # The Davis-Webb bracket strips all 1200 top digits of this pair;
        # stripping by recursion died with a RecursionError and exit 1.
        code, out, err = run(
            capsys, "compare", "--prime", "3", "--mod-exp", "1200",
            "1" + "0" * 1200, "2" * 1200,
        )
        assert code == 0
        assert "AGREE" in out
        assert "Traceback" not in out + err

    def test_corrupted_engine_disagrees(self, capsys, monkeypatch):
        original = engine.theorem_evaluate

        def wrong(A, B, p, N, trace=True):
            res, tr = original(A, B, p, N, trace=trace)
            return (res + 1) % p**N, tr

        monkeypatch.setattr(cli.engine, "theorem_evaluate", wrong)
        code, out, _ = run(
            capsys, "compare", "--prime", "3", "--mod-exp", "5",
            "21202112", "12021110",
        )
        assert code == 1
        assert "DISAGREE" in out


class TestBoundaries:
    """Extreme N and p, each in a fresh interpreter under a time bound."""

    def test_large_mod_exp(self):
        proc = run_module("compare", "--prime", "3", "-N", "5000", "2101", "1021", timeout=2)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[-1] == "AGREE"

    def test_prime_near_two_to_63(self):
        proc = run_module(
            "compare", "--prime", "9223372036854775783", "--radix", "10", "-N", "2",
            "1000", "300", timeout=2,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[-1] == "AGREE"

    def test_large_mod_exp_over_loop_budget(self):
        # m = 3000 leaves width-2000 blocks mod 2**2000, over the table
        # budget, and about 10^602 loop steps.
        proc = run_module(
            "compare", "--prime", "2", "-N", "5000", "1" + "0" * 3000, "1" + "1" * 2000,
            timeout=2,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stdout + proc.stderr

    def test_large_prime_blocks(self):
        # 40 blocks of about p/4 loop steps each took 6.4-6.6 s a command
        # before checkpoints
        pair = ("--prime", "999983", "--radix", "10", "-N", "1", *half_digit_pair(999983, 40))
        proc = run_module("compare", *pair, timeout=2)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[-1] == "AGREE"
        lucas = run_module("eval", "--method", "lucas", *pair, timeout=2)
        theorem = run_module("eval", *pair, timeout=2)
        assert lucas.returncode == theorem.returncode == 0
        assert lucas.stdout == theorem.stdout

    def test_large_prime_past_the_old_setup(self):
        # each exited 2 at about 5 * 10**7 loop steps while the e = 1
        # checkpoints took p steps to set up.  C(p - 1, k) = (-1)**k mod p.
        p = 100000007
        k = (p - 1) // 2
        proc = run_module(
            "eval", "--prime", str(p), "--radix", "10", "-N", "1", str(p - 1), str(k), timeout=10
        )
        assert proc.returncode == 0
        assert proc.stdout == f"{p - 1} (mod {p})\n"
        pair = ("--prime", str(p), "--radix", "10", "-N", "1", str(p * p - 1), str(k + (k + 1) * p))
        lucas = run_module("eval", "--method", "lucas", *pair, timeout=10)
        assert lucas.returncode == 0
        assert lucas.stdout == f"{p - 1} (mod {p})\n"
        proc = run_module("compare", *pair, timeout=10)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[-1] == "AGREE"

    def test_mid_prime_blocks_at_width_two(self):
        # blocks below 1009**2 took 7.1 s by the loop
        proc = run_module(
            "compare", "--prime", "1009", "--radix", "10", "-N", "2",
            *half_digit_pair(1009, 40), timeout=2,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[-1] == "AGREE"

    def test_large_prime_at_width_two(self):
        # exited 2 over the loop budget while p > 2**14 at e >= 2 had no checkpoints
        pair = ("--prime", "16411", "--radix", "10", "-N", "2", "269320000", "134660000")
        proc = run_module("eval", *pair, timeout=2)
        assert proc.returncode == 0
        assert proc.stdout == "242861307 (mod 269320921)\n"
        proc = run_module("compare", *pair, timeout=2)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[-1] == "AGREE"

    def test_binary_blocks_above_the_table_budget(self):
        # 2000-digit m = 0 pairs at p = 2 took 2.4-4.4 s a command while
        # every position took two block binomials from the checkpoints
        rng = random.Random(2000)
        a = [1] + [rng.randrange(2) for _ in range(1999)]
        b = [rng.randrange(x + 1) for x in a]
        A, B = ("".join(map(str, ds)) for ds in (a, b))
        for N in (16, 18, 20):
            proc = run_module("eval", "--prime", "2", "-N", str(N), A, B, timeout=2)
            assert proc.returncode == 0
            if N == 16:
                want = engine.theorem_evaluate(int(A, 2), int(B, 2), 2, N)[0]
                assert proc.stdout == f"{want} (mod {2**N})\n"

    def test_lucas_on_long_pairs(self):
        # Lucas divided all of A and B by p for each digit: 8.4 s in-process
        # on a 10^5-digit base-3 pair with m = 0
        rng = random.Random(10**5)
        a = [rng.randrange(1, 3)] + rng.choices(range(3), k=10**5 - 1)
        b = [rng.randrange(x + 1) for x in a]
        pair = ("--prime", "3", *("".join(map(str, ds)) for ds in (a, b)))
        lucas = run_module("eval", "--method", "lucas", *pair, timeout=2)
        theorem = run_module("eval", *pair, timeout=2)
        assert lucas.returncode == theorem.returncode == 0
        assert lucas.stdout == theorem.stdout

    def test_million_digit_pair(self):
        # Linux caps one exec argument at 131071 bytes, so the 10^6-digit
        # text reaches cli.main in-process, under the default int/str limit.
        # Parsing it one character at a time would take minutes.
        code = """if True:
            import random, sys
            from ppbinom import cli
            rng = random.Random(6)
            A = "2" + "".join(rng.choices("012", k=10**6 - 7)) + "000000"
            B = "1" + "".join(rng.choices("012", k=10**6 - 7)) + "111111"
            sys.exit(cli.main(["eval", "--prime", "3", "-N", "6", A, B]))
        """
        proc = run_python("-c", code, timeout=10)
        assert proc.returncode == 0
        assert proc.stdout == "0 (mod 729)\n"
        assert "Traceback" not in proc.stderr

    def test_modulus_too_long_to_print(self):
        # N = 10000 used to compute the residue and then fail to print
        # p**N; N = 2*10^7 ran for over a minute
        for N in ("10000", "20000000"):
            for command in ("eval", "compare"):
                proc = run_module(command, "--prime", "3", "-N", N, "1", "0", timeout=2)
                assert proc.returncode == 2
                assert proc.stdout == ""
                assert proc.stderr.startswith(f"error: modulus 3**{N} has about ")
                assert f"int-to-str limit of {sys.get_int_max_str_digits()}" in proc.stderr
                assert "Traceback" not in proc.stderr
        proc = run_module("eval", "--prime", "2", "-N", "14000", "1", "0", timeout=2)
        assert proc.returncode == 0
        assert proc.stdout.endswith(f" (mod {2**14000})\n")

    def test_bench_modulus_too_long_to_print(self):
        # bench had no modulus bound: N = 2*10^7 ran past 20 s
        proc = run_module(
            "bench", "--prime", "3", "-N", "20000000", "--digits", "5", "--trials", "1",
            timeout=2,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: modulus 3**20000000 has about ")
        assert "Traceback" not in proc.stderr

    def test_bench_digits_bound(self):
        # radix conversion stays superlinear: at the bound's 2**20 bits a
        # trial took 0.6-2.4 s on a shared 2-core host, nearly all of it
        # converting A and B, so --digits had no practical end
        for p, digits in (("2", "2000000"), ("2305843009213693951", "100000")):
            proc = run_module(
                "bench", "--prime", p, "-N", "1", "--digits", digits, "--trials", "1",
                timeout=2,
            )
            assert proc.returncode == 2
            assert proc.stdout == ""
            assert proc.stderr == (
                f"error: --digits {digits} at p = {p} breaks digits * p.bit_length() <= 2**20\n"
            )

    def test_bench_trials_bound(self):
        # --trials had no cap: 100000 trials of 500000 base-2 digits would
        # have run for about a day
        for p, digits, trials in (("2", "500000", "100000"), ("2", "1", str(2**21 + 1))):
            proc = run_module(
                "bench", "--prime", p, "-N", "1", "--digits", digits, "--trials", trials,
                timeout=2,
            )
            assert proc.returncode == 2
            assert proc.stdout == ""
            assert proc.stderr == (
                f"error: --trials {trials} of {digits} digits at p = {p} breaks "
                "trials * digits * p.bit_length() <= 2**22\n"
            )

    def test_bench_oracle_shares_its_cost_guard(self):
        # each trial's oracle check could take up to about a second: 200
        # trials of 12 base-3 digits took 12.8 s, so 2000 about 2 minutes
        proc = run_module(
            "bench", "--prime", "3", "-N", "3", "--digits", "12", "--trials", "2000",
            timeout=10,
        )
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        (agreed,) = [line for line in lines if line.startswith("oracle: agreed ")]
        (skipped,) = [line for line in lines if line.startswith("oracle: skipped ")]
        ok, checked = map(int, agreed.split()[2].split("/"))
        assert ok == checked
        assert checked + int(skipped.split()[2]) == 2000

    def test_one_long_group(self):
        # one group of 655001 binary digits: growing the group's values as
        # big ints took 6.7-7.7 s a command
        pair = ("--prime", "2", "--radix", "32", "1" + "0" * 131000, "1")
        proc = run_module("decompose", *pair, timeout=2)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[-2:] == ["pseudo-digits = 1", "m = 655000"]
        proc = run_module("eval", "-N", "4", "--trace", *pair, timeout=2)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "method=theorem p=2 N=4 (m=655000, n=0)"

    def test_oracle_cost_guard(self):
        # C(10^6, 5*10^5) has 3*10^5 digits, inside the size guard; the
        # oracle's loop ran for minutes before its cost guard.
        pair = ("--prime", "3", "--radix", "10", "-N", "2", "1000000", "500000")
        for command in (("compare",), ("eval", "--method", "all")):
            proc = run_module(*command, *pair, timeout=10)
            assert proc.returncode == 0
            assert "exact: skipped (C(1000000, 500000) would take about" in proc.stdout
        proc = run_module("eval", "--method", "exact", *pair, timeout=10)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: C(1000000, 500000) would take about")
        assert "Traceback" not in proc.stdout + proc.stderr


    @pytest.mark.parametrize(
        "pair",
        [
            ("--prime", "7", "--radix", "10", "-N", "2", "1" + "0" * 25, "5000000"),
            ("--prime", "11", "-N", "2", "751393538505097323767a15221543", "8a6a2509"),
        ],
    )
    def test_oracle_guard_past_float_precision(self, pair):
        # Past a ~ 10**18 float lgamma cancelled to a 1-digit estimate, so
        # both guards passed and the oracle ran min(b, a-b) big-int steps.
        proc = run_module("compare", *pair, timeout=2)
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0].startswith("exact: skipped (")
        assert [line.split(":")[0] for line in lines[1:]] == ["theorem", "davis-webb", "AGREE"]
        assert lines[1].split(":")[1] == lines[2].split(":")[1]
        assert "Traceback" not in proc.stdout + proc.stderr

    def test_exact_method_past_float_precision(self):
        proc = run_module(
            "eval", "--prime", "11", "-N", "13", "--method", "exact",
            "157a7a1081a837a6783580320a3959", "81732735", timeout=2,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr


class TestBench:
    def test_small_bench_checks_oracle(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--prime", "2", "--mod-exp", "3", "--digits", "12",
            "--trials", "30", "--seed", "9",
        )
        assert code == 0
        assert "oracle: agreed 30/30" in out
        assert "pseudo-digit lengths:" in out

    def test_single_digit_pairs(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--prime", "5", "--mod-exp", "2", "--digits", "1",
            "--trials", "10", "--seed", "3",
        )
        assert code == 0
        assert "oracle: agreed 10/10" in out

    def test_reproducible(self, capsys):
        _, out1, _ = run(capsys, "bench", "--prime", "3", "--mod-exp", "4",
                         "--digits", "30", "--trials", "5", "--seed", "11")
        _, out2, _ = run(capsys, "bench", "--prime", "3", "--mod-exp", "4",
                         "--digits", "30", "--trials", "5", "--seed", "11")
        dist1 = [l for l in out1.splitlines() if l.startswith("pseudo-digit")]
        dist2 = [l for l in out2.splitlines() if l.startswith("pseudo-digit")]
        assert dist1 == dist2

    def test_large_pairs_skip_oracle(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--prime", "3", "--mod-exp", "8", "--digits", "4000",
            "--trials", "3", "--seed", "1",
        )
        assert code == 0
        assert "oracle: skipped 3" in out

    def test_ten_thousand_digit_pairs(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--prime", "3", "--mod-exp", "8", "--digits", "10000",
            "--trials", "2", "--seed", "2",
        )
        assert code == 0
        assert "oracle: skipped 2" in out
        assert "theorem: total" in out

    def test_times_the_eval_call(self, capsys, monkeypatch):
        # bench times the untraced call eval makes, and its length
        # histogram comes from segmenting the same pairs outside the timer.
        calls = []
        original = engine.theorem_evaluate

        def recording(*args, **kwargs):
            calls.append((args, kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(cli.engine, "theorem_evaluate", recording)
        code, out, _ = run(
            capsys, "bench", "--prime", "3", "-N", "4", "--digits", "12",
            "--trials", "5", "--seed", "1",
        )
        assert code == 0 and len(calls) == 5
        lengths = Counter()
        for (A, B, p, N), kwargs in calls:
            assert (p, N, kwargs) == (3, 4, {"trace": False})
            assert 3**11 <= A < 3**12 and B <= A
            bounds = decompose(A, B, 3).bounds
            lengths.update(map(int.__sub__, bounds[1:], bounds[:-1]))
        dist = " ".join(f"{k}:{v}" for k, v in sorted(lengths.items()))
        assert f"pseudo-digit lengths: {dist}" in out.splitlines()

    def test_large_prime_needs_no_radix(self, capsys):
        # bench reads no A/B text, so p > 36 needs no --radix
        code, out, err = run(
            capsys, "bench", "--prime", "37", "--digits", "3", "--trials", "2",
        )
        assert (code, err) == (0, "")
        assert "oracle: agreed 2/2" in out


class TestErrors:
    def test_not_prime(self, capsys):
        code, _, err = run(capsys, "eval", "--prime", "9", "11", "10")
        assert code == 2
        assert "not prime" in err

    def test_order_violation(self, capsys):
        # every command that reads a pair reports A < B in the same words
        for command in ("eval", "decompose"):
            code, _, err = run(capsys, command, "--prime", "3", "12", "21")
            assert code == 2
            assert err == "error: need a >= b, got a=5 < b=7\n"

    def test_invalid_digit_for_radix(self, capsys):
        code, _, err = run(capsys, "eval", "--prime", "3", "141", "12")
        assert code == 2
        assert "digit" in err

    def test_large_prime_needs_radix(self, capsys):
        code, _, err = run(capsys, "eval", "--prime", "101", "7", "3")
        assert code == 2
        assert "--radix" in err
        code, out, _ = run(
            capsys, "eval", "--prime", "101", "--radix", "10", "--mod-exp", "2",
            "7", "3",
        )
        assert code == 0
        assert out.strip() == "35 (mod 10201)"

    @pytest.mark.parametrize(
        "command",
        [
            ("decompose",),
            ("eval", "-N", "2", "--trace"),
            ("eval", "-N", "2", "--format", "records"),
            ("eval", "-N", "2", "--method", "davis-webb", "--trace"),
        ],
        ids=["decompose", "trace", "records", "davis-webb-trace"],
    )
    def test_large_prime_refuses_digit_text(self, capsys, command):
        # digit 100 of base 101 has no character; this was an IndexError
        # traceback with exit 1
        code, out, err = run(capsys, *command, "--prime", "101", "--radix", "10", "100", "50")
        assert code == 2
        assert out == ""
        assert err == "error: base-p text output (decompose, --trace, records) needs p <= 36\n"

    def test_over_budget_block_fails_fast(self):
        # p**N above the table budget and min(b, a-b) ~ 5e8 loop steps
        proc = run_module(
            "eval", "--prime", "1000000007", "--radix", "10", "-N", "1",
            "999999999", "500000000", timeout=2,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stdout + proc.stderr

    def test_bad_mod_exp(self, capsys):
        code, _, err = run(capsys, "eval", "--prime", "3", "--mod-exp", "0", "2", "1")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["decompose", "--prime", "3", "--mod-exp", "2", "12", "1"],
            ["bench", "--prime", "3", "--radix", "10", "--trials", "1"],
        ],
        ids=["decompose-mod-exp", "bench-radix"],
    )
    def test_options_a_command_ignores_are_refused(self, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", "--prime", "3", "--method", "nonsense", "1", "0"])
        assert exc.value.code == 2
