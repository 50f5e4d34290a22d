"""Benchmark for C(A, B) mod p**N: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The ops of a workload are fixed by the seed (see workloads.py) and their
answers are computed here, in this process, by reference.py, which never
calls the package.  The timed work runs in worker processes started from
a fresh interpreter: each runs one closed-loop pass over every op (one
client, the next op only after the last returns) with cold caches.
Passes repeat until ``--seconds`` have gone by and at least 100 ops are
timed.  Every output is checked; an exception, a non-zero CLI exit or a
wrong answer counts as a failed op and the run goes on.

Times are scaled to a reference machine speed: each op's wall time is
multiplied by PROBE_REF_S over the mean of the probe times measured in
the worker just before and just after the op (worker.probe), and each
set-up time by PROBE_REF_S over the probe time measured right after it.
On a shared host the CPU's speed can shift by up to 1.5x for seconds at a
time, and raw wall times of runs on different seeds then spread by up to
a third (bench/README.md); the unscaled figures are printed too, before
the result line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
ops with spans around calls into the package and reports per-layer
metrics; its spans are written to .bench_out/.  The last line of stdout
is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

MIN_SAMPLES = 100  # at least ten beyond p90
SETUP_SPAWNS = 6  # set-up-only interpreters, besides one per pass
RUN_LIMIT_S = 170.0  # a hung pass is killed so the run still ends in time
# worker.probe's median time on the hardware the baseline was recorded on
# (bench/README.md), so that scaled times read about as wall times there.
PROBE_REF_S = 2.5e-3


class Expected:
    """Reference facts about one op."""

    def __init__(self, op: workloads.Op) -> None:
        self.residue, self.m = reference.binom_mod(op.a, op.b, op.p, op.N)
        self.modulus = op.p**op.N
        n = op.N - self.m
        groups = len(op.a) - self.m  # pseudo-digits = digits - valuation
        self.factors = 1 + max(groups - n, 0) if n > 0 else 0
        self.n = max(n, 0)


def _line_count(lines: list[str]) -> int:
    # Long outputs arrive as head, "... K lines", tail (see worker.summarize).
    if len(lines) > 2 and lines[2].startswith("... "):
        return int(lines[2].split()[1])
    return len(lines)


def check(op: workloads.Op, exp: Expected, out, err) -> str | None:
    """None when the op's output is right, else what was wrong."""
    if err is not None:
        return err
    R, M = exp.residue, exp.modulus
    if not op.argv:
        return None if out == R else f"residue {out}, expected {R}"
    code, lines, stderr = out
    if code != 0:
        return f"exit code {code}: {stderr.strip()}"
    if not lines:
        return "no output"
    kind = op.kind
    if kind in ("eval", "eval-dw"):
        ok = lines == [f"{R} (mod {M})"]
    elif kind == "eval-trace":
        ok = (
            lines[0] == f"method=theorem p={op.p} N={op.N} (m={exp.m}, n={exp.n})"
            and lines[-2:] == [f"  result: {R} (mod {M})", f"{R} (mod {M})"]
            and _line_count(lines) == exp.factors + 4
        )
    elif kind == "eval-records":
        ok = lines[-1] == f"result={R} modulus={M}" and _line_count(lines) == exp.factors + 1
    elif kind == "compare":
        ok = (
            len(lines) == 4
            and lines[-1] == "AGREE"
            and f"theorem: {R} (mod {M})" in lines
            and f"davis-webb: {R} (mod {M})" in lines
        )
    elif kind == "decompose":
        width = len(op.a)
        ok = (
            len(lines) == 4
            and _ungroup(lines[0], "A = ") == reference.base_text(op.a)
            and _ungroup(lines[1], "B = ") == reference.base_text(op.b, width)
            and lines[2:] == [f"pseudo-digits = {width - exp.m}", f"m = {exp.m}"]
        )
    else:
        return f"unknown op kind {kind}"
    return None if ok else f"unexpected output {lines[:4]}"


def failures_of(ops: list[workloads.Op], expected: list[Expected], result: dict) -> list[str]:
    """One line per op of a pass whose output is wrong."""
    out = []
    for i, op in enumerate(ops):
        why = check(op, expected[i], result["outputs"][i], result["errors"][i])
        if why is not None:
            out.append(f"op {i} ({op.kind} p={op.p} N={op.N} digits={len(op.a)}): {why}")
    return out


def _ungroup(line: str, prefix: str) -> str | None:
    """The digits of a ``decompose`` groups line, parentheses removed."""
    if not line.startswith(prefix):
        return None
    return line[len(prefix):].replace("(", "").replace(")", "")


class Worker:
    """Starts timed processes from a fresh interpreter."""

    def __init__(self) -> None:
        self.cmd = [sys.executable, str(HERE / "worker.py"), str(SRC)]
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")

    def run(self, payload: str, timeout: float) -> tuple[float, float, dict | None, str]:
        """(set-up seconds, probe seconds, pass result or None, stderr) of one process."""
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            self.cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, env=self.env, cwd=ROOT,
        )
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - t0
            probe = _float(proc.stdout.readline()) if ready.strip() == "ready" else None
            if not probe:
                proc.kill()
                _, err = proc.communicate()
                raise SystemExit(f"worker failed during set-up:\n{err}")
            out, err = proc.communicate(payload, timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            _, err = proc.communicate()
            return setup, probe, None, f"pass killed after {timeout:.0f}s\n{err}"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not out.strip():
            return setup, probe, None, f"worker exit {proc.returncode}\n{err}"
        return setup, probe, json.loads(out), err


def _float(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _scales(ps: dict) -> list[float]:
    """Per op of a pass: PROBE_REF_S over the mean of the probes around it."""
    probes = ps["probes"]
    return [PROBE_REF_S * 2 / (probes[i] + probes[i + 1]) for i in range(len(probes) - 1)]


def scaled_latencies(ps: dict) -> list[float]:
    """Per-op seconds of a pass at the reference speed of PROBE_REF_S."""
    return [t * f for t, f in zip(ps["latencies"], _scales(ps))]


def _ops_per_s(latencies: list[list[float]]) -> float:
    # Ops per pass over the sum of each op's median latency across passes:
    # a burst of load on the machine slows a few samples, not the figure.
    return len(latencies[0]) / sum(statistics.median(x) for x in zip(*latencies))


def timings(latencies: list[list[float]], setups: list[float]) -> dict:
    """The timed end-to-end metrics of per-pass op latencies and set-up times."""
    lat = [x for ps in latencies for x in ps]
    return {
        "ops_per_s": (_ops_per_s(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (_quantile(lat, 90) * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
    }


def end_to_end(passes: list[dict], setups: list[tuple[float, float]], attempted: int,
               failed: int) -> dict:
    """End-to-end metrics; ``setups`` holds (set-up seconds, probe seconds)."""
    t = timings(
        [scaled_latencies(ps) for ps in passes],
        [s * PROBE_REF_S / probe for s, probe in setups],
    )
    return {
        "ops_per_s": t["ops_per_s"],
        "latency_p50_ms": t["latency_p50_ms"],
        "latency_p90_ms": t["latency_p90_ms"],
        "success_ratio": (1 - failed / attempted, "ratio"),
        "peak_rss_mb": (statistics.median(ps["rss_kb"] for ps in passes) / 1024, "MB"),
        "setup_s": t["setup_s"],
    }


def _span_times(spans: list[list], scales: list[float]) -> dict[str, float]:
    """Per-layer seconds of one pass from its spans, each scaled as its op."""
    total: dict[str, float] = defaultdict(float)
    children = defaultdict(float)  # parent index -> seconds in direct children
    blocks = defaultdict(float)  # parent index -> seconds in block primitive children
    took = [(end - start) * scales[op] for _, start, end, _, op in spans]
    for (name, _, _, parent, _), t in zip(spans, took):
        total[name] += t
        if parent >= 0:
            children[parent] += t
            if name == "engine.exact_binom_mod":
                blocks[parent] += t
    theorem = walk = cli_self = 0.0
    for i, (name, t) in enumerate(zip((sp[0] for sp in spans), took)):
        if name == "engine.theorem":
            own = t - (children[i] - blocks[i])
            theorem += own
            walk += own - blocks[i]
        elif name == "cli.main":
            cli_self += t - children[i]
    to_base_p = total["digits.to_base_p"]
    return {
        "digits.parse_natural_s": total["digits.parse_natural"],
        "digits.to_base_p_s": to_base_p,
        "pseudo.decompose_s": total["pseudo.decompose"],
        "pseudo.segment_s": total["pseudo.decompose"] - to_base_p,
        "engine.theorem_s": theorem,
        "engine.walk_s": walk,
        "engine.block_primitive_s": total["engine.exact_binom_mod"],
        "engine.lucas_s": total["engine.lucas"],
        "engine.davis_webb_s": total["engine.davis_webb"],
        "engine.format_trace_s": total["engine.format_trace"],
        "oracle.binom_exact_s": total["oracle.binom_exact"],
        "cli.main_s": total["cli.main"],
        "cli.self_s": cli_self,
    }


def _pass_counts(ps: dict) -> dict[str, float]:
    c = ps["counts"]
    calls = ps["block_hits"] + ps["block_misses"]
    brackets = ps["bracket_hits"] + ps["bracket_misses"]
    theorem_ops = c.get("theorem_ops", 0)
    return {
        "pseudo.digits": c.get("digits", 0),
        "pseudo.groups": c.get("groups", 0),
        "pseudo.max_group": c["max_group"],
        "engine.short_circuit_ratio": c.get("short_circuits", 0) / theorem_ops if theorem_ops else 0,
        "engine.factors": c.get("factors", 0),
        "engine.block_calls": calls,
        "engine.block_hit_ratio": ps["block_hits"] / calls if calls else 0,
        "engine.block_computed": c.get("block_computed", 0),
        "engine.block_mults": c.get("block_mults", 0),
        "engine.block_max_operand": c["block_max_operand"],
        "engine.bracket_hit_ratio": ps["bracket_hits"] / brackets if brackets else 0,
    }


def per_layer(passes: list[dict]) -> tuple[dict, bool]:
    """Per-layer metrics and whether every pass counted the same work."""
    times = [_span_times(ps["spans"], _scales(ps)) for ps in passes]
    counts = [_pass_counts(ps) for ps in passes]
    metrics = {k: (statistics.median(t[k] for t in times), "s") for k in times[0]}
    units = {"engine.short_circuit_ratio": "ratio", "engine.block_hit_ratio": "ratio",
             "engine.bracket_hit_ratio": "ratio"}
    metrics.update({k: (v, units.get(k, "count")) for k, v in counts[0].items()})
    metrics["bench.traced_ops_per_s"] = (_ops_per_s([scaled_latencies(ps) for ps in passes]), "1/s")
    return metrics, all(c == counts[0] for c in counts)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()
    if not (SRC / "ppbinom" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'ppbinom'}", file=sys.stderr)
        return 2

    ops = workloads.generate(args.workload, args.seed)
    expected = [Expected(op) for op in ops]
    payload = json.dumps({"trace": bool(args.trace), "ops": [op.wire() for op in ops]})
    worker = Worker()

    worker.run("", 60)  # writes bytecode caches; not a sample
    setups = [worker.run("", 60)[:2] for _ in range(SETUP_SPAWNS)]
    passes: list[dict] = []
    attempted = failed = 0
    failures: list[str] = []
    min_passes = math.ceil(MIN_SAMPLES / len(ops))
    durations: list[float] = []
    measure_start = time.perf_counter()
    # Start another pass while it is expected to end within --seconds.
    while len(durations) < min_passes or (
        time.perf_counter() - measure_start + statistics.median(durations) <= args.seconds
    ):
        left = RUN_LIMIT_S - (time.perf_counter() - started)
        if left < 5:
            failures.append("run time limit reached before the minimum number of passes")
            break
        t0 = time.perf_counter()
        setup, probe, result, err = worker.run(payload, left)
        durations.append(time.perf_counter() - t0)
        setups.append((setup, probe))
        attempted += len(ops)
        if result is None:
            failed += len(ops)
            failures.append(err.strip())
            continue
        passes.append(result)
        wrong = failures_of(ops, expected, result)
        failed += len(wrong)
        failures += wrong
    correct = failed == 0 and bool(passes)

    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace} "
        f"passes={len(passes)} ops/pass={len(ops)} setup_samples={len(setups)}"
    )
    if not passes:
        metrics = {}
    elif args.trace:
        metrics, steady = per_layer(passes)
        if not steady:
            correct = False
            failures.append("per-layer counts differ between passes of the same ops")
        OUT_DIR.mkdir(exist_ok=True)
        trace_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace.json"
        with open(trace_file, "w") as fh:
            json.dump({"span": ["name", "start_s", "end_s", "parent", "op"],
                       "passes": [ps["spans"] for ps in passes]}, fh)
        print(f"spans written to {trace_file.relative_to(ROOT)}")
    else:
        metrics = end_to_end(passes, setups, attempted, failed)
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:.6g} {unit}")
    if passes:
        wall = timings([ps["latencies"] for ps in passes], [s for s, _ in setups])
        for name, (value, unit) in wall.items():
            print(f"  {'unscaled ' + name:28s} {value:.6g} {unit}")
        probes = [x for ps in passes for x in ps["probes"]]
        print(f"  {'probe median':28s} {statistics.median(probes) * 1e3:.4g} ms"
              f" (reference {PROBE_REF_S * 1e3:.4g} ms)")
    print(f"  {'fail_ratio':28s} {failed / max(attempted, 1):.6g} ({failed}/{attempted} ops)")
    for line in failures[:20]:
        print(f"  FAILED {line}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
