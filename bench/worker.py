"""Timed process: one closed-loop pass over a workload's ops.

Usage: ``python3 worker.py SRC_DIR`` with SRC_DIR first on PYTHONPATH.
It imports ppbinom from SRC_DIR, answers one tiny query, prints ``ready``
(the parent times set-up up to that line) and then the time of the speed
probe, then reads ``{"trace": bool, "ops": [...]}`` from stdin, runs the
ops one after another and prints one JSON line with per-op latencies,
probe times, outputs and errors.  Empty stdin ends it after set-up.

The probe is a fixed piece of work that does not call the package: the
parent divides each latency by the probe times measured just before and
after it, which takes out the changes in the host's speed while the
run goes on (see run.scaled_latencies).

With tracing on, wrappers replace public names of the package in this
process only, and record spans [name, start, end, parent index, op index]
in memory; they are printed with the pass result.
"""

import contextlib
import io
import json
import os
import statistics
import sys
import time
from collections import Counter

import ppbinom
from ppbinom import cli, digits, engine, oracle, pseudo

perf_counter = time.perf_counter

_PROBE_BIG = 7**6500
_PROBE_CHUNK = 2**1024 - 159


def probe() -> float:
    """Seconds taken by a fixed mix of the package's two kinds of work.

    Small-int arithmetic in an interpreted loop (as in the block
    primitive and digit loops) for about 80% of the time, and chunked
    big-int division (as in radix conversion) for the rest: a shared host
    can slow interpreted loops by up to 1.5x for seconds at a time and
    big-int division much less, so the probe has to mix them as the
    package does.
    """
    t0 = perf_counter()
    num = 1
    for i in range(1, 10500):
        t = 1000 + i
        while t % 3 == 0:
            t //= 3
        num = num * (t % 59049) % 59049
    n = _PROBE_BIG
    while n >= _PROBE_CHUNK:
        n, _ = divmod(n, _PROBE_CHUNK)
    return perf_counter() - t0


class Tracer:
    """Spans and counters recorded around calls into the package."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()
        self.block_max_operand = 0
        self.max_group = 0
        self.expansion = None

    def spanned(self, fn, name, after=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, perf_counter(), 0.0, parent, self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = perf_counter()
            if after is not None:
                # Counting runs in its own span so that self times can
                # leave it out.
                h0 = perf_counter()
                after(args, kwargs, result)
                spans.append(["trace.hook", h0, perf_counter(), parent, self.op])
            return result

        return traced

    def install(self) -> None:
        sp = self.spanned
        to_base_p = sp(digits.to_base_p, "digits.to_base_p")
        segment = sp(pseudo.decompose, "pseudo.decompose", self._on_decompose)

        def decompose(A, B, p):
            # Conversion of the same inputs through the public to_base_p,
            # timed just before the decomposition that repeats it.
            to_base_p(A, p)
            to_base_p(B, p)
            return segment(A, B, p)

        engine.decompose = cli.decompose = decompose
        cli.parse_natural = sp(cli.parse_natural, "digits.parse_natural")
        engine.exact_binom_mod = self._block(engine.exact_binom_mod)
        engine.theorem_evaluate = sp(engine.theorem_evaluate, "engine.theorem", self._on_theorem)
        engine.lucas_evaluate = sp(engine.lucas_evaluate, "engine.lucas")
        engine.davis_webb_evaluate = sp(engine.davis_webb_evaluate, "engine.davis_webb")
        engine.format_trace_text = sp(engine.format_trace_text, "engine.format_trace")
        engine.format_trace_records = sp(engine.format_trace_records, "engine.format_trace")
        oracle.binom_exact = sp(oracle.binom_exact, "oracle.binom_exact")
        cli.main = sp(cli.main, "cli.main")

    def _block(self, fn):
        traced = self.spanned(fn, "engine.exact_binom_mod")
        counts = self.counts

        def block(a, b, p, e):
            counts["block_computed"] += 1
            counts["block_mults"] += min(b, a - b)
            if a > self.block_max_operand:
                self.block_max_operand = a
            return traced(a, b, p, e)

        return block

    def _on_decompose(self, args, kwargs, e) -> None:
        self.expansion = e
        self.counts["digits"] += len(e.a_digits)
        self.counts["groups"] += e.num_pairs
        bounds = e.bounds
        self.max_group = max(self.max_group, max(map(int.__sub__, bounds[1:], bounds[:-1])))

    def _on_theorem(self, args, kwargs, result) -> None:
        N = args[3]
        e = kwargs.get("expansion") or self.expansion
        m = len(e.a_digits) - e.num_pairs
        self.counts["theorem_ops"] += 1
        if m >= N:
            self.counts["short_circuits"] += 1
        else:
            self.counts["factors"] += 1 + max(e.num_pairs - (N - m), 0)


def peak_rss_kb() -> int:
    """Peak resident set of this process since exec (VmHWM).

    ru_maxrss would also carry the parent's peak across fork and exec.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def summarize(text: str) -> list[str]:
    """CLI output for checking: every line if short, else head and tail."""
    lines = text.splitlines()
    if len(lines) <= 8:
        return lines
    return lines[:2] + [f"... {len(lines)} lines"] + lines[-3:]


def run_op(op: dict, A: int, B: int):
    kind = op["kind"]
    if kind == "theorem":
        return engine.theorem_evaluate(A, B, op["p"], op["N"], trace=False)[0]
    if kind == "lucas":
        return engine.lucas_evaluate(A, B, op["p"])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(op["argv"])
    return [code, out.getvalue(), err.getvalue()]


def run_pass(job: dict) -> dict:
    """Run every op of ``job`` once, in order, and collect what happened."""
    ops = job["ops"]
    ints = [
        (int(op["A"], 16), int(op["B"], 16)) if "A" in op else (0, 0) for op in ops
    ]
    tracer = Tracer() if job["trace"] else None
    if tracer:
        tracer.install()
    caches = (engine._binom_vu, engine._dw_bracket)
    before = [c.cache_info() for c in caches]

    latencies, probes, outputs, errors = [], [], [], []
    t0 = perf_counter()
    for i, op in enumerate(ops):
        if tracer:
            tracer.op = i
        A, B = ints[i]
        probes.append(probe())
        start = perf_counter()
        try:
            out = run_op(op, A, B)
            err = None
        except Exception as exc:  # every failure is counted, the pass goes on
            out, err = None, f"{type(exc).__name__}: {exc}"[:500]
        latencies.append(perf_counter() - start)
        if isinstance(out, list):
            out = [out[0], summarize(out[1]), out[2][:500]]
        outputs.append(out)
        errors.append(err)

    probes.append(probe())
    after = [c.cache_info() for c in caches]
    result = {
        "latencies": latencies,
        "probes": probes,
        "outputs": outputs,
        "errors": errors,
        "rss_kb": peak_rss_kb(),
        "block_hits": after[0].hits - before[0].hits,
        "block_misses": after[0].misses - before[0].misses,
        "bracket_hits": after[1].hits - before[1].hits,
        "bracket_misses": after[1].misses - before[1].misses,
    }
    if tracer:
        result["spans"] = [[n, s - t0, e - t0, par, o] for n, s, e, par, o in tracer.spans]
        result["counts"] = dict(
            tracer.counts,
            block_max_operand=tracer.block_max_operand,
            max_group=tracer.max_group,
        )
    return result


def main() -> int:
    src = os.path.realpath(sys.argv[1])
    if not os.path.realpath(ppbinom.__file__).startswith(src + os.sep):
        print(f"ppbinom imported from {ppbinom.__file__}, not {src}", file=sys.stderr)
        return 3
    # The package's first answer marks the end of set-up.
    ppbinom.theorem_evaluate(1, 0, 2, 1, trace=False)
    print("ready", flush=True)
    print(statistics.median(probe() for _ in range(3)), flush=True)
    raw = sys.stdin.read()
    if raw:
        json.dump(run_pass(json.loads(raw)), sys.stdout, separators=(",", ":"))
        sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
