"""Record the benchmark's baseline at the current commit in bench/baseline.json.

    python3 bench/baseline.py

Runs every workload of BENCHMARK.json untraced on seeds 1-10 and traced on
seeds 1-5 plus a second traced run of seed 1, then times three single
points quoted in ROADMAP.md, each in a fresh process.  For every metric
it stores the values, their median and their spread, the distance between
the first and third quartile as a share of the median.  Takes about half
an hour; run nothing else meanwhile.
"""

from __future__ import annotations

import json
import random
import statistics
import subprocess
import sys

import run
import workloads

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEEDS = range(1, 11)
TRACED_SEEDS = range(1, 6)
COUNTS = ("engine.block_computed", "engine.block_calls", "engine.factors", "pseudo.groups")


def one_run(workload: str, seed: int, trace: int) -> dict:
    cmd = BENCH["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, check=True, timeout=300)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    print(workload, seed, trace, result["correct"], result["failed"], flush=True)
    return result


def summary(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": med,
            "spread": (q3 - q1) / med if med else 0.0,
            "values": values,
        }
    return out


def roadmap_points() -> dict:
    """Median of five fresh-process timings of single ops quoted in ROADMAP.md."""
    rng = random.Random("roadmap")
    points = {
        "random 1e5 digits p=3 N=8 (ROADMAP: 115-150 ms)":
            workloads.Op("theorem", 3, 8, *workloads.random_pair(rng, 3, 10**5)),
        "m=0 200 digits p=3 N=8 (ROADMAP: 70-80 ms)":
            workloads.Op("theorem", 3, 8, *workloads.low_valuation_pair(rng, 3, 200, 0)),
        "p=1000003 N=1 20 digits, m=0 (ROADMAP: 388 ms)":
            workloads.Op("theorem", 1000003, 1, *workloads.low_valuation_pair(rng, 1000003, 20, 0)),
    }
    worker = run.Worker()
    out = {}
    for label, op in points.items():
        payload = json.dumps({"trace": False, "ops": [op.wire()]})
        times = []
        for _ in range(5):
            _, _, result, err = worker.run(payload, 120)
            if result is None or run.failures_of([op], [run.Expected(op)], result):
                raise SystemExit(f"{label}: failed\n{err}")
            times.append(result["latencies"][0] * 1e3)
        out[label] = {"median_ms": statistics.median(times), "values_ms": times}
        print(label, round(statistics.median(times), 1), "ms", flush=True)
    return out


def main() -> int:
    record = {"run_seconds": BENCH["run_seconds"], "workloads": {}}
    for w in (x["name"] for x in BENCH["workloads"]):
        untraced = [one_run(w, s, 0) for s in SEEDS]
        traced = [one_run(w, s, 1) for s in TRACED_SEEDS]
        repeat = one_run(w, TRACED_SEEDS[0], 1)
        plain, layers = summary(untraced), summary(traced)
        record["workloads"][w] = {
            "all_correct": all(r["correct"] for r in untraced + traced + [repeat]),
            "untraced": plain,
            "traced": layers,
            "tracing_overhead": 1 - layers["bench.traced_ops_per_s"]["median"] / plain["ops_per_s"]["median"],
            "counts_repeat": all(
                repeat["metrics"][k]["value"] == traced[0]["metrics"][k]["value"] for k in COUNTS
            ),
        }
    record["roadmap_points"] = roadmap_points()
    path = run.HERE / "baseline.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
