"""Alternating parent/change runs of the benchmark, written as one
``BENCH_<topic>.json``.

Usage::

    python3 tools/bench_pairs.py --parent PARENT_CHECKOUT --change . \
        --topic "..." --out BENCH_topic.json

The command, run length and workloads come from the BENCHMARK.json of
the checkout holding this script, as in ``bench/baseline.py``.  Pair i runs every workload once in each checkout, on
seed SEEDS[i % 2], the parent first in even pairs and the change first
in odd ones.  Then TRACED_PAIRS traced pairs of each TRACED workload give
the per-layer times.  For each metric the file holds both sides'
``bench/baseline.py`` summary (values, median, spread), how many pairs
the change read better (ties count for neither side) and the ratio of
the medians, change over parent.  ``source_lines`` records each
checkout's ``wc -l src/ppbinom/*.py`` total next to the metrics.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import baseline  # noqa: E402

SEEDS = (1, 2)
PAIRS = 10
TRACED = ("low_valuation", "large_prime", "cli_text")
TRACED_PAIRS = 3


def one_run(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    # baseline.one_run, but in either checkout rather than its own.
    cmd = baseline.BENCH["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(baseline.BENCH["run_seconds"]), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True, timeout=300)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    print(checkout, workload, seed, trace, result["correct"], result["failed"], file=sys.stderr)
    return result


def source_lines(checkout: Path) -> int:
    # wc -l counts newlines
    return sum(f.read_bytes().count(b"\n") for f in (checkout / "src" / "ppbinom").glob("*.py"))


def compare(parent: list[dict], change: list[dict], better: dict[str, str]) -> dict:
    sides = {"parent": baseline.summary(parent), "change": baseline.summary(change)}
    out = {}
    for name, p in sides["parent"].items():
        c = sides["change"][name]
        sign = -1 if better[name] == "higher" else 1
        wins = sum(sign * (cv - pv) < 0 for pv, cv in zip(p["values"], c["values"]))
        out[name] = {"parent": p, "change": c, "change_better_pairs": f"{wins}/{len(parent)}",
                     "change_over_parent_median": c["median"] / p["median"] if p["median"] else None}
    return out


def pairs(checkouts: dict[str, Path], workloads, count: int, trace: int) -> dict:
    results = {w: {"parent": [], "change": []} for w in workloads}
    for i in range(count):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for w in workloads:
            for side in order:
                results[w][side].append(one_run(checkouts[side], w, SEEDS[i % 2], trace))
    return results


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--topic", required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    spec = baseline.BENCH
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    checkouts = {"parent": args.parent, "change": args.change}
    parent_rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=args.parent,
                                capture_output=True, text=True).stdout.strip()
    doc = {
        "topic": args.topic,
        "parent": parent_rev or str(args.parent),
        "host": f"{platform.machine()} host, CPython {platform.python_version()}; "
                "times are bench/run.py's probe-scaled figures",
        "command": " ".join(["python3", "tools/bench_pairs.py", "--parent", "PARENT_CHECKOUT",
                             "--change", ".", "--topic", repr(args.topic), "--out", args.out.name]),
        "source_lines": {side: source_lines(path) for side, path in checkouts.items()},
        "end_to_end": {}, "per_layer_traced": {}, "failed_ops": {},
    }
    names = [w["name"] for w in spec["workloads"]]
    for w, sides in pairs(checkouts, names, PAIRS, 0).items():
        doc["end_to_end"][w] = compare(sides["parent"], sides["change"], better)
        doc["failed_ops"][w] = {s: sum(r["failed"] for r in rs) for s, rs in sides.items()}
    for w, sides in pairs(checkouts, TRACED, TRACED_PAIRS, 1).items():
        doc["per_layer_traced"][w] = compare(sides["parent"], sides["change"], better)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
