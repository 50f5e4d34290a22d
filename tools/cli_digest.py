"""One sha256 over the CLI's output on the benchmark's ``cli_text`` commands.

Usage::

    python3 tools/cli_digest.py CHECKOUT

Runs every ``cli_text`` command of seeds 1 and 2, as generated by this
repository's ``bench/workloads.py``, in-process through ``cli.main`` of
CHECKOUT's ``src``, and prints the sha256 of each command's exit code,
stdout and stderr, in order, with the command count.  Equal digests for
two checkouts mean byte-identical output on those commands.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

SEEDS = (1, 2)


def main() -> None:
    checkout = Path(sys.argv[1]).resolve()
    sys.path[:0] = [str(checkout / "src"), str(Path(__file__).resolve().parents[1] / "bench")]
    import workloads
    from ppbinom import cli

    if not Path(cli.__file__).resolve().is_relative_to(checkout):
        sys.exit(f"imported {cli.__file__}, not the checkout's")
    digest = hashlib.sha256()
    count = 0
    for seed in SEEDS:
        for op in workloads.generate("cli_text", seed):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(op.argv)
            digest.update(json.dumps([code, out.getvalue(), err.getvalue()]).encode() + b"\n")
            count += 1
    print(f"{digest.hexdigest()}  {count} commands")


if __name__ == "__main__":
    main()
