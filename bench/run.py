"""Benchmark of the mfx pipeline, end to end and per layer.

    python3 bench/run.py --workload frontend --seed 1 --seconds 20 --trace 0

Runs whole rounds of the workload's fixed, seeded operation list until
``--seconds`` have passed, checks every result, and prints one JSON object
as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
traced and untraced rounds alternate, the metrics are the per-layer ones,
and the spans are written to ``.bench_out/spans-<workload>-<seed>.json``.
``--smoke`` runs one round at tiny sizes; ``--corrupt`` falsifies the
expected value of the first operation (the run must then report it as
failed).  Run from the root of the repository; mfx is imported from
``src/`` there and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["frontend", "lfp-read", "lfp-write", "audit"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true",
                   help="one round at tiny sizes, all checks on")
    p.add_argument("--corrupt", action="store_true",
                   help="falsify the first operation's expected value")
    args = p.parse_args(argv)

    if not (SRC / "mfx" / "__init__.py").is_file():
        print(f"error: no mfx sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import mfx

    if Path(mfx.__file__).resolve().parent != SRC / "mfx":
        print(f"error: imported mfx from {mfx.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2

    import harness

    result = harness.run(args.workload, args.seed, args.seconds,
                         bool(args.trace), args.smoke, args.corrupt,
                         Path.cwd() / ".bench_out")
    print(json.dumps(result))
    return 0 if result["correct"] and not result["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
